"""In-memory filesystem: files, directories, handles, and a logical clock.

This module is the lowest layer of the Plan 9 substrate.  It knows
nothing about ``bind``/``mount`` (see :mod:`repro.fs.namespace`) or
synthetic files (see :mod:`repro.fs.server`); it provides plain nodes
and the path utilities shared by the higher layers.

Paths are Plan 9 style: ``/`` separated, absolute paths begin with
``/``, and ``.`` / ``..`` components are resolved lexically by
:func:`normalize`.  File contents are text.
"""

from __future__ import annotations

from typing import Iterator

from repro.fs.errors import (
    Closed,
    Exists,
    Invalid,
    IsADirectory,
    NotADirectory,
    NotFound,
    Busy,
    Permission,
)
from repro.metrics.counter import incr


def split_path(path: str) -> list[str]:
    """Split *path* into components, dropping empty ones.

    >>> split_path('/usr/rob//src/')
    ['usr', 'rob', 'src']
    """
    return [c for c in path.split("/") if c]


def normalize(path: str) -> str:
    """Lexically normalize *path* to a canonical absolute form.

    ``.`` components are dropped and ``..`` pops the previous
    component (stopping at the root).  The result always begins with
    ``/`` and never ends with one (except the root itself).

    >>> normalize('/usr/rob/../ken/./src')
    '/usr/ken/src'
    >>> normalize('//')
    '/'
    """
    out: list[str] = []
    for comp in split_path(path):
        if comp == ".":
            continue
        if comp == "..":
            if out:
                out.pop()
            continue
        out.append(comp)
    return "/" + "/".join(out)


def join(base: str, name: str) -> str:
    """Join *name* onto directory *base*; absolute *name* wins.

    >>> join('/usr/rob', 'src')
    '/usr/rob/src'
    >>> join('/usr/rob', '/bin/rc')
    '/bin/rc'
    """
    if name.startswith("/"):
        return normalize(name)
    return normalize(base + "/" + name)


def basename(path: str) -> str:
    """Final component of *path* ('' for the root)."""
    parts = split_path(path)
    return parts[-1] if parts else ""


def dirname(path: str) -> str:
    """Directory part of *path* ('/' for top-level names)."""
    parts = split_path(path)
    if len(parts) <= 1:
        return "/"
    return "/" + "/".join(parts[:-1])


class Node:
    """Base class for filesystem nodes.

    Every node records its *name*, its *mtime* (a tick from the owning
    :class:`VFS`'s logical clock, or 0 for detached nodes) and whether
    it is a directory.  Nodes deliberately do not hold parent
    pointers: the same node may be bound at several places in a
    namespace, so identity lives in the mount table, not the node.
    """

    is_dir = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.mtime = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dir" if self.is_dir else "file"
        return f"<{kind} {self.name!r}>"


class File(Node):
    """A regular text file."""

    def __init__(self, name: str, data: str = "") -> None:
        super().__init__(name)
        self.data = data

    def open(self, mode: str) -> "FileHandle":
        """Open the file; see :meth:`VFS.open` for mode semantics."""
        return FileHandle(self, mode)


class Dir(Node):
    """A directory: an ordered mapping of names to child nodes.

    Subclasses (notably :class:`repro.fs.server.SynthDir`) may override
    :meth:`lookup` and :meth:`entries` to compute children on demand.
    """

    is_dir = True

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._children: dict[str, Node] = {}

    def lookup(self, name: str) -> Node | None:
        """Return the child called *name*, or None."""
        return self._children.get(name)

    def entries(self) -> list[Node]:
        """All children in insertion order."""
        return list(self._children.values())

    def attach(self, node: Node) -> Node:
        """Add (or replace) *node* as a child under its own name."""
        self._children[node.name] = node
        return node

    def detach(self, name: str) -> None:
        """Remove the child called *name*.

        Raises :class:`FsError` if there is no such child.
        """
        if name not in self._children:
            raise NotFound(path=name, op="remove")
        del self._children[name]

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def __iter__(self) -> Iterator[Node]:
        return iter(self.entries())


class FileHandle:
    """An open file: a position plus read/write access to the node.

    Handles are returned by :meth:`VFS.open` and
    :meth:`Namespace.open`.  They support the context-manager protocol
    so caller code reads like ordinary Python I/O::

        with ns.open('/usr/rob/lib/profile') as f:
            text = f.read()
    """

    def __init__(self, node: File, mode: str, clock: "Clock | None" = None) -> None:
        if mode not in ("r", "w", "a", "rw"):
            raise Invalid(f"bad open mode '{mode}'", path=node.name, op="open")
        self.node = node
        self.mode = mode
        self.closed = False
        self._clock = clock
        if mode == "w":
            node.data = ""
        self.pos = len(node.data) if mode == "a" else 0
        incr("fs.open")

    def _check(self, want: str) -> None:
        op = "read" if want == "r" else "write"
        if self.closed:
            raise Closed(path=self.node.name, op=op)
        if want == "r" and self.mode not in ("r", "rw"):
            raise Permission(f"'{self.node.name}' not open for reading",
                             path=self.node.name, op=op)
        if want == "w" and self.mode == "r":
            raise Permission(f"'{self.node.name}' not open for writing",
                             path=self.node.name, op=op)

    def read(self, n: int = -1) -> str:
        """Read up to *n* characters (all remaining if n < 0)."""
        self._check("r")
        incr("fs.read")
        data = self.node.data
        if n < 0:
            out = data[self.pos:]
            self.pos = len(data)
        else:
            out = data[self.pos:self.pos + n]
            self.pos += len(out)
        return out

    def readlines(self) -> list[str]:
        """Read the rest of the file and split it keeping newlines."""
        return self.read().splitlines(keepends=True)

    def write(self, s: str) -> int:
        """Write *s* at the current position, extending the file."""
        self._check("w")
        incr("fs.write")
        data = self.node.data
        self.node.data = data[:self.pos] + s + data[self.pos + len(s):]
        self.pos += len(s)
        if self._clock is not None:
            self.node.mtime = self._clock.tick()
        return len(s)

    def seek(self, pos: int) -> None:
        """Move the read/write position to *pos* (clamped to the file)."""
        self.pos = max(0, min(pos, len(self.node.data)))

    def close(self) -> None:
        """Close the handle; closing twice is a no-op."""
        if self.closed:
            return
        self.closed = True
        incr("fs.close")

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Clock:
    """Monotonic logical clock; one tick per mutation.

    ``mk`` (and the paper's proposed inverted builder) compare file
    modification times; a logical clock makes those comparisons
    deterministic in tests.
    """

    def __init__(self) -> None:
        self.now = 0

    def tick(self) -> int:
        self.now += 1
        return self.now


class VFS:
    """A tree of :class:`Node` objects rooted at ``/``.

    The VFS is the *storage* layer; user code normally goes through a
    :class:`repro.fs.namespace.Namespace`, which adds bind/mount.  The
    two share this path API, so a Namespace over an empty mount table
    behaves exactly like its VFS.
    """

    def __init__(self) -> None:
        self.root = Dir("/")
        self.clock = Clock()

    # -- path resolution ------------------------------------------------

    def walk(self, path: str) -> Node:
        """Resolve *path* to a node, raising :class:`FsError` if absent."""
        node = self.resolve(path)
        if node is None:
            raise NotFound(path=normalize(path), op="walk")
        return node

    def resolve(self, path: str) -> Node | None:
        """Resolve *path* to a node, or None if any component is missing."""
        node: Node = self.root
        for comp in split_path(normalize(path)):
            if not isinstance(node, Dir):
                return None
            child = node.lookup(comp)
            if child is None:
                return None
            node = child
        return node

    def exists(self, path: str) -> bool:
        """True if *path* resolves to a node."""
        return self.resolve(path) is not None

    def isdir(self, path: str) -> bool:
        """True if *path* resolves to a directory."""
        node = self.resolve(path)
        return node is not None and node.is_dir

    # -- creation / removal ---------------------------------------------

    def mkdir(self, path: str, parents: bool = False) -> Dir:
        """Create directory *path*; with *parents*, create missing ancestors.

        Creating an existing directory is an error unless *parents* is
        set (matching ``mkdir -p``).
        """
        parts = split_path(normalize(path))
        node: Dir = self.root
        for i, comp in enumerate(parts):
            child = node.lookup(comp)
            last = i == len(parts) - 1
            if child is None:
                if not last and not parents:
                    raise NotFound(path=dirname(path), op="mkdir")
                child = node.attach(Dir(comp))
                child.mtime = self.clock.tick()
            elif last and not parents:
                raise Exists(path=normalize(path), op="mkdir")
            if not isinstance(child, Dir):
                raise NotADirectory(path=comp, op="mkdir")
            node = child
        return node

    def create(self, path: str, data: str = "") -> File:
        """Create (or truncate) the file at *path* with *data*."""
        parent = self.walk(dirname(path))
        if not isinstance(parent, Dir):
            raise NotADirectory(path=dirname(path), op="create")
        name = basename(path)
        existing = parent.lookup(name)
        if existing is not None:
            if existing.is_dir:
                raise IsADirectory(path=normalize(path), op="create")
            assert isinstance(existing, File)
            existing.data = data
            existing.mtime = self.clock.tick()
            return existing
        node = File(name, data)
        node.mtime = self.clock.tick()
        parent.attach(node)
        return node

    def remove(self, path: str) -> None:
        """Remove the file or (empty) directory at *path*."""
        node = self.walk(path)
        if isinstance(node, Dir) and node.entries():
            raise Busy(f"'{normalize(path)}' not empty",
                       path=normalize(path), op="remove")
        parent = self.walk(dirname(path))
        assert isinstance(parent, Dir)
        parent.detach(basename(path))

    # -- convenience I/O --------------------------------------------------

    def open(self, path: str, mode: str = "r") -> FileHandle:
        """Open the file at *path*.

        Modes: ``'r'`` read, ``'w'`` truncate-write, ``'a'`` append,
        ``'rw'`` read/write without truncation.  ``'w'`` and ``'a'``
        create the file if missing.
        """
        node = self.resolve(path)
        if node is None:
            if mode in ("w", "a"):
                node = self.create(path)
            else:
                raise NotFound(path=normalize(path), op="open")
        if node.is_dir:
            raise IsADirectory(path=normalize(path), op="open")
        assert isinstance(node, File)
        return FileHandle(node, mode, self.clock)

    def read(self, path: str) -> str:
        """Return the full contents of the file at *path*."""
        with self.open(path) as f:
            return f.read()

    def write(self, path: str, data: str) -> None:
        """Replace the contents of the file at *path* (creating it)."""
        with self.open(path, "w") as f:
            f.write(data)

    def append(self, path: str, data: str) -> None:
        """Append *data* to the file at *path* (creating it)."""
        with self.open(path, "a") as f:
            f.write(data)

    def listdir(self, path: str) -> list[str]:
        """Sorted names of the entries in the directory at *path*."""
        node = self.walk(path)
        if not isinstance(node, Dir):
            raise NotADirectory(path=normalize(path), op="listdir")
        return sorted(e.name for e in node.entries())

    def mtime(self, path: str) -> int:
        """Logical mtime of the node at *path*."""
        return self.walk(path).mtime

    def touch(self, path: str) -> None:
        """Bump the mtime of *path*, creating an empty file if missing."""
        node = self.resolve(path)
        if node is None:
            node = self.create(path)
        else:
            node.mtime = self.clock.tick()

    def glob(self, pattern: str) -> list[str]:
        """Expand a shell glob *pattern* against the tree.

        Supports ``*`` and ``?`` in any component (the subset rc uses;
        the paper's examples are all of the ``*.c`` form).  Returns
        sorted full paths; a pattern with no matches returns ``[]``.
        """
        import fnmatch

        pattern = normalize(pattern)
        matches = ["/"]
        for comp in split_path(pattern):
            new: list[str] = []
            for base in matches:
                node = self.resolve(base)
                if not isinstance(node, Dir):
                    continue
                if "*" in comp or "?" in comp or "[" in comp:
                    for entry in node.entries():
                        if fnmatch.fnmatchcase(entry.name, comp):
                            new.append(join(base, entry.name))
                else:
                    if node.lookup(comp) is not None:
                        new.append(join(base, comp))
            matches = new
        return sorted(matches)
