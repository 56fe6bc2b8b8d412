"""Plan 9 ``bind``/``mount``: per-process namespaces over a shared VFS.

The profile in the paper's Figure 2 begins::

    bind -c $home/tmp /tmp
    bind -a $home/bin/rc /bin
    bind -a $home/bin/$cputype /bin

A *namespace* is a mount table layered on a :class:`repro.fs.vfs.VFS`:
each entry maps a canonical path to an ordered stack of nodes, and a
directory with several nodes in its stack behaves as a *union
directory* — lookups try each member in order, listings merge.
``bind -b`` places the new directory before the old, ``-a`` after, and
a plain bind replaces it, exactly as in Plan 9.

Namespaces fork cheaply (the mount table is copied, the VFS is shared),
which is how each simulated process gets its own view.
"""

from __future__ import annotations

import enum
import fnmatch

from repro.fs.errors import (
    Exists,
    Invalid,
    IsADirectory,
    NotADirectory,
    NotFound,
    Busy,
    Permission,
)
from repro.fs.vfs import (
    VFS,
    Dir,
    File,
    FileHandle,
    Node,
    basename,
    dirname,
    join,
    normalize,
    split_path,
)


class BindFlag(enum.Enum):
    """Ordering of a bind relative to what is already at the mount point."""

    REPLACE = "replace"  # bind src dst
    BEFORE = "before"    # bind -b src dst
    AFTER = "after"      # bind -a src dst


class UnionDir(Dir):
    """A read-through view of several directories stacked by bind.

    Lookup returns the first member's child; :meth:`entries` merges all
    members, first occurrence of a name winning.  New files are created
    in the first real directory of the stack.
    """

    def __init__(self, name: str, stack: list[Node]) -> None:
        super().__init__(name)
        self.stack = stack

    def lookup(self, name: str) -> Node | None:
        for member in self.stack:
            if isinstance(member, Dir):
                child = member.lookup(name)
                if child is not None:
                    return child
        return None

    def entries(self) -> list[Node]:
        seen: dict[str, Node] = {}
        for member in self.stack:
            if isinstance(member, Dir):
                for entry in member.entries():
                    seen.setdefault(entry.name, entry)
        return list(seen.values())

    def create_target(self) -> Dir:
        """The directory new files land in (first real dir of the stack)."""
        for member in self.stack:
            if isinstance(member, Dir):
                return member
        raise NotADirectory(f"'{self.name}': no directory to create in",
                            path=self.name, op="create")


class Namespace:
    """A view of a :class:`VFS` through a mount table.

    All path operations the rest of the system performs — the shell,
    the tools, ``help`` itself — go through a Namespace, so a bind or
    a mounted file server is visible everywhere, just as on Plan 9.
    """

    def __init__(self, vfs: VFS) -> None:
        self.vfs = vfs
        self._mounts: dict[str, list[Node]] = {}
        # journal hook: called with (op, canonical path) on every
        # mutation routed through this namespace (write-open, mkdir,
        # remove) — see repro.journal.recorder.SessionRecorder.fs_trace
        self.on_mutation = None

    def fork(self) -> "Namespace":
        """A child namespace sharing the VFS but with its own mount table."""
        child = Namespace(self.vfs)
        child._mounts = {path: list(stack) for path, stack in self._mounts.items()}
        child.on_mutation = self.on_mutation
        return child

    def _mutated(self, op: str, path: str) -> None:
        if self.on_mutation is not None:
            self.on_mutation(op, normalize(path))

    # -- bind / mount -----------------------------------------------------

    def bind(self, src: str, dst: str, flag: BindFlag = BindFlag.REPLACE) -> None:
        """Make *src* visible at *dst* (``bind src dst``).

        Both paths must already resolve.  With :data:`BindFlag.BEFORE`
        or :data:`BindFlag.AFTER` and directory operands, *dst* becomes
        a union directory.
        """
        src_node = self.walk(src)
        dst_node = self.walk(dst)
        if src_node.is_dir != dst_node.is_dir:
            raise Invalid(f"bind: '{src}' and '{dst}' differ in kind",
                          path=normalize(dst), op="bind")
        self._install(normalize(dst), self._flatten(src_node), dst_node, flag)

    def mount(self, node: Node, dst: str, flag: BindFlag = BindFlag.REPLACE) -> None:
        """Attach a server-provided *node* (e.g. a synthetic tree) at *dst*.

        The mount point must exist; mounting a directory over a
        directory with BEFORE/AFTER creates a union, like ``bind``.
        This is how ``/mnt/help`` appears in the namespace.
        """
        dst_node = self.walk(dst)
        self._install(normalize(dst), [node], dst_node, flag)

    def unmount(self, dst: str) -> None:
        """Drop every bind or mount at *dst*."""
        canon = normalize(dst)
        if canon not in self._mounts:
            raise NotFound(f"'{canon}' not mounted", path=canon, op="unmount")
        del self._mounts[canon]

    def _flatten(self, node: Node) -> list[Node]:
        if isinstance(node, UnionDir):
            return list(node.stack)
        return [node]

    def _install(self, canon: str, new: list[Node], dst_node: Node,
                 flag: BindFlag) -> None:
        current = self._mounts.get(canon)
        if current is None:
            current = self._flatten(dst_node)
        if flag is BindFlag.REPLACE:
            stack = new
        elif flag is BindFlag.BEFORE:
            stack = new + current
        else:
            stack = current + new
        self._mounts[canon] = stack

    def mount_table(self) -> dict[str, list[Node]]:
        """A copy of the mount table, for inspection (``ns`` command)."""
        return {path: list(stack) for path, stack in self._mounts.items()}

    # -- resolution -------------------------------------------------------

    def _view(self, canon: str, underlying: Node | None) -> Node | None:
        stack = self._mounts.get(canon)
        if stack is None:
            return underlying
        if len(stack) == 1:
            return stack[0]
        if any(member.is_dir for member in stack):
            return UnionDir(basename(canon) or "/", stack)
        return stack[0]

    def resolve(self, path: str) -> Node | None:
        """Resolve *path* through the mount table, or None if missing."""
        canon = normalize(path)
        cur = self._view("/", self.vfs.root)
        cur_canon = "/"
        for comp in split_path(canon):
            if cur is None or not isinstance(cur, Dir):
                return None
            child = cur.lookup(comp)
            cur_canon = join(cur_canon, comp)
            cur = self._view(cur_canon, child)
        return cur

    def walk(self, path: str) -> Node:
        """Resolve *path*, raising :class:`FsError` if it does not exist."""
        node = self.resolve(path)
        if node is None:
            raise NotFound(path=normalize(path), op="walk")
        return node

    def exists(self, path: str) -> bool:
        """True if *path* resolves through this namespace."""
        return self.resolve(path) is not None

    def isdir(self, path: str) -> bool:
        """True if *path* resolves to a directory."""
        node = self.resolve(path)
        return node is not None and node.is_dir

    # -- I/O through the namespace -----------------------------------------

    def open(self, path: str, mode: str = "r") -> FileHandle:
        """Open the file at *path*; synthetic files get their own session.

        Modes are those of :meth:`repro.fs.vfs.VFS.open`.  Writing to a
        missing path creates a plain file in the enclosing directory
        (which for a union directory is its first member).
        """
        if mode in ("w", "a"):
            self._mutated("write", path)
        node = self.resolve(path)
        if node is None:
            if mode in ("w", "a"):
                return FileHandle(self._create_node(path), mode, self.vfs.clock)
            raise NotFound(path=normalize(path), op="open")
        if node.is_dir:
            raise IsADirectory(path=normalize(path), op="open")
        opener = getattr(node, "open", None)
        if opener is None:
            raise Permission(f"'{normalize(path)}' cannot be opened",
                             path=normalize(path), op="open")
        handle = opener(mode)
        if isinstance(handle, FileHandle):
            handle._clock = self.vfs.clock
        return handle

    def _create_node(self, path: str) -> File:
        parent = self.walk(dirname(path))
        if isinstance(parent, UnionDir):
            parent = parent.create_target()
        if not isinstance(parent, Dir):
            raise NotADirectory(path=dirname(path), op="create")
        node = File(basename(path))
        node.mtime = self.vfs.clock.tick()
        parent.attach(node)
        return node

    def read(self, path: str) -> str:
        """Full contents of the file at *path*."""
        with self.open(path) as f:
            return f.read()

    def write(self, path: str, data: str) -> None:
        """Replace the contents of the file at *path*, creating it."""
        with self.open(path, "w") as f:
            f.write(data)

    def append(self, path: str, data: str) -> None:
        """Append *data* to the file at *path*, creating it."""
        with self.open(path, "a") as f:
            f.write(data)

    def create(self, path: str, data: str = "") -> None:
        """Create or truncate the file at *path* with *data*."""
        self.write(path, data)

    def mkdir(self, path: str, parents: bool = False) -> None:
        """Create a directory; resolves the parent through the namespace."""
        if self.exists(path):
            if parents and self.isdir(path):
                return
            raise Exists(path=normalize(path), op="mkdir")
        parent_path = dirname(path)
        if not self.exists(parent_path):
            if not parents:
                raise NotFound(path=parent_path, op="mkdir")
            self.mkdir(parent_path, parents=True)
        parent = self.walk(parent_path)
        if isinstance(parent, UnionDir):
            parent = parent.create_target()
        if not isinstance(parent, Dir):
            raise NotADirectory(path=parent_path, op="mkdir")
        node = Dir(basename(path))
        node.mtime = self.vfs.clock.tick()
        parent.attach(node)
        self._mutated("mkdir", path)

    def remove(self, path: str) -> None:
        """Remove a file or empty directory (unmounting is separate)."""
        canon = normalize(path)
        if canon in self._mounts:
            raise Busy(f"'{canon}' is a mount point", path=canon, op="remove")
        node = self.walk(canon)
        if isinstance(node, Dir) and node.entries():
            raise Busy(f"'{canon}' not empty", path=canon, op="remove")
        parent = self.walk(dirname(canon))
        if isinstance(parent, UnionDir):
            for member in parent.stack:
                if isinstance(member, Dir) and member.lookup(basename(canon)):
                    member.detach(basename(canon))
                    self._mutated("remove", canon)
                    return
            raise NotFound(path=canon, op="remove")
        if not isinstance(parent, Dir):
            raise NotADirectory(path=dirname(canon), op="remove")
        parent.detach(basename(canon))
        self._mutated("remove", canon)

    def listdir(self, path: str) -> list[str]:
        """Sorted entry names of the directory at *path* (unions merged)."""
        node = self.walk(path)
        if not isinstance(node, Dir):
            raise NotADirectory(path=normalize(path), op="listdir")
        return sorted(entry.name for entry in node.entries())

    def mtime(self, path: str) -> int:
        """Logical mtime of the node at *path*."""
        return self.walk(path).mtime

    def glob(self, pattern: str) -> list[str]:
        """Expand ``*``/``?``/``[...]`` in any component of *pattern*.

        Resolution happens through the namespace, so globs see unions
        and mounted servers.  No matches → empty list (rc passes the
        pattern through unchanged; the shell layer handles that).
        """
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
