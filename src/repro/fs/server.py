"""Synthetic files and directories: the file-server mechanism.

``help`` "provides its client processes access to its structure by
presenting a file service".  On Plan 9 that service speaks 9P; here a
server is simply a tree of nodes whose contents are *computed*:

- a :class:`SynthFile` produces its text on open (``read_fn``) and
  hands writes to a callback (``write_fn``), or supplies a custom
  session factory (``open_fn``) when per-open state matters — opening
  ``/mnt/help/new/ctl`` must create a window and let the opener read
  the new window's name back;
- a :class:`SynthDir` lists and looks up its children through
  callbacks, so ``/mnt/help`` can grow a numbered directory every time
  a window is created.

Such trees are grafted into a namespace with
:meth:`repro.fs.namespace.Namespace.mount`, after which ordinary reads
and writes reach the server — exactly the property the paper exploits
to let shell scripts drive the user interface.
"""

from __future__ import annotations

from typing import Callable

from repro.fs.errors import Closed, Invalid, Permission
from repro.fs.vfs import Dir, File, Node
from repro.metrics.counter import current_registry, incr


class SynthSession:
    """Per-open state of a synthetic file.

    The default session snapshots the producer's text at open time (so
    a reader sees a consistent view even while the window changes) and
    forwards each write, line-buffered, to the consumer.  Servers that
    need different semantics subclass or replace it via ``open_fn``.

    Every session knows the *name* of the file it was opened on, so
    its errors identify the file instead of saying only "closed file".
    Closing is idempotent and exception-safe: a second ``close`` is a
    no-op even if the first one's flush raised, and a session dropped
    without ``close()`` flushes its unterminated final line from
    ``__del__`` as a last resort.
    """

    def __init__(self, mode: str,
                 read_fn: Callable[[], str] | None = None,
                 write_fn: Callable[[str], None] | None = None,
                 name: str = "") -> None:
        self.mode = mode
        self.name = name
        self.closed = False
        self._read_fn = read_fn
        self._write_fn = write_fn
        self._snapshot: str | None = None
        self._pending = ""
        self.pos = 0
        # close() may run from __del__ on whatever thread the collector
        # interrupts; book it against the ledger that booked the open,
        # or sessions dropped in one context bleed closes into another.
        self._registry = current_registry()
        self._registry.incr("fs.open")

    def _check(self, want: str) -> None:
        op = "read" if want == "r" else "write"
        where = self.name or "?"
        if self.closed:
            raise Closed(path=where, op=op)
        if want == "r" and self.mode not in ("r", "rw"):
            raise Permission(f"'{where}' not open for reading",
                             path=where, op=op)
        if want == "w" and self.mode == "r":
            raise Permission(f"'{where}' not open for writing",
                             path=where, op=op)

    def read(self, n: int = -1) -> str:
        """Read from the snapshot taken at first read."""
        self._check("r")
        if self._read_fn is None:
            raise Permission(f"'{self.name or '?'}' not readable",
                             path=self.name or "?", op="read")
        incr("fs.read")
        if self._snapshot is None:
            self._snapshot = self._read_fn()
        data = self._snapshot
        if n < 0:
            out = data[self.pos:]
            self.pos = len(data)
        else:
            out = data[self.pos:self.pos + n]
            self.pos += len(out)
        return out

    def readlines(self) -> list[str]:
        """Remaining snapshot split keeping newlines."""
        return self.read().splitlines(keepends=True)

    def write(self, s: str) -> int:
        """Forward complete lines to the consumer; buffer the remainder."""
        self._check("w")
        if self._write_fn is None:
            raise Permission(f"'{self.name or '?'}' not writable",
                             path=self.name or "?", op="write")
        incr("fs.write")
        self._pending += s
        while "\n" in self._pending:
            line, self._pending = self._pending.split("\n", 1)
            self._write_fn(line + "\n")
        return len(s)

    def seek(self, pos: int) -> None:
        """Reposition the read offset within the snapshot."""
        if self._snapshot is None and self._read_fn is not None:
            self._snapshot = self._read_fn()
        limit = len(self._snapshot or "")
        self.pos = max(0, min(pos, limit))

    def close(self) -> None:
        """Flush any unterminated final line, then close.

        Idempotent, and exception-safe: the session is marked closed
        and the buffer cleared *before* the flush callback runs, so a
        consumer that fails cannot leave the session half-closed or
        replay the tail on a retry.
        """
        if self.closed:
            return
        self.closed = True
        self._registry.incr("fs.close")
        pending, self._pending = self._pending, ""
        if pending and self._write_fn is not None:
            self._write_fn(pending)

    def __del__(self) -> None:
        # Last-ditch flush for sessions dropped without close(): an
        # unterminated final line must not vanish just because the
        # writer forgot (or failed) to close the handle.
        try:
            self.close()
        except Exception:
            pass  # interpreter teardown / consumer gone: nothing to tell

    def __enter__(self) -> "SynthSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SynthFile(File):
    """A file whose contents are served, not stored.

    Exactly one of the two styles is used:

    - *callback style*: pass ``read_fn`` and/or ``write_fn`` and every
      open gets a default :class:`SynthSession` over them;
    - *session style*: pass ``open_fn(mode) -> session`` for files with
      per-open behaviour (``new/ctl``).
    """

    def __init__(self, name: str,
                 read_fn: Callable[[], str] | None = None,
                 write_fn: Callable[[str], None] | None = None,
                 open_fn: Callable[[str], SynthSession] | None = None) -> None:
        Node.__init__(self, name)  # skip File.__init__: .data is a property here
        self._read_fn = read_fn
        self._write_fn = write_fn
        self._open_fn = open_fn

    @property
    def data(self) -> str:  # type: ignore[override]
        """Reading ``.data`` serves the current contents (for `cat`-style use)."""
        if self._read_fn is not None:
            return self._read_fn()
        return ""

    @data.setter
    def data(self, value: str) -> None:
        raise Permission(f"'{self.name}': synthetic file; write through a handle",
                         path=self.name, op="write")

    def open(self, mode: str) -> SynthSession:
        if mode not in ("r", "w", "a", "rw"):
            raise Invalid(f"bad open mode '{mode}'", path=self.name, op="open")
        if self._open_fn is not None:
            session = self._open_fn(mode)
            if not getattr(session, "name", ""):
                session.name = self.name
            return session
        if mode in ("w", "a") and self._write_fn is None:
            raise Permission(f"'{self.name}' not writable",
                             path=self.name, op="open")
        if mode == "r" and self._read_fn is None:
            raise Permission(f"'{self.name}' not readable",
                             path=self.name, op="open")
        return SynthSession(mode, self._read_fn, self._write_fn,
                            name=self.name)


class SynthDir(Dir):
    """A directory whose entries are computed on demand.

    ``list_fn`` returns the live children; ``lookup_fn`` resolves a
    single name (defaulting to a scan of ``list_fn()``).  Static
    children attached with :meth:`~repro.fs.vfs.Dir.attach` are served
    too, after the dynamic ones.
    """

    def __init__(self, name: str,
                 list_fn: Callable[[], list[Node]] | None = None,
                 lookup_fn: Callable[[str], Node | None] | None = None) -> None:
        super().__init__(name)
        self._list_fn = list_fn
        self._lookup_fn = lookup_fn

    def entries(self) -> list[Node]:
        dynamic = self._list_fn() if self._list_fn is not None else []
        seen = {node.name for node in dynamic}
        static = [node for node in super().entries() if node.name not in seen]
        return dynamic + static

    def lookup(self, name: str) -> Node | None:
        if self._lookup_fn is not None:
            node = self._lookup_fn(name)
            if node is not None:
                return node
        elif self._list_fn is not None:
            for node in self._list_fn():
                if node.name == name:
                    return node
        return super().lookup(name)
