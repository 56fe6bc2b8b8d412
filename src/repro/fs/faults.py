"""Deterministic fault injection for file-server trees.

The ROADMAP asks the system to handle "as many scenarios as you can
imagine"; this module makes the bad scenarios *reproducible*.  A
:class:`FaultPlan` is a schedule of :class:`Fault` rules — each names
an operation (``open``/``read``/``write``/``close``), a path pattern,
and which matching occurrence should fail — and :func:`wrap` grafts
the plan over any :class:`~repro.fs.vfs.Node` tree::

    plan = FaultPlan(
        Fault(op='write', path='*/ctl', at=2),          # 2nd ctl write
        Fault(op='read', path='/mnt/help/index', short=4),
    )
    ns.mount(wrap(helpfs.root, plan, base='/mnt/help'), '/mnt/help')

Everything stays deterministic: rules fire by op-count, never by time
or randomness, so a failing schedule is a regression test.  Injected
errors are ordinary taxonomy errors (:mod:`repro.fs.errors`) carrying
the faulted path and op, and every trigger bumps the
``fs.fault.injected`` counter; the ``fs.error.<kind>`` counter moves
where the error is reported (a wire reply, the Errors window, a shell
diagnostic) — tests assert the counters match the schedule.

Short reads (``short=N``) truncate the data instead of raising: the
reader sees the first *N* characters and must cope with a partial
result, the file-server analogue of a short ``read(2)``.

Crash faults (``crash=True``) kill the simulated process: the
triggering write lands only a torn prefix of its data (``short``
characters, default half), the op raises
:class:`~repro.fs.errors.Crashed`, and the plan goes *dead* — every
later op on it raises ``Crashed`` too, because a dead process answers
nothing.  This is how journal crash-recovery scenarios are staged.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field

from repro.fs.errors import Crashed, FsError, IOFault
from repro.fs.vfs import Dir, File, Node, join
from repro.metrics.counter import incr

OPS = ("open", "read", "write", "close")


@dataclass
class Fault:
    """One scheduled failure.

    ``op``      which operation to sabotage (one of :data:`OPS`);
    ``path``    fnmatch pattern over canonical paths (``'*/ctl'``);
    ``at``      1-based index of the matching op that fails — ``0``
                means *every* matching op fails;
    ``kind``    the taxonomy error class to raise;
    ``short``   for reads: return only the first *short* characters
                instead of raising; for crashing writes: how many
                characters land before the process dies;
    ``crash``   the process dies at this op: a write tears mid-record
                (``short`` characters if given, else half), the plan
                goes *dead*, and every later op raises
                :class:`~repro.fs.errors.Crashed`;
    ``message`` optional override for the error message.
    """

    op: str
    path: str = "*"
    at: int = 1
    kind: type[FsError] = IOFault
    short: int | None = None
    crash: bool = False
    message: str | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown faultable op {self.op!r}")


@dataclass
class FaultPlan:
    """An ordered schedule of faults with per-rule op counters."""

    faults: list[Fault]
    _seen: list[int] = field(default_factory=list, repr=False)
    fired: list[int] = field(default_factory=list, repr=False)

    def __init__(self, *faults: Fault) -> None:
        self.faults = list(faults)
        self._seen = [0] * len(self.faults)
        self.fired = [0] * len(self.faults)
        self.dead = False   # a crash fault fired; the process is gone

    def reset(self) -> None:
        """Zero the op counters so the schedule replays from the start."""
        self._seen = [0] * len(self.faults)
        self.fired = [0] * len(self.faults)
        self.dead = False

    @property
    def injected(self) -> int:
        """Total number of faults triggered so far."""
        return sum(self.fired)

    def check(self, op: str, path: str) -> Fault | None:
        """Record one *op* on *path*; raise if a rule says so.

        Returns the triggering rule for non-raising modifiers (short
        reads) so the caller can apply them, or None.
        """
        if self.dead:
            # closing a handle to a dead process is a no-op (as after
            # EIO); raising here would mask the crash that killed it
            if op == "close":
                return None
            raise Crashed(path=path, op=op)
        modifier: Fault | None = None
        to_raise: Fault | None = None
        # every matching rule counts the op, even when an earlier rule
        # is about to kill it — rules fire by *attempted* op index
        for i, fault in enumerate(self.faults):
            if fault.op != op or not fnmatch.fnmatchcase(path, fault.path):
                continue
            self._seen[i] += 1
            if fault.at != 0 and self._seen[i] != fault.at:
                continue
            self.fired[i] += 1
            incr("fs.fault.injected")
            if fault.crash:
                # the plan dies; a crashing *write* is handed back so
                # the session can tear the record before raising
                self.dead = True
                if op == "write":
                    if modifier is None:
                        modifier = fault
                elif to_raise is None:
                    to_raise = fault
            elif fault.short is not None and op == "read":
                if modifier is None:
                    modifier = fault
            elif to_raise is None:
                to_raise = fault
        if to_raise is not None:
            if to_raise.crash:
                raise Crashed(to_raise.message, path=path, op=op)
            raise to_raise.kind(to_raise.message, path=path, op=op)
        return modifier


class FaultyFile(File):
    """A file whose opens and handles consult a :class:`FaultPlan`."""

    def __init__(self, inner: File, plan: FaultPlan, path: str) -> None:
        Node.__init__(self, inner.name)
        self._inner = inner
        self._plan = plan
        self._path = path
        self.mtime = inner.mtime

    @property
    def data(self) -> str:  # type: ignore[override]
        return self._inner.data

    def open(self, mode: str) -> "FaultySession":
        self._plan.check("open", self._path)
        return FaultySession(self._inner.open(mode), self._plan, self._path)


class FaultySession:
    """Wraps any handle or session, injecting faults per the plan."""

    def __init__(self, inner, plan: FaultPlan, path: str) -> None:
        self._inner = inner
        self._plan = plan
        self._path = path
        self._done = False

    def read(self, n: int = -1) -> str:
        rule = self._plan.check("read", self._path)
        data = self._inner.read(n)
        if rule is not None and rule.short is not None:
            return data[:rule.short]
        return data

    def readlines(self) -> list[str]:
        return self.read().splitlines(keepends=True)

    def write(self, s: str) -> int:
        rule = self._plan.check("write", self._path)
        if rule is not None and rule.crash:
            torn = s[:rule.short] if rule.short is not None else s[:len(s) // 2]
            if torn:
                self._inner.write(torn)
            raise Crashed(rule.message, path=self._path, op="write")
        return self._inner.write(s)

    def seek(self, pos: int) -> None:
        self._inner.seek(pos)

    def close(self) -> None:
        """Close-time faults still close the underlying handle."""
        if self._done:
            return
        self._done = True
        try:
            self._plan.check("close", self._path)
        finally:
            self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed

    @property
    def mode(self) -> str:
        return self._inner.mode

    @property
    def pos(self) -> int:
        return self._inner.pos

    def __enter__(self) -> "FaultySession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class FaultyDir(Dir):
    """A directory view that wraps every child in the fault layer."""

    def __init__(self, inner: Dir, plan: FaultPlan, path: str) -> None:
        super().__init__(inner.name)
        self._inner = inner
        self._plan = plan
        self._path = path

    def _wrap(self, node: Node) -> Node:
        return wrap(node, self._plan, base=join(self._path, node.name))

    def lookup(self, name: str) -> Node | None:
        child = self._inner.lookup(name)
        return None if child is None else self._wrap(child)

    def entries(self) -> list[Node]:
        return [self._wrap(child) for child in self._inner.entries()]

    def attach(self, node: Node) -> Node:
        return self._inner.attach(node)

    def detach(self, name: str) -> None:
        self._inner.detach(name)


def wrap(node: Node, plan: FaultPlan, base: str = "/") -> Node:
    """The fault-injecting view of *node*, reporting paths under *base*.

    *base* should be the path the tree will be mounted at, so injected
    errors and rule patterns read like real namespace paths
    (``/mnt/help/7/body``).  The underlying tree is never modified —
    unmounting the wrapped view restores normal service.
    """
    if isinstance(node, Dir):
        return FaultyDir(node, plan, base)
    if isinstance(node, File):
        return FaultyFile(node, plan, base)
    return node
