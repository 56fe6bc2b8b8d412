"""Teeing a live session into a journal, and driving one back out.

:class:`SessionRecorder` sits between :class:`~repro.core.help.Help`
and a :class:`~repro.journal.log.Journal`.  Help's mutating entry
points call :meth:`recording` around their work; the recorder appends
the record and flushes it **before** the event is applied (the
write-ahead discipline), so a crash mid-application never loses the
record of what was in flight.

Depth matters: a top-level call (a real input — mouse, keyboard, a
programmatic ``execute_text``) is an **input** record; the same entry
point reached *while applying* another input (a tool script opening
``/mnt/help/new/ctl`` creates a window nested under the ``exec`` that
ran the script) is derived work and is appended as a ``+``-prefixed
**trace** record instead.  Replay re-applies only the input records;
the derived records regenerate on their own, and comparing the
regenerated trace against the recorded one pinpoints the first
divergent sequence number.

:func:`replay` drives a fresh Help through the input records of a
scanned journal, timing each application into the ``replay.apply_us``
histograms so a replay doubles as a profile.
"""

from __future__ import annotations

import time
import zlib
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable

from repro.core.events import button_from
from repro.core.window import Subwindow
from repro.journal.log import Journal
from repro.journal.record import MARK_KINDS, Record
from repro.metrics.counter import incr, observe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.help import Help
    from repro.fs.namespace import Namespace


class ReplayError(Exception):
    """A record that cannot be applied to the target session."""


def _opt(value) -> str:
    """Encode an optional field: ``-`` for None, ``=<value>`` else."""
    return "-" if value is None else f"={value}"


def _unopt(token: str) -> str | None:
    if token == "-":
        return None
    if token.startswith("="):
        return token[1:]
    raise ReplayError(f"bad optional field {token!r}")


class SessionRecorder:
    """Tees one Help session's events into a write-ahead journal."""

    def __init__(self, help_app: "Help", journal: Journal,
                 snapshot_every: int | None = None,
                 trace_screens: bool = False) -> None:
        self.help = help_app
        self.journal = journal
        self.snapshot_every = snapshot_every
        self.trace_screens = trace_screens
        self._depth = 0
        self._busy = False          # the journal's own sink writes
        self._since_snapshot = 0
        # input records ever journalled for this session — survives
        # compaction via the "inputs" mark in the snapshot group, so a
        # client resuming against a promoted replica knows exactly how
        # many of its writes the journal holds (the resume index).
        # Recovery seeds it (RecoveryReport.inputs) on a wake.
        self.inputs_recorded = 0

    # -- the tee ----------------------------------------------------------

    @contextmanager
    def recording(self, kind: str, fields: tuple):
        """Record one Help entry point around its application.

        Top level: append + flush the input record first (write-ahead),
        apply, then flush the traces the application produced — and
        compact onto a fresh snapshot when the schedule says so.
        Nested: append a derived trace record and stand back.
        """
        if self._depth == 0:
            self.journal.append(kind, fields)
            self.inputs_recorded += 1
            self._flush()
        else:
            self.journal.append("+" + kind, fields)
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0:
                if self.trace_screens:
                    self._trace_screen()
                self._since_snapshot += 1
                if (self.snapshot_every is not None
                        and self._since_snapshot >= self.snapshot_every):
                    self.compact()
                else:
                    self._flush()

    def trace(self, kind: str, fields: tuple) -> None:
        """Append a derived trace record (``+<kind>``), unflushed."""
        if self._busy:
            return
        self.journal.append("+" + kind, fields)

    def _flush(self) -> None:
        self._busy = True
        try:
            self.journal.flush()
        finally:
            self._busy = False

    def _trace_screen(self) -> None:
        from repro.core.render import render_screen
        grid = render_screen(self.help, footer=False, full=True)
        self.trace("screen", (f"{zlib.crc32(grid.encode()) & 0xffffffff:08x}",))

    # -- hooks from the substrate layers ----------------------------------

    def shell_trace(self, argv: list[str], cwd: str) -> None:
        """One simple command dispatched by the shell (rc) layer."""
        self.trace("cmd", (cwd, *argv))

    def fs_trace(self, op: str, path: str) -> None:
        """One namespace mutation (write-open, mkdir, remove)."""
        if self._busy:
            return
        sink = self.journal.sink
        if sink is not None and getattr(sink, "path", None) == path:
            return  # the journal's own file
        self.trace("fs", (op, path))

    # -- snapshots ---------------------------------------------------------

    def compact(self) -> None:
        """Write a snapshot group and truncate the journal onto it.

        The group is ``snapshot`` (the inline :mod:`repro.core.dump`),
        ``wids`` (window ids in dump order plus the id counter, which
        the dump format does not carry), ``state`` (current selection,
        snarf buffer, mouse position) and ``inputs`` (the count of
        input records the snapshot subsumes — the replication resume
        index).  Everything before the group becomes unreachable;
        recovery starts from the snapshot and replays only what
        follows.
        """
        from repro.core.dump import dump
        self._flush()
        h = self.help
        snap = self.journal.append("snapshot", (dump(h),))
        ids = [str(w.id) for col in h.screen.columns for w in col.tab_order()]
        wids = self.journal.append("wids", (str(h._next_id), *ids))
        state = self.journal.append("state", self._state_fields())
        inputs = self.journal.append("inputs", (str(self.inputs_recorded),))
        self._busy = True
        try:
            self.journal.compact([snap, wids, state, inputs])
        finally:
            self._busy = False
        self._since_snapshot = 0
        self.journal._ledger().incr("journal.snapshot.count")

    def compact_to_text(self) -> str:
        """Compact the live session and return its serialized journal.

        The returned text — header, snapshot group, nothing else — is
        the whole session in one string: feed it to
        :func:`repro.journal.recovery.recover` on a freshly built world
        and the screen comes back byte-identical.  This is the
        serialization both shard migration and session hibernation
        spool; it requires a durable journal (a shadow journal has no
        sink to read back).
        """
        sink = self.journal.sink
        if sink is None:
            raise ValueError("cannot serialize a shadow journal")
        self.compact()
        return sink.ns.read(sink.path)

    def _state_fields(self) -> tuple:
        h = self.help
        if h.current is None:
            cur = ("-", "-", "-", "-")
        else:
            window, sub = h.current
            sel = window.selection(sub)
            cur = (str(window.id), sub.value, str(sel.q0), str(sel.q1))
        return (str(h.mouse.x), str(h.mouse.y), h.snarf, *cur)

    # -- bookkeeping --------------------------------------------------------

    def genesis(self) -> None:
        """Record the world this journal is relative to."""
        h = self.help
        self.journal.append("genesis", (h.screen.rect.width,
                                        h.screen.rect.height,
                                        len(h.screen.columns),
                                        h._next_id))
        self._flush()


def attach(help_app: "Help", journal: Journal,
           ns: "Namespace | None" = None,
           snapshot_every: int | None = None,
           trace_screens: bool = False,
           context=None) -> SessionRecorder:
    """Install a recorder on *help_app* (and optionally its namespace).

    Records everything from this moment on; the ``genesis`` record
    pins the screen geometry and window-id counter so replay can check
    it is rebuilding the same world.  With *ns*, namespace mutations
    (write-opens, mkdir, remove) are teed as ``+fs`` traces too.  With
    a :class:`~repro.session.SessionContext`, the journal and recorder
    are registered on it (and the journal adopts its metrics ledger).
    """
    recorder = SessionRecorder(help_app, journal,
                               snapshot_every=snapshot_every,
                               trace_screens=trace_screens)
    help_app.journal = recorder
    if context is not None:
        if journal.metrics is None:
            journal.metrics = context.metrics
        context.journal = journal
        context.recorder = recorder
        if ns is None:
            ns = context.ns
    if ns is not None:
        ns.on_mutation = recorder.fs_trace
    recorder.genesis()
    return recorder


# -- replay -------------------------------------------------------------------

def replay(help_app: "Help", records: Iterable[Record],
           strict: bool = True) -> int:
    """Apply the input records of a scanned journal to *help_app*.

    Trace (``+``) records are skipped — the session regenerates its
    own derived work.  Mark records are consumed for verification
    (``genesis``) or ignored (snapshot groups are recovery's job; see
    :mod:`repro.journal.recovery`).  Every applied record bumps
    ``journal.replay.applied`` and lands a latency sample in the
    ``replay.apply_us`` histograms.  Returns the number applied.
    """
    applied = 0
    for record in records:
        if record.derived or record.kind in MARK_KINDS:
            if record.kind == "genesis":
                _check_genesis(help_app, record)
            continue
        start = time.perf_counter()
        try:
            apply_record(help_app, record)
        except ReplayError:
            raise
        except Exception as exc:
            if strict:
                raise ReplayError(
                    f"seq {record.seq} ({record.kind}): {exc!r}") from exc
        elapsed_us = (time.perf_counter() - start) * 1e6
        observe("replay.apply_us", elapsed_us)
        observe(f"replay.apply_us.{record.kind}", elapsed_us)
        incr("journal.replay.applied")
        applied += 1
    return applied


def _check_genesis(help_app: "Help", record: Record) -> None:
    fields = record.fields()
    want = (str(help_app.screen.rect.width), str(help_app.screen.rect.height),
            str(len(help_app.screen.columns)), str(help_app._next_id))
    if tuple(fields[:4]) != want:
        raise ReplayError(
            f"seq {record.seq}: genesis {fields} does not match the "
            f"target session {list(want)}")


def _window(help_app: "Help", token: str):
    wid = int(token)
    window = help_app.windows.get(wid)
    if window is None:
        raise ReplayError(f"no window {wid} in the target session")
    return window


def apply_record(help_app: "Help", record: Record) -> None:
    """Re-apply one input record through the public Help API."""
    h = help_app
    kind = record.kind
    f = record.fields()
    if kind == "mouse-press":
        h.mouse_press(int(f[0]), int(f[1]), button_from(f[2]))
    elif kind == "mouse-drag":
        h.mouse_drag(int(f[0]), int(f[1]))
    elif kind == "mouse-release":
        h.mouse_release(int(f[0]), int(f[1]), button_from(f[2]))
    elif kind == "mouse-move":
        h.mouse_move(int(f[0]), int(f[1]))
    elif kind == "type":
        h.type_text(f[0])
    elif kind == "resize":
        h.resize(int(f[0]), int(f[1]))
    elif kind == "exec":
        h.execute_text(_window(h, f[0]), f[2], Subwindow(f[1]))
    elif kind == "builtin":
        h.exec_builtin(f[0], _window(h, f[1]), Subwindow(f[2]), f[3])
    elif kind == "select":
        h.select(_window(h, f[0]), int(f[2]), int(f[3]), Subwindow(f[1]))
    elif kind == "open":
        line = _unopt(f[1])
        near = _unopt(f[2])
        h.open_path(f[0], None if line is None else int(line),
                    None if near is None else _window(h, near))
    elif kind == "newwin":
        col = _unopt(f[0])
        near = _unopt(f[1])
        suffix = _unopt(f[2])
        h.new_window(f[3], f[4],
                     near=None if near is None else _window(h, near),
                     column=(None if col is None
                             else h.screen.columns[int(col)]),
                     tag_suffix=suffix)
    elif kind == "close":
        h.close_window(_window(h, f[0]))
    elif kind == "scroll":
        h.scroll(_window(h, f[0]), int(f[1]))
    elif kind == "replace-body":
        h.replace_body(_window(h, f[0]), f[2], dirty=bool(int(f[1])))
    else:
        raise ReplayError(f"seq {record.seq}: unknown input kind {kind!r}")


def divergence(recorded: list[Record], regenerated: list[Record]
               ) -> tuple[int, str] | None:
    """The first divergent sequence number between two record streams.

    Mark records are journal bookkeeping (compaction timing differs
    between a live session and its replay) and are excluded; input and
    trace records must match pairwise in kind and payload.  Returns
    ``(recorded_seq, description)`` or None when the streams agree.
    """
    a = [r for r in recorded if r.kind not in MARK_KINDS]
    b = [r for r in regenerated if r.kind not in MARK_KINDS]
    for got, want in zip(b, a):
        if (got.kind, got.payload) != (want.kind, want.payload):
            return (want.seq,
                    f"recorded {want.kind} {want.payload!r} but replay "
                    f"produced {got.kind} {got.payload!r}")
    if len(a) != len(b):
        seq = a[min(len(b), len(a) - 1)].seq if a else 0
        return (seq, f"recorded {len(a)} records, replay produced {len(b)}")
    return None
