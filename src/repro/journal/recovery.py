"""Crash recovery: snapshot plus intact journal suffix.

A crashed session leaves a journal whose tail may be torn mid-record.
:func:`recover` rebuilds the session deterministically:

1. scan the journal text, keeping the longest intact prefix
   (:func:`repro.journal.record.scan_text` — a damaged line ends the
   prefix; the write-ahead discipline guarantees a record that is torn
   was never applied, so dropping the tail loses nothing that
   happened);
2. find the last complete snapshot group (``snapshot`` + ``wids`` +
   ``state`` marks written by compaction) and restore it — the dump
   rebuilds columns, windows, and dirty bodies; the ``wids`` record
   renumbers the rebuilt windows back to their recorded ids (the dump
   format does not carry ids, but journal records name windows by id);
   the ``state`` record restores mouse, snarf buffer, and the current
   selection;
3. replay every input record after the group through the ordinary
   :func:`repro.journal.recorder.replay` path.

With no snapshot group the whole intact prefix replays from the
session's genesis.  Either way the recovered screen is byte-identical
to the last screen the crashed session had fully applied.

Crash recovery is one caller; the same path rehydrates sessions that
left RAM on purpose — a hibernation wake feeds :func:`recover` the
text :meth:`~repro.journal.recorder.SessionRecorder.compact_to_text`
produced (header + snapshot group, empty suffix), whether the session
hibernated in place, was drained from another shard or was promoted
from a standby's copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.events import Point
from repro.core.window import Subwindow
from repro.journal.record import Record, ScanResult, scan_text
from repro.journal.recorder import ReplayError, replay
from repro.metrics.counter import incr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.help import Help


@dataclass
class RecoveryReport:
    """What :func:`recover` found and did."""

    scan: ScanResult
    snapshot_seq: int | None = None   # seq of the snapshot restored, if any
    applied: int = 0                  # input records replayed after it
    inputs: int = 0                   # total input records the journal
    #                                   holds: the "inputs" mark (records
    #                                   the snapshot subsumed) plus the
    #                                   replayed suffix — a client's
    #                                   resume index after failover
    problems: list[str] = field(default_factory=list)

    @property
    def torn(self) -> bool:
        """True when the journal had a damaged tail."""
        return self.scan.torn

    @property
    def dropped(self) -> int:
        """Lines lost to the torn tail."""
        return self.scan.dropped


def _snapshot_group(records: list[Record]) -> tuple[int, Record, Record,
                                                    Record] | None:
    """The last complete snapshot+wids+state group, or None.

    Returns ``(index_after_group, snapshot, wids, state)``.  A group
    interrupted by the crash (snapshot present, companions missing) is
    incomplete and skipped — the scan's prefix rule already dropped any
    torn member, so completeness here is just adjacency of kinds.
    """
    for i in range(len(records) - 3, -1, -1):
        if (records[i].kind == "snapshot"
                and i + 2 < len(records)
                and records[i + 1].kind == "wids"
                and records[i + 2].kind == "state"):
            return i + 3, records[i], records[i + 1], records[i + 2]
    return None


def _restore_snapshot(help_app: "Help", snapshot: Record, wids: Record,
                      state: Record) -> None:
    from repro.core.dump import load
    load(help_app, snapshot.fields()[0])
    _renumber(help_app, wids)
    _restore_state(help_app, state)


def _renumber(help_app: "Help", wids: Record) -> None:
    """Give the reloaded windows their recorded ids back.

    ``wids`` lists the id counter then the window ids in dump
    iteration order (columns left to right, each column's tab order) —
    the same order :func:`repro.core.dump.load` recreates them in.
    """
    fields = wids.fields()
    next_id = int(fields[0])
    ids = [int(tok) for tok in fields[1:]]
    windows = [w for col in help_app.screen.columns for w in col.tab_order()]
    if len(ids) != len(windows):
        raise ReplayError(
            f"wids record names {len(ids)} windows, snapshot restored "
            f"{len(windows)}")
    help_app.windows.clear()
    for window, wid in zip(windows, ids):
        window.id = wid
        help_app.windows[wid] = window
    help_app._next_id = next_id


def _restore_state(help_app: "Help", state: Record) -> None:
    fields = state.fields()
    help_app.mouse = Point(int(fields[0]), int(fields[1]))
    help_app.snarf = fields[2]
    if fields[3] == "-":
        help_app.current = None
        return
    window = help_app.windows.get(int(fields[3]))
    if window is None:
        raise ReplayError(f"state names unknown window {fields[3]}")
    sub = Subwindow(fields[4])
    window.selection(sub).set(int(fields[5]), int(fields[6]))
    help_app.current = (window, sub)


def recover(help_app: "Help", text: str) -> RecoveryReport:
    """Rebuild a session into *help_app* from journal *text*.

    *help_app* should be a freshly built session (booted the same way
    the recorded one was — the ``genesis`` record checks this when no
    snapshot shortcuts past it).  Returns the :class:`RecoveryReport`;
    raises :class:`~repro.journal.recorder.ReplayError` when a record
    in the intact prefix cannot be applied.
    """
    scan = scan_text(text)
    report = RecoveryReport(scan=scan, problems=list(scan.problems))
    incr("journal.recover.count")
    if scan.torn:
        incr("journal.recover.torn")
    records = scan.records
    inputs_base = 0
    group = _snapshot_group(records)
    if group is not None:
        start, snapshot, wids, state = group
        _restore_snapshot(help_app, snapshot, wids, state)
        report.snapshot_seq = snapshot.seq
        # the optional "inputs" mark trails the group (older journals
        # predate it): the count of input records the snapshot subsumed
        if start < len(records) and records[start].kind == "inputs":
            inputs_base = int(records[start].fields()[0])
            start += 1
        records = records[start:]
    report.applied = replay(help_app, records)
    report.inputs = inputs_base + report.applied
    # the suffix length is part of the recovery ledger: a hibernation
    # wake (compacted text, empty suffix) contributes zero here while
    # a crash recovery contributes every replayed input, so the two
    # uses of this path stay distinguishable in the counters
    incr("journal.recover.replayed", report.applied)
    return report
