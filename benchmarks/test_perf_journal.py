"""Journal overhead: write-ahead logging, replay, and recovery timed.

Three closed loops, each keeping the journal ledger balanced inside
the measured callable (every record appended durably is scanned back
by the same iteration), so ``journal.append.records ==
journal.replay.records`` and zero checksum failures hold across the
whole bench run — the invariants ``repro.tools.benchgate`` audits.

- **roundtrip**: record the Figure 7 walkthrough with a live journal,
  then scan + replay it into a fresh system — the full record/replay
  discipline, end to end;
- **recovery**: record with periodic compaction, then recover a fresh
  session from the snapshot + suffix (the crash path minus the crash:
  fault injection belongs to the fault matrix, never to benchmarks);
- **append**: shadow-journal append throughput, isolating the record
  encode + checksum cost from any sink.
"""

from repro.core.render import render_screen
from repro.journal import Journal, attach, scan_text
from repro.journal.recorder import replay
from repro.journal.recovery import recover
from repro.tools.install import build_system
from repro.tools.sessioncheck import fig07_stack

N_APPENDS = 1000


def test_perf_journal_roundtrip(benchmark):
    def roundtrip():
        recorded = build_system(width=160, height=60)
        journal = Journal.create(recorded.ns, "/usr/rob/help.journal")
        attach(recorded.help, journal, ns=recorded.ns)
        fig07_stack(recorded)
        journal.flush()
        scan = scan_text(recorded.ns.read("/usr/rob/help.journal"))
        assert not scan.torn, scan.problems
        replayed = build_system(width=160, height=60)
        attach(replayed.help, Journal(), ns=replayed.ns)  # shadow journal
        replay(replayed.help, scan.records)
        return (render_screen(recorded.help) == render_screen(replayed.help),
                len(scan.records))

    identical, records = benchmark(roundtrip)
    assert identical
    assert records > 0
    benchmark.extra_info["records"] = records


def test_perf_journal_recovery(benchmark):
    def recover_session():
        system = build_system(width=160, height=60)
        journal = Journal.create(system.ns, "/usr/rob/help.journal")
        attach(system.help, journal, ns=system.ns, snapshot_every=3)
        fig07_stack(system)
        text = system.ns.read("/usr/rob/help.journal")
        fresh = build_system(width=160, height=60)
        report = recover(fresh.help, text)
        return (render_screen(system.help, full=True)
                == render_screen(fresh.help, full=True),
                report.snapshot_seq)

    identical, snapshot_seq = benchmark(recover_session)
    assert identical
    assert snapshot_seq is not None   # compaction really ran


def test_perf_journal_append(benchmark):
    def appends():
        journal = Journal()   # shadow: pure record encode + checksum
        for i in range(N_APPENDS):
            journal.append("type", (f"word {i}\n",))
        return journal.seq

    seq = benchmark(appends)
    assert seq == N_APPENDS
