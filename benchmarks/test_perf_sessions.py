"""P7: session hosting throughput — K isolated worlds in one process.

The tentpole claim of the session layer is that hosting N fully
isolated help sessions (own namespace, ledger, journal) behind one
wire server costs little more than running one: attach fans out,
input records apply concurrently, and teardown retires cleanly.
These benches put numbers behind that and feed the ``sessions``
section of ``BENCH_perf.json``: per-record apply latency histograms
(``session.apply_us``) plus the host ledger
(``host.sessions.opened/closed/bleed``) that
:mod:`repro.tools.benchgate` audits for balance and zero bleed.

Every hosted session journals, so each input pays its write-ahead
flush here; the ``fold_hosted`` fixture keeps the journal ledger out
of the report.
"""

import threading

from repro.fs.mux import MuxClient, dial, mount_remote
from repro.fs.namespace import Namespace
from repro.fs.vfs import VFS
from repro.serve import SessionHost, input_line

SESSIONS = 6        # concurrent hosted sessions (acceptance floor is 4)
RECORDS = 12        # input records each session applies per iteration

_SCRIPT = "".join(
    input_line("newwin", ("-", "-", "-", f"/tmp/note{i}",
                          f"session bench body line {i}\n"))
    for i in range(RECORDS))


def _drive(host, addr, name):
    channel = dial(*addr) if addr is not None else host.pipe()
    client = MuxClient(channel, aname=name)
    try:
        ns = Namespace(VFS())
        ns.mkdir("/s", parents=True)
        ns.mount(mount_remote(client), "/s")
        ns.append("/s/input", _SCRIPT)
        return ns.read("/s/screen")
    finally:
        client.close()


def test_perf_session_host_concurrent_replay(benchmark, fold_hosted):
    """K sessions attach, replay, render and retire — all at once."""
    host = SessionHost(width=160, height=60)
    addr = host.listen()
    epoch = [0]
    try:
        def storm() -> int:
            epoch[0] += 1
            failures: list[BaseException] = []

            def one(idx: int) -> None:
                try:
                    screen = _drive(host, addr, f"e{epoch[0]}.w{idx}")
                    assert f"line {RECORDS - 1}" in screen
                except BaseException as exc:  # noqa: BLE001 - reraised
                    failures.append(exc)

            threads = [threading.Thread(target=one, args=(i,))
                       for i in range(SESSIONS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if failures:
                raise failures[0]
            return SESSIONS * RECORDS

        applied = benchmark(storm)
        assert applied == SESSIONS * RECORDS
    finally:
        host.close()
    assert host.audit() == []
    fold_hosted(host)  # the cross-session ledger -> BENCH_perf.json
    benchmark.extra_info["sessions"] = SESSIONS
    benchmark.extra_info["records_per_session"] = RECORDS
    median = benchmark.stats.stats.median if benchmark.stats else None
    if median:
        benchmark.extra_info["records_per_sec"] = round(applied / median, 1)


def test_perf_session_attach_teardown(benchmark, fold_hosted):
    """The cost of one whole session lifecycle: attach, apply, retire."""
    host = SessionHost(width=160, height=60)
    serial = [0]
    try:
        def lifecycle() -> str:
            serial[0] += 1
            return _drive(host, None, f"solo{serial[0]}")

        screen = benchmark(lifecycle)
        assert "session bench body" in screen
    finally:
        host.close()
    assert host.audit() == []
    fold_hosted(host)
