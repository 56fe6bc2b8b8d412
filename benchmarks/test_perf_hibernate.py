"""P7: hibernation soak — 10k nominal sessions in a 256-world budget.

The hibernation tentpole claims a host can serve far more *nominal*
users than it holds *resident* worlds: a detached session compacts to
a disk snapshot, its world is torn down, and the next attach wakes it
byte-identically.  This soak puts a number behind that — 10,000
sessions cycle through a host whose budget fits only ``MAX_LIVE``
worlds, then a wake-pressure wave holds more concurrent connections
than the budget allows so the LRU sweep must hibernate *connected*
sessions out from under their channels.  The ledger and the wake
latency histogram land in the ``hibernate`` section of
``BENCH_perf.json``, where :mod:`repro.tools.benchgate` audits the
wake ledger: every hibernation is a wake, a discard, or a snapshot
still parked on the spool.
"""

import threading

from repro.fs.mux import MuxClient, mount_remote
from repro.fs.namespace import Namespace
from repro.fs.vfs import VFS
from repro.metrics.counter import current_registry
from repro.serve import SessionHost, input_line

SESSIONS = 10_000   # nominal users cycled through the host
MAX_LIVE = 256      # the memory budget: resident worlds at any moment
WORKERS = 8         # concurrent churn connections in the cycle phase
WAKE_WAVE = 300     # concurrent re-attaches (> MAX_LIVE forces LRU)


def _session(host, name):
    """Attach *name* and return (client, mounted namespace)."""
    client = MuxClient(host.pipe(), aname=name)
    ns = Namespace(VFS())
    ns.mkdir("/s", parents=True)
    ns.mount(mount_remote(client), "/s")
    return client, ns


def _cycle(host, name) -> str:
    """One user's visit: attach, leave a mark, read back, detach."""
    client, ns = _session(host, name)
    try:
        ns.append("/s/input", input_line(
            "newwin", ("-", "-", "-", f"/tmp/{name}",
                       f"hibernate soak mark {name}\n")))
        return ns.read("/s/screen")
    finally:
        client.close()   # connection drop -> detach() -> hibernate


def _wake_check(host, name) -> str:
    """Re-attach a parked session and read its woken screen.

    Under wake pressure the LRU sweep may hibernate this session again
    between our attach and our read — that is the behavior under test,
    not a failure — so a torn visit just reconnects, the way a real
    user whose world was parked mid-look would.
    """
    for _attempt in range(5):
        client, ns = _session(host, name)
        try:
            try:
                return ns.read("/s/screen")
            except Exception:
                continue    # parked out from under us; wake it again
        finally:
            client.close()
    raise AssertionError(f"session {name} unreadable after 5 wakes")


def _fan_out(count: int, work) -> None:
    failures: list[BaseException] = []

    def one(idx: int) -> None:
        try:
            work(idx)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            failures.append(exc)

    threads = [threading.Thread(target=one, args=(i,))
               for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


def test_perf_hibernate_soak(benchmark, report_extra):
    """10k sessions through a MAX_LIVE budget, then a wake wave."""
    host = SessionHost(width=100, height=40, max_live=MAX_LIVE)
    try:
        def soak() -> int:
            # phase 1: churn — WORKERS threads walk all 10k sessions,
            # each visit ending in a detach that parks the world
            per_worker = SESSIONS // WORKERS

            def churn(worker: int) -> None:
                base = worker * per_worker
                for i in range(base, base + per_worker):
                    screen = _cycle(host, f"u{i}")
                    assert f"mark u{i}" in screen

            _fan_out(WORKERS, churn)

            # phase 2: wake pressure — more concurrent connections
            # than the budget fits, so the LRU sweep must hibernate
            # sessions whose channels are still open
            barrier = threading.Barrier(WAKE_WAVE)

            def wave(idx: int) -> None:
                name = f"u{idx * (SESSIONS // WAKE_WAVE)}"
                screen = _wake_check(host, name)
                assert f"mark {name}" in screen
                barrier.wait(timeout=120)

            _fan_out(WAKE_WAVE, wave)
            return SESSIONS

        cycled = benchmark.pedantic(soak, rounds=1, iterations=1)
        assert cycled == SESSIONS
        # the budget held: never more resident worlds than MAX_LIVE
        assert host.live_peak <= MAX_LIVE, (
            f"live_peak {host.live_peak} breached budget {MAX_LIVE}")
        assert len(host.sessions) <= MAX_LIVE
    finally:
        # close first: in-flight teardowns can still park sessions
        # until the server is down, and benchgate balances the final
        # counters against the still_hibernated number reported here
        host.close()
    assert host.audit() == []
    # fold only the host-level ledger (wake counters + wake_us) into
    # the report — a full drain() would carry 10k sessions' journal
    # appends into the counters and imbalance the journal benches'
    # closed append==replay+dropped loop, which these sessions are
    # not part of
    current_registry().merge(host.metrics)
    report_extra("hibernate", sessions=SESSIONS, max_live=MAX_LIVE,
                 live_peak=host.live_peak,
                 still_hibernated=len(host.hibernated))
    benchmark.extra_info["sessions"] = SESSIONS
    benchmark.extra_info["max_live"] = MAX_LIVE
    benchmark.extra_info["live_peak"] = host.live_peak
    benchmark.extra_info["still_hibernated"] = len(host.hibernated)
    median = benchmark.stats.stats.median if benchmark.stats else None
    if median:
        benchmark.extra_info["sessions_per_sec"] = round(SESSIONS / median, 1)
