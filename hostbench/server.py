"""The program under test, hosted in its own process.

``run.py`` starts this file with ``sys.executable`` and ``src/`` on
``PYTHONPATH``::

    python hostbench/server.py <edit|visit|replicated> <trace 0|1> SPANS

It builds the workload's host, listens on an ephemeral TCP port and
prints the banner ``hostbench-server HOST PORT``.  Then it obeys one
command per stdin line and answers each with one ``@@ <json>`` line:

    settle   wait until no session is live (drops finished hibernating)
    mark     start the timed phase: clear histograms, note CPU time
    stop     end it: server CPU seconds since ``mark``, peak RSS
    snap     the ledger's counters now (all sessions, live and retired)
    report   audit, counters and histograms, span summary when traced
    quit     close the host and exit

Keeping the server out of the driver's process means the client's
interpreter time is never booked as server latency.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time

from spans import Tracer, summarize

WIDTH, HEIGHT = 160, 60
# Drops must hibernate on every host (the wake probe and the visit
# returns attach to parked sessions); with one client connection at a
# time, no live session is ever pushed out by this budget.
MAX_LIVE = {"edit": 8, "visit": 2, "replicated": 8}
SETTLE_TIMEOUT = 30.0
SETTLE_POLL = 0.0002      # seconds; visit settles after every drop


def build(workload: str):
    from repro.serve import SessionHost, ShardRouter

    if workload == "edit":
        return SessionHost(width=WIDTH, height=HEIGHT,
                           max_live=MAX_LIVE[workload])
    return ShardRouter(shards=2, width=WIDTH, height=HEIGHT,
                       max_live=MAX_LIVE[workload],
                       replicate=workload == "replicated")


def hosts(target) -> list:
    """Every SessionHost under *target*, standbys included."""
    found = list(getattr(target, "hosts", [target]))
    for pair in getattr(target, "pairs", []):
        if pair is not None and not pair.promoted:
            found.append(pair.standby.host)
    return found


def registries(target) -> list:
    regs = [target.metrics] if hasattr(target, "hosts") else []
    for host in hosts(target):
        regs += [host.metrics, host._retired]
        with host._lock:
            regs += [s.metrics for s in host.sessions.values()
                     if s is not None]
    return regs


def live(target) -> int:
    total = 0
    for host in hosts(target):
        with host._lock:
            total += sum(1 for s in host.sessions.values() if s is not None)
    return total


def settle(target) -> int:
    deadline = time.monotonic() + SETTLE_TIMEOUT
    while live(target) and time.monotonic() < deadline:
        time.sleep(SETTLE_POLL)
    for pair in getattr(target, "pairs", []):
        if pair is not None:
            pair.feed.quiesce()
    return live(target)


def ledger(target):
    from repro.metrics.counter import MetricsRegistry

    return target.drain(into=MetricsRegistry("hostbench"))


def histograms(registry) -> dict[str, dict]:
    """count, p50 and p90 of every histogram (the registry's own
    summary stops at p50/p95/p99)."""
    from repro.metrics.counter import percentile

    out = {}
    with registry._lock:
        items = [(name, r.count, list(r.samples))
                 for name, r in registry._reservoirs.items() if r.count]
    for name, count, samples in items:
        out[name] = {"count": count, "p50": percentile(samples, 0.5),
                     "p90": percentile(samples, 0.9)}
    return out


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ThreadSampler:
    """The server's peak thread count, sampled while traced."""

    def __init__(self, interval: float = 0.01) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(interval,),
                                        daemon=True, name="thread-sampler")
        self._thread.start()

    def _run(self, interval: float) -> None:
        while not self._stop.wait(interval):
            # the sampler itself is not the server's
            self.peak = max(self.peak, threading.active_count() - 1)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def reply(payload: dict) -> None:
    sys.stdout.write("@@ " + json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    workload, traced, spans_path = argv[0], argv[1] == "1", argv[2]
    tracer = sampler = None
    if traced:
        tracer = Tracer()
        tracer.install()
        sampler = ThreadSampler()
    target = build(workload)
    host, port = target.listen()
    print(f"hostbench-server {host} {port}", flush=True)
    cpu_mark = 0.0
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "settle":
                reply({"live": settle(target)})
            elif command == "mark":
                for registry in registries(target):
                    registry.reset_histograms()
                cpu_mark = cpu_seconds()
                if tracer is not None:
                    tracer.spans.clear()
                    sampler.peak = 0
                reply({"ok": True})
            elif command == "stop":
                reply({"cpu_s": cpu_seconds() - cpu_mark,
                       "rss_mb": peak_rss_mb()})
            elif command == "snap":
                reply({"counters": ledger(target).counters()})
            elif command == "report":
                still_live = settle(target)
                problems = target.audit()
                if still_live:
                    problems.append(f"{still_live} sessions still live")
                registry = ledger(target)
                out = {"problems": problems,
                       "counters": registry.counters(),
                       "histograms": histograms(registry),
                       "live_peak": max(h.live_peak for h in hosts(target)),
                       "rss_mb": peak_rss_mb()}
                if tracer is not None:
                    sampler.stop()
                    tracer.write(spans_path)
                    out["spans"] = summarize(tracer.spans)
                    out["threads_peak"] = sampler.peak
                reply(out)
            elif command == "quit":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        target.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
