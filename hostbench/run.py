"""Benchmark hosted help end to end and layer by layer.

    python3 hostbench/run.py --workload edit|visit|replicated|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program runs as a real server in
a child process (``hostbench/server.py``) and is driven through the
stock client; see ``drive.py`` for the load shape and the op timing.

Workloads:

edit        a long-lived, read-heavy editing session on a SessionHost:
            each keystroke-level input is followed by a screen read
            and an idle re-poll.  Nearly all the work is per-RPC mux
            cost, core apply, damage-tracked render and the per-input
            journal flush.
visit       churn of short figure visits against a 2-shard router
            whose drops all hibernate; a quarter of the users return
            later in the stream and wake.  Every op crosses attach,
            world build, the shell tools, compaction and recovery.
replicated  the editing script, write-heavy (one read per eight
            writes), against a 2-shard router replicating in sync
            mode: every journal flush is a ship-and-ack round trip.

``--trace 0`` prints the end-to-end metrics.  Each run starts the
server several times and reports the median set-up time.  Edit and
replicated, whose editing session attaches only once, probe cold
attaches and wakes on those extra servers, each fresh and warmed up,
so the probe never follows a long session's heap and is spread over
the run.  A latency's p50 is the mean of the medians of consecutive
groups of ops (``grouped_median``); its p90 is taken over all of them.

``--trace 1`` prints the per-layer metrics from two passes of half the
time each: one untraced (the server's own histograms and counters,
drained at the end) and one whose server wraps each layer's entry
points in spans (``hostbench/spans.py``), written to ``.hostbench/``.
Both passes snapshot exact counts at the same op and must agree.

The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any wrong screen, failed
audit or unrepeatable count exits 1.  ``--workload all`` runs the
three in turn and prints every table, then one object whose metrics
are named ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("edit", "visit", "replicated")
SETUP_SPAWNS = 5          # server starts per untraced run (median)
PROBE_SESSIONS = 100      # edit/replicated: cold attaches, then wakes,
                          # per extra server start (and per traced pass)
WARM_INPUTS = 40          # editing inputs on the warm-up session
RUN_BUDGET = 170.0        # seconds; the server is killed past it
# Traffic generated per second of run, with room to spare: editing
# inputs (edit, replicated) or users (visit, before its returns).
TRAFFIC_PER_S = {"edit": 800, "visit": 150, "replicated": 2500}
# Exact counts are snapshotted once this many ops have completed.
CHECKPOINT_OPS = {"edit": 600, "visit": 300, "replicated": 450}
GROUPS = 100              # groups of ops per end-to-end median
MIN_GROUP_OPS = 10


# -- metrics ----------------------------------------------------------------


def pct(samples: list[float], q: float) -> float:
    from repro.metrics.counter import percentile

    return percentile(samples, q) if samples else 0.0


def grouped_median(samples: list[float]) -> float:
    """The mean of the medians of consecutive groups of ops, in the
    order they ran: GROUPS groups of at least MIN_GROUP_OPS ops.

    On a shared virtual machine the CPU's speed can flip between two
    levels for seconds at a time.  Pooled over a run, the median then
    jumps from one level's value to the other's as the share of time
    spent at each passes one half; the mean of short groups' medians
    moves in proportion to that share instead.  Where consecutive ops
    differ in kind (a visit's writes follow one figure at a time), it
    reads somewhat above the pooled median.
    """
    size = max(MIN_GROUP_OPS, len(samples) // GROUPS)
    groups = [samples[i:i + size]
              for i in range(0, len(samples) - size + 1, size)]
    if not groups:
        return pct(samples, 0.5)
    return statistics.fmean(pct(group, 0.5) for group in groups)


class Table:
    """Metrics by name, each with a unit and a sample count."""

    def __init__(self) -> None:
        self.rows: dict[str, tuple[float, str, int, str]] = {}

    def add(self, name: str, value: float, unit: str, samples: int,
            note: str = "") -> None:
        self.rows[name] = (float(value), unit, int(samples), note)

    def print(self, title: str) -> None:
        print(title)
        for name, (value, unit, samples, note) in self.rows.items():
            extra = f"  ({note})" if note else ""
            print(f"  {name:40s} {value:14.4f} {unit:8s} n={samples}{extra}")

    def json(self) -> dict:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit, _n, _note) in self.rows.items()}


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def exact_counts(snapshot: dict, baseline: dict) -> dict[str, float]:
    """The per-layer counts that must repeat exactly for one seed."""
    client = snapshot["client"]
    server = delta(snapshot["server"], baseline)
    inputs = server.get("session.input.applied", 0)
    return {
        "fs.mux.rpcs_per_read": ratio(client["read_rpcs"], client["reads"]),
        "fs.mux.rpcs_per_write": ratio(client["write_rpcs"],
                                       client["writes"]),
        "fs.wire.bytes_per_read": ratio(client["read_bytes"],
                                        client["reads"]),
        "journal.flushes_per_write": ratio(
            server.get("journal.fsync.count", 0), inputs),
        "journal.bytes_per_write": ratio(
            server.get("journal.fsync.bytes", 0), inputs),
        "serve.replica.frames_per_write": ratio(
            server.get("replica.ship.frames", 0), inputs),
        "core.cells_per_read": ratio(
            server.get("render.cells_repainted", 0), client["reads"]),
    }


# -- one server lifetime ----------------------------------------------------


class Run:
    """One workload, one seed: traffic, passes, checks."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        import traffic

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET
        self.boot_crc = traffic.screen_crc(traffic.local_world().help)
        size = TRAFFIC_PER_S[workload] * seconds
        if workload == "visit":
            self.figures = traffic.figures()
            self.stream = traffic.visit_stream(seed, size, self.figures)
            text = traffic.visit_text(self.stream)
            self.generated = f"{len(self.stream)} visits and returns"
        else:
            self.script = traffic.edit_script(seed, WARM_INPUTS + size)
            text = "".join(self.script)
            self.generated = f"{len(self.script)} inputs"
        self.traffic_crc = f"{traffic.crc(text):08x}"

    def spawn(self, traced: bool):
        from drive import Server

        spans = ROOT / ".hostbench" / f"spans-{self.workload}.jsonl"
        return Server(ROOT, self.workload, traced, str(spans),
                      self.deadline)

    def setup_and_probe(self, probe) -> float:
        """One more server start, timed up to its first attach answered.

        Edit and replicated then probe cold attaches and wakes on it,
        into the *probe* ledger, after one untimed wake (the first wake
        pays lazy imports too).
        """
        import drive

        warm = drive.Ledger()
        server = self.spawn(False)
        try:
            # a warm-up attach or wake that fails leaves nothing to
            # time: its Failed ends the run
            conn = drive.Conn(server.addr, "hb.warm", warm, None)
            took = time.perf_counter() - server.started
            conn.close()
            if self.workload != "visit":
                server.command("settle")
                drive.Conn(server.addr, "hb.warm", warm, None).close()
                server.command("settle")
                drive.probe(server.addr, probe, PROBE_SESSIONS,
                            self.boot_crc, lambda: server.command("settle"))
        finally:
            server.close()
        return took

    def warm_up(self, server, conn, warm) -> None:
        """Exercise every path once before the timed phase: the first
        cold attach pays lazy imports the steady state never sees."""
        import drive
        from traffic import Visit

        addr = server.addr
        if self.workload == "visit":
            conn.close()
            last: dict[int, int] = {}
            names = sorted(self.figures)
            for uid, name in enumerate(names):
                steps = tuple(("write", i) for i in
                              range(len(self.figures[name].model.lines)))
                drive.run_visit(addr, Visit(-1 - uid, f"hb.w.{name}", name,
                                            False, steps + (("read", 0),)),
                                self.figures, warm, last)
                server.command("settle")
            for uid, name in enumerate(names[:2]):
                drive.run_visit(addr, Visit(-1 - uid, f"hb.w.{name}", name,
                                            True, (("read", 0),)),
                                self.figures, warm, last)
                server.command("settle")
            return
        seen: list[tuple[int, int]] = []
        reads = drive.reads_after(self.workload)
        try:
            conn.open_input()
            for i, line in enumerate(self.script[:WARM_INPUTS]):
                drive.edit_step(conn, line, i, reads(i), seen)
        finally:
            conn.close()
        server.command("settle")
        woken = drive.Conn(addr, "hb.warm", warm, None)
        try:
            final = woken.peek()
        finally:
            woken.close()
        # the woken session must show exactly what it showed before
        # the drop: the screen the warm-up inputs give locally
        drive.check_edit(warm, "hb.warm", self.script[:WARM_INPUTS], seen,
                         final)

    def run_pass(self, traced: bool, checkpoint: bool,
                 seconds: float) -> dict:
        """Start the server, warm up, time the phase, probe, report."""
        import drive
        from repro.metrics.counter import MetricsRegistry

        client_metrics = MetricsRegistry("hostbench.client")
        ledger, warm = drive.Ledger(), drive.Ledger()
        server = self.spawn(traced)
        try:
            with client_metrics.activate():
                conn = drive.Conn(server.addr, "hb.warm", warm, None)
                setup_s = time.perf_counter() - server.started
                try:
                    self.warm_up(server, conn, warm)
                except drive.Failed:
                    pass  # counted in the warm-up ledger, merged below
                server.command("settle")
                baseline = (server.command("snap")["counters"]
                            if checkpoint else {})
                server.command("mark")
                client_metrics.reset_histograms()

                def snapshot() -> dict:
                    return server.command("snap")["counters"]

                phase = drive.Phase(
                    seconds,
                    CHECKPOINT_OPS[self.workload] if checkpoint else None,
                    snapshot if checkpoint else None)
                if self.workload == "visit":
                    sent = drive.visit_main(
                        server.addr, self.stream, self.figures, ledger, phase,
                        lambda: server.command("settle"))
                else:
                    sent = drive.edit_main(server.addr, self.workload,
                                           self.script, ledger, phase)
                phase.finish()
                main_ms = {k: list(v) for k, v in ledger.ms.items()}
                main_ops = ledger.completed
                unchanged = ledger.unchanged_reads
                stop = server.command("stop")
                # the traced passes probe here, for the server's attach
                # and wake histograms; untimed ones on the extra servers
                if checkpoint and self.workload != "visit":
                    drive.probe(server.addr, ledger, PROBE_SESSIONS,
                                self.boot_crc,
                                lambda: server.command("settle"))
                report = server.command("report")
        finally:
            server.close()
        ledger.absorb(warm)
        if checkpoint and phase.snapshot is None:
            ledger.mismatch(f"the checkpoint at "
                            f"{CHECKPOINT_OPS[self.workload]} ops was "
                            f"never reached")
        return {"setup_s": setup_s, "ledger": ledger, "sent": sent,
                "elapsed": phase.elapsed(), "main_ops": main_ops,
                "main_ms": main_ms, "unchanged_reads": unchanged,
                "driver_cpu_s": phase.cpu_s,
                "stop": stop, "report": report, "baseline": baseline,
                "snapshot": phase.snapshot,
                "client_hist": client_histograms(client_metrics)}


def pin_to_one_cpu() -> None:
    """Run the driver, and the servers it starts, on one CPU.

    The loop is closed, so one of the two processes is always waiting
    for the other and one CPU is enough.  On a virtual machine every
    hand-off between two CPUs wakes a halted virtual CPU, which a busy
    host may be slow to schedule; on one CPU the hand-offs stay inside
    the guest, and a busy host lengthens the tail of every op far less.
    A child process inherits the mask.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def client_histograms(registry) -> dict[str, tuple[int, list[float]]]:
    """(count, kept samples) of every client histogram."""
    with registry._lock:
        return {name: (r.count, list(r.samples))
                for name, r in registry._reservoirs.items() if r.count}


# -- the two kinds of run ---------------------------------------------------


def end_to_end(run: Run) -> tuple[Table, dict]:
    from drive import Ledger

    # the extra servers start on both sides of the timed pass, so a
    # machine that drifts during the run weighs on both alike
    probe = Ledger()
    before = SETUP_SPAWNS // 2
    setups = [run.setup_and_probe(probe) for _ in range(before)]
    result = run.run_pass(traced=False, checkpoint=False,
                          seconds=run.seconds)
    setups += [run.setup_and_probe(probe)
               for _ in range(SETUP_SPAWNS - 1 - before)]
    setups.append(result["setup_s"])
    result["ledger"].absorb(probe)
    # write/read come from the timed phase; attach/wake from the phase
    # (visit) or the probe (edit, replicated)
    attaches = result["main_ms"] if run.workload == "visit" else probe.ms
    table = Table()
    table.add("setup_s", statistics.median(setups), "s", len(setups))
    for op in ("attach", "wake", "write", "read"):
        samples = (attaches if op in ("attach", "wake")
                   else result["main_ms"])[op]
        table.add(f"{op}_ms.p50", grouped_median(samples), "ms",
                  len(samples))
        table.add(f"{op}_ms.p90", pct(samples, 0.9), "ms", len(samples))
    ops = result["main_ops"]
    table.add("ops_per_s", ratio(ops, result["elapsed"]), "ops/s", ops)
    table.add("server_cpu_ms_per_op",
              ratio(result["stop"]["cpu_s"] * 1e3, ops), "ms", ops)
    table.add("server_rss_mb", result["stop"]["rss_mb"], "MB", 1)
    return table, result


def per_layer(run: Run) -> tuple[Table, dict, dict]:
    from spans import ENTRY_POINTS

    # the two passes share the run's time, half each
    plain = run.run_pass(traced=False, checkpoint=True,
                         seconds=run.seconds / 2)
    traced = run.run_pass(traced=True, checkpoint=True,
                          seconds=run.seconds / 2)
    ledger = plain["ledger"]
    report = plain["report"]
    hist = report["histograms"]
    counters = delta(report["counters"], plain["baseline"])
    client = plain["client_hist"]
    table = Table()

    def server_hist(metric: str, name: str, q: str, unit: str = "us"):
        entry = hist.get(name)
        if entry is None:
            table.add(metric, 0.0, unit, 0, f"no {name} samples")
        else:
            table.add(metric, entry[q], unit, entry["count"])

    spans = traced["report"].get("spans", {})
    traced_ops = traced["ledger"].completed

    def span_row(metric: str, span: str, key: str, unit: str = "us",
                 per: int = 1) -> None:
        entry = spans.get(span)
        if entry is None:
            table.add(metric, 0.0, unit, 0, f"no {span} spans")
        else:
            table.add(metric, ratio(entry[key] or 0.0, per), unit,
                      entry["count"], "traced")

    for op in ("attach", "walk", "open", "read", "write", "clunk"):
        count, rtt = client.get(f"mux.rpc.{op}", (0, []))
        handler = hist.get(f"wire.rpc.{op}")
        table.add(f"fs.mux.rtt_us.{op}.p50", pct(rtt, 0.5), "us", count)
        server_hist(f"fs.mux.handler_us.{op}.p50", f"wire.rpc.{op}", "p50")
        if rtt and handler:
            table.add(f"fs.mux.residual_us.{op}.p50",
                      pct(rtt, 0.5) - handler["p50"], "us", count,
                      "difference of the two medians")
        else:
            table.add(f"fs.mux.residual_us.{op}.p50", 0.0, "us", 0,
                      f"no {op} RPCs")
    exact = (exact_counts(plain["snapshot"], plain["baseline"])
             if plain["snapshot"] else {})
    at = f"first {CHECKPOINT_OPS[run.workload]} ops"
    reads = plain["snapshot"]["client"]["reads"] if plain["snapshot"] else 0
    writes = plain["snapshot"]["client"]["writes"] if plain["snapshot"] else 0
    for name in ("fs.mux.rpcs_per_read", "fs.mux.rpcs_per_write"):
        table.add(name, exact.get(name, 0.0), "count",
                  reads if name.endswith("read") else writes, at)
    table.add("fs.mux.backpressure_paused",
              counters.get("wire.backpressure.paused", 0), "count", 1)
    table.add("fs.wire.bytes_per_read",
              exact.get("fs.wire.bytes_per_read", 0.0), "B", reads, at)
    for klass in ("key", "window", "exec"):
        for q in ("p50", "p90"):
            server_hist(f"core.apply_us.{klass}.{q}",
                        f"session.apply_us.{klass}", q)
    for q in ("p50", "p90"):
        span_row(f"core.render_us.{q}", "render_screen", f"{q}_us")
    table.add("core.cells_per_read", exact.get("core.cells_per_read", 0.0),
              "count", reads, at)
    hits = counters.get("layout.cache_hit", 0)
    misses = counters.get("layout.cache_miss", 0)
    table.add("core.layout_hit_rate", ratio(hits, hits + misses), "ratio",
              hits + misses)
    main_reads = len(plain["main_ms"]["read"])
    table.add("core.unchanged_read_share",
              ratio(plain["unchanged_reads"], main_reads), "ratio",
              main_reads)
    for q in ("p50", "p90"):
        server_hist(f"journal.flush_us.{q}", "journal.flush_us", q)
    for name in ("journal.flushes_per_write", "journal.bytes_per_write"):
        table.add(name, exact.get(name, 0.0),
                  "count" if "flushes" in name else "B", writes, at)
    for metric, span in (("journal.compact_us", "compact_to_text"),
                         ("journal.recover_us", "recover")):
        for q in ("p50", "p90"):
            span_row(f"{metric}.{q}", span, f"{q}_us")
    span_row("journal.snapshot_bytes.p50", "compact_to_text", "size_p50", "B")
    for kind in ("cold", "wake"):
        for q in ("p50", "p90"):
            server_hist(f"serve.host.attach_us.{kind}.{q}",
                        f"host.attach_us.{kind}", q)
    for metric, span in (("serve.host.hibernate_us", "hibernate"),
                         ("tools.install.build_us", "build_system"),
                         ("shell.run_us", "shell_run"),
                         ("serve.replica.ship_us", "replica_ship")):
        for q in ("p50", "p90"):
            span_row(f"{metric}.{q}", span, f"{q}_us")
    table.add("serve.host.live_peak", report["live_peak"], "count", 1)
    table.add("serve.host.busy_retries", ledger.busy_retries, "count",
              ledger.attempted)
    table.add("serve.shards.threads_peak",
              traced["report"].get("threads_peak", 0), "count", 1, "traced")
    table.add("serve.replica.frames_per_write",
              exact.get("serve.replica.frames_per_write", 0.0), "count",
              writes, at)
    for q in ("p50", "p90"):
        server_hist(f"serve.replica.lag_us.{q}", "replica.lag_us", q)
    table.add("driver.cpu_ms_per_op",
              ratio(plain["driver_cpu_s"] * 1e3, plain["main_ops"]), "ms",
              plain["main_ops"])
    untraced_rate = ratio(plain["main_ops"], plain["elapsed"])
    traced_rate = ratio(traced["main_ops"], traced["elapsed"])
    table.add("trace.overhead", ratio(traced_rate, untraced_rate), "ratio",
              traced["main_ops"], "traced / untraced ops_per_s")
    attempted = ledger.attempted + traced["ledger"].attempted
    failed = ledger.failed + traced["ledger"].failed
    table.add("error_rate", ratio(failed, attempted), "ratio", attempted)
    for name, _module, _path in ENTRY_POINTS:
        span_row(f"trace.self_us_per_op.{name}", name, "self_us",
                 per=traced_ops)
    return table, plain, traced


# -- the command ------------------------------------------------------------


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="hostbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_checks(run: Run, results: list[dict]) -> list[str]:
    problems: list[str] = []
    for result in results:
        ledger = result["ledger"]
        problems += ledger.problems
        problems += [f"audit: {p}" for p in result["report"]["problems"]]
        for error in ledger.errors:
            print(f"hostbench: failed op: {error}", file=sys.stderr)
    print(f"traffic crc {run.traffic_crc} ({run.workload}, seed {run.seed}, "
          f"{run.generated} generated; sent "
          + ", ".join(str(r["sent"]) for r in results) + ")")
    for result in results:
        reads = len(result["main_ms"]["read"])
        print(f"unchanged screen reads: {result['unchanged_reads']} of "
              f"{reads} ({ratio(result['unchanged_reads'], reads):.3f})")
    return problems


def print_self_times(traced: dict) -> None:
    spans = traced["report"].get("spans", {})
    ops = traced["ledger"].completed
    print(f"self time per layer (traced run, {ops} client ops; spans in "
          f".hostbench/spans-<workload>.jsonl)")
    print(f"  {'span':18s} {'count':>7s} {'total ms':>10s} {'self ms':>10s}"
          f" {'self us/op':>11s}")
    for name, entry in sorted(spans.items(), key=lambda kv: -kv[1]["self_us"]):
        print(f"  {name:18s} {entry['count']:7d} "
              f"{entry['total_us'] / 1e3:10.1f} {entry['self_us'] / 1e3:10.1f}"
              f" {ratio(entry['self_us'], ops):11.1f}")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One workload: print its tables, return its result object."""
    run = Run(workload, seed, seconds)
    if trace:
        table, plain, traced = per_layer(run)
        results = [plain, traced]
        problems = print_checks(run, results)
        if plain["snapshot"] and traced["snapshot"]:
            a, b = (exact_counts(r["snapshot"], r["baseline"])
                    for r in results)
            if a != b:
                problems.append(f"exact counts differ between the untraced "
                                f"and traced runs of one seed: {a} != {b}")
        print_self_times(traced)
        table.print(f"per-layer metrics ({workload}, seed {seed})")
    else:
        table, result = end_to_end(run)
        results = [result]
        problems = print_checks(run, results)
        table.print(f"end-to-end metrics ({workload}, seed {seed}, "
                    f"{seconds} s)")
    for problem in problems:
        print(f"hostbench: MISMATCH: {problem}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r["ledger"].attempted for r in results),
            "failed": sum(r["ledger"].failed for r in results),
            "metrics": table.json()}


def main(argv: list[str] | None = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"hostbench: {ROOT / 'src' / 'repro'} is missing; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("hostbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    # nothing is written under src/: bytecode goes beside the benchmark
    sys.pycache_prefix = str(ROOT / ".hostbench" / "pycache")
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    if len(results) == 1:
        out = results[args.workload]
    else:
        # every workload in one object, each metric named <workload>.<metric>
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{name}": value
                           for w, r in results.items()
                           for name, value in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
