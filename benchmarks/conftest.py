"""Shared fixtures for the benchmark harness.

Each figure bench rebuilds the paper's scenario, asserts the content
the figure shows, saves an ASCII screenshot under ``bench_artifacts/``
and times the operation that produces the figure.  Claim benches
measure the paper's interaction-cost statements; perf benches time the
substrates themselves.

Alongside the human-readable ``bench_artifacts/*.txt``, a benchmark
run writes ``bench_artifacts/BENCH_perf.json``: one machine-readable
record of every op's median latency in microseconds plus the display
pipeline's cache counters (layout cache hit rate overall and per bench
group, cells repainted), so future PRs have a perf trajectory to
compare against instead of re-measuring the past.
"""

import json
import pathlib
import re

import pytest

from repro import build_system, render_screen
from repro.metrics.counter import (
    MetricsRegistry,
    current_registry,
    set_default_registry,
)

ARTIFACTS = pathlib.Path(__file__).resolve().parent.parent / "bench_artifacts"

# Seed (pre-incremental-pipeline) medians in microseconds, measured on
# the same workloads before the display pipeline landed; kept so the
# JSON always carries its own before/after comparison.
SEED_BASELINE_US = {
    "test_perf_open_large_file": 7543.2,
    "test_perf_jump_to_deep_line": 6964.3,
    "test_perf_edit_deep_in_large_file": 54.0,
    "test_perf_scroll_through_large_file": 131184.8,
    "test_perf_large_body_through_fileserver": 16.0,
    "test_perf_type_and_render": 494186.4,  # 60 keystrokes @ ~8.24 ms each
    "test_perf_sustained_session": 48201.2,
}

# per-group counter deltas, accumulated across the whole session
_counter_groups: dict[str, dict[str, int]] = {}

# session-wide totals: each test runs against a fresh registry (so
# benches are isolated from each other), and its deltas are folded in
# here for the end-of-session report
_counter_total: dict[str, int] = {}

# histograms accumulate across the whole bench session — the latency
# reports want every sample — so each bench's registry is merged into
# this one at teardown
_session_metrics = MetricsRegistry("bench-session")

# report-section extras benches deposit directly (via the report_extra
# fixture): benchmark.extra_info only reaches the report on timed runs,
# but the shard and hibernation ledgers must survive CI's
# --benchmark-disable counters-only mode too
_section_extras: dict[str, dict] = {}


def _groups_of(nodeid: str) -> list[str]:
    name = nodeid.rsplit("::", 1)[0].rsplit("/", 1)[-1]
    groups = ["other"]
    for prefix in ("test_fig", "test_perf", "test_claim", "test_ablation"):
        if name.startswith(prefix):
            groups = [prefix.removeprefix("test_")]
            break
    # The paper's mid-session walkthrough (mail -> debugger -> uses ->
    # mk) is Figures 5-12; its cache hit rate is an acceptance metric,
    # so it gets its own aggregate alongside the coarse groups.
    fig = re.match(r"test_fig(\d+)", name)
    if fig and int(fig.group(1)) >= 5:
        groups.append("fig05_12_replay")
    return groups


@pytest.fixture(autouse=True)
def _track_perf_counters(request):
    """Isolate each bench's metrics, then fold them into the session.

    Every test runs against its own fresh :class:`MetricsRegistry`
    installed as the default (a bench asserting on ``fs.open`` /
    ``fs.close`` balance can't be poisoned by an earlier bench's
    traffic) and its activity is accumulated into both its bench group
    and the session total that ``BENCH_perf.json`` reports.  The whole
    registry — histograms included, since the latency reports want
    every sample — is merged into the session accumulator afterwards.
    """
    registry = MetricsRegistry(request.node.nodeid)
    previous = set_default_registry(registry)
    yield
    set_default_registry(previous)
    after = registry.counters()
    groups = _groups_of(request.node.nodeid) + ["__total__"]
    for group in groups:
        acc = (_counter_total if group == "__total__"
               else _counter_groups.setdefault(group, {}))
        # zero-valued counters are kept: an explicit zero is a verdict
        # (host.sessions.bleed=0 means the isolation audit ran and
        # found nothing), and benchgate gates on its presence
        for key, value in after.items():
            acc[key] = acc.get(key, 0) + value
    _session_metrics.merge(registry)


def _rate(stats: dict[str, int]) -> float | None:
    hits = stats.get("layout.cache_hit", 0)
    misses = stats.get("layout.cache_miss", 0)
    return round(hits / (hits + misses), 4) if hits + misses else None


def _histogram_report(prefix: str) -> dict[str, dict[str, float]]:
    return {name: {k: round(v, 3) for k, v in stats.items()}
            for name, stats in _session_metrics.histograms(prefix).items()}


def pytest_sessionfinish(session, exitstatus):
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not _counter_total:
        return
    # With --benchmark-disable (CI's counters-only mode) the bench
    # list is empty, but the counter and histogram record is still the
    # point: the gate (repro.tools.benchgate) audits it for leaked
    # sessions and error traffic on the clean path.
    ops = {}
    # deposited extras first; timed-run extra_info refines them below
    shards_extra: dict = dict(_section_extras.get("shards", {}))
    hib_extra: dict = dict(_section_extras.get("hibernate", {}))
    for bench in bench_session.benchmarks:
        if bench.name.startswith("test_perf_shards"):
            shards_extra.update(getattr(bench, "extra_info", None) or {})
        if bench.name.startswith("test_perf_hibernate"):
            hib_extra.update(getattr(bench, "extra_info", None) or {})
        median = bench.get("median")
        if median is None:
            continue
        ops[bench.name] = {"median_us": round(median * 1e6, 3)}
        seed = SEED_BASELINE_US.get(bench.name)
        if seed is not None:
            ops[bench.name]["seed_median_us"] = seed
            ops[bench.name]["speedup_vs_seed"] = round(
                seed / (median * 1e6), 2)
        extra = dict(getattr(bench, "extra_info", None) or {})
        if extra:
            ops[bench.name]["extra_info"] = extra
    total = dict(_counter_total)
    report = {
        "mode": "timings" if ops else "counters-only",
        "ops": dict(sorted(ops.items())),
        "layout_cache_hit_rate": _rate(total),
        "group_layout_cache_hit_rate": {
            group: _rate(stats)
            for group, stats in sorted(_counter_groups.items())},
        "counters": dict(sorted(total.items())),
        "wire": {
            "server_rpc_us": _histogram_report("wire.rpc."),
            "client_rpc_us": _histogram_report("mux.rpc."),
        },
        "journal": {
            "replay_latency_us": _histogram_report("replay."),
            "journal_us": _histogram_report("journal."),
        },
        "sessions": {
            "session_us": _histogram_report("session."),
            "ledger": {key: value for key, value in sorted(total.items())
                       if key.startswith("host.")},
        },
        "shards": {
            "shard_count": shards_extra.get("shards"),
            "per_shard": shards_extra.get("per_shard"),
            "aggregate_rpcs_per_sec": shards_extra.get("rpcs_per_sec"),
            "vs_single_server": shards_extra.get("vs_single_server"),
            "meets_100k_floor": shards_extra.get("meets_100k_floor"),
            "ledger": {key: value for key, value in sorted(total.items())
                       if key.startswith("router.")},
        },
        "hibernate": {
            "sessions_cycled": hib_extra.get("sessions"),
            "max_live": hib_extra.get("max_live"),
            "live_peak": hib_extra.get("live_peak"),
            "still_hibernated": hib_extra.get("still_hibernated"),
            "wake_us": _histogram_report("host.wake"),
            "ledger": {key: value for key, value in sorted(total.items())
                       if key.startswith("host.sessions.")},
        },
        # the loadgen soak deposits its whole LoadReport (per-op-class
        # p50/p95/p99, error and backpressure counts); benchgate's SLO
        # budget table audits this section
        "loadgen": dict(_section_extras.get("loadgen", {})),
        # the chaos soak deposits its replica section (kills,
        # promotions, ship/promotion ledgers, promote/failover/lag
        # percentiles); benchgate's replica budget table audits it
        "replica": dict(_section_extras.get("replica", {})),
        # the LOC claim deposits its group totals (core, serving,
        # substrates, tooling), so each run shows its line delta
        "loc": dict(_section_extras.get("loc", {})),
    }
    ARTIFACTS.mkdir(exist_ok=True)
    (ARTIFACTS / "BENCH_perf.json").write_text(
        json.dumps(report, indent=2) + "\n")


@pytest.fixture
def system():
    """A freshly booted world (Figure 4 state)."""
    return build_system(width=160, height=60)


@pytest.fixture
def report_extra():
    """Deposit ledger values straight into a BENCH_perf.json section.

    ``benchmark.extra_info`` only reaches the report when the bench
    session records timings; counters-only runs (``--benchmark-disable``)
    drop it, so benches whose ledger the gate audits deposit here too.
    """
    def put(section: str, **values) -> None:
        _section_extras.setdefault(section, {}).update(values)
    return put


@pytest.fixture
def fold_hosted():
    """Fold a host's or router's whole ledger into the bench's registry,
    minus its sessions' ``journal.*`` counters and histograms.

    Hosted sessions journal every input but never replay, and
    benchgate's ``journal.append.records == journal.replay.records +
    journal.compact.dropped`` check belongs to the journal benches'
    closed record/replay loop.
    """
    def fold(target) -> None:
        ledger = target.drain(into=MetricsRegistry("hosted"))
        ledger.reset_counters("journal.")
        ledger.reset_histograms("journal.")
        current_registry().merge(ledger)
    return fold


@pytest.fixture
def save_artifact():
    """Write a figure reproduction to bench_artifacts/<name>.txt."""
    ARTIFACTS.mkdir(exist_ok=True)

    def save(name: str, text: str) -> None:
        (ARTIFACTS / f"{name}.txt").write_text(text)
    return save


@pytest.fixture
def screenshot(save_artifact):
    """Save the full screen of a help session as an artifact."""
    def shot(name: str, help_app) -> str:
        text = render_screen(help_app)
        save_artifact(name, text)
        return text
    return shot
