"""P9: replication — sync-ship write cost and the chaos failover soak.

Two benches.  The first prices the durability guarantee: a replicated
pair in ``sync`` mode acks a write only after the standby durably
appended the shipped journal record, so the write round trip carries
one ship round trip (``replica.lag_us``) on top of the unreplicated
cost.  The second is the ISSUE's acceptance run: the loadgen fleet
drives recorded Figures 5-12 traffic through replicated shards while
a seeded chaos controller SIGKILLs primaries mid-soak; severed users
re-attach to the promoted standbys, read the session's ``inputs``
watermark and replay only the unacknowledged tail.  The verdicts —
kills == promotions, **zero** acknowledged writes lost, zero
unrecovered users, ship and promotion ledgers balanced, promote /
failover / lag percentiles — become the ``replica`` section of
``BENCH_perf.json``, where :mod:`repro.tools.benchgate` enforces the
replica SLO budget table.
"""

from repro.fs.mux import MuxClient, mount_remote
from repro.fs.namespace import Namespace
from repro.fs.vfs import VFS
from repro.serve import SessionHost, input_line
from repro.serve.replica import ReplicaPair
from repro.tools import benchgate
from repro.tools.loadgen import LoadGen, build_models, validate

USERS = 1000     # simulated users in the chaos soak
SHARDS = 4       # replicated shards (each primary gets a standby)
KILLS = 3        # seeded primary SIGKILLs mid-soak
WORKERS = 8      # concurrent closed-loop drivers
SEED = 20260808  # same seed as the plain soak: same traffic, plus kills


def test_perf_replica_ship(benchmark):
    """One input record round trip under sync journal shipping."""
    primary = SessionHost(width=100, height=40)
    pair = ReplicaPair(primary, standby_prefix="br.")
    try:
        client = MuxClient(primary.pipe(), aname="bench")
        ns = Namespace(VFS())
        ns.mkdir("/s", parents=True)
        ns.mount(mount_remote(client), "/s")
        line = input_line("newwin", ("-", "-", "-", "/tmp/note", "text"))

        benchmark(ns.append, "/s/input", line)

        pair.feed.quiesce()
        # every acked write was durably shipped before the ack
        shipped = primary.metrics.counter("replica.ship.frames")
        acked = primary.metrics.counter("replica.ack.frames")
        assert shipped == acked and shipped > 0
        lag = primary.metrics.histogram("replica.lag_us") or {}
        assert lag.get("count"), "sync ship recorded no lag samples"
        benchmark.extra_info["ship_frames"] = shipped
        benchmark.extra_info["lag_p99_us"] = round(lag.get("p99", 0.0), 1)
        client.close()
    finally:
        pair.close()


def test_perf_replica_chaos_soak(benchmark, report_extra):
    """1000 users, 4 replicated shards, 3 seeded primary kills.

    The chaos ledgers are self-contained (a killed primary's books are
    rightly unbalanced), so nothing here merges into the process
    registry — the ``replica`` report section carries the verdicts.
    """
    models = build_models()
    lg = LoadGen(users=USERS, shards=SHARDS, seed=SEED, workers=WORKERS,
                 transport="pipe", models=models, chaos=KILLS)

    report = benchmark.pedantic(lg.run, rounds=1, iterations=1)

    assert validate(report) == [], validate(report)
    section = report.chaos
    assert section is not None
    assert section["kills"] == KILLS
    assert section["promotions"] == KILLS
    assert section["acked_lost"] == 0
    assert section["unrecovered"] == 0
    assert section["severed"] == section["recovered"]

    # the SLO budget table holds on this run's own numbers — the same
    # audit benchgate applies to the emitted section, asserted here so
    # a breach names the failing bench, not just the gate
    assert benchgate.audit_replica(section) == []

    report_extra("replica", **section)
    benchmark.extra_info["users"] = USERS
    benchmark.extra_info["kills"] = KILLS
    benchmark.extra_info["severed"] = section["severed"]
    benchmark.extra_info["promote_p99_us"] = round(
        (section["promote_us"] or {}).get("p99", 0.0), 1)
