"""Audit a benchmark run's counter record for regressions.

``bench_artifacts/BENCH_perf.json`` is more than a scoreboard: its
counters section is a ledger of everything the benchmarks did to the
filesystem substrate.  On a healthy run the ledger balances — every
server-side open was closed (no leaked sessions), and the clean path
raised no taxonomy errors and injected no faults.  A PR that breaks
session teardown or starts erroring under load shifts these totals
long before any median moves, so CI runs the benchmarks (counters-only
is enough: ``pytest benchmarks --benchmark-disable``) and then gates
on this audit::

    python -m repro.tools.benchgate [path/to/BENCH_perf.json]

Checks applied:

- ``fs.open == fs.close`` — a mismatch means a leaked (or
  double-closed) file-server session somewhere in the run;
- every ``fs.error.*`` counter is zero — benchmarks drive the clean
  path only, so any reported taxonomy error is a regression;
- ``fs.fault.injected`` is zero — fault plans belong to the fault
  matrix tests, never to benchmarks;
- the wire transport really ran: at least ``MIN_SESSIONS`` sessions
  attached and per-op latency histograms were recorded;
- the journal ledger balances: every record the replay benches
  appended durably was either scanned back or dropped by an accounted
  compaction (``journal.append.records == journal.replay.records +
  journal.compact.dropped``) and the clean path verified every
  checksum (``journal.checksum.failed == 0``);
- the session-host ledger balances: every hosted session opened was
  closed, the host audit ran (``host.sessions.bleed`` recorded) and
  found zero cross-session counter bleed, and per-record apply
  latencies reached the report's ``sessions`` section;
- the shard-router ledger balances: at least ``MIN_SHARDS`` shards
  ran, every shard's attaches were clunked (``per_shard`` in the
  ``shards`` section), the router audit ran and found no session id
  live on two shards (``router.sessions.dup`` recorded, zero), and no
  attach was rejected on the clean path.  The 100k RPC/s aggregate
  floor is advisory — single-core runners record it honestly in
  ``extra_info`` (``meets_100k_floor``) without failing the gate;
- the wake ledger balances: every hibernation is accounted for by a
  wake, a discarded snapshot, a cross-shard relocation, or a snapshot
  still parked on the spool (``host.sessions.hibernated + hib.in ==
  woken + discarded + hib.out + still_hibernated``), wake latencies
  reached the report's ``hibernate`` section, the resident peak never
  exceeded the configured budget, and no session was retired twice
  (``host.sessions.evicted <= host.sessions.closed``);
- the loadgen SLOs hold: the soak drove at least
  ``MIN_LOADGEN_USERS`` users through at least ``MIN_SHARDS`` shards,
  every op class (attach/read/write/apply/wake) recorded samples, each
  class's p99 stays under its :data:`SLO_P99_US` ceiling, the
  unexpected-error rate stays under :data:`SLO_MAX_ERROR_RATE`, the
  backpressure verdict was recorded, and the fleet itself reported no
  problems.  These are *hard budgets*, not advisory medians: a
  latency regression that moves a tail past its ceiling turns this
  gate red even when every ledger still balances;
- the replica SLOs hold (the ``replica`` section, deposited by the
  chaos soak): at least ``MIN_CHAOS_KILLS`` primaries were killed
  across at least ``MIN_REPLICA_SHARDS`` replicated shards with every
  kill answered by a promotion, **zero** acknowledged writes were
  lost and zero severed users stayed unrecovered, promotion and
  failover p99 stay under their :data:`SLO_REPLICA_P99_US` budgets,
  replication lag p99 stays under its ceiling, and the ship ledger
  balances (``shipped == acked + inflight + errors``, ``promoted ==
  promoted_live + promoted_parked``).

Every check is *guarded*: a malformed section makes that one check
report "crashed" and the audit moves on, so a single bad section can
never hide the remaining violations — one run reports **all** broken
budgets, not just the first.

Exit 0 when the ledger balances, 1 on any violation, 2 on usage
errors or an unreadable report.
"""

from __future__ import annotations

import json
import pathlib
import sys

DEFAULT_REPORT = (pathlib.Path(__file__).resolve().parents[3]
                  / "bench_artifacts" / "BENCH_perf.json")

# the acceptance floor for concurrent wire sessions in a bench run
MIN_SESSIONS = 4

# the acceptance floor for shards in the sharded-host bench
MIN_SHARDS = 4

# the acceptance floor for simulated users in the loadgen soak
MIN_LOADGEN_USERS = 1000

# the chaos soak's floors: replicated shards driven and primaries killed
MIN_REPLICA_SHARDS = 2
MIN_CHAOS_KILLS = 3

# Per-op-class p99 ceilings, microseconds.  Calibrated ~25x above the
# soak's measured tails on a development machine, so a slow CI runner
# passes with room while a real regression — a lock held across an
# apply, an O(sessions) scan on attach, a wake that re-renders the
# world twice — still blows through.  Tighten these as the substrate
# gets faster; loosening one is a red flag in review.
SLO_P99_US = {
    "attach": 2_000_000,   # cold attach builds a whole world
    "read":     500_000,   # screen snapshot round trip
    "write":    500_000,   # one input record round trip
    "apply":    250_000,   # server-side record application
    "wake":   5_000_000,   # attach + journal rehydration
}

# ceiling on unexpected client-visible errors per op (0.2%)
SLO_MAX_ERROR_RATE = 0.002

# Replication budgets, microseconds at p99.  ``promote`` is the
# standby's adopt-everything sweep; ``failover`` is the client-visible
# gap from kill to repointed slot (detection + promotion); ``lag`` is
# the sync-ship round trip a write pays for its durability guarantee.
SLO_REPLICA_P99_US = {
    "promote":   5_000_000,
    "failover": 30_000_000,
    "lag":       1_000_000,
}


def audit(report: dict) -> list[str]:
    """Every violated invariant in *report*, as human-readable lines.

    Each section check runs guarded: one that crashes on a malformed
    section contributes a "crashed" line and the rest still run — the
    whole point is that a single run surfaces every broken budget.
    """
    counters = report.get("counters")
    if not isinstance(counters, dict) or not counters:
        return ["report has no counters section — not a benchmark run?"]
    checks = (
        _check_fs, _check_wire, _check_journal, _check_host,
        _check_shards, _check_hibernate, _check_loadgen, _check_replica,
    )
    problems: list[str] = []
    for check in checks:
        try:
            problems += check(report, counters)
        except Exception as exc:  # noqa: BLE001 - keep auditing
            name = check.__name__.removeprefix("_check_")
            problems.append(f"audit check {name!r} crashed on this "
                            f"report: {exc!r}")
    return problems


def _check_fs(report: dict, counters: dict) -> list[str]:
    problems: list[str] = []
    opened = counters.get("fs.open", 0)
    closed = counters.get("fs.close", 0)
    if opened != closed:
        problems.append(
            f"session leak: fs.open={opened} != fs.close={closed} "
            f"({opened - closed:+d} never closed)")
    for name in sorted(counters):
        if name.startswith("fs.error.") and counters[name]:
            problems.append(
                f"clean path raised errors: {name}={counters[name]}")
    if counters.get("fs.fault.injected", 0):
        problems.append(
            f"fault injection ran during benchmarks: "
            f"fs.fault.injected={counters['fs.fault.injected']}")
    return problems


def _check_wire(report: dict, counters: dict) -> list[str]:
    problems: list[str] = []
    sessions = counters.get("wire.rpc.attach", 0)
    for op in report.get("ops", {}).values():
        sessions = max(sessions, op.get("extra_info", {}).get("sessions", 0))
    if sessions < MIN_SESSIONS:
        problems.append(
            f"wire bench underpowered: {sessions} concurrent sessions "
            f"recorded, need >= {MIN_SESSIONS}")
    wire = report.get("wire", {})
    for side in ("server_rpc_us", "client_rpc_us"):
        stats = wire.get(side) or {}
        if not any(entry.get("count", 0) for entry in stats.values()):
            problems.append(f"no wire latency samples recorded ({side})")
    return problems


def _check_journal(report: dict, counters: dict) -> list[str]:
    appended = counters.get("journal.append.records")
    if appended is None:
        return []
    # the journal bench ran: its ledger must balance exactly
    problems: list[str] = []
    replayed = counters.get("journal.replay.records", 0)
    dropped = counters.get("journal.compact.dropped", 0)
    if appended != replayed + dropped:
        problems.append(
            f"journal ledger imbalance: journal.append.records="
            f"{appended} != journal.replay.records={replayed} "
            f"+ journal.compact.dropped={dropped}")
    failed = counters.get("journal.checksum.failed", 0)
    if failed:
        problems.append(
            f"checksum failures on the clean path: "
            f"journal.checksum.failed={failed}")
    if not counters.get("journal.replay.applied", 0):
        problems.append("journal bench recorded but never applied "
                        "a record on replay")
    return problems


def _check_host(report: dict, counters: dict) -> list[str]:
    hosted = counters.get("host.sessions.opened")
    if hosted is None:
        return []
    # the session-host bench ran: its ledger must balance exactly
    problems: list[str] = []
    retired = counters.get("host.sessions.closed", 0)
    if hosted != retired:
        problems.append(
            f"hosted-session leak: host.sessions.opened={hosted} "
            f"!= host.sessions.closed={retired}")
    if "host.sessions.bleed" not in counters:
        problems.append("session host ran but was never audited "
                        "(no host.sessions.bleed verdict)")
    elif counters["host.sessions.bleed"]:
        problems.append(
            f"cross-session counter bleed: host.sessions.bleed="
            f"{counters['host.sessions.bleed']}")
    section = report.get("sessions") or {}
    apply_us = section.get("session_us") or {}
    if not any(entry.get("count", 0) for entry in apply_us.values()):
        problems.append(
            "no session apply-latency samples recorded (sessions "
            "section empty)")
    return problems


def _check_shards(report: dict, counters: dict) -> list[str]:
    routed = counters.get("router.attach.routed")
    if routed is None:
        return []
    # the sharded-host bench ran: its ledger must balance too
    problems: list[str] = []
    section = report.get("shards") or {}
    per_shard = section.get("per_shard") or []
    if len(per_shard) < MIN_SHARDS:
        problems.append(
            f"shard bench underpowered: {len(per_shard)} shard "
            f"ledgers recorded, need >= {MIN_SHARDS}")
    for entry in per_shard:
        attached = entry.get("attached", 0)
        clunked = entry.get("clunked", 0)
        if attached != clunked:
            problems.append(
                f"shard {entry.get('shard')} leaked sessions: "
                f"attached={attached} != clunked={clunked}")
    if "router.sessions.dup" not in counters:
        problems.append("shard router ran but was never audited "
                        "(no router.sessions.dup verdict)")
    elif counters["router.sessions.dup"]:
        problems.append(
            f"cross-shard bleed: router.sessions.dup="
            f"{counters['router.sessions.dup']} session ids live "
            f"on more than one shard")
    rejected = counters.get("router.attach.rejected", 0)
    if rejected:
        problems.append(
            f"router rejected attaches on the clean path: "
            f"router.attach.rejected={rejected}")
    return problems


def _check_hibernate(report: dict, counters: dict) -> list[str]:
    hibernated = counters.get("host.sessions.hibernated")
    if hibernated is None:
        return []
    # the hibernation bench ran: the wake ledger must balance
    problems: list[str] = []
    section = report.get("hibernate") or {}
    woken = counters.get("host.sessions.woken", 0)
    discarded = counters.get("host.sessions.discarded", 0)
    hib_in = counters.get("host.sessions.hib.in", 0)
    hib_out = counters.get("host.sessions.hib.out", 0)
    still = section.get("still_hibernated") or 0
    if hibernated + hib_in != woken + discarded + hib_out + still:
        problems.append(
            f"wake ledger imbalance: host.sessions.hibernated="
            f"{hibernated} + hib.in={hib_in} != woken={woken} + "
            f"discarded={discarded} + hib.out={hib_out} + "
            f"still_hibernated={still}")
    wake_us = section.get("wake_us") or {}
    if not any(entry.get("count", 0) for entry in wake_us.values()):
        problems.append(
            "no wake latency samples recorded (hibernate section "
            "empty)")
    max_live = section.get("max_live") or 0
    live_peak = section.get("live_peak") or 0
    if max_live and live_peak > max_live:
        problems.append(
            f"memory budget breached: live_peak={live_peak} > "
            f"max_live={max_live}")
    evicted = counters.get("host.sessions.evicted", 0)
    retired = counters.get("host.sessions.closed", 0)
    if evicted > retired:
        problems.append(
            f"evict ledger imbalance: host.sessions.evicted="
            f"{evicted} > host.sessions.closed={retired}")
    return problems


def _check_loadgen(report: dict, counters: dict) -> list[str]:
    if counters.get("loadgen.ops.total") is None:
        return []
    # the loadgen soak ran: enforce the SLO budget table
    return audit_loadgen(report.get("loadgen") or {})


def _check_replica(report: dict, counters: dict) -> list[str]:
    section = report.get("replica")
    if not section:
        return []
    return audit_replica(section)


def audit_loadgen(section: dict,
                  budgets: dict[str, int] | None = None,
                  max_error_rate: float = SLO_MAX_ERROR_RATE,
                  min_users: int = MIN_LOADGEN_USERS) -> list[str]:
    """Every violated SLO in a ``loadgen`` report section.

    *budgets* overrides :data:`SLO_P99_US` (tests inject tight
    ceilings to prove a slowed handler turns the gate red); the
    defaults are the CI budgets.
    """
    ceilings = SLO_P99_US if budgets is None else budgets
    problems: list[str] = []
    if not section:
        return ["loadgen counters present but the loadgen report "
                "section is missing"]
    users = section.get("users") or 0
    if users < min_users:
        problems.append(
            f"loadgen soak underpowered: {users} users driven, "
            f"need >= {min_users}")
    shards = section.get("shards") or 0
    if shards < MIN_SHARDS:
        problems.append(
            f"loadgen soak underpowered: {shards} shards driven, "
            f"need >= {MIN_SHARDS}")
    op_us = section.get("op_us") or {}
    for op, ceiling in sorted(ceilings.items()):
        stats = op_us.get(op) or {}
        if not stats.get("count"):
            problems.append(
                f"loadgen op class {op!r} never sampled — the SLO "
                f"for it gates nothing")
            continue
        p99 = stats.get("p99", 0.0)
        if p99 > ceiling:
            problems.append(
                f"SLO breach: loadgen {op} p99={p99:.0f}us exceeds "
                f"the {ceiling}us budget")
    rate = section.get("error_rate")
    if rate is None:
        problems.append("loadgen recorded no error-rate verdict")
    elif rate > max_error_rate:
        problems.append(
            f"SLO breach: loadgen error_rate={rate:.4f} exceeds "
            f"the {max_error_rate} ceiling "
            f"(errors: {section.get('errors')})")
    if not isinstance(section.get("backpressure"), dict):
        problems.append("loadgen recorded no backpressure verdict")
    for problem in section.get("problems") or []:
        problems.append(f"loadgen run problem: {problem}")
    return problems


def audit_replica(section: dict,
                  budgets: dict[str, int] | None = None,
                  min_shards: int = MIN_REPLICA_SHARDS,
                  min_kills: int = MIN_CHAOS_KILLS,
                  min_users: int = MIN_LOADGEN_USERS) -> list[str]:
    """Every violated SLO in a ``replica`` (chaos soak) section.

    *budgets* overrides :data:`SLO_REPLICA_P99_US`; tests inject tight
    ceilings to prove a slow promotion turns the gate red.
    """
    ceilings = SLO_REPLICA_P99_US if budgets is None else budgets
    problems: list[str] = []
    users = section.get("users") or 0
    if users < min_users:
        problems.append(
            f"chaos soak underpowered: {users} users driven, "
            f"need >= {min_users}")
    shards = section.get("shards") or 0
    if shards < min_shards:
        problems.append(
            f"chaos soak underpowered: {shards} replicated shards, "
            f"need >= {min_shards}")
    kills = section.get("kills") or 0
    if kills < min_kills:
        problems.append(
            f"chaos soak underpowered: {kills} primaries killed, "
            f"need >= {min_kills}")
    promotions = section.get("promotions") or 0
    if promotions != kills:
        problems.append(
            f"failover incomplete: {kills} kills but {promotions} "
            f"promotions")
    lost = section.get("acked_lost")
    if lost is None:
        problems.append("chaos soak recorded no acked_lost verdict")
    elif lost:
        problems.append(
            f"SLO breach: {lost} acknowledged writes lost to failover "
            f"— the budget is zero")
    unrecovered = section.get("unrecovered")
    if unrecovered is None:
        problems.append("chaos soak recorded no unrecovered verdict")
    elif unrecovered:
        problems.append(
            f"SLO breach: {unrecovered} severed users never recovered")
    for name, key in (("promote", "promote_us"),
                      ("failover", "failover_us"),
                      ("lag", "lag_us")):
        ceiling = ceilings.get(name)
        if ceiling is None:
            continue
        stats = section.get(key) or {}
        if not stats.get("count"):
            problems.append(
                f"replica {key} never sampled — the {name} SLO gates "
                f"nothing")
            continue
        p99 = stats.get("p99", 0.0)
        if p99 > ceiling:
            problems.append(
                f"SLO breach: replica {name} p99={p99:.0f}us exceeds "
                f"the {ceiling}us budget")
    ledger = section.get("ledger")
    if not isinstance(ledger, dict):
        problems.append("chaos soak recorded no replica ledger")
    else:
        shipped = ledger.get("shipped_frames", 0)
        acked = ledger.get("acked_frames", 0)
        inflight = ledger.get("inflight", 0)
        errors = ledger.get("ship_errors", 0)
        if shipped != acked + inflight + errors:
            problems.append(
                f"replica ship ledger imbalance: shipped={shipped} != "
                f"acked={acked} + inflight={inflight} + errors={errors}")
        promoted = ledger.get("promoted", 0)
        p_live = ledger.get("promoted_live", 0)
        p_parked = ledger.get("promoted_parked", 0)
        if promoted != p_live + p_parked:
            problems.append(
                f"replica promotion ledger imbalance: promoted="
                f"{promoted} != live={p_live} + parked={p_parked}")
    for problem in section.get("problems") or []:
        problems.append(f"chaos run problem: {problem}")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: benchgate [BENCH_perf.json]", file=sys.stderr)
        return 2
    path = pathlib.Path(args[0]) if args else DEFAULT_REPORT
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"benchgate: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    problems = audit(report)
    for problem in problems:
        print(f"benchgate: {problem}", file=sys.stderr)
    if not problems:
        counters = report["counters"]
        print(f"benchgate: ledger balances — "
              f"fs.open == fs.close == {counters.get('fs.open', 0)}, "
              f"no errors, no faults, "
              f"{counters.get('wire.rpc.attach', 0)} wire sessions")
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
