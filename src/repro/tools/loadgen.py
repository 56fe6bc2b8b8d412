"""Load generation: recorded journals replayed as traffic, at fleet scale.

Every bench so far measures one op at a time; production scale is
*traffic* — thousands of users arriving with different intents,
pausing to read, leaving, coming back.  This module turns the PR 4
record/replay substrate into exactly that: each Figures 5-12 scenario
is recorded once into a journal (:func:`~repro.tools.sessioncheck.
record_figures`), and the recorded input records become a **traffic
model** — a weighted scenario a simulated user replays through a
hosted session's ``input`` file, one record per write, with seeded
per-user think times between them.

The fleet is a closed loop.  ``users`` simulated users are planned
up front by a deterministic schedule (same seed ⇒ byte-identical
plans, see :func:`schedule_text`), then driven by a worker pool
against a real :class:`~repro.serve.SessionHost` — or a
:class:`~repro.serve.ShardRouter` over N shards — across real TCP
sockets (or in-memory pipes).  A user's visit is: attach (a world is
built server-side), replay the model's records through ``input``,
read the screen at a seeded cadence, drop the connection.  The host
runs under a hibernation budget, so every drop parks the session on
disk; a seeded cohort of users then *returns*, and their re-attach —
a wake, the worst attach there is — is timed as its own op class.

Latency lands in per-op-class histograms (attach / read / write /
apply / wake: client round trips for the first four minus apply,
which is the server-side ``session.apply_us``), plus error and
backpressure counters, and the whole record becomes the ``loadgen``
section of ``BENCH_perf.json`` where :mod:`repro.tools.benchgate`
enforces hard p99 budgets and an error-rate ceiling.

This module only shapes the traffic: the target is built, and a
severed user resumed, by :mod:`repro.tools.sessioncheck`, the code the
acceptance gates drive the same hosts with.

CLI::

    python -m repro.tools.loadgen [--users N] [--shards N] [--seed S]
                                  [--pipe | --tcp] [--chaos N] [--json]
                                  [--report PATH] [--smoke]

``--smoke`` is the CI entry: a small fixed-seed fleet driven twice —
once on a plain host, once through a 4-shard router — asserting every
op class sampled, zero errors, balanced ledgers, and identical
op-class counts across the two topologies (sharding must be invisible
to traffic, not just to screens).  On failure the latency report and
a sample of the spooled session journals land under
``bench_artifacts/loadgen/`` for the CI artifact upload.

``--chaos N`` turns the run into a failover proof: the shards run
**replicated** (each primary ships its journals to a standby, PR 9),
and a controller thread SIGKILLs N distinct primaries at seeded
points mid-soak.  Severed users recover by re-attaching (the router
repoints their hash slot at the promoted standby), reading the
session's ``inputs`` file — the replication resume index — asserting
it covers every write the dead primary *acknowledged*, and replaying
only the unacknowledged tail.  The report gains a ``chaos`` section
(kills, promotions, severed/recovered/unrecovered users,
``acked_lost`` — the SLO is exactly zero — plus promotion/failover
latency and replication-lag histograms) that benchgate's ``replica``
budget table audits.

``--json`` additionally writes every run's LoadReport as a
machine-readable artifact under ``bench_artifacts/loadgen/`` (smoke
runs included, success included — the artifact is the point, not a
failure record).

Exit 0 clean, 1 on any violation, 2 on usage errors.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
import threading
import time
import zlib
from dataclasses import dataclass

from repro.fs.errors import Busy, FsError
from repro.fs.faults import Fault, FaultPlan
from repro.fs.mux import MuxClient, mount_remote
from repro.metrics.counter import MetricsRegistry
from repro.tools.sessioncheck import (KILL_TIMEOUT, await_counter, connect,
                                      hosts_of, make_host, record_figures,
                                      resume, total)

ARTIFACTS = (pathlib.Path(__file__).resolve().parents[3]
             / "bench_artifacts" / "loadgen")

OP_CLASSES = ("attach", "read", "write", "apply", "wake")

# Scenario weights: mail reading dominates, debugger walks are
# occasional, full mk rebuilds are rare — the shape of a working day,
# not a uniform sweep.  Weights are relative; any recorded journal can
# join the mix.
DEFAULT_WEIGHTS = {
    "fig05_headers": 24,
    "fig06_messages": 16,
    "fig07_stack": 8,
    "fig08_openline": 12,
    "fig09_openline2": 8,
    "fig10_uses": 10,
    "fig11_culprit": 6,
    "fig12_mk": 4,
}

# Mean think time between records, milliseconds (exponential draw per
# record).  Scheduled values are always recorded — they are part of
# the deterministic plan — but only slept when think_scale > 0.
THINK_MEAN_MS = 200.0

# Fraction of users that return after their session hibernates; their
# re-attach is the "wake" op class.
WAKE_FRACTION = 0.25

# With faults=True, every FAULT_EVERY-th user's session gets a
# deterministic fault schedule (a storm, in aggregate).
FAULT_EVERY = 10

_RETRIES = 3  # bounded retry on busy replies (client-side backpressure)


@dataclass(frozen=True)
class TrafficModel:
    """One recorded scenario: a name, a weight, its input records."""

    name: str
    weight: float
    lines: tuple[str, ...]


@dataclass(frozen=True)
class UserPlan:
    """One user's deterministic visit: model, steps, return intent.

    ``steps`` is a tuple of ``("think", ms)``, ``("write", index)``
    (index into the model's record lines) and ``("read", 0)`` steps,
    fully determined by the seed — two runs with the same seed drive
    byte-identical schedules.
    """

    uid: int
    aname: str
    model: str
    wake: bool
    steps: tuple[tuple[str, float], ...]


def build_models(weights: dict[str, float] | None = None
                 ) -> list[TrafficModel]:
    """Record the Figures 5-12 journals once and weight them.

    Recording replays every scenario locally, which generates fs
    traffic of its own; it runs under a throwaway registry so a bench
    or test ledger never inherits the model-building noise.
    """
    chosen = DEFAULT_WEIGHTS if weights is None else weights
    with MetricsRegistry("loadgen.models").activate():
        scripts = record_figures()
    models = []
    for name in sorted(chosen):
        if name not in scripts:
            raise ValueError(f"no recorded journal for model {name!r}")
        lines = tuple(scripts[name]["input"].splitlines(keepends=True))
        models.append(TrafficModel(name, float(chosen[name]), lines))
    return models


def plan_user(seed: int, uid: int, models: list[TrafficModel]) -> UserPlan:
    """The deterministic plan for one user (pure function of the seed)."""
    rng = random.Random(f"loadgen:{seed}:{uid}")
    model = rng.choices(models, weights=[m.weight for m in models])[0]
    read_every = rng.randrange(2, 5)
    wake = rng.random() < WAKE_FRACTION
    steps: list[tuple[str, float]] = []
    for index in range(len(model.lines)):
        steps.append(("think", rng.expovariate(1.0 / THINK_MEAN_MS)))
        steps.append(("write", float(index)))
        if (index + 1) % read_every == 0:
            steps.append(("read", 0.0))
    steps.append(("read", 0.0))  # every visit ends looking at the screen
    return UserPlan(uid=uid, aname=f"lg.u{uid}", model=model.name,
                    wake=wake, steps=tuple(steps))


def schedule(seed: int, users: int,
             models: list[TrafficModel]) -> list[UserPlan]:
    """Every user's plan.  At least one user always returns (wakes),
    so the wake op class is never silently unsampled in a small run."""
    plans = [plan_user(seed, uid, models) for uid in range(users)]
    if plans and not any(p.wake for p in plans):
        first = plans[0]
        plans[0] = UserPlan(first.uid, first.aname, first.model, True,
                            first.steps)
    return plans


def schedule_text(plans: list[UserPlan]) -> str:
    """The canonical serialization of a schedule.

    Byte-identical across runs for the same seed — the determinism
    tests compare this text, and its CRC travels in every report as a
    cross-run witness.
    """
    out = ["loadgen-schedule 1\n"]
    for p in plans:
        steps = ";".join(
            f"t{arg:.3f}" if op == "think"
            else (f"w{int(arg)}" if op == "write" else "r")
            for op, arg in p.steps)
        out.append(f"{p.aname} model={p.model} wake={int(p.wake)} {steps}\n")
    return "".join(out)


def schedule_crc(plans: list[UserPlan]) -> str:
    return f"{zlib.crc32(schedule_text(plans).encode()) & 0xffffffff:08x}"


@dataclass
class LoadReport:
    """What the fleet saw: per-op-class latency, errors, backpressure."""

    users: int
    shards: int
    seed: int
    transport: str
    workers: int
    duration_s: float
    ops: dict[str, int]
    op_us: dict[str, dict[str, float]]
    apply_us_by_kind: dict[str, dict[str, float]]
    errors: dict[str, int]
    error_rate: float
    backpressure: dict[str, int]
    retries: dict[str, int]
    max_live: int
    live_peak: int
    schedule_crc: str
    problems: list[str]
    chaos: dict | None = None

    def to_dict(self) -> dict:
        return {
            "users": self.users,
            "shards": self.shards,
            "seed": self.seed,
            "transport": self.transport,
            "workers": self.workers,
            "duration_s": round(self.duration_s, 3),
            "ops": dict(sorted(self.ops.items())),
            "op_us": {op: {k: round(v, 3) for k, v in stats.items()}
                      for op, stats in sorted(self.op_us.items())},
            "apply_us_by_kind": {
                kind: {k: round(v, 3) for k, v in stats.items()}
                for kind, stats in sorted(self.apply_us_by_kind.items())},
            "errors": dict(sorted(self.errors.items())),
            "error_rate": round(self.error_rate, 6),
            "backpressure": dict(sorted(self.backpressure.items())),
            "retries": dict(sorted(self.retries.items())),
            "max_live": self.max_live,
            "live_peak": self.live_peak,
            "schedule_crc": self.schedule_crc,
            "problems": list(self.problems),
            **({"chaos": self.chaos} if self.chaos is not None else {}),
        }


class LoadGen:
    """A closed-loop fleet of simulated users against a hosted system.

    The driver owns the host (or shard router) it attacks: it needs
    the hosts' ledgers to await hibernation quiesce between phases,
    discard the parked snapshots at the end, and fold the host-level
    counters into its own registry for the bench report.  Session-
    scoped counters (fs traffic, journal appends) stay inside the
    sessions' private ledgers and never reach the process default —
    the loadgen contribution to a bench's counter section is exactly
    the host-level and client-side loadgen ledger, both balanced.
    """

    def __init__(self, *, users: int, shards: int = 0, seed: int = 1,
                 workers: int = 8, transport: str = "tcp",
                 think_scale: float = 0.0, faults: bool = False,
                 models: list[TrafficModel] | None = None,
                 max_live: int | None = None, chaos: int = 0) -> None:
        if users < 1:
            raise ValueError("a fleet needs at least one user")
        if chaos and (not shards or chaos > shards):
            raise ValueError(
                "chaos kills each hit a distinct replicated shard: "
                f"need shards >= {chaos}, have {shards}")
        self.users = users
        self.shards = shards
        self.seed = seed
        self.chaos = chaos
        self._chaos_stop = threading.Event()
        self.workers = max(1, min(workers, users))
        self.transport = transport
        self.think_scale = think_scale
        self.faults = faults
        self.models = models
        # the hibernation budget: small enough that every drop
        # hibernates (users >> budget), large enough that a victim is
        # never a *connected* session — at most `workers` visits are
        # live at once in a closed loop, and the margin absorbs
        # server-side teardown lag after a client drops its channel
        self.max_live = max_live if max_live is not None \
            else self.workers * 4 + 4
        self.metrics = MetricsRegistry("loadgen")
        # client-side traffic runs under this registry so the
        # client's own counters and round-trip histograms never mix
        # into the process-default ledger a bench is balancing
        self._client_metrics = MetricsRegistry("loadgen.client")
        self._lock = threading.Lock()
        self._attached = 0
        self.problems: list[str] = []
        self.journal_samples: dict[str, str] = {}

    # -- plumbing ---------------------------------------------------------

    def _plan_for(self, session_id: str) -> FaultPlan | None:
        """The storm schedule: every FAULT_EVERY-th user misbehaves."""
        try:
            uid = int(session_id.rsplit("u", 1)[1])
        except (IndexError, ValueError):
            return None
        if uid % FAULT_EVERY:
            return None
        return FaultPlan(Fault(op="read", path="*screen*", at=2),
                         Fault(op="write", path="*input*", at=3))

    def _faulted(self, plan: UserPlan) -> bool:
        return self.faults and plan.uid % FAULT_EVERY == 0

    # -- one user's visit -------------------------------------------------

    def _timed(self, op: str, fn):
        """Run one op, retrying busy replies, timing the success."""
        for attempt in range(_RETRIES + 1):
            start = time.perf_counter()
            try:
                result = fn()
            except Busy:
                self.metrics.incr("loadgen.backpressure.busy")
                if attempt == _RETRIES:
                    raise
                self.metrics.incr(f"loadgen.retry.{op}")
                time.sleep(0.01 * (attempt + 1))
                continue
            self.metrics.observe_op("loadgen.op_us", op,
                                    (time.perf_counter() - start) * 1e6)
            self.metrics.incr(f"loadgen.ops.{op}")
            self.metrics.incr("loadgen.ops.total")
            return result
        raise AssertionError("unreachable")

    def _visit(self, target, addr, plan: UserPlan,
               lines: tuple[str, ...], returning: bool,
               acked: list[int] | None = None) -> None:
        """Attach (or wake), replay the plan, drop the connection.

        *acked* (chaos runs) is a one-slot box counting the writes the
        server acknowledged — the floor the promoted standby's
        ``inputs`` index must reach, because sync replication ships a
        record before its write is acked.
        """
        attach_op = "wake" if returning else "attach"
        client = self._timed(
            attach_op,
            lambda: MuxClient(connect(target, addr), aname=plan.aname,
                              uname=f"lg{plan.uid}"))
        with self._lock:
            self._attached += 1
        try:
            remote = mount_remote(client)
            screen = remote.lookup("screen")
            if returning:
                # a woken world must still render; one look is the visit
                text = self._timed("read", lambda: screen.data)
                if not text:
                    self._problem(f"{plan.aname}: woken screen is empty")
                return
            with remote.lookup("input").open("a") as sink:
                for op, arg in plan.steps:
                    if op == "think":
                        if self.think_scale > 0:
                            time.sleep(arg / 1000.0 * self.think_scale)
                    elif op == "write":
                        line = lines[int(arg)]
                        self._timed("write", lambda: sink.write(line))
                        if acked is not None:
                            acked[0] += 1
                    else:
                        self._timed("read", lambda: screen.data)
        finally:
            client.close()  # the drop hibernates the session

    def _problem(self, text: str) -> None:
        with self._lock:
            if len(self.problems) < 32:
                self.problems.append(text)

    # -- chaos: kills, severed users, recovery ----------------------------

    def _chaos_visit(self, target, addr, plan: UserPlan,
                     lines: tuple[str, ...]) -> None:
        """One visit that survives its shard being killed under it.

        A severed user resumes on the promoted standby; every write
        the dead primary acknowledged MUST be held there (that is the
        sync-replication contract; a shortfall counts into
        ``loadgen.chaos.acked_lost``, the zero-tolerance SLO).
        """
        acked = [0]
        try:
            self._visit(target, addr, plan, lines, returning=False,
                        acked=acked)
            return
        except (FsError, OSError):
            self.metrics.incr("loadgen.chaos.severed")
        start = time.perf_counter()
        try:
            held, screen = resume(target, addr, plan.aname, lines,
                                  uname=f"lg{plan.uid}")
        except (FsError, OSError):
            self.metrics.incr("loadgen.chaos.unrecovered")
            self._problem(f"{plan.aname}: never recovered after the kill")
            return
        self.metrics.observe_op("loadgen.op_us", "recover",
                                (time.perf_counter() - start) * 1e6)
        if held < acked[0]:
            self.metrics.incr("loadgen.chaos.acked_lost", acked[0] - held)
            self._problem(f"{plan.aname}: standby holds {held} inputs but "
                          f"{acked[0]} writes were acknowledged")
        if not screen:
            self._problem(f"{plan.aname}: recovered screen empty")
        self.metrics.incr("loadgen.chaos.recovered")

    def _chaos_controller(self, target, total_writes: int) -> None:
        """Kill ``chaos`` distinct primaries at seeded soak points.

        Each kill waits for its promotion before the next, so the
        fleet never faces two simultaneous outages; kills not yet due
        when the drive finishes fire immediately (the kill count is
        part of the deterministic plan, not best-effort).
        """
        rng = random.Random(f"loadgen:chaos:{self.seed}")
        victims = rng.sample(range(self.shards), k=self.chaos)
        points = sorted(rng.uniform(0.15, 0.7) for _ in victims)
        for index, frac in zip(victims, points):
            threshold = int(frac * total_writes)
            while (self.metrics.counter("loadgen.ops.write") < threshold
                    and not self._chaos_stop.is_set()):
                time.sleep(0.01)
            target.kill_shard(index)
            self.metrics.incr("loadgen.chaos.kills")
            pair = target.pairs[index]
            deadline = time.monotonic() + KILL_TIMEOUT
            while not pair.promoted and time.monotonic() < deadline:
                time.sleep(0.01)
            if not pair.promoted:
                self._problem(f"chaos: shard {index} never promoted")

    def _drive(self, target, addr, plans: list[UserPlan],
               by_name: dict[str, TrafficModel],
               returning: bool) -> None:
        """Fan the visits over the worker pool (stride partition)."""
        def worker(offset: int) -> None:
            with self._client_metrics.activate():
                for plan in plans[offset::self.workers]:
                    lines = by_name[plan.model].lines
                    if self.chaos and not returning:
                        self._chaos_visit(target, addr, plan, lines)
                        continue
                    try:
                        self._visit(target, addr, plan, lines, returning)
                    except FsError as exc:
                        if self._faulted(plan):
                            self.metrics.incr("loadgen.errors.faulted")
                        else:
                            self.metrics.incr(f"loadgen.errors.{exc.kind}")
                            self.metrics.incr("loadgen.users.failed")
                            self._problem(
                                f"{plan.aname}: {exc.diagnostic()}")
                    except Exception as exc:  # noqa: BLE001 - keep driving
                        self.metrics.incr("loadgen.errors.exception")
                        self.metrics.incr("loadgen.users.failed")
                        self._problem(f"{plan.aname}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(i,),
                                    name=f"loadgen-w{i}")
                   for i in range(self.workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # -- the run ----------------------------------------------------------

    def run(self) -> LoadReport:
        models = self.models if self.models is not None else build_models()
        by_name = {m.name: m for m in models}
        plans = schedule(self.seed, self.users, models)
        crc = schedule_crc(plans)
        replica = {"replicate": True} if self.chaos else {}
        target = make_host(self.shards, max_live=self.max_live,
                           plan_for=self._plan_for if self.faults else None,
                           **replica)
        if self.chaos:
            return self._run_chaos(target, plans, by_name, crc)
        hosts = hosts_of(target)
        addr = target.listen() if self.transport == "tcp" else None
        start = time.perf_counter()
        try:
            # phase 1: every user visits once; each drop hibernates
            self._drive(target, addr, plans, by_name, returning=False)
            if not await_counter(hosts, "host.sessions.hibernated",
                                 self._attached):
                self._problem(
                    f"quiesce timeout: "
                    f"{total(hosts, 'host.sessions.hibernated')} "
                    f"of {self._attached} drops hibernated")
            # phase 2: the wake cohort returns to parked sessions
            cohort = [p for p in plans if p.wake]
            self._drive(target, addr, cohort, by_name, returning=True)
            if not await_counter(hosts, "host.sessions.hibernated",
                                 self._attached):
                self._problem("quiesce timeout after the wake wave")
        finally:
            duration = time.perf_counter() - start
            self._cleanup(target, hosts)
        return self._report(target, hosts, duration, crc)

    def _run_chaos(self, target, plans: list[UserPlan],
                   by_name: dict[str, TrafficModel],
                   crc: str) -> LoadReport:
        """The failover soak: one visit wave with seeded kills under it.

        There is no wake phase and no strict hibernation quiesce —
        sessions resident on a killed primary never hibernate there;
        they resurface on the promoted standby.  The verdicts live in
        the ``chaos`` section instead: kills == promotions, severed ==
        recovered (``unrecovered`` is zero-tolerance), ``acked_lost``
        is zero, and the replica ship/promotion ledgers balance.
        The chaos ledgers are **self-contained**: killed hosts' books
        are rightly unbalanced, so nothing here merges into the
        process-default registry a clean bench is balancing.
        """
        total_writes = sum(len(by_name[p.model].lines) for p in plans)
        addr = target.listen() if self.transport == "tcp" else None
        controller = threading.Thread(
            target=self._chaos_controller, args=(target, total_writes),
            daemon=True, name="loadgen-chaos")
        start = time.perf_counter()
        controller.start()
        try:
            self._drive(target, addr, plans, by_name, returning=False)
        finally:
            self._chaos_stop.set()
            controller.join(timeout=2 * KILL_TIMEOUT)
            duration = time.perf_counter() - start
        try:
            section = self._chaos_section(target, duration)
        finally:
            target.close()
        return self._load_report(
            duration, crc, target.hosts, apply_stats={}, by_kind={},
            backpressure={"busy": self.metrics.counter(
                "loadgen.backpressure.busy")}, chaos=section)

    def _chaos_section(self, target, duration: float) -> dict:
        """The replication verdicts, aggregated across every ledger the
        run touched — killed primaries and surviving standbys included."""
        for pair in target.pairs:
            if pair is not None and not pair.killed:
                pair.feed.quiesce()
        problems = [f"audit: {p}" for p in target.audit()]
        agg = MetricsRegistry("loadgen.replica")
        agg.merge(target.metrics)
        for host in list(target.hosts) + list(target.dead):
            agg.merge(host.metrics)
        for pair in target.pairs:
            if pair is not None and not pair.promoted:
                agg.merge(pair.standby.host.metrics)
        shipped = agg.counter("replica.ship.frames")
        acked = agg.counter("replica.ack.frames")
        ship_errors = agg.counter("replica.ship.errors")
        inflight = sum(pair.feed.pending() for pair in target.pairs
                       if pair is not None)
        if shipped != acked + inflight + ship_errors:
            problems.append(
                f"replica ship ledger unbalanced: shipped {shipped} != "
                f"acked {acked} + inflight {inflight} + errors "
                f"{ship_errors}")
        promoted = agg.counter("replica.sessions.promoted")
        p_live = agg.counter("replica.promoted.live")
        p_parked = agg.counter("replica.promoted.parked")
        if promoted != p_live + p_parked:
            problems.append(
                f"replica promotion ledger unbalanced: promoted "
                f"{promoted} != live {p_live} + parked {p_parked}")

        def hist(name: str, source=agg) -> dict:
            return {k: round(v, 3)
                    for k, v in (source.histogram(name) or {}).items()}

        return {
            "users": self.users, "shards": self.shards, "mode": "sync",
            "kills": self.metrics.counter("loadgen.chaos.kills"),
            "promotions": target.metrics.counter("router.shards.promoted"),
            "severed": self.metrics.counter("loadgen.chaos.severed"),
            "recovered": self.metrics.counter("loadgen.chaos.recovered"),
            "unrecovered": self.metrics.counter(
                "loadgen.chaos.unrecovered"),
            "acked_lost": self.metrics.counter("loadgen.chaos.acked_lost"),
            "promote_us": hist("replica.promote_us"),
            "failover_us": hist("router.failover_us"),
            "recover_us": hist("loadgen.op_us.recover", self.metrics),
            "lag_us": hist("replica.lag_us"),
            "lag_records": hist("replica.lag_records"),
            "ledger": {
                "shipped_frames": shipped, "acked_frames": acked,
                "ship_errors": ship_errors, "inflight": inflight,
                "promoted": promoted, "promoted_live": p_live,
                "promoted_parked": p_parked,
            },
            "duration_s": round(duration, 3),
            "problems": problems[:32],
        }

    def _cleanup(self, target, hosts) -> None:
        """Discard the parked snapshots (sampling a few first), close."""
        for host in hosts:
            for sid, path in dict(host.hibernated).items():
                if len(self.journal_samples) < 6:
                    try:
                        self.journal_samples[sid] = path.read_text()
                    except OSError:
                        pass
                try:
                    host.evict(sid)
                except FsError:
                    pass  # woken or already discarded
        target.close()

    def _report(self, target, hosts, duration: float,
                crc: str) -> LoadReport:
        for problem in target.audit():
            self._problem(f"audit: {problem}")
        opened, closed = target.session_ledger()
        if opened != closed:
            self._problem(f"session leak: opened={opened} closed={closed}")
        # the complete ledger — host + retired sessions — stays private
        # to this report; only host-level counters are folded into
        # self.metrics for the bench's global (and benchgate-audited)
        # counter section
        full = MetricsRegistry("loadgen.sessions")
        target.drain(into=full)
        if self.shards:
            self.metrics.merge(target.metrics)
        for host in hosts:
            self.metrics.merge(host.metrics)

        apply_stats = full.histogram("session.apply_us") or {}
        applied = int(apply_stats.get("count", 0))
        self.metrics.incr("loadgen.ops.apply", applied)
        self.metrics.incr("loadgen.ops.total", applied)
        prefix = "session.apply_us."
        return self._load_report(
            duration, crc, hosts, apply_stats=apply_stats,
            by_kind={name.removeprefix(prefix): stats
                     for name, stats in full.histograms(prefix).items()},
            backpressure={
                "busy": self.metrics.counter("loadgen.backpressure.busy"),
                "paused": self.metrics.counter("wire.backpressure.paused"),
                "resumed": self.metrics.counter(
                    "wire.backpressure.resumed"),
            })

    def _load_report(self, duration: float, crc: str, hosts, *,
                     apply_stats: dict, by_kind: dict, backpressure: dict,
                     chaos: dict | None = None) -> LoadReport:
        ops = {op: self.metrics.counter(f"loadgen.ops.{op}")
               for op in OP_CLASSES if op != "apply"}
        ops["apply"] = int(apply_stats.get("count", 0))
        op_us = {op: self.metrics.histogram(f"loadgen.op_us.{op}") or {}
                 for op in OP_CLASSES if op != "apply"}
        op_us["apply"] = apply_stats
        errors = {name.removeprefix("loadgen.errors."): value
                  for name, value in
                  self.metrics.counters("loadgen.errors.").items()}
        unexpected = sum(v for k, v in errors.items() if k != "faulted")
        done = sum(ops.values())
        return LoadReport(
            users=self.users, shards=self.shards, seed=self.seed,
            transport=self.transport, workers=self.workers,
            duration_s=duration, ops=ops, op_us=op_us,
            apply_us_by_kind=by_kind, errors=errors,
            error_rate=(unexpected / done) if done else 0.0,
            backpressure=backpressure,
            retries={name.removeprefix("loadgen.retry."): value
                     for name, value in
                     self.metrics.counters("loadgen.retry.").items()},
            max_live=self.max_live,
            live_peak=max(host.live_peak for host in hosts),
            schedule_crc=crc, problems=list(self.problems), chaos=chaos)


def validate(report: LoadReport) -> list[str]:
    """The smoke acceptance: sampled everywhere, clean everywhere."""
    problems = list(report.problems)
    for op in OP_CLASSES:
        if report.chaos is not None and op in ("apply", "wake"):
            continue  # a chaos run has no wake phase; apply stays server-side
        if not (report.op_us.get(op) or {}).get("count"):
            problems.append(f"op class {op!r} never sampled")
    unexpected = {k: v for k, v in report.errors.items()
                  if k != "faulted" and v}
    if unexpected:
        problems.append(f"unexpected errors: {unexpected}")
    if report.chaos is not None:
        chaos = report.chaos
        if chaos.get("kills", 0) != chaos.get("promotions", 0):
            problems.append(
                f"chaos: {chaos.get('kills')} kills but "
                f"{chaos.get('promotions')} promotions")
        if chaos.get("acked_lost"):
            problems.append(
                f"chaos: {chaos['acked_lost']} acknowledged writes lost "
                f"to failover — the budget is zero")
        if chaos.get("unrecovered"):
            problems.append(
                f"chaos: {chaos['unrecovered']} severed users never "
                f"recovered")
        for problem in chaos.get("problems") or []:
            if problem not in problems:
                problems.append(f"chaos: {problem}")
    return problems


def _write_artifacts(tag: str, report: LoadReport,
                     journals: dict[str, str] | None = None,
                     problems: list[str] | None = None) -> pathlib.Path:
    """Write ``report-<tag>.json`` (what ``--json`` asks for); with
    *problems*, also the failure record CI uploads: the verdicts and
    the sampled journals."""
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    path = ARTIFACTS / f"report-{tag}.json"
    path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    if problems is not None:
        (ARTIFACTS / f"problems-{tag}.txt").write_text(
            "".join(f"{p}\n" for p in problems) or "no problems recorded\n")
        jdir = ARTIFACTS / "journals"
        jdir.mkdir(exist_ok=True)
        for sid, text in (journals or {}).items():
            (jdir / f"{tag}.{sid}.journal").write_text(text)
    return path


def smoke(users: int, shards: int, seed: int, transport: str,
          json_out: bool = False) -> int:
    """The CI gate: one small fleet, two topologies, identical counts."""
    models = build_models()
    reports: dict[str, LoadReport] = {}
    failed = False
    for tag, n_shards in (("plain", 0), (f"shards{shards}", shards)):
        lg = LoadGen(users=users, shards=n_shards, seed=seed,
                     workers=8, transport=transport, models=models)
        report = lg.run()
        reports[tag] = report
        if json_out:
            print(f"loadgen: report-{tag}.json -> "
                  f"{_write_artifacts(tag, report)}")
        problems = validate(report)
        for problem in problems:
            print(f"loadgen: {tag}: {problem}", file=sys.stderr)
        if problems:
            failed = True
            _write_artifacts(tag, report, lg.journal_samples, problems)
            print(f"loadgen: {tag}: failure artifacts in {ARTIFACTS}",
                  file=sys.stderr)
    plain, sharded = reports["plain"], reports[f"shards{shards}"]
    if plain.ops != sharded.ops:
        failed = True
        print(f"loadgen: op-class counts diverge across topologies: "
              f"plain={plain.ops} shards={sharded.ops}", file=sys.stderr)
        _write_artifacts("divergence", sharded, problems=[
            f"plain ops:   {plain.ops}",
            f"sharded ops: {sharded.ops}"])
    if plain.schedule_crc != sharded.schedule_crc:
        failed = True
        print("loadgen: schedule CRC diverged between runs of one seed",
              file=sys.stderr)
    if not failed:
        for tag, report in reports.items():
            p99 = {op: round((stats or {}).get("p99", 0.0))
                   for op, stats in report.op_us.items()}
            print(f"loadgen: {tag}: {report.users} users, "
                  f"{report.ops['write']} writes, p99(us)={p99}")
        print(f"loadgen: smoke clean — {users} users, seed {seed}, "
              f"identical op-class counts on 1 host and {shards} shards")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    users = 0
    shards = 0
    seed = 20260808
    transport = "tcp"
    chaos = 0
    json_out = False
    run_smoke = False
    report_path: str | None = None
    usage = ("usage: loadgen [--users N] [--shards N] [--seed S] "
             "[--pipe | --tcp] [--chaos N] [--json] [--report PATH] "
             "[--smoke]")
    while args:
        arg = args.pop(0)
        if arg == "--users" and args and args[0].isdigit():
            users = int(args.pop(0))
        elif arg == "--shards" and args and args[0].isdigit():
            shards = int(args.pop(0))
        elif arg == "--seed" and args and args[0].isdigit():
            seed = int(args.pop(0))
        elif arg == "--chaos" and args and args[0].isdigit():
            chaos = int(args.pop(0))
        elif arg == "--pipe":
            transport = "pipe"
        elif arg == "--tcp":
            transport = "tcp"
        elif arg == "--json":
            json_out = True
        elif arg == "--smoke":
            run_smoke = True
        elif arg == "--report" and args:
            report_path = args.pop(0)
        else:
            print(usage, file=sys.stderr)
            return 2
    if run_smoke:
        return smoke(users or 24, shards or 4, seed, transport,
                     json_out=json_out)
    if chaos and not shards:
        shards = max(chaos, 4)
    try:
        lg = LoadGen(users=users or 100, shards=shards, seed=seed,
                     transport=transport, chaos=chaos)
    except ValueError as exc:
        print(f"loadgen: {exc}", file=sys.stderr)
        return 2
    report = lg.run()
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    if report_path:
        pathlib.Path(report_path).write_text(text)
    else:
        print(text, end="")
    if json_out:
        _write_artifacts("chaos" if chaos else "run", report)
    problems = validate(report)
    for problem in problems:
        print(f"loadgen: {problem}", file=sys.stderr)
    if problems:
        _write_artifacts("run", report, lg.journal_samples, problems)
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
