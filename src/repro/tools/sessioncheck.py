"""One acceptance check for every figure gate, over one scenario table.

One registry of the paper's Figures 5-12 scenarios (:data:`FIGURES`),
one recording step (:func:`record_figures`) and one screen comparator
(:func:`check_screen`, against ``tests/goldens/``) serve every gate:

- ``artifacts``: the committed ``bench_artifacts/fig*.txt`` against
  their goldens — the only gate on Figures 1-4;
- ``replay``: local record into a journal, with a screen CRC after
  every input, and replay into a fresh world;
- ``wire``: help's own tools reach ``/mnt/help`` over the wire;
- ``hosted``: sessions on one host or ``--shards N``, ``--sessions K``
  at once, or one at a time through a ``--budget B`` of resident
  worlds;
- ``faults``: the standard four-fault schedule, degraded gracefully;
- ``crash``: a torn journal write, then recovery;
- ``kill-primary``: a replicated primary process is paused, which
  the standby must ride out, then killed for real with SIGKILL.

::

    python -m repro.tools.sessioncheck [--pipe | --tcp] [--figures N]
        [--sessions K] [--shards N] [--budget B]
        [--faults] [--crash] [--kill-primary]

With no gate named every gate runs, the hosted one three times (8
sessions on one host, 8 on 4 shards, a 3-world budget); this is CI's
gate.  ``--pipe``/``--tcp`` pick the transport of the wire and hosted
gates (both by default; pipes force 13-byte short reads) and
``--figures N`` narrows the per-figure gates to the first N figures.
A flag no chosen gate reads is a usage error, and so is ``--budget``
with ``--sessions``: the budget pass drives one session at a time.

Every problem line names its gate; a failing journal is saved under
``bench_artifacts/journals/``.  Exit 0 clean, 1 on any problem, 2 on
usage errors.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import random
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.help import ERRORS
from repro.core.render import render_screen
from repro.core.window import Subwindow
from repro.fs.errors import Crashed, FsError
from repro.fs.faults import Fault, FaultPlan, wrap
from repro.fs.mux import MuxClient, WireServer, channel_pair, dial, mount_remote
from repro.journal import Journal, attach, scan_text
from repro.journal.recorder import divergence, replay
from repro.journal.recovery import recover
from repro.metrics.counter import counter
from repro.serve import SessionHost, ShardRouter
from repro.serve.replica import ReplicaFeed, ReplicaStandby
from repro.tools.corpus import SRC_DIR
from repro.tools.install import System, build_system

WIDTH, HEIGHT = 160, 60
ROOT = pathlib.Path(__file__).resolve().parents[3]
GOLDENS = ROOT / "tests" / "goldens"
ARTIFACTS = ROOT / "bench_artifacts"
MOUNT = "/mnt/help"
JOURNAL_PATH = "/usr/rob/help.journal"
KILL_TIMEOUT = 30.0    # child start-up, kill detection, and resume

USES = "./dat.h:136\nexec.c:213\nexec.c:252\nhelp.c:35\n"


# -- the Figures 5-12 scenarios, exactly as the benchmarks drive them --------

MAIL, MBOX = "/help/mail/stf", "/mail/box/rob/mbox"
HEADERS = [(MAIL, "exec", "headers")]
# Figure 7's walk, which the faults gate also runs under its schedule
STACK = HEADERS + [(MBOX, "point", "sean"), (MAIL, "exec", "messages"),
                   ("From", "point", "176153"),
                   ("/help/db/stf", "exec", "stack")]


def walk(system: System, steps, skipped: list[str] | None = None) -> None:
    """Run *steps*: ``(window, "exec", text)`` executes *text* in the
    named window, ``(window, "point", needle)`` points at *needle* in
    its body.  Given a *skipped* list, a step whose window or needle
    never appeared — an upstream fault may have eaten it — is noted
    there and passed over."""
    h = system.help
    for name, verb, arg in steps:
        window = h.window_by_name(name)
        body = "" if window is None else window.body.string()
        if skipped is not None and (window is None or verb == "point"
                                    and arg not in body):
            skipped.append(f"no {arg!r} in window {name!r}; skipped {verb}")
        elif verb == "exec":
            h.execute_text(window, arg)
        else:
            h.point_at(window, body.index(arg))


def fig05_headers(system: System) -> None:
    walk(system, HEADERS)


def fig06_messages(system: System) -> None:
    walk(system, HEADERS + [(MBOX, "point", "19:26"),
                            (MAIL, "exec", "messages")])


def fig07_stack(system: System) -> None:
    walk(system, STACK)


def fig08_openline(system: System) -> None:
    h = system.help
    trace = "strlen(s=0x0) called from textinsert+0x30 text.c:32\n"
    stack_w = h.new_window(f"{SRC_DIR}/", trace)
    h.point_at(stack_w, stack_w.body.string().index("text.c:32") + 2)
    h.exec_builtin("Open", stack_w)


def fig09_openline2(system: System) -> None:
    h = system.help
    stack_w = h.new_window(
        f"{SRC_DIR}/",
        "errs(s=0x0) called from Xdie2+0x14 exec.c:252\n"
        "lookup(s=0x40be8) called from execute+0x50 exec.c:207\n")
    h.point_at(stack_w, stack_w.body.string().index("exec.c:252") + 2)
    h.exec_builtin("Open", stack_w)


def fig10_uses(system: System) -> None:
    h = system.help
    exec_w = h.open_path(f"{SRC_DIR}/exec.c", line=252)
    start = exec_w.body.pos_of_line(252)
    n_pos = exec_w.body.string().index("errs(n)", start) + 5
    h.point_at(exec_w, n_pos)
    h.execute_text(h.window_by_name("/help/cbr/stf"), "uses *.c")


def fig11_culprit(system: System) -> None:
    h = system.help
    uses_w = h.new_window(f"{SRC_DIR}/", USES)
    h.point_at(uses_w, uses_w.body.string().index("help.c:35") + 2)
    h.exec_builtin("Open", uses_w)
    h.point_at(uses_w, uses_w.body.string().index("exec.c:213") + 2)
    h.exec_builtin("Open", uses_w)


def fig12_mk(system: System) -> None:
    # two rounds, like the benchmark's timing loop: the first builds
    # the whole program, the second (the figure) recompiles exec.c
    # alone after the Cut + Put! edit
    h = system.help
    exec_w = h.open_path(f"{SRC_DIR}/exec.c", line=213)
    edit_stf = h.window_by_name("/help/edit/stf")
    cbr_stf = h.window_by_name("/help/cbr/stf")
    original = exec_w.body.string()
    for _ in range(2):
        h.replace_body(exec_w, original)
        for w in list(h.windows.values()):
            if w.name() == f"{SRC_DIR}/mk":
                h.close_window(w)
        start, end = exec_w.body.line_span(213)
        h.select(exec_w, start, end + 1)
        h.exec_builtin("Cut", edit_stf)
        h.exec_builtin("Put!", exec_w, Subwindow.TAG)
        h.execute_text(cbr_stf, "mk")


# (name, scenario, uses_wire): figures 8, 9 and 11 exercise built-in
# Open on plain files — no tool script, so no /mnt/help traffic; they
# prove the remote mount does not *disturb* an unrelated session.
FIGURES = [
    ("fig05_headers", fig05_headers, True),
    ("fig06_messages", fig06_messages, True),
    ("fig07_stack", fig07_stack, True),
    ("fig08_openline", fig08_openline, False),
    ("fig09_openline2", fig09_openline2, False),
    ("fig10_uses", fig10_uses, True),
    ("fig11_culprit", fig11_culprit, False),
    ("fig12_mk", fig12_mk, True),
]


# -- one recording step, one comparator --------------------------------------


def record_figures(figures=FIGURES) -> dict[str, dict]:
    """Record each figure locally: its input records and final screen."""
    scripts: dict[str, dict] = {}
    for name, scenario, _uses_wire in figures:
        system = build_system(width=WIDTH, height=HEIGHT)
        journal = Journal()  # shadow: records in memory only
        attach(system.help, journal)
        scenario(system)
        lines = "".join(
            f"{r.kind} {r.payload}\n" if r.payload else f"{r.kind}\n"
            for r in journal.records if r.applies)
        scripts[name] = {"input": lines,
                         "screen": render_screen(system.help)}
    return scripts


def golden(name: str) -> pathlib.Path:
    return GOLDENS / f"{name}.txt"


def check_screen(label: str, want: pathlib.Path, got: str) -> list[str]:
    """The one comparator: *got* against the golden file *want*."""
    if not want.exists():
        return [f"{label}: no golden at {want}"]
    text = want.read_text()
    if got == text:
        return []
    pairs = zip(text.splitlines(), got.splitlines())
    line = next((i for i, (a, b) in enumerate(pairs, start=1) if a != b),
                min(text.count("\n"), got.count("\n")) + 1)
    return [f"{label}: screen differs from golden (first at line {line})"]


def save_journal(name: str, text: str) -> None:
    """A red gate ships its own repro: the journal that failed."""
    (ARTIFACTS / "journals").mkdir(parents=True, exist_ok=True)
    (ARTIFACTS / "journals" / f"{name}.journal").write_text(text)


# -- artifacts ---------------------------------------------------------------


def check_artifacts(goldens: pathlib.Path = GOLDENS,
                    artifacts: pathlib.Path = ARTIFACTS) -> list[str]:
    """Every ``fig*.txt`` artifact against its golden.

    An artifact the benchmarks have not regenerated is not drift; an
    artifact with no golden is — a figure appeared without a pinned
    reference.
    """
    return [problem
            for path in sorted(pathlib.Path(artifacts).glob("fig*.txt"))
            for problem in check_screen(f"artifacts/{path.name}",
                                        pathlib.Path(goldens) / path.name,
                                        path.read_text())]


# -- replay: record into a journal, replay into a fresh world ----------------


def record_figure(scenario) -> tuple[System, str]:
    """Drive *scenario* with a journal attached; return (system, text)."""
    system = build_system(width=WIDTH, height=HEIGHT)
    journal = Journal.create(system.ns, JOURNAL_PATH)
    attach(system.help, journal, ns=system.ns, trace_screens=True)
    scenario(system)
    journal.flush()
    return system, system.ns.read(JOURNAL_PATH)


def replay_journal(text: str):
    """Replay journal *text* into a fresh system with a shadow journal.

    Returns ``(system, shadow_journal, scan)`` — the shadow journal
    regenerates the record stream, screen CRCs included, for the
    divergence comparison.
    """
    scan = scan_text(text)
    if scan.torn:
        raise ValueError(f"journal is torn: {scan.problems}")
    fresh = build_system(width=WIDTH, height=HEIGHT)
    shadow = Journal()
    attach(fresh.help, shadow, ns=fresh.ns, trace_screens=True)
    replay(fresh.help, scan.records)
    return fresh, shadow, scan


def check_replay(name: str, scenario) -> list[str]:
    """Record, replay, and compare one figure."""
    label = f"replay/{name}"
    try:
        _, text = record_figure(scenario)
    except Exception as exc:  # noqa: BLE001 - any crash is the finding
        return [f"{label}: recording failed: {exc!r}"]
    try:
        replayed, shadow, scan = replay_journal(text)
    except Exception as exc:  # noqa: BLE001
        problems = [f"{label}: replay failed: {exc!r}"]
    else:
        problems = check_screen(label, golden(name),
                                render_screen(replayed.help))
        div = divergence(scan.records, shadow.records)
        if div is not None:
            problems.append(f"{label}: first divergent sequence number "
                            f"{div[0]}: {div[1]}")
    if problems:
        save_journal(name, text)
    return problems


# -- wire: /mnt/help served across a transport -------------------------------


def wire_mount(system: System, transport: str
               ) -> tuple[WireServer, MuxClient]:
    """Swap the local /mnt/help mount for one served across the wire."""
    server = WireServer(system.helpfs.root)
    if transport == "tcp":
        channel = dial(*server.listen())
    else:
        channel, server_end = channel_pair(max_chunk=13)
        server.serve(server_end)
    client = MuxClient(channel)
    system.ns.unmount(MOUNT)
    system.ns.mount(mount_remote(client), MOUNT)
    return server, client


def check_wire(name: str, scenario, uses_wire: bool,
               transport: str) -> list[str]:
    """Drive one figure with /mnt/help across the wire."""
    label = f"wire/{transport}/{name}"
    system = build_system(width=WIDTH, height=HEIGHT)
    server, client = wire_mount(system, transport)
    before = counter("wire.rpc.open") + counter("wire.rpc.write")
    try:
        scenario(system)
        got = render_screen(system.help)
    except Exception as exc:  # noqa: BLE001 - any crash is the finding
        return [f"{label}: session failed over the wire: {exc!r}"]
    finally:
        client.close()
        server.close()
    problems = check_screen(label, golden(name), got)
    if uses_wire and counter("wire.rpc.open") + counter(
            "wire.rpc.write") == before:
        problems.append(f"{label}: no RPC crossed the wire — the tools "
                        f"bypassed the remote /mnt/help")
    return problems


# -- hosted sessions: the building blocks loadgen shares ---------------------

# Ledger entries whose values depend on connection identity (the
# attach name's length changes frame sizes); everything else must
# match the solo baseline exactly.
_UNSTABLE = ("wire.bytes.",)
# What a hosted gate reads back, in a fixed order ending with the
# ledger, so every run's ledger covers exactly the same traffic.
READS = ("screen", "journal", "metrics")


def make_host(shards: int = 0, **kwargs):
    """A 160x60 SessionHost, or a ShardRouter over *shards* of them."""
    kwargs = {"width": WIDTH, "height": HEIGHT, **kwargs}
    if shards:
        return ShardRouter(shards=shards, **kwargs)
    return SessionHost(**kwargs)


def hosts_of(target) -> list[SessionHost]:
    return target.hosts if isinstance(target, ShardRouter) else [target]


def connect(target, addr=None, max_chunk: int | None = None):
    """A channel to *target*: TCP when it listens at *addr*, else a pipe."""
    return dial(*addr) if addr else target.pipe(max_chunk=max_chunk)


def total(hosts, name: str) -> int:
    return sum(host.metrics.counter(name) for host in hosts)


def await_counter(hosts, name: str, want: int,
                  timeout: float = 60.0) -> bool:
    """Detach-driven work is asynchronous; wait for the ledger."""
    deadline = time.monotonic() + timeout
    while total(hosts, name) < want:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def visit(target, addr, aname: str, lines=(), reads=("screen",), *,
          uname: str = "", max_chunk: int | None = None,
          resume: bool = False) -> dict[str, str]:
    """One hosted visit: attach as *aname*, append *lines* to the
    session's ``input``, read each file in *reads*, close.

    A *resume* visit first reads ``inputs`` — how many input records
    the session already holds, returned under that name — and appends
    only the lines past it.
    """
    with MuxClient(connect(target, addr, max_chunk), aname=aname,
                   uname=uname) as client:
        files = mount_remote(client)
        got = {"inputs": files.lookup("inputs").data} if resume else {}
        with files.lookup("input").open("a") as sink:
            for line in lines[int(got.get("inputs") or 0):]:
                sink.write(line)
        return got | {name: files.lookup(name).data for name in reads}


def resume(target, addr, aname: str, lines, *,
           uname: str = "") -> tuple[int, str]:
    """Finish a severed session on whichever host now answers for it.

    A *resume* visit, retried while a router still points the name at
    a dead shard; returns how many input records the promoted journal
    held, and the screen.  Every write the dead primary acknowledged
    must be within that count.
    """
    deadline = time.monotonic() + KILL_TIMEOUT
    while True:
        try:
            got = visit(target, addr, aname, lines, uname=uname, resume=True)
            return int(got["inputs"]), got["screen"]
        except (FsError, OSError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def _ledger_of(metrics_text: str) -> dict[str, int]:
    ledger: dict[str, int] = {}
    for line in metrics_text.splitlines():
        name, _, value = line.rpartition(" ")
        if name.startswith(_UNSTABLE):
            continue
        ledger[name] = int(value)
    return ledger


# -- hosted: solo, concurrent, budget ----------------------------------------


def check_hosted(scripts: dict[str, dict], transport: str,
                 sessions: int = 8, shards: int = 0,
                 budget: int = 0) -> list[str]:
    """Every figure in hosted sessions, then the host ledger audit.

    A solo pass pins each figure's screen, journal and counter ledger;
    *sessions* concurrent workers must then reproduce them exactly.
    With a *budget* each host instead holds at most that many worlds:
    every figure session hibernates on detach and must wake
    byte-identical.
    """
    label = "/".join(["hosted", transport]
                     + [f"sessions{sessions}"] * (not budget)
                     + [f"shards{shards}"] * bool(shards)
                     + [f"budget{budget}"] * bool(budget))
    target = make_host(shards, max_live=budget or None)
    hosts = hosts_of(target)
    addr = target.listen() if transport == "tcp" else None
    try:
        if budget:
            problems = _park_and_wake(target, hosts, addr, scripts, budget)
        else:
            problems = _solo_then_concurrent(target, addr, scripts,
                                             sessions)
    finally:
        target.close()
    problems += target.audit()
    if budget:
        woken = total(hosts, "host.sessions.woken")
        if woken != len(scripts):
            problems.append(f"expected {len(scripts)} wakes, ledger says "
                            f"{woken}")
        if not any((host.metrics.histogram("host.wake_us") or {}).get(
                "count") for host in hosts):
            problems.append("no host.wake_us latency samples")
    else:
        opened, closed = target.session_ledger()
        want = (sessions + 1) * len(scripts)
        if opened != want or closed != want:
            problems.append(f"expected {want} sessions opened and closed, "
                            f"saw opened={opened} closed={closed}")
    return [f"{label}: {p}" for p in problems]


def _compare(label: str, name: str, got: dict, baseline: dict) -> list[str]:
    problems = check_screen(label, golden(name), got["screen"])
    if got["journal"] != baseline["journal"]:
        problems.append(f"{label}: journal kind sequence diverged from "
                        f"the solo baseline")
    ledger, want = _ledger_of(got["metrics"]), _ledger_of(baseline["metrics"])
    if ledger != want:
        diffs = [key for key in sorted(set(ledger) | set(want))
                 if ledger.get(key) != want.get(key)]
        shown = ", ".join(f"{key}={want.get(key, 0)}->{ledger.get(key, 0)}"
                          for key in diffs[:4])
        problems.append(f"{label}: counter bleed — {len(diffs)} ledger "
                        f"entries differ from the solo baseline ({shown})")
    return problems


def _solo_then_concurrent(target, addr, scripts: dict[str, dict],
                          sessions: int) -> list[str]:
    """Solo baseline per figure, then K workers driving every figure."""
    baselines: dict[str, dict] = {}  # set by the solo pass, then read-only

    def drive(label: str, name: str) -> list[str]:
        try:
            got = visit(target, addr, label, [scripts[name]["input"]],
                        READS, max_chunk=13)
        except Exception as exc:  # noqa: BLE001 - the crash IS the finding
            return [f"{label}: session failed: {exc!r}"]
        return _compare(label, name, got, baselines.setdefault(name, got))

    problems = [p for name in scripts for p in drive(f"{name}.solo", name)]
    if problems:
        return problems  # a broken baseline makes the rest noise
    start = threading.Barrier(sessions)

    def worker(index: int) -> list[str]:
        start.wait()
        return [p for name in scripts
                for p in drive(f"{name}.w{index}", name)]

    with ThreadPoolExecutor(sessions, "sessioncheck-w") as pool:
        return [p for found in pool.map(worker, range(sessions))
                for p in found]


def _park_and_wake(target, hosts, addr, scripts: dict[str, dict],
                   budget: int) -> list[str]:
    """Drive each figure and detach (hibernating it), then wake each."""
    problems: list[str] = []
    for name, script in scripts.items():
        try:
            got = visit(target, addr, f"{name}.hib", [script["input"]],
                        max_chunk=13)
        except Exception as exc:  # noqa: BLE001 - the crash IS the finding
            return [f"{name}.hib: session failed: {exc!r}"]
        problems += check_screen(f"{name}.hib", golden(name), got["screen"])
    if not await_counter(hosts, "host.sessions.hibernated", len(scripts),
                         timeout=10.0):
        problems.append(f"only {total(hosts, 'host.sessions.hibernated')} "
                        f"of {len(scripts)} detached sessions hibernated")
    for host in hosts:
        resident = sum(1 for s in host.sessions.values() if s is not None)
        if resident > budget:
            problems.append(f"{resident} worlds resident after "
                            f"hibernation, budget is {budget}")
    if problems:
        return problems  # a broken park makes the wake pass noise

    for name in scripts:
        label = f"{name}.woken"
        try:
            got = visit(target, addr, f"{name}.hib")
        except Exception as exc:  # noqa: BLE001
            problems.append(f"{label}: wake failed: {exc!r}")
            continue
        problems += check_screen(label, golden(name), got["screen"])
    await_counter(hosts, "host.sessions.hibernated", 2 * len(scripts),
                  timeout=10.0)
    for host in hosts:
        if host.live_peak > budget:
            problems.append(f"live_peak {host.live_peak} exceeded the "
                            f"budget {budget}")
    return problems


# -- faults: graceful degradation under a misbehaving file server ------------


def standard_schedule() -> FaultPlan:
    """The standard fault schedule the Figures 5-7 walk runs under.

    Each rule targets an op the walk is known to perform, so every rule
    fires exactly once and the run is a deterministic regression test
    rather than a fuzz run:

    - the first ``bodyapp`` write (``headers`` filling its window)
      fails mid-stream;
    - the 2nd window creation (``messages``) is refused at open;
    - the 3rd window creation (``stack``) reads back an empty window
      name (a short read), so the script's ``$x`` is a null list;
    - the 3rd ``ctl`` close (``stack`` closing ``new/ctl``) errors
      after the data arrived.
    """
    return FaultPlan(
        Fault(op="write", path=f"{MOUNT}/*/bodyapp", at=1),
        Fault(op="open", path=f"{MOUNT}/new/ctl", at=2),
        Fault(op="read", path=f"{MOUNT}/new/ctl", at=2, short=0),
        Fault(op="close", path=f"{MOUNT}/*/ctl", at=3),
    )


def check_faults() -> list[str]:
    """Figure 7's walk clean (the control), then under the standard
    schedule, where skipped steps are expected."""
    clean = build_system(width=WIDTH, height=HEIGHT)
    skipped: list[str] = []
    walk(clean, STACK, skipped)
    problems = [f"clean: {note}" for note in skipped]
    if clean.help.window_by_name(f"{SRC_DIR}/") is None:
        problems.append("clean: stack window missing after the walk")
    errors = clean.help.window_by_name(ERRORS)
    if errors is not None and errors.body.string():
        head = errors.body.string().splitlines()[0]
        problems.append(f"clean: unexpected Errors output: {head}")

    system = build_system(width=WIDTH, height=HEIGHT)
    plan = standard_schedule()
    system.ns.unmount(MOUNT)
    system.ns.mount(wrap(system.helpfs.root, plan, base=MOUNT), MOUNT)
    before = counter("fs.fault.injected")
    walk(system, STACK, [])
    injected = counter("fs.fault.injected") - before
    for rule, fired in zip(plan.faults, plan.fired):
        if fired != 1:
            problems.append(f"rule {rule.op} {rule.path} at={rule.at} "
                            f"fired {fired} times, want 1")
    if injected != plan.injected:
        problems.append(f"fs.fault.injected moved by {injected}, plan "
                        f"says {plan.injected}")
    h = system.help
    if not h.running:
        problems.append("help stopped running")
    errors = h.window_by_name(ERRORS)
    if errors is None or not errors.body.string():
        problems.append("no diagnostics in the Errors window")
    elif "[" not in errors.body.string():
        problems.append("Errors output lacks structured [kind] tags")
    try:
        render_screen(h)
    except Exception as exc:  # noqa: BLE001 - a render crash is the finding
        problems.append(f"render failed: {exc!r}")
    return [f"faults: {p}" for p in problems]


# -- crash: a torn journal write, then recovery ------------------------------


def check_crash() -> list[str]:
    """A crash-faulted session must recover to its pre-crash screen."""
    system = build_system(width=WIDTH, height=HEIGHT)
    journal = Journal.create(system.ns, JOURNAL_PATH)
    recorder = attach(system.help, journal, ns=system.ns, snapshot_every=3)
    fig07_stack(system)
    recorder.compact()  # exercise snapshot + truncate on a live session
    pre_crash = render_screen(system.help, full=True)
    plan = FaultPlan(Fault(op="write", path="*/help.journal", crash=True))
    system.ns.mount(wrap(system.ns.walk("/usr/rob"), plan, base="/usr/rob"),
                    "/usr/rob")
    try:
        system.help.type_text("lost to the crash")
        return ["crash: the crash fault never fired"]
    except Crashed:
        pass
    system.ns.unmount("/usr/rob")
    text = system.ns.read(JOURNAL_PATH)
    fresh = build_system(width=WIDTH, height=HEIGHT)
    problems: list[str] = []
    try:
        report = recover(fresh.help, text)
    except Exception as exc:  # noqa: BLE001
        problems.append(f"recover() failed: {exc!r}")
    else:
        if not report.torn:
            problems.append("the torn tail went undetected")
        if render_screen(fresh.help, full=True) != pre_crash:
            problems.append("recovered screen differs from the crashed "
                            "session's pre-crash screen")
    if problems:
        save_journal("crash", text)
    return [f"crash: {p}" for p in problems]


# -- kill-primary: a real SIGKILL, a promoted standby ------------------------


def run_primary(standby_addr, conn) -> None:
    """Child process: host the primary, shipping to *standby_addr*,
    until SIGKILL takes it; its address goes back over *conn*."""
    primary = SessionHost(width=WIDTH, height=HEIGHT)
    primary.attach_replica(ReplicaFeed(dial(*standby_addr),
                                       metrics=primary.metrics))
    conn.send(primary.listen())
    while True:  # the parent's SIGKILL is the only way out
        time.sleep(60)


def split_points(seed: int, lines: dict[str, list[str]]) -> dict[str, int]:
    """Seeded per-figure kill points: how many records ship pre-kill.

    Every figure is left genuinely mid-stream — at least one record
    written (so the session exists and shipped) and, where the figure
    is long enough, at least one still unwritten (so promotion must
    hand the resume index back to the client).
    """
    rng = random.Random(f"kill-primary:{seed}")
    return {name: max(1, min(len(got) - 1,
                             round(len(got) * rng.uniform(0.3, 0.8))))
            if len(got) > 1 else len(got)
            for name, got in lines.items()}


def check_kill_primary(scripts: dict[str, dict]) -> list[str]:
    """A primary host in a child process ships every journal to a
    standby here in sync mode.  With every figure mid-stream the child
    is paused, which must not read as its death, then SIGKILLed and
    the standby promoted; each figure must resume with every
    acknowledged write held and finish on its golden."""
    lines = {name: script["input"].splitlines(keepends=True)
             for name, script in scripts.items()}
    standby = ReplicaStandby(width=WIDTH, height=HEIGHT, id_prefix="kp.")
    lost = threading.Event()
    standby.on_lost = lost.set
    context = multiprocessing.get_context("spawn")
    here, there = context.Pipe()
    child = context.Process(target=run_primary, daemon=True,
                            args=(standby.host.listen(), there))
    child.start()
    there.close()  # the child's end: its death now reads as EOF here
    clients: list[MuxClient] = []
    try:
        problems = _kill_and_promote(standby, lost, child, here, lines,
                                     split_points(1, lines), clients)
    finally:
        for client in clients:
            client.close()
        child.kill()
        child.join(10)
        here.close()
        standby.close()
    return [f"kill-primary: {p}" for p in problems]


def _kill_and_promote(standby, lost, child, here, lines, acked,
                      clients) -> list[str]:
    try:
        addr = here.recv() if here.poll(KILL_TIMEOUT) else None
    except EOFError:
        addr = None
    if addr is None:
        return ["the primary process never came up"]
    # every figure mid-stream: each append that returns was acked, and
    # the connections stay open — the sessions are live at the kill
    for name, todo in lines.items():
        clients.append(MuxClient(dial(*addr), aname=name))
        try:
            with mount_remote(clients[-1]).lookup("input").open("a") as sink:
                for line in todo[:acked[name]]:
                    sink.write(line)
        except (FsError, OSError) as exc:
            return [f"{name}: write failed before the kill: {exc!r}"]
    # a stopped process keeps its sockets open: slow is not dead
    os.kill(child.pid, signal.SIGSTOP)
    time.sleep(1.0)
    os.kill(child.pid, signal.SIGCONT)
    if lost.is_set():
        return ["the standby declared a paused primary lost"]
    child.kill()  # SIGKILL: no teardown, no flush, no goodbye
    child.join(10)
    if not lost.wait(KILL_TIMEOUT):
        return ["the standby never noticed the kill"]
    report = standby.promote()
    problems = [f"promote: {p}" for p in report["problems"]]
    if report["sessions"] != len(lines):
        problems.append(f"promotion adopted {report['sessions']} sessions, "
                        f"expected {len(lines)}")
    for name, todo in lines.items():
        try:
            held, screen = resume(standby.host, None, name, todo)
        except (FsError, OSError) as exc:
            problems.append(f"{name}: resume failed: {exc!r}")
            continue
        if held < acked[name]:
            problems.append(f"{name}: acked-write loss — the standby holds "
                            f"{held} records, the primary acked "
                            f"{acked[name]}")
        problems += check_screen(name, golden(name), screen)
    return problems + [f"audit: {p}" for p in standby.host.audit()]


# -- the command line --------------------------------------------------------

GATES = {
    "artifacts": lambda figures, scripts: check_artifacts(),
    "replay": lambda figures, scripts: [
        p for name, scenario, _ in figures
        for p in check_replay(name, scenario)],
    "wire": lambda figures, scripts, transport: [
        p for figure in figures for p in check_wire(*figure, transport)],
    "hosted": lambda figures, scripts, **config: check_hosted(
        scripts, **config),
    "faults": lambda figures, scripts: check_faults(),
    "crash": lambda figures, scripts: check_crash(),
    "kill-primary": lambda figures, scripts: check_kill_primary(scripts),
}

USAGE = ("usage: sessioncheck [--pipe | --tcp] [--figures N] "
         "[--sessions K] [--shards N] [--budget B] [--faults] [--crash] "
         "[--kill-primary]")

_NUMBERS = ("--figures", "--sessions", "--shards", "--budget")
_SWITCHES = ("--pipe", "--tcp", "--faults", "--crash", "--kill-primary")
# which gates read each narrowing flag
_READERS = {"--pipe": {"wire", "hosted"}, "--tcp": {"wire", "hosted"},
            "--figures": {"replay", "wire", "hosted", "kill-primary"}}


def plan(args: list[str]) -> tuple[list[tuple[str, dict]], int]:
    """The (gate, config) jobs a command line asks for, and how many
    figures they drive; a ValueError names a bad or conflicting flag."""
    given: dict[str, int] = {}
    args = list(args)
    while args:
        arg = args.pop(0)
        if arg in given:
            raise ValueError(f"{arg} given twice")
        if arg in _SWITCHES:
            given[arg] = 1
        elif arg in _NUMBERS and args and args[0].isdigit() \
                and int(args[0]) >= 1:
            given[arg] = int(args.pop(0))
        else:
            raise ValueError(f"bad argument {arg!r}")
    if "--pipe" in given and "--tcp" in given:
        raise ValueError("--pipe and --tcp exclude each other")
    if "--budget" in given and "--sessions" in given:
        raise ValueError("--budget drives one session at a time; it "
                         "takes no --sessions")
    if given.get("--figures", 1) > len(FIGURES):
        raise ValueError(f"--figures takes 1 to {len(FIGURES)}")
    hosted = {key.removeprefix("--"): given[key]
              for key in ("--sessions", "--shards", "--budget")
              if key in given}
    chosen = ["hosted"] * bool(hosted) + [
        flag[2:] for flag in ("--faults", "--crash", "--kill-primary")
        if flag in given]
    if not chosen:
        chosen = list(GATES)
        configs = [{"sessions": 8}, {"sessions": 8, "shards": 4},
                   {"budget": 3}]
    elif "budget" in hosted:
        configs = [hosted]
    else:
        configs = [{"sessions": 8, **hosted}]
    for flag, readers in _READERS.items():
        if flag in given and not readers & set(chosen):
            raise ValueError(f"{flag} applies to none of the chosen "
                             f"gates ({', '.join(chosen)})")
    transports = [name for name in ("pipe", "tcp")
                  if f"--{name}" in given] or ["pipe", "tcp"]
    jobs: list[tuple[str, dict]] = []
    for gate in chosen:
        if gate == "wire":
            jobs += [(gate, {"transport": t}) for t in transports]
        elif gate == "hosted":
            jobs += [(gate, {"transport": t, **config})
                     for config in configs for t in transports]
        else:
            jobs.append((gate, {}))
    return jobs, given.get("--figures", len(FIGURES))


def run(jobs: list[tuple[str, dict]], figures=FIGURES) -> list[str]:
    """Run each (gate, config) job; every problem found, in order."""
    scripts = (record_figures(figures)
               if any(gate in ("hosted", "kill-primary") for gate, _ in jobs)
               else {})
    problems: list[str] = []
    for gate, config in jobs:
        start = time.perf_counter()
        found = GATES[gate](figures, scripts, **config)
        label = "/".join([gate] + [v if k == "transport" else f"{k}{v}"
                                   for k, v in config.items()])
        print(f"sessioncheck: {label}: {len(found) or 'no'} problems in "
              f"{time.perf_counter() - start:.2f}s")
        problems += found
    return problems


def main(argv: list[str] | None = None) -> int:
    try:
        jobs, figures = plan(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"sessioncheck: {exc}\n{USAGE}", file=sys.stderr)
        return 2
    problems = run(jobs, FIGURES[:figures])
    for problem in problems:
        print(f"sessioncheck: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
