"""The driver's side: one server process, the stock client, timed ops.

Every op goes through the public client path: ``dial`` + ``MuxClient``
+ ``mount_remote``.  The load is a closed loop with zero think time:
one connection at a time, driven by one thread, each op sent only when
the previous one has been answered.  Ops are timed around the client
calls:

    attach  MuxClient(dial(addr), aname=..., uname="rob")
    wake    the same call, naming a hibernated session
    write   one input record through the ``input`` handle (1 Twrite)
    read    ``.data`` of the ``screen`` node (walk, open, read, clunk)

Every screen read is checked against the screen the same inputs give
in a local world; a mismatch is recorded and fails the run.
"""

from __future__ import annotations

import json
import os
import queue
import resource
import shutil
import subprocess
import sys
import threading
import time

from repro.fs.errors import Busy, FsError
from repro.fs.mux import MuxClient, dial, mount_remote

from traffic import crc, replay_screens

CLASSES = ("attach", "wake", "write", "read")
RPC_TIMEOUT = 10.0        # one RPC; a slower answer is a failed op
CONTROL_TIMEOUT = 60.0    # one server control command
BUSY_RETRIES = 20         # re-attach while the drop still hibernates
BUSY_BACKOFF = 0.002      # seconds, times the attempt number
EDIT_READS = 2            # edit: a read after each write, and a re-poll
REPLICATED_WRITES = 8     # replicated: one read per eight writes


class Failed(Exception):
    """An op failed; the ledger has counted it."""


# -- the server process -----------------------------------------------------


class Server:
    """The program under test in a child process, and its control pipe."""

    def __init__(self, root, workload: str, traced: bool, spans_path: str,
                 deadline: float) -> None:
        self.workdir = (root / ".hostbench"
                        / f"run-{os.getpid()}-{time.time_ns()}")
        tmp = self.workdir / "tmp"
        tmp.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in env.get("PYTHONPATH", "")
                                   .split(os.pathsep) if p])
        # bytecode and the hibernation spool stay inside the checkout,
        # and nothing is written under src/
        env["PYTHONPYCACHEPREFIX"] = str(root / ".hostbench" / "pycache")
        env["TMPDIR"] = str(tmp)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "hostbench" / "server.py"), workload,
             "1" if traced else "0", spans_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=root, env=env)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True,
                                        name="server-stdout")
        self._reader.start()
        # the hard timeout: a server still running at the deadline is
        # killed, which fails every op still waiting on it
        self._watchdog = threading.Timer(
            max(0.0, deadline - time.monotonic()), self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        try:
            banner = self._next().split()
            if len(banner) != 3 or banner[0] != "hostbench-server":
                raise RuntimeError(f"bad server banner {banner!r}")
        except BaseException:
            self.close()
            raise
        self.addr = (banner[1], int(banner[2]))

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next(self) -> str:
        try:
            line = self._lines.get(timeout=CONTROL_TIMEOUT)
        except queue.Empty:
            raise RuntimeError("server control timed out") from None
        if line is None:
            raise RuntimeError("server exited")
        return line

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        while True:
            line = self._next()
            if line.startswith("@@ "):
                payload = json.loads(line[3:])
                if "error" in payload:
                    raise RuntimeError(payload["error"])
                return payload

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self._watchdog.cancel()
            self._reader.join(timeout=5)
            for pipe in (self.proc.stdin, self.proc.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass
            shutil.rmtree(self.workdir, ignore_errors=True)


# -- the client ledger ------------------------------------------------------


class Counted:
    """A transport wrapper counting frames sent and bytes received.

    ``MuxClient`` sends each request as one ``send`` call, so frames
    sent during an op are the op's RPCs.
    """

    def __init__(self, channel) -> None:
        self._channel = channel
        self.frames = 0
        self.bytes_in = 0

    def send(self, data: bytes) -> None:
        self.frames += 1
        self._channel.send(data)

    def recv(self, n: int = 1 << 16) -> bytes:
        chunk = self._channel.recv(n)
        self.bytes_in += len(chunk)
        return chunk

    def close(self) -> None:
        self._channel.close()


class Ledger:
    """What the client saw: latencies per op class, failures, checks."""

    def __init__(self) -> None:
        self.ms: dict[str, list[float]] = {c: [] for c in CLASSES}
        self.attempted = 0
        self.failed = 0
        self.busy_retries = 0
        self.errors: list[str] = []       # failed ops
        self.problems: list[str] = []     # wrong screens
        self.rpcs = {"read": 0, "write": 0}
        self.read_bytes = 0
        self.unchanged_reads = 0

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.ms.values())

    def fail(self, text: str, counted: bool = True) -> Failed:
        if counted:
            self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(text)
        return Failed(text)

    def mismatch(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def absorb(self, other: Ledger) -> None:
        """Take over *other*'s op accounting and checks, not its times."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.busy_retries += other.busy_retries
        self.errors += other.errors
        self.problems += other.problems

    def counts(self) -> dict:
        """The per-op counts that must repeat exactly for one seed."""
        return {"reads": len(self.ms["read"]),
                "writes": len(self.ms["write"]),
                "read_rpcs": self.rpcs["read"],
                "write_rpcs": self.rpcs["write"],
                "read_bytes": self.read_bytes}


class Conn:
    """One client connection with its screen and input handles."""

    def __init__(self, addr, aname: str, ledger: Ledger,
                 op: str | None) -> None:
        """Attach, timed as *op* when given.

        A drop's hibernate still runs after the client has closed, so
        a quick re-attach can meet Busy "already attached": it is
        retried with bounded backoff and counted as a busy retry.
        """
        self.ledger = ledger
        self.aname = aname
        self.sink = None
        self.last_screen: str | None = None
        if op is not None:
            ledger.attempted += 1
        for attempt in range(BUSY_RETRIES + 1):
            channel = None
            start = time.perf_counter()
            try:
                channel = Counted(dial(*addr))
                client = MuxClient(channel, aname=aname, uname="rob",
                                   timeout=RPC_TIMEOUT)
            except Busy as exc:
                channel.close()
                if attempt < BUSY_RETRIES:
                    ledger.busy_retries += 1
                    time.sleep(BUSY_BACKOFF * (attempt + 1))
                    continue
                raise ledger.fail(f"{aname}: attach: {exc}",
                                  op is not None) from exc
            except (FsError, OSError) as exc:
                if channel is not None:
                    channel.close()
                raise ledger.fail(f"{aname}: attach: {exc}",
                                  op is not None) from exc
            break
        if op is not None:
            ledger.ms[op].append((time.perf_counter() - start) * 1e3)
        self.channel, self.client = channel, client
        try:
            self.remote = mount_remote(client)
            self.screen = self.remote.lookup("screen")
        except (FsError, OSError) as exc:
            self.close()
            raise ledger.fail(f"{aname}: lookup: {exc}", False) from exc

    def open_input(self) -> None:
        try:
            self.sink = self.remote.lookup("input").open("a")
        except (FsError, OSError) as exc:
            self.close()
            raise self.ledger.fail(f"{self.aname}: open input: {exc}",
                                   False) from exc

    def write(self, line: str) -> None:
        ledger = self.ledger
        ledger.attempted += 1
        frames = self.channel.frames
        start = time.perf_counter()
        try:
            self.sink.write(line)
        except (FsError, OSError) as exc:
            raise ledger.fail(f"{self.aname}: write: {exc}") from exc
        ledger.ms["write"].append((time.perf_counter() - start) * 1e3)
        ledger.rpcs["write"] += self.channel.frames - frames

    def read(self) -> str:
        ledger = self.ledger
        ledger.attempted += 1
        frames, received = self.channel.frames, self.channel.bytes_in
        start = time.perf_counter()
        try:
            text = self.screen.data
        except (FsError, OSError) as exc:
            raise ledger.fail(f"{self.aname}: read: {exc}") from exc
        ledger.ms["read"].append((time.perf_counter() - start) * 1e3)
        ledger.rpcs["read"] += self.channel.frames - frames
        ledger.read_bytes += self.channel.bytes_in - received
        if text == self.last_screen:
            ledger.unchanged_reads += 1
        self.last_screen = text
        return text

    def peek(self) -> str:
        """An untimed screen read, for checks outside the timed ops."""
        try:
            return self.screen.data
        except (FsError, OSError) as exc:
            raise self.ledger.fail(f"{self.aname}: read: {exc}",
                                   False) from exc

    def close(self) -> None:
        """Drop the connection; the server hibernates the session."""
        try:
            if self.sink is not None:
                self.sink.close()
        except (FsError, OSError):
            pass
        self.client.close()


# -- the timed phase --------------------------------------------------------


def process_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Phase:
    """Wall clock and driver CPU of the timed phase, with one optional
    checkpoint.

    The checkpoint (``--trace 1`` only) snapshots the exact counts after
    a fixed number of ops, at a point where no server work is pending;
    the time it takes is left out of the phase.  The clocks stop at
    :meth:`finish`, before the screens are checked.
    """

    def __init__(self, seconds: float, checkpoint_ops: int | None = None,
                 snapshot=None) -> None:
        self.start = time.perf_counter()
        self.cpu_start = process_cpu()
        self.end = self.start + seconds
        self.paused = 0.0
        self.stopped: float | None = None
        self.cpu_s = 0.0
        self.checkpoint_ops = checkpoint_ops
        self.snapshot_fn = snapshot
        self.snapshot = None

    def running(self) -> bool:
        return time.perf_counter() < self.end

    def finish(self) -> None:
        """The last timed op is done; a second call changes nothing."""
        if self.stopped is None:
            self.stopped = time.perf_counter()
            self.cpu_s = process_cpu() - self.cpu_start

    def boundary(self, ledger: Ledger) -> None:
        if (self.snapshot is None and self.snapshot_fn is not None
                and ledger.completed >= self.checkpoint_ops):
            began = time.perf_counter()
            self.snapshot = {"client": ledger.counts(),
                             "server": self.snapshot_fn()}
            pause = time.perf_counter() - began
            self.paused += pause
            self.end += pause

    def elapsed(self) -> float:
        return self.stopped - self.start - self.paused


# -- workloads --------------------------------------------------------------


def ran_out(what: str) -> None:
    """The traffic ended before the phase did: the phase ends with it.

    Every op sent is still timed and checked, so the figures stand;
    only the phase is shorter than asked.
    """
    print(f"hostbench: note: {what}; the timed phase ended early",
          file=sys.stderr)


def edit_step(conn: Conn, line: str, index: int, reads: int,
              seen: list[tuple[int, int]]) -> None:
    """Write one input, then read the screen *reads* times, noting
    (input index, screen CRC) in *seen* for the check after the run."""
    conn.write(line)
    for _ in range(reads):
        seen.append((index, crc(conn.read())))


def reads_after(workload: str):
    if workload == "edit":
        return lambda i: EDIT_READS
    return lambda i: 1 if (i + 1) % REPLICATED_WRITES == 0 else 0


def check_edit(ledger: Ledger, aname: str, lines, seen, final: str) -> None:
    """Every screen *aname* read, and the one it ends on, must be the
    screen the same inputs give in a fresh local world."""
    want, last = replay_screens(lines, {i for i, _ in seen})
    for i, got in seen:
        if got != want[i]:
            ledger.mismatch(f"{aname}: screen after input {i} has crc "
                            f"{got:08x}, the local world shows "
                            f"{want[i]:08x}")
            break
    if final != last:
        ledger.mismatch(f"{aname}: final screen after {len(lines)} inputs "
                        f"differs from a local replay")


def edit_main(addr, workload: str, lines, ledger: Ledger,
              phase: Phase) -> int:
    """The long-lived editing session; returns the inputs sent."""
    per_step = reads_after(workload)
    conn = Conn(addr, "hb.edit", ledger, None)
    seen: list[tuple[int, int]] = []
    sent = 0
    try:
        conn.open_input()
        for i, line in enumerate(lines):
            if not phase.running():
                break
            edit_step(conn, line, i, per_step(i), seen)
            sent += 1
            phase.boundary(ledger)
        else:
            ran_out(f"the editing script ran out after {sent} inputs")
        phase.finish()
        final = conn.peek()
    except Failed:
        return sent  # counted; the session's state is unknown
    finally:
        conn.close()
    check_edit(ledger, "hb.edit", lines[:sent], seen, final)
    return sent


def run_visit(addr, visit, figures, ledger: Ledger,
              last_seen: dict[int, int]) -> None:
    figure = figures[visit.model]
    conn = Conn(addr, visit.aname, ledger,
                "wake" if visit.returning else "attach")
    try:
        if visit.returning:
            got = crc(conn.read())
            want = last_seen.get(visit.uid)
            if want is not None and got != want:
                ledger.mismatch(f"{visit.aname}: woke on crc {got:08x}, "
                                f"last saw {want:08x} before the drop")
            return
        conn.open_input()
        written = 0
        text = ""
        for op, index in visit.steps:
            if op == "write":
                conn.write(figure.model.lines[index])
                written = index + 1
                continue
            text = conn.read()
            got = crc(text)
            if got != figure.screens[written - 1]:
                ledger.mismatch(f"{visit.aname}: {visit.model} screen "
                                f"after {written} inputs is wrong")
            last_seen[visit.uid] = got
        if text != figure.final:
            ledger.mismatch(f"{visit.aname}: visit did not end on the "
                            f"recorded {visit.model} screen")
    finally:
        conn.close()


def visit_main(addr, stream, figures, ledger: Ledger, phase: Phase,
               settle) -> int:
    """Visits and returns in stream order; returns the entries run.

    The drop's hibernate runs after the client has closed.  Each visit
    waits for it (*settle*, inside the timed phase), so the next attach
    or wake times itself, not a race with the previous user's teardown
    that one run wins more often than another.
    """
    last_seen: dict[int, int] = {}
    done = 0
    for visit in stream:
        if not phase.running():
            break
        try:
            run_visit(addr, visit, figures, ledger, last_seen)
        except Failed:
            pass
        settle()
        done += 1
        phase.boundary(ledger)
    else:
        ran_out(f"the visit stream ran out after {done} entries")
    return done


def probe(addr, ledger: Ledger, sessions: int, boot_crc: int,
          settle) -> None:
    """Cold attaches, then wakes of the same sessions (edit and
    replicated; their editing session attaches only once).

    Each drop is let finish hibernating (*settle*) before the next
    attach, so the probe times attach and wake alone, not attach racing
    the previous session's teardown.
    """
    names = [f"hb.p{i}" for i in range(sessions)]
    for name in names:
        try:
            Conn(addr, name, ledger, "attach").close()
        except Failed:
            pass
        settle()
    for name in names:
        try:
            conn = Conn(addr, name, ledger, "wake")
        except Failed:
            continue
        try:
            if crc(conn.peek()) != boot_crc:
                ledger.mismatch(f"{name}: woke on a screen it never had")
        except Failed:
            pass
        finally:
            conn.close()
        settle()
