"""Journal-shipping replication: primary/standby session hosts.

The journal *is* the session (PR 4), so shipping the journal is
replication, and failover is just :func:`~repro.journal.recovery.
recover` run on another host.  Three pieces make that real:

* :class:`ReplicaFeed` — the primary side.  It hangs off every hosted
  session's :attr:`~repro.journal.log.Journal.on_durable` hook and
  streams the bytes each flush/compaction made durable to the standby
  as :class:`~repro.fs.wire.Tship` frames (seq-watermarked, CRC'd per
  frame) over an ordinary wire connection.  In ``sync`` mode the ship
  blocks for the standby's :class:`~repro.fs.wire.Rship` ack, and
  because the recorder flushes an input *before* applying it, a client
  write is only acknowledged once the standby durably holds its
  record — zero acknowledged-write loss by construction.  ``async``
  mode trades that guarantee for latency: ships queue and drain on a
  background thread, with the debt metered as ``replica.lag_records``
  and ``replica.lag_us`` histograms.
* :class:`ReplicaStandby` — the standby side.  It wraps its own
  :class:`~repro.serve.SessionHost` and installs a ship handler on its
  wire server; per session it keeps the journal text, the park state
  and the feed watermark.  :meth:`ReplicaStandby.promote` turns the
  copies into sessions: every tracked journal enters the host's
  hibernated table (``adopt_hibernated``), so live sessions re-attach
  exactly like a hibernation wake — the journal tail replays through
  ``recover()`` — and parked snapshots are simply already there.
* :class:`ReplicaPair` — the wiring: one primary, one standby, the
  feed between them, and a kill switch that severs the primary with no
  orderly teardown (the in-process stand-in for SIGKILL).

Failure detection is feed silence: the feed heartbeats ``ping`` ships
every *heartbeat* seconds, the standby timestamps every frame, and
:meth:`ReplicaStandby.primary_alive` reports whether the allowance of
missed heartbeats is spent — the same staleness the ``srv/replica``
control file serves.  The ShardRouter's monitor thread polls it and
repoints the hash slot at the promoted standby.

The ledger: ``replica.ship.frames == replica.ack.frames + inflight +
replica.ship.errors`` on the primary (audited by ``host.audit()``),
and ``replica.sessions.promoted == replica.promoted.live +
replica.promoted.parked`` on the standby — the lost primary's resident
plus parked sessions, every one accounted for.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque

from repro.fs import wire
from repro.fs.errors import Busy, Closed, FsError, IOFault
from repro.fs.mux import MuxClient
from repro.metrics.counter import MetricsRegistry
from repro.serve.host import SessionHost

#: Ship frames split their data at this many characters so a frame
#: never exceeds the wire's MAX_MESSAGE even at four bytes per char.
_CHUNK_CHARS = 200_000


def _crc(data: str) -> int:
    return zlib.crc32(data.encode("utf-8")) & 0xFFFFFFFF


class ReplicaFeed:
    """The primary's end of the journal stream to one standby."""

    def __init__(self, channel, *, mode: str = "sync",
                 metrics: MetricsRegistry | None = None,
                 heartbeat: float = 0.2, timeout: float = 30.0) -> None:
        if mode not in ("sync", "async"):
            raise ValueError(f"replica mode {mode!r} is not sync/async")
        self.mode = mode
        self.heartbeat = heartbeat
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry("replica")
        # the feed's wire client books its lifecycle noise (a torn
        # channel when the primary dies, the close on stop) against
        # the feed's own registry, not whatever context made the feed
        with self.metrics.activate():
            self._client = MuxClient(channel, attach=False, timeout=timeout)
        self._lock = threading.Lock()
        self._shipped_records = 0
        self._acked_records = 0
        self._inflight_frames = 0
        self._stopped = False
        # async mode: ships queue here and drain strictly in order on
        # one thread, so per-session record order is preserved
        self._queue: deque = deque()
        self._qcond = threading.Condition(self._lock)
        self._drainer = None
        if mode == "async":
            self._drainer = threading.Thread(target=self._drain, daemon=True,
                                             name="replica-feed")
            self._drainer.start()
        self._beat = threading.Thread(target=self._heartbeat, daemon=True,
                                      name="replica-heartbeat")
        self._beat.start()

    # -- shipping ---------------------------------------------------------

    def ship(self, sid: str, verb: str, seq: int, data: str = "",
             meta: str = "") -> None:
        """Ship one journal event for session *sid*.

        ``sync``: blocks until the standby acks durability — a raise
        here propagates up through ``Journal.flush`` into the client's
        write, which is exactly the point.  ``async``: enqueues and
        returns; the drain thread pays the debt.
        """
        frames = self._frames(sid, verb, seq, data, meta)
        if self.mode == "sync":
            for frame, records in frames:
                self._send(frame, records, time.perf_counter())
            return
        with self._lock:
            if self._stopped:
                raise Closed("replica feed stopped", path=f"replica/{sid}",
                             op="ship")
            now = time.perf_counter()
            for frame, records in frames:
                self._queue.append((frame, records, now))
                self._shipped_records += records
                self._inflight_frames += 1
                self.metrics.incr("replica.ship.frames")
                self.metrics.incr("replica.ship.records", records)
                self.metrics.incr("replica.ship.bytes", len(frame.data))
                self.metrics.observe("replica.lag_records",
                                     self._shipped_records
                                     - self._acked_records)
            self._qcond.notify()

    def _frames(self, sid: str, verb: str, seq: int, data: str,
                meta: str) -> list[tuple[wire.Tship, int]]:
        """(frame, record-count) pairs; big payloads chunk into a
        ``reset`` head plus ``append`` continuations — the standby
        concatenates, so the final text is identical."""
        out: list[tuple[wire.Tship, int]] = []
        chunks = ([data[i:i + _CHUNK_CHARS]
                   for i in range(0, len(data), _CHUNK_CHARS)] or [""])
        for index, chunk in enumerate(chunks):
            chunk_verb = verb if index == 0 else "append"
            out.append((wire.Tship(sid=sid, verb=chunk_verb, seq=seq,
                                   crc=_crc(chunk), meta=meta, data=chunk),
                        chunk.count("\n")))
        return out

    def _send(self, frame: wire.Tship, records: int, t0: float) -> None:
        with self._lock:
            if self._stopped:
                raise Closed("replica feed stopped",
                             path=f"replica/{frame.sid}", op="ship")
            self._shipped_records += records
            self._inflight_frames += 1
            self.metrics.incr("replica.ship.frames")
            self.metrics.incr("replica.ship.records", records)
            self.metrics.incr("replica.ship.bytes", len(frame.data))
            self.metrics.observe("replica.lag_records",
                                 self._shipped_records - self._acked_records)
        try:
            reply = self._client.rpc(frame)
        except (FsError, OSError) as exc:
            with self._lock:
                self._inflight_frames -= 1
            self.metrics.incr("replica.ship.errors")
            raise IOFault(f"replica ship failed: {exc}",
                          path=f"replica/{frame.sid}", op="ship") from exc
        with self._lock:
            self._inflight_frames -= 1
            self._acked_records += records
        self.metrics.incr("replica.ack.frames")
        self.metrics.incr("replica.ack.records", records)
        self.metrics.observe("replica.lag_us",
                             (time.perf_counter() - t0) * 1e6)
        if reply.ack < frame.seq:
            self.metrics.incr("replica.ack.stale")

    def _drain(self) -> None:  # async mode only
        with self.metrics.activate():
            self._drain_loop()

    def _drain_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopped:
                    self._qcond.wait()
                if not self._queue:
                    return  # stopped and drained
                frame, records, t0 = self._queue.popleft()
            try:
                reply = self._client.rpc(frame)
            except (FsError, OSError):
                with self._lock:
                    self._inflight_frames -= 1
                self.metrics.incr("replica.ship.errors")
                continue
            with self._lock:
                self._inflight_frames -= 1
                self._acked_records += records
            self.metrics.incr("replica.ack.frames")
            self.metrics.incr("replica.ack.records", records)
            self.metrics.observe("replica.lag_us",
                                 (time.perf_counter() - t0) * 1e6)
            if reply.ack < frame.seq:
                self.metrics.incr("replica.ack.stale")

    def _heartbeat(self) -> None:
        with self.metrics.activate():
            while True:
                time.sleep(self.heartbeat)
                with self._lock:
                    if self._stopped:
                        return
                try:
                    self._client.rpc(wire.Tship(verb="ping"))
                    self.metrics.incr("replica.heartbeat.sent")
                except (FsError, OSError):
                    self.metrics.incr("replica.heartbeat.failed")

    # -- introspection ----------------------------------------------------

    def pending(self) -> int:
        """Frames shipped (or queued) but not yet acked."""
        with self._lock:
            return self._inflight_frames + len(self._queue)

    def quiesce(self, timeout: float = 10.0) -> bool:
        """Wait for the async queue to drain; True when it did."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.pending() == 0:
                return True
            time.sleep(0.002)
        return self.pending() == 0

    def status_text(self) -> str:
        with self._lock:
            shipped = self._shipped_records
            acked = self._acked_records
            inflight = self._inflight_frames + len(self._queue)
        return (f"role primary\nmode {self.mode}\n"
                f"shipped {shipped}\nacked {acked}\n"
                f"inflight {inflight}\n")

    # -- lifecycle --------------------------------------------------------

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._qcond.notify_all()
        self._client.close()

    def __enter__(self) -> "ReplicaFeed":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


class _Tracked:
    """The standby's copy of one session: journal text + park state."""

    __slots__ = ("uname", "state", "parts", "seq", "records")

    def __init__(self, uname: str, state: str = "live") -> None:
        self.uname = uname
        self.state = state
        self.parts: list[str] = []
        self.seq = 0
        self.records = 0

    def text(self) -> str:
        if len(self.parts) > 1:
            self.parts = ["".join(self.parts)]
        return self.parts[0] if self.parts else ""


class ReplicaStandby:
    """A warm spare: a SessionHost plus the shipped journal copies."""

    def __init__(self, *, width: int = 100, height: int = 40,
                 extra_tools: bool = False, id_prefix: str = "rs",
                 max_outstanding: int = 64, workers: int = 4,
                 max_live: int | None = None, plan_for=None,
                 heartbeat: float = 0.2) -> None:
        self.host = SessionHost(width=width, height=height, record=True,
                                extra_tools=extra_tools, id_prefix=id_prefix,
                                max_outstanding=max_outstanding,
                                workers=workers, max_live=max_live,
                                plan_for=plan_for)
        self.heartbeat = heartbeat
        self.metrics = self.host.metrics
        self.promoted = False
        self._lock = threading.Lock()
        self._tracked: dict[str, _Tracked] = {}
        self._last_feed = time.monotonic()
        self.host.server.ship_handler = self._on_ship
        self.host.replica_status = self.status_text

    # -- the ship handler (wire worker threads) ---------------------------

    def _on_ship(self, msg: wire.Tship) -> int:
        # wire worker threads carry no metrics context of their own;
        # errors raised here (crc mismatch, unknown verb) must book
        # against the standby, not the process default registry
        with self.metrics.activate():
            return self._apply_ship(msg)

    def _apply_ship(self, msg: wire.Tship) -> int:
        now = time.monotonic()
        if msg.verb == "ping":
            with self._lock:
                self._last_feed = now
            self.metrics.incr("replica.heartbeat.seen")
            return 0
        if _crc(msg.data) != msg.crc:
            self.metrics.incr("replica.recv.crc_failed")
            raise IOFault("replica feed crc mismatch",
                          path=f"replica/{msg.sid}", op="ship")
        records = msg.data.count("\n")
        with self._lock:
            self._last_feed = now
            entry = self._tracked.get(msg.sid)
            if msg.verb == "reset":
                entry = _Tracked(msg.meta or (entry.uname if entry else ""))
                entry.parts.append(msg.data)
                entry.seq = msg.seq
                entry.records = records
                self._tracked[msg.sid] = entry
            elif msg.verb == "append":
                if entry is None:
                    # an append can only follow a reset; a standby that
                    # joined mid-stream asks for nothing — the next
                    # compaction's reset catches it up
                    self.metrics.incr("replica.recv.orphan")
                    return 0
                entry.parts.append(msg.data)
                entry.seq = max(entry.seq, msg.seq)
                entry.records += records
            elif msg.verb == "state":
                if entry is not None:
                    entry.state = msg.meta or entry.state
            elif msg.verb == "drop":
                self._tracked.pop(msg.sid, None)
            else:
                raise IOFault(f"unknown ship verb {msg.verb!r}",
                              path=f"replica/{msg.sid}", op="ship")
            ack = entry.seq if entry is not None else msg.seq
        self.metrics.incr("replica.recv.frames")
        self.metrics.incr("replica.recv.records", records)
        self.metrics.incr("replica.recv.bytes", len(msg.data))
        return ack

    # -- failure detection ------------------------------------------------

    def feed_age(self) -> float:
        """Seconds since the last frame (data or heartbeat) arrived."""
        with self._lock:
            return time.monotonic() - self._last_feed

    def primary_alive(self, miss: int = 3) -> bool:
        """False once *miss* heartbeat intervals pass in silence."""
        return self.feed_age() < miss * self.heartbeat

    # -- promotion --------------------------------------------------------

    def promote(self) -> dict:
        """Adopt every tracked session; the standby becomes primary.

        Each copy enters the host's hibernated table, so a live
        session's owner re-attaches exactly like a hibernation wake —
        ``recover()`` replays the journal tail — and parked snapshots
        are already in the only place they need to be.  Returns the
        promotion report; the host keeps serving as an ordinary
        SessionHost afterwards (the feed handler keeps answering, but
        a dead primary ships nothing).
        """
        with self._lock:
            if self.promoted:
                raise Busy("standby already promoted", path="replica",
                           op="promote")
            self.promoted = True
            entries = list(self._tracked.items())
        start = time.perf_counter()
        live = parked = 0
        problems: list[str] = []
        for sid, entry in entries:
            try:
                self.host.adopt_hibernated(sid, entry.uname, entry.text())
            except FsError as exc:
                problems.append(f"promote {sid}: {exc}")
                continue
            if entry.state == "parked":
                parked += 1
            else:
                live += 1
        elapsed_us = (time.perf_counter() - start) * 1e6
        self.metrics.incr("replica.sessions.promoted", live + parked)
        self.metrics.incr("replica.promoted.live", live)
        self.metrics.incr("replica.promoted.parked", parked)
        self.metrics.observe("replica.promote_us", elapsed_us)
        return {"sessions": live + parked, "live": live, "parked": parked,
                "elapsed_us": elapsed_us, "problems": problems}

    # -- introspection ----------------------------------------------------

    def tracked(self) -> dict[str, tuple[str, int]]:
        """sid -> (state, records shipped) for every tracked session."""
        with self._lock:
            return {sid: (e.state, e.records)
                    for sid, e in self._tracked.items()}

    def journal_text(self, sid: str) -> str | None:
        with self._lock:
            entry = self._tracked.get(sid)
            return entry.text() if entry is not None else None

    def status_text(self) -> str:
        with self._lock:
            sessions = len(self._tracked)
            promoted = int(self.promoted)
            age_ms = (time.monotonic() - self._last_feed) * 1e3
        return (f"role standby\npromoted {promoted}\n"
                f"sessions {sessions}\nfeed_age_ms {age_ms:.0f}\n")

    def close(self) -> None:
        self.host.close()

    def __enter__(self) -> "ReplicaStandby":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ReplicaPair:
    """One primary host, one standby, the feed between them."""

    def __init__(self, primary: SessionHost, *, mode: str = "sync",
                 heartbeat: float = 0.2, standby_prefix: str = "rs.",
                 standby: ReplicaStandby | None = None) -> None:
        self.primary = primary
        self.standby = standby if standby is not None else ReplicaStandby(
            width=primary.width, height=primary.height,
            extra_tools=primary.extra_tools, id_prefix=standby_prefix,
            workers=4, max_live=primary.max_live, plan_for=primary.plan_for,
            heartbeat=heartbeat)
        self.standby.heartbeat = heartbeat
        self.feed = ReplicaFeed(self.standby.host.pipe(), mode=mode,
                                metrics=primary.metrics, heartbeat=heartbeat)
        primary.attach_replica(self.feed)
        self.killed = False
        self.killed_at: float | None = None

    @property
    def promoted(self) -> bool:
        return self.standby.promoted

    def kill_primary(self) -> None:
        """Crash the primary: feed severed, connections dropped, no
        teardown — what SIGKILL leaves behind."""
        if self.killed:
            return
        self.killed = True
        self.killed_at = time.monotonic()
        self.feed.stop()
        self.primary.kill()

    def promote(self) -> tuple[SessionHost, dict]:
        """Promote the standby; returns (new primary host, report)."""
        report = self.standby.promote()
        return self.standby.host, report

    def close(self) -> None:
        # the primary first: each live session's drop ships into a
        # feed that is still running
        self.primary.close()
        self.feed.stop()
        self.standby.close()

    def __enter__(self) -> "ReplicaPair":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
