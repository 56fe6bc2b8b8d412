"""Sharded session hosting: N SessionHosts behind one attach router.

One :class:`~repro.serve.SessionHost` scales to one reactor's worth of
traffic; :class:`ShardRouter` multiplies that by running N independent
hosts (shards), each with its own :class:`~repro.fs.mux.WireServer`
reactor and session registry.  The router owns nothing but the attach
decision:

* every connection starts with a Tattach (the protocol requires it).
  The router's own reactor — one selector thread, no thread per
  connection — holds each new connection, TCP or :meth:`pipe`, and
  buffers its bytes until that first frame decodes; it then hashes
  the attach name onto an active shard, unregisters the fd, and hands
  the channel — buffered bytes included — to that shard's server via
  ``serve(channel, initial=...)``.  After the handoff the router is
  out of the data path entirely: no per-RPC hop, no shared lock.
* ``srv/sessions`` stays host-level: the router installs itself as
  every shard's ``directory``, so the control file lists, stats and
  evicts across all shards no matter which shard serves the read.
* :meth:`drain_shard` retires a shard gracefully: one at a time, each
  session — live or hibernated — moves to another shard's
  ``hibernated`` table as a snapshot
  (:meth:`~repro.serve.SessionHost.move`; a live one compacts under
  its oplock, so in-flight RPCs finish first), and a placement
  override routes the session's next attach to its new home, where it
  wakes.  Until its move, a session is still reached on the draining
  shard.  ``hibernate <id>`` on ``srv/sessions`` reaches across shards
  the same way ``evict`` does.

Sessions are placed by ``crc32(aname)`` over the non-draining shards;
anonymous attaches round-robin.  Shard ids never collide because each
shard mints anonymous ids under its own prefix (``sh<i>.<n>``).

**Replication** (``replicate=True``) pairs every shard with a standby
(:class:`~repro.serve.replica.ReplicaPair`): the primary ships each
session's journal over the wire as it becomes durable, and acks a
write only once the standby holds it.  When a primary's feed hangs
up, the router **promotes** through the standby's ``on_lost`` hook,
on the standby's reactor thread — the standby
replays every shipped journal through the PR 4 recovery path, adopts
the sessions (live ones re-attach exactly like a hibernation wake;
parked snapshots are already spooled), and the hash slot repoints to
the promoted host.  ``kill_shard`` is the chaos hook: it crashes a
primary the way SIGKILL would (connections severed, nothing torn
down) and lets detection and promotion run for real.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
import zlib

from repro.fs import wire
from repro.fs.errors import Busy, Closed, Invalid, NotFound
from repro.fs.mux import SocketChannel, _Reactor, channel_pair
from repro.metrics.counter import MetricsRegistry, current_registry
from repro.serve.host import SessionHost
from repro.serve.replica import ReplicaPair

_PEEK_SIZE = 1 << 16


class ShardRouter:
    """N SessionHost shards, routed by attach name, drained live."""

    def __init__(self, shards: int = 4, *, width: int = 100,
                 height: int = 40, max_live: int | None = None,
                 plan_for=None, replicate: bool = False) -> None:
        if shards < 1:
            raise ValueError("a router needs at least one shard")
        self.metrics = MetricsRegistry("router")
        # max_live is a per-shard budget: N shards under one router
        # hold at most shards * max_live resident worlds; plan_for is
        # shared — a fault schedule keys on session id, not placement
        self.hosts = [SessionHost(width=width, height=height,
                                  id_prefix=f"sh{i}.", max_live=max_live,
                                  plan_for=plan_for)
                      for i in range(shards)]
        for host in self.hosts:
            host.directory = self
        self._lock = threading.Lock()
        self._placement: dict[str, int] = {}
        self._draining: set[int] = set()
        self._rr = 0
        self._sockets: list[socket.socket] = []
        self._closed = False
        # connections whose Tattach has not decoded yet (router loop only)
        self._waiting: set[SocketChannel] = set()
        # replication: one standby per shard, fed before first attach
        self.replicate = replicate
        self.pairs: list[ReplicaPair | None] = [None] * shards
        # killed primaries, kept so close() can tear their threads down
        self.dead: list[SessionHost] = []
        if replicate:
            for i, host in enumerate(self.hosts):
                pair = ReplicaPair(host, standby_prefix=f"sh{i}r.")
                pair.standby.on_lost = lambda i=i: self._fail_over(i)
                self.pairs[i] = pair
        # the router loop: its listeners and every unattached connection
        self._reactor = _Reactor(name="shard-router")

    # -- placement --------------------------------------------------------

    def shard_for(self, aname: str) -> int:
        """The shard that owns *aname*'s session (or will)."""
        with self._lock:
            if aname:
                # until a drain moves it, a session is reached where it is
                for i in self._draining:
                    if self.hosts[i]._knows(aname):
                        return i
            placed = self._placement.get(aname) if aname else None
            if placed is not None and placed not in self._draining:
                return placed
            return self._spread(aname)

    def _spread(self, aname: str) -> int:  # under self._lock
        """Hash *aname* over the active shards; anonymous round-robins."""
        active = [i for i in range(len(self.hosts))
                  if i not in self._draining]
        if not active:
            raise Busy("all shards draining", path="router", op="attach")
        if not aname:
            self._rr += 1
            return active[(self._rr - 1) % len(active)]
        return active[zlib.crc32(aname.encode("utf-8")) % len(active)]

    # -- accepting connections --------------------------------------------

    def pipe(self, max_chunk: int | None = None):
        """An in-process attach: the client end of a routed socketpair."""
        if self._closed:
            raise Closed("router is closed", path="router", op="pipe")
        client_end, server_end = channel_pair(max_chunk)
        self._reactor.submit(lambda: self._await_attach(server_end))
        return client_end

    def listen(self, host: str = "127.0.0.1",
               port: int = 0) -> tuple[str, int]:
        """Accept TCP attaches; returns the bound (host, port)."""
        if self._closed:
            raise Closed("router is closed", path="router", op="listen")
        sock = self._reactor.listen(host, port, self._await_attach)
        self._sockets.append(sock)
        return sock.getsockname()[:2]

    def _await_attach(self, channel: SocketChannel) -> None:  # router loop
        if self._closed:
            channel.close()
            return
        buf = bytearray()
        self._waiting.add(channel)
        channel.setblocking(False)
        self._reactor.register(channel, selectors.EVENT_READ,
                               lambda mask: self._peek(channel, buf))

    def _peek(self, channel: SocketChannel,
              buf: bytearray) -> None:  # router loop
        """Buffer until the Tattach decodes, then hand the channel over."""
        chunk = channel.try_recv(_PEEK_SIZE)
        if chunk is None:
            return
        buf += chunk
        try:
            msg, _end = wire.decode(buf)
            if msg is None:
                if chunk:
                    return  # the attach frame is still arriving
                raise Closed("eof before attach", path="router",
                             op="attach")
            if not isinstance(msg, wire.Tattach):
                raise Invalid("first frame is not Tattach", path="router",
                              op="attach")
            index = self.shard_for(msg.aname)
        except (Busy, Closed, Invalid):
            self._unwait(channel)
            self.metrics.incr("router.attach.rejected")
            channel.close()
            return
        self._unwait(channel)
        self.metrics.incr("router.attach.routed")
        self.metrics.incr(f"router.attach.shard{index}")
        try:
            self.hosts[index].server.serve(channel, initial=bytes(buf))
        except Closed:
            channel.close()

    def _unwait(self, channel: SocketChannel) -> None:  # router loop
        self._waiting.discard(channel)
        self._reactor.unregister(channel)

    # -- replication: failure detection and promotion ----------------------

    def _fail_over(self, index: int) -> None:  # standby reactor
        """Shard *index*'s feed hung up: its primary is gone."""
        try:
            self.promote_shard(index)
        except (Busy, Closed):
            pass  # raced an explicit promote or a close

    def kill_shard(self, index: int) -> None:
        """Crash shard *index*'s primary (the SIGKILL stand-in).

        Connections sever mid-RPC, nothing is flushed or torn down,
        and the standby's feed hangs up — detection and promotion
        then run exactly as they would for a real dead process.
        """
        pair = self.pairs[index]
        if pair is None:
            raise Invalid(f"shard {index} has no standby",
                          path=f"shard/{index}", op="kill")
        self.metrics.incr("router.shards.killed")
        pair.kill_primary()

    def promote_shard(self, index: int) -> dict | None:
        """Fail shard *index* over to its standby, repointing the slot.

        The standby replays every shipped journal through recovery and
        adopts the sessions; the promoted host takes the dead
        primary's place in ``hosts`` — the placement hash lands on it
        from now on, so clients re-attach by the same name and find
        their session parked (hibernated wake) or freshly recovered.
        Returns the promotion report, or None if already promoted.
        """
        pair = self.pairs[index]
        if pair is None:
            raise Invalid(f"shard {index} has no standby",
                          path=f"shard/{index}", op="promote")
        if self._closed:
            raise Closed("router is closed", path="router", op="promote")
        with self._lock:
            if pair.promoted:
                return None
            old = self.hosts[index]
        start = time.perf_counter()
        promoted_host, report = pair.promote()
        promoted_host.directory = self
        with self._lock:
            self.hosts[index] = promoted_host
            if old is not promoted_host:
                self.dead.append(old)
        self.metrics.incr("router.shards.promoted")
        self.metrics.observe("router.promote_us",
                             (time.perf_counter() - start) * 1e6)
        if pair.killed_at is not None:
            # detection plus promotion: the availability gap a client
            # actually saw, measured from the kill
            self.metrics.observe(
                "router.failover_us",
                (time.monotonic() - pair.killed_at) * 1e6)
        self.metrics.incr("router.promote.problems",
                          len(report.get("problems", [])))
        return report

    # -- drain -------------------------------------------------------------

    def drain_shard(self, index: int) -> list[str]:
        """Retire shard *index*: move every session elsewhere.

        One session at a time: the destination shard is picked first,
        so with nowhere to go nothing leaves, and a placement override
        points the session's attaches there; then the session moves
        as a snapshot (:meth:`~repro.serve.SessionHost.move` — a live
        one compacts under its oplock, so an in-flight RPC completes
        first) and wakes on its next attach.  Until its move, a
        session is still reached on this shard; no other attach
        routes here again.  Returns the moved session ids; a session
        the destination refuses stays, and a second call moves what
        the first left.
        """
        with self._lock:
            self._draining.add(index)
        source = self.hosts[index]
        with source._lock:
            live = [sid for sid, s in source.sessions.items()
                    if s is not None]
            parked = list(source.hibernated)
        migrated = [sid for sid in live if self._move(source, sid)]
        self.metrics.incr("router.sessions.migrated", len(migrated))
        relocated = [sid for sid in parked if self._move(source, sid)]
        self.metrics.incr("router.sessions.relocated", len(relocated))
        return migrated + relocated

    def _move(self, source: SessionHost, session_id: str) -> bool:
        with self._lock:
            # the destination first: with nowhere to go, nothing leaves
            target = self._spread(session_id)
            self._placement[session_id] = target
        try:
            return source.move(session_id, self.hosts[target])
        except (Busy, NotFound, OSError):
            return False  # refused, raced or unreadable: it stays here

    # -- the federated srv/sessions directory ------------------------------

    def _knows(self, session_id: str) -> bool:
        return any(host._knows(session_id) for host in self.hosts)

    def _list_text(self) -> str:
        lines: list[str] = []
        for host in self.hosts:
            lines += host._list_text().splitlines(keepends=True)
        return "".join(sorted(lines))

    def _stat_text(self, session_id: str) -> str:
        for i, host in enumerate(self.hosts):
            if host._knows(session_id):
                return host._stat_text(session_id) + f"shard {i}\n"
        return f"id {session_id}\nstate gone\n"

    def evict(self, session_id: str) -> None:
        for host in self.hosts:
            if host._knows(session_id):
                host.evict(session_id)
                return
        raise NotFound(path=f"session/{session_id}", op="evict")

    def hibernate(self, session_id: str) -> None:
        for host in self.hosts:
            if host._knows(session_id):
                host.hibernate(session_id)
                return
        raise NotFound(path=f"session/{session_id}", op="hibernate")

    # -- the ledger -------------------------------------------------------

    def session_ledger(self) -> tuple[int, int]:
        opened = closed = 0
        for host in self.hosts:
            shard_opened, shard_closed = host.session_ledger()
            opened += shard_opened
            closed += shard_closed
        return opened, closed

    def audit(self) -> list[str]:
        """Every shard's audit, plus: no session id live on two shards."""
        problems: list[str] = []
        owner: dict[str, int] = {}
        dups = 0
        for i, host in enumerate(self.hosts):
            if host._killed:
                # a crashed primary's books are rightly unbalanced;
                # the promoted standby answers for its sessions
                continue
            problems += [f"shard{i}: {p}" for p in host.audit()]
            with host._lock:
                ids = [sid for sid, s in host.sessions.items()
                       if s is not None]
            for sid in ids:
                if sid in owner:
                    problems.append(f"session {sid!r} live on shard "
                                    f"{owner[sid]} and shard {i}")
                    dups += 1
                owner[sid] = i
        for i, pair in enumerate(self.pairs):
            if pair is not None and not pair.promoted:
                problems += [f"standby{i}: {p}"
                             for p in pair.standby.host.audit()]
        # an explicit zero is the audit's verdict — benchgate gates on
        # the counter's presence, not just its value
        self.metrics.incr("router.sessions.dup", dups)
        return problems

    def drain(self, into: MetricsRegistry | None = None) -> MetricsRegistry:
        """Fold the router ledger and every shard's ledgers into *into*."""
        target = into if into is not None else current_registry()
        target.merge(self.metrics)
        for host in self.hosts:
            host.drain(target)
        for pair in self.pairs:
            if pair is not None and not pair.promoted:
                pair.standby.host.drain(target)
        return target

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True

        def shutdown() -> None:  # router loop
            for sock in self._sockets:
                self._reactor.unlisten(sock)
            for channel in list(self._waiting):
                self._unwait(channel)
                channel.close()

        self._reactor.submit(shutdown)
        self._reactor.stop()
        for pair in self.pairs:
            if pair is not None:
                pair.close()
        for host in self.hosts:
            host.close()
        for host in self.dead:
            host.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
