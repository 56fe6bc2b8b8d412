"""Sharded hosting: attach routing, federation, live drain.

The router's one promise is that sharding is invisible: a session
behaves identically whichever shard serves it, ``srv/sessions`` spans
every shard, and a drain — even one racing an in-flight write — moves
the session without losing a record.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.fs import wire
from repro.fs.errors import Busy, Closed, NotFound
from repro.fs.mux import FrameReader, MuxClient, SocketChannel, dial, \
    mount_remote
from repro.fs.namespace import Namespace
from repro.fs.vfs import VFS
from repro.serve import ShardRouter, input_line
from repro.serve.host import HostedSession
from tests.serve.helpers import wait


def _attach(router, aname):
    client = MuxClient(router.pipe(), aname=aname)
    ns = Namespace(VFS())
    ns.mkdir("/s", parents=True)
    ns.mount(mount_remote(client), "/s")
    return client, ns


def _newwin(tag, body):
    return input_line("newwin", ("-", "-", "-", tag, body))


def _names_on_shard(router, index, count):
    """*count* attach names the hash sends to shard *index*."""
    names = [f"u{i}" for i in range(256) if router.shard_for(f"u{i}") == index]
    assert len(names) >= count, "crc32 never filled the shard"
    return names[:count]


def _two_names_on_different_shards(router):
    """Two attach names the hash sends to different shards."""
    first = "u0"
    for i in range(1, 64):
        if router.shard_for(f"u{i}") != router.shard_for(first):
            return first, f"u{i}"
    raise AssertionError("crc32 never split 64 names across shards")


class TestPlacement:
    def test_hash_is_deterministic_and_spreads(self):
        with ShardRouter(shards=4) as router:
            home = router.shard_for("alice")
            assert all(router.shard_for("alice") == home
                       for _ in range(8))
            spread = {router.shard_for(f"user{i}") for i in range(64)}
            assert spread == {0, 1, 2, 3}

    def test_anonymous_attaches_round_robin(self):
        with ShardRouter(shards=3) as router:
            assert [router.shard_for("") for _ in range(6)] == \
                [0, 1, 2, 0, 1, 2]

    def test_draining_shard_is_excluded(self):
        with ShardRouter(shards=3) as router:
            home = router.shard_for("alice")
            router.drain_shard(home)  # empty shard: nothing to migrate
            assert router.shard_for("alice") != home
            assert home not in {router.shard_for("") for _ in range(9)}


@pytest.fixture
def tcp_router():
    router = ShardRouter(shards=2)
    yield router, router.listen()
    router.close()


def _raw(addr):
    """A bare TCP client: the socket, and a reader for its replies."""
    sock = socket.create_connection(addr, timeout=5)
    return sock, FrameReader(SocketChannel(sock))


class TestAttachLoop:
    """The router holds each new connection on its own loop until the
    Tattach decodes, then hands the fd and the bytes it read to a
    shard; a connection that cannot attach is closed and counted."""

    def test_attach_sent_a_byte_at_a_time_is_routed(self, tcp_router):
        router, addr = tcp_router
        sock, reader = _raw(addr)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        frame = wire.encode(wire.Tattach(tag=0, fid=0, aname="alice"))
        for i in range(len(frame)):
            sock.sendall(frame[i:i + 1])
            time.sleep(0.001)
        assert isinstance(reader.next_frame(), wire.Rattach)
        assert router.metrics.counter("router.attach.routed") == 1
        sock.close()

    def test_walk_sent_with_the_attach_is_answered(self, tcp_router):
        router, addr = tcp_router
        sock, reader = _raw(addr)
        sock.sendall(wire.encode(wire.Tattach(tag=0, fid=0, aname="alice"))
                     + wire.encode(wire.Twalk(tag=1, fid=0, newfid=1,
                                              names=["id"])))
        assert isinstance(reader.next_frame(), wire.Rattach)
        walk = reader.next_frame()
        assert isinstance(walk, wire.Rwalk) and walk.found
        sock.close()

    @pytest.mark.parametrize("first", ["eof", "walk"])
    def test_eof_or_a_non_attach_first_frame_is_rejected(self, tcp_router,
                                                          first):
        router, addr = tcp_router
        sock, _reader = _raw(addr)
        if first == "eof":
            sock.shutdown(socket.SHUT_WR)
        else:
            sock.sendall(wire.encode(wire.Twalk(tag=1, fid=0, newfid=1,
                                                names=["id"])))
        assert sock.recv(1) == b""  # the router hung up
        assert router.metrics.counter("router.attach.rejected") == 1
        assert router.audit() == []
        sock.close()

    def test_attach_is_rejected_while_every_shard_drains(self, tcp_router):
        router, addr = tcp_router
        for index in range(len(router.hosts)):
            router.drain_shard(index)
        sock, _reader = _raw(addr)
        sock.sendall(wire.encode(wire.Tattach(tag=0, fid=0, aname="alice")))
        assert sock.recv(1) == b""
        assert router.metrics.counter("router.attach.rejected") == 1
        assert router.audit() == []
        sock.close()

    def test_idle_connections_hold_no_thread_and_end_at_close(self):
        """Connections that never attach cost the router no thread, and
        close() hangs up on every one of them and leaves no thread."""
        before_router = set(threading.enumerate())
        router = ShardRouter(shards=2)
        addr = router.listen()
        before = threading.active_count()
        socks = [socket.create_connection(addr) for _ in range(20)]
        ends = [SocketChannel(sock) for sock in socks]
        ends += [router.pipe() for _ in range(5)]
        time.sleep(0.5)  # time for the router to take every one in
        idle_threads = threading.active_count() - before
        got: list[bytes] = []
        readers = [threading.Thread(target=lambda end=end: got.append(
            end.recv(1)), daemon=True) for end in ends]
        for reader in readers:
            reader.start()
        router.close()
        deadline = time.monotonic() + 1.0
        for reader in readers:
            reader.join(max(0.0, deadline - time.monotonic()))
        eofs = got.count(b"")
        left = set(threading.enumerate()) - before_router - set(readers)
        for end in ends:
            end.close()
        assert idle_threads <= 0
        assert eofs == len(ends)
        assert sorted(t.name for t in left) == []

    def test_closed_router_refuses_connections(self, tcp_router):
        router, addr = tcp_router
        with MuxClient(dial(*addr), aname="alice") as client:
            assert mount_remote(client).lookup("id").data == "alice\n"
        router.close()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(addr, timeout=1).close()


class TestFederation:
    def test_control_file_spans_shards(self):
        router = ShardRouter(shards=2)
        try:
            a_name, b_name = _two_names_on_different_shards(router)
            _a, a_ns = _attach(router, a_name)
            b_client, b_ns = _attach(router, b_name)
            # the listing read through either shard names both sessions
            ids = [line.split("\t")[0]
                   for line in a_ns.read("/s/srv/sessions").splitlines()]
            assert sorted(ids) == sorted([a_name, b_name])
            # stat reaches across shards and names the owner
            session = router.hosts[0].control_file().open("rw")
            session.write(f"stat {b_name}\n")
            stat = session.read()
            session.close()
            assert f"id {b_name}\n" in stat
            assert f"shard {router.shard_for(b_name)}\n" in stat
            # evict reaches across shards too
            a_ns.append("/s/srv/sessions", f"evict {b_name}\n")
            with pytest.raises(Closed):
                b_ns.read("/s/screen")
            with pytest.raises(NotFound):
                a_ns.append("/s/srv/sessions", f"evict {b_name}\n")
        finally:
            router.close()
        assert router.audit() == []

    def test_anonymous_ids_carry_the_shard_prefix(self):
        router = ShardRouter(shards=2)
        try:
            _a, a_ns = _attach(router, "")
            _b, b_ns = _attach(router, "")
            a_id = a_ns.read("/s/id").strip()
            b_id = b_ns.read("/s/id").strip()
            assert a_id != b_id
            assert a_id.startswith("sh") and b_id.startswith("sh")
        finally:
            router.close()


class TestDrain:
    def test_drain_migrates_screen_byte_identically(self):
        router = ShardRouter(shards=2)
        try:
            _client, ns = _attach(router, "mover")
            home = router.shard_for("mover")
            ns.append("/s/input", _newwin("/tmp/note", "carried text\n"))
            before = ns.read("/s/screen")
            assert router.drain_shard(home) == ["mover"]
            with pytest.raises(Closed):
                ns.read("/s/screen")  # the old shard's session is gone
            _client2, ns2 = _attach(router, "mover")
            assert router.shard_for("mover") != home
            assert ns2.read("/s/screen") == before
        finally:
            router.close()
        assert router.audit() == []
        opened, closed = router.session_ledger()
        assert opened == closed
        assert router.metrics.counter("router.sessions.migrated") == 1

    def test_drain_relocates_hibernated_sessions_as_files(self):
        """A drained shard's nominal users move too: the snapshot file
        changes spools without the world ever becoming resident, and
        the next attach wakes it on the new shard byte-identically."""
        router = ShardRouter(shards=2, max_live=4)
        try:
            client, ns = _attach(router, "dormant")
            home = router.shard_for("dormant")
            ns.append("/s/input", _newwin("/tmp/note", "parked text\n"))
            before = ns.read("/s/screen")
            router.hibernate("dormant")
            assert "dormant" in router.hosts[home].hibernated
            assert "state hibernated" in router._stat_text("dormant")

            migrated = router.drain_shard(home)
            assert migrated == ["dormant"]
            target = 1 - home
            assert "dormant" in router.hosts[target].hibernated
            assert not router.hosts[home].hibernated
            assert router.hosts[target].metrics.counter(
                "host.sessions.hib.in") == 1
            assert router.metrics.counter("router.sessions.relocated") == 1

            _client2, ns2 = _attach(router, "dormant")
            assert ns2.read("/s/screen") == before
            assert router.hosts[target].metrics.counter(
                "host.sessions.woken") == 1
            client.close()
        finally:
            router.close()
        assert router.audit() == []

    def test_drain_during_in_flight_write_keeps_the_write(self, monkeypatch):
        """Migration takes the session's oplock, so a write racing the
        drain lands in the journal before the snapshot is taken — the
        migrated session must show its effect."""
        import repro.serve.host as host_mod
        real = host_mod.apply_record
        started = threading.Event()
        release = threading.Event()

        def gated(help_obj, record):
            started.set()
            assert release.wait(5)
            return real(help_obj, record)

        monkeypatch.setattr(host_mod, "apply_record", gated)
        router = ShardRouter(shards=2)
        try:
            _client, ns = _attach(router, "mover")
            home = router.shard_for("mover")
            result = {}

            def write():
                try:
                    ns.append("/s/input",
                              _newwin("/tmp/note", "survived the drain\n"))
                    result["ok"] = True
                except Closed as exc:
                    # the reply can race the post-migration teardown;
                    # the *write itself* already landed
                    result["error"] = exc

            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            assert started.wait(5)
            drained = {}
            drainer = threading.Thread(
                target=lambda: drained.update(ids=router.drain_shard(home)),
                daemon=True)
            drainer.start()
            time.sleep(0.2)
            # the drain is parked on the session's oplock: the in-flight
            # write still owns it
            assert "ids" not in drained
            release.set()
            writer.join(5)
            drainer.join(5)
            assert drained.get("ids") == ["mover"]
            assert result, "writer never finished"
            # reattach on the new shard: the racing write is there
            _client2, ns2 = _attach(router, "mover")
            screen = ns2.read("/s/screen")
            assert "/tmp/note" in screen
            assert "survived the drain" in screen
        finally:
            router.close()
        assert router.audit() == []

    def test_a_drain_drops_every_leaving_session_from_the_standby(self):
        """A drained shard's standby forgets every session that left,
        hibernated ones included, so failing that shard over later
        resurrects no second copy."""
        router = ShardRouter(shards=2, replicate=True, max_live=4)
        try:
            awake, dormant = _names_on_shard(router, 0, 2)
            _a, a_ns = _attach(router, awake)
            _d, d_ns = _attach(router, dormant)
            d_ns.append("/s/input", _newwin("/tmp/note", "dormant text\n"))
            router.hibernate(dormant)
            standby = router.pairs[0].standby
            assert set(standby.tracked()) == {awake, dormant}

            assert sorted(router.drain_shard(0)) == sorted([awake, dormant])
            assert standby.tracked() == {}
            router.kill_shard(0)
            assert wait(lambda: router.hosts[0] is standby.host)
            ids = [line.split("\t")[0]
                   for line in router._list_text().splitlines()]
            assert sorted(ids) == sorted([awake, dormant])
        finally:
            router.close()
        assert router.audit() == []

    @pytest.mark.parametrize("dormant", [False, True],
                             ids=["live", "hibernated"])
    def test_a_drain_with_nowhere_to_go_loses_nothing(self, dormant):
        """With no other shard to take it, a session is left as it
        was: a live one keeps its connection, a hibernated one stays
        on the drained shard's spool, and an attach still reaches it."""
        router = ShardRouter(shards=1, max_live=4)
        try:
            client, ns = _attach(router, "stay")
            ns.append("/s/input", _newwin("/tmp/note", "kept text\n"))
            before = ns.read("/s/screen")
            if dormant:
                router.hibernate("stay")
            with pytest.raises(Busy):
                router.drain_shard(0)
            if dormant:
                assert "stay" in router.hosts[0].hibernated
                client, ns = _attach(router, "stay")
            assert "stay" in router.hosts[0].sessions
            assert ns.read("/s/screen") == before
            client.close()
        finally:
            router.close()
        assert router.audit() == []

    def test_a_session_the_destination_refuses_stays_and_moves_later(self):
        """A destination that already holds the name refuses the move:
        the session stays as it was, and a second drain moves it once
        the name is free."""
        router = ShardRouter(shards=2)
        try:
            (name,) = _names_on_shard(router, 0, 1)
            client, ns = _attach(router, name)
            ns.append("/s/input", _newwin("/tmp/note", "refused text\n"))
            before = ns.read("/s/screen")
            squatter, _ns = _attach(router.hosts[1], name)
            assert router.drain_shard(0) == []
            assert ns.read("/s/screen") == before
            squatter.close()
            assert wait(lambda: name not in router.hosts[1].sessions)
            assert router.drain_shard(0) == [name]
            client.close()
            _client2, ns2 = _attach(router, name)
            assert ns2.read("/s/screen") == before
            assert name in router.hosts[1].sessions
        finally:
            router.close()
        assert router.audit() == []

    @pytest.mark.parametrize("racer", ["own", "other"])
    def test_an_attach_racing_a_drain_finds_the_session(self, monkeypatch,
                                                        racer):
        """An attach naming a session while the drain is under way
        reaches that session, never a fresh world: the client of a
        live one re-attaching the moment its session closes ("own"),
        or the owner of a hibernated one coming back while the drain
        moves another session ("other").  Nothing is lost."""
        router = ShardRouter(shards=2, max_live=4)
        try:
            name, other = _names_on_shard(router, 0, 2)
            _client, ns = _attach(router, name)
            ns.append("/s/input", _newwin("/tmp/note", "raced text\n"))
            before = ns.read("/s/screen")
            if racer == "other":
                router.hibernate(name)
                _keep = _attach(router, other)
            trigger = name if racer == "own" else other
            raced = {}
            real_close = HostedSession.close

            def close(session):
                closed = real_close(session)
                if session.id == trigger and not raced:
                    raced["client"], raced_ns = _attach(router, name)
                    raced["screen"] = raced_ns.read("/s/screen")
                return closed

            monkeypatch.setattr(HostedSession, "close", close)
            assert name in router.drain_shard(0)
            assert raced["screen"] == before
            assert router.audit() == []
            holders = [i for i, host in enumerate(router.hosts)
                       if host._knows(name)]
            assert holders == [1]
        finally:
            router.close()
        assert router.audit() == []

    @pytest.mark.parametrize("dormant", [False, True],
                             ids=["live", "hibernated"])
    def test_a_second_drain_never_routes_back_into_a_draining_shard(
            self, dormant):
        """A session placed by one drain moves again when its new shard
        drains: it wakes on the shard that is not draining, with its
        screen unchanged."""
        router = ShardRouter(shards=3, max_live=4)
        try:
            client, ns = _attach(router, "x")
            home = router.shard_for("x")
            ns.append("/s/input", _newwin("/tmp/note", "moved twice\n"))
            before = ns.read("/s/screen")
            assert router.drain_shard(home) == ["x"]
            placed = router.shard_for("x")
            client, ns = _attach(router, "x")
            assert ns.read("/s/screen") == before
            if dormant:
                router.hibernate("x")
            assert router.drain_shard(placed) == ["x"]
            (rest,) = {0, 1, 2} - {home, placed}
            assert router.shard_for("x") == rest
            _client3, ns3 = _attach(router, "x")
            assert ns3.read("/s/screen") == before
            assert "x" in router.hosts[rest].sessions
            client.close()
        finally:
            router.close()
        assert router.audit() == []
