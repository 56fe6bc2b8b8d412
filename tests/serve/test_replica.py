"""Journal-shipping replication: feed, standby, promotion, failover.

The load-bearing scenario is the ISSUE's: a primary host ships every
durable journal event to a standby in ``sync`` mode, the primary is
killed with no teardown whatsoever, the standby notices the feed
silence, is promoted, and the session's owner re-attaches to find the
screen byte-identical and every acknowledged write held — the
``inputs`` file is the proof.  The router tests cover the monitor
thread's end of it: detection, slot repointing, and the audit that
folds the standby's books in.
"""

from __future__ import annotations

import time

import pytest

from repro.fs import wire
from repro.fs.errors import Busy, FsError, IOFault
from repro.fs.mux import MuxClient, mount_remote
from repro.fs.namespace import Namespace
from repro.fs.vfs import VFS
from repro.serve import SessionHost, ShardRouter, input_line
from repro.serve.replica import ReplicaFeed, ReplicaPair, ReplicaStandby

HEARTBEAT = 0.05


def _attach(host, aname):
    client = MuxClient(host.pipe(), aname=aname)
    ns = Namespace(VFS())
    ns.mkdir("/s", parents=True)
    ns.mount(mount_remote(client), "/s")
    return client, ns


def _newwin(tag, body):
    return input_line("newwin", ("-", "-", "-", tag, body))


def _wait(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def pair():
    primary = SessionHost(width=100, height=40)
    p = ReplicaPair(primary, mode="sync", heartbeat=HEARTBEAT,
                    standby_prefix="t.")
    yield p
    p.close()


class TestSyncShipping:
    def test_write_is_on_standby_before_ack(self, pair):
        client, ns = _attach(pair.primary, "alice")
        ns.append("/s/input", _newwin("/tmp/note", "hello"))
        # sync mode: by the time the append returned, the standby
        # durably held the record — no quiesce needed
        state, records = pair.standby.tracked()["alice"]
        assert state == "live"
        assert records > 0
        m = pair.primary.metrics
        assert m.counter("replica.ship.frames") \
            == m.counter("replica.ack.frames") > 0
        assert (m.histogram("replica.lag_us") or {}).get("count")
        client.close()

    def test_standby_copy_tracks_the_journal(self, pair):
        client, ns = _attach(pair.primary, "alice")
        ns.append("/s/input", _newwin("/tmp/note", "hello"))
        pair.feed.quiesce()
        sink = pair.primary.sessions["alice"].journal.sink
        assert pair.standby.journal_text("alice") == sink.ns.read(sink.path)
        client.close()

    def test_session_close_drops_the_copy(self, pair):
        client, ns = _attach(pair.primary, "alice")
        ns.append("/s/input", _newwin("/tmp/note", "hello"))
        client.close()
        assert _wait(lambda: "alice" not in pair.standby.tracked())

    def test_primary_audit_balances(self, pair):
        client, ns = _attach(pair.primary, "alice")
        ns.append("/s/input", _newwin("/tmp/note", "hello"))
        assert pair.primary.audit() == []
        client.close()

    def test_srv_replica_shows_the_feed(self, pair):
        client, ns = _attach(pair.primary, "alice")
        text = ns.read("/s/srv/replica")
        assert "role primary" in text and "mode sync" in text
        client.close()


class TestAsyncShipping:
    def test_queue_drains_in_order(self):
        primary = SessionHost(width=100, height=40)
        with ReplicaPair(primary, mode="async", heartbeat=HEARTBEAT,
                         standby_prefix="t.") as p:
            client, ns = _attach(primary, "alice")
            for i in range(3):
                ns.append("/s/input", _newwin(f"/tmp/n{i}", "x"))
            assert p.feed.quiesce()
            sink = primary.sessions["alice"].journal.sink
            assert p.standby.journal_text("alice") \
                == sink.ns.read(sink.path)
            m = primary.metrics
            assert m.counter("replica.ship.frames") \
                == m.counter("replica.ack.frames")
            client.close()


class TestStandbyHandler:
    def test_crc_mismatch_is_rejected_loudly(self):
        standby = ReplicaStandby(width=100, height=40, heartbeat=HEARTBEAT)
        try:
            with pytest.raises(IOFault):
                standby._on_ship(wire.Tship(sid="x", verb="reset", seq=1,
                                            crc=0xDEAD, data="abc"))
            assert standby.metrics.counter("replica.recv.crc_failed") == 1
            assert "x" not in standby.tracked()
        finally:
            standby.close()

    def test_orphan_append_waits_for_a_reset(self):
        standby = ReplicaStandby(width=100, height=40, heartbeat=HEARTBEAT)
        try:
            import zlib
            data = "1 x y\n"
            crc = zlib.crc32(data.encode()) & 0xFFFFFFFF
            standby._on_ship(wire.Tship(sid="x", verb="append", seq=1,
                                        crc=crc, data=data))
            assert standby.metrics.counter("replica.recv.orphan") == 1
            assert "x" not in standby.tracked()
        finally:
            standby.close()

    def test_heartbeats_keep_the_primary_alive(self, pair):
        assert _wait(lambda: pair.primary.metrics.counter(
            "replica.heartbeat.sent") >= 2)
        assert pair.standby.primary_alive(miss=3)


class TestFailover:
    def test_kill_detect_promote_screen_identical(self, pair):
        client, ns = _attach(pair.primary, "alice")
        ns.append("/s/input", _newwin("/tmp/note", "the note body"))
        before = ns.read("/s/screen")
        inputs_acked = int(ns.read("/s/inputs"))
        assert inputs_acked > 0

        pair.kill_primary()
        assert _wait(lambda: not pair.standby.primary_alive(miss=3),
                     timeout=5.0)
        report = pair.promote()[1]
        assert report["sessions"] == 1 and report["live"] == 1
        assert report["problems"] == []

        client2, ns2 = _attach(pair.standby.host, "alice")
        assert int(ns2.read("/s/inputs")) >= inputs_acked
        assert ns2.read("/s/screen") == before
        assert pair.standby.host.audit() == []
        client2.close()

    def test_parked_sessions_promote_parked(self, pair):
        client, ns = _attach(pair.primary, "alice")
        ns.append("/s/input", _newwin("/tmp/note", "hello"))
        pair.primary.hibernate("alice")
        try:
            client.close()
        except (FsError, OSError):
            pass  # the hibernate tore the connection down first
        pair.feed.quiesce()
        assert pair.standby.tracked()["alice"][0] == "parked"

        pair.kill_primary()
        report = pair.promote()[1]
        assert report["parked"] == 1 and report["live"] == 0
        client2, ns2 = _attach(pair.standby.host, "alice")
        assert "the note body" not in ns2.read("/s/screen")  # fresh wake
        assert "note" in ns2.read("/s/screen")
        client2.close()

    def test_double_promote_is_busy(self, pair):
        pair.kill_primary()
        pair.promote()
        with pytest.raises(Busy):
            pair.standby.promote()

    def test_write_racing_the_kill_is_never_acked_unshipped(
            self, pair, monkeypatch):
        """One write lands inside ``kill()``, just before the
        connections are cut: it either ships to the standby before its
        ack or fails — an acknowledged write the promoted standby lacks
        is the one outcome sync replication forbids."""
        client, ns = _attach(pair.primary, "alice")
        ns.append("/s/input", _newwin("/tmp/note", "hello"))
        acked = int(ns.read("/s/inputs"))
        cut = pair.primary.server.kill

        def write_then_cut():
            nonlocal acked
            try:
                ns.append("/s/input", _newwin("/tmp/late", "racing"))
                acked += 1
            except (FsError, OSError):
                pass  # refused: never acknowledged
            cut()

        monkeypatch.setattr(pair.primary.server, "kill", write_then_cut)
        pair.kill_primary()
        pair.promote()
        client2, ns2 = _attach(pair.standby.host, "alice")
        assert int(ns2.read("/s/inputs")) >= acked
        client2.close()
        client.close()

    def test_killed_primary_rejects_traffic(self, pair):
        client, ns = _attach(pair.primary, "alice")
        pair.kill_primary()
        with pytest.raises((FsError, OSError)):
            ns.append("/s/input", _newwin("/tmp/x", "y"))
            ns.read("/s/screen")
        client.close()


class TestRouterFailover:
    def test_monitor_detects_and_repoints(self):
        router = ShardRouter(shards=2, replicate=True,
                             heartbeat_interval=HEARTBEAT)
        try:
            client, ns = _attach(router, "alice")
            ns.append("/s/input", _newwin("/tmp/note", "body text"))
            before = ns.read("/s/screen")
            index = next(i for i, h in enumerate(router.hosts)
                         if "alice" in h.sessions)

            router.kill_shard(index)
            # the monitor thread notices the silence and promotes
            assert _wait(lambda: router.metrics.counter(
                "router.shards.promoted") == 1, timeout=10.0)
            assert router.hosts[index] is router.pairs[index].standby.host

            client2, ns2 = _attach(router, "alice")
            assert ns2.read("/s/screen") == before
            assert (router.metrics.histogram("router.failover_us")
                    or {}).get("count") == 1
            assert router.audit() == []
            client2.close()
        finally:
            router.close()

    def test_close_under_live_connections_audits_clean(self):
        """Each live session's drop ships before its feed stops, so
        closing a replicated router books no session error anywhere."""
        router = ShardRouter(shards=2, replicate=True,
                             heartbeat_interval=HEARTBEAT)
        clients = []
        try:
            for name in ("alice", "bob", "carol", "dave"):
                client, ns = _attach(router, name)
                ns.append("/s/input", _newwin("/tmp/note", name))
                clients.append(client)
        finally:
            router.close()
        assert router.audit() == []
        for client in clients:
            client.close()

    def test_replicate_requires_journalling(self):
        with pytest.raises(ValueError):
            ShardRouter(shards=2, replicate=True, record=False)

    def test_kill_shard_without_replica_is_invalid(self):
        from repro.fs.errors import Invalid
        router = ShardRouter(shards=2)
        try:
            with pytest.raises(Invalid):
                router.kill_shard(0)
        finally:
            router.close()
