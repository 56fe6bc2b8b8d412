"""Event-loop edge cases: split frames, dead clients, slow readers.

The reactor rewrite moved every connection onto one selector thread
with incremental zero-copy parsing, inline service and per-connection
write queues; these tests pin the failure modes that design must
absorb — a frame arriving one byte at a time, a client vanishing while
its RPC is still running, and a reader slow enough to fill the write
queue and trip backpressure — and that the reactor is the server's
one thread.
"""

import socket
import threading
import time

import pytest

from repro.fs import wire
from repro.fs.mux import (FrameReader, MuxClient, SocketChannel,
                          WireServer, channel_pair, dial, mount_remote)
from repro.fs.server import SynthDir, SynthFile
from repro.fs.vfs import VFS
from repro.metrics.counter import MetricsRegistry
from repro.serve import ShardRouter
from tests.fs.test_mux import Counted


def make_tree():
    vfs = VFS()
    vfs.write("/notes.txt", "top note\n")
    return vfs


class TestPartialFrames:
    def test_frames_split_across_many_reads(self):
        """One byte per send, three bytes per server read: every frame
        spans many reads and every read holds partial frames."""
        vfs = make_tree()
        server = WireServer(vfs.root, clock=vfs.clock)
        client_end, server_end = channel_pair(max_chunk=3)
        server.serve(server_end)
        try:
            stream = (
                wire.encode(wire.Tattach(tag=0, fid=0))
                + wire.encode(wire.Twalk(tag=1, fid=0, newfid=1,
                                         names=["notes.txt"]))
                + wire.encode(wire.Topen(tag=2, fid=1, mode="r"))
                + wire.encode(wire.Tread(tag=3, fid=1, count=-1))
                + wire.encode(wire.Tclunk(tag=4, fid=1)))
            for i in range(len(stream)):
                client_end.send(stream[i:i + 1])
            reader = FrameReader(client_end)
            replies = [reader.next_frame() for _ in range(5)]
            assert [type(r) for r in replies] == [
                wire.Rattach, wire.Rwalk, wire.Ropen, wire.Rread,
                wire.Rclunk]
            assert replies[3].data == "top note\n"
        finally:
            client_end.close()
            server.close()

    def test_pipelined_burst_in_one_read(self):
        """The inverse split: every frame lands in one buffer full."""
        vfs = make_tree()
        server = WireServer(vfs.root, clock=vfs.clock)
        client_end, server_end = channel_pair()
        server.serve(server_end)
        try:
            client_end.send(
                wire.encode(wire.Tattach(tag=0, fid=0))
                + wire.encode(wire.Twalk(tag=1, fid=0, newfid=1,
                                         names=["notes.txt"]))
                + wire.encode(wire.Topen(tag=2, fid=1, mode="r"))
                + wire.encode(wire.Tread(tag=3, fid=1, count=-1)))
            reader = FrameReader(client_end)
            replies = [reader.next_frame() for _ in range(4)]
            assert replies[3].data == "top note\n"
        finally:
            client_end.close()
            server.close()


class TestDisconnectMidRpc:
    def test_client_disconnect_while_rpc_in_worker(self):
        """The channel dies while the RPC is still running on the
        reactor: the late reply must be swallowed and the connection
        torn down cleanly."""
        started = threading.Event()
        gate = threading.Event()

        def slow_read() -> str:
            started.set()
            gate.wait(5)
            return "late\n"

        root = SynthDir("/", list_fn=lambda: [
            SynthFile("slow", read_fn=slow_read)])
        metrics = MetricsRegistry("t")
        server = WireServer(root, metrics=metrics)
        client_end, server_end = channel_pair()
        handle = server.serve(server_end)
        try:
            client_end.send(wire.encode(wire.Tattach(tag=0, fid=0)))
            reader = FrameReader(client_end)
            assert isinstance(reader.next_frame(), wire.Rattach)
            client_end.send(wire.encode(
                wire.Twalk(tag=1, fid=0, newfid=1, names=["slow"])))
            assert isinstance(reader.next_frame(), wire.Rwalk)
            client_end.send(wire.encode(
                wire.Topen(tag=2, fid=1, mode="r")))
            assert isinstance(reader.next_frame(), wire.Ropen)
            client_end.send(wire.encode(
                wire.Tread(tag=3, fid=1, count=-1)))
            assert started.wait(5)
            client_end.close()     # mid-RPC disconnect
        finally:
            gate.set()
        assert handle.join(timeout=5) is None
        assert not handle.is_alive()
        server.close()

    def test_reply_to_a_hung_up_peer_books_no_error(self):
        """The reactor's send to a peer that already hung up is
        teardown: a plain OSError, never a taxonomy error counted in
        the ledger of whichever registry the reactor thread holds."""
        peer, sock = socket.socketpair()
        send = SocketChannel(sock).try_send
        peer.close()
        metrics = MetricsRegistry("host")
        with metrics.activate(), pytest.raises(OSError):
            for _ in range(64):  # a socket may buffer the first sends
                send(b"late reply" * 1024)
        assert metrics.counters("fs.error.") == {}


class TestConnectionLifetime:
    def test_a_torn_down_connection_leaves_the_server(self):
        """The server holds only live connections: many attach and
        hang-up cycles leave none behind, and close() still tears
        down one that is live."""
        server = WireServer(make_tree().root)
        try:
            for _ in range(20):
                client_end, server_end = channel_pair()
                handle = server.serve(server_end)
                with MuxClient(client_end) as client:
                    node = mount_remote(client).lookup("notes.txt")
                    assert node.data == "top note\n"
                handle.join(timeout=5)
                assert not handle.is_alive()
            assert server._conns == set()
            client_end, server_end = channel_pair()
            live = server.serve(server_end)
            client = MuxClient(client_end)
            assert len(server._conns) == 1
        finally:
            server.close()
        assert not live.is_alive()
        assert server._conns == set()
        client.close()


class TestInlineService:
    def test_serving_three_connections_starts_one_thread(self):
        """Every request runs on the reactor: a server that serves RPCs
        on three connections has started one thread, the reactor.  Raw
        frames, so no client receive thread is counted."""
        before = set(threading.enumerate())
        server = WireServer(make_tree().root)
        try:
            for _ in range(3):
                client_end, server_end = channel_pair()
                server.serve(server_end)
                client_end.send(b"".join(map(wire.encode, [
                    wire.Tattach(tag=0, fid=0),
                    wire.Twalk(tag=1, fid=0, newfid=1, names=["notes.txt"]),
                    wire.Topen(tag=2, fid=1, mode="r"),
                    wire.Tread(tag=3, fid=1, count=-1),
                    wire.Tclunk(tag=4, fid=1)])))
                reader = FrameReader(client_end)
                replies = [reader.next_frame() for _ in range(5)]
                assert replies[3].data == "top note\n"
            started = set(threading.enumerate()) - before
            assert sorted(t.name for t in started) == ["wire-reactor"]
        finally:
            server.close()


class TestSlowReaderBackpressure:
    @pytest.mark.parametrize("transport", ["tcp", "pipe"])
    def test_write_queue_fills_pauses_then_drains(self, transport):
        """A client that stops reading fills the connection's write
        queue past the high-water mark; the reactor stops reading from
        it (recorded as wire.backpressure.paused), then resumes once
        the client drains the queue below low water.  Every reply must
        still arrive, in the order sent.  An in-process channel is a
        socketpair, so it pushes back too."""
        big = "x" * (512 * 1024)
        root = SynthDir("/", list_fn=lambda: [
            SynthFile("big", read_fn=lambda: big)])
        metrics = MetricsRegistry("t")
        server = WireServer(root, metrics=metrics)
        if transport == "tcp":
            channel = dial(*server.listen())
        else:
            channel, server_end = channel_pair()
            server.serve(server_end)
        try:
            channel.send(wire.encode(wire.Tattach(tag=0, fid=0)))
            reader = FrameReader(channel)
            assert isinstance(reader.next_frame(), wire.Rattach)
            channel.send(wire.encode(
                wire.Twalk(tag=1, fid=0, newfid=1, names=["big"])))
            assert isinstance(reader.next_frame(), wire.Rwalk)
            channel.send(wire.encode(wire.Topen(tag=2, fid=1, mode="r")))
            assert isinstance(reader.next_frame(), wire.Ropen)

            # keep feeding half-megabyte reads without reading replies;
            # the pause fires when input arrives onto a full queue, so
            # the sender must stay active until the reactor pushes back
            sent = []

            def feed() -> None:
                for tag in range(100, 300):
                    channel.send(wire.encode(
                        wire.Tread(tag=tag, fid=1, offset=0, count=-1)))
                    sent.append(tag)
                    if metrics.counter("wire.backpressure.paused"):
                        return

            sender = threading.Thread(target=feed, daemon=True)
            sender.start()
            deadline = time.monotonic() + 10
            while (metrics.counter("wire.backpressure.paused") == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert metrics.counter("wire.backpressure.paused") >= 1
            # now drain: every sent read gets its reply.
            # The sender may still be blocked in send() — backpressure
            # reached the kernel buffers — so drain and join together.
            got = []
            sender_done = False
            while not sender_done or len(got) < len(sent):
                if not sender.is_alive():
                    sender_done = True
                    if len(got) >= len(sent):
                        break
                reply = reader.next_frame()
                assert isinstance(reply, wire.Rread)
                assert reply.data == big
                got.append(reply.tag)
            sender.join(timeout=10)
            assert got == sent
            deadline = time.monotonic() + 10
            while (metrics.counter("wire.backpressure.resumed") == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert metrics.counter("wire.backpressure.resumed") >= 1
        finally:
            channel.close()
            server.close()


def _nodelay(sock: socket.socket) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestChainsOverTcp:
    @pytest.mark.parametrize("listener", ["wire", "router"])
    def test_both_ends_turn_off_nagle(self, listener):
        """A chain's replies can leave the server in several small
        writes; with Nagle on, one waits for the delayed ACK of the
        last, so both the dialed and the accepted socket disable it."""
        if listener == "wire":
            target = WireServer(make_tree().root)
            servers = [target]
        else:
            target = ShardRouter(shards=2)
            servers = [host.server for host in target.hosts]
        try:
            channel = dial(*target.listen())
            with MuxClient(channel) as client:
                assert client.root_stat is not None  # attached
                mine = channel._sock.getsockname()
                accepted = [conn.channel._sock for server in servers
                            for conn in server._conns
                            if conn.channel._sock.family == socket.AF_INET
                            and conn.channel._sock.getpeername() == mine]
                assert len(accepted) == 1
                assert _nodelay(channel._sock) == 1
                assert _nodelay(accepted[0]) == 1
        finally:
            target.close()

    def test_a_read_is_one_client_write(self):
        """Over TCP the whole walk/open/read/clunk chain leaves in one
        client write and is served in order."""
        vfs = make_tree()
        with WireServer(vfs.root, clock=vfs.clock) as server:
            channel = Counted(dial(*server.listen()))
            with MuxClient(channel) as client:
                node = mount_remote(client).lookup("notes.txt")
                writes = channel.writes
                for _ in range(5):
                    assert node.data == "top note\n"
                assert channel.writes == writes + 5
