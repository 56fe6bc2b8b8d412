"""The multiplexed transport: sessions, concurrency, backpressure, faults."""

import sys
import threading
import time

import pytest

from repro.fs import wire
from repro.fs.errors import (
    Closed,
    FsError,
    Invalid,
    IOFault,
    IsADirectory,
    NotADirectory,
    NotFound,
    Permission,
)
from repro.fs.faults import Fault, FaultPlan, wrap
from repro.fs.mux import (
    FrameReader,
    MuxClient,
    RemoteFile,
    WireServer,
    channel_pair,
    dial,
    mount_remote,
)
from repro.fs.namespace import Namespace
from repro.fs.server import SynthDir, SynthFile
from repro.fs.vfs import VFS
from repro.metrics.counter import MetricsRegistry, counter, counters


def make_tree():
    vfs = VFS()
    vfs.mkdir("/docs", parents=True)
    vfs.write("/docs/a.txt", "alpha\n")
    vfs.write("/docs/b.txt", "bravo\n")
    vfs.write("/notes.txt", "top note\n")
    return vfs


@pytest.fixture
def pipe_world():
    vfs = make_tree()
    server = WireServer(vfs.root, clock=vfs.clock)
    client_end, server_end = channel_pair()
    server.serve(server_end)
    client = MuxClient(client_end)
    yield vfs, server, client
    client.close()
    server.close()


class TestBasicService:
    def test_read_through_remote_mount(self, pipe_world):
        vfs, server, client = pipe_world
        ns = Namespace(VFS())
        ns.mkdir("/mnt/far", parents=True)
        ns.mount(mount_remote(client), "/mnt/far")
        assert ns.read("/mnt/far/docs/a.txt") == "alpha\n"
        assert ns.listdir("/mnt/far") == ["docs", "notes.txt"]
        assert ns.listdir("/mnt/far/docs") == ["a.txt", "b.txt"]

    def test_write_reaches_the_served_tree(self, pipe_world):
        vfs, server, client = pipe_world
        ns = Namespace(VFS())
        ns.mkdir("/mnt/far", parents=True)
        ns.mount(mount_remote(client), "/mnt/far")
        ns.write("/mnt/far/notes.txt", "rewritten\n")
        assert vfs.read("/notes.txt") == "rewritten\n"
        ns.append("/mnt/far/notes.txt", "more\n")
        assert vfs.read("/notes.txt") == "rewritten\nmore\n"

    def test_glob_and_exists_through_the_wire(self, pipe_world):
        _, _, client = pipe_world
        ns = Namespace(VFS())
        ns.mkdir("/mnt/far", parents=True)
        ns.mount(mount_remote(client), "/mnt/far")
        assert ns.glob("/mnt/far/docs/*.txt") == [
            "/mnt/far/docs/a.txt", "/mnt/far/docs/b.txt"]
        assert ns.exists("/mnt/far/docs/a.txt")
        assert not ns.exists("/mnt/far/docs/zzz.txt")

    def test_clean_miss_is_not_an_error(self, pipe_world):
        """Probing a missing path mirrors local resolve(): no taxonomy
        error is constructed on either side of the wire."""
        _, _, client = pipe_world
        root = mount_remote(client)
        before = dict(counters("fs.error"))
        assert root.lookup("absent") is None
        assert dict(counters("fs.error")) == before

    def test_missing_file_open_raises_notfound(self, pipe_world):
        _, _, client = pipe_world
        ns = Namespace(VFS())
        ns.mkdir("/mnt/far", parents=True)
        ns.mount(mount_remote(client), "/mnt/far")
        with pytest.raises(NotFound):
            ns.read("/mnt/far/docs/zzz.txt")

    def test_sequential_reads_and_seek(self, pipe_world):
        _, _, client = pipe_world
        root = mount_remote(client)
        f = root.lookup("notes.txt")
        with f.open("r") as session:
            assert session.read(3) == "top"
            assert session.read(1) == " "
            session.seek(0)
            assert session.read() == "top note\n"

    def test_mtime_travels_with_stat(self, pipe_world):
        vfs, _, client = pipe_world
        root = mount_remote(client)
        node = root.lookup("notes.txt")
        assert node.mtime == vfs.walk("/notes.txt").mtime

    def test_remote_dir_refuses_local_mutation(self, pipe_world):
        _, _, client = pipe_world
        root = mount_remote(client)
        from repro.fs.vfs import File
        with pytest.raises(Invalid):
            root.attach(File("x"))
        with pytest.raises(Invalid):
            root.detach("notes.txt")

    def test_open_directory_is_error(self, pipe_world):
        _, _, client = pipe_world
        fid = client.walk_fid("/docs")
        with pytest.raises(IsADirectory):
            client.rpc(wire.Topen(fid=fid, mode="r"))
        client.clunk(fid)

    def test_error_classes_cross_the_wire_intact(self, pipe_world):
        """A Permission raised server-side arrives as Permission, with
        path and op preserved for the diagnostic."""
        vfs, server, client = pipe_world
        guarded = SynthFile("sealed", read_fn=lambda: "secret\n")
        vfs.root.attach(guarded)
        root = mount_remote(client)
        node = root.lookup("sealed")
        with pytest.raises(Permission) as exc_info:
            node.open("w")
        assert exc_info.value.kind == "perm"
        assert exc_info.value.op == "open"


class TestSocketTransport:
    def test_full_service_over_tcp(self):
        vfs = make_tree()
        with WireServer(vfs.root, clock=vfs.clock) as server:
            host, port = server.listen()
            with MuxClient(dial(host, port)) as client:
                ns = Namespace(VFS())
                ns.mkdir("/mnt/far", parents=True)
                ns.mount(mount_remote(client), "/mnt/far")
                assert ns.read("/mnt/far/docs/b.txt") == "bravo\n"
                ns.write("/mnt/far/docs/b.txt", "changed\n")
                assert vfs.read("/docs/b.txt") == "changed\n"

    def test_many_clients_one_listener(self):
        vfs = make_tree()
        with WireServer(vfs.root) as server:
            host, port = server.listen()
            clients = [MuxClient(dial(host, port)) for _ in range(4)]
            try:
                for i, client in enumerate(clients):
                    root = mount_remote(client)
                    assert root.lookup("docs") is not None
                    with root.lookup("notes.txt").open("r") as s:
                        assert s.read() == "top note\n"
            finally:
                for client in clients:
                    client.close()


class TestShortReads:
    @pytest.mark.parametrize("chunk", [1, 3, 13])
    def test_frames_reassemble_from_tiny_chunks(self, chunk):
        """Every byte boundary is a valid split point for the framing."""
        vfs = make_tree()
        server = WireServer(vfs.root)
        client_end, server_end = channel_pair(max_chunk=chunk)
        server.serve(server_end)
        client = MuxClient(client_end)
        try:
            root = mount_remote(client)
            assert root.lookup("docs").lookup("a.txt") is not None
            with root.lookup("docs").lookup("a.txt").open("r") as s:
                assert s.read() == "alpha\n"
        finally:
            client.close()
            server.close()

    def test_frame_reader_survives_split_frames(self):
        a, b = channel_pair(max_chunk=2)
        frame = wire.encode(wire.Rread(tag=9, data="hello world"))
        threading.Thread(target=lambda: a.send(frame), daemon=True).start()
        reader = FrameReader(b)
        msg = reader.next_frame()
        assert isinstance(msg, wire.Rread)
        assert msg.data == "hello world"

    def test_mid_frame_eof_is_iofault(self):
        a, b = channel_pair()
        frame = wire.encode(wire.Rread(tag=1, data="partial"))
        a.send(frame[:9])
        a.close()
        reader = FrameReader(b)
        with pytest.raises(IOFault):
            reader.next_frame()


class TestConcurrency:
    def test_concurrent_sessions_share_one_server(self):
        """Four clients on four threads hammer reads and writes; every
        session sees consistent data."""
        vfs = VFS()
        for i in range(4):
            vfs.write(f"/f{i}.txt", f"seed {i}\n")
        server = WireServer(vfs.root, clock=vfs.clock)
        channels = []
        for _ in range(4):
            client_end, server_end = channel_pair()
            server.serve(server_end)
            channels.append(client_end)
        clients = [MuxClient(chan) for chan in channels]
        failures: list[BaseException] = []

        def hammer(idx: int) -> None:
            try:
                root = mount_remote(clients[idx])
                node = root.lookup(f"f{idx}.txt")
                for round_no in range(25):
                    with node.open("w") as s:
                        s.write(f"client {idx} round {round_no}\n")
                    with node.open("r") as s:
                        assert s.read() == f"client {idx} round {round_no}\n"
            except BaseException as exc:  # noqa: BLE001 - collected below
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        for client in clients:
            client.close()
        server.close()
        assert not failures, failures

    def test_tagged_requests_multiplex_on_one_connection(self):
        """Many threads share one MuxClient; tags keep replies straight."""
        vfs = VFS()
        for i in range(8):
            vfs.write(f"/f{i}.txt", f"payload {i}\n")
        server = WireServer(vfs.root)
        client_end, server_end = channel_pair()
        server.serve(server_end)
        client = MuxClient(client_end, max_outstanding=8)
        failures: list[BaseException] = []

        def reader(idx: int) -> None:
            try:
                for _ in range(20):
                    fid = client.walk_fid(f"/f{idx}.txt")
                    client.rpc(wire.Topen(fid=fid, mode="r"))
                    reply = client.rpc(wire.Tread(fid=fid, count=-1))
                    assert reply.data == f"payload {idx}\n"
                    client.clunk(fid)
            except BaseException as exc:  # noqa: BLE001 - collected below
                failures.append(exc)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        client.close()
        server.close()
        assert not failures, failures


class TestBackpressure:
    def test_server_refuses_excess_inflight_requests(self):
        """The server refuses no request for being one too many: raw
        frames bypass MuxClient's window, and 200 reads pipelined in
        one write are all answered, in order, with no ``busy``.  The
        write queue's backpressure is the server's flow control."""
        metrics = MetricsRegistry("server")
        server = WireServer(make_tree().root, metrics=metrics)
        client_end, server_end = channel_pair()
        server.serve(server_end)
        try:
            reader = FrameReader(client_end)
            client_end.send(b"".join(map(wire.encode, [
                wire.Tattach(tag=0, fid=0),
                wire.Twalk(tag=1, fid=0, newfid=1, names=["notes.txt"]),
                wire.Topen(tag=2, fid=1, mode="r")])))
            assert [type(reader.next_frame()) for _ in range(3)] == [
                wire.Rattach, wire.Rwalk, wire.Ropen]
            tags = range(10, 210)
            client_end.send(b"".join(
                wire.encode(wire.Tread(tag=tag, fid=1, offset=0, count=-1))
                for tag in tags))
            replies = [reader.next_frame() for _ in tags]
            assert [reply.tag for reply in replies] == list(tags)
            assert {type(reply) for reply in replies} == {wire.Rread}
            assert {reply.data for reply in replies} == {"top note\n"}
        finally:
            server.close()
        assert metrics.counters("fs.error.") == {}

    def test_client_semaphore_bounds_inflight(self):
        """MuxClient never exceeds its own max_outstanding: six threads
        share a two-permit window and every probe completes."""
        vfs = make_tree()
        server = WireServer(vfs.root)
        client_end, server_end = channel_pair()
        server.serve(server_end)
        client = MuxClient(client_end, max_outstanding=2)
        failures: list[BaseException] = []

        def spin() -> None:
            try:
                for _ in range(10):
                    assert client.probe("/notes.txt") is not None
            except BaseException as exc:  # noqa: BLE001 - collected below
                failures.append(exc)

        threads = [threading.Thread(target=spin) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        client.close()
        server.close()
        assert not failures, failures


class Counted:
    """A client channel that counts its transport writes."""

    def __init__(self, channel) -> None:
        self._channel = channel
        self.writes = 0

    def send(self, data: bytes) -> None:
        self.writes += 1
        self._channel.send(data)

    def recv(self, n: int = 1 << 16) -> bytes:
        return self._channel.recv(n)

    def close(self) -> None:
        self._channel.close()


def counted_client(server: WireServer, **kwargs) -> tuple[Counted, MuxClient]:
    client_end, server_end = channel_pair()
    server.serve(server_end)
    channel = Counted(client_end)
    return channel, MuxClient(channel, **kwargs)


class TestChains:
    """A file access is one chain in one transport write; its first
    failure in chain order is the one raised, and the server books
    nothing behind it."""

    def test_each_file_access_is_one_write(self):
        vfs = make_tree()
        with WireServer(vfs.root, clock=vfs.clock) as server:
            channel, client = counted_client(server)
            with client:
                node = mount_remote(client).lookup("notes.txt")
                writes = channel.writes
                assert node.data == "top note\n"
                assert channel.writes == writes + 1
                node.data = "rewritten\n"
                assert channel.writes == writes + 2
                session = node.open("r")
                assert channel.writes == writes + 3
                assert session.read() == "rewritten\n"
                session.close()
        assert vfs.read("/notes.txt") == "rewritten\n"

    def test_a_chain_wider_than_the_window_splits(self):
        """Two frames in flight at most: four go out in two writes, and
        the server answers every one."""
        vfs = make_tree()
        metrics = MetricsRegistry("server")
        with WireServer(vfs.root, metrics=metrics) as server:
            channel, client = counted_client(server, max_outstanding=2)
            with client:
                node = mount_remote(client).lookup("notes.txt")
                writes = channel.writes
                assert node.data == "top note\n"
                assert channel.writes == writes + 2
        assert metrics.counters("fs.error.") == {}

    def test_chains_from_many_threads_share_a_narrow_window(self):
        """Sixteen readers, four permits: a chain takes all its permits
        at once, so no two chains each hold part of the window."""
        vfs = VFS()
        for i in range(16):
            vfs.write(f"/f{i}.txt", f"payload {i}\n")
        failures: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WireServer(vfs.root) as server:
                _, client = counted_client(server, max_outstanding=4)

                def reader(idx: int) -> None:
                    try:
                        node = mount_remote(client).lookup(f"f{idx}.txt")
                        for _ in range(20):
                            assert node.data == f"payload {idx}\n"
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)

                threads = [threading.Thread(target=reader, args=(i,),
                                            daemon=True)
                           for i in range(16)]
                for t in threads:
                    t.start()
                deadline = time.monotonic() + 30
                for t in threads:
                    t.join(timeout=max(0.0, deadline - time.monotonic()))
                stuck = [t for t in threads if t.is_alive()]
                client.close()
        finally:
            sys.setswitchinterval(interval)
        assert not stuck
        assert not failures, failures

    def test_an_open_fault_books_only_itself(self):
        """The read queued behind a failed open answers with the open's
        own error, so the server books no second, "not open" error."""
        vfs = make_tree()
        metrics = MetricsRegistry("server")
        plan = FaultPlan(Fault(op="open", path="/notes.txt", at=1))
        with WireServer(wrap(vfs.root, plan), metrics=metrics) as server:
            _, client = counted_client(server)
            with client:
                node = mount_remote(client).lookup("notes.txt")
                with pytest.raises(IOFault) as info:
                    node.data
                assert info.value.op == "open"
                assert node.data == "top note\n"
        assert metrics.counters("fs.error.") == {"fs.error.iofault": 1}

    def test_the_first_failure_in_chain_order_is_raised(self):
        """A read fault and a close fault in one chain: the read's error
        is raised.  The client rehydrates it and books nothing; the
        server books one iofault for each error it answered, the read's
        and the clunk's close fault behind it."""
        vfs = make_tree()
        plan = FaultPlan(Fault(op="read", path="/notes.txt", at=1),
                         Fault(op="close", path="/notes.txt", at=1))
        metrics = MetricsRegistry("server")
        with WireServer(wrap(vfs.root, plan), metrics=metrics) as server:
            _, client = counted_client(server)
            with client:
                node = mount_remote(client).lookup("notes.txt")
                with pytest.raises(IOFault) as info:
                    node.data
                assert info.value.op == "read"
                assert plan.injected == 2
        assert counters("fs.error.") == {}
        assert metrics.counters("fs.error.") == {"fs.error.iofault": 2}

    def test_a_handler_crash_books_one_io_error(self):
        """A handler that fails with a plain exception, a server bug,
        is answered as an ``io`` error and counted like any other error
        the server answers: once, on the server's ledger."""
        def crash() -> str:
            raise RuntimeError("handler bug")

        root = SynthDir("/", list_fn=lambda: [
            SynthFile("crash", read_fn=crash)])
        metrics = MetricsRegistry("server")
        with WireServer(root, metrics=metrics) as server:
            _, client = counted_client(server)
            with client:
                node = mount_remote(client).lookup("crash")
                with pytest.raises(FsError) as info:
                    node.data
                assert info.value.kind == "io"
                assert "handler bug" in str(info.value)
        assert counters("fs.error.") == {}
        assert metrics.counters("fs.error.") == {"fs.error.io": 1}

    def test_a_vanished_file_raises_the_walks_notfound(self):
        """Removed between lookup and access: the walk misses, and the
        ops queued on its fid answer with that miss, booking nothing."""
        vfs = make_tree()
        metrics = MetricsRegistry("server")
        with WireServer(vfs.root, metrics=metrics) as server:
            _, client = counted_client(server)
            with client:
                node = mount_remote(client).lookup("notes.txt")
                vfs.remove("/notes.txt")
                with pytest.raises(NotFound) as info:
                    node.data
                assert info.value.op == "walk"
                with pytest.raises(NotFound):
                    node.data = "lost\n"
                with pytest.raises(NotFound):
                    node.open("r")
                assert mount_remote(client).lookup("docs") is not None
        assert metrics.counters("fs.error.") == {}

    def test_a_walk_through_a_file_books_only_its_own_error(self):
        """A walk that fails, not just misses, answers the ops queued
        on its newfid with its own error: one NotADirectory, no
        "unknown fid" behind it."""
        vfs = make_tree()
        metrics = MetricsRegistry("server")
        with WireServer(vfs.root, metrics=metrics) as server:
            _, client = counted_client(server)
            with client:
                inner = RemoteFile(client, "/notes.txt/inner")
                with pytest.raises(NotADirectory):
                    inner.data
                with pytest.raises(NotADirectory):
                    inner.open("r")
                assert mount_remote(client).lookup("notes.txt").data == (
                    "top note\n")
        assert metrics.counters("fs.error.") == {"fs.error.notadir": 2}

    def test_a_missed_fid_number_walks_again(self, pipe_world):
        """A sequential probe frees its fid on a miss without a clunk;
        the server lets the next walk take that number."""
        _, _, client = pipe_world
        fid = client.alloc_fid()
        client.free_fid(fid)
        assert client.probe("/absent") is None
        assert client.walk_fid("/notes.txt") == fid
        client.rpc(wire.Topen(fid=fid, mode="r"))
        assert client.rpc(wire.Tread(fid=fid)).data == "top note\n"
        client.clunk(fid)


class TestTransportFaults:
    def test_fault_plan_applies_at_the_wire(self):
        """PR 2's fault schedules work unchanged against remote trees."""
        vfs = make_tree()
        plan = FaultPlan(
            Fault(op="open", path="/docs/a.txt", at=2),
            Fault(op="read", path="/notes.txt", at=1, short=3),
        )
        server = WireServer(wrap(vfs.root, plan))
        client_end, server_end = channel_pair()
        server.serve(server_end)
        client = MuxClient(client_end)
        try:
            root = mount_remote(client)
            a = root.lookup("docs").lookup("a.txt")
            with a.open("r") as s:
                assert s.read() == "alpha\n"
            with pytest.raises(IOFault):
                a.open("r")  # second open: scheduled fault
            with root.lookup("notes.txt").open("r") as s:
                assert s.read() == "top"  # short read truncates to 3
            assert plan.injected == 2
        finally:
            client.close()
            server.close()

    def test_close_time_fault_surfaces_at_clunk(self):
        vfs = make_tree()
        plan = FaultPlan(Fault(op="close", path="/notes.txt", at=1))
        server = WireServer(wrap(vfs.root, plan))
        client_end, server_end = channel_pair()
        server.serve(server_end)
        client = MuxClient(client_end)
        try:
            session = mount_remote(client).lookup("notes.txt").open("r")
            assert session.read() == "top note\n"
            with pytest.raises(IOFault):
                session.close()
            assert session.closed  # closed locally despite the error
        finally:
            client.close()
            server.close()

    def test_dead_server_fails_pending_rpcs(self):
        vfs = make_tree()
        server = WireServer(vfs.root)
        client_end, server_end = channel_pair()
        server.serve(server_end)
        client = MuxClient(client_end)
        server.close()
        with pytest.raises((IOFault, Closed)):
            for _ in range(3):  # the close can race the first probe
                client.probe("/notes.txt")
        client.close()

    def test_rpc_after_client_close_raises_closed(self):
        vfs = make_tree()
        server = WireServer(vfs.root)
        client_end, server_end = channel_pair()
        server.serve(server_end)
        client = MuxClient(client_end)
        client.close()
        with pytest.raises((Closed, IOFault)):
            client.probe("/notes.txt")
        server.close()


class TestFidHygiene:
    def test_walk_to_unknown_fid_is_invalid(self, pipe_world):
        _, _, client = pipe_world
        with pytest.raises(Invalid):
            client.rpc(wire.Twalk(fid=999, newfid=1000, names=[]))

    def test_read_without_open_is_invalid(self, pipe_world):
        _, _, client = pipe_world
        fid = client.walk_fid("/notes.txt")
        with pytest.raises(Invalid):
            client.rpc(wire.Tread(fid=fid, count=-1))
        client.clunk(fid)

    def test_double_open_on_one_fid_is_invalid(self, pipe_world):
        _, _, client = pipe_world
        fid = client.walk_fid("/notes.txt")
        client.rpc(wire.Topen(fid=fid, mode="r"))
        with pytest.raises(Invalid):
            client.rpc(wire.Topen(fid=fid, mode="r"))
        client.clunk(fid)

    def test_clunk_twice_is_invalid(self, pipe_world):
        _, _, client = pipe_world
        fid = client.walk_fid("/notes.txt")
        client.rpc(wire.Tclunk(fid=fid))
        with pytest.raises(Invalid):
            client.rpc(wire.Tclunk(fid=fid))

    def test_fids_are_recycled(self, pipe_world):
        _, _, client = pipe_world
        fid1 = client.walk_fid("/notes.txt")
        client.clunk(fid1)
        fid2 = client.walk_fid("/docs")
        assert fid2 == fid1  # the freed fid is reused
        client.clunk(fid2)

    def test_teardown_closes_open_sessions(self):
        """Dropping a connection flushes server-side sessions: the
        unterminated tail a writer left behind still lands."""
        got: list[str] = []
        root = SynthDir("/", list_fn=lambda: [
            SynthFile("sink", write_fn=got.append)])
        server = WireServer(root)
        client_end, server_end = channel_pair()
        thread = server.serve(server_end)
        client = MuxClient(client_end)
        session = mount_remote(client).lookup("sink").open("w")
        session.write("no newline yet")
        client_end.close()  # vanish without clunking
        thread.join(timeout=5)
        assert got == ["no newline yet"]
        server.close()


class TestMetrics:
    def test_rpc_counters_and_histograms_record(self):
        from repro.metrics.counter import histograms
        vfs = make_tree()
        server = WireServer(vfs.root)
        client_end, server_end = channel_pair()
        server.serve(server_end)
        client = MuxClient(client_end)
        before = counter("wire.rpc.read")
        bytes_before = counter("wire.bytes.in")
        with mount_remote(client).lookup("notes.txt").open("r") as s:
            s.read()
        assert counter("wire.rpc.read") == before + 1
        assert counter("wire.bytes.in") > bytes_before
        stats = histograms("wire.rpc.")
        assert "wire.rpc.read" in stats
        assert stats["wire.rpc.read"]["count"] >= 1
        assert "mux.rpc.read" in histograms("mux.rpc.")
        client.close()
        server.close()


class TestHelpOverTheWire:
    def test_help_session_runs_against_remote_mnt_help(self):
        """The acceptance property in miniature: a tool script drives
        windows through a socket-served /mnt/help, unchanged."""
        from repro.tools.install import build_system
        system = build_system(width=100, height=40)
        server = WireServer(system.helpfs.root)
        host, port = server.listen()
        client = MuxClient(dial(host, port))
        try:
            system.ns.unmount("/mnt/help")
            system.ns.mount(mount_remote(client), "/mnt/help")
            h = system.help
            before = set(h.windows)
            h.execute_text(h.window_by_name("/help/mail/stf"), "headers")
            mbox = h.window_by_name("/mail/box/rob/mbox")
            assert mbox is not None
            assert mbox.body.string().splitlines()[1].startswith("2 sean")
            assert set(h.windows) - before  # a window really was created
            # and the index file reads back through the wire too
            index = system.ns.read("/mnt/help/index")
            assert f"{mbox.id}\t" in index
            assert counter("wire.rpc.open") > 0
        finally:
            client.close()
            server.close()

    def test_ctl_errors_reach_the_errors_window_remotely(self):
        from repro.core.help import ERRORS
        from repro.tools.install import build_system
        system = build_system(width=100, height=40)
        server = WireServer(system.helpfs.root)
        client_end, server_end = channel_pair()
        server.serve(server_end)
        client = MuxClient(client_end)
        try:
            system.ns.unmount("/mnt/help")
            system.ns.mount(mount_remote(client), "/mnt/help")
            h = system.help
            w = h.new_window("/tmp/x", "hello\n")
            with system.ns.open(f"/mnt/help/{w.id}/ctl", "w") as f:
                f.write("no-such-verb 1 2\n")
            errors = h.window_by_name(ERRORS)
            assert errors is not None
            assert "no-such-verb" in errors.body.string()
        finally:
            client.close()
            server.close()
