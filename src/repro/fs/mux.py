"""Multiplexed file service over byte transports.

This is the layer that makes :mod:`repro.fs.wire` useful: a
:class:`WireServer` serves any :class:`~repro.fs.vfs.Node` tree to
many concurrent client connections, a :class:`MuxClient` multiplexes
many outstanding requests over one connection by tag, and the
``Remote*`` proxies satisfy the local node interface so
:meth:`repro.fs.namespace.Namespace.mount` can graft a *remote* server
into a local namespace — ``help`` and the shell run unchanged against
a mounted remote ``/mnt/help``, which is the paper's whole point about
the UI being a file server.

Clients take any channel with ``send``/``recv``/``close``.  Every
server-side channel is a socket: :func:`channel_pair` returns the two
ends of a ``socket.socketpair()`` (optionally with a ``max_chunk`` so
every read is short, exercising frame reassembly), and
:meth:`WireServer.listen` / :func:`dial` speak the same frames over
TCP.  So the server's reactor selects on one fd kind, and in-process
channels get the same write-queue backpressure as TCP.

The reactor serves every request inline, in arrival order, so a
client may send a fid's whole chain — walk, open, read, clunk — in
one write: :meth:`MuxClient.batch` does, and a :class:`RemoteFile`
read or write is one round trip.  Both TCP ends turn off Nagle, which
would otherwise hold part of a chain back for a delayed ACK.

Flow control: the client bounds its own outstanding requests with a
window of permits; the server stops reading a connection whose
replies pile up unread past a high-water mark.

Instrumentation (:mod:`repro.metrics`): the server counts every RPC
(``wire.rpc.<op>``) and byte (``wire.bytes.in`` / ``wire.bytes.out``)
and every error it answers (``fs.error.<kind>``), and records per-op
service-time histograms (``wire.rpc.<op>``, microseconds); the client
records round-trip histograms (``mux.rpc.<op>``) and books nothing for
an error reply.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from contextlib import nullcontext

from repro.fs import wire
from repro.fs.errors import (
    Busy,
    Closed,
    FsError,
    Invalid,
    IOFault,
    IsADirectory,
    NotADirectory,
    NotFound,
)
from repro.fs.vfs import Clock, Dir, File, FileHandle, Node, basename, join, split_path
from repro.metrics.counter import current_registry, incr, observe, use_registry

_RECV_SIZE = 1 << 16

# Per-connection write-queue watermarks: above _HIGH_WATER queued
# output the reactor stops reading that connection (the client gets
# socket backpressure instead of an unbounded server-side queue); reads
# resume once the queue drains below _LOW_WATER.
_HIGH_WATER = 1 << 20
_LOW_WATER = 1 << 18

# What a request on a bare tree holds while it runs: nothing, since
# only the reactor thread serves requests.
_NO_LOCK = nullcontext()


# -- transports --------------------------------------------------------------


class SocketChannel:
    """A byte channel over a connected stream socket: TCP, or one end
    of the ``socketpair`` an in-process :func:`channel_pair` makes."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send(self, data: bytes) -> None:
        """A dead peer raises the plain OSError; the client's rpc
        reports it to its caller as IOFault."""
        self._sock.sendall(data)

    def recv(self, n: int = _RECV_SIZE) -> bytes:
        try:
            return self._sock.recv(n)
        except OSError:
            return b""

    def try_recv(self, n: int = _RECV_SIZE) -> bytes | None:
        """Non-blocking receive: None = would block, b"" = EOF/error."""
        try:
            return self._sock.recv(n)
        except (BlockingIOError, InterruptedError):
            return None
        except OSError:
            return b""

    def try_send(self, data) -> int:
        """Non-blocking send: bytes the kernel accepted (0 = try later).

        A dead peer raises the plain OSError: only the reactor calls
        this, and for it a hung-up peer is teardown, not an error.
        """
        try:
            return self._sock.send(data)
        except (BlockingIOError, InterruptedError):
            return 0

    def fileno(self) -> int:
        return self._sock.fileno()

    def setblocking(self, flag: bool) -> None:
        self._sock.setblocking(flag)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class _ChunkedChannel(SocketChannel):
    """A socketpair end whose every receive returns at most
    ``max_chunk`` bytes — a deterministic short read, so framing code
    can prove it reassembles messages split at arbitrary byte
    boundaries."""

    def __init__(self, sock: socket.socket, max_chunk: int) -> None:
        super().__init__(sock)
        self.max_chunk = max_chunk

    def recv(self, n: int = _RECV_SIZE) -> bytes:
        return super().recv(min(n, self.max_chunk))

    def try_recv(self, n: int = _RECV_SIZE) -> bytes | None:
        return super().try_recv(min(n, self.max_chunk))


def channel_pair(max_chunk: int | None = None
                 ) -> tuple[SocketChannel, SocketChannel]:
    """Two connected in-process endpoints (client end, server end)."""
    a, b = socket.socketpair()
    if max_chunk is None:
        return SocketChannel(a), SocketChannel(b)
    return _ChunkedChannel(a, max_chunk), _ChunkedChannel(b, max_chunk)


def dial(host: str, port: int) -> SocketChannel:
    """Connect to a :meth:`WireServer.listen` endpoint."""
    sock = socket.create_connection((host, port))
    _no_delay(sock)
    return SocketChannel(sock)


def _no_delay(sock: socket.socket) -> None:
    """Turn off Nagle: a chain's reply may leave in several small
    writes, and Nagle holding one back for the delayed ACK of the last
    stalls the whole chain by tens of milliseconds."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class FrameReader:
    """Reassemble wire frames from a byte stream of arbitrary chunks.

    Frames decode zero-copy out of one growing receive buffer (a
    ``memoryview`` over a ``bytearray``); consumed bytes are compacted
    in place instead of re-slicing the remainder per frame.
    """

    def __init__(self, channel) -> None:
        self._channel = channel
        self._buf = bytearray()

    def next_frame(self) -> wire.Message | None:
        """The next complete message, or None at orderly end of stream.

        Raises :class:`~repro.fs.errors.Invalid` on protocol garbage
        and :class:`~repro.fs.errors.IOFault` if the stream ends in the
        middle of a frame.
        """
        buf = self._buf
        while True:
            if buf:
                view = memoryview(buf)
                try:
                    msg, rest = wire.decode(view)
                finally:
                    view.release()
                if msg is not None:
                    del buf[:rest]
                    return msg
            chunk = self._channel.recv(_RECV_SIZE)
            if not chunk:
                if buf:
                    raise IOFault("connection closed mid-frame",
                                  path="<wire>", op="read")
                return None
            buf += chunk


# -- server ------------------------------------------------------------------


class _Reactor:
    """One thread, one selector: owns every server-side socket.

    Connections and listeners all register with the selector — an
    in-process channel is a socketpair end, so there is one fd kind
    and one loop path.  Other threads hand work to the loop with
    :meth:`submit`; a socketpair waker interrupts ``select``.
    """

    def __init__(self, name: str = "wire-reactor") -> None:
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._lock = threading.Lock()
        self._commands: deque = deque()
        self._pending_wake = False
        self._running = True
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=name)
        self._thread.start()

    # -- cross-thread entry points (any thread) --------------------------

    def on_thread(self) -> bool:
        return threading.current_thread() is self._thread

    def submit(self, fn) -> None:
        """Run *fn* on the reactor thread, soon."""
        with self._lock:
            self._commands.append(fn)
        self._wake()

    def stop(self) -> None:
        """End the loop; commands submitted before this still run."""
        with self._lock:
            if not self._running:
                return
            self._running = False
        self._wake()
        if not self.on_thread():
            self._thread.join(timeout=5)

    def listen(self, host: str, port: int, adopt) -> socket.socket:
        """Accept TCP connections on *host*:*port* (0 = ephemeral).

        Every accepted socket goes to ``adopt(SocketChannel)`` on the
        reactor thread.  Returns the listening socket; :meth:`unlisten`
        closes it.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(128)
        sock.setblocking(False)

        def accept_ready(mask: int) -> None:
            while True:
                try:
                    client, _addr = sock.accept()
                except OSError:
                    return  # drained, or the listener closed
                _no_delay(client)
                adopt(SocketChannel(client))

        self.submit(lambda: self.register(sock, selectors.EVENT_READ,
                                          accept_ready))
        return sock

    def _wake(self) -> None:
        with self._lock:
            if self._pending_wake:
                return
            self._pending_wake = True
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # reactor already gone

    # -- selector registry (reactor thread only) -------------------------

    def register(self, fileobj, events: int, callback) -> None:
        self._selector.register(fileobj, events, callback)

    def modify(self, fileobj, events: int, callback) -> None:
        self._selector.modify(fileobj, events, callback)

    def unregister(self, fileobj) -> None:
        self._selector.unregister(fileobj)

    def unlisten(self, sock: socket.socket) -> None:
        """Stop accepting on *sock* and close it."""
        try:
            self.unregister(sock)
        except (KeyError, ValueError, OSError):
            pass
        sock.close()

    # -- the loop ---------------------------------------------------------

    def _run(self) -> None:
        try:
            running = True
            while running:
                events = self._selector.select()
                for key, mask in events:
                    if key.data is None:  # the waker
                        try:
                            while self._wake_r.recv(4096):
                                pass
                        except OSError:
                            pass
                        with self._lock:
                            self._pending_wake = False
                        continue
                    try:
                        key.data(mask)
                    except Exception:
                        pass  # one connection must not stop the loop
                while True:
                    with self._lock:
                        if not self._commands:
                            # checked with the queue empty, so a stop
                            # never strands a command submitted before it
                            running = self._running
                            break
                        fn = self._commands.popleft()
                    try:
                        fn()
                    except Exception:
                        pass
        finally:
            try:
                self._selector.close()
            except Exception:
                pass
            self._wake_r.close()
            self._wake_w.close()


class _ConnHandle:
    """What :meth:`WireServer.serve` returns: joinable, like the
    per-connection thread it replaced, signalled at teardown."""

    __slots__ = ("_conn",)

    def __init__(self, conn: "_Connection") -> None:
        self._conn = conn

    def join(self, timeout: float | None = None) -> None:
        self._conn._done.wait(timeout)

    def is_alive(self) -> bool:
        return not self._conn._done.is_set()


class _FidState:
    """What a connection's fid currently refers to.

    ``node`` is None for the newfid of a walk that missed or failed: a
    chain may have queued ops on it, and they answer with the walk's
    miss or error.  ``failed`` holds the error a failed walk or open
    raised, so the ops queued behind it answer with that same error.
    """

    __slots__ = ("node", "path", "session", "failed")

    def __init__(self, node: Node | None, path: str,
                 failed: FsError | None = None) -> None:
        self.node = node
        self.path = path
        self.session = None  # set by open
        self.failed = failed


class _Connection:
    """One client connection on the reactor: incremental zero-copy
    parse, inline service, per-connection write queue.

    The reactor thread feeds bytes into ``_rbuf``, decodes frames
    straight out of it through a ``memoryview`` (one compaction per
    burst, no per-frame copies) and serves each one in arrival order;
    the replies queue on the connection, flushed by the reactor with
    writable-event pacing.  A queue past ``_HIGH_WATER`` pauses
    reading (the client sees transport backpressure); draining past
    ``_LOW_WATER`` resumes it.  Only the reactor thread touches a
    connection, so none of its state takes a lock.

    With a session factory on the server, the connection also owns one
    **hosted session** — created at attach, torn down with the
    connection — and binds that session's metrics registry around all
    work done on its behalf, so N connections keep N separate ledgers.
    """

    def __init__(self, server: "WireServer", channel,
                 initial: bytes = b"") -> None:
        self.server = server
        self.channel = channel
        self.reactor = server._reactor
        self.fids: dict[int, _FidState] = {}
        self.session = None  # set at attach by the session factory
        self.feed = False    # carried a Tship: a replica feed
        self._wbuf: deque = deque()
        self._wsize = 0
        self._rbuf = bytearray(initial)
        self._paused_write = False
        self._events = 0                    # current selector mask
        self._eof = False
        self._torn = False
        self._done = threading.Event()

    def _registry(self):
        """The registry work on this connection's behalf reports into:
        the hosted session's, else the server's (None: the active one)."""
        registry = getattr(self.session, "metrics", None)
        return self.server.metrics if registry is None else registry

    def _bind(self):
        """The metrics binding for work on this connection's behalf."""
        registry = self._registry()
        return nullcontext() if registry is None else use_registry(registry)

    # -- input path -------------------------------------------------------

    def _start(self) -> None:
        if self._torn:
            return
        self.channel.setblocking(False)
        self._update_events()
        if self._rbuf:
            # bytes a router peeked on our behalf still count as input
            with self._bind():
                incr("wire.bytes.in", len(self._rbuf))
            self._process()

    def _on_io(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush_writes()
        if mask & selectors.EVENT_READ and not self._torn:
            self._on_readable()

    def _on_readable(self) -> None:
        if self._torn or self._paused_write:
            return
        got = 0
        while True:
            chunk = self.channel.try_recv(_RECV_SIZE)
            if chunk is None:
                break  # drained
            if not chunk:
                self._eof = True
                break
            self._rbuf += chunk
            got += len(chunk)
            if got >= _RECV_SIZE * 8:
                break  # bound one burst; the selector re-fires for the rest
        if got:
            with self._bind():
                incr("wire.bytes.in", got)
        self._process()

    def _process(self) -> None:
        """Decode and serve every complete frame buffered so far."""
        while not self._torn and not self._paused_write:
            buf = self._rbuf
            if not buf:
                break
            pos = 0
            stop = False
            error = False
            view = memoryview(buf)
            try:
                with self._bind():
                    while True:
                        try:
                            msg, nxt = wire.decode(view, pos)
                        except Invalid:
                            error = True  # protocol garbage: drop the conn
                            break
                        if msg is None:
                            break
                        pos = nxt
                        if self._serve(msg):
                            stop = True
                            break
                        if self._wsize >= _HIGH_WATER:
                            # the peer is not reading its replies: stop
                            # parsing (and reading) until the queue drains
                            self._paused_write = True
                            incr("wire.backpressure.paused")
                            stop = True
                            break
            finally:
                view.release()
            if pos:
                del buf[:pos]
            if error:
                self._start_teardown()
                return
            if not stop or self._paused_write:
                break
            # the connection's registry changed: loop to re-bind
        self._flush_writes()
        if self._eof and not self._torn:
            self._start_teardown()

    def _serve(self, msg: wire.Message) -> bool:
        """Serve *msg* and queue its reply.  True when the registry
        this connection books into changed (an attach installed a
        session, or the session retired): the burst must re-bind."""
        before = self._registry()
        incr(f"wire.rpc.{msg.op}")
        start = time.perf_counter()
        try:
            reply = self._handle(msg)
        except Exception as exc:  # a server bug must not kill the loop
            reply = self._error(msg.tag, exc)
        observe(f"wire.rpc.{msg.op}", (time.perf_counter() - start) * 1e6)
        self._reply(reply)
        return self._registry() is not before

    # -- reply path -------------------------------------------------------

    def _error(self, tag: int, exc: Exception) -> wire.Rerror:
        """Answer *exc*.  The reply is the server's report of the error,
        so it is counted here, as ``fs.error.<kind>`` on
        :meth:`_registry` (a server bug answers as ``io``)."""
        reply = wire.Rerror.from_exc(tag, exc)
        (self._registry() or current_registry()).incr(
            f"fs.error.{reply.kind}")
        return reply

    def _reply(self, reply: wire.Message) -> None:
        """Queue *reply*; the burst in :meth:`_process` flushes it."""
        if self._torn:
            return  # peer went away; nothing to tell it
        frame = wire.encode(reply)
        self._wbuf.append(frame)
        self._wsize += len(frame)
        incr("wire.bytes.out", len(frame))

    def _flush_writes(self) -> None:
        if self._torn:
            return
        while self._wbuf:
            # coalesce small replies into one transport write
            data = self._wbuf.popleft()
            if self._wbuf and len(data) < _RECV_SIZE:
                parts = [data]
                size = len(data)
                while self._wbuf and size < _RECV_SIZE * 4:
                    nxt = self._wbuf.popleft()
                    parts.append(nxt)
                    size += len(nxt)
                data = b"".join(parts)
            try:
                sent = self.channel.try_send(data)
            except OSError:
                self._start_teardown()
                return
            self._wsize -= sent
            if sent < len(data):
                self._wbuf.appendleft(bytes(data[sent:]))
                break  # kernel buffer full: wait for EVENT_WRITE
        self._update_events()
        if self._paused_write and self._wsize <= _LOW_WATER:
            self._paused_write = False
            with self._bind():
                incr("wire.backpressure.resumed")
            self._update_events()
            self.reactor.submit(self._process)

    def _update_events(self) -> None:
        if self._torn:
            return
        mask = 0
        if not self._paused_write and not self._eof:
            mask |= selectors.EVENT_READ
        if self._wbuf:
            mask |= selectors.EVENT_WRITE
        if mask == self._events:
            return
        try:
            if self._events == 0:
                self.reactor.register(self.channel, mask, self._on_io)
            elif mask == 0:
                self.reactor.unregister(self.channel)
            else:
                self.reactor.modify(self.channel, mask, self._on_io)
        except (KeyError, ValueError, OSError):
            return
        self._events = mask

    # -- op handlers --------------------------------------------------------

    def _handle(self, msg: wire.Message) -> wire.Message:
        if isinstance(msg, wire.Tattach):
            return self._attach(msg)
        if isinstance(msg, wire.Tship):
            # replica feed frames never belong to a hosted session; the
            # handler locks its own state, so no oplock is taken here
            handler = self.server.ship_handler
            if handler is None:
                raise Invalid("no replica feed handler on this server",
                              path="<wire>", op="ship")
            self.feed = True
            return wire.Rship(tag=msg.tag, ack=handler(msg))
        handler = self._FID_OPS.get(type(msg))
        if handler is None:
            raise Invalid(f"unexpected message {type(msg).__name__}",
                          path="<wire>", op="dispatch")
        # a hosted session's oplock keeps its world from the drain
        # thread and from control writes another host serves
        with getattr(self.session, "oplock", None) or _NO_LOCK:
            state = self.fids.get(msg.fid)
            if state is not None and state.node is None:
                return self._unlinked_op(msg, state)
            return handler(self, msg)

    def _unlinked_op(self, msg, state: _FidState) -> wire.Message:
        """Answer an op queued on the newfid of a walk that missed or
        failed: with the walk's own error, or for a miss its NotFound.
        The walk was answered already, so nothing more is booked.  A
        clunk forgets the fid.
        """
        if isinstance(msg, wire.Tclunk):
            self.fids.pop(msg.fid, None)
        failed = state.failed or NotFound(path=state.path, op="walk")
        return wire.Rerror.from_exc(msg.tag, failed)

    def _fid(self, fid: int, op: str) -> _FidState:
        state = self.fids.get(fid)
        if state is None:
            raise Invalid(f"unknown fid {fid}", path="<wire>", op=op)
        return state

    def _attach(self, msg: wire.Tattach) -> wire.Message:
        if self.server.session_factory is not None and self.session is None:
            # the factory is responsible for binding the new session's
            # own registry around whatever it builds
            self.session = self.server.session_factory(msg.uname, msg.aname)
        root = (self.server.root if self.session is None
                else self.session.root)
        self.fids[msg.fid] = _FidState(root, "/")
        return wire.Rattach(tag=msg.tag, is_dir=root.is_dir,
                            mtime=root.mtime)

    def _walk(self, msg: wire.Twalk) -> wire.Message:
        src = self._fid(msg.fid, "walk")
        held = self.fids.get(msg.newfid)
        if msg.newfid != msg.fid and held is not None and held.node is not None:
            raise Invalid(f"fid {msg.newfid} already in use",
                          path="<wire>", op="walk")
        node, path = src.node, src.path
        for name in msg.names:
            if not isinstance(node, Dir):
                error = NotADirectory(path=path, op="walk")
                self._unlinked(msg, path, error)
                raise error
            child = node.lookup(name)
            path = join(path, name)
            if child is None:
                # a clean miss is an answer, not an error, as local
                # resolve() returns None without raising: nothing is
                # booked for it
                self._unlinked(msg, path)
                return wire.Rwalk(tag=msg.tag, found=False)
            node = child
        self.fids[msg.newfid] = _FidState(node, path)
        return wire.Rwalk(tag=msg.tag, found=True, is_dir=node.is_dir,
                          mtime=node.mtime)

    def _unlinked(self, msg: wire.Twalk, path: str,
                  error: FsError | None = None) -> None:
        """Remember the newfid of a walk that missed or failed, for
        whatever a chain queued on it; a later walk may reuse it."""
        if msg.newfid != msg.fid:
            self.fids[msg.newfid] = _FidState(None, path, error)

    def _open(self, msg: wire.Topen) -> wire.Message:
        state = self._fid(msg.fid, "open")
        if state.session is not None:
            raise Invalid(f"fid {msg.fid} already open",
                          path=state.path, op="open")
        try:
            if state.node.is_dir:
                raise IsADirectory(path=state.path, op="open")
            opener = getattr(state.node, "open", None)
            if opener is None:
                raise Invalid(f"'{state.path}' cannot be opened",
                              path=state.path, op="open")
            session = opener(msg.mode)
        except FsError as exc:
            state.failed = exc
            raise
        if isinstance(session, FileHandle) and self.server.clock is not None:
            session._clock = self.server.clock
        state.session = session
        return wire.Ropen(tag=msg.tag)

    def _session(self, msg, op: str) -> _FidState:
        """The fid *msg* reads or writes; one whose open failed comes
        back unopened, for its op to answer with the open's error."""
        state = self._fid(msg.fid, op)
        if state.session is None and state.failed is None:
            raise Invalid(f"fid {msg.fid} not open", path=state.path, op=op)
        return state

    def _read(self, msg: wire.Tread) -> wire.Message:
        state = self._session(msg, "read")
        if state.session is None:
            return wire.Rerror.from_exc(msg.tag, state.failed)
        if msg.offset != wire.SEQUENTIAL:
            state.session.seek(msg.offset)
        return wire.Rread(tag=msg.tag, data=state.session.read(msg.count))

    def _write(self, msg: wire.Twrite) -> wire.Message:
        state = self._session(msg, "write")
        if state.session is None:
            return wire.Rerror.from_exc(msg.tag, state.failed)
        return wire.Rwrite(tag=msg.tag, count=state.session.write(msg.data))

    def _clunk(self, msg: wire.Tclunk) -> wire.Message:
        state = self._fid(msg.fid, "clunk")
        del self.fids[msg.fid]
        if state.session is not None:
            state.session.close()  # close-time errors reach the client
        return wire.Rclunk(tag=msg.tag)

    def _stat(self, msg: wire.Tstat) -> wire.Message:
        state = self._fid(msg.fid, "stat")
        node = state.node
        stat = wire.StatEntry(name=node.name or basename(state.path) or "/",
                              is_dir=node.is_dir, mtime=node.mtime)
        children: list[wire.StatEntry] = []
        if isinstance(node, Dir):
            children = [wire.StatEntry(name=child.name, is_dir=child.is_dir,
                                       mtime=child.mtime)
                        for child in node.entries()]
        return wire.Rstat(tag=msg.tag, stat=stat, children=children)

    _FID_OPS = {wire.Twalk: _walk, wire.Topen: _open, wire.Tread: _read,
                wire.Twrite: _write, wire.Tclunk: _clunk, wire.Tstat: _stat}

    def _start_teardown(self) -> None:
        if self._torn:
            return
        self._torn = True
        with self.server._lock:
            self.server._conns.discard(self)
        if self._events:
            try:
                self.reactor.unregister(self.channel)
            except (KeyError, ValueError, OSError):
                pass
            self._events = 0
        self._teardown()
        if self.feed and not self.server._closed:
            self.server.ship_handler(None)  # a replica feed hung up

    def _teardown(self) -> None:
        try:
            fids, self.fids = self.fids, {}
            with self._bind():
                for state in fids.values():
                    if state.session is not None:
                        try:
                            state.session.close()
                        except Exception:
                            pass  # connection is gone; best-effort cleanup
            session, self.session = self.session, None
            if session is not None:
                # a hosted session distinguishes a dropped connection
                # (detach: may hibernate the world instead of retiring
                # it) from an outright close; plain sessions only close
                release = (getattr(session, "detach", None)
                           or getattr(session, "close", None))
                if release is not None:
                    try:
                        release()
                    except Exception:
                        pass  # teardown is best-effort; the peer is gone
            self.channel.close()
        finally:
            self._done.set()


class WireServer:
    """Serve a node tree to any number of connections over any channel.

    The server side is a non-blocking event loop: one :class:`_Reactor`
    thread owns every connection's socket, parses frames zero-copy out of
    per-connection receive buffers, serves each request inline, and
    enforces write-queue backpressure.  So node operations run one at a
    time, which the trees we serve (``help``'s window files in
    particular) need, and the wire layer's concurrency — many
    connections, many outstanding tags — still stands.  While one
    request waits, the server's other connections wait too: a handler
    must never wait on work only this server's reactor can do, such as
    an RPC to this server or its :meth:`close`.

    To serve under a :class:`~repro.fs.faults.FaultPlan`, serve the
    tree :func:`~repro.fs.faults.wrap` returns: the local fault
    schedules then apply unchanged to remote service.
    """

    def __init__(self, root: Node | None = None, *,
                 clock: Clock | None = None, metrics=None,
                 session_factory=None) -> None:
        if root is None and session_factory is None:
            raise TypeError("WireServer needs a root or a session factory")
        self.root = root
        self.clock = clock
        # metrics: the registry connection work reports into when no
        # hosted session is bound (None: whatever is active).
        # session_factory: called with (uname, aname) at attach to
        # build a per-connection hosted session — an object with a
        # ``root`` node, and optionally ``metrics`` (its private
        # ledger), ``oplock`` (its op lock) and ``close()``.
        self.metrics = metrics
        self.session_factory = session_factory
        # ship_handler: called with each wire.Tship a replica feed
        # pushes at this server; returns the ack watermark.  Called
        # with None, on the reactor thread, when a connection that
        # carried a Tship hangs up while the server stays open.
        # Installed by a ReplicaStandby (repro.serve.replica); None
        # refuses ship frames with Invalid.
        self.ship_handler = None
        self._reactor = _Reactor()
        self._lock = threading.Lock()
        # live connections; each leaves at its teardown
        self._conns: set[_Connection] = set()
        self._sockets: list[socket.socket] = []
        self._closed = False

    def serve(self, channel, initial: bytes = b"") -> _ConnHandle:
        """Adopt *channel* onto the reactor; returns a joinable handle.

        *initial* seeds the connection's receive buffer with bytes
        something upstream (a shard router peeking the attach frame)
        already read on the connection's behalf.
        """
        conn = _Connection(self, channel, initial)
        with self._lock:
            if self._closed:
                raise Closed("server closed", path="<wire>", op="attach")
            self._conns.add(conn)
        self._reactor.submit(conn._start)
        return _ConnHandle(conn)

    def listen(self, host: str = "127.0.0.1",
               port: int = 0) -> tuple[str, int]:
        """Accept TCP connections on *host*:*port* (0 = ephemeral).

        Returns the bound address; every accepted socket is served
        like an in-process channel.
        """
        sock = self._reactor.listen(host, port, self._adopt)
        with self._lock:
            self._sockets.append(sock)
        return sock.getsockname()[:2]

    def _adopt(self, channel: SocketChannel) -> None:  # reactor thread
        try:
            self.serve(channel)
        except Closed:
            channel.close()

    def close(self) -> None:
        """Stop listening, drop every connection, stop the reactor.

        Returns once the handler already running has finished, so no
        RPC outlives the server and its ledger is settled.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sockets, self._sockets = self._sockets, []
            conns, self._conns = self._conns, set()

        def shutdown() -> None:
            for sock in sockets:
                self._reactor.unlisten(sock)
            for conn in conns:
                conn._start_teardown()

        self._reactor.submit(shutdown)
        for conn in conns:
            conn._done.wait(timeout=5)
        self._reactor.stop()

    def kill(self) -> None:
        """Crash the server: stop everything with NO orderly teardown.

        Unlike :meth:`close`, no fid sessions are closed and no hosted
        session sees ``detach``/``close`` — connections are simply
        severed, as a SIGKILL would leave them.  Replication failover
        tests use this to prove the standby's copy is the *only*
        survivor of a primary crash.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sockets, self._sockets = self._sockets, []
            conns, self._conns = self._conns, set()
        self._reactor.stop()
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass
        for conn in conns:
            conn._torn = True
            try:
                conn.channel.close()
            except Exception:
                pass
            conn._done.set()

    def __enter__(self) -> "WireServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- client ------------------------------------------------------------------


class _Pending:
    __slots__ = ("event", "reply")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.reply: wire.Message | None = None


class MuxClient:
    """One connection's client end: tagged, concurrent, bounded.

    Many threads may call :meth:`rpc` or :meth:`batch` at once; each
    message takes a free tag, and a receiver thread routes replies
    back by tag.  ``max_outstanding`` bounds the requests in flight:
    the client's half of flow control (the server's is its write-queue
    backpressure).
    """

    ROOT_FID = 0

    def __init__(self, channel, *, uname: str = "rob", aname: str = "",
                 max_outstanding: int = 16, timeout: float = 30.0,
                 attach: bool = True) -> None:
        self._channel = channel
        self._reader = FrameReader(channel)
        self._pending: dict[int, _Pending] = {}
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        # the in-flight window: free permits, one per frame, taken and
        # returned under _lock
        self._window = threading.Condition(self._lock)
        self._permits = self._max_outstanding = max_outstanding
        self._next_tag = 0
        self._next_fid = self.ROOT_FID + 1
        self._free_fids: list[int] = []
        self._timeout = timeout
        self._closed = False
        self._recv_thread = threading.Thread(target=self._recv_loop,
                                             daemon=True, name="mux-reply")
        self._recv_thread.start()
        # attach=False leaves the connection bare — for traffic that
        # must not create a hosted session on the far side (a replica
        # feed ships Tship frames and nothing else)
        self.root_stat = None
        if attach:
            self.root_stat = self.rpc(wire.Tattach(fid=self.ROOT_FID,
                                                   uname=uname,
                                                   aname=aname))

    # -- plumbing -----------------------------------------------------------

    def _recv_loop(self) -> None:
        try:
            while True:
                msg = self._reader.next_frame()
                if msg is None:
                    break
                with self._lock:
                    slot = self._pending.pop(msg.tag, None)
                if slot is not None:  # else timed out, or a bogus tag
                    slot.reply = msg
                    slot.event.set()
        except (Invalid, IOFault, Closed):
            pass
        finally:
            with self._lock:
                self._closed = True
                pending, self._pending = self._pending, {}
            for slot in pending.values():
                slot.event.set()  # reply stays None: connection lost

    def rpc(self, msg: wire.Message) -> wire.Message:
        """Send one T-message, wait for its R-message, raise Rerrors."""
        reply, = self.batch([msg])
        if isinstance(reply, wire.Rerror):
            raise reply.to_exc()
        return reply

    def batch(self, msgs: list[wire.Message]) -> list[wire.Message]:
        """Send a chain of T-messages; return their replies in order.

        The chain goes out in one transport write — a chain longer than
        ``max_outstanding`` in writes of at most that many frames — and
        the server serves a connection's requests in arrival order, so
        a later message may use the fid an earlier one walks.  An
        ``Rerror`` comes back as a reply, not raised; a lost transport
        raises :class:`IOFault` (or :class:`Closed`).
        """
        size = self._max_outstanding
        replies: list[wire.Message] = []
        for i in range(0, len(msgs), size):
            replies += self._send_wait(msgs[i:i + size])
        return replies

    def _send_wait(self, msgs: list[wire.Message]) -> list[wire.Message]:
        n = len(msgs)
        with self._lock:
            # one permit per frame, all taken at once: two chains that
            # each hold part of the window can never wait on each other
            while self._permits < n:
                self._window.wait()
            if self._closed:
                raise Closed("connection closed", path="<wire>",
                             op=msgs[0].op)
            self._permits -= n
        try:
            slots = []
            with self._lock:
                for msg in msgs:
                    msg.tag = self._alloc_tag()
                    slot = self._pending[msg.tag] = _Pending()
                    slots.append(slot)
            start = time.perf_counter()
            try:
                with self._send_lock:
                    self._channel.send(b"".join(map(wire.encode, msgs)))
            except (Closed, OSError) as exc:
                self._forget(msgs)
                raise IOFault(f"send failed: {exc}", path="<wire>",
                              op=msgs[0].op) from exc
            deadline = start + self._timeout
            for msg, slot in zip(msgs, slots):
                if not slot.event.wait(deadline - time.perf_counter()):
                    self._forget(msgs)
                    raise IOFault(f"rpc timed out after {self._timeout}s",
                                  path="<wire>", op=msg.op)
                if slot.reply is None:
                    raise IOFault("connection closed awaiting reply",
                                  path="<wire>", op=msg.op)
                observe(f"mux.rpc.{msg.op}",
                        (time.perf_counter() - start) * 1e6)
        finally:
            with self._lock:
                self._permits += n
                self._window.notify_all()
        return [slot.reply for slot in slots]

    def _forget(self, msgs: list[wire.Message]) -> None:
        with self._lock:
            for msg in msgs:
                self._pending.pop(msg.tag, None)

    def _alloc_tag(self) -> int:
        for _ in range(0x10000):
            tag = self._next_tag
            self._next_tag = (self._next_tag + 1) & 0xFFFF
            if tag not in self._pending:
                return tag
        raise Busy("no free tags", path="<wire>", op="rpc")

    def alloc_fid(self) -> int:
        with self._lock:
            if self._free_fids:
                return self._free_fids.pop()
            fid = self._next_fid
            self._next_fid += 1
            return fid

    def free_fid(self, fid: int) -> None:
        with self._lock:
            self._free_fids.append(fid)

    # -- conveniences over the raw ops --------------------------------------

    def walk_fid(self, path: str) -> int:
        """A fresh fid for *path*, or :class:`NotFound` if it is absent."""
        fid = self.alloc_fid()
        try:
            reply = self.rpc(wire.Twalk(fid=self.ROOT_FID, newfid=fid,
                                        names=split_path(path)))
        except FsError:
            self.free_fid(fid)
            raise
        if not reply.found:
            self.free_fid(fid)
            raise NotFound(path=path, op="walk")
        return fid

    def probe(self, path: str) -> wire.Rwalk | None:
        """Stat-lite: kind and mtime of *path*, or None if absent."""
        fid = self.alloc_fid()
        try:
            reply = self.rpc(wire.Twalk(fid=self.ROOT_FID, newfid=fid,
                                        names=split_path(path)))
        except FsError:
            self.free_fid(fid)
            raise
        if not reply.found:
            self.free_fid(fid)
            return None
        self.clunk(fid)
        return reply

    def clunk(self, fid: int) -> None:
        try:
            self.rpc(wire.Tclunk(fid=fid))
        finally:
            self.free_fid(fid)

    def stat(self, path: str) -> wire.Rstat:
        fid = self.walk_fid(path)
        try:
            return self.rpc(wire.Tstat(fid=fid))
        finally:
            self.clunk(fid)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                self._channel.close()
                return
            self._closed = True
        self._channel.close()
        self._recv_thread.join(timeout=5)

    def __enter__(self) -> "MuxClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- client-side node proxies ------------------------------------------------


class RemoteSession:
    """An open remote file: reads, writes and close map to RPCs.

    Mirrors the :class:`~repro.fs.server.SynthSession` surface
    (``read``/``readlines``/``write``/``seek``/``close``/``mode``/
    ``pos``/``closed``, context manager) so everything that consumes
    local sessions — the shell's redirections, ``help``'s tools —
    works on remote files unchanged.
    """

    def __init__(self, client: MuxClient, fid: int, mode: str,
                 name: str) -> None:
        self._client = client
        self._fid = fid
        self.mode = mode
        self.name = name
        self.closed = False
        self.pos = 0
        self._seek_to: int | None = None

    def _check_open(self, op: str) -> None:
        if self.closed:
            raise Closed(path=self.name, op=op)

    def read(self, n: int = -1) -> str:
        self._check_open("read")
        offset = wire.SEQUENTIAL if self._seek_to is None else self._seek_to
        self._seek_to = None
        reply = self._client.rpc(wire.Tread(fid=self._fid, offset=offset,
                                            count=n))
        if offset != wire.SEQUENTIAL:
            self.pos = offset
        self.pos += len(reply.data)
        return reply.data

    def readlines(self) -> list[str]:
        return self.read().splitlines(keepends=True)

    def write(self, s: str) -> int:
        self._check_open("write")
        reply = self._client.rpc(wire.Twrite(fid=self._fid, data=s))
        self.pos += reply.count
        return reply.count

    def seek(self, pos: int) -> None:
        # applied server-side on the next read, where the snapshot is
        self._seek_to = pos

    def close(self) -> None:
        """Clunk the fid; close-time server errors surface here once."""
        if self.closed:
            return
        self.closed = True
        self._client.clunk(self._fid)

    def __del__(self) -> None:
        # a dropped handle must still flush its server-side tail
        try:
            self.close()
        except Exception:
            pass  # interpreter teardown / connection gone

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class RemoteFile(File):
    """A client-side proxy for a file served across the wire.

    Each access is one chain in one write: walk a fresh fid and open
    it, and for ``data`` also read or write it and clunk.  A screen
    poll is one round trip.  The first failure in chain order is the
    one raised; the replies behind it are dropped unread.
    """

    def __init__(self, client: MuxClient, path: str, mtime: int = 0) -> None:
        Node.__init__(self, basename(path))  # no local .data storage
        self._client = client
        self._path = path
        self.mtime = mtime

    @property
    def data(self) -> str:  # type: ignore[override]
        return self._transfer("r", wire.Tread())[2].data

    @data.setter
    def data(self, value: str) -> None:
        self._transfer("w", wire.Twrite(data=value))

    def open(self, mode: str) -> RemoteSession:
        client = self._client
        fid = client.alloc_fid()
        try:
            walked, opened = client.batch(self._walk_open(fid, mode))
        except FsError:
            client.free_fid(fid)
            raise
        failure = self._failure([walked, opened])
        if failure is None:
            return RemoteSession(client, fid, mode, self._path)
        if isinstance(walked, wire.Rwalk) and walked.found:
            client.clunk(fid)  # the open failed on a walked fid
        else:
            client.free_fid(fid)
        raise failure

    def _transfer(self, mode: str, op: wire.Message) -> list[wire.Message]:
        """Walk, open in *mode*, *op*, clunk: one chain on a fresh fid."""
        client = self._client
        fid = op.fid = client.alloc_fid()
        try:
            replies = client.batch(self._walk_open(fid, mode)
                                   + [op, wire.Tclunk(fid=fid)])
        finally:
            client.free_fid(fid)
        failure = self._failure(replies)
        if failure is not None:
            raise failure
        return replies

    def _walk_open(self, fid: int, mode: str) -> list[wire.Message]:
        return [wire.Twalk(fid=MuxClient.ROOT_FID, newfid=fid,
                           names=split_path(self._path)),
                wire.Topen(fid=fid, mode=mode)]

    def _failure(self, replies: list[wire.Message]) -> FsError | None:
        """The first failure in chain order; a missed walk is the
        walk's NotFound, not the error of the open queued behind it."""
        for reply in replies:
            if isinstance(reply, wire.Rerror):
                return reply.to_exc()
            if isinstance(reply, wire.Rwalk) and not reply.found:
                return NotFound(path=self._path, op="walk")
        return None


class RemoteDir(Dir):
    """A client-side proxy for a directory served across the wire.

    Satisfies everything :class:`~repro.fs.namespace.Namespace` asks
    of a directory — ``lookup`` walks, ``entries`` stats — so mounting
    the proxy makes the whole remote tree appear, unions and globs
    included.  The remote's *structure* is the server's to change:
    ``attach``/``detach`` are refused.
    """

    def __init__(self, client: MuxClient, path: str = "/",
                 mtime: int = 0) -> None:
        super().__init__(basename(path) or "/")
        self._client = client
        self._path = path
        self.mtime = mtime

    def _make(self, path: str, is_dir: bool, mtime: int) -> Node:
        if is_dir:
            return RemoteDir(self._client, path, mtime)
        return RemoteFile(self._client, path, mtime)

    def lookup(self, name: str) -> Node | None:
        path = join(self._path, name)
        reply = self._client.probe(path)
        if reply is None:
            return None
        return self._make(path, reply.is_dir, reply.mtime)

    def entries(self) -> list[Node]:
        reply = self._client.stat(self._path)
        return [self._make(join(self._path, child.name), child.is_dir,
                           child.mtime)
                for child in reply.children]

    def attach(self, node: Node) -> Node:
        raise Invalid(f"'{self._path}': remote tree; create through the "
                      f"server", path=self._path, op="create")

    def detach(self, name: str) -> None:
        raise Invalid(f"'{self._path}': remote tree; remove through the "
                      f"server", path=self._path, op="remove")


def mount_remote(client: MuxClient) -> RemoteDir:
    """The client's proxy for the server's root, ready for ``mount``."""
    return RemoteDir(client, "/", client.root_stat.mtime)


__all__ = ["SocketChannel", "channel_pair", "dial",
           "FrameReader", "WireServer", "MuxClient", "RemoteSession",
           "RemoteFile", "RemoteDir", "mount_remote"]
