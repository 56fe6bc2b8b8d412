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

Transports are anything with ``send``/``recv``/``close``:
:func:`channel_pair` builds an in-memory byte pipe (optionally with a
``max_chunk`` so every read is short, exercising frame reassembly),
and :meth:`WireServer.listen` / :func:`dial` speak the same frames
over real TCP sockets.

Flow control: the client bounds its own outstanding requests with a
semaphore, and the server protects itself independently — a connection
exceeding ``max_outstanding`` in-flight requests gets ``busy`` error
replies until it drains.

Instrumentation (:mod:`repro.metrics`): the server counts every RPC
(``wire.rpc.<op>``) and byte (``wire.bytes.in`` / ``wire.bytes.out``),
tracks the in-flight gauge (``mux.inflight``), and records per-op
service-time histograms (``wire.rpc.<op>``, microseconds); the client
records round-trip histograms (``mux.rpc.<op>``).
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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
from repro.metrics.counter import (
    MetricsRegistry,
    incr,
    observe,
    use_registry,
)

_RECV_SIZE = 1 << 16

# Per-connection write-queue watermarks: above _HIGH_WATER queued
# output the reactor stops reading that connection (the client gets
# TCP backpressure instead of an unbounded server-side queue); reads
# resume once the queue drains below _LOW_WATER.
_HIGH_WATER = 1 << 20
_LOW_WATER = 1 << 18


# -- transports --------------------------------------------------------------


class _Buffer:
    """One direction of an in-memory pipe: a byte queue with blocking.

    A ``notify`` hook makes the buffer reactor-friendly: whoever owns
    the reading end can register a callback fired after every put (and
    on close), and drain with :meth:`get_nowait` instead of blocking.
    """

    def __init__(self) -> None:
        self._data = bytearray()
        self._closed = False
        self._cond = threading.Condition()
        self._notify = None

    def set_notify(self, fn) -> None:
        with self._cond:
            self._notify = fn
            fire = bool(self._data) or self._closed
        if fire and fn is not None:
            fn()

    def put(self, data: bytes) -> None:
        with self._cond:
            if self._closed:
                # plain OSError, like a socket: a reply flushed to a
                # peer that hung up is teardown, not a session error
                raise BrokenPipeError("pipe closed")
            self._data.extend(data)
            self._cond.notify_all()
            notify = self._notify
        if notify is not None:
            notify()

    def get(self, n: int) -> bytes:
        with self._cond:
            while not self._data and not self._closed:
                self._cond.wait()
            if not self._data:
                return b""
            out = bytes(self._data[:n])
            del self._data[:n]
            return out

    def get_nowait(self, n: int) -> bytes | None:
        """Up to *n* buffered bytes; b"" at EOF; None when empty but open."""
        with self._cond:
            if self._data:
                out = bytes(self._data[:n])
                del self._data[:n]
                return out
            return b"" if self._closed else None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            notify = self._notify
        if notify is not None:
            notify()


class PipeChannel:
    """One endpoint of an in-memory bidirectional byte pipe.

    With ``max_chunk`` set, every receive returns at most that many
    bytes — a deterministic short read, so framing code can prove it
    reassembles messages split at arbitrary byte boundaries.
    """

    def __init__(self, rx: _Buffer, tx: _Buffer,
                 max_chunk: int | None = None) -> None:
        self._rx = rx
        self._tx = tx
        self.max_chunk = max_chunk

    def send(self, data: bytes) -> None:
        # short *writes* at the transport: hand the peer one chunk at
        # a time so a reader can wake mid-frame
        step = self.max_chunk or len(data) or 1
        for i in range(0, len(data), step):
            self._tx.put(data[i:i + step])

    def recv(self, n: int = _RECV_SIZE) -> bytes:
        if self.max_chunk is not None:
            n = min(n, self.max_chunk)
        return self._rx.get(n)

    def try_recv(self, n: int = _RECV_SIZE) -> bytes | None:
        """Non-blocking receive: None = nothing buffered, b"" = EOF."""
        if self.max_chunk is not None:
            n = min(n, self.max_chunk)
        return self._rx.get_nowait(n)

    def set_notify(self, fn) -> None:
        """Fire *fn* whenever bytes (or EOF) become available to recv."""
        self._rx.set_notify(fn)

    def close(self) -> None:
        self._rx.close()
        self._tx.close()


def channel_pair(max_chunk: int | None = None
                 ) -> tuple[PipeChannel, PipeChannel]:
    """Two connected in-memory endpoints (client end, server end)."""
    a, b = _Buffer(), _Buffer()
    return PipeChannel(a, b, max_chunk), PipeChannel(b, a, max_chunk)


class SocketChannel:
    """The same interface over a connected TCP socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise Closed(f"socket send failed: {exc}",
                         path="<socket>", op="write") from exc

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


def dial(host: str, port: int) -> SocketChannel:
    """Connect to a :meth:`WireServer.listen` endpoint."""
    return SocketChannel(socket.create_connection((host, port)))


class FrameReader:
    """Reassemble wire frames from a byte stream of arbitrary chunks.

    Frames decode zero-copy out of one growing receive buffer (a
    ``memoryview`` over a ``bytearray``); consumed bytes are compacted
    in place instead of re-slicing the remainder per frame.
    """

    def __init__(self, channel, bytes_counter: str | None = None) -> None:
        self._channel = channel
        self._buf = bytearray()
        self._bytes_counter = bytes_counter

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
            if self._bytes_counter:
                incr(self._bytes_counter, len(chunk))
            buf += chunk


# -- server ------------------------------------------------------------------


class _Reactor:
    """One thread, one selector: owns every server-side channel.

    Sockets (connections and listeners) register with the selector
    directly; in-memory pipes integrate through :meth:`mark_ready`,
    fired by the pipe's notify hook, so both transport kinds are
    driven by the same loop.  Other threads hand work to the loop with
    :meth:`submit`; a socketpair waker interrupts ``select``.
    """

    def __init__(self, name: str = "wire-reactor",
                 registry=None) -> None:
        # the loop's fallback metrics context: errors constructed on
        # the reactor thread outside any per-RPC binding (flushing
        # writes to a peer that hung up, teardown of a torn channel)
        # book against the owning server, not the process default
        self._registry = registry
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._lock = threading.Lock()
        self._commands: deque = deque()
        self._ready: set = set()
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

    def mark_ready(self, conn) -> None:
        """A pipe connection has bytes (or EOF) waiting."""
        with self._lock:
            self._ready.add(conn)
        self._wake()

    def stop(self) -> None:
        with self._lock:
            if not self._running:
                return
            self._running = False
        self._wake()
        if not self.on_thread():
            self._thread.join(timeout=5)

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

    # -- the loop ---------------------------------------------------------

    def _run(self) -> None:
        if self._registry is not None:
            with use_registry(self._registry):
                self._run_loop()
        else:
            self._run_loop()

    def _run_loop(self) -> None:
        try:
            while True:
                with self._lock:
                    if not self._running:
                        break
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
                            break
                        fn = self._commands.popleft()
                    try:
                        fn()
                    except Exception:
                        pass
                while True:
                    with self._lock:
                        if not self._ready:
                            break
                        ready, self._ready = self._ready, set()
                    for conn in ready:
                        try:
                            conn.on_pipe_ready()
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
    """What a connection's fid currently refers to."""

    __slots__ = ("node", "path", "session")

    def __init__(self, node: Node, path: str) -> None:
        self.node = node
        self.path = path
        self.session = None  # set by open


class _Connection:
    """One client connection on the reactor: incremental zero-copy
    parse, per-connection write queue, worker-pool dispatch.

    The reactor thread feeds bytes into ``_rbuf`` and decodes frames
    straight out of it through a ``memoryview`` (one compaction per
    burst, no per-frame copies); handlers run on the server's worker
    pool — or inline on the reactor when the pool is disabled
    (``workers=0``) — and their replies queue on the connection,
    flushed by the reactor with writable-event pacing.  A queue past
    ``_HIGH_WATER`` pauses reading (the client sees transport
    backpressure); draining past ``_LOW_WATER`` resumes it.

    With a session factory on the server, the connection also owns one
    **hosted session** — created at attach, torn down with the
    connection — and binds that session's metrics registry around all
    work done on its behalf, so N connections keep N separate ledgers.
    Parsing pauses while an attach is being served, so no later frame
    can race into the wrong ledger.
    """

    def __init__(self, server: "WireServer", channel,
                 initial: bytes = b"") -> None:
        self.server = server
        self.channel = channel
        self.reactor = server._reactor
        self.fids: dict[int, _FidState] = {}
        self.inflight = 0
        self.session = None  # set at attach by the session factory
        self.closed = False
        self._lock = threading.Lock()       # fids + inflight
        self._wlock = threading.Lock()      # write queue
        self._wbuf: deque = deque()
        self._wsize = 0
        self._flush_scheduled = False
        self._rbuf = bytearray(initial)
        # FIFO service queue: frames hand off to the worker pool in
        # arrival order through a single drainer task per connection,
        # so a pipelined burst (walk, open, read, clunk on one fid) is
        # served in the order it was sent.  No parallelism is lost:
        # non-attach ops on a connection already serialize on the
        # session's oplock (or the server-wide one for bare trees), so
        # the pool's concurrency lives *across* connections either way.
        self._svc_lock = threading.Lock()
        self._svc_queue: deque = deque()
        self._svc_running = False
        self._paused_attach = False
        self._paused_write = False
        self._is_socket = hasattr(channel, "fileno")
        self._events = 0                    # current selector mask
        self._eof = False
        self._torn = False
        self._done = threading.Event()

    def _bind(self):
        """The metrics binding for work on this connection's behalf."""
        registry = None
        if self.session is not None:
            registry = getattr(self.session, "metrics", None)
        if registry is None:
            registry = self.server.metrics
        return nullcontext() if registry is None else use_registry(registry)

    # -- reactor-side input path (reactor thread only) --------------------

    def _start(self) -> None:
        if self._torn:
            return
        if self._is_socket:
            self.channel.setblocking(False)
            self._update_events()
        else:
            self.channel.set_notify(self._notify_pipe)
        if self._rbuf:
            # bytes a router peeked on our behalf still count as input
            with self._bind():
                incr("wire.bytes.in", len(self._rbuf))
            self._process()

    def _notify_pipe(self) -> None:  # any thread (the pipe's writer)
        self.reactor.mark_ready(self)

    def on_pipe_ready(self) -> None:
        if not self._torn:
            self._on_readable()

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
                # bound one burst; re-arm so the rest is not stranded
                if not self._is_socket:
                    self.reactor.mark_ready(self)
                break
        if got:
            with self._bind():
                incr("wire.bytes.in", got)
        self._process()

    def _process(self) -> None:
        """Decode and dispatch every complete frame buffered so far."""
        while not self._torn and not self._paused_attach:
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
                        if self._dispatch(msg):
                            stop = True
                            break
                        if (self._is_socket and not self._paused_write
                                and self._wsize >= _HIGH_WATER):
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
            if not stop or self._paused_attach or self._paused_write:
                break
            # an inline attach swapped the session: loop to re-bind
        self._flush_writes()
        if self._eof and not self._paused_attach and not self._torn:
            self._start_teardown()

    def _dispatch(self, msg: wire.Message) -> bool:
        """Queue *msg* for service; True = stop parsing this burst."""
        incr(f"wire.rpc.{msg.op}")
        with self._lock:
            busy = self.inflight >= self.server.max_outstanding
            if not busy:
                self.inflight += 1
        if busy:
            # backpressure: the client has too many requests in
            # flight; refuse this one instead of queueing unbounded
            err = wire.Rerror.from_exc(
                msg.tag, Busy("server busy: too many outstanding "
                              "requests", path="<wire>", op=msg.op))
            self._reply(err)
            return False
        incr("mux.inflight")
        executor = self.server._executor
        if executor is None:
            # inline mode: RPCs run on the reactor itself — the fast
            # path for trees that never block
            before = self.session
            self._serve_one(msg)
            return self.session is not before
        resume = (msg.type == wire.Tattach.type
                  and self.server.session_factory is not None)
        if resume:
            # the hosted session must be installed before any later
            # frame is served; pause parsing until the attach lands
            self._paused_attach = True
        with self._svc_lock:
            self._svc_queue.append((msg, resume))
            if self._svc_running:
                return resume
            self._svc_running = True
        executor.submit(self._drain_service)
        return resume

    def _drain_service(self) -> None:  # worker pool
        """Serve this connection's queued frames, strictly in order."""
        while True:
            with self._svc_lock:
                if not self._svc_queue:
                    self._svc_running = False
                    return
                msg, resume = self._svc_queue.popleft()
            self._serve_one(msg, resume)

    def _resume_attach(self) -> None:  # reactor thread
        self._paused_attach = False
        if not self._torn:
            self._process()

    # -- service (worker pool, or the reactor when inline) ----------------

    def _serve_one(self, msg: wire.Message, resume: bool = False) -> None:
        # executor threads don't inherit the reactor's context;
        # re-bind the session's registry here.  Inline on the reactor
        # the burst loop in _process is already bound, so the context
        # dance would be pure overhead on the hot path.
        if self.server._executor is None:
            self._serve_bound(msg)
            return
        with self._bind():
            self._serve_bound(msg)
        if resume:
            self.reactor.submit(self._resume_attach)

    def _serve_bound(self, msg: wire.Message) -> None:
        start = time.perf_counter()
        try:
            reply = self._handle(msg)
        except FsError as exc:
            reply = wire.Rerror.from_exc(msg.tag, exc)
        except Exception as exc:  # a server bug must not kill the loop
            reply = wire.Rerror.from_exc(msg.tag, exc)
        finally:
            observe(f"wire.rpc.{msg.op}",
                    (time.perf_counter() - start) * 1e6)
            with self._lock:
                self.inflight -= 1
            incr("mux.inflight", -1)
        self._reply(reply)

    # -- reply path -------------------------------------------------------

    def _reply(self, reply: wire.Message) -> None:
        frame = wire.encode(reply)
        if self._send_frame(frame):
            incr("wire.bytes.out", len(frame))

    def _send_frame(self, frame: bytes) -> bool:  # any thread
        with self._wlock:
            if self.closed:
                return False  # peer went away; nothing to tell it
            self._wbuf.append(frame)
            self._wsize += len(frame)
            scheduled = self._flush_scheduled
            self._flush_scheduled = True
        if not scheduled and not self.reactor.on_thread():
            # on the reactor, the burst loop flushes once at the end;
            # pool threads must wake it
            self.reactor.submit(self._flush_writes)
        return True

    def _flush_writes(self) -> None:  # reactor thread only
        if self._torn:
            return
        while True:
            with self._wlock:
                self._flush_scheduled = False
                if not self._wbuf:
                    data = None
                else:
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
            if data is None:
                break
            if self._is_socket:
                try:
                    sent = self.channel.try_send(data)
                except OSError:
                    self._start_teardown()
                    return
                with self._wlock:
                    self._wsize -= sent
                if sent < len(data):
                    with self._wlock:
                        self._wbuf.appendleft(bytes(data[sent:]))
                    break  # kernel buffer full: wait for EVENT_WRITE
            else:
                try:
                    self.channel.send(data)
                except OSError:
                    self._start_teardown()
                    return
                with self._wlock:
                    self._wsize -= len(data)
        if (self._is_socket and not self._paused_write
                and self._wsize >= _HIGH_WATER):
            # worker replies outran the peer between its reads; the
            # dispatch-time check in _process never sees that, so the
            # write path must trip the pause itself
            self._paused_write = True
            with self._bind():
                incr("wire.backpressure.paused")
        self._update_events()
        if self._paused_write and self._wsize <= _LOW_WATER:
            self._paused_write = False
            with self._bind():
                incr("wire.backpressure.resumed")
            self._update_events()
            self.reactor.submit(self._process)

    def _update_events(self) -> None:  # reactor thread only
        if not self._is_socket or self._torn:
            return
        mask = 0
        if not self._paused_write and not self._eof:
            mask |= selectors.EVENT_READ
        with self._wlock:
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
        # a hosted session serializes on its own lock, so one slow
        # session never stalls its neighbours; bare trees use the
        # server-wide lock as before
        lock = self.server._oplock
        if self.session is not None:
            lock = getattr(self.session, "oplock", None) or lock
        if isinstance(msg, wire.Tattach):
            return self._attach(msg)
        if isinstance(msg, wire.Tship):
            # replica feed frames never belong to a hosted session and
            # serialize per-connection through the service queue; the
            # handler locks its own state, so no oplock is taken here
            handler = self.server.ship_handler
            if handler is None:
                raise Invalid("no replica feed handler on this server",
                              path="<wire>", op="ship")
            return wire.Rship(tag=msg.tag, ack=handler(msg))
        if isinstance(msg, wire.Twalk):
            with lock:
                return self._walk(msg)
        if isinstance(msg, wire.Topen):
            with lock:
                return self._open(msg)
        if isinstance(msg, wire.Tread):
            with lock:
                return self._read(msg)
        if isinstance(msg, wire.Twrite):
            with lock:
                return self._write(msg)
        if isinstance(msg, wire.Tclunk):
            with lock:
                return self._clunk(msg)
        if isinstance(msg, wire.Tstat):
            with lock:
                return self._stat(msg)
        raise Invalid(f"unexpected message {type(msg).__name__}",
                      path="<wire>", op="dispatch")

    def _fid(self, fid: int, op: str) -> _FidState:
        with self._lock:
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
        with self._lock:
            self.fids[msg.fid] = _FidState(root, "/")
        return wire.Rattach(tag=msg.tag, is_dir=root.is_dir,
                            mtime=root.mtime)

    def _walk(self, msg: wire.Twalk) -> wire.Message:
        src = self._fid(msg.fid, "walk")
        with self._lock:
            if msg.newfid != msg.fid and msg.newfid in self.fids:
                raise Invalid(f"fid {msg.newfid} already in use",
                              path="<wire>", op="walk")
        node, path = src.node, src.path
        for name in msg.names:
            if not isinstance(node, Dir):
                raise NotADirectory(path=path, op="walk")
            child = node.lookup(name)
            path = join(path, name)
            if child is None:
                # a clean miss is an answer, not an error — local
                # resolve() returns None without raising, and a remote
                # lookup must not poison fs.error.* counters either
                return wire.Rwalk(tag=msg.tag, found=False)
            node = child
        with self._lock:
            self.fids[msg.newfid] = _FidState(node, path)
        return wire.Rwalk(tag=msg.tag, found=True, is_dir=node.is_dir,
                          mtime=node.mtime)

    def _open(self, msg: wire.Topen) -> wire.Message:
        state = self._fid(msg.fid, "open")
        if state.session is not None:
            raise Invalid(f"fid {msg.fid} already open",
                          path=state.path, op="open")
        if state.node.is_dir:
            raise IsADirectory(path=state.path, op="open")
        opener = getattr(state.node, "open", None)
        if opener is None:
            raise Invalid(f"'{state.path}' cannot be opened",
                          path=state.path, op="open")
        session = opener(msg.mode)
        if isinstance(session, FileHandle) and self.server.clock is not None:
            session._clock = self.server.clock
        state.session = session
        return wire.Ropen(tag=msg.tag)

    def _session(self, msg, op: str):
        state = self._fid(msg.fid, op)
        if state.session is None:
            raise Invalid(f"fid {msg.fid} not open", path=state.path, op=op)
        return state

    def _read(self, msg: wire.Tread) -> wire.Message:
        state = self._session(msg, "read")
        if msg.offset != wire.SEQUENTIAL:
            state.session.seek(msg.offset)
        return wire.Rread(tag=msg.tag, data=state.session.read(msg.count))

    def _write(self, msg: wire.Twrite) -> wire.Message:
        state = self._session(msg, "write")
        return wire.Rwrite(tag=msg.tag, count=state.session.write(msg.data))

    def _clunk(self, msg: wire.Tclunk) -> wire.Message:
        state = self._fid(msg.fid, "clunk")
        with self._lock:
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

    def _start_teardown(self) -> None:  # reactor thread only
        if self._torn:
            return
        self._torn = True
        with self._wlock:
            self.closed = True
        if self._is_socket and self._events:
            try:
                self.reactor.unregister(self.channel)
            except (KeyError, ValueError, OSError):
                pass
            self._events = 0
        self._teardown()

    def _teardown(self) -> None:
        try:
            with self._lock:
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
    thread owns every socket and pipe, parses frames zero-copy out of
    per-connection receive buffers, and enforces write-queue
    backpressure.  Handlers that touch session or tree state run on a
    small worker pool (``workers``); with ``workers=0`` they run inline
    on the reactor — the fastest path, for trees whose handlers never
    block.

    ``serialize=True`` (the default) runs node operations one at a
    time under a server-wide lock: the trees we serve (``help``'s
    window files in particular) are not thread-safe, and the wire
    layer's concurrency — many connections, many outstanding tags —
    still stands.  Turn it off to bench raw transport parallelism over
    trees that tolerate it.

    A :class:`~repro.fs.faults.FaultPlan` can be installed at the
    transport boundary (``plan=``): every fid's opens, reads, writes
    and closes consult it, with paths reported under *base*, so the
    fault schedules from PR 2 apply unchanged to remote service.
    """

    def __init__(self, root: Node | None = None, *, max_outstanding: int = 64,
                 workers: int = 4, serialize: bool = True,
                 plan=None, base: str = "/",
                 clock: Clock | None = None,
                 metrics=None, session_factory=None) -> None:
        if root is None and session_factory is None:
            raise TypeError("WireServer needs a root or a session factory")
        if plan is not None and root is not None:
            from repro.fs.faults import wrap
            root = wrap(root, plan, base=base)
        self.root = root
        self.max_outstanding = max_outstanding
        self.clock = clock
        # metrics: the registry connection work reports into when no
        # hosted session is bound (None: whatever is active).
        # session_factory: called with (uname, aname) at attach to
        # build a per-connection hosted session — an object with a
        # ``root`` node, and optionally ``metrics`` (its private
        # ledger), ``oplock`` (its serializer) and ``close()``.
        self.metrics = metrics
        self.session_factory = session_factory
        # ship_handler: called with each wire.Tship a replica feed
        # pushes at this server; returns the ack watermark.  Installed
        # by a ReplicaStandby (repro.serve.replica); None refuses ship
        # frames with Invalid.
        self.ship_handler = None
        self._oplock = threading.Lock() if serialize else _NullLock()
        self._executor = (ThreadPoolExecutor(max_workers=workers)
                          if workers else None)
        self._reactor = _Reactor(registry=metrics)
        self._lock = threading.Lock()
        self._conns: list[_Connection] = []
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
            self._conns.append(conn)
        self._reactor.submit(conn._start)
        return _ConnHandle(conn)

    def listen(self, host: str = "127.0.0.1",
               port: int = 0) -> tuple[str, int]:
        """Accept TCP connections on *host*:*port* (0 = ephemeral).

        Returns the bound address; every accepted socket is served
        like a pipe connection.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(128)
        sock.setblocking(False)
        with self._lock:
            self._sockets.append(sock)
        self._reactor.submit(
            lambda: self._reactor.register(
                sock, selectors.EVENT_READ,
                lambda mask: self._accept_ready(sock)))
        return sock.getsockname()[:2]

    def _accept_ready(self, sock: socket.socket) -> None:  # reactor thread
        while True:
            try:
                client, _addr = sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed
            try:
                self.serve(SocketChannel(client))
            except Closed:
                client.close()
                return

    def close(self) -> None:
        """Stop listening, drop every connection, release the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sockets, self._sockets = self._sockets, []
            conns, self._conns = self._conns, []

        def shutdown() -> None:
            for sock in sockets:
                try:
                    self._reactor.unregister(sock)
                except (KeyError, ValueError, OSError):
                    pass
                sock.close()
            for conn in conns:
                conn._start_teardown()

        self._reactor.submit(shutdown)
        for conn in conns:
            conn._done.wait(timeout=5)
        self._reactor.stop()
        if self._executor is not None:
            self._executor.shutdown(wait=False)

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
            conns, self._conns = self._conns, []
        self._reactor.stop()
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass
        for conn in conns:
            conn._torn = True
            with conn._wlock:
                conn.closed = True
            try:
                conn.channel.close()
            except Exception:
                pass
            conn._done.set()
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    def __enter__(self) -> "WireServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class _NullLock:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


# -- client ------------------------------------------------------------------


class _Pending:
    __slots__ = ("event", "reply")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.reply: wire.Message | None = None


class MuxClient:
    """One connection's client end: tagged, concurrent, bounded.

    Many threads may call :meth:`rpc` at once; each call takes a free
    tag, and a receiver thread routes replies back by tag, so slow
    requests do not block fast ones.  ``max_outstanding`` bounds the
    requests in flight — the client-side half of flow control (the
    server enforces its own limit with ``busy`` replies).
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
        self._sem = threading.BoundedSemaphore(max_outstanding)
        self._next_tag = 0
        self._next_fid = self.ROOT_FID + 1
        self._free_fids: list[int] = []
        self._timeout = timeout
        self._closed = False
        # the receiver thread starts with an empty metrics context, so
        # errors it constructs (a torn channel raising Closed/IOFault
        # mid-frame) would land in the process default registry and
        # poison a ledger the connection never belonged to.  They are
        # also redundant: the caller whose rpc() the tear failed gets
        # its own error on its own thread.  Book the noise privately.
        self._registry = MetricsRegistry(f"mux-recv:{id(self):x}")
        self._recv_thread = threading.Thread(target=self._recv_loop,
                                             daemon=True, name="mux-recv")
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
            with use_registry(self._registry):
                while True:
                    msg = self._reader.next_frame()
                    if msg is None:
                        break
                    with self._lock:
                        slot = self._pending.pop(msg.tag, None)
                    if slot is None:
                        incr("mux.orphan_reply")  # timed out or bogus tag
                        continue
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
        with self._sem:
            with self._lock:
                if self._closed:
                    raise Closed("connection closed", path="<wire>",
                                 op=msg.op)
                tag = self._alloc_tag()
                slot = _Pending()
                self._pending[tag] = slot
            msg.tag = tag
            start = time.perf_counter()
            try:
                with self._send_lock:
                    self._channel.send(wire.encode(msg))
            except (Closed, OSError) as exc:
                with self._lock:
                    self._pending.pop(tag, None)
                raise IOFault(f"send failed: {exc}", path="<wire>",
                              op=msg.op) from exc
            if not slot.event.wait(self._timeout):
                with self._lock:
                    self._pending.pop(tag, None)
                raise IOFault(f"rpc timed out after {self._timeout}s",
                              path="<wire>", op=msg.op)
            observe(f"mux.rpc.{msg.op}",
                    (time.perf_counter() - start) * 1e6)
        reply = slot.reply
        if reply is None:
            raise IOFault("connection closed awaiting reply",
                          path="<wire>", op=msg.op)
        if isinstance(reply, wire.Rerror):
            raise reply.to_exc()
        return reply

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
    """A client-side proxy for a file served across the wire."""

    def __init__(self, client: MuxClient, path: str, mtime: int = 0) -> None:
        Node.__init__(self, basename(path))  # no local .data storage
        self._client = client
        self._path = path
        self.mtime = mtime

    @property
    def data(self) -> str:  # type: ignore[override]
        with self.open("r") as session:
            return session.read()

    @data.setter
    def data(self, value: str) -> None:
        with self.open("w") as session:
            session.write(value)

    def open(self, mode: str) -> RemoteSession:
        fid = self._client.walk_fid(self._path)
        try:
            self._client.rpc(wire.Topen(fid=fid, mode=mode))
        except FsError:
            self._client.clunk(fid)
            raise
        return RemoteSession(self._client, fid, mode, self._path)


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


__all__ = ["PipeChannel", "SocketChannel", "channel_pair", "dial",
           "FrameReader", "WireServer", "MuxClient", "RemoteSession",
           "RemoteFile", "RemoteDir", "mount_remote"]
