"""The wire protocol: 9P-style tagged messages with size-prefixed frames.

The paper's ``help`` is a *file server*: "processes on the CPU server
access the screen through the file server", and a remote machine gets
the whole user interface just by mounting it.  Until now our servers
were in-process method calls; this module gives them a wire format so
a server can live in another thread, another process, or behind a real
socket, and :mod:`repro.fs.mux` can multiplex many client sessions
over one transport.

Framing
-------

Every message travels as one frame::

    size[4] type[1] tag[2] payload...

``size`` is a little-endian u32 counting the *entire* frame including
itself (as in 9P); ``type`` selects a message class below; ``tag``
identifies the request so replies can arrive out of order.  Inside the
payload, strings are ``len[2]`` + UTF-8 bytes, data blocks are
``len[4]`` + UTF-8 bytes, and lists carry a ``count[2]`` prefix.

Each T-message (request) has a matching R-message (reply) with type
``T+1``; any request may instead be answered by :class:`Rerror`, which
carries the :mod:`repro.fs.errors` taxonomy over the wire — ``kind``,
``op``, ``path`` and message — so the client can re-raise the exact
error class the server raised.

Malformed input — a truncated frame, an unknown type, a size field
exceeding :data:`MAX_MESSAGE` — raises
:class:`~repro.fs.errors.Invalid`; transports treat that as a fatal
protocol error on the connection.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.fs.errors import TAXONOMY, FsError, Invalid

#: Largest frame either side will accept (size field included).  Big
#: enough for a whole window body, small enough to bound buffering.
MAX_MESSAGE = 1 << 20

#: Reads/writes are sequential by default; a non-negative offset in
#: :class:`Tread` seeks first (the wire form of ``session.seek``).
SEQUENTIAL = -1

_HEADER = struct.Struct("<IBH")  # size, type, tag

#: Bytes in the fixed frame header (size + type + tag).
HEADER_SIZE = _HEADER.size

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")

_KIND_TO_ERROR = {cls.kind: cls for cls in TAXONOMY}


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise Invalid(f"string too long for wire ({len(raw)} bytes)",
                      path="?", op="encode")
    return struct.pack("<H", len(raw)) + raw


def _pack_data(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Cursor:
    """A bounds-checked reader over one frame's payload.

    Works over any bytes-like buffer — ``bytes``, ``bytearray`` or a
    ``memoryview`` into a transport's receive buffer — without copying:
    integers unpack in place via ``unpack_from`` and strings decode
    straight from a slice of the underlying buffer, so a frame costs no
    intermediate ``bytes`` objects beyond its decoded field values.
    """

    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf, pos: int, end: int) -> None:
        self.buf = buf
        self.pos = pos
        self.end = end

    def _advance(self, n: int) -> int:
        pos = self.pos
        if pos + n > self.end:
            raise Invalid("truncated message payload", path="?", op="decode")
        self.pos = pos + n
        return pos

    def take(self, n: int) -> bytes:
        pos = self._advance(n)
        return bytes(self.buf[pos:pos + n])

    def u8(self) -> int:
        return self.buf[self._advance(1)]

    def u16(self) -> int:
        return _U16.unpack_from(self.buf, self._advance(2))[0]

    def u32(self) -> int:
        return _U32.unpack_from(self.buf, self._advance(4))[0]

    def i32(self) -> int:
        return _I32.unpack_from(self.buf, self._advance(4))[0]

    def i64(self) -> int:
        return _I64.unpack_from(self.buf, self._advance(8))[0]

    def string(self) -> str:
        n = self.u16()
        pos = self._advance(n)
        return str(self.buf[pos:pos + n], "utf-8")

    def data(self) -> str:
        n = self.u32()
        pos = self._advance(n)
        return str(self.buf[pos:pos + n], "utf-8")


@dataclass
class Message:
    """Base of every wire message; subclasses define ``type`` and fields."""

    type = 0  # overridden per subclass
    tag: int = 0

    def pack_payload(self) -> bytes:
        return b""

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Message":
        return cls(tag=tag)

    @property
    def op(self) -> str:
        """The op name ('attach', 'walk', ...) this message belongs to."""
        return _TYPE_TO_OP[self.type]


@dataclass
class Tattach(Message):
    """Introduce a connection: bind *fid* to the server's root."""

    type = 100
    fid: int = 0
    uname: str = ""
    aname: str = ""

    def pack_payload(self) -> bytes:
        return (struct.pack("<I", self.fid) + _pack_str(self.uname)
                + _pack_str(self.aname))

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Tattach":
        return cls(tag=tag, fid=cur.u32(), uname=cur.string(),
                   aname=cur.string())


@dataclass
class Rattach(Message):
    type = 101
    is_dir: bool = True
    mtime: int = 0

    def pack_payload(self) -> bytes:
        return struct.pack("<Bq", int(self.is_dir), self.mtime)

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Rattach":
        return cls(tag=tag, is_dir=bool(cur.u8()), mtime=cur.i64())


@dataclass
class Twalk(Message):
    """Resolve *names* starting at *fid*, binding the result to *newfid*."""

    type = 110
    fid: int = 0
    newfid: int = 0
    names: list[str] = field(default_factory=list)

    def pack_payload(self) -> bytes:
        out = struct.pack("<IIH", self.fid, self.newfid, len(self.names))
        for name in self.names:
            out += _pack_str(name)
        return out

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Twalk":
        fid, newfid, n = cur.u32(), cur.u32(), cur.u16()
        return cls(tag=tag, fid=fid, newfid=newfid,
                   names=[cur.string() for _ in range(n)])


@dataclass
class Rwalk(Message):
    """Walk result.  ``found=False`` is a *clean miss* — the final
    component does not exist — mirroring the local convention that
    ``resolve()`` returns None instead of raising, so existence probes
    over the wire do not manufacture errors.  Structural failures
    (walking through a non-directory) still come back as Rerror."""

    type = 111
    found: bool = True
    is_dir: bool = False
    mtime: int = 0

    def pack_payload(self) -> bytes:
        return struct.pack("<BBq", int(self.found), int(self.is_dir),
                           self.mtime)

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Rwalk":
        return cls(tag=tag, found=bool(cur.u8()), is_dir=bool(cur.u8()),
                   mtime=cur.i64())


@dataclass
class Topen(Message):
    """Open *fid* with a mode string ('r', 'w', 'a', 'rw')."""

    type = 112
    fid: int = 0
    mode: str = "r"

    def pack_payload(self) -> bytes:
        return struct.pack("<I", self.fid) + _pack_str(self.mode)

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Topen":
        return cls(tag=tag, fid=cur.u32(), mode=cur.string())


@dataclass
class Ropen(Message):
    type = 113

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Ropen":
        return cls(tag=tag)


@dataclass
class Tread(Message):
    """Read up to *count* chars (-1 = the rest) at *offset* (-1 = here)."""

    type = 116
    fid: int = 0
    offset: int = SEQUENTIAL
    count: int = -1

    def pack_payload(self) -> bytes:
        return struct.pack("<Iqi", self.fid, self.offset, self.count)

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Tread":
        return cls(tag=tag, fid=cur.u32(), offset=cur.i64(), count=cur.i32())


@dataclass
class Rread(Message):
    type = 117
    data: str = ""

    def pack_payload(self) -> bytes:
        return _pack_data(self.data)

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Rread":
        return cls(tag=tag, data=cur.data())


@dataclass
class Twrite(Message):
    type = 118
    fid: int = 0
    data: str = ""

    def pack_payload(self) -> bytes:
        return struct.pack("<I", self.fid) + _pack_data(self.data)

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Twrite":
        return cls(tag=tag, fid=cur.u32(), data=cur.data())


@dataclass
class Rwrite(Message):
    type = 119
    count: int = 0

    def pack_payload(self) -> bytes:
        return struct.pack("<I", self.count)

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Rwrite":
        return cls(tag=tag, count=cur.u32())


@dataclass
class Tclunk(Message):
    """Release *fid*, closing any session opened on it."""

    type = 120
    fid: int = 0

    def pack_payload(self) -> bytes:
        return struct.pack("<I", self.fid)

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Tclunk":
        return cls(tag=tag, fid=cur.u32())


@dataclass
class Rclunk(Message):
    type = 121

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Rclunk":
        return cls(tag=tag)


@dataclass
class StatEntry:
    """One node's metadata; directories also list their children."""

    name: str = ""
    is_dir: bool = False
    mtime: int = 0

    def pack(self) -> bytes:
        return (_pack_str(self.name)
                + struct.pack("<Bq", int(self.is_dir), self.mtime))

    @classmethod
    def unpack(cls, cur: _Cursor) -> "StatEntry":
        return cls(name=cur.string(), is_dir=bool(cur.u8()), mtime=cur.i64())


@dataclass
class Tstat(Message):
    type = 124
    fid: int = 0

    def pack_payload(self) -> bytes:
        return struct.pack("<I", self.fid)

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Tstat":
        return cls(tag=tag, fid=cur.u32())


@dataclass
class Rstat(Message):
    """The node's own stat plus, for directories, its children's."""

    type = 125
    stat: StatEntry = field(default_factory=StatEntry)
    children: list[StatEntry] = field(default_factory=list)

    def pack_payload(self) -> bytes:
        out = self.stat.pack() + struct.pack("<H", len(self.children))
        for child in self.children:
            out += child.pack()
        return out

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Rstat":
        stat = StatEntry.unpack(cur)
        n = cur.u16()
        return cls(tag=tag, stat=stat,
                   children=[StatEntry.unpack(cur) for _ in range(n)])


@dataclass
class Tship(Message):
    """Ship journal bytes for session *sid* to a replica standby.

    The replica feed (:mod:`repro.serve.replica`) is push-based: the
    primary streams each session's journal over an ordinary wire
    connection, one Tship per durable flush.  *verb* says what the
    bytes mean:

    * ``reset`` — *data* replaces the standby's copy of the journal
      (full text: header + snapshot group + suffix) and marks it live.
      Sent when a session is built or woken, when its journal
      compacts, and when a snapshot arrives from another host.
    * ``append`` — *data* extends the standby's copy (suffix records,
      whole lines).  Sent on every journal flush.
    * ``state`` — *meta* carries ``parked``: the session lives on as a
      spooled snapshot; no data.
    * ``drop`` — the session left this host for good (closed, or its
      snapshot drained to another shard); the standby forgets it.
    * ``hello`` — the feed's first frame; carries nothing, but marks
      the connection as a feed whose hang-up means the primary died.

    *seq* is the journal sequence number of the last record covered by
    this frame — the watermark the standby echoes back in
    :class:`Rship` once the bytes are durably appended.  *crc* is
    CRC-32 over the UTF-8 *data* bytes, checked before the append; a
    mismatch is answered with Rerror, never a silent corruption.
    """

    type = 114
    sid: str = ""
    verb: str = "hello"
    seq: int = 0
    crc: int = 0
    meta: str = ""
    data: str = ""

    def pack_payload(self) -> bytes:
        return (_pack_str(self.sid) + _pack_str(self.verb)
                + struct.pack("<qI", self.seq, self.crc)
                + _pack_str(self.meta) + _pack_data(self.data))

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Tship":
        return cls(tag=tag, sid=cur.string(), verb=cur.string(),
                   seq=cur.i64(), crc=cur.u32(), meta=cur.string(),
                   data=cur.data())


@dataclass
class Rship(Message):
    """The standby's ack: *ack* is its durable watermark for the
    session — the journal seq through which every shipped record is
    safely appended.  A primary only acknowledges a client write
    after this reply arrives."""

    type = 115
    ack: int = 0

    def pack_payload(self) -> bytes:
        return struct.pack("<q", self.ack)

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Rship":
        return cls(tag=tag, ack=cur.i64())


@dataclass
class Rerror(Message):
    """Any request's failure reply: the error taxonomy, serialized."""

    type = 107
    kind: str = "io"
    errop: str = ""
    path: str = ""
    message: str = ""

    def pack_payload(self) -> bytes:
        return (_pack_str(self.kind) + _pack_str(self.errop)
                + _pack_str(self.path) + _pack_str(self.message))

    @classmethod
    def unpack_payload(cls, cur: _Cursor, tag: int) -> "Rerror":
        return cls(tag=tag, kind=cur.string(), errop=cur.string(),
                   path=cur.string(), message=cur.string())

    @classmethod
    def from_exc(cls, tag: int, exc: BaseException) -> "Rerror":
        """Serialize *exc* (taxonomy errors keep kind/op/path)."""
        if isinstance(exc, FsError):
            return cls(tag=tag, kind=exc.kind, errop=exc.op or "",
                       path=exc.path or "", message=str(exc))
        return cls(tag=tag, kind="io", errop="", path="", message=str(exc))

    def to_exc(self) -> FsError:
        """Rehydrate the taxonomy error this reply carries.

        Books nothing: the server counted the error when it answered
        it, and the client counts it only where it reports it.
        """
        cls = _KIND_TO_ERROR.get(self.kind, FsError)
        return cls(self.message or None, path=self.path or None,
                   op=self.errop or None)


MESSAGES: tuple[type[Message], ...] = (
    Tattach, Rattach, Twalk, Rwalk, Topen, Ropen, Tread, Rread,
    Twrite, Rwrite, Tclunk, Rclunk, Tstat, Rstat, Tship, Rship, Rerror,
)

_TYPE_TO_CLASS: dict[int, type[Message]] = {m.type: m for m in MESSAGES}
_TYPE_TO_OP = {
    Tattach.type: "attach", Rattach.type: "attach",
    Twalk.type: "walk", Rwalk.type: "walk",
    Topen.type: "open", Ropen.type: "open",
    Tread.type: "read", Rread.type: "read",
    Twrite.type: "write", Rwrite.type: "write",
    Tclunk.type: "clunk", Rclunk.type: "clunk",
    Tstat.type: "stat", Rstat.type: "stat",
    Tship.type: "ship", Rship.type: "ship",
    Rerror.type: "error",
}


def encode(msg: Message) -> bytes:
    """One complete frame for *msg* (size + type + tag + payload)."""
    if not 0 <= msg.tag <= 0xFFFF:
        raise Invalid(f"tag {msg.tag} out of range", path="?", op="encode")
    payload = msg.pack_payload()
    size = _HEADER.size + len(payload)
    if size > MAX_MESSAGE:
        raise Invalid(f"message too large ({size} bytes)",
                      path="?", op="encode")
    return _HEADER.pack(size, msg.type, msg.tag) + payload


def decode(buf, start: int = 0) -> tuple[Message | None, int]:
    """Decode one frame from *buf* at *start*.

    *buf* may be ``bytes``, ``bytearray`` or a ``memoryview``; passing
    a view over the transport's receive buffer decodes the frame
    zero-copy (field values are materialized, the frame itself is
    never re-sliced into an intermediate ``bytes``).

    Returns ``(message, next_start)``; ``(None, start)`` when the
    buffer holds only a partial frame (read more and retry).  Raises
    :class:`~repro.fs.errors.Invalid` for frames that can never become
    valid: an undersized or oversized size field, an unknown message
    type, or a payload shorter than its own length fields claim.
    """
    avail = len(buf) - start
    if avail < _HEADER.size:
        return None, start
    size, mtype, tag = _HEADER.unpack_from(buf, start)
    if size < _HEADER.size:
        raise Invalid(f"frame size {size} smaller than header",
                      path="?", op="decode")
    if size > MAX_MESSAGE:
        raise Invalid(f"frame size {size} exceeds maximum {MAX_MESSAGE}",
                      path="?", op="decode")
    if avail < size:
        return None, start
    cls = _TYPE_TO_CLASS.get(mtype)
    if cls is None:
        raise Invalid(f"unknown message type {mtype}", path="?", op="decode")
    end = start + size
    cur = _Cursor(buf, start + _HEADER.size, end)
    msg = cls.unpack_payload(cur, tag)
    if cur.pos != end:
        raise Invalid(f"frame has {end - cur.pos} trailing bytes",
                      path="?", op="decode")
    return msg, end


__all__ = ["MAX_MESSAGE", "SEQUENTIAL", "HEADER_SIZE", "Message",
           "StatEntry", "Tattach", "Rattach", "Twalk", "Rwalk", "Topen",
           "Ropen", "Tread", "Rread", "Twrite", "Rwrite", "Tclunk",
           "Rclunk", "Tstat", "Rstat", "Tship", "Rship", "Rerror",
           "MESSAGES", "encode", "decode"]
