"""Property tests: every wire message survives encode -> decode.

The codec is the trust boundary of the transport — a frame that
round-trips wrong corrupts a session silently, and a malformed frame
that doesn't raise :class:`~repro.fs.errors.Invalid` lets garbage
masquerade as requests.  Hypothesis drives both directions.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs import wire
from repro.fs.errors import (
    Closed,
    FsError,
    Invalid,
    IOFault,
    NotFound,
    TAXONOMY,
)

texts = st.text(max_size=200)
names = st.text(max_size=40)
tags = st.integers(min_value=0, max_value=0xFFFF)
fids = st.integers(min_value=0, max_value=0xFFFFFFFF)
mtimes = st.integers(min_value=0, max_value=2**62)
counts = st.integers(min_value=-1, max_value=2**31 - 1)
offsets = st.integers(min_value=-1, max_value=2**62)
modes = st.sampled_from(["r", "w", "a", "rw"])
bools = st.booleans()

stat_entries = st.builds(wire.StatEntry, name=names, is_dir=bools,
                         mtime=mtimes)

messages = st.one_of(
    st.builds(wire.Tattach, tag=tags, fid=fids, uname=names, aname=names),
    st.builds(wire.Rattach, tag=tags, is_dir=bools, mtime=mtimes),
    st.builds(wire.Twalk, tag=tags, fid=fids, newfid=fids,
              names=st.lists(names, max_size=8)),
    st.builds(wire.Rwalk, tag=tags, found=bools, is_dir=bools, mtime=mtimes),
    st.builds(wire.Topen, tag=tags, fid=fids, mode=modes),
    st.builds(wire.Ropen, tag=tags),
    st.builds(wire.Tread, tag=tags, fid=fids, offset=offsets, count=counts),
    st.builds(wire.Rread, tag=tags, data=texts),
    st.builds(wire.Twrite, tag=tags, fid=fids, data=texts),
    st.builds(wire.Rwrite, tag=tags, count=fids),
    st.builds(wire.Tclunk, tag=tags, fid=fids),
    st.builds(wire.Rclunk, tag=tags),
    st.builds(wire.Tstat, tag=tags, fid=fids),
    st.builds(wire.Rstat, tag=tags, stat=stat_entries,
              children=st.lists(stat_entries, max_size=8)),
    st.builds(wire.Rerror, tag=tags, kind=names, errop=names, path=names,
              message=texts),
    st.builds(wire.Tship, tag=tags, sid=names,
              verb=st.sampled_from(["reset", "append", "state", "drop",
                                    "hello"]),
              seq=offsets, crc=fids, meta=names, data=texts),
    st.builds(wire.Rship, tag=tags, ack=offsets),
)


class TestRoundTrip:
    @given(messages)
    @settings(max_examples=300, deadline=None)
    def test_encode_decode_identity(self, msg):
        frame = wire.encode(msg)
        decoded, consumed = wire.decode(frame)
        assert consumed == len(frame)
        assert decoded == msg

    @given(st.lists(messages, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_concatenated_frames_decode_in_order(self, msgs):
        """A byte stream of frames yields the messages in order."""
        stream = b"".join(wire.encode(m) for m in msgs)
        out, pos = [], 0
        while pos < len(stream):
            msg, pos = wire.decode(stream, pos)
            assert msg is not None
            out.append(msg)
        assert out == msgs

    def test_max_size_payload_round_trips(self):
        """A read reply that exactly fills MAX_MESSAGE survives."""
        header = 7 + 4  # frame header + data length prefix
        data = "x" * (wire.MAX_MESSAGE - header)
        msg = wire.Rread(tag=1, data=data)
        frame = wire.encode(msg)
        assert len(frame) == wire.MAX_MESSAGE
        decoded, _ = wire.decode(frame)
        assert decoded.data == data

    def test_oversize_message_refused_at_encode(self):
        with pytest.raises(Invalid):
            wire.encode(wire.Rread(tag=1, data="x" * wire.MAX_MESSAGE))

    @given(messages)
    @settings(max_examples=100, deadline=None)
    def test_op_names_cover_every_type(self, msg):
        assert msg.op in ("attach", "walk", "open", "read", "write",
                          "clunk", "stat", "error", "ship")


class TestMalformedFrames:
    @given(messages, st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncated_frame_is_partial_not_garbage(self, msg, data):
        """Cutting a frame short never yields a message: the decoder
        asks for more bytes (returns None) — it must not raise for a
        prefix that could still complete."""
        frame = wire.encode(msg)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        decoded, pos = wire.decode(frame[:cut])
        assert decoded is None
        assert pos == 0

    @given(messages)
    @settings(max_examples=100, deadline=None)
    def test_truncated_payload_with_lying_size_raises(self, msg):
        """A frame whose size field claims less than its payload needs
        raises Invalid instead of mis-slicing."""
        frame = wire.encode(msg)
        if len(frame) == 7:  # header-only messages have nothing to lie about
            return
        lying = struct.pack("<I", 7) + frame[4:]
        with pytest.raises(Invalid):
            # size says "no payload" but the type expects fields, so
            # either the cursor runs out or trailing bytes are detected
            wire.decode(lying)

    def test_unknown_message_type_raises(self):
        frame = struct.pack("<IBH", 7, 99, 0)  # type 99 is unassigned
        with pytest.raises(Invalid):
            wire.decode(frame)

    def test_undersized_size_field_raises(self):
        with pytest.raises(Invalid):
            wire.decode(struct.pack("<IBH", 3, wire.Rclunk.type, 0))

    def test_oversized_size_field_raises(self):
        frame = struct.pack("<IBH", wire.MAX_MESSAGE + 1, wire.Rread.type, 0)
        with pytest.raises(Invalid):
            wire.decode(frame)

    def test_trailing_garbage_in_frame_raises(self):
        clean = wire.encode(wire.Rclunk(tag=3))
        padded = struct.pack("<I", len(clean) + 2) + clean[4:] + b"xx"
        with pytest.raises(Invalid):
            wire.decode(padded)

    @given(st.binary(min_size=7, max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_random_bytes_never_crash_the_decoder(self, blob):
        """Arbitrary bytes either decode, await more input, or raise
        Invalid — never any other exception."""
        try:
            wire.decode(blob)
        except Invalid:
            pass


class TestErrorCarriage:
    @given(st.sampled_from(TAXONOMY), names, texts)
    @settings(max_examples=100, deadline=None)
    def test_taxonomy_errors_survive_the_wire(self, cls, path, message):
        exc = cls(message or None, path=path or None, op="open")
        reply = wire.Rerror.from_exc(5, exc)
        frame = wire.encode(reply)
        decoded, _ = wire.decode(frame)
        rebuilt = decoded.to_exc()
        assert type(rebuilt) is cls
        assert rebuilt.kind == exc.kind
        assert rebuilt.path == exc.path
        assert rebuilt.op == exc.op
        assert str(rebuilt) == str(exc)

    def test_unknown_kind_degrades_to_base_fserror(self):
        reply = wire.Rerror(tag=1, kind="martian", errop="read",
                            path="/x", message="weird")
        exc = reply.to_exc()
        assert type(exc) is FsError
        assert str(exc) == "weird"

    def test_plain_exception_becomes_io_kind(self):
        reply = wire.Rerror.from_exc(2, ValueError("boom"))
        assert reply.kind == "io"
        assert "boom" in reply.message

    def test_specific_kinds_map_back(self):
        for cls, kind in ((NotFound, "notfound"), (Closed, "closed"),
                          (IOFault, "iofault")):
            reply = wire.Rerror.from_exc(1, cls(path="/p", op="read"))
            assert reply.kind == kind
            assert type(reply.to_exc()) is cls
