"""Wire protocol: frame codec round-trips, record-batch sections, the
malformed-frame guards and the incremental reader."""

import json
import socket
import struct
import threading

import pytest

from repro.dist.wire import (
    MAX_FRAME,
    ConnectionClosed,
    FrameReader,
    decode,
    encode,
    recv_msg,
    send_msg,
)
from repro.framework.records import KeyValueSet

#: Keys and values exercising every byte class a text codec would trip
#: on: NUL, a lone continuation byte, 0xFF, and empty strings.
ODD = [b"", b"\x00", b"\x80", b"\xff", b"\x00\xff\x80bin", b"a" * 300]


def _round_trip(msg):
    return decode(encode(msg)[4:])


def _raw_payload(header: dict, sections: bytes = b"") -> bytes:
    """A hand-built payload: header length, JSON header, sections."""
    body = json.dumps(header).encode()
    return len(body).to_bytes(4, "big") + body + sections


def _header_size(msg) -> int:
    """Bytes of a frame that are not record sections: both length
    prefixes plus the JSON control header."""
    frame = encode(msg)
    (hlen,) = struct.unpack(">I", frame[4:8])
    return 8 + hlen


class TestCodec:
    def test_round_trip_scalars(self):
        for msg in (None, True, 1, -7, 3.5, "hé", [], {}, [1, "a", None]):
            assert _round_trip(msg) == msg

    def test_round_trip_bytes(self):
        """Arbitrary bytes survive in both columns of a batch."""
        pairs = KeyValueSet([(k, v) for k in ODD for v in ODD])
        out = _round_trip({"type": "result", "pairs": pairs})
        assert out["pairs"] == pairs
        assert out["type"] == "result"

    def test_round_trip_pairs_payload(self):
        """A list of 2-sequences encodes as a batch too; every batch
        decodes to a KeyValueSet of exact bytes."""
        pairs = [[b"key1", b"\x01\x00"], (b"key2", b"\xfe")]
        out = _round_trip({"pairs": pairs, "shard": 3})
        assert isinstance(out["pairs"], KeyValueSet)
        assert list(out["pairs"]) == [(b"key1", b"\x01\x00"),
                                      (b"key2", b"\xfe")]
        assert all(type(k) is bytes and type(v) is bytes
                   for k, v in out["pairs"])
        assert out["shard"] == 3

    def test_empty_pairs(self):
        for pairs in (KeyValueSet(), []):
            out = _round_trip({"pairs": pairs})
            assert isinstance(out["pairs"], KeyValueSet)
            assert len(out["pairs"]) == 0

    def test_round_trip_groups(self):
        groups = [(b"a", [b"1"]), (b"", [b"x"] * 50 + ODD),
                  (b"\xff\x00", [b""]), (b"\x80", ODD)]
        out = _round_trip({"type": "reduce", "groups": groups})
        assert out["groups"] == groups
        assert out["type"] == "reduce"

    def test_empty_groups(self):
        assert _round_trip({"groups": []})["groups"] == []
        # A group may carry no values at all.
        assert _round_trip({"groups": [(b"k", [])]})["groups"] == [
            (b"k", [])]

    def test_pairs_and_groups_in_one_frame(self):
        pairs = KeyValueSet([(b"k", b"v")])
        groups = [(b"g", [b"1", b"2"])]
        out = _round_trip({"pairs": pairs, "groups": groups})
        assert out["pairs"] == pairs and out["groups"] == groups

    def test_bytes_in_control_field_raises(self):
        with pytest.raises(TypeError):
            encode({"type": "result", "message": b"oops"})
        with pytest.raises(TypeError):
            encode({"profile": {"nested": [b"x"]}})

    def test_tuple_encodes_as_list(self):
        assert _round_trip((1, 2)) == [1, 2]

    def test_memoryview_and_bytearray(self):
        """Bytes-likes in a batch decode to exact ``bytes``."""
        out = _round_trip({"pairs": [(bytearray(b"ab"), memoryview(b"cd"))]})
        k, v = out["pairs"][0]
        assert (k, v) == (b"ab", b"cd")
        assert type(k) is bytes and type(v) is bytes

    def test_non_bytes_record_raises(self):
        with pytest.raises(TypeError):
            encode({"pairs": [("str-key", b"v")]})

    def test_length_prefix(self):
        frame = encode({"a": 1})
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4

    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_pairs_frame_size_is_exact(self, n):
        """n records with K key bytes and V value bytes cost exactly
        header + 8n + K + V: a u32 length per key and per value, the
        raw bytes, and nothing per record in the JSON."""
        pairs = KeyValueSet([(b"k%d" % i, b"\x00" * (i % 5))
                             for i in range(n)])
        msg = {"type": "result", "shard": 1, "pairs": pairs}
        frame = encode(msg)
        expect = (_header_size(msg) + 8 * n + pairs.key_bytes
                  + pairs.val_bytes)
        assert len(frame) == expect

    def test_groups_frame_size_is_exact(self):
        groups = [(b"key%d" % g, [b"v" * g] * (g + 1)) for g in range(20)]
        n_values = sum(len(vs) for _, vs in groups)
        k_bytes = sum(len(k) for k, _ in groups)
        v_bytes = sum(len(v) for _, vs in groups for v in vs)
        msg = {"groups": groups}
        assert len(encode(msg)) == (_header_size(msg) + 8 * len(groups)
                                    + k_bytes + 4 * n_values + v_bytes)


class TestMalformedFrames:
    """A payload whose counts and lengths do not add up to exactly its
    size is refused as a broken stream."""

    PAIRS = {"pairs": KeyValueSet([(b"key", b"value"), (b"k2", b"v2")])}
    GROUPS = {"groups": [(b"a", [b"1", b"2"]), (b"b", [b"3"])]}

    @pytest.mark.parametrize("msg", [PAIRS, GROUPS], ids=["pairs", "groups"])
    def test_truncated_sections(self, msg):
        payload = encode(msg)[4:]
        with pytest.raises(ConnectionClosed):
            decode(payload[:-1])

    @pytest.mark.parametrize("msg", [PAIRS, GROUPS], ids=["pairs", "groups"])
    def test_trailing_bytes(self, msg):
        payload = encode(msg)[4:]
        with pytest.raises(ConnectionClosed):
            decode(payload + b"\x00")

    def test_count_larger_than_sections(self):
        # Claims 5 records but carries the sections of one.
        one = (1).to_bytes(4, "little") + b"k" + (1).to_bytes(4, "little")
        with pytest.raises(ConnectionClosed):
            decode(_raw_payload({"pairs": 5}, one + b"v"))
        assert list(decode(_raw_payload({"pairs": 1}, one + b"v"))
                    ["pairs"]) == [(b"k", b"v")]

    def test_record_length_past_the_end(self):
        payload = bytearray(encode(self.PAIRS)[4:])
        hlen = int.from_bytes(payload[:4], "big")
        # First key length: claim far more bytes than the frame holds.
        payload[4 + hlen:8 + hlen] = (1 << 20).to_bytes(4, "little")
        with pytest.raises(ConnectionClosed):
            decode(bytes(payload))

    def test_group_counts_disagree_with_header(self):
        payload = bytearray(encode(self.GROUPS)[4:])
        hlen = int.from_bytes(payload[:4], "big")
        # The counts column follows the key column (2 lengths + b"ab").
        at = 4 + hlen + 8 + 2
        payload[at:at + 4] = (3).to_bytes(4, "little")
        with pytest.raises(ConnectionClosed):
            decode(bytes(payload))

    @pytest.mark.parametrize("bad", [b"", b"\x00\x00", b"\x00\x00\x00\x09{}",
                                     b"\x00\x00\x00\x02\xff\xfe"])
    def test_bad_header(self, bad):
        with pytest.raises(ConnectionClosed):
            decode(bad)

    @pytest.mark.parametrize("header", [
        {"pairs": -1}, {"pairs": "3"}, {"pairs": None}, {"pairs": 1.0},
        {"groups": [1]}, {"groups": [1, -2]}, {"groups": 2},
    ])
    def test_bad_counts_in_header(self, header):
        with pytest.raises(ConnectionClosed):
            decode(_raw_payload(header))


class TestFrameReader:
    def test_split_feeds(self):
        """Frames arriving one byte at a time still decode exactly."""
        msgs = [{"n": i, "pairs": KeyValueSet([(bytes([i]), b"\xff" * i)])}
                for i in range(3)]
        blob = b"".join(encode(m) for m in msgs)
        r = FrameReader()
        got = []
        for i in range(len(blob)):
            r.feed(blob[i:i + 1])
            got.extend(r.frames())
        assert got == msgs
        assert r.pending_bytes == 0

    def test_many_frames_one_feed(self):
        r = FrameReader()
        r.feed(b"".join(encode(i) for i in range(10)))
        assert list(r.frames()) == list(range(10))

    def test_partial_frame_stays_buffered(self):
        r = FrameReader()
        frame = encode({"x": "y"})
        r.feed(frame[:-1])
        assert list(r.frames()) == []
        assert r.pending_bytes == len(frame) - 1
        r.feed(frame[-1:])
        assert list(r.frames()) == [{"x": "y"}]

    def test_bad_length_raises(self):
        r = FrameReader()
        r.feed((MAX_FRAME + 1).to_bytes(4, "big"))
        with pytest.raises(ConnectionClosed):
            list(r.frames())

    def test_malformed_payload_raises(self):
        frame = encode({"groups": [(b"k", [b"v"])]})
        r = FrameReader()
        r.feed((len(frame) - 5).to_bytes(4, "big") + frame[4:-1])
        with pytest.raises(ConnectionClosed):
            list(r.frames())


class TestSocketRoundTrip:
    def test_send_recv(self):
        a, b = socket.socketpair()
        try:
            pairs = KeyValueSet([(b"hello", b"world"), (b"\x00", b"")])
            send_msg(a, {"type": "result", "pairs": pairs})
            send_msg(a, [1, 2])
            assert recv_msg(b) == {"type": "result", "pairs": pairs}
            assert recv_msg(b) == [1, 2]
        finally:
            a.close()
            b.close()

    def test_large_batch_over_socket(self):
        """A frame far bigger than one socket buffer arrives whole."""
        a, b = socket.socketpair()
        pairs = KeyValueSet([(b"w%06d" % i, b"\x01\x00\x00\x00")
                             for i in range(50_000)])
        frame = encode({"pairs": pairs})
        try:
            t = threading.Thread(target=a.sendall, args=(frame,))
            t.start()
            assert recv_msg(b)["pairs"] == pairs
            t.join()
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            frame = encode({"x": 1})
            a.sendall(frame[:3])
            a.close()
            with pytest.raises(ConnectionClosed):
                recv_msg(b)
        finally:
            b.close()

    def test_clean_eof_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_msg(b)
        finally:
            b.close()
