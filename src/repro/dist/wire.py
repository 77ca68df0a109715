"""Length-prefixed frames over a stream socket: a JSON control header
followed by binary record columns.

The distributed backend's coordinator and workers speak a minimal
message protocol.  A frame is

* a 4-byte big-endian payload length, then the payload:
* a 4-byte big-endian header length and a UTF-8 JSON *control header*
  (message type, shard, attempt, epoch, profile, ...);
* the binary sections of the message's record batches, if any.

Record batches travel in the structure-of-arrays layout the paper's
record sets use (concatenated key bytes and value bytes plus a
directory), never inside the JSON.  Two message fields are reserved
for them, and in the header each is replaced by its counts:

* ``"pairs"`` — a :class:`~repro.framework.records.KeyValueSet` (or
  any list of ``(key, value)`` 2-sequences).  Header: the record count
  ``n``.  Sections: a key column then a value column, each ``n``
  ``<u4`` lengths followed by the concatenated bytes.  Decodes to a
  :class:`~repro.framework.records.KeyValueSet`.
* ``"groups"`` — a list of ``(key, [value, ...])`` groups.  Header:
  ``[groups, values]``.  Sections: a key column, one ``<u4`` value
  count per group, then a flat value column.  Decodes to a list of
  ``(key, values)`` tuples.

``bytes`` appear nowhere else on the wire: a stray one in a control
field fails loudly in ``json.dumps`` (``TypeError``).  A payload whose
counts and lengths do not add up to exactly its size raises
:class:`ConnectionClosed`, like a torn stream.

Two consumption styles match the two sides of the connection:

* workers block on one socket — :func:`recv_msg` reads exactly one
  frame (raising :class:`ConnectionClosed` on a clean or torn EOF);
* the coordinator multiplexes many sockets under ``selectors`` —
  a per-connection :class:`FrameReader` is fed whatever bytes arrived
  and yields only the complete frames buffered so far.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Iterator, Sequence

import numpy as np

from ..framework.records import KeyValueSet

#: Sanity cap on a single frame (1 GiB): a corrupt length prefix
#: should fail loudly, not attempt a giant allocation.
MAX_FRAME = 1 << 30

_HDR = struct.Struct(">I")

#: Directory entry of a column: one little-endian u32 length per item.
_LEN = np.dtype("<u4")


class ConnectionClosed(Exception):
    """The peer closed the connection (mid-frame or between frames),
    or sent a frame that does not parse."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _column(items: Sequence[bytes], out: list) -> None:
    """Append one column's sections: ``<u4`` lengths, then the blob."""
    out.append(np.fromiter(map(len, items), dtype=_LEN,
                           count=len(items)).tobytes())
    out.append(b"".join(items))


def _pairs_sections(batch, out: list) -> int:
    if isinstance(batch, KeyValueSet):
        keys, values = batch.keys, batch.values
    else:
        keys = [p[0] for p in batch]
        values = [p[1] for p in batch]
    _column(keys, out)
    _column(values, out)
    return len(keys)


def _groups_sections(groups, out: list) -> list[int]:
    keys = [g[0] for g in groups]
    counts = [len(g[1]) for g in groups]
    values = [v for g in groups for v in g[1]]
    _column(keys, out)
    out.append(np.array(counts, dtype=_LEN).tobytes())
    _column(values, out)
    return [len(keys), len(values)]


def encode(msg: Any) -> bytes:
    """One wire frame: length prefix, control header, record sections."""
    sections: list[bytes] = []
    if isinstance(msg, dict) and ("pairs" in msg or "groups" in msg):
        msg = dict(msg)
        if "pairs" in msg:
            msg["pairs"] = _pairs_sections(msg["pairs"], sections)
        if "groups" in msg:
            msg["groups"] = _groups_sections(msg["groups"], sections)
    header = json.dumps(msg, separators=(",", ":")).encode("utf-8")
    size = _HDR.size + len(header) + sum(map(len, sections))
    if size > MAX_FRAME:
        raise ValueError(f"frame too large: {size} bytes")
    return b"".join([_HDR.pack(size), _HDR.pack(len(header)), header,
                     *sections])


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _count(value: Any) -> int:
    if type(value) is not int or value < 0:
        raise ConnectionClosed(f"bad record count {value!r} in header")
    return value


class _Sections:
    """Bounds-checked cursor over a payload's binary sections."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes, pos: int):
        self.buf = buf
        self.pos = pos

    def _take(self, n: int) -> int:
        """Claim ``n`` bytes; return where they start."""
        start = self.pos
        if n > len(self.buf) - start:
            raise ConnectionClosed(
                f"frame truncated: section wants {n} bytes, "
                f"{len(self.buf) - start} left"
            )
        self.pos = start + n
        return start

    def _lengths(self, n: int) -> np.ndarray:
        start = self._take(_LEN.itemsize * n)
        return np.frombuffer(self.buf, dtype=_LEN, count=n, offset=start)

    def _column(self, n: int) -> list[bytes]:
        lens = self._lengths(n)
        ends = np.cumsum(lens, dtype=np.int64)
        base = self._take(int(lens.sum(dtype=np.int64)))
        buf = self.buf
        return [buf[a:b] for a, b in zip((ends - lens + base).tolist(),
                                         (ends + base).tolist())]

    def pairs(self, n: Any) -> KeyValueSet:
        n = _count(n)
        keys = self._column(n)
        return KeyValueSet.from_lists(keys, self._column(n))

    def groups(self, counts: Any) -> list[tuple[bytes, list[bytes]]]:
        if not isinstance(counts, list) or len(counts) != 2:
            raise ConnectionClosed(f"bad group counts {counts!r}")
        n_groups, n_values = map(_count, counts)
        keys = self._column(n_groups)
        per_group = self._lengths(n_groups)
        if int(per_group.sum(dtype=np.int64)) != n_values:
            raise ConnectionClosed(
                f"group value counts do not sum to the header's {n_values}"
            )
        values = self._column(n_values)
        ends = np.cumsum(per_group, dtype=np.int64)
        return [(k, values[a:b]) for k, a, b in
                zip(keys, (ends - per_group).tolist(), ends.tolist())]

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise ConnectionClosed(
                f"frame has {len(self.buf) - self.pos} trailing bytes"
            )


def decode(payload: bytes) -> Any:
    """Inverse of the payload half of :func:`encode`."""
    payload = bytes(payload)
    try:
        (hlen,) = _HDR.unpack_from(payload)
        if hlen > len(payload) - _HDR.size:
            raise ValueError(f"header length {hlen} exceeds the frame")
        msg = json.loads(payload[_HDR.size:_HDR.size + hlen])
    except (struct.error, ValueError) as exc:
        raise ConnectionClosed(f"malformed frame header: {exc}") from None
    cur = _Sections(payload, _HDR.size + hlen)
    if isinstance(msg, dict):
        if "pairs" in msg:
            msg["pairs"] = cur.pairs(msg["pairs"])
        if "groups" in msg:
            msg["groups"] = cur.groups(msg["groups"])
    cur.finish()
    return msg


# ----------------------------------------------------------------------
# Sockets
# ----------------------------------------------------------------------


def send_msg(sock: socket.socket, msg: Any) -> None:
    """Send one message; propagates ``OSError`` on a dead peer."""
    sock.sendall(encode(msg))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise ConnectionClosed(
                f"peer closed with {n - got} bytes outstanding"
            )
        got += k
    return bytes(buf)


def recv_msg(sock: socket.socket) -> Any:
    """Block until one complete frame arrives; decode it."""
    (length,) = _HDR.unpack(_recv_exact(sock, _HDR.size))
    if length > MAX_FRAME:
        raise ConnectionClosed(f"bad frame length {length}")
    return decode(_recv_exact(sock, length))


class FrameReader:
    """Incremental frame decoder for a multiplexed (select) loop.

    Feed it whatever ``recv`` returned; iterate :meth:`frames` for the
    messages completed so far.  Partial frames stay buffered across
    feeds, so the coordinator never blocks waiting for a slow writer.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def frames(self) -> Iterator[Any]:
        while True:
            if len(self._buf) < _HDR.size:
                return
            (length,) = _HDR.unpack_from(self._buf)
            if length > MAX_FRAME:
                raise ConnectionClosed(f"bad frame length {length}")
            end = _HDR.size + length
            if len(self._buf) < end:
                return
            payload = bytes(self._buf[_HDR.size:end])
            del self._buf[:end]
            yield decode(payload)
