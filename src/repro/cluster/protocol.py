"""Length-prefixed, versioned wire protocol for the proving cluster.

Every frame on a cluster connection is::

    MAGIC(2) | version(1) | msg_type(1) | u32 payload_len | u32 crc32 | payload

The payload is one *value* in a small tagged binary encoding (None, bool,
arbitrary-precision int, float, str, bytes, list, dict with str keys, and
C-contiguous numpy arrays for images) — enough to carry job specs, image
tensors, telemetry frames, and the byte blobs produced by
:mod:`repro.snark.serialize` (proofs, verifying keys, proving keys travel
as ``bytes`` fields and are validated on decode by that module, so the
cluster layer never invents its own point formats).

Decoding is strict: truncated frames, bad magic, unknown versions or
message types, CRC mismatches, unknown value tags, and trailing bytes all
raise :class:`ProtocolError` — a malformed or bit-flipped frame can never
be half-parsed into a wrong job.  A peer closing its socket at a frame
boundary raises :class:`ConnectionClosed` (a ``ProtocolError`` subclass)
so callers can tell clean disconnects from corruption.
"""

from __future__ import annotations

import enum
import socket
import struct
import zlib
from typing import Any, Dict, List, Tuple

import numpy as np

MAGIC = b"ZN"
PROTOCOL_VERSION = 1

# magic, version, msg_type, payload_len, payload_crc32
_HEADER = struct.Struct(">2sBBII")
HEADER_BYTES = _HEADER.size

# Hard ceiling on a single frame; a proving-key blob for the mini models
# is a few MB, images are KB — anything near this bound is corruption.
MAX_FRAME_BYTES = 256 << 20


class ProtocolError(ValueError):
    """Raised on malformed, truncated, or corrupted frames."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (EOF at a frame boundary)."""


class MsgType(enum.IntEnum):
    """Frames between a worker node and the coordinator.  Ids 9-15 are
    retired, not free: a peer still sending one (the removed client
    door's submit/watch/stats frames) must get an unknown-type error."""

    HELLO = 1  # node registration: node_id, pid, window, pool size
    HELLO_ACK = 2
    HEARTBEAT = 3  # node liveness + telemetry frame
    HEARTBEAT_ACK = 4
    JOB = 5  # one sharded batch: spec + per-job payloads
    JOB_RESULT = 6  # proved batch: serialized proofs + vk + phases
    JOB_ERROR = 7  # batch failed in the node (e.g. its pool died)
    BYE = 8  # graceful deregistration / coordinator drain


# -- value codec -------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_NDARRAY = 0x09

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


def _encode_into(obj: Any, out: List[bytes]) -> None:
    if obj is None:
        out.append(bytes([_T_NONE]))
    elif obj is True:
        out.append(bytes([_T_TRUE]))
    elif obj is False:
        out.append(bytes([_T_FALSE]))
    elif isinstance(obj, (int, np.integer)):
        v = int(obj)
        sign = 1 if v < 0 else 0
        mag = abs(v)
        body = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
        out.append(bytes([_T_INT, sign]) + _U32.pack(len(body)) + body)
    elif isinstance(obj, (float, np.floating)):
        out.append(bytes([_T_FLOAT]) + _F64.pack(float(obj)))
    elif isinstance(obj, str):
        body = obj.encode("utf-8")
        out.append(bytes([_T_STR]) + _U32.pack(len(body)) + body)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        body = bytes(obj)
        out.append(bytes([_T_BYTES]) + _U32.pack(len(body)) + body)
    elif isinstance(obj, np.ndarray):
        dt = obj.dtype.str.encode("ascii")
        arr = np.ascontiguousarray(obj)
        if arr.shape != obj.shape:  # ascontiguousarray promotes 0-d to (1,)
            arr = arr.reshape(obj.shape)
        out.append(
            bytes([_T_NDARRAY, len(dt)])
            + dt
            + bytes([arr.ndim])
            + b"".join(_U32.pack(d) for d in arr.shape)
        )
        body = arr.tobytes()
        out.append(_U32.pack(len(body)) + body)
    elif isinstance(obj, (list, tuple)):
        out.append(bytes([_T_LIST]) + _U32.pack(len(obj)))
        for item in obj:
            _encode_into(item, out)
    elif isinstance(obj, dict):
        out.append(bytes([_T_DICT]) + _U32.pack(len(obj)))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ProtocolError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            body = key.encode("utf-8")
            out.append(_U32.pack(len(body)) + body)
            _encode_into(value, out)
    else:
        raise ProtocolError(f"cannot encode {type(obj).__name__}")


def encode_value(obj: Any) -> bytes:
    """Encode one value in the tagged binary format."""
    out: List[bytes] = []
    _encode_into(obj, out)
    return b"".join(out)


class _Reader:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        end = self.offset + n
        if n < 0 or end > len(self.data):
            raise ProtocolError("truncated value")
        chunk = self.data[self.offset : end]
        self.offset = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def value(self) -> Any:
        tag = self.u8()
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            sign = self.u8()
            if sign not in (0, 1):
                raise ProtocolError(f"bad int sign byte {sign:#x}")
            mag = int.from_bytes(self.take(self.u32()), "big")
            return -mag if sign else mag
        if tag == _T_FLOAT:
            return _F64.unpack(self.take(8))[0]
        if tag == _T_STR:
            try:
                return self.take(self.u32()).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"bad utf-8 in string: {exc}") from None
        if tag == _T_BYTES:
            return self.take(self.u32())
        if tag == _T_NDARRAY:
            dt = self.take(self.u8()).decode("ascii", errors="replace")
            try:
                dtype = np.dtype(dt)
            except TypeError:
                raise ProtocolError(f"bad ndarray dtype {dt!r}") from None
            ndim = self.u8()
            shape = tuple(self.u32() for _ in range(ndim))
            body = self.take(self.u32())
            expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if len(body) != expected:
                raise ProtocolError(
                    f"ndarray body is {len(body)} bytes, shape needs {expected}"
                )
            return np.frombuffer(body, dtype=dtype).reshape(shape).copy()
        if tag == _T_LIST:
            return [self.value() for _ in range(self.u32())]
        if tag == _T_DICT:
            count = self.u32()
            out: Dict[str, Any] = {}
            for _ in range(count):
                key = self.take(self.u32()).decode("utf-8")
                out[key] = self.value()
            return out
        raise ProtocolError(f"unknown value tag {tag:#x}")


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing bytes."""
    reader = _Reader(data)
    obj = reader.value()
    if reader.offset != len(data):
        raise ProtocolError(
            f"{len(data) - reader.offset} trailing byte(s) after value"
        )
    return obj


# -- framing -----------------------------------------------------------------------


def _frame_crc(msg_type: int, body: bytes) -> int:
    # Seed the CRC with the version and message type so header corruption
    # (e.g. a bit flip turning JOB into JOB_RESULT) is caught too — the
    # length-prefix header itself carries no other integrity check.
    return zlib.crc32(body, zlib.crc32(bytes([PROTOCOL_VERSION, msg_type])))


def pack_frame(msg_type: MsgType, payload: Dict[str, Any]) -> bytes:
    """One wire frame: header + CRC protecting payload, version, and type."""
    body = encode_value(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"payload of {len(body)} bytes exceeds frame cap")
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, int(msg_type), len(body),
        _frame_crc(int(msg_type), body),
    )
    return header + body


def unpack_frame(data: bytes) -> Tuple[MsgType, Dict[str, Any]]:
    """Decode one complete frame from ``data`` (must be exactly one frame)."""
    if len(data) < HEADER_BYTES:
        raise ProtocolError("frame shorter than header")
    magic, version, msg_type, length, crc = _HEADER.unpack(
        data[:HEADER_BYTES]
    )
    _check_header(magic, version, msg_type, length)
    body = data[HEADER_BYTES:]
    if len(body) != length:
        raise ProtocolError(
            f"frame body is {len(body)} bytes, header says {length}"
        )
    return _decode_body(msg_type, body, crc)


def _check_header(magic: bytes, version: int, msg_type: int, length: int) -> None:
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version} unsupported (speaking "
            f"{PROTOCOL_VERSION})"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds cap")
    try:
        MsgType(msg_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {msg_type:#x}") from None


def _decode_body(
    msg_type: int, body: bytes, crc: int
) -> Tuple[MsgType, Dict[str, Any]]:
    if _frame_crc(msg_type, body) != crc:
        raise ProtocolError("payload CRC mismatch (corrupted frame)")
    payload = decode_value(body)
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a dict")
    return MsgType(msg_type), payload


# -- socket I/O --------------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> bytes:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if at_boundary and remaining == n:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Tuple[MsgType, Dict[str, Any]]:
    """Read exactly one frame; blocks until it arrives.

    Raises :class:`ConnectionClosed` on clean EOF, :class:`ProtocolError`
    on anything malformed, and lets socket timeouts/``OSError`` propagate.
    """
    header = _recv_exact(sock, HEADER_BYTES, at_boundary=True)
    magic, version, msg_type, length, crc = _HEADER.unpack(header)
    _check_header(magic, version, msg_type, length)
    body = _recv_exact(sock, length, at_boundary=False) if length else b""
    return _decode_body(msg_type, body, crc)


def write_frame(
    sock: socket.socket, msg_type: MsgType, payload: Dict[str, Any]
) -> None:
    """Serialize and send one frame (``sendall``; caller holds any lock)."""
    sock.sendall(pack_frame(msg_type, payload))
