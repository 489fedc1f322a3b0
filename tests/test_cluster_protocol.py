"""Unit + property tests for the cluster wire protocol.

The decoder must be strict: a corrupted or truncated frame can raise, but
it can never half-parse into a wrong job.  Round trips are exact,
including arbitrary-precision ints (field elements travel as Python ints)
and ndarray dtype/shape.
"""

import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.protocol import (
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    ConnectionClosed,
    MsgType,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_value,
    encode_value,
    pack_frame,
    read_frame,
    unpack_frame,
    write_frame,
)

# Strategy for the JSON-ish values frames carry (dict keys must be str).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 300), max_value=1 << 300),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestValueCodec:
    @given(value=_values)
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_bigint_roundtrip(self):
        # BN254 field elements are ~254-bit; they must survive exactly.
        v = (1 << 254) - 3
        assert decode_value(encode_value(v)) == v
        assert decode_value(encode_value(-v)) == -v

    def test_tuple_decodes_as_list(self):
        assert decode_value(encode_value((1, 2))) == [1, 2]

    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.zeros((1, 2, 2), dtype=np.int64),
            np.array([1.5, -2.5], dtype=np.float32),
            np.array([], dtype=np.uint8),
            np.array(7, dtype=np.int32),  # 0-d
        ],
    )
    def test_ndarray_roundtrip(self, arr):
        out = decode_value(encode_value(arr))
        assert isinstance(out, np.ndarray)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_noncontiguous_ndarray(self):
        arr = np.arange(16, dtype=np.int64).reshape(4, 4).T
        assert np.array_equal(decode_value(encode_value(arr)), arr)

    def test_numpy_scalars_coerce(self):
        assert decode_value(encode_value(np.int64(-5))) == -5
        assert decode_value(encode_value(np.float64(1.5))) == 1.5

    def test_non_str_dict_key_rejected(self):
        with pytest.raises(ProtocolError):
            encode_value({1: "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(ProtocolError):
            encode_value(object())

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode_value(encode_value(42) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError):
            decode_value(b"\xfe")

    def test_bad_int_sign_rejected(self):
        data = bytes([0x03, 0x02]) + struct.pack(">I", 1) + b"\x01"
        with pytest.raises(ProtocolError):
            decode_value(data)

    @given(data=st.binary(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_garbage_never_crashes_unhandled(self, data):
        try:
            decode_value(data)
        except ProtocolError:
            pass  # the only acceptable failure mode


class TestFraming:
    def test_roundtrip(self):
        payload = {"job_id": "j1", "n": 2**200, "blob": b"\x00\x01"}
        msg_type, decoded = unpack_frame(pack_frame(MsgType.JOB, payload))
        assert msg_type is MsgType.JOB
        assert decoded == payload

    def test_bad_magic(self):
        frame = bytearray(pack_frame(MsgType.HELLO, {}))
        frame[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="magic"):
            unpack_frame(bytes(frame))

    def test_unknown_version(self):
        frame = bytearray(pack_frame(MsgType.HELLO, {}))
        frame[2] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            unpack_frame(bytes(frame))

    def test_unknown_msg_type(self):
        # 9-15 framed a client's submit/watch/stats traffic: retired.
        for msg_type in (0xEE, *range(9, 16)):
            frame = bytearray(pack_frame(MsgType.HELLO, {}))
            frame[3] = msg_type
            with pytest.raises(ProtocolError, match="message type"):
                unpack_frame(bytes(frame))

    def test_length_mismatch(self):
        frame = pack_frame(MsgType.HELLO, {"a": 1})
        with pytest.raises(ProtocolError):
            unpack_frame(frame[:-1])
        with pytest.raises(ProtocolError):
            unpack_frame(frame + b"\x00")

    def test_crc_detects_payload_corruption(self):
        frame = bytearray(pack_frame(MsgType.JOB, {"job_id": "j1"}))
        frame[HEADER_BYTES + 2] ^= 0x01
        with pytest.raises(ProtocolError, match="CRC"):
            unpack_frame(bytes(frame))

    def test_oversized_length_rejected_before_alloc(self):
        header = struct.Struct(">2sBBII").pack(
            MAGIC, PROTOCOL_VERSION, int(MsgType.JOB), MAX_FRAME_BYTES + 1, 0
        )
        with pytest.raises(ProtocolError, match="cap"):
            unpack_frame(header + b"")

    def test_non_dict_payload_rejected(self):
        # pack_frame doesn't type-check, so a buggy sender could frame a
        # bare list; the receiver must reject it.
        frame = pack_frame(MsgType.JOB, [1, 2, 3])
        with pytest.raises(ProtocolError, match="dict"):
            unpack_frame(frame)

    def test_every_bitflip_in_header_or_payload_raises(self):
        frame = pack_frame(MsgType.JOB, {"model": "SHAL", "seed": 7})
        for pos in range(len(frame) * 8):
            mutated = bytearray(frame)
            mutated[pos // 8] ^= 1 << (pos % 8)
            try:
                msg_type, payload = unpack_frame(bytes(mutated))
            except ProtocolError:
                continue
            # surviving flips must not alter the decoded content
            assert (msg_type, payload) == (
                MsgType.JOB, {"model": "SHAL", "seed": 7},
            )


class TestSocketIO:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_write_then_read(self):
        a, b = self._pair()
        try:
            image = np.arange(8, dtype=np.int64).reshape(2, 4)
            write_frame(a, MsgType.JOB, {"image": image, "job_id": "j9"})
            msg_type, payload = read_frame(b)
            assert msg_type is MsgType.JOB
            assert payload["job_id"] == "j9"
            assert np.array_equal(payload["image"], image)
        finally:
            a.close()
            b.close()

    def test_interleaved_frames_keep_boundaries(self):
        a, b = self._pair()
        try:
            for i in range(5):
                write_frame(a, MsgType.HEARTBEAT, {"seq": i})
            for i in range(5):
                msg_type, payload = read_frame(b)
                assert (msg_type, payload["seq"]) == (MsgType.HEARTBEAT, i)
        finally:
            a.close()
            b.close()

    def test_clean_eof_raises_connection_closed(self):
        a, b = self._pair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                read_frame(b)
        finally:
            b.close()

    def test_mid_frame_eof_is_protocol_error_not_clean_close(self):
        a, b = self._pair()
        try:
            frame = pack_frame(MsgType.JOB, {"job_id": "j1", "pad": b"x" * 64})
            a.sendall(frame[: HEADER_BYTES + 3])  # header + partial body
            a.close()
            with pytest.raises(ProtocolError) as excinfo:
                read_frame(b)
            assert not isinstance(excinfo.value, ConnectionClosed)
        finally:
            b.close()

    def test_large_frame_across_many_recv_calls(self):
        a, b = self._pair()
        try:
            blob = bytes(range(256)) * 4096  # 1 MiB
            done = threading.Event()

            def sender():
                write_frame(a, MsgType.JOB_RESULT, {"blob": blob})
                done.set()

            thread = threading.Thread(target=sender, daemon=True)
            thread.start()
            msg_type, payload = read_frame(b)
            assert msg_type is MsgType.JOB_RESULT
            assert payload["blob"] == blob
            assert done.wait(5.0)
        finally:
            a.close()
            b.close()
