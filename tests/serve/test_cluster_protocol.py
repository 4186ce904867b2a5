"""Wire protocol and frame transport: pure unit tests, no worker processes."""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.serve import DeadlineExceeded, ServerClosed, ServerOverloaded
from repro.serve.cluster import ChannelClosed, FrameChannel, WorkerCrashed
from repro.serve.cluster.protocol import (
    ERROR_CODES,
    HEADER,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    Frame,
    FrameKind,
    ProtocolError,
    RemoteServingError,
    decode_error,
    decode_header,
    decode_ndarray,
    decode_request,
    decode_request_traced,
    decode_response,
    encode_error,
    encode_frame,
    encode_ndarray,
    encode_request,
    encode_response,
    error_code_for,
    exception_from_error,
)


# --------------------------------------------------------------------------- #
# frames
# --------------------------------------------------------------------------- #
class TestFrameHeader:
    def test_round_trip(self):
        data = encode_frame(FrameKind.REQUEST, 42, b"payload")
        kind, request_id, payload_len = decode_header(data[: HEADER.size])
        assert kind == FrameKind.REQUEST
        assert request_id == 42
        assert payload_len == len(b"payload")
        assert data[HEADER.size :] == b"payload"

    def test_bad_magic_fails_loudly(self):
        data = bytearray(encode_frame(FrameKind.PING))
        data[0:2] = b"XX"
        with pytest.raises(ProtocolError, match="magic"):
            decode_header(bytes(data[: HEADER.size]))

    def test_version_mismatch_fails_loudly(self):
        header = HEADER.pack(MAGIC, PROTOCOL_VERSION + 1, int(FrameKind.PING), 0, 0)
        with pytest.raises(ProtocolError, match="version"):
            decode_header(header)

    def test_unknown_kind_rejected(self):
        header = HEADER.pack(MAGIC, PROTOCOL_VERSION, 250, 0, 0)
        with pytest.raises(ProtocolError, match="kind"):
            decode_header(header)

    def test_absurd_payload_length_rejected(self):
        header = HEADER.pack(
            MAGIC, PROTOCOL_VERSION, int(FrameKind.REQUEST), 0, MAX_PAYLOAD_BYTES + 1
        )
        with pytest.raises(ProtocolError, match="corrupt"):
            decode_header(header)

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError, match="header"):
            decode_header(b"RQ\x01")


class TestNdarrayPayload:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(24, dtype=np.float32).reshape(2, 3, 4),
            np.array([[1.5, -2.5]], dtype=np.float64),
            np.arange(7, dtype=np.int64),
            np.array(3.25, dtype=np.float32),  # 0-d
            np.zeros((2, 0, 3), dtype=np.float32),  # empty axis
        ],
    )
    def test_round_trip_bitwise(self, array):
        decoded, offset = decode_ndarray(encode_ndarray(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        np.testing.assert_array_equal(decoded, array)
        assert offset == len(encode_ndarray(array))

    def test_non_contiguous_input_is_fine(self):
        array = np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2]
        decoded, _ = decode_ndarray(encode_ndarray(array))
        np.testing.assert_array_equal(decoded, array)

    def test_decoded_array_is_writable(self):
        decoded, _ = decode_ndarray(encode_ndarray(np.ones(3, dtype=np.float32)))
        decoded[0] = 7.0  # must not raise: payload buffers are transient

    def test_truncated_payload_rejected(self):
        payload = encode_ndarray(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ProtocolError, match="truncated"):
            decode_ndarray(payload[:-3])


class TestRequestPayload:
    def test_round_trip_with_unicode_name(self):
        array = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(np.float32)
        name, decoded = decode_request(encode_request("resnet-mixed-é", array))
        assert name == "resnet-mixed-é"
        np.testing.assert_array_equal(decoded, array)

    def test_empty_name_allowed(self):
        name, decoded = decode_request(encode_request("", np.zeros(1, dtype=np.float32)))
        assert name == ""
        assert decoded.shape == (1,)


class TestTracedFrames:
    """Version-2 trace blocks: optional, backward compatible, loud when corrupt."""

    def test_traced_request_round_trip(self):
        array = np.random.default_rng(1).standard_normal((2, 3, 4)).astype(np.float32)
        trace = {"trace_ids": ["a1", "b2"], "hop": 3}
        name, decoded, got = decode_request_traced(encode_request("m", array, trace=trace))
        assert name == "m"
        np.testing.assert_array_equal(decoded, array)
        assert got == trace

    def test_untraced_request_decodes_trace_none(self):
        payload = encode_request("m", np.zeros((1, 2), dtype=np.float32))
        name, _, trace = decode_request_traced(payload)
        assert name == "m"
        assert trace is None

    def test_untraced_payload_is_byte_identical_to_v1_shape(self):
        # A version-2 frame without a trace block must be byte-for-byte what
        # version 1 produced — that is what makes old decoders keep working.
        array = np.ones((2, 2), dtype=np.float32)
        assert encode_request("m", array) == encode_request("m", array, trace=None)

    def test_old_decoder_ignores_trace_block(self):
        # decode_request (the version-1 decoder) on a traced frame still
        # yields the name and array; the trailing block is simply unread.
        array = np.arange(6, dtype=np.float32).reshape(2, 3)
        payload = encode_request("m", array, trace={"trace_ids": ["x"]})
        name, decoded = decode_request(payload)
        assert name == "m"
        np.testing.assert_array_equal(decoded, array)

    def test_traced_response_round_trip(self):
        logits = np.random.default_rng(2).standard_normal((4, 10)).astype(np.float32)
        trace = {"trace_ids": ["a1"], "execute_s": 0.0123, "pid": 4242}
        decoded, got = decode_response(encode_response(logits, trace))
        np.testing.assert_array_equal(decoded, logits)
        assert got == trace

    def test_untraced_response_round_trip(self):
        logits = np.zeros((1, 4), dtype=np.float32)
        decoded, trace = decode_response(encode_response(logits))
        np.testing.assert_array_equal(decoded, logits)
        assert trace is None

    def test_old_version_header_still_accepted(self):
        # Frames from a version-1 peer (header byte 1, no trace block) must
        # decode cleanly during a rolling upgrade.
        assert MIN_PROTOCOL_VERSION < PROTOCOL_VERSION
        header = HEADER.pack(MAGIC, MIN_PROTOCOL_VERSION, int(FrameKind.REQUEST), 3, 7)
        kind, request_id, payload_len = decode_header(header)
        assert kind == FrameKind.REQUEST
        assert request_id == 3
        assert payload_len == 7

    def test_pre_support_version_rejected(self):
        header = HEADER.pack(MAGIC, MIN_PROTOCOL_VERSION - 1, int(FrameKind.PING), 0, 0)
        with pytest.raises(ProtocolError, match="version"):
            decode_header(header)

    def test_truncated_trace_block_fails_loudly(self):
        payload = encode_request("m", np.ones(2, dtype=np.float32), trace={"k": "v"})
        with pytest.raises(ProtocolError, match="tra"):
            decode_request_traced(payload[:-2])

    def test_malformed_trace_json_fails_loudly(self):
        base = encode_request("m", np.ones(2, dtype=np.float32))
        bad = base + struct.pack("!I", 4) + b"!!!!"
        with pytest.raises(ProtocolError, match="tra"):
            decode_request_traced(bad)


class TestTypedErrors:
    @pytest.mark.parametrize(
        "error, code, expected_type",
        [
            (ServerOverloaded("queue full"), "overloaded", ServerOverloaded),
            (ServerClosed("stopped"), "closed", ServerClosed),
            (WorkerCrashed("pid 123 died"), "worker_crashed", WorkerCrashed),
            (ValueError("bad shape"), "bad_request", ValueError),
            (KeyError("nope"), "unknown_model", KeyError),
            (RuntimeError("anything else"), "serving_failed", RemoteServingError),
        ],
    )
    def test_typed_round_trip(self, error, code, expected_type):
        assert error_code_for(error) == code
        payload = encode_error(error)
        got_code, message = decode_error(payload)
        assert got_code == code
        assert str(error).strip("'") in message
        assert isinstance(exception_from_error(payload), expected_type)

    def test_subclass_maps_to_nearest_code(self):
        class CustomOverload(ServerOverloaded):
            pass

        assert error_code_for(CustomOverload("x")) == "overloaded"

    def test_deadline_error_roundtrips_the_wire_typed(self):
        assert ERROR_CODES["deadline"] is DeadlineExceeded
        error = exception_from_error(encode_error(DeadlineExceeded("too late")))
        assert isinstance(error, DeadlineExceeded)
        assert "too late" in str(error)


# --------------------------------------------------------------------------- #
# FrameChannel over a socketpair
# --------------------------------------------------------------------------- #
class TestFrameChannel:
    def _pair(self):
        a, b = socket.socketpair()
        return FrameChannel(a), FrameChannel(b)

    def test_send_recv_round_trip(self):
        left, right = self._pair()
        try:
            left.send(FrameKind.REQUEST, 7, b"abc")
            frame = right.recv(timeout=2.0)
            assert frame == Frame(FrameKind.REQUEST, 7, b"abc")
        finally:
            left.close()
            right.close()

    def test_timeout_returns_none_and_resumes_mid_frame(self):
        a, b = socket.socketpair()
        right = FrameChannel(b)
        try:
            data = encode_frame(FrameKind.RESPONSE, 9, b"0123456789")
            a.sendall(data[:10])  # half a header
            assert right.recv(timeout=0.05) is None  # partial bytes stay buffered

            def finish():
                time.sleep(0.05)
                a.sendall(data[10:])

            thread = threading.Thread(target=finish)
            thread.start()
            frame = right.recv(timeout=2.0)
            thread.join()
            assert frame == Frame(FrameKind.RESPONSE, 9, b"0123456789")
        finally:
            a.close()
            right.close()

    def test_eof_raises_channel_closed(self):
        left, right = self._pair()
        left.close()
        with pytest.raises(ChannelClosed):
            right.recv(timeout=2.0)
        right.close()

    def test_send_after_peer_gone_raises(self):
        left, right = self._pair()
        right.close()
        with pytest.raises(ChannelClosed):
            for _ in range(64):  # fill any kernel buffer until the pipe breaks
                left.send(FrameKind.PING, 0, b"x" * 65536)
        left.close()

    def test_interleaved_concurrent_senders_keep_frames_atomic(self):
        left, right = self._pair()
        received = []
        try:
            def reader():
                for _ in range(40):
                    frame = right.recv(timeout=5.0)
                    received.append(frame)

            reader_thread = threading.Thread(target=reader)
            reader_thread.start()
            payloads = {k: bytes([65 + k]) * (1000 + k) for k in range(4)}

            def sender(k):
                for _ in range(10):
                    left.send(FrameKind.RESPONSE, k, payloads[k])

            senders = [threading.Thread(target=sender, args=(k,)) for k in range(4)]
            for thread in senders:
                thread.start()
            for thread in senders:
                thread.join()
            reader_thread.join(timeout=10.0)
            assert len(received) == 40
            for frame in received:
                assert frame.payload == payloads[frame.request_id]
        finally:
            left.close()
            right.close()
