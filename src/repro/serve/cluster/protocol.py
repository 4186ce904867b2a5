"""The cluster wire protocol: versioned, length-prefixed binary frames.

Everything that crosses a process boundary in :mod:`repro.serve.cluster` —
router to worker over a socketpair — is a sequence of **frames** with this layout (all integers big-endian)::

    offset  size  field
    0       2     magic          b"RQ"
    2       1     version        PROTOCOL_VERSION (=2; 1 still decodes)
    3       1     kind           FrameKind (HELLO, REQUEST, RESPONSE, ...)
    4       8     request_id     u64 correlation id (0 for control frames)
    12      4     payload_len    u32 byte length of the payload
    16      ...   payload        kind-specific bytes

A reader that sees a wrong magic or an unknown version fails loudly with
:class:`ProtocolError` — silently misparsing a stream is the one thing a
binary protocol must never do.  Versions from :data:`MIN_PROTOCOL_VERSION`
up to :data:`PROTOCOL_VERSION` are accepted: version 2 added an *optional,
trailing* trace block to REQUEST/RESPONSE payloads, and a version-1 payload
(which simply ends where the ndarray does) still decodes byte-for-byte
identically — the trace block's absence is detected by payload length, not
by version sniffing.  ``payload_len`` is bounded by
:data:`MAX_PAYLOAD_BYTES` so a corrupt header cannot make a reader allocate
gigabytes.

Payload encodings (no pickle anywhere on the hot path):

* **ndarray** (REQUEST input / RESPONSE logits)::

      u8   dtype_len   | dtype_len bytes  numpy dtype string (e.g. "<f4")
      u8   ndim        | ndim * u32       shape dims
      ...  raw C-contiguous array bytes

* **REQUEST** — ``u16 name_len | name utf-8 | ndarray | [trace block]``
  (each worker serves exactly one variant and validates the name).
* **trace block** (optional, version 2) — ``u32 json_len | json utf-8``
  appended after the ndarray in REQUEST and RESPONSE payloads.  Carries the
  batch's trace ids on the way in and the worker's measured execute time on
  the way out, so spans attribute wire transit vs. engine time exactly.
  Decoders that predate it (or ignore it) stop at the ndarray's end and
  are unaffected.
* **ERROR** — ``u16 code_len | code utf-8 | u32 message_len | message utf-8``;
  ``code`` is a stable identifier from :data:`ERROR_CODES` so the receiving
  side re-raises the *typed* exception (:class:`ServerOverloaded` stays
  :class:`ServerOverloaded` across the wire, not a stringly RuntimeError).
* **HELLO / METRICS_REPLY** — UTF-8 JSON (control plane only, never per
  request).
* **PING / PONG / SHUTDOWN / METRICS** — empty payloads.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Dict, Optional, Tuple, Type

import numpy as np

from ..frontend.queuing import DeadlineExceeded, ServerClosed, ServerOverloaded

__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "HEADER",
    "FrameKind",
    "Frame",
    "ProtocolError",
    "WorkerCrashed",
    "RemoteServingError",
    "encode_frame",
    "decode_header",
    "encode_ndarray",
    "decode_ndarray",
    "encode_request",
    "decode_request",
    "decode_request_traced",
    "encode_response",
    "decode_response",
    "encode_error",
    "decode_error",
    "error_code_for",
    "exception_from_error",
    "encode_json",
    "decode_json",
]

MAGIC = b"RQ"
#: Version 2 added the optional trailing trace block on REQUEST/RESPONSE.
PROTOCOL_VERSION = 2
#: Oldest version this build still decodes (version-1 frames carry no trace
#: block; their payload layout is otherwise identical).
MIN_PROTOCOL_VERSION = 1

#: Hard bound on one frame's payload: a corrupted length prefix must not turn
#: into an unbounded allocation.  256 MiB covers any realistic logits batch.
MAX_PAYLOAD_BYTES = 256 * 1024 * 1024

HEADER = struct.Struct("!2sBBQI")  # magic, version, kind, request_id, payload_len


class FrameKind(IntEnum):
    HELLO = 1          # worker -> router after boot; JSON payload (pid, plan report)
    REQUEST = 2        # name + ndarray; answered by RESPONSE or ERROR
    RESPONSE = 3       # ndarray (logits)
    ERROR = 4          # typed error: code + message
    PING = 5           # liveness probe
    PONG = 6           # liveness reply
    SHUTDOWN = 7       # orderly stop; worker exits after acknowledging nothing
    METRICS = 8        # ask for a telemetry snapshot
    METRICS_REPLY = 9  # JSON telemetry snapshot


class ProtocolError(RuntimeError):
    """The byte stream is not a valid frame sequence (magic/version/length)."""


class WorkerCrashed(RuntimeError):
    """A shard worker died with this request in flight."""


class RemoteServingError(RuntimeError):
    """The worker failed a request with an exception the protocol has no code for."""


@dataclass
class Frame:
    """One decoded frame."""

    kind: FrameKind
    request_id: int
    payload: bytes

    def __repr__(self) -> str:
        return (
            f"Frame({self.kind.name}, request_id={self.request_id}, "
            f"payload={len(self.payload)}B)"
        )


def encode_frame(kind: FrameKind, request_id: int = 0, payload: bytes = b"") -> bytes:
    """Serialise one frame (header + payload) to bytes."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD_BYTES="
            f"{MAX_PAYLOAD_BYTES}"
        )
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, int(kind), int(request_id), len(payload)) + payload


def decode_header(header: bytes) -> Tuple[FrameKind, int, int]:
    """Parse a frame header; returns ``(kind, request_id, payload_len)``.

    Raises :class:`ProtocolError` on a foreign magic, an unknown version, an
    unknown frame kind, or an implausible payload length.
    """
    if len(header) != HEADER.size:
        raise ProtocolError(f"frame header must be {HEADER.size} bytes, got {len(header)}")
    magic, version, kind_value, request_id, payload_len = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if not MIN_PROTOCOL_VERSION <= version <= PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} (this build speaks "
            f"{MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}); refusing to guess "
            f"at the frame layout"
        )
    try:
        kind = FrameKind(kind_value)
    except ValueError as error:
        raise ProtocolError(f"unknown frame kind {kind_value}") from error
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame announces {payload_len} payload bytes, over the "
            f"{MAX_PAYLOAD_BYTES} bound — corrupt stream"
        )
    return kind, request_id, payload_len


# --------------------------------------------------------------------------- #
# ndarray payloads
# --------------------------------------------------------------------------- #
def encode_ndarray(array: np.ndarray) -> bytes:
    """dtype/shape header + raw C-contiguous bytes (zero-copy where possible)."""
    array = np.asarray(array)
    if not array.flags.c_contiguous:
        # (ascontiguousarray would also flatten 0-d arrays to 1-d, so only
        # copy when the layout genuinely needs it.)
        array = np.ascontiguousarray(array)
    dtype = array.dtype.str.encode("ascii")  # e.g. b"<f4" — endian-explicit
    if len(dtype) > 255:
        raise ProtocolError(f"dtype string too long: {dtype!r}")
    if array.ndim > 255:
        raise ProtocolError(f"ndim {array.ndim} exceeds the u8 header field")
    parts = [
        struct.pack("!B", len(dtype)),
        dtype,
        struct.pack("!B", array.ndim),
        struct.pack(f"!{array.ndim}I", *array.shape) if array.ndim else b"",
        array.tobytes(),
    ]
    return b"".join(parts)


def decode_ndarray(payload: bytes, offset: int = 0) -> Tuple[np.ndarray, int]:
    """Decode an ndarray at ``offset``; returns ``(array, next_offset)``.

    The array is a fresh writable copy (the payload buffer is transient).
    """
    try:
        (dtype_len,) = struct.unpack_from("!B", payload, offset)
        offset += 1
        dtype = np.dtype(payload[offset : offset + dtype_len].decode("ascii"))
        offset += dtype_len
        (ndim,) = struct.unpack_from("!B", payload, offset)
        offset += 1
        shape = struct.unpack_from(f"!{ndim}I", payload, offset) if ndim else ()
        offset += 4 * ndim
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(payload):
            raise ProtocolError(
                f"ndarray payload truncated: needs {nbytes} data bytes at "
                f"offset {offset}, frame has {len(payload) - offset}"
            )
        array = (
            np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        return array, offset + nbytes
    except (struct.error, ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed ndarray payload: {error}") from error


# --------------------------------------------------------------------------- #
# the optional trailing trace block (protocol version 2)
# --------------------------------------------------------------------------- #
def _encode_trace_block(trace: Optional[dict]) -> bytes:
    """``u32 json_len | json utf-8``, or no bytes at all when ``trace`` is None.

    Emitting *nothing* for the no-trace case keeps untraced version-2
    frames byte-identical to version-1 frames — backward compatibility by
    construction rather than by a flag.
    """
    if trace is None:
        return b""
    encoded = json.dumps(trace, separators=(",", ":")).encode("utf-8")
    return struct.pack("!I", len(encoded)) + encoded


def _decode_trace_block(payload: bytes, offset: int) -> Optional[dict]:
    """Decode the trace block at ``offset``; ``None`` if the payload ends there."""
    if offset >= len(payload):
        return None  # version-1 frame, or an untraced version-2 frame
    try:
        (json_len,) = struct.unpack_from("!I", payload, offset)
        offset += 4
        if offset + json_len > len(payload):
            raise ProtocolError(
                f"trace block truncated: announces {json_len} bytes at offset "
                f"{offset}, payload has {len(payload) - offset}"
            )
        trace = json.loads(payload[offset : offset + json_len].decode("utf-8"))
    except (struct.error, ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed trace block: {error}") from error
    if not isinstance(trace, dict):
        raise ProtocolError(f"trace block must be a JSON object, got {type(trace).__name__}")
    return trace


# --------------------------------------------------------------------------- #
# request payloads
# --------------------------------------------------------------------------- #
def encode_request(name: str, array: np.ndarray, trace: Optional[dict] = None) -> bytes:
    encoded_name = name.encode("utf-8")
    if len(encoded_name) > 0xFFFF:
        raise ProtocolError(f"model name too long: {len(encoded_name)} bytes")
    return (
        struct.pack("!H", len(encoded_name))
        + encoded_name
        + encode_ndarray(array)
        + _encode_trace_block(trace)
    )


def decode_request(payload: bytes) -> Tuple[str, np.ndarray]:
    """Decode a REQUEST payload, ignoring any trailing trace block."""
    name, array, _ = decode_request_traced(payload)
    return name, array


def decode_request_traced(payload: bytes) -> Tuple[str, np.ndarray, Optional[dict]]:
    """Decode a REQUEST payload including its optional trace block.

    Version-1 payloads (no trace block) decode with ``trace=None``.
    """
    try:
        (name_len,) = struct.unpack_from("!H", payload, 0)
        name = payload[2 : 2 + name_len].decode("utf-8")
    except (struct.error, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed request payload: {error}") from error
    array, next_offset = decode_ndarray(payload, 2 + name_len)
    return name, array, _decode_trace_block(payload, next_offset)


# --------------------------------------------------------------------------- #
# response payloads
# --------------------------------------------------------------------------- #
def encode_response(array: np.ndarray, trace: Optional[dict] = None) -> bytes:
    """A RESPONSE payload: logits ndarray plus the optional trace block."""
    return encode_ndarray(array) + _encode_trace_block(trace)


def decode_response(payload: bytes) -> Tuple[np.ndarray, Optional[dict]]:
    """Decode a RESPONSE payload including its optional trace block."""
    array, next_offset = decode_ndarray(payload, 0)
    return array, _decode_trace_block(payload, next_offset)


# --------------------------------------------------------------------------- #
# typed error payloads
# --------------------------------------------------------------------------- #
#: Wire code -> exception type.  Stable identifiers, not Python class paths:
#: the protocol must not couple to module layout.
ERROR_CODES: Dict[str, Type[BaseException]] = {
    "overloaded": ServerOverloaded,
    "closed": ServerClosed,
    "worker_crashed": WorkerCrashed,
    "deadline": DeadlineExceeded,
    "bad_request": ValueError,
    "unknown_model": KeyError,
    "protocol": ProtocolError,
    "serving_failed": RemoteServingError,
}

_CODE_FOR_TYPE = {cls: code for code, cls in ERROR_CODES.items()}


def error_code_for(error: BaseException) -> str:
    """The wire code for ``error`` (most-derived class match first)."""
    for cls in type(error).__mro__:
        if cls in _CODE_FOR_TYPE:
            return _CODE_FOR_TYPE[cls]
    return "serving_failed"


def encode_error(error: BaseException) -> bytes:
    code = error_code_for(error).encode("ascii")
    message = f"{type(error).__name__}: {error}".encode("utf-8")
    return struct.pack("!H", len(code)) + code + struct.pack("!I", len(message)) + message


def decode_error(payload: bytes) -> Tuple[str, str]:
    try:
        (code_len,) = struct.unpack_from("!H", payload, 0)
        code = payload[2 : 2 + code_len].decode("ascii")
        (message_len,) = struct.unpack_from("!I", payload, 2 + code_len)
        start = 2 + code_len + 4
        message = payload[start : start + message_len].decode("utf-8")
    except (struct.error, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed error payload: {error}") from error
    return code, message


def exception_from_error(payload: bytes) -> BaseException:
    """Reconstruct the typed exception an ERROR frame carries."""
    code, message = decode_error(payload)
    exc_type: Callable[[str], BaseException] = ERROR_CODES.get(code, RemoteServingError)
    return exc_type(message)


# --------------------------------------------------------------------------- #
# JSON control payloads
# --------------------------------------------------------------------------- #
def encode_json(value: object) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def decode_json(payload: bytes) -> object:
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed JSON payload: {error}") from error
