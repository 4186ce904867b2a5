"""Frame transport: socket plumbing under the cluster wire protocol.

:class:`FrameChannel` turns any stream socket — one end of a
``socket.socketpair()`` between the router and a worker process, or a TCP
connection from an external client — into a thread-safe frame pipe:

* ``send`` is atomic under a lock (concurrent senders cannot interleave
  frame bytes);
* ``recv`` is *resumable*: a timeout that fires mid-frame keeps the partial
  bytes buffered and returns ``None``, so pollers never lose stream sync;
* a peer that disappears surfaces as :class:`ChannelClosed`, not a silent
  empty read.

On top of it sit the two TCP pieces that let external clients hit the
cluster directly with the same protocol the workers speak:
:class:`TcpFrontend` (a listener that forwards REQUEST frames into
``ClusterServer.submit`` and streams results back as RESPONSE/ERROR frames,
out-of-order as futures resolve) and :class:`ClusterClient` (a minimal
synchronous client used by tests, benchmarks and as a reference for non-
Python clients).
"""

from __future__ import annotations

import random
import select
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .protocol import (
    HEADER,
    Frame,
    FrameKind,
    ProtocolError,
    WorkerCrashed,
    decode_header,
    decode_json,
    decode_ndarray,
    encode_frame,
    encode_json,
    encode_ndarray,
    encode_request,
    exception_from_error,
)

__all__ = [
    "ChannelClosed",
    "FrameChannel",
    "worker_socketpair",
    "TcpFrontend",
    "ClusterClient",
    "RetryPolicy",
]


class ChannelClosed(RuntimeError):
    """The peer hung up (EOF or a dead socket)."""


class FrameChannel:
    """A thread-safe, resumable frame pipe over one stream socket."""

    #: Process-wide fault-injection seam for the chaos harness
    #: (:mod:`repro.serve.chaos.faults`).  ``None`` — the production default —
    #: costs one attribute check per send/recv; a chaos run installs an
    #: object with ``on_send(channel, kind, request_id) -> bool`` (False
    #: drops the frame on the floor; the hook may sleep to model a slow or
    #: congested link) and ``on_recv(channel, frame) -> bool`` (False drops
    #: an already-parsed inbound frame, modelling loss on the return path).
    fault_injector = None

    def __init__(self, sock: socket.socket) -> None:
        # The socket stays in blocking mode for its whole life: recv timeouts
        # ride select() instead of settimeout(), so a timed recv can never
        # leave a stale sub-second timeout behind for a concurrent sendall
        # (which would break a large frame mid-write and desync the stream).
        sock.settimeout(None)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._buffer = bytearray()
        self._closed = False

    # ------------------------------------------------------------------ #
    # sending
    # ------------------------------------------------------------------ #
    def send(self, kind: FrameKind, request_id: int = 0, payload: bytes = b"") -> None:
        """Write one frame atomically; raises :class:`ChannelClosed` on a dead peer."""
        injector = FrameChannel.fault_injector
        if injector is not None and not injector.on_send(self, kind, request_id):
            return  # chaos dropped the frame before it hit the wire
        data = encode_frame(kind, request_id, payload)
        with self._send_lock:
            if self._closed:
                raise ChannelClosed("channel is closed")
            try:
                self._sock.sendall(data)
            except (BrokenPipeError, ConnectionResetError, OSError) as error:
                raise ChannelClosed(f"peer hung up during send: {error}") from error

    # ------------------------------------------------------------------ #
    # receiving
    # ------------------------------------------------------------------ #
    def recv(self, timeout: Optional[float] = None) -> Optional[Frame]:
        """Read the next frame; ``None`` when ``timeout`` expires first.

        Partial frames survive timeouts in an internal buffer, so a polling
        consumer (a shard lane checks for shutdown between polls)
        can call ``recv(0.1)`` in a loop without ever corrupting the stream.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._recv_lock:
            if not self._fill(HEADER.size, deadline):
                return None
            kind, request_id, payload_len = decode_header(bytes(self._buffer[: HEADER.size]))
            if not self._fill(HEADER.size + payload_len, deadline):
                return None
            payload = bytes(self._buffer[HEADER.size : HEADER.size + payload_len])
            del self._buffer[: HEADER.size + payload_len]
            frame = Frame(kind, request_id, payload)
        injector = FrameChannel.fault_injector
        if injector is not None and not injector.on_recv(self, frame):
            return None  # chaos dropped the inbound frame after parsing
        return frame

    def wait_for(
        self, request_id: int, kinds: Tuple[FrameKind, ...], timeout: Optional[float]
    ) -> Frame:
        """The next frame answering ``request_id`` with one of ``kinds``.

        Anything else (e.g. a stale reply from an abandoned exchange) is
        skipped; :class:`TimeoutError` once ``timeout`` seconds have passed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"no reply to frame {request_id} within {timeout}s")
            frame = self.recv(timeout=remaining)
            if frame is not None and frame.request_id == request_id and frame.kind in kinds:
                return frame

    def _fill(self, needed: int, deadline: Optional[float]) -> bool:
        """Buffer at least ``needed`` bytes; False on timeout, raises on EOF."""
        while len(self._buffer) < needed:
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    readable, _, _ = select.select([self._sock], [], [], remaining)
                    if not readable:
                        return False
                chunk = self._sock.recv(1 << 16)
            except (OSError, ValueError) as error:
                # OSError: reset/closed fd; ValueError: select on a socket
                # another thread close()d.
                if self._closed:
                    raise ChannelClosed("channel is closed") from error
                raise ChannelClosed(f"peer hung up during recv: {error}") from error
            if not chunk:
                raise ChannelClosed("peer closed the connection (EOF)")
            self._buffer.extend(chunk)
        return True

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def fileno(self) -> int:
        return self._sock.fileno()


def worker_socketpair() -> Tuple[socket.socket, socket.socket]:
    """A connected ``(router_end, worker_end)`` pair of stream sockets.

    Plain ``socket.socketpair``; both ends are picklable through
    :mod:`multiprocessing`'s fd-passing reducers, so the worker end can be
    handed to a spawned process as a constructor argument.
    """
    return socket.socketpair()


# --------------------------------------------------------------------------- #
# the TCP edge: external clients -> ClusterServer
# --------------------------------------------------------------------------- #
class TcpFrontend:
    """A TCP listener speaking the cluster protocol in front of a cluster.

    Each accepted connection gets a reader thread: REQUEST frames are decoded
    and forwarded to ``cluster.submit(name, array)``; the returned future's
    completion sends a RESPONSE (or typed ERROR) frame back with the client's
    ``request_id`` — out of order across requests as futures resolve, which
    is exactly why the protocol correlates by id.  PING and METRICS frames
    answer from the listener thread directly.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    :meth:`start`.
    """

    def __init__(self, cluster, host: str = "127.0.0.1", port: int = 0) -> None:
        self.cluster = cluster
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._channels: Dict[int, FrameChannel] = {}
        self._lock = threading.Lock()
        self._next_conn = 0
        self._stopped = threading.Event()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "TcpFrontend":
        if self._listener is not None:
            raise RuntimeError("the TCP frontend is already running")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(128)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-tcp/accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("the TCP frontend is not running")
        return self._listener.getsockname()[:2]

    def stop(self) -> None:
        self._stopped.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            channels = list(self._channels.values())
            self._channels.clear()
        for channel in channels:
            channel.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "TcpFrontend":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = FrameChannel(conn)
            with self._lock:
                conn_id = self._next_conn
                self._next_conn += 1
                self._channels[conn_id] = channel
            threading.Thread(
                target=self._serve_connection,
                args=(conn_id, channel),
                name=f"cluster-tcp/conn-{conn_id}",
                daemon=True,
            ).start()

    def _serve_connection(self, conn_id: int, channel: FrameChannel) -> None:
        try:
            while not self._stopped.is_set():
                frame = channel.recv(timeout=0.25)
                if frame is None:
                    continue
                self._handle_frame(channel, frame)
        except (ChannelClosed, ProtocolError):
            pass  # client went away or spoke garbage; drop the connection
        finally:
            with self._lock:
                self._channels.pop(conn_id, None)
            channel.close()

    def _handle_frame(self, channel: FrameChannel, frame: Frame) -> None:
        if frame.kind == FrameKind.PING:
            channel.send(FrameKind.PONG, frame.request_id)
            return
        if frame.kind == FrameKind.METRICS:
            channel.send(
                FrameKind.METRICS_REPLY, frame.request_id, encode_json(self.cluster.metrics())
            )
            return
        if frame.kind != FrameKind.REQUEST:
            channel.send(
                FrameKind.ERROR,
                frame.request_id,
                _error_payload(ProtocolError(f"unexpected frame kind {frame.kind.name}")),
            )
            return
        request_id = frame.request_id
        try:
            from .protocol import decode_request_traced

            name, array, trace = decode_request_traced(frame.payload)
            # An external client may name its own trace (version-2 trace
            # block with a "trace_id"); the span then lands in the cluster's
            # ring under the client's id, joining client-side and
            # cluster-side telemetry.
            trace_id = trace.get("trace_id") if isinstance(trace, dict) else None
            future = self.cluster.submit(
                name,
                array,
                block=False,
                trace_id=trace_id if isinstance(trace_id, str) else None,
            )
        except Exception as error:  # noqa: BLE001 - typed over the wire
            self._safe_send(channel, FrameKind.ERROR, request_id, _error_payload(error))
            return
        future.add_done_callback(
            lambda fut: self._complete(channel, request_id, fut)
        )

    def _complete(self, channel: FrameChannel, request_id: int, future: "Future[np.ndarray]") -> None:
        error = future.exception()
        if error is not None:
            self._safe_send(channel, FrameKind.ERROR, request_id, _error_payload(error))
        else:
            self._safe_send(
                channel, FrameKind.RESPONSE, request_id, encode_ndarray(future.result())
            )

    @staticmethod
    def _safe_send(channel: FrameChannel, kind: FrameKind, request_id: int, payload: bytes) -> None:
        try:
            channel.send(kind, request_id, payload)
        except ChannelClosed:
            pass  # client vanished before its answer; nothing to tell it


def _error_payload(error: BaseException) -> bytes:
    from .protocol import encode_error

    return encode_error(error)


@dataclass
class RetryPolicy:
    """Client-side retry for *idempotent* failures, backoff-bounded and budgeted.

    Inference is a pure function of its input, so a request that died with
    the worker (:class:`WorkerCrashed`) or vanished into a timeout can be
    re-sent without double-effect — those are the **only** failures retried.
    Typed application errors (bad shape, unknown model, overload, deadline)
    mean the request was *answered*; retrying them would just repeat the
    answer, so they propagate immediately.

    ``budget`` caps total retries over the client's lifetime: a cluster that
    is genuinely down must not be hammered by every client in a tight
    exponential loop forever (retry storms are how outages become cascades).
    """

    #: Total attempts per request (1 = no retry).
    max_attempts: int = 3
    #: First backoff; doubles per attempt up to ``max_backoff_s``.
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    #: Fraction of the backoff randomized (0 = deterministic, 1 = full jitter).
    jitter: float = 0.5
    #: Lifetime retry budget across all requests on one client.
    budget: int = 64

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError(
                f"need 0 <= base_backoff_s <= max_backoff_s, got "
                f"[{self.base_backoff_s}, {self.max_backoff_s}]"
            )

    def backoff_s(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        base = min(self.max_backoff_s, self.base_backoff_s * (2 ** (attempt - 1)))
        if self.jitter == 0.0 or rng is None:
            return base
        return base * (1.0 - self.jitter + 2.0 * self.jitter * rng.random())


#: Failure types that are safe to retry: the request provably produced no
#: observable answer.  Everything else is an *answer* and must propagate.
RETRYABLE_ERRORS = (WorkerCrashed, TimeoutError)


class ClusterClient:
    """Minimal synchronous TCP client for the cluster protocol.

    One outstanding request at a time (requests are still correlated by id,
    so interleaved control frames cannot confuse it).  This is the reference
    implementation of the client side of the wire format; anything that can
    write the 16-byte header and the ndarray payload can serve traffic.

    ``retry_policy`` (optional) retries idempotent failures — worker crashes
    and reply timeouts — with bounded exponential backoff, jitter, and a
    lifetime budget; :attr:`retries_used` exposes the spend for telemetry.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: Optional[int] = None,
    ) -> None:
        sock = socket.create_connection((host, port), timeout=connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._channel = FrameChannel(sock)
        self._request_ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(retry_seed)
        self.retries_used = 0

    def predict(self, model_name: str, inputs, timeout: Optional[float] = 60.0) -> np.ndarray:
        """Logits for one sample ``(C, H, W)`` or small batch ``(n, C, H, W)``."""
        array = np.ascontiguousarray(np.asarray(inputs, dtype=np.float32))
        policy = self.retry_policy
        attempts = 1 if policy is None else policy.max_attempts
        for attempt in range(1, attempts + 1):
            try:
                return self._predict_once(model_name, array, timeout)
            except RETRYABLE_ERRORS:
                if (
                    policy is None
                    or attempt >= attempts
                    or self.retries_used >= policy.budget
                ):
                    raise
                self.retries_used += 1
                time.sleep(policy.backoff_s(attempt, self._retry_rng))
        raise AssertionError("unreachable: the retry loop returns or raises")

    def _predict_once(
        self, model_name: str, array: np.ndarray, timeout: Optional[float]
    ) -> np.ndarray:
        with self._lock:
            request_id = next(self._request_ids)
            self._channel.send(FrameKind.REQUEST, request_id, encode_request(model_name, array))
            frame = self._channel.wait_for(
                request_id, (FrameKind.RESPONSE, FrameKind.ERROR), timeout
            )
        if frame.kind == FrameKind.ERROR:
            raise exception_from_error(frame.payload)
        logits, _ = decode_ndarray(frame.payload)
        return logits

    def ping(self, timeout: Optional[float] = 10.0) -> bool:
        """Liveness probe: False when the frontend is gone or unresponsive."""
        with self._lock:
            request_id = next(self._request_ids)
            try:
                self._channel.send(FrameKind.PING, request_id)
                self._channel.wait_for(request_id, (FrameKind.PONG,), timeout)
            except (TimeoutError, ChannelClosed):
                return False
        return True

    def metrics(self, timeout: Optional[float] = 10.0) -> Dict[str, object]:
        with self._lock:
            request_id = next(self._request_ids)
            self._channel.send(FrameKind.METRICS, request_id)
            frame = self._channel.wait_for(request_id, (FrameKind.METRICS_REPLY,), timeout)
        return decode_json(frame.payload)

    def close(self) -> None:
        self._channel.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
