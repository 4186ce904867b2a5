"""Frame transport: socket plumbing under the cluster wire protocol.

:class:`FrameChannel` turns one end of the ``socket.socketpair()`` between
the router and a worker process (:func:`worker_socketpair`) into a
thread-safe frame pipe:

* ``send`` is atomic under a lock (concurrent senders cannot interleave
  frame bytes);
* ``recv`` is *resumable*: a timeout that fires mid-frame keeps the partial
  bytes buffered and returns ``None``, so pollers never lose stream sync;
* a peer that disappears surfaces as :class:`ChannelClosed`, not a silent
  empty read.

The cluster has no network listener: the router is the only client of a
worker, and callers reach the cluster in-process through
``ClusterServer.submit``/``predict``.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from typing import Optional, Tuple

from .protocol import HEADER, Frame, FrameKind, decode_header, encode_frame

__all__ = ["ChannelClosed", "FrameChannel", "worker_socketpair"]


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
