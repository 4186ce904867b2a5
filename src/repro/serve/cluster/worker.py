"""The cluster worker: one process, one engine, one frame pipe.

A worker process is the unit of scaling in :mod:`repro.serve.cluster`.  It
boots **from bytes, not from objects**: the router hands it a path to a
versioned quantized checkpoint (written by
:func:`repro.utils.serialization.save_quantized_checkpoint`, carrying the
weights, per-layer bit assignment, PACT clipping levels, BatchNorm running
statistics and the model-factory spec) plus a socket, and the worker

1. selects the array backend the router is using,
2. rebuilds the model from the checkpoint's factory spec and restores every
   tensor of serving state,
3. constructs its own :class:`~repro.serve.InferenceEngine` and runs
   :meth:`~repro.serve.InferenceEngine.warmup` — a model that cannot
   compile to a plan fails the boot with the trace error that names the
   blocking op,
4. announces itself with a HELLO frame (pid, plan state), then
5. serves REQUEST frames until SHUTDOWN or the router hangs up.

Because the engine lives wholly inside the process, the Python-bound parts
of a compiled plan (step dispatch, glue between the GEMMs) scale with the
number of workers — which is the entire point of process-level sharding.

Per-request failures travel back as typed ERROR frames; they never kill the
worker.  Anything that breaks the *boot* is reported as an ERROR frame with
``request_id=0`` followed by a non-zero exit, so the router can distinguish
"model cannot serve" from "process died".
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from .protocol import (
    FrameKind,
    ProtocolError,
    decode_json,
    decode_request_traced,
    encode_error,
    encode_json,
    encode_response,
    exception_from_error,
)
from .transport import ChannelClosed, FrameChannel, worker_socketpair

__all__ = ["WorkerOptions", "WorkerHandle", "WorkerBootError", "spawn_worker", "worker_main"]

#: How long the worker's serve loop waits per recv poll before re-checking
#: whether its parent is still alive.
_POLL_SECONDS = 0.25


class WorkerBootError(RuntimeError):
    """The worker process failed before it could serve (boot/warmup error)."""


@dataclass
class WorkerOptions:
    """Everything a worker needs to boot, picklable for a spawned process."""

    checkpoint_path: str
    variant: str = ""
    mode: str = "float"
    batch_size: int = 64
    backend: Optional[str] = None
    #: Chaos knob: artificial per-request latency (seconds) added before the
    #: engine runs.  Picklable (unlike an injector object), so it crosses the
    #: spawn boundary; 0.0 in production.
    chaos_latency_s: float = 0.0


def worker_main(worker_socket: socket.socket, options: WorkerOptions) -> None:
    """Entry point of the worker process (module-level: spawn-importable)."""
    channel = FrameChannel(worker_socket)
    try:
        engine = _boot_engine(options)
    except BaseException as error:  # noqa: BLE001 - reported, then exit non-zero
        try:
            channel.send(FrameKind.ERROR, 0, encode_error(error))
        except ChannelClosed:
            pass
        raise SystemExit(1)
    hello = {
        "pid": os.getpid(),
        "variant": options.variant,
        "mode": engine.mode,
        "plan_state": engine.plan_report()["state"],
        "backend": options.backend,
    }
    try:
        channel.send(FrameKind.HELLO, 0, encode_json(hello))
        _serve_forever(channel, engine, options)
    except ChannelClosed:
        pass  # router went away; nothing left to serve
    finally:
        channel.close()


def _boot_engine(options: WorkerOptions):
    from ...backend import set_backend
    from ...utils.serialization import load_quantized_checkpoint
    from ..engine import InferenceEngine

    if options.backend:
        set_backend(options.backend)
    checkpoint = load_quantized_checkpoint(options.checkpoint_path, build=True)
    return InferenceEngine(
        checkpoint.model, mode=options.mode, batch_size=options.batch_size
    ).warmup()


def _serve_forever(channel: FrameChannel, engine, options: WorkerOptions) -> None:
    served = 0
    # The router is our parent; a changed ppid means we were reparented
    # (router died without an orderly SHUTDOWN).  Comparing against the boot
    # value — not against literal PID 1 — keeps this correct when the router
    # itself runs as a container's PID 1.
    router_pid = os.getppid()
    while True:
        frame = channel.recv(timeout=_POLL_SECONDS)
        if frame is None:
            if os.getppid() != router_pid:
                return  # orphaned: the router process is gone
            continue
        if frame.kind == FrameKind.REQUEST:
            try:
                name, array, trace = decode_request_traced(frame.payload)
                if name and options.variant and name != options.variant:
                    raise KeyError(
                        f"this worker serves variant {options.variant!r}, "
                        f"not {name!r}"
                    )
                if options.chaos_latency_s > 0:
                    time.sleep(options.chaos_latency_s)
                execute_start = time.perf_counter()
                logits = engine.predict_logits(array)
                execute_s = time.perf_counter() - execute_start
            except Exception as error:  # noqa: BLE001 - per-request, typed
                channel.send(FrameKind.ERROR, frame.request_id, encode_error(error))
            else:
                served += 1
                # Echo the trace block with the measured engine time, so the
                # router can split its observed round trip into wire transit
                # vs. worker execute.  Untraced requests get an untraced
                # (version-1-shaped) reply.
                reply_trace = None
                if trace is not None:
                    reply_trace = {
                        "trace_ids": trace.get("trace_ids", []),
                        "execute_s": execute_s,
                        "pid": os.getpid(),
                    }
                channel.send(
                    FrameKind.RESPONSE,
                    frame.request_id,
                    encode_response(logits, reply_trace),
                )
        elif frame.kind == FrameKind.PING:
            channel.send(FrameKind.PONG, frame.request_id)
        elif frame.kind == FrameKind.METRICS:
            channel.send(
                FrameKind.METRICS_REPLY,
                frame.request_id,
                encode_json(
                    {
                        "pid": os.getpid(),
                        "requests_served": served,
                        "plan": engine.plan_report(),
                    }
                ),
            )
        elif frame.kind == FrameKind.SHUTDOWN:
            return
        else:
            channel.send(
                FrameKind.ERROR,
                frame.request_id,
                encode_error(ProtocolError(f"unexpected frame kind {frame.kind.name}")),
            )


# --------------------------------------------------------------------------- #
# the router-side handle
# --------------------------------------------------------------------------- #
@dataclass
class WorkerHandle:
    """The router's view of one worker process: process + channel + hello."""

    process: multiprocessing.process.BaseProcess
    channel: FrameChannel
    options: WorkerOptions
    hello: Dict[str, object] = field(default_factory=dict)

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def wait_ready(self, timeout: float = 60.0) -> Dict[str, object]:
        """Block until the worker's HELLO arrives; raise on boot failure."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise WorkerBootError(
                    f"worker pid={self.pid} sent no HELLO within {timeout:.0f}s"
                )
            try:
                frame = self.channel.recv(timeout=min(remaining, 1.0))
            except ChannelClosed as error:
                self.process.join(timeout=5.0)
                raise WorkerBootError(
                    f"worker pid={self.pid} died during boot "
                    f"(exitcode={self.process.exitcode})"
                ) from error
            if frame is None:
                continue
            if frame.kind == FrameKind.HELLO:
                self.hello = decode_json(frame.payload)
                return self.hello
            if frame.kind == FrameKind.ERROR:
                boot_error = exception_from_error(frame.payload)
                self.process.join(timeout=5.0)
                raise WorkerBootError(f"worker boot failed: {boot_error}") from boot_error
            # Anything else before HELLO is a protocol violation.
            self.kill()
            raise WorkerBootError(
                f"worker pid={self.pid} sent {frame.kind.name} before HELLO"
            )

    def ping(self, timeout: float = 5.0) -> bool:
        """Liveness probe over the wire (only meaningful on an idle channel)."""
        try:
            self.channel.send(FrameKind.PING, 0)
            self.channel.wait_for(0, (FrameKind.PONG,), timeout)
        except (ChannelClosed, TimeoutError):
            return False
        return True

    def shutdown(self, timeout: float = 10.0) -> None:
        """Orderly stop: SHUTDOWN frame, join, then escalate to kill."""
        try:
            self.channel.send(FrameKind.SHUTDOWN, 0)
        except ChannelClosed:
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.kill()
        self.channel.close()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        self.channel.close()


def spawn_worker(
    options: WorkerOptions,
    *,
    start_method: str = "spawn",
    boot_timeout: float = 120.0,
    wait_ready: bool = True,
) -> WorkerHandle:
    """Start one worker process and (by default) wait for its HELLO.

    The socketpair's worker end crosses to the child through multiprocessing's
    fd-passing reducers; the router end is wrapped in a :class:`FrameChannel`
    on the handle.  ``start_method="spawn"`` gives every worker a pristine
    interpreter (no inherited locks or BLAS thread state); ``"fork"`` boots
    faster when the parent is known to be single-threaded at spawn time.
    A parent that has run ``Tensor.backward()`` through a convolution is
    not: the autograd engine keeps its weight-gradient thread alive for the
    rest of the process, so after training prefer ``"spawn"``.
    """
    context = multiprocessing.get_context(start_method)
    router_end, worker_end = worker_socketpair()
    process = context.Process(
        target=worker_main,
        args=(worker_end, options),
        name=f"cluster-worker/{options.variant or 'anon'}",
        daemon=True,
    )
    process.start()
    worker_end.close()  # the child holds its own copy; EOF detection needs ours gone
    handle = WorkerHandle(process=process, channel=FrameChannel(router_end), options=options)
    if wait_ready:
        handle.wait_ready(boot_timeout)
    return handle
