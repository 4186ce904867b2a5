"""Per-plan preallocated buffer arena: zero-allocation steady-state serving.

A compiled :class:`~repro.serve.plan.InferencePlan` owns one
:class:`PlanWorkspace`.  The plan binds its steps once per input shape:
on the first run at a shape every step, and every bind-time backend kernel
(``bind_int_conv2d`` and kin), takes its output accumulator and its scratch
(channel-major columns, pooled windows, layout copies) from
:meth:`PlanWorkspace.buffer`, keyed by the step's position in the plan plus
the buffer's role and full geometry, and bakes the buffers and views into
a schedule of numpy calls.  That first run allocates each buffer exactly
once ("priming", which ``InferenceEngine.warmup()`` does eagerly); every
later run at the same shape replays the schedule and asks the arena for
nothing, so steady-state ``predict`` performs **zero** array allocations —
the only array a run creates is the returned logits copy, which must be
caller-owned by contract.

The :attr:`run_allocations` counter (reset by :meth:`begin_run`, surfaced
as ``plan_report()["steady_state_allocations"]`` and asserted to be zero in
CI) counts buffer-table misses during the current run, so a bind that has
to allocate shows up as a non-zero counter.

Schedules hold arena buffers by reference, so the plan evicts by
schedule, not by buffer.  A bind records the keys it took
(:attr:`run_keys`); before a bind that may not fit under the cap, the plan
lets go of the oldest buffers no schedule holds, then of its least
recently used schedules, each with the buffers only it holds
(:meth:`release`).
Hot batch shapes thus stay bound while the cap holds, and the arena's own
first-in-first-out eviction is only a backstop.  Should it, or a
:meth:`clear`, let go of a buffer (the arena counts its :attr:`evictions`),
the plan drops every bound schedule, as it does on ``refresh()``.  A
schedule thus never keeps a buffer alive that the arena has let go, and
never holds constants older than the last refresh; the next run at its
shape binds again, from whatever buffers are still resident.

The arena is single-writer: a plan run mutates its buffers, so concurrent
runs of the *same* plan must be serialised (the engine holds a per-engine
lock).  Distinct plans own distinct arenas, which is what makes two engines
predicting concurrently on the shared backend instance safe.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["PlanWorkspace"]

# A plan has a bounded number of steps and batch shapes in flight; the cap
# only guards against pathological callers cycling unbounded shapes.
_MAX_BUFFERS = 512


class PlanWorkspace:
    """Keyed arena of preallocated ndarrays for one compiled plan."""

    def __init__(self, max_buffers: int = _MAX_BUFFERS) -> None:
        self._buffers: Dict[Tuple, np.ndarray] = {}
        self.max_buffers = int(max_buffers)
        #: Buffers allocated over the arena's lifetime.
        self.total_allocations = 0
        #: Buffers allocated since the last :meth:`begin_run` — zero in
        #: steady state once the arena is primed for the batch shape.
        self.run_allocations = 0
        #: Buffers the arena has let go (cap evictions, :meth:`release`
        #: and :meth:`clear`).
        self.evictions = 0
        #: Full keys of the buffers handed out since the last :meth:`begin_run`.
        self.run_keys: list = []

    def begin_run(self) -> None:
        """Mark the start of one plan execution (resets the run counters)."""
        self.run_allocations = 0
        self.run_keys.clear()

    def buffer(
        self, key, shape: Tuple[int, ...], dtype, zero_on_alloc: bool = False
    ) -> np.ndarray:
        """Return the arena buffer for ``key``, allocating on first use.

        ``shape`` and ``dtype`` are folded into the lookup key, so the same
        logical buffer at two batch sizes coexists (a server interleaving a
        ragged final batch with full batches never thrashes).
        ``zero_on_alloc`` supports buffers whose zero fill is an invariant
        (the channel-major column border): they are zeroed once at
        allocation and callers only ever write the always-written interior.
        """
        shape = tuple(int(dim) for dim in shape)
        dtype = np.dtype(dtype)
        full_key = (key, shape, dtype.str)
        buf = self._buffers.get(full_key)
        if buf is None:
            buf = np.zeros(shape, dtype=dtype) if zero_on_alloc else np.empty(shape, dtype=dtype)
            if len(self._buffers) >= self.max_buffers:
                self._buffers.pop(next(iter(self._buffers)))
                self.evictions += 1
            self._buffers[full_key] = buf
            self.total_allocations += 1
            self.run_allocations += 1
        self.run_keys.append(full_key)
        return buf

    def release(self, count: int, keep) -> None:
        """Let go of the ``count`` oldest buffers whose full keys are not in ``keep``."""
        for full_key in [k for k in self._buffers if k not in keep][:count]:
            del self._buffers[full_key]
            self.evictions += 1

    def clear(self) -> None:
        """Drop every buffer (e.g. after a plan re-trace)."""
        self.evictions += len(self._buffers)
        self._buffers.clear()

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def stats(self) -> Dict[str, object]:
        """JSON-friendly arena summary for ``plan_report()``."""
        return {
            "buffers": self.num_buffers,
            "megabytes": round(self.nbytes / 2**20, 3),
            "total_allocations": self.total_allocations,
            "run_allocations": self.run_allocations,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"PlanWorkspace(buffers={self.num_buffers}, "
            f"mb={self.nbytes / 2**20:.2f}, run_allocations={self.run_allocations})"
        )
