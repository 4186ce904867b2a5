"""Per-plan preallocated buffer arena: zero-allocation steady-state serving.

A compiled :class:`~repro.serve.plan.InferencePlan` owns one
:class:`PlanWorkspace`.  Every step routes its output accumulator and every
backend kernel routes its scratch (channel-major columns, pooled windows,
layout copies) through :meth:`PlanWorkspace.buffer`,
keyed by the step's position in the plan plus the buffer's role and full
geometry.  The first run through a new batch shape allocates each buffer
exactly once ("priming", which ``InferenceEngine.warmup()`` does eagerly);
every subsequent run with the same shape reuses them all, so steady-state
``predict`` performs **zero** array allocations on the hot path — the only
array a run creates is the returned logits copy, which must be caller-owned
by contract.

The :attr:`run_allocations` counter (reset by :meth:`begin_run`, surfaced
as ``plan_report()["steady_state_allocations"]`` and asserted to be zero in
CI) counts buffer-table misses during the current run, which makes the
zero-allocation property *observable* rather than aspirational: any step or
kernel change that silently starts allocating per call shows up as a
non-zero counter.

The arena is single-writer: a plan run mutates its buffers, so concurrent
runs of the *same* plan must be serialised (the engine holds a per-engine
lock).  Distinct plans own distinct arenas, which is what makes two engines
predicting concurrently on the shared backend instance safe — the hazard
the old per-backend scratch keys had.
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

    def begin_run(self) -> None:
        """Mark the start of one plan execution (resets the run counter)."""
        self.run_allocations = 0

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
            self._buffers[full_key] = buf
            self.total_allocations += 1
            self.run_allocations += 1
        return buf

    def clear(self) -> None:
        """Drop every buffer (e.g. after a plan re-trace)."""
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
        }

    def __repr__(self) -> str:
        return (
            f"PlanWorkspace(buffers={self.num_buffers}, "
            f"mb={self.nbytes / 2**20:.2f}, run_allocations={self.run_allocations})"
        )
