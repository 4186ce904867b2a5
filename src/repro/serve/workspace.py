"""Per-plan buffer arena: slabs sized once, shared by liveness, viewed at every batch.

A compiled :class:`~repro.serve.plan.InferencePlan` owns one
:class:`PlanWorkspace`.  The plan binds its steps once per input shape:
every step, and every bind-time backend kernel (``bind_int_conv2d`` and
kin), takes its output accumulator and its scratch (columns, pooled
windows, layout copies) from :meth:`PlanWorkspace.buffer` under a *role*
key (the step's key plus the buffer's role, with no shape in it) and bakes
the buffers and views into a schedule of numpy calls.

Each role lives in a flat slab, and every bind takes a view of a prefix of
it, so one set of slabs serves every batch size up to :attr:`capacity`,
the largest batch the plan has run.  A prefix of a flat slab is
contiguous, so no kernel needs to know.  Roles whose values are never live
at the same time share a slab, as in Chen et al., arXiv:1604.06174: while
binding, the plan tells the arena which values are live at each step (the
register and the saved branch slots, see :meth:`touch`), and the arena
records each role's first and last step.  :meth:`allocate` then lays the
roles out largest first, each in the first slab whose roles' lifetimes
miss its own.  Lifetimes are the same at every batch of two or more; a
batch of one can differ (a reshape can become a view), so a plan that
grows records a batch-1 bind as well.

Zero-bordered buffers (column blocks whose padding positions no call
writes) get a slab per geometry that nothing else shares.  Batch-major
blocks take a batch-leading prefix, which keeps the border.  Channel-major
blocks carry the batch in the middle, so their prefix changes layout with
the batch: :meth:`zeroed` gives them a bound call that zeroes the prefix
whenever the slab last served another shape.

A bind that does not fit (a batch above :attr:`capacity`, a buffer larger
than its slab, a role or a lifetime the layout was not made for) reads
stand-in arrays that no call ever runs on, and :meth:`end_bind` says so;
the plan then drops every schedule, lays the slabs out again with
:meth:`allocate` and binds anew.  Schedules hold views of the slabs, so
every shape stays bound until the next growth or ``refresh()``: there is
no cap and no eviction.

:attr:`run_allocations` (reset by :meth:`begin_run`, surfaced as
``plan_report()["steady_state_allocations"]`` and asserted to be zero in
CI) counts the slabs allocated during the current run;
:attr:`total_allocations` counts them over the arena's lifetime.  The only
array a primed run creates is the returned logits copy, which must be
caller-owned by contract.

The arena is single-writer: a plan run mutates its slabs, so concurrent
runs of the *same* plan must be serialised (the engine holds a per-engine
lock).  Distinct plans own distinct arenas, which is what makes two engines
predicting concurrently on the shared backend instance safe.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = ["PlanWorkspace"]

# Role kinds: plain buffers share slabs by lifetime; zero-bordered ones
# never share, and keep their border by prefix or by a re-zero guard.
_PLAIN, _ZERO, _GUARDED = "plain", "zero", "guarded"


def _zero_on_move(tag: list, shape, prefix: np.ndarray) -> None:
    """Re-zero a channel-major column prefix if the slab last served another shape."""
    if tag[0] != shape:
        prefix.fill(0)
        tag[0] = shape


class PlanWorkspace:
    """Slab arena of one compiled plan: role -> flat slab, viewed per bind."""

    def __init__(self) -> None:
        self._slabs: List[np.ndarray] = []
        self._slab_of: Dict[object, int] = {}
        self._tags: Dict[int, list] = {}
        # Every role any bind has asked for, as [nbytes, first step, last
        # step, kind]: the largest and longest seen.  allocate() lays the
        # slabs out from it.
        self._table: Dict[object, list] = {}
        self._table_batch = 0
        # The bind in progress: its step, whether it fits the slabs, and
        # the id of each handed-out buffer's base -> role (the bases stay
        # referenced, so their ids stay unique while the bind runs).
        self._step: Optional[int] = None
        self._fits = True
        self._role_of: Dict[int, object] = {}
        self._bases: List[np.ndarray] = []
        #: The largest batch the slabs are sized for.
        self.capacity = 0
        #: Slabs allocated over the arena's lifetime.
        self.total_allocations = 0
        #: Slabs allocated since the last :meth:`begin_run`: zero in steady
        #: state once the arena is sized for the batch.
        self.run_allocations = 0
        #: The most bytes the planned roles hold live at any one step.
        self.live_nbytes = 0

    def begin_run(self) -> None:
        """Mark the start of one plan execution (resets the run counter)."""
        self.run_allocations = 0

    # ------------------------------------------------------------------ #
    # binding
    # ------------------------------------------------------------------ #
    def begin_bind(self, batch: int) -> None:
        """Start recording a bind at ``batch``; its first step is step 0."""
        self._step, self._fits = 0, True
        self._table_batch = max(self._table_batch, int(batch))

    def next_step(self) -> None:
        """The bind moves on to the plan's next step."""
        self._step += 1

    def touch(self, *values: np.ndarray) -> None:
        """Mark ``values`` (arena buffers or views of them) live at this step."""
        for value in values:
            while value is not None and id(value) not in self._role_of:
                value = getattr(value, "base", None)
            if value is not None:
                role = self._table[self._role_of[id(value)]]
                if role[2] < self._step:
                    role[2] = self._step
                    if role[3] == _PLAIN:
                        self._fits = False

    def end_bind(self) -> bool:
        """Finish the bind; returns whether it fits the current slabs.

        A bind fits when every buffer had a slab of its role large enough
        and no plain role lived longer than the steps its slab was laid out
        for.  A bind that does not fit holds stand-ins and must not run;
        :meth:`allocate` then lays out slabs that fit it.
        """
        self._step = None
        self._role_of, self._bases = {}, []
        return self._fits

    def buffer(self, key, shape, dtype) -> np.ndarray:
        """The buffer of role ``key`` at ``shape``: a view of its slab's prefix."""
        return self._view(key, shape, dtype, _PLAIN)[0]

    def zeroed(self, key, shape, dtype, batch_axis: int, calls: list) -> np.ndarray:
        """A zero-bordered buffer of role ``key``, whose positions no call
        writes must read zero, for this geometry (``key`` names it, bar the
        batch).

        With the batch on axis 0, a prefix keeps the border of the slab,
        which is zeroed when it is allocated.  Otherwise the layout of the
        prefix changes with the batch, and one call appended to ``calls``
        (run it before the calls that fill the buffer) re-zeroes the prefix
        whenever the slab last served another shape.
        """
        view, tag = self._view(key, shape, dtype, _ZERO if batch_axis == 0 else _GUARDED)
        if tag is not None:
            calls.append((_zero_on_move, (tag, view.shape, view.base)))
        return view

    def _view(self, key, shape, dtype, kind):
        dtype = np.dtype(dtype)
        count = int(np.prod(shape))
        nbytes = count * dtype.itemsize
        role = self._table.setdefault(key, [nbytes, self._step, self._step, kind])
        if role[3] == _PLAIN and not role[1] <= self._step <= role[2]:
            self._fits = False
        role[0] = max(role[0], nbytes)
        role[1], role[2] = min(role[1], self._step), max(role[2], self._step)
        index = self._slab_of.get(key)
        if index is None or self._slabs[index].nbytes < nbytes:
            self._fits = False
            slab, tag = np.empty(max(nbytes, 1), dtype=np.uint8), [None]  # stand-ins, never run
        else:
            slab, tag = self._slabs[index], self._tags.get(index)
        # frombuffer over a memoryview gives each buffer its own base
        # array, so touch() can tell which role a view belongs to.
        base = np.frombuffer(memoryview(slab), dtype=dtype, count=count)
        self._role_of[id(base)] = key
        self._bases.append(base)
        return base.reshape(shape), tag if kind == _GUARDED else None

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #
    def allocate(self) -> None:
        """Lay the slabs out again from every bind recorded so far.

        Plain roles go largest first into the first slab whose roles'
        lifetimes all miss their own, else into a new slab of their size;
        zero-bordered roles get a slab each.  The old slabs are dropped
        first (the caller has dropped every schedule that viewed them).
        """
        self._slabs, self._slab_of, self._tags = [], {}, {}
        slabs: List[tuple] = []  # (nbytes, kind, lifetimes)
        for role, (nbytes, first, last, kind) in sorted(
            self._table.items(), key=lambda item: -item[1][0]
        ):
            for index, (_, slab_kind, spans) in enumerate(slabs):
                if kind == slab_kind == _PLAIN and all(
                    last < start or first > end for start, end in spans
                ):
                    break
            else:
                index = len(slabs)
                slabs.append((nbytes, kind, []))
            slabs[index][2].append((first, last))
            self._slab_of[role] = index
        for index, (nbytes, kind, _) in enumerate(slabs):
            alloc = np.zeros if kind == _ZERO else np.empty
            self._slabs.append(alloc(max(nbytes, 1), dtype=np.uint8))
            if kind == _GUARDED:
                self._tags[index] = [None]
        self.total_allocations += len(slabs)
        self.run_allocations += len(slabs)
        self.capacity = self._table_batch
        roles = self._table.values()
        self.live_nbytes = max(
            sum(nbytes for nbytes, first, last, _ in roles if first <= step <= last)
            for step in range(max(role[2] for role in roles) + 1)
        )

    @property
    def num_slabs(self) -> int:
        return len(self._slabs)

    @property
    def nbytes(self) -> int:
        return sum(slab.nbytes for slab in self._slabs)

    def stats(self) -> Dict[str, object]:
        """JSON-friendly arena summary for ``plan_report()``."""
        return {
            "slabs": self.num_slabs,
            "megabytes": round(self.nbytes / 2**20, 3),
            "live_megabytes": round(self.live_nbytes / 2**20, 3),
            "capacity": self.capacity,
            "total_allocations": self.total_allocations,
            "run_allocations": self.run_allocations,
        }

    def __repr__(self) -> str:
        return (
            f"PlanWorkspace(slabs={self.num_slabs}, capacity={self.capacity}, "
            f"mb={self.nbytes / 2**20:.2f}, run_allocations={self.run_allocations})"
        )
