"""Traced, compiled inference plans: the read path without the graph.

A :class:`InferencePlan` is built once per model by running a single probe
forward pass that records every leaf-layer application *and* every
glue-level tensor addition as a producer/consumer graph keyed by tensor
identity, then compiling that graph into raw-``ndarray`` steps with three
serving-grade optimizations the module path cannot perform:

* **Operator fusion** — eval-mode BatchNorm is folded into the preceding
  convolution/linear as a per-output-channel scale and bias applied to the
  GEMM accumulator, and the PACT clip + activation-quantization staircase is
  applied in-place on the same buffer.  No autograd tensors, no STE masks,
  no per-layer Python dispatch.  Fusion is graph-aware: a BatchNorm or PACT
  is folded only when it is the *sole* consumer of its producer's output, so
  residual join points are never fused across.
* **Channel-major layout** — between convolutions activations live as
  ``(C, N, H, W)`` so every convolution is ONE
  ``(oc, F) @ (F, N*oh*ow)`` GEMM (see
  :meth:`~repro.backend.ArrayBackend.int_conv2d_cm`) with zero inter-layer
  transposes; the layout converts back only at the flatten boundary.
* **Quantized-weight reuse** — weight resolution goes through
  :meth:`~repro.quant.qmodules.QuantizedLayer.quantized_weight`, whose
  version-keyed cache means :meth:`InferencePlan.refresh` costs O(channels),
  not O(weights), while the model is unchanged.

Tracing supports models whose leaf layers form a **general DAG glued by
elementwise joins and concatenations**: the VGG/simple-CNN linear chains;
ResNet-style topologies where a block input is re-used by an identity
shortcut or routed through a 1x1 downsample projection and added back into
the main path; gated-attention blocks whose branches multiply (``value *
sigmoid(gate)``); grouped/depthwise convolutions whose per-group outputs
concatenate along the channel axis; and multi-output heads returning a
``dict``/``tuple`` of named result tensors.  Branch values are kept alive
by :class:`_SaveStep`/:class:`_LoadStep` register spills and joined by
:class:`_ResidualAddStep`/:class:`_ResidualMulStep`/:class:`_ConcatStep`;
multi-output plans end in an :class:`_OutputsStep` that surfaces named
result slots through :meth:`InferencePlan.run`.  Glue the compiler does not
understand — broadcasting multiplies, division joins, re-entrant values
produced outside the traced ops — raises :class:`PlanTraceError`, naming
the op when the tracer saw it, and
:class:`~repro.serve.engine.InferenceEngine` refuses the model with it.

Two compilation flavours share the same graph:

* ``optimize=True`` (the serving default) emits the fused, channel-major
  steps described above.  Fused kernels re-order float accumulation, so
  parity with the module path is *to tolerance* (and under a PACT staircase
  an isolated rounding-boundary flip is legitimate).
* ``optimize=False`` emits **reference steps** that replay the exact same
  functional ops the module path executes (same backend calls, same
  operand order, NCHW layout, no fusion).  A reference plan's logits are
  **bitwise identical** to ``model.eval()`` (float mode) and to
  :class:`~repro.quant.IntegerInferenceSession` (integer mode), which is
  what the randomized parity harness in ``tests/serve`` asserts: it proves
  the *graph* compilation — join detection, save/load linearization,
  shortcut routing — is exactly right, independent of fusion round-off.

Every successful trace is verified: the compiled plan replays probe inputs
and must agree with the model's own eval-mode forward pass (bitwise for
reference plans), so a structural mis-compile can never serve silently
wrong numbers.

An optimized plan executes **bound**: on the first run at an input shape it
binds every step (see :meth:`_Step.bind`) into a schedule: each step's
``(callable, args)`` numpy calls over its arena's buffers and views.
Every later run at that shape just replays the schedule.  The buffers
are views of the plan's arena, whose slabs are sized once for the largest
batch the plan has run and shared between steps whose values are never
live together (see :mod:`repro.serve.workspace`); so every shape stays
bound, until ``refresh()`` or a run larger than the slabs drops every
schedule.  ``describe()`` counts the runs that bound (``binds``) and the
runs that replayed (``replays``).
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# np.clip's ufunc, called directly: the public wrapper spends microseconds
# on argument handling per call, and a bound schedule makes dozens.
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy 1.x
    from numpy.core.umath import clip as _clip

from ..backend import get_backend
from ..backend.base import Calls, expand_channel_operands
from ..nn.modules import (
    AvgPool2d,
    BatchNorm2d,
    ChannelSlice,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sigmoid,
)
from ..nn.tensor import Tensor, no_grad
from ..quant.pact import PACT
from ..quant.qmodules import QConv2d, QLinear, QuantizedLayer
from .workspace import PlanWorkspace

__all__ = ["PlanTraceError", "PlanVerifyError", "InferencePlan"]

# Leaf layer types the tracer records; containers and models are transparent.
_LEAF_TYPES = (
    QConv2d,
    QLinear,
    Conv2d,
    Linear,
    BatchNorm2d,
    PACT,
    ReLU,
    Sigmoid,
    Identity,
    ChannelSlice,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool2d,
    Flatten,
    Dropout,
)

# Activation layouts a compiled plan moves activations through.
_NCHW = "NCHW"  # batch-major spatial (the module path's layout)
_CNHW = "CNHW"  # channel-major spatial (single-GEMM conv layout)
_FLAT = "NF"  # (N, features)


class PlanTraceError(RuntimeError):
    """The model's forward pass cannot be compiled to a plan."""


class PlanVerifyError(PlanTraceError):
    """The compiled plan disagrees with the model on every probe.

    Unlike a plain :class:`PlanTraceError` (expected for genuinely
    unsupported glue), this indicates a mis-compile; the engine refuses the
    model with it, so a broken plan never serves.
    """


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
@dataclass
class _TraceEvent:
    # The tensors are held by reference (not id()) so every intermediate
    # stays alive for the duration of the trace — identity comparisons can
    # never be confused by CPython recycling a freed object's address.
    module: Module
    input_tensor: Tensor
    output_tensor: Tensor
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]


@dataclass
class _AddEvent:
    # A glue-level ``lhs + rhs`` between leaf calls — the residual join.
    lhs: Tensor
    rhs: Tensor
    output_tensor: Tensor


@dataclass
class _MulEvent:
    # A glue-level ``lhs * rhs`` between leaf calls — the gating join.
    lhs: Tensor
    rhs: Tensor
    output_tensor: Tensor


@dataclass
class _CatEvent:
    # A glue-level ``Tensor.cat([...], axis)`` between leaf calls.
    inputs: List[Tensor]
    axis: int
    output_tensor: Tensor


@dataclass
class _UnsupportedEvent:
    # Glue-level arithmetic no step implements (a division, a subtraction,
    # a power, a scalar multiply or add): recorded only so a trace error
    # can name it.
    op: str
    output_tensor: Tensor


# Tensor methods the tracer watches only to name them in a trace error.
_UNSUPPORTED_GLUE = {"__sub__": "subtraction", "__truediv__": "division", "__pow__": "power"}


# Tracing patches class-level dunders, so concurrent traces — or a module
# forward on another thread (a training step, a health shadow) racing a
# trace — would bleed events across models.  The lock serialises traces; the
# owner-thread check below keeps foreign threads' forwards out of the event
# stream.
_TRACE_LOCK = threading.Lock()


def _trace_graph(model, probe: Tensor) -> Tuple[List[object], object]:
    """Run ``model(probe)`` recording leaf calls and glue-level joins.

    Glue ops executed *inside* a leaf module (should any leaf ever use
    tensor arithmetic internally) are suppressed by a leaf-depth counter, so
    only the joins written in container ``forward`` bodies — residual
    additions, gating multiplies, channel concatenations — are recorded.
    Only Tensor-Tensor joins are graph edges; scalar arithmetic (``x * 0.5``,
    ``x + 0.5``) is recorded as unsupported glue, like a division, so a
    flatten inferred past it is refused instead of skipping it.
    """
    events: List[object] = []
    owner = threading.get_ident()
    leaf_depth = 0

    with _TRACE_LOCK:
        original_call = Module.__call__
        original_add = Tensor.__add__
        original_radd = Tensor.__radd__
        original_mul = Tensor.__mul__
        original_rmul = Tensor.__rmul__
        original_cat = Tensor.__dict__["cat"].__func__
        originals = {name: getattr(Tensor, name) for name in _UNSUPPORTED_GLUE}

        def mine() -> bool:
            return leaf_depth == 0 and threading.get_ident() == owner

        def tracing_call(module, *args, **kwargs):
            nonlocal leaf_depth
            is_leaf = threading.get_ident() == owner and isinstance(module, _LEAF_TYPES)
            if is_leaf:
                leaf_depth += 1
            try:
                out = original_call(module, *args, **kwargs)
            finally:
                if is_leaf:
                    leaf_depth -= 1
            if (
                is_leaf
                and len(args) == 1
                and not kwargs
                and isinstance(args[0], Tensor)
                and isinstance(out, Tensor)
            ):
                events.append(_TraceEvent(module, args[0], out, args[0].shape, out.shape))
            return out

        def joining(original, event_type, scalar_op):
            def tracing_join(self, other):
                out = original(self, other)
                if mine() and isinstance(out, Tensor):
                    if isinstance(other, Tensor):
                        events.append(event_type(self, other, out))
                    else:
                        events.append(_UnsupportedEvent(scalar_op, out))
                return out

            return tracing_join

        tracing_add = joining(original_add, _AddEvent, "scalar addition")
        tracing_mul = joining(original_mul, _MulEvent, "scalar multiplication")

        def tracing_cat(tensors, axis=0):
            tensors = list(tensors)
            out = original_cat(tensors, axis=axis)
            if mine() and all(isinstance(t, Tensor) for t in tensors):
                events.append(_CatEvent(tensors, int(axis), out))
            return out

        def watching(name):
            def tracing_unsupported(self, other):
                out = originals[name](self, other)
                if mine() and isinstance(out, Tensor):
                    events.append(_UnsupportedEvent(_UNSUPPORTED_GLUE[name], out))
                return out

            return tracing_unsupported

        Module.__call__ = tracing_call
        for name in _UNSUPPORTED_GLUE:
            setattr(Tensor, name, watching(name))
        Tensor.__add__ = tracing_add
        Tensor.__radd__ = tracing_add
        Tensor.__mul__ = tracing_mul
        Tensor.__rmul__ = tracing_mul
        Tensor.cat = staticmethod(tracing_cat)
        try:
            output = model(probe)
        finally:
            Module.__call__ = original_call
            Tensor.__add__ = original_add
            Tensor.__radd__ = original_radd
            Tensor.__mul__ = original_mul
            Tensor.__rmul__ = original_rmul
            Tensor.cat = staticmethod(original_cat)
            for name, original in originals.items():
                setattr(Tensor, name, original)
    return events, output


# --------------------------------------------------------------------------- #
# the op graph
# --------------------------------------------------------------------------- #
@dataclass
class _Op:
    """One node of the traced DAG, inputs/output as value ids."""

    kind: str  # "leaf" | "add" | "mul" | "cat" | "flatten"
    module: Optional[Module]
    inputs: List[int]
    output: int


class _ValueTable:
    """Tensor-identity -> value-id mapping (tensors kept alive)."""

    def __init__(self) -> None:
        self._tensors: List[Tensor] = []
        self._ids: Dict[int, int] = {}
        self.shapes: Dict[int, Tuple[int, ...]] = {}

    def lookup(self, tensor: Tensor) -> Optional[int]:
        return self._ids.get(id(tensor))

    def register(self, tensor: Tensor) -> int:
        known = self._ids.get(id(tensor))
        if known is not None:
            return known
        vid = len(self._tensors)
        self._tensors.append(tensor)
        self._ids[id(tensor)] = vid
        self.shapes[vid] = tensor.shape
        return vid


def _normalize_outputs(output) -> List[Tuple[Optional[str], Tensor]]:
    """Model output -> ordered ``(name, tensor)`` result slots.

    A bare :class:`Tensor` stays anonymous (``name=None`` — the plan returns
    a plain array, the historical contract).  A ``dict`` keeps its keys, a
    ``tuple``/``list`` gets positional ``out{i}`` names; both compile to a
    named-slot plan whose :meth:`InferencePlan.run` returns a dict.
    """
    if isinstance(output, Tensor):
        return [(None, output)]
    if isinstance(output, dict):
        pairs = [(str(key), value) for key, value in output.items()]
    elif isinstance(output, (tuple, list)):
        pairs = [(f"out{index}", value) for index, value in enumerate(output)]
    else:
        raise PlanTraceError(
            f"unsupported model output type {type(output).__name__}; "
            "a Tensor, dict, tuple or list of Tensors is required"
        )
    if not pairs:
        raise PlanTraceError("the model returned an empty output collection")
    for name, value in pairs:
        if not isinstance(value, Tensor):
            raise PlanTraceError(
                f"model output {name!r} is {type(value).__name__}, not a Tensor"
            )
    return pairs


def _build_ops(
    events: List[object], probe: Tensor, output
) -> Tuple[List[_Op], _ValueTable, int, List[Tuple[Optional[str], int]]]:
    """Re-link the trace into a value graph, inferring flatten glue.

    Between traced ops the only *implicit* glue the compiler understands is
    a flatten (4-D -> 2-D with the same per-sample element count, as written
    ``x.flatten(1)`` in model forwards); residual additions, elementwise
    multiplies and channel concatenations are recorded explicitly by the
    tracer.  Anything else — broadcasting multiplies, division joins, values
    produced by untraced arithmetic — is a trace error.
    """
    table = _ValueTable()
    probe_id = table.register(probe)
    ops: List[_Op] = []
    last_value = probe_id
    # The unsupported glue op recorded since ``last_value``, if any: a
    # flatten inferred from ``last_value`` would silently skip it.
    glue_after_last: Optional[str] = None
    # Outputs of recorded unsupported glue -> the op's name (the events list
    # keeps the tensors alive, so ids stay unique).
    blocked = {
        id(event.output_tensor): event.op
        for event in events
        if isinstance(event, _UnsupportedEvent)
    }
    supported = (
        "only linear chains, residual additions, elementwise multiplies and "
        "channel concatenations can be compiled"
    )

    def refuse_untraced(tensors: Sequence[Tensor], where: str) -> None:
        for tensor in tensors:
            if id(tensor) in blocked:
                raise PlanTraceError(
                    f"{where} consumes the output of a {blocked[id(tensor)]}, "
                    f"which cannot be compiled; {supported}"
                )

    def resolve_input(tensor: Tensor, shape: Tuple[int, ...], where: str) -> int:
        vid = table.lookup(tensor)
        if vid is not None:
            return vid
        refuse_untraced([tensor], where)
        if glue_after_last is not None:
            raise PlanTraceError(
                f"{where}'s input follows a {glue_after_last}, which cannot "
                f"be compiled; {supported}"
            )
        # Unknown tensor: the only inferable glue is a flatten of the most
        # recently produced value.
        last_shape = table.shapes[last_value]
        if (
            len(last_shape) == 4
            and len(shape) == 2
            and last_shape[0] == shape[0]
            and int(np.prod(last_shape[1:])) == shape[1]
        ):
            out_id = table.register(tensor)
            ops.append(_Op("flatten", None, [last_value], out_id))
            return out_id
        raise PlanTraceError(
            f"non-sequential glue before {where} ({last_shape} -> {shape}); {supported}"
        )

    for event in events:
        if isinstance(event, _UnsupportedEvent):
            # Fails only if a traced op or the output consumes it.
            glue_after_last = event.op
            continue
        if isinstance(event, _TraceEvent):
            if event.output_tensor is event.input_tensor:
                continue  # eval-mode identity pass-through (Identity, Dropout)
            in_id = resolve_input(
                event.input_tensor, event.input_shape, type(event.module).__name__
            )
            out_id = table.register(event.output_tensor)
            ops.append(_Op("leaf", event.module, [in_id], out_id))
        elif isinstance(event, (_AddEvent, _MulEvent)):
            join = "addition" if isinstance(event, _AddEvent) else "multiplication"
            lhs_id = table.lookup(event.lhs)
            rhs_id = table.lookup(event.rhs)
            if lhs_id is None or rhs_id is None:
                refuse_untraced([event.lhs, event.rhs], f"elementwise {join}")
                raise PlanTraceError(
                    f"elementwise {join} combines a value the tracer did not "
                    "record; only joins of traced leaf outputs (or the model "
                    "input) can be compiled"
                )
            if table.shapes[lhs_id] != table.shapes[rhs_id]:
                # Broadcasting joins (SE-style per-channel gates) would need
                # layout-dependent shape logic the steps do not implement;
                # refuse so the engine falls back instead of miscompiling.
                raise PlanTraceError(
                    f"elementwise {join} broadcasts "
                    f"{table.shapes[lhs_id]} against {table.shapes[rhs_id]}; "
                    "only same-shape joins can be compiled"
                )
            out_id = table.register(event.output_tensor)
            kind = "add" if isinstance(event, _AddEvent) else "mul"
            ops.append(_Op(kind, None, [lhs_id, rhs_id], out_id))
        else:  # _CatEvent
            in_ids = [table.lookup(t) for t in event.inputs]
            if any(vid is None for vid in in_ids):
                refuse_untraced(event.inputs, "concatenation")
                raise PlanTraceError(
                    "concatenation combines a value the tracer did not "
                    "record; only traced leaf outputs (or the model input) "
                    "can be concatenated"
                )
            shapes = [table.shapes[vid] for vid in in_ids]
            ndims = {len(shape) for shape in shapes}
            if ndims not in ({2}, {4}) or event.axis != 1:
                raise PlanTraceError(
                    "only channel/feature (axis=1) concatenation of 4-D or "
                    f"2-D activations can be compiled (got axis={event.axis}, "
                    f"shapes {shapes})"
                )
            rests = {shape[:1] + shape[2:] for shape in shapes}
            if len(rests) != 1:
                raise PlanTraceError(
                    f"concatenated activations disagree outside the channel "
                    f"axis ({shapes}); cannot compile"
                )
            out_id = table.register(event.output_tensor)
            ops.append(_Op("cat", None, list(in_ids), out_id))
        last_value = out_id
        glue_after_last = None

    outputs: List[Tuple[Optional[str], int]] = []
    for name, tensor in _normalize_outputs(output):
        vid = table.lookup(tensor)
        if vid is None:
            refuse_untraced([tensor], "the model output")
            raise PlanTraceError("the traced graph does not end at the model output")
        outputs.append((name, vid))
    if len(outputs) == 1 and outputs[0][0] is None and outputs[0][1] != last_value:
        raise PlanTraceError("the traced graph does not end at the model output")
    return ops, table, probe_id, outputs


# --------------------------------------------------------------------------- #
# compiled steps
# --------------------------------------------------------------------------- #
def _scalar(value, like: np.ndarray) -> np.ndarray:
    """``value`` as a 0-d array of ``like``'s dtype — the operand numpy makes
    of a Python float next to that array, so the bits are the same, without
    the several microseconds a ufunc spends converting it on every call."""
    return np.asarray(value, dtype=like.dtype)


def _take(slots: Dict[str, np.ndarray], slot: str, pop: bool) -> np.ndarray:
    return slots.pop(slot) if pop else slots[slot]


class _Step:
    """One compiled operation.

    ``refresh`` re-resolves the step's constants.  An optimized plan binds
    each step once per input shape: ``bind(x, ws, backend, slots)`` gets the
    array the step will read at run time (an arena buffer or a view of
    one), the plan's :class:`~repro.serve.workspace.PlanWorkspace`, the
    active backend and ``slots``, the bind-time register file of branch
    values the save/load/join steps route shortcuts through.  It returns
    ``(out, calls)``: the output array and the ``(callable, args)`` numpy
    calls that fill it, which the plan replays on every run at that shape.
    Steps whose output is a view of their input (layout flips, slices,
    saves and loads) bind no calls at all.  Every buffer comes from the
    arena, under a role keyed by the step's :attr:`key`, and is read or
    written only by the step's own calls, unless the step returns it (or a
    view of it) as its output or saves it in ``slots``: the arena shares
    slabs by exactly those lifetimes.

    Reference plans (``optimize=False``) have no arena; their steps
    implement ``run(x, backend, state)`` instead, called on every run with a
    fresh ``state`` register file.
    """

    #: Position-derived identity assigned by the owning plan; namespaces the
    #: step's workspace buffers.
    key: str = ""

    #: Name of the backend GEMM kernel the step calls (``None`` for steps
    #: that call none); reported as ``route`` by
    #: :meth:`InferencePlan.step_timings`.
    backend_kernel: Optional[str] = None

    def refresh(self) -> None:  # pragma: no cover - interface
        pass

    def bind(self, x: np.ndarray, ws: PlanWorkspace, backend, slots) -> Tuple[object, Calls]:
        raise NotImplementedError  # pragma: no cover - interface

    def run(self, x: np.ndarray, backend, state):  # pragma: no cover - interface
        raise NotImplementedError


class _LayoutFlipView(_Step):
    """Swap the batch and channel axes at a conv stage boundary, as a view.

    Serves both directions (NCHW -> CNHW and back).  No copy is made: the
    next convolution's column fill reads the permuted view, so a stage
    hands over to one of the other layout for free.  The terminal
    :class:`_ToBatchMajor` copies instead, because its result leaves the
    plan.
    """

    def bind(self, x, ws, backend, slots):
        return x.transpose(1, 0, 2, 3), ()


class _ToBatchMajor(_Step):
    def bind(self, x, ws, backend, slots):
        shape = (x.shape[1], x.shape[0]) + x.shape[2:]
        out = ws.buffer((self.key, "tbm"), shape, x.dtype)
        return out, ((np.copyto, (out, x.transpose(1, 0, 2, 3))),)


class _SaveStep(_Step):
    """Spill the live activation into a named branch slot (by reference)."""

    def __init__(self, slot: str) -> None:
        self.slot = slot

    def run(self, x, backend, state):
        state[self.slot] = x
        return x

    def bind(self, x, ws, backend, slots):
        return self.run(x, backend, slots), ()


class _LoadStep(_Step):
    """Make a previously saved branch value the live activation."""

    def __init__(self, slot: str, pop: bool) -> None:
        self.slot = slot
        self.pop = pop

    def run(self, x, backend, state):
        return _take(state, self.slot, self.pop)

    def bind(self, x, ws, backend, slots):
        return self.run(x, backend, slots), ()


class _JoinStep(_Step):
    """Elementwise join of a saved branch value onto the live activation.

    ``transpose`` reconciles a branch saved in batch-major layout with a
    channel-major live activation (or vice versa) — an elementwise join is
    layout-agnostic once the axes are permuted, and the permuted view costs
    nothing.  ``inplace`` lets the join accumulate into the live buffer
    when the compiler proved it is a fresh, exclusively-owned array; the
    copy-on-join case lands in a workspace buffer instead of allocating.
    """

    #: The ufunc a bound join calls, the backend kernel a reference plan
    #: calls (same ufunc, so the same bits), and the arena buffer role.
    ufunc = None
    kernel_name = ""
    role = ""

    def __init__(self, slot: str, pop: bool, transpose: bool = False, inplace: bool = False) -> None:
        self.slot = slot
        self.pop = pop
        self.transpose = transpose
        self.inplace = inplace

    def _branch(self, slots) -> np.ndarray:
        branch = _take(slots, self.slot, self.pop)
        return branch.transpose(1, 0, 2, 3) if self.transpose else branch

    def run(self, x, backend, state):
        return getattr(backend, self.kernel_name)(x, self._branch(state))

    def bind(self, x, ws, backend, slots):
        branch = self._branch(slots)
        if self.inplace and x.flags.writeable:
            out = x
        else:
            out = ws.buffer((self.key, self.role), x.shape, x.dtype)
        return out, ((self.ufunc, (x, branch, out)),)


class _ResidualAddStep(_JoinStep):
    """Join point: add a saved shortcut value onto the live activation."""

    ufunc = np.add
    kernel_name = "residual_add"
    role = "res"


class _ResidualMulStep(_JoinStep):
    """Gating join: multiply a saved branch value onto the live activation.

    IEEE multiplication is commutative bitwise, so operand order never
    matters.  This is the join a gated-attention block compiles to:
    ``value * sigmoid(gate)``.
    """

    ufunc = np.multiply
    kernel_name = "residual_mul"
    role = "mul"


class _ConcatStep(_Step):
    """Channel/feature concatenation, gathered straight into the arena.

    ``parts`` describes each operand in traced order: ``slot`` names the
    saved branch value (``None`` = the live activation), ``pop`` releases
    the slot on its last use, ``transpose`` reconciles a part whose saved
    layout disagrees with the join's output layout (a permuted view — the
    gather copy materialises it).  ``channel_major`` says which axis is the
    channel axis of the *output* (0 in CNHW, 1 in NCHW/flat), so the step
    works in whatever layout the surrounding stages already use.  A bound
    concatenation copies each part into its slice of one arena buffer; the
    result is bitwise-identical to ``np.concatenate`` (pure data movement).
    """

    def __init__(
        self, parts: Sequence[Tuple[Optional[str], bool, bool]], channel_major: bool
    ) -> None:
        self.parts = list(parts)
        self.axis = 0 if channel_major else 1

    def _arrays(self, x, slots) -> List[np.ndarray]:
        arrays = []
        for slot, pop, transpose in self.parts:
            part = x if slot is None else _take(slots, slot, pop)
            arrays.append(part.transpose(1, 0, 2, 3) if transpose else part)
        return arrays

    def run(self, x, backend, state):
        return np.concatenate(self._arrays(x, state), axis=self.axis)

    def bind(self, x, ws, backend, slots):
        arrays = self._arrays(x, slots)
        axis = self.axis
        shape = list(arrays[0].shape)
        shape[axis] = sum(a.shape[axis] for a in arrays)
        shape = tuple(shape)
        out = ws.buffer((self.key, "cat"), shape, arrays[0].dtype)
        calls = []
        offset = 0
        for part in arrays:
            width = part.shape[axis]
            window = out[offset : offset + width] if axis == 0 else out[:, offset : offset + width]
            calls.append((np.copyto, (window, part)))
            offset += width
        return out, tuple(calls)


class _OutputsStep(_Step):
    """Terminal step of a multi-output plan: collect named result slots.

    Each entry reads either the live activation (``slot=None``) or a saved
    branch value and views channel-major spatial outputs as NCHW.  The step
    yields a ``dict`` which :meth:`InferencePlan.run` copies entry by entry
    out of the arena — every returned output is caller-owned, the same
    contract as a single-output plan's detached logits.
    """

    def __init__(
        self, entries: Sequence[Tuple[str, Optional[str], bool, bool]]
    ) -> None:
        # (name, slot-or-None, pop, channel_major)
        self.entries = list(entries)

    def run(self, x, backend, state):
        out: Dict[str, np.ndarray] = {}
        for name, slot, pop, channel_major in self.entries:
            part = x if slot is None else _take(state, slot, pop)
            out[name] = part.transpose(1, 0, 2, 3) if channel_major else part
        return out

    def bind(self, x, ws, backend, slots):
        return self.run(x, backend, slots), ()


def _resolve_activation(act: Optional[Module]):
    """Return (relu, alpha, step) for a fused trailing activation."""
    if act is None or isinstance(act, Identity):
        return False, None, None
    if isinstance(act, ReLU):
        return True, None, None
    if isinstance(act, PACT):
        alpha = float(act.alpha.data.reshape(-1)[0])
        if alpha <= 0:
            raise ValueError(f"PACT clipping level must be positive, got {alpha}")
        if act.bits >= 16:
            return False, alpha, None
        return False, alpha, alpha / (2 ** act.bits - 1)
    raise PlanTraceError(f"unsupported fused activation {type(act).__name__}")


def _activation_calls(src: np.ndarray, out: np.ndarray, relu: bool, alpha, step) -> Calls:
    """Calls applying a ReLU or PACT to ``src`` into ``out`` (in place when
    they are the same array); the first call doubles as the copy."""
    zero = _scalar(0.0, out)
    if relu:
        # np.maximum deprecates a positional ``out``.
        return ((functools.partial(np.maximum, out=out), (src, zero)),)
    if alpha is None:
        return () if src is out else ((np.copyto, (out, src)),)
    if step is None:
        return ((_clip, (src, zero, _scalar(alpha, out), out)),)
    # Scaled-first staircase: one multiply instead of a divide (float
    # division is ~2x the cost per element), clipping at the level count in
    # the scaled domain.  Same staircase up to a 1-ulp rounding boundary —
    # the fused-plan tolerance allowance.
    return (
        (np.multiply, (src, _scalar(1.0 / step, out), out)),
        (_clip, (out, zero, _scalar(alpha / step, out), out)),
        (np.rint, (out, out)),
        (np.multiply, (out, _scalar(step, out), out)),
    )


class _FusedConvStep(_Step):
    """Convolution + folded BatchNorm + fused PACT/ReLU, layout-aware.

    ``channel_major`` picks the activation layout the compiler assigned this
    convolution: the channel-major single-GEMM kernel for small spatial maps,
    or the batch-major batched-GEMM kernel above the backend's measured
    pure-kernel crossover (``cm_kernel_max_positions``), where N per-sample
    products beat one wide GEMM.  In float mode the folded BN gain is
    multiplied straight into the GEMM operand (a fresh array — never
    in-place, the unfolded matrix is a view of the layer's cached quantized
    weights), so the hot path skips the per-channel scale pass entirely.
    """

    def __init__(
        self,
        conv,
        bn: Optional[BatchNorm2d],
        act: Optional[Module],
        mode: str,
        channel_major: bool = True,
    ) -> None:
        self.conv = conv
        self.bn = bn
        self.act = act
        self.mode = mode
        self.channel_major = channel_major
        self.kernel = conv.kernel_size
        stride = conv.stride
        padding = conv.padding
        self.stride = stride if isinstance(stride, tuple) else (int(stride), int(stride))
        self.padding = padding if isinstance(padding, tuple) else (int(padding), int(padding))
        self._w_mat: Optional[np.ndarray] = None
        self._scale = None
        self._bias = None
        self._relu = False
        self._alpha = None
        self._step = None

    @property
    def backend_kernel(self) -> str:
        return "int_conv2d_cm" if self.channel_major else "int_conv2d"

    def refresh(self) -> None:
        conv = self.conv
        if isinstance(conv, QuantizedLayer):
            _, info = conv.quantized_weight()
            if self.mode == "integer":
                w_src, scale = info.codes, float(info.scale)
            else:
                w_src, scale = info.quantized, None
        else:
            w_src, scale = conv.weight.data, None
        w_mat = w_src.reshape(w_src.shape[0], -1)
        self._w_mat = w_mat if w_mat.dtype == np.float32 else w_mat.astype(np.float32)

        bias = None if conv.bias is None else conv.bias.data
        if self.bn is not None:
            bn = self.bn
            g = bn.weight.data / np.sqrt(bn.running_var + bn.eps)
            folded_bias = bn.bias.data - bn.running_mean * g
            if bias is not None:
                folded_bias = folded_bias + bias * g
            if scale is None:
                # Float mode: fold the BN gain into the GEMM operand.  The
                # product is a NEW array — ``_w_mat`` above is a reshape view
                # of the layer's version-cached quantized weights.
                self._w_mat = (self._w_mat * g.reshape(-1, 1)).astype(np.float32, copy=False)
                self._scale = None
            else:
                # Integer mode keeps the scale distributed outside the GEMM
                # so the weight operand stays the integer codes.
                self._scale = scale * g
            self._bias = folded_bias
        else:
            self._scale = scale
            self._bias = bias
        self._relu, self._alpha, self._step = _resolve_activation(self.act)

    def bind(self, x, ws, backend, slots):
        kernel = backend.bind_int_conv2d_cm if self.channel_major else backend.bind_int_conv2d
        out, calls = kernel(
            x, self._w_mat, self.kernel, self.stride, self.padding,
            self._scale, self._bias, ws, self.key,
        )
        return out, tuple(calls) + _activation_calls(
            out, out, self._relu, self._alpha, self._step
        )


class _FusedLinearStep(_Step):
    """Linear layer + fused PACT/ReLU on (N, features) activations."""

    backend_kernel = "int_linear"

    def __init__(self, layer, act: Optional[Module], mode: str) -> None:
        self.layer = layer
        self.act = act
        self.mode = mode
        self._w: Optional[np.ndarray] = None
        self._scale = None
        self._bias = None
        self._relu = False
        self._alpha = None
        self._step = None

    def refresh(self) -> None:
        layer = self.layer
        if isinstance(layer, QuantizedLayer):
            _, info = layer.quantized_weight()
            if self.mode == "integer":
                w, scale = info.codes, float(info.scale)
            else:
                w, scale = info.quantized, None
        else:
            w, scale = layer.weight.data, None
        self._w = w if w.dtype == np.float32 else w.astype(np.float32)
        self._scale = scale
        self._bias = None if layer.bias is None else layer.bias.data
        self._relu, self._alpha, self._step = _resolve_activation(self.act)

    def bind(self, x, ws, backend, slots):
        out, calls = backend.bind_int_linear(x, self._w, self._scale, self._bias, ws, self.key)
        return out, tuple(calls) + _activation_calls(
            out, out, self._relu, self._alpha, self._step
        )


class _BatchNormStep(_Step):
    """Standalone eval-mode BatchNorm as a per-channel affine."""

    def __init__(self, bn: BatchNorm2d, channel_axis: int, ndim: int) -> None:
        self.bn = bn
        shape = [1] * ndim
        shape[channel_axis] = -1
        self._shape = tuple(shape)
        self._scale: Optional[np.ndarray] = None
        self._bias: Optional[np.ndarray] = None

    def refresh(self) -> None:
        bn = self.bn
        g = bn.weight.data / np.sqrt(bn.running_var + bn.eps)
        self._scale = g.reshape(self._shape)
        self._bias = (bn.bias.data - bn.running_mean * g).reshape(self._shape)

    def bind(self, x, ws, backend, slots):
        dtype = np.result_type(x.dtype, self._scale.dtype)
        out = ws.buffer((self.key, "bn"), x.shape, dtype)
        scale, bias = expand_channel_operands(out, (self._scale, self._bias))
        return out, ((np.multiply, (x, scale, out)), (np.add, (out, bias, out)))


class _ActivationStep(_Step):
    """Standalone ReLU or PACT (no preceding weight layer to fuse into)."""

    def __init__(self, act: Module) -> None:
        self.act = act
        self._relu = False
        self._alpha = None
        self._step = None

    def refresh(self) -> None:
        self._relu, self._alpha, self._step = _resolve_activation(self.act)

    def bind(self, x, ws, backend, slots):
        # Single-pass clip/max into the step's buffer — instead of
        # copy-then-in-place — then the staircase runs in place on it.
        out = ws.buffer((self.key, "act"), x.shape, x.dtype)
        return out, _activation_calls(x, out, self._relu, self._alpha, self._step)


class _SigmoidStep(_Step):
    """Standalone logistic sigmoid — the gate activation of attention blocks.

    Computed as ``1 / (1 + exp(-x))`` with every intermediate in the output
    buffer, matching :meth:`Tensor.sigmoid` op-for-op (negate, exp, add,
    divide) so the fused plan stays bitwise-aligned with the module path on
    this step.
    """

    def bind(self, x, ws, backend, slots):
        out = ws.buffer((self.key, "sig"), x.shape, x.dtype)
        one = _scalar(1.0, out)
        return out, (
            (np.negative, (x, out)),
            (np.exp, (out, out)),
            (np.add, (out, one, out)),
            (np.divide, (one, out, out)),
        )


class _ChannelSliceStep(_Step):
    """Contiguous channel-range view — the grouped-convolution split.

    A pure view in either layout (no copy, no workspace buffer); the
    consuming convolution's patch fill materialises it.  Because the result
    aliases its producer, the compiler marks it not-fresh, so joins on it
    never accumulate in place.
    """

    def __init__(self, start: int, stop: int, channel_major: bool) -> None:
        self.start = int(start)
        self.stop = int(stop)
        self.channel_major = channel_major

    def bind(self, x, ws, backend, slots):
        if self.channel_major:
            return x[self.start : self.stop], ()
        return x[:, self.start : self.stop], ()


class _PoolStep(_Step):
    """Max or average pooling; the backend kernel treats the two leading
    axes as batch, so it serves both the NCHW and channel-major layouts."""

    kernel_name = ""

    def __init__(self, kernel: int, stride: int) -> None:
        self.kernel = (int(kernel), int(kernel))
        self.stride = (int(stride), int(stride))

    def bind(self, x, ws, backend, slots):
        bind_pool = getattr(backend, self.kernel_name)
        return bind_pool(x, self.kernel, self.stride, ws, self.key)


class _MaxPoolStep(_PoolStep):
    kernel_name = "bind_pool_max"


class _AvgPoolStep(_PoolStep):
    kernel_name = "bind_pool_avg"


class _GlobalAvgPoolStep(_Step):
    def __init__(self, channel_major: bool) -> None:
        self.channel_major = channel_major

    def bind(self, x, ws, backend, slots):
        a0, a1 = x.shape[0], x.shape[1]
        pooled = ws.buffer((self.key, "gap0"), (a0, a1), x.dtype)
        # np.mean(x, axis=(2, 3), out=pooled) as its two ufunc calls: the
        # sum, then a divide by the intp element count.
        count = np.asarray(x.shape[2] * x.shape[3], dtype=np.intp)
        calls = [
            (np.add.reduce, (x, (2, 3), None, pooled)),
            (np.true_divide, (pooled, count, pooled)),
        ]
        if not self.channel_major:
            return pooled, tuple(calls)
        # Transpose-copy so the downstream linear gets a contiguous operand.
        out = ws.buffer((self.key, "gap1"), (a1, a0), x.dtype)
        calls.append((np.copyto, (out, pooled.T)))
        return out, tuple(calls)


class _FlattenStep(_Step):
    def __init__(self, channel_major: bool) -> None:
        self.channel_major = channel_major

    def bind(self, x, ws, backend, slots):
        if self.channel_major:
            c, n, h, w = x.shape
            shape = (n, c * h * w)
            out = ws.buffer((self.key, "flat"), shape, x.dtype)
            return out, ((np.copyto, (out.reshape(n, c, h, w), x.transpose(1, 0, 2, 3))),)
        shape = (x.shape[0], int(np.prod(x.shape[1:])))
        view = x.reshape(shape)
        if np.may_share_memory(view, x):
            return view, ()
        # Strides that allow no flat view (a channel slice, say): the bound
        # calls must read the live input, so copy it in on every run.
        out = ws.buffer((self.key, "flat"), shape, x.dtype)
        return out, ((np.copyto, (out.reshape(x.shape), x)),)


# --------------------------------------------------------------------------- #
# reference steps (optimize=False): bitwise parity with the module path
# --------------------------------------------------------------------------- #
class _RefModuleStep(_Step):
    """Replay one leaf module through its own forward — the exactness anchor.

    Calling the module itself (under ``no_grad``, in eval mode) executes the
    *identical* functional ops the module path runs, so a reference plan is
    bitwise-indistinguishable from ``model.eval()`` while still exercising
    the compiled graph's save/load/join linearization.
    """

    def __init__(self, module: Module) -> None:
        self.module = module

    def run(self, x, backend, state):
        return self.module(Tensor(x)).data


class _RefIntegerStep(_Step):
    """Integer-code replay of one quantized layer, as the session runs it."""

    def __init__(self, layer: QuantizedLayer) -> None:
        self.layer = layer
        self._export = None

    def refresh(self) -> None:
        from ..quant.integer_inference import export_layer

        self._export = export_layer("plan", self.layer)

    def run(self, x, backend, state):
        from ..quant.integer_inference import integer_conv2d, integer_linear

        if self._export.kind == "conv2d":
            return integer_conv2d(x, self._export)
        return integer_linear(x, self._export)


class _RefFlattenStep(_Step):
    def run(self, x, backend, state):
        return x.reshape(x.shape[0], -1)


# --------------------------------------------------------------------------- #
# fusion groups
# --------------------------------------------------------------------------- #
@dataclass
class _Group:
    """A fused unit of the op graph (or a single op when nothing fuses)."""

    kind: str  # "conv" | "linear" | "module" | "add" | "mul" | "cat" | "flatten"
    module: Optional[Module] = None
    bn: Optional[BatchNorm2d] = None
    act: Optional[Module] = None
    inputs: List[int] = field(default_factory=list)
    output: int = -1


def _fuse_groups(ops: List[_Op], consumers: Dict[int, int], optimize: bool) -> List[_Group]:
    """Peephole-fuse conv/linear with trailing BN/activation, graph-aware.

    A follower is folded only when it is the next op in execution order AND
    the sole consumer of its producer's output — so a value feeding both a
    BatchNorm and a residual join is never fused away.
    """

    def fusable(nxt: Optional[_Op], out_id: int, types) -> bool:
        # THE fusion safety rule, in one place: the candidate must be the
        # next leaf in execution order, of a foldable type, consuming
        # exactly this output — and be its *only* consumer.
        return (
            nxt is not None
            and nxt.kind == "leaf"
            and isinstance(nxt.module, types)
            and nxt.inputs == [out_id]
            and consumers[out_id] == 1
        )

    groups: List[_Group] = []
    index = 0
    while index < len(ops):
        op = ops[index]
        index += 1
        if op.kind in ("add", "mul", "cat"):
            groups.append(_Group(op.kind, inputs=list(op.inputs), output=op.output))
            continue
        if op.kind == "flatten":
            groups.append(_Group("flatten", inputs=list(op.inputs), output=op.output))
            continue
        module = op.module
        if optimize and isinstance(module, (QConv2d, Conv2d)):
            bn = None
            act = None
            out_id = op.output
            nxt = ops[index] if index < len(ops) else None
            if fusable(nxt, out_id, BatchNorm2d):
                bn = nxt.module
                out_id = nxt.output
                index += 1
                nxt = ops[index] if index < len(ops) else None
            if fusable(nxt, out_id, (PACT, ReLU)):
                act = nxt.module
                out_id = nxt.output
                index += 1
            groups.append(
                _Group("conv", module=module, bn=bn, act=act, inputs=list(op.inputs), output=out_id)
            )
        elif optimize and isinstance(module, (QLinear, Linear)):
            act = None
            out_id = op.output
            nxt = ops[index] if index < len(ops) else None
            if fusable(nxt, out_id, (PACT, ReLU)):
                act = nxt.module
                out_id = nxt.output
                index += 1
            groups.append(
                _Group("linear", module=module, act=act, inputs=list(op.inputs), output=out_id)
            )
        else:
            groups.append(
                _Group("module", module=module, inputs=list(op.inputs), output=op.output)
            )
    return groups


def _count_consumers(
    ops: List[_Op], final_ids: Sequence[int]
) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for op in ops:
        for vid in op.inputs:
            counts[vid] = counts.get(vid, 0) + 1
    for vid in final_ids:  # each returned value (result slots count once each)
        counts[vid] = counts.get(vid, 0) + 1
    return counts


# --------------------------------------------------------------------------- #
# run observers
# --------------------------------------------------------------------------- #
class _StepProfiler:
    """Run observer that accumulates each step's time, keyed by step key."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}

    def reset(self) -> None:
        self.calls.clear()
        self.total_s.clear()

    def begin_run(self) -> bool:
        return True

    def observe(self, step: _Step, inputs, out, seconds: float) -> None:
        key = step.key
        self.calls[key] = self.calls.get(key, 0) + 1
        self.total_s[key] = self.total_s.get(key, 0.0) + seconds


def _detach(out):
    """A run's result, made caller-owned.

    An optimized plan's result lives in its arena, which the next run
    overwrites, so it is copied out — entry by entry for a multi-output
    plan, whose channel-major entries are NCHW views.  This copy is the one
    intentional per-run allocation and is excluded from the run_allocations
    counter by design.  A reference plan's result is copied the same way,
    so both flavours hand back arrays nothing else references.
    """
    if isinstance(out, dict):
        return {name: np.array(part, order="C") for name, part in out.items()}
    return np.array(out)


@dataclass
class _Schedule:
    """An optimized plan bound at one input shape.

    ``input`` is the arena buffer a run copies its request into, ``steps``
    each step with its input, its output and the ``(callable, args)`` calls
    that fill the output (the observed loop times each step's calls and
    shows its observers the step), ``output`` the result.
    """

    input: np.ndarray
    steps: Tuple[Tuple[_Step, object, object, Calls], ...]
    output: object


# --------------------------------------------------------------------------- #
# the plan
# --------------------------------------------------------------------------- #
class InferencePlan:
    """A compiled, layout-optimised eval path for one model.

    Build with :meth:`trace`; call :meth:`refresh` after the model's weights,
    bit assignment or BatchNorm statistics may have changed (cheap when they
    have not — quantized weights come from the layer's version-keyed cache);
    then :meth:`run` batches of raw ``(N, C, H, W)`` float32 arrays through it.
    """

    def __init__(
        self,
        model,
        steps: Sequence[_Step],
        mode: str,
        optimized: bool = True,
        meta: Optional[Dict[str, int]] = None,
        output_names: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.model = model
        self.steps = list(steps)
        self.mode = mode
        self.optimized = optimized
        # Named result slots for multi-output plans (``None`` = the plan
        # returns one plain logits array, the historical contract).
        self.output_names = output_names
        self.meta: Dict[str, int] = dict(meta or {})
        # Optimized plans own a preallocated arena; steps namespace their
        # buffers by position-derived keys.  Reference plans replay module
        # forwards (fresh arrays by construction), so they take none.
        self._workspace: Optional[PlanWorkspace] = PlanWorkspace() if optimized else None
        for index, step in enumerate(self.steps):
            step.key = f"s{index}"
        # Bound schedules of an optimized plan, one per (input shape, dtype,
        # backend), and how many runs bound a schedule and how many replayed
        # a resident one.
        self._schedules: Dict[Tuple, _Schedule] = {}
        self._binds = 0
        self._replays = 0
        # Opt-in observers: the per-step profiler and a quantization-health
        # tap.  While any is attached, run() hands each run to the observed
        # loop; the hot loop itself carries no per-step branch.
        self._profiler = _StepProfiler()
        self._health_tap = None
        self._observers: Tuple[object, ...] = ()

    @property
    def workspace(self) -> Optional[PlanWorkspace]:
        """The plan-owned buffer arena (``None`` for reference plans)."""
        return self._workspace

    @property
    def profile(self) -> bool:
        """True while per-step timing is on (see :meth:`enable_profiling`)."""
        return self._profiler in self._observers

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def trace(
        cls,
        model,
        input_shape: Sequence[int],
        mode: str = "float",
        verify: bool = True,
        rtol: float = 1e-3,
        atol: float = 1e-3,
        optimize: bool = True,
    ) -> "InferencePlan":
        """Trace ``model`` on a probe of ``input_shape`` and compile a plan.

        ``input_shape`` excludes the batch axis, e.g. ``(3, 32, 32)``.
        ``mode`` selects the GEMM operand: ``"float"`` runs the quantized
        float weights (parity with ``model.eval()``), ``"integer"`` runs the
        raw integer codes with the scale distributed out of the accumulation
        (parity with :class:`~repro.quant.IntegerInferenceSession`).
        ``optimize=False`` compiles the *reference* plan whose steps replay
        the module path's exact ops — bitwise parity, used by the test
        harness to pin graph-compilation correctness.

        Raises :class:`PlanTraceError` when the traced graph uses glue other
        than residual additions, elementwise multiplies, channel
        concatenations and flattens, :class:`PlanVerifyError` when the
        compiled plan fails verification.  A model returning a ``dict`` (or
        ``tuple``) of tensors compiles to a multi-output plan whose
        :meth:`run` returns ``{name: array}``.
        """
        if mode not in ("float", "integer"):
            raise ValueError(f"unknown plan mode {mode!r}")
        probe_np = np.random.default_rng(0).standard_normal((1, *input_shape)).astype(np.float32)
        probe = Tensor(probe_np)
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                events, output = _trace_graph(model, probe)
                if not any(isinstance(event, _TraceEvent) for event in events):
                    raise PlanTraceError("no leaf layers were recorded during tracing")
                ops, table, probe_id, outputs = _build_ops(events, probe, output)
                steps, meta = cls._compile(
                    ops, probe_np.ndim, mode, optimize, probe_id, outputs
                )
                named = len(outputs) > 1 or outputs[0][0] is not None
                names = tuple(name for name, _ in outputs) if named else None
                plan = cls(
                    model, steps, mode, optimized=optimize, meta=meta, output_names=names
                )
                if verify:
                    plan._verify(input_shape, rtol, atol)
            return plan
        finally:
            model.train(was_training)

    def _verify(self, input_shape, rtol: float, atol: float) -> None:
        """Check the compiled plan against the model on several probes.

        Probes use batch size 2 so the batched layout paths (channel-major
        columns with N inside the GEMM's P axis, pooling over the leading
        batch axes) are exercised, not just the degenerate single-sample
        case.  Reference plans must match **bitwise** on every probe — they
        replay the module path's exact ops, so any difference is a
        structural mis-compile.  Fused plans reorder float accumulation, and
        under a PACT staircase a round-off difference at a rounding boundary
        legitimately flips an isolated activation by one quantization step —
        which then shifts every downstream logit of that sample.  Such flips
        are input-dependent and rare per probe, while a structural
        mis-compile corrupts *every* probe, so a fused plan is accepted as
        soon as any probe agrees to tolerance and rejected only when all of
        them disagree.
        """
        self.refresh()
        was_training = self.model.training
        self.model.eval()
        # Fused plans (and float reference plans) are checked against the
        # model's own eval forward.  An integer *reference* plan replays the
        # integer session's kernels, so its bitwise target is the session —
        # the float forward only agrees to round-off.
        if not self.optimized and self.mode == "integer":
            from ..quant.integer_inference import IntegerInferenceSession

            reference = IntegerInferenceSession(self.model).run
        else:
            def reference(batch: np.ndarray):
                with no_grad():
                    out = self.model(Tensor(batch))
                pairs = _normalize_outputs(out)
                if len(pairs) == 1 and pairs[0][0] is None:
                    return pairs[0][1].data
                return {name: tensor.data for name, tensor in pairs}

        def paired(got, want) -> List[Tuple[np.ndarray, np.ndarray]]:
            """Align plan and model outputs slot-by-slot for comparison."""
            if isinstance(want, dict) or isinstance(got, dict):
                if (
                    not isinstance(got, dict)
                    or not isinstance(want, dict)
                    or set(got) != set(want)
                ):
                    got_keys = sorted(got) if isinstance(got, dict) else type(got).__name__
                    want_keys = sorted(want) if isinstance(want, dict) else type(want).__name__
                    raise PlanVerifyError(
                        f"compiled plan output slots {got_keys} do not match "
                        f"the model output slots {want_keys}"
                    )
                return [(got[name], want[name]) for name in sorted(want)]
            return [(np.asarray(got), np.asarray(want))]

        try:
            worst = 0.0
            for seed in range(3):
                probe = (
                    np.random.default_rng(seed)
                    .standard_normal((2, *input_shape))
                    .astype(np.float32)
                )
                want = reference(probe)
                got = self.run(probe)
                within_all: List[np.ndarray] = []
                for got_part, want_part in paired(got, want):
                    if got_part.shape != want_part.shape:
                        raise PlanVerifyError(
                            f"compiled plan output shape {got_part.shape} does "
                            f"not match the model output shape {want_part.shape}"
                        )
                    if not self.optimized:
                        if not np.array_equal(got_part, want_part):
                            raise PlanVerifyError(
                                "reference plan is not bitwise-identical to the "
                                f"model's forward pass (max diff "
                                f"{float(np.abs(got_part - want_part).max()):.3e}) — "
                                "structural mis-compile"
                            )
                        continue
                    within_all.append(
                        (
                            np.abs(got_part - want_part)
                            <= atol + rtol * np.abs(want_part)
                        ).ravel()
                    )
                if not self.optimized:
                    continue
                within = np.concatenate(within_all)
                if within.mean() >= 0.97:
                    return
                worst = max(
                    worst,
                    max(
                        float(np.abs(g - w).max())
                        for g, w in paired(got, want)
                    ),
                )
            if not self.optimized:
                return
            raise PlanVerifyError(
                "compiled plan disagrees with the model's forward pass on every "
                f"probe (max diff {worst:.3e})"
            )
        finally:
            self.model.train(was_training)

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #
    @classmethod
    def _compile(
        cls,
        ops: List[_Op],
        input_ndim: int,
        mode: str,
        optimize: bool,
        probe_id: int,
        outputs: List[Tuple[Optional[str], int]],
    ) -> Tuple[List[_Step], Dict[str, int]]:
        """Linearise the op graph into steps with save/load/join management."""
        final_ids = [vid for _, vid in outputs]
        total_consumers = _count_consumers(ops, final_ids)
        groups = _fuse_groups(ops, total_consumers, optimize)
        # Recount over fused groups: values internal to a group disappear.
        remaining: Dict[int, int] = {}
        for group in groups:
            for vid in group.inputs:
                remaining[vid] = remaining.get(vid, 0) + 1
        for vid in final_ids:
            remaining[vid] = remaining.get(vid, 0) + 1

        steps: List[_Step] = []
        meta = {
            "residual_joins": 0,
            "identity_shortcuts": 0,
            "projection_shortcuts": 0,
            "mul_joins": 0,
            "concat_joins": 0,
            "output_slots": len(outputs),
            "saves": 0,
            "loads": 0,
            "fused_conv": 0,
            "batched_conv": 0,
            "fused_linear": 0,
        }
        layout = _FLAT if input_ndim == 2 else _NCHW
        layouts: Dict[int, str] = {probe_id: layout}
        slots: Dict[int, str] = {}
        fresh: Dict[int, bool] = {probe_id: False}
        current = probe_id

        def emit_load(vid: int) -> None:
            nonlocal current, layout
            if vid not in slots:
                raise PlanTraceError(
                    "a branch value is consumed before the compiler saved it; "
                    "the traced graph is not a supported residual DAG"
                )
            remaining[vid] -= 1
            pop = remaining[vid] == 0
            steps.append(_LoadStep(slots[vid], pop=pop))
            meta["loads"] += 1
            if pop:
                del slots[vid]
            current = vid
            layout = layouts[vid]

        # The probe itself may feed a shortcut (a residual block directly on
        # the input): spill it before any compute overwrites the register.
        first_inputs = groups[0].inputs if groups else []
        probe_register_uses = 1 if probe_id in first_inputs else 0
        if remaining.get(probe_id, 0) > probe_register_uses:
            slots[probe_id] = f"v{probe_id}"
            steps.append(_SaveStep(slots[probe_id]))
            meta["saves"] += 1

        for index, group in enumerate(groups):
            if group.kind in ("add", "mul"):
                join = "residual addition" if group.kind == "add" else "elementwise multiplication"
                lhs, rhs = group.inputs
                if current == lhs:
                    remaining[lhs] -= 1
                    other = rhs
                elif current == rhs:
                    remaining[rhs] -= 1
                    other = lhs
                else:
                    emit_load(lhs)
                    other = rhs
                if other not in slots:
                    raise PlanTraceError(
                        f"{join} consumes a value that is no longer "
                        "live; the traced graph is not a supported DAG"
                    )
                remaining[other] -= 1
                pop = remaining[other] == 0
                slot = slots[other]
                if pop:
                    del slots[other]
                other_layout = layouts[other]
                if (layout == _FLAT) != (other_layout == _FLAT):
                    raise PlanTraceError(
                        f"{join} joins activations of incompatible "
                        f"layouts ({layout} + {other_layout})"
                    )
                transpose = layout != other_layout
                inplace = (
                    optimize
                    and fresh.get(current, False)
                    and current not in slots
                    and remaining.get(current, 0) == 0
                )
                join_cls = _ResidualAddStep if group.kind == "add" else _ResidualMulStep
                steps.append(
                    join_cls(slot, pop=pop, transpose=transpose, inplace=inplace)
                )
                if group.kind == "add":
                    meta["residual_joins"] += 1
                    if total_consumers.get(other, 0) >= 2:
                        meta["identity_shortcuts"] += 1
                    else:
                        meta["projection_shortcuts"] += 1
                else:
                    meta["mul_joins"] += 1
            elif group.kind == "cat":
                # Output layout follows the live operand (no conversion for
                # the part already in the register); a join with no live
                # part follows its first operand.  Saved parts whose layout
                # disagrees are reconciled by a per-part permuted view.
                out_layout = layout if current in group.inputs else layouts[group.inputs[0]]
                parts: List[Tuple[Optional[str], bool, bool]] = []
                live_used = False
                for vid in group.inputs:
                    part_layout = layouts[vid]
                    if (part_layout == _FLAT) != (out_layout == _FLAT):
                        raise PlanTraceError(
                            "concatenation joins activations of incompatible "
                            f"layouts ({part_layout} + {out_layout})"
                        )
                    remaining[vid] -= 1
                    if vid == current and not live_used:
                        live_used = True
                        parts.append((None, False, False))
                        continue
                    if vid not in slots:
                        raise PlanTraceError(
                            "concatenation consumes a value that is no longer "
                            "live; the traced graph is not a supported DAG"
                        )
                    pop = remaining[vid] == 0
                    slot = slots[vid]
                    if pop:
                        del slots[vid]
                    parts.append((slot, pop, part_layout != out_layout))
                steps.append(_ConcatStep(parts, channel_major=out_layout == _CNHW))
                meta["concat_joins"] += 1
                layout = out_layout
            else:
                source = group.inputs[0]
                if current == source:
                    remaining[source] -= 1
                else:
                    emit_load(source)
                layout = cls._emit_group(group, steps, layout, mode, optimize, meta)

            current = group.output
            layouts[current] = layout
            # Freshness gates the in-place joins: conv/linear/join/concat and
            # elementwise/pooling steps materialise a new exclusively-owned
            # buffer; flattens are reshape views and pass-through or slice
            # modules alias their input, so they must stay copy-on-join.
            fresh[current] = group.kind in ("conv", "linear", "add", "mul", "cat") or (
                group.kind == "module"
                and not isinstance(group.module, (Dropout, Identity, Flatten, ChannelSlice))
            )

            nxt = groups[index + 1] if index + 1 < len(groups) else None
            if nxt is not None:
                register_uses = 1 if current in nxt.inputs else 0
            else:
                register_uses = sum(1 for _, vid in outputs if vid == current)
            if remaining.get(current, 0) > register_uses:
                slots[current] = f"v{current}"
                steps.append(_SaveStep(slots[current]))
                meta["saves"] += 1

        named = len(outputs) > 1 or outputs[0][0] is not None
        if not named:
            if optimize and layout == _CNHW:
                steps.append(_ToBatchMajor())
            return steps, meta
        # Named result slots: collect every output (live register or saved
        # branch value) into a dict, converting channel-major spatial
        # activations back to NCHW per entry.
        entries: List[Tuple[str, Optional[str], bool, bool]] = []
        for name, vid in outputs:
            if vid == current:
                remaining[vid] -= 1
                entries.append((name, None, False, layouts[vid] == _CNHW))
                continue
            if vid not in slots:
                raise PlanTraceError(
                    f"model output {name!r} is no longer live at the end of "
                    "the trace; the traced graph is not a supported DAG"
                )
            remaining[vid] -= 1
            pop = remaining[vid] == 0
            slot = slots[vid]
            if pop:
                del slots[vid]
            entries.append((name, slot, pop, layouts[vid] == _CNHW))
        steps.append(_OutputsStep(entries))
        return steps, meta

    @staticmethod
    def _conv_channel_major(conv) -> bool:
        """Layout decision for one convolution, by its fan-in.

        Skinny-K GEMMs (small ``c*kh*kw``) run faster as N per-sample
        batch-major products than as one wide channel-major GEMM — the
        backend's calibrated ``batched_max_fan_in`` crossover says where.
        Layout flips between stages are transpose views (free), so the
        decision is purely per-conv.  Backends without the crossover
        attribute always serve channel-major.
        """
        threshold = getattr(get_backend(), "batched_max_fan_in", None)
        if threshold is None:
            return True
        kh, kw = conv.kernel_size
        fan_in = conv.in_channels * kh * kw
        return fan_in > threshold

    @classmethod
    def _emit_group(
        cls,
        group: _Group,
        steps: List[_Step],
        layout: str,
        mode: str,
        optimize: bool,
        meta: Dict[str, int],
    ) -> str:
        """Emit the compute steps for one fused group; returns the new layout."""
        if not optimize:
            return cls._emit_reference(group, steps, layout, mode)
        if group.kind == "flatten":
            steps.append(_FlattenStep(channel_major=layout == _CNHW))
            return _FLAT
        if group.kind == "conv":
            if layout == _FLAT:
                raise PlanTraceError("convolution applied to flattened activations")
            channel_major = cls._conv_channel_major(group.module)
            if channel_major != (layout == _CNHW):
                steps.append(_LayoutFlipView())
                layout = _CNHW if channel_major else _NCHW
            steps.append(
                _FusedConvStep(
                    group.module, group.bn, group.act, mode=mode, channel_major=channel_major
                )
            )
            meta["fused_conv"] += 1
            if not channel_major:
                meta["batched_conv"] += 1
            return layout
        if group.kind == "linear":
            if layout != _FLAT:
                raise PlanTraceError("linear layer applied to unflattened activations")
            steps.append(_FusedLinearStep(group.module, group.act, mode=mode))
            meta["fused_linear"] += 1
            return layout
        module = group.module
        if isinstance(module, Flatten):
            steps.append(_FlattenStep(channel_major=layout == _CNHW))
            return _FLAT
        if isinstance(module, BatchNorm2d):
            ndim = 2 if layout == _FLAT else 4
            steps.append(
                _BatchNormStep(module, channel_axis=0 if layout == _CNHW else 1, ndim=ndim)
            )
            return layout
        if isinstance(module, (PACT, ReLU)):
            steps.append(_ActivationStep(module))
            return layout
        if isinstance(module, Sigmoid):
            steps.append(_SigmoidStep())
            return layout
        if isinstance(module, ChannelSlice):
            if layout == _FLAT:
                raise PlanTraceError("channel slice applied to flattened activations")
            steps.append(
                _ChannelSliceStep(module.start, module.stop, channel_major=layout == _CNHW)
            )
            return layout
        if isinstance(module, MaxPool2d):
            steps.append(_MaxPoolStep(module.kernel_size, module.stride))
            return layout
        if isinstance(module, AvgPool2d):
            steps.append(_AvgPoolStep(module.kernel_size, module.stride))
            return layout
        if isinstance(module, GlobalAvgPool2d):
            if layout == _FLAT:
                raise PlanTraceError("global pooling applied to flattened activations")
            steps.append(_GlobalAvgPoolStep(channel_major=layout == _CNHW))
            return _FLAT
        if isinstance(module, (Dropout, Identity)):
            return layout  # identity in eval mode (aliasing already skipped most)
        raise PlanTraceError(f"unsupported leaf layer {type(module).__name__}")

    @staticmethod
    def _emit_reference(group: _Group, steps: List[_Step], layout: str, mode: str) -> str:
        """Reference emission: replay each op exactly as the module path does."""
        if group.kind == "flatten":
            steps.append(_RefFlattenStep())
            return _FLAT
        module = group.module
        if isinstance(module, (Dropout, Identity)):
            return layout
        if mode == "integer" and isinstance(module, (QConv2d, QLinear)):
            steps.append(_RefIntegerStep(module))
        else:
            steps.append(_RefModuleStep(module))
        if isinstance(module, (Flatten, GlobalAvgPool2d, QLinear, Linear)):
            return _FLAT
        return layout

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Re-resolve weights, folded affines and clipping levels.

        Runs under ``no_grad`` so quantized weights are served from the
        version-keyed cache when unchanged.  Drops every bound schedule:
        they hold the old constants, so the next run at each shape binds
        again.
        """
        self._schedules.clear()
        with no_grad():
            for step in self.steps:
                step.refresh()

    def run(self, x: np.ndarray):
        """Execute the plan on one raw batch (no autograd, no module dispatch).

        An optimized plan binds its steps on the first run at an input shape
        (see :meth:`_Step.bind`) and afterwards only copies the request into
        the schedule's input buffer, replays the bound numpy calls and copies
        the result out — a primed steady-state run performs no set-up work
        and zero arena allocations; the returned logits are caller-owned.
        Reference plans run their steps one by one without an arena; they
        replay module forwards, so the model must be in eval mode (the
        engine guarantees this; call ``model.eval()`` first when running a
        plan directly).
        Concurrent runs of the same plan must be serialised — the engine's
        per-instance lock does this.
        """
        observers: Tuple[object, ...] = ()
        if self._observers:
            observers = tuple(observer for observer in self._observers if observer.begin_run())
        if self._workspace is None:
            return _detach(self._run_reference(x, observers))
        schedule = self._schedule(x)
        np.copyto(schedule.input, x)
        if observers:
            self._replay_observed(schedule, observers)
        else:
            for _, _, _, calls in schedule.steps:
                for fn, args in calls:
                    fn(*args)
        return _detach(schedule.output)

    def _schedule(self, x: np.ndarray) -> _Schedule:
        """The bound schedule for ``x``'s shape, binding it on first use.

        A bind that does not fit the arena's slabs (a batch above its
        capacity, or a buffer that lives longer at this batch than the
        slabs were laid out for) drops every schedule, has the arena lay
        its slabs out again and binds anew.  A plan that grows past one
        sample also records a batch-1 bind first, so batch 1 fits too.
        """
        ws = self._workspace
        ws.begin_run()
        backend = get_backend()
        key = (x.shape, x.dtype, backend)
        schedule = self._schedules.get(key)
        if schedule is not None:
            self._replays += 1
            return schedule
        self._binds += 1
        schedule, fits = self._bind(x.shape, x.dtype, backend)
        if not fits:
            schedule = None
            self._schedules.clear()
            if x.shape[0] > 1:
                self._bind((1,) + x.shape[1:], x.dtype, backend)
            ws.allocate()
            schedule, fits = self._bind(x.shape, x.dtype, backend)
            if not fits:
                raise RuntimeError("a plan bind does not fit the slabs laid out for it")
        self._schedules[key] = schedule
        return schedule

    def _bind(self, shape, dtype, backend) -> Tuple[_Schedule, bool]:
        """Bind every step at ``shape``; also says whether it fits the arena.

        Before each step binds, the plan marks its input and every saved
        slot live in the arena; the result is marked live to the end.
        """
        ws = self._workspace
        ws.begin_bind(shape[0])
        x = ws.buffer("input", shape, dtype)
        entry = x
        slots: Dict[str, np.ndarray] = {}
        steps = []
        for step in self.steps:
            ws.touch(x, *slots.values())
            out, calls = step.bind(x, ws, backend, slots)
            steps.append((step, x, out, calls))
            x = out
            ws.next_step()
        ws.touch(*(x.values() if isinstance(x, dict) else (x,)), *slots.values())
        return _Schedule(entry, tuple(steps), x), ws.end_bind()

    @staticmethod
    def _replay_observed(schedule: _Schedule, observers: Tuple[object, ...]) -> None:
        """The hot loop with every step timed and shown to ``observers``.

        Each observer's ``observe(step, inputs, out, seconds)`` is called
        after the step's calls complete; ``seconds`` covers those calls
        alone, so one observer's work never lands in a step's time.
        Observers only read the buffers, so the outputs are
        bitwise-identical to the hot loop's.
        """
        clock = time.perf_counter
        for step, inputs, out, calls in schedule.steps:
            start = clock()
            for fn, args in calls:
                fn(*args)
            seconds = clock() - start
            for observer in observers:
                observer.observe(step, inputs, out, seconds)

    def _run_reference(self, x: np.ndarray, observers: Tuple[object, ...]):
        """A reference plan's run: each step in turn, timed for ``observers``."""
        backend = get_backend()
        state: Dict[str, np.ndarray] = {}
        clock = time.perf_counter
        with no_grad():
            for step in self.steps:
                start = clock()
                out = step.run(x, backend, state)
                seconds = clock() - start
                for observer in observers:
                    observer.observe(step, x, out, seconds)
                x = out
        return x

    def _set_observers(self, profile: bool, tap) -> None:
        self._health_tap = tap
        self._observers = ((self._profiler,) if profile else ()) + (
            (tap,) if tap is not None else ()
        )

    def set_health_tap(self, tap) -> None:
        """Attach (or with ``None`` detach) a quantization-health tap.

        ``tap`` duck-types :class:`repro.obs.health.QuantHealthTap`
        (``begin_run()`` / ``observe(step, inputs, out, seconds)``).  It
        observes alongside the step profiler; outputs are unchanged.
        """
        self._set_observers(self.profile, tap)

    def enable_profiling(self, enabled: bool = True) -> None:
        """Switch per-step timing on/off (off by default; see :meth:`step_timings`)."""
        self._set_observers(bool(enabled), self._health_tap)

    def reset_profile(self) -> None:
        """Zero the per-step accumulators."""
        self._profiler.reset()

    def step_timings(self) -> List[Dict[str, object]]:
        """Accumulated per-step timings, one entry per plan step in order.

        Each entry carries the step's key/kind, the backend kernel it calls
        as ``route`` (``int_conv2d_cm``, ``int_conv2d``, ``int_linear``, or
        ``None``), how many profiled runs touched it, total/mean
        milliseconds, and its share of the total profiled time.  Empty
        accumulators yield zeros, not NaNs.
        """
        calls = self._profiler.calls
        totals = self._profiler.total_s
        grand_total = sum(totals.values())
        report: List[Dict[str, object]] = []
        for step in self.steps:
            count = calls.get(step.key, 0)
            total_s = totals.get(step.key, 0.0)
            report.append(
                {
                    "key": step.key,
                    "kind": type(step).__name__.lstrip("_"),
                    "route": step.backend_kernel,
                    "calls": count,
                    "total_ms": round(total_s * 1e3, 4),
                    "mean_ms": round(total_s * 1e3 / count, 4) if count else 0.0,
                    "share": round(total_s / grand_total, 4) if grand_total else 0.0,
                }
            )
        return report

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly structural summary (what compiled, and how)."""
        kinds: Dict[str, int] = {}
        for step in self.steps:
            name = type(step).__name__.lstrip("_")
            kinds[name] = kinds.get(name, 0) + 1
        out: Dict[str, object] = {
            "mode": self.mode,
            "optimized": self.optimized,
            "num_steps": len(self.steps),
            "step_kinds": kinds,
            **self.meta,
        }
        if self._workspace is not None:
            out["workspace"] = self._workspace.stats()
            out["steady_state_allocations"] = self._workspace.run_allocations
            # Runs that bound their shape's schedule vs replayed a resident one.
            out["binds"] = self._binds
            out["replays"] = self._replays
        return out

    def __repr__(self) -> str:
        kinds = ", ".join(type(step).__name__.lstrip("_") for step in self.steps)
        flavour = "fused" if self.optimized else "reference"
        return f"InferencePlan(mode={self.mode!r}, {flavour}, steps=[{kinds}])"
