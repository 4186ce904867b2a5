"""Layer tracing from outside the program: wrappers with self-time accounting.

The benchmark replaces the public entry points of each layer (a class
method or a module function) with a wrapper that records a span.  Every
thread keeps a stack of the wrappers it is inside, so time spent in a
nested layer call (``nn.forward`` -> ``backend.im2col``) is subtracted from
its parent: a layer's *self time* is its span minus the spans of its
children.  ``calls`` counts outermost entries only, so a recursive entry
point (``Module.__call__`` of a model calling its submodules) counts once
per top-level call while its self time still sums over every level.

Nothing is patched until :func:`install` runs, and the function it returns
puts every original back.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Work a wrapped call did, computed from its arguments and result
#: (floating-point operations or bytes moved), or ``None`` for no count.
WorkFn = Optional[Callable[[tuple, object], float]]


class Tracer:
    """Per-layer self time, call counts, work and a bounded span log."""

    def __init__(self, span_capacity: int = 200_000) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, List[float]]] = []
        self.span_capacity = int(span_capacity)
        #: Finished spans as ``(layer, thread id, start, end, parent layer)``.
        self.spans: List[Tuple[str, int, float, float, Optional[str]]] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table: Dict[str, List[float]] = {}
            with self._lock:
                self._tables.append(table)
            state = self._local.state = ([], {}, table)
        return state

    def enter(self, layer: str) -> list:
        stack, active, _ = self._thread_state()
        outermost = active.get(layer, 0) == 0
        active[layer] = active.get(layer, 0) + 1
        frame = [layer, 0.0, 0.0, outermost]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list, count: bool = True) -> None:
        end = time.perf_counter()
        stack, active, table = self._thread_state()
        layer, start, child_s, outermost = frame
        duration = end - start
        stack.pop()
        active[layer] -= 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        row = table.setdefault(layer, [0.0, 0, 0.0])
        row[0] += duration - child_s
        if count and outermost:
            row[1] += 1
        if len(self.spans) < self.span_capacity:
            self.spans.append(
                (layer, threading.get_ident(), start, end, parent[0] if parent else None)
            )

    def add_work(self, layer: str, work: float) -> None:
        _, _, table = self._thread_state()
        table.setdefault(layer, [0.0, 0, 0.0])[2] += work

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s", "calls", "work"}}`` summed over every thread."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, (self_s, calls, work) in list(table.items()):
                row = merged.setdefault(layer, {"self_s": 0.0, "calls": 0, "work": 0.0})
                row["self_s"] += self_s
                row["calls"] += calls
                row["work"] += work
        return merged


def _wrap_call(tracer: Tracer, layer: str, fn, work: WorkFn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if work is not None and frame[3]:
            # Outermost only: a kernel delegating to a sibling of its own
            # layer (int_conv2d -> int_conv2d_cm) does its work once.
            tracer.add_work(layer, work(args, result))
        return result

    return traced


def _wrap_iterator(tracer: Tracer, layer: str, fn):
    """Time each step of the iterator ``fn`` returns (one span per item)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            frame = tracer.enter(layer)
            try:
                item = next(iterator)
            except StopIteration:
                tracer.exit(frame, count=False)
                return
            except BaseException:
                tracer.exit(frame, count=False)
                raise
            tracer.exit(frame)
            yield item

    return traced


#: One entry point to wrap: ``(layer, owner, attribute, kind, work)`` where
#: ``kind`` is ``"call"`` or ``"iter"``.
Target = Tuple[str, object, str, str, WorkFn]


def install(tracer: Tracer, targets: Sequence[Target]) -> Callable[[], None]:
    """Wrap every target; return the function that restores the originals."""
    saved = []
    for layer, owner, attribute, kind, work in targets:
        own = vars(owner)
        had_own = attribute in own
        original = own.get(attribute)
        fn = getattr(owner, attribute)
        wrapped = _wrap_iterator(tracer, layer, fn) if kind == "iter" else _wrap_call(
            tracer, layer, fn, work
        )
        setattr(owner, attribute, wrapped)
        saved.append((owner, attribute, had_own, original))

    def uninstall() -> None:
        for owner, attribute, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    return uninstall
