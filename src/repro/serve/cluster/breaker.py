"""Per-shard circuit breaking: stop routing to a flapping shard.

A worker that crashes, wedges, or times out repeatedly should stop receiving
fresh traffic until it proves itself again — otherwise every request routed
to it pays a ``request_timeout_s`` (or a crash) before the retry machinery
rescues it.  :class:`CircuitBreaker` is the standard three-state machine:

* **CLOSED** — healthy; requests flow.  ``failure_threshold`` *consecutive*
  failures trip it OPEN (a success resets the streak — one flaky exchange
  amid healthy traffic must not darken a shard).
* **OPEN** — no traffic for ``open_for_s`` seconds; :meth:`allow` returns
  False, so the router's shard picker skips the shard entirely (its queue
  survives; nothing already admitted is dropped).
* **HALF_OPEN** — the cooldown elapsed; :meth:`allow` admits probe traffic.
  One success closes the breaker, one failure re-opens it (and restarts the
  cooldown).

The machine is **pure policy**: every transition is driven by explicit
``record_success``/``record_failure``/``allow`` calls with an injectable
clock, so chaos traces can be replayed through it offline (the chaos
tests' ``replay_breaker``) and the router can embed
one per shard without any new threads.  Thread safety is a single lock; the
hot-path cost when healthy is one lock acquisition per routing decision.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["BreakerPolicy", "CircuitBreaker"]


@dataclass
class BreakerPolicy:
    """Thresholds for one shard's circuit breaker."""

    #: Consecutive failures that trip the breaker OPEN.
    failure_threshold: int = 3
    #: Seconds the breaker stays OPEN before admitting probe traffic.
    open_for_s: float = 2.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.open_for_s < 0:
            raise ValueError(f"open_for_s must be >= 0, got {self.open_for_s}")


class CircuitBreaker:
    """Three-state (CLOSED/OPEN/HALF_OPEN) breaker with an injectable clock."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        on_open: Optional[Callable[[], None]] = None,
        on_transition: Optional[Callable[[str, str, float], None]] = None,
    ) -> None:
        self.policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        self._on_open = on_open
        #: Called with ``(from_state, to_state, now)`` after *every*
        #: transition (OPEN, HALF_OPEN, CLOSED alike) — the event-log hook.
        #: Like on_open, it is invoked outside the breaker's lock.
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failure_streak = 0
        self._opened_at: Optional[float] = None
        self._transitions: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # state machine
    # ------------------------------------------------------------------ #
    def _transition(self, state: str, now: float) -> Dict[str, object]:
        record = {"from": self._state, "to": state, "time": now}
        self._transitions.append(record)
        self._state = state
        return record

    def _notify(self, record: Optional[Dict[str, object]]) -> None:
        """Fire on_transition for a record collected under the lock.

        Must be called *after* the lock is released: the callback may take
        other locks (the event log's), and lock-ordering bugs between a
        breaker and its observers are exactly the kind of deadlock a
        telemetry hook must never introduce.
        """
        if record is not None and self.on_transition is not None:
            self.on_transition(str(record["from"]), str(record["to"]), float(record["time"]))

    def allow(self, now: Optional[float] = None) -> bool:
        """May fresh traffic route here?  OPEN→HALF_OPEN happens in here."""
        now = self._clock() if now is None else now
        fired = None
        with self._lock:
            if self._state == self.OPEN:
                if (
                    self._opened_at is not None
                    and now - self._opened_at >= self.policy.open_for_s
                ):
                    fired = self._transition(self.HALF_OPEN, now)
                    allowed = True
                else:
                    allowed = False
            else:
                allowed = True
        self._notify(fired)
        return allowed

    def record_success(self, now: Optional[float] = None) -> None:
        """A request completed: reset the streak; a HALF_OPEN probe closes."""
        now = self._clock() if now is None else now
        fired = None
        with self._lock:
            self._failure_streak = 0
            if self._state == self.HALF_OPEN:
                fired = self._transition(self.CLOSED, now)
                self._opened_at = None
        self._notify(fired)

    def record_failure(self, now: Optional[float] = None) -> bool:
        """A request crashed/timed out; returns True when this trip OPENed.

        In HALF_OPEN a single failed probe re-opens immediately (and counts
        as a fresh OPEN transition — ``breaker_open_total`` should reflect
        every time the shard was darkened, not only the first).
        """
        now = self._clock() if now is None else now
        opened = False
        fired = None
        with self._lock:
            self._failure_streak += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._failure_streak >= self.policy.failure_threshold
            ):
                fired = self._transition(self.OPEN, now)
                self._opened_at = now
                self._failure_streak = 0
                opened = True
        if opened and self._on_open is not None:
            self._on_open()
        self._notify(fired)
        return opened

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def transitions(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._transitions)

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self.state}, policy={self.policy})"
