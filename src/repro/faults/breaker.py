"""A small thread-safe circuit breaker for graceful degradation.

Classic three-state machine:

* **closed** — traffic flows; ``failure_threshold`` *consecutive*
  failures trip the breaker open.
* **open** — :meth:`allow` answers ``False`` so callers take their
  degraded path instead of hammering a broken dependency: the batch
  distiller runs serially in the coordinator, the retriever refuses the
  search with a :class:`ShedError` whose ``retry_after`` is
  :meth:`~CircuitBreaker.cooldown_remaining`.  After ``reset_after_s``
  the breaker moves to half-open.
* **half-open** — exactly one trial call is admitted; success closes
  the breaker, failure re-opens it and restarts the cooldown.

The clock is injectable so tests drive state transitions without
sleeping, and :meth:`stats` serializes for ``/stats`` + ``/metrics``.
"""

from __future__ import annotations

import threading
import time

__all__ = ["CircuitBreaker", "ShedError"]

_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}


class ShedError(RuntimeError):
    """A request refused for now, with a retry hint.

    Admission control (:mod:`repro.service.admission`) and an open
    retrieval breaker both raise subclasses; the HTTP front end answers
    them with a ``Retry-After`` header.

    Attributes:
        retry_after: seconds the client should wait before retrying.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))


class CircuitBreaker:
    def __init__(
        self,
        name: str = "breaker",
        failure_threshold: int = 3,
        reset_after_s: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = float(reset_after_s)
        self.clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._trial_inflight = False
        self.failures = 0
        self.successes = 0
        self.trips = 0
        self.rejected = 0

    # ------------------------------------------------------------- gate
    def allow(self) -> bool:
        """May the protected call proceed right now?

        While open, answers ``False`` until the cooldown elapses; then
        admits exactly one half-open trial at a time.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self.clock() - self._opened_at < self.reset_after_s:
                    self.rejected += 1
                    return False
                self._state = "half_open"
                self._trial_inflight = False
            # half-open: admit a single trial until its outcome lands.
            if self._trial_inflight:
                self.rejected += 1
                return False
            self._trial_inflight = True
            return True

    # ---------------------------------------------------------- outcomes
    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            self._trial_inflight = False
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            if self._state == "half_open":
                self._trip_locked()
            elif (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = "open"
        self._opened_at = self.clock()
        self._trial_inflight = False
        self.trips += 1

    # ----------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        # Locks can't cross process boundaries, and an injected clock may
        # be a closure; the worker-side copy gets fresh ones.
        state = self.__dict__.copy()
        del state["_lock"]
        state["clock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        if self.clock is None:
            self.clock = time.monotonic

    # ------------------------------------------------------------- state
    @property
    def state(self) -> str:
        with self._lock:
            if (
                self._state == "open"
                and self.clock() - self._opened_at >= self.reset_after_s
            ):
                return "half_open"
            return self._state

    def cooldown_remaining(self) -> float:
        """Seconds until an open breaker admits its half-open trial.

        ``0.0`` unless the breaker is open with its cooldown running.
        """
        with self._lock:
            if self._state != "open":
                return 0.0
            elapsed = self.clock() - self._opened_at
            return max(0.0, self.reset_after_s - elapsed)

    @property
    def degraded(self) -> bool:
        """True whenever the breaker is not fully closed."""
        return self.state != "closed"

    def stats(self) -> dict:
        state = self.state
        with self._lock:
            return {
                "name": self.name,
                "state": state,
                "state_code": _STATE_CODES[state],
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_after_s": self.reset_after_s,
                "failures": self.failures,
                "successes": self.successes,
                "trips": self.trips,
                "rejected": self.rejected,
            }
