"""Per-board circuit breakers with seed-deterministic backoff.

A board that keeps failing jobs should shed load, not burn the
scheduler's retry budget: after ``failure_threshold`` consecutive
failures the breaker **opens** and dispatches to that board are
refused for a cooldown window, then a single **half-open** probe is
let through — success closes the breaker, failure re-opens it with an
exponentially longer cooldown.  This is the classic
closed→open→half-open state machine, shaped like the
:class:`repro.faults.RetryPolicy` the resilient sampler uses
(threshold + base delay + multiplier + cap), lifted from one sensor
read to a whole board.

Two deliberate departures from textbook breakers keep the fleet
deterministic:

* **Ticks, not wall clock.**  The breaker never reads a clock; the
  caller passes a monotonically non-decreasing ``now`` (the fleet
  scheduler advances a tick per scheduling decision).  Replaying the
  same job sequence replays the same transitions.
* **Hashed jitter.**  The cooldown jitter that de-synchronizes
  breakers in a real fleet is drawn from the counter-based splitmix64
  hash (:func:`repro.utils.hashed_uniform`) keyed by the breaker name
  and trip count — decorrelated across boards, identical across runs.

Every transition is recorded with its tick and reason; the scheduler
surfaces the log in :class:`repro.fleet.FleetReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.hashrand import hashed_uniform
from repro.utils.rng import derive_seed

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BreakerPolicy",
    "BreakerTransition",
    "CircuitBreaker",
]

#: Breaker states (strings so logs and reports read without a legend).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Trip/recovery parameters for one circuit breaker.

    Attributes:
        failure_threshold: consecutive failures that open the breaker.
        cooldown: base open-state cooldown, in caller ticks.
        backoff_multiplier: cooldown growth per re-trip (the half-open
            probe failed), mirroring ``RetryPolicy.backoff``.
        max_cooldown: cap on the grown cooldown.
        jitter: fraction of the cooldown randomized (deterministically)
            around the base, in ``[0, 1)``; 0 disables jitter.
        half_open_probes: dispatches allowed through a half-open
            breaker before it decides.
    """

    failure_threshold: int = 3
    cooldown: float = 4.0
    backoff_multiplier: float = 2.0
    max_cooldown: float = 64.0
    jitter: float = 0.25
    half_open_probes: int = 1

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown <= 0:
            raise ValueError("cooldown must be > 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.max_cooldown < self.cooldown:
            raise ValueError("max_cooldown must be >= cooldown")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


@dataclass(frozen=True)
class BreakerTransition:
    """One state change: when, from, to, and why."""

    tick: float
    from_state: str
    to_state: str
    reason: str

    def as_dict(self) -> dict:
        return {
            "tick": self.tick,
            "from": self.from_state,
            "to": self.to_state,
            "reason": self.reason,
        }


class CircuitBreaker:
    """One board's closed→open→half-open failure containment.

    Args:
        name: breaker identity (the board name) — keys the jitter
            stream and labels the transition log.
        policy: trip/recovery parameters (default: the
            :class:`BreakerPolicy` defaults).
        seed: run seed; with ``name`` it fully determines the jittered
            cooldowns, so a replayed run replays the same windows.
    """

    def __init__(
        self,
        name: str,
        policy: Optional[BreakerPolicy] = None,
        seed: int = 0,
    ):
        self.name = name
        self.policy = policy or BreakerPolicy()
        self._jitter_key = derive_seed(seed, f"breaker:{name}")
        self._state = CLOSED
        self._failures = 0  # consecutive, while closed
        self._trips = 0  # times opened (drives backoff + jitter counter)
        self._open_until = 0.0
        self._probes_inflight = 0
        self._transitions: List[BreakerTransition] = []

    # -- introspection ------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def transitions(self) -> Tuple[BreakerTransition, ...]:
        return tuple(self._transitions)

    def _shift(self, now: float, to_state: str, reason: str) -> None:
        self._transitions.append(
            BreakerTransition(now, self._state, to_state, reason)
        )
        self._state = to_state

    # -- cooldown -----------------------------------------------------

    def _cooldown(self) -> float:
        """The jittered cooldown for the current trip count.

        Base grows like ``RetryPolicy.backoff`` (exponential, capped);
        jitter shifts it by a hashed-uniform factor in
        ``[1 - jitter, 1 + jitter)`` keyed by (seed, name, trip).
        """
        policy = self.policy
        grown = policy.cooldown * policy.backoff_multiplier ** max(
            0, self._trips - 1
        )
        base = min(grown, policy.max_cooldown)
        if policy.jitter <= 0.0:
            return base
        draw = float(
            hashed_uniform(self._jitter_key, np.uint64(self._trips))
        )
        return base * (1.0 + policy.jitter * (2.0 * draw - 1.0))

    # -- the state machine --------------------------------------------

    def allow(self, now: float) -> bool:
        """May a dispatch proceed at tick ``now``?

        Open breakers refuse until the cooldown elapses, then admit
        ``half_open_probes`` probes; everything else queues behind the
        probe's verdict.
        """
        if self._state == OPEN:
            if now < self._open_until:
                return False
            self._shift(now, HALF_OPEN, "cooldown elapsed, probing")
            self._probes_inflight = 0
        if self._state == HALF_OPEN:
            if self._probes_inflight >= self.policy.half_open_probes:
                return False
            self._probes_inflight += 1
            return True
        return True

    def record_success(self, now: float) -> None:
        """A dispatch to this board completed (terminal, not failed)."""
        if self._state == HALF_OPEN:
            self._shift(now, CLOSED, "probe succeeded")
            self._trips = 0
        self._failures = 0
        self._probes_inflight = 0

    def record_failure(self, now: float) -> None:
        """A dispatch to this board failed (crash or job error)."""
        if self._state == HALF_OPEN:
            self._trips += 1
            self._open_until = now + self._cooldown()
            self._shift(
                now,
                OPEN,
                f"probe failed, cooling down "
                f"{self._open_until - now:.3g} ticks",
            )
            self._probes_inflight = 0
            self._failures = 0
            return
        if self._state == CLOSED:
            self._failures += 1
            if self._failures >= self.policy.failure_threshold:
                self._trips += 1
                self._open_until = now + self._cooldown()
                self._shift(
                    now,
                    OPEN,
                    f"{self._failures} consecutive failures, cooling "
                    f"down {self._open_until - now:.3g} ticks",
                )
                self._failures = 0
