"""Retry/backoff policy and per-sensor health for resilient sampling.

The resilient acquisition plane pairs a :class:`~repro.faults.plan.
FaultPlan` (what goes wrong) with a :class:`RetryPolicy` (what the
attacker's poll loop does about it): bounded re-reads with
deterministic exponential backoff *in simulated time*, a plausibility
gate that catches torn values, and linear interpolation over the polls
that never recovered.  :class:`SensorHealth` is the per-channel state
machine — ``healthy`` → ``flaky`` on any observed fault, ``flaky`` →
``dead`` after enough consecutive total outages — that the degraded
fallback paths consult before dropping a channel.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Health states, in degradation order.
HEALTHY = "healthy"
FLAKY = "flaky"
DEAD = "dead"

@dataclass(frozen=True)
class RetryPolicy:
    """How the resilient poll loop reacts to read failures.

    Attributes:
        max_retries: bounded re-read attempts per failed poll.
        backoff_s: first backoff delay (simulated seconds).
        backoff_multiplier: exponential backoff growth per attempt.
        plausible_limit: readings with ``|value|`` above this (hwmon
            integer units) are treated as torn and retried.
        interpolate_gaps: recover unrecovered polls by linear
            interpolation from the chunk's good samples (the
            alternative is to fail the whole read strictly).
        dead_after_outages: consecutive all-samples-lost reads before a
            channel's health pins to ``dead``.
    """

    max_retries: int = 3
    backoff_s: float = 2e-3
    backoff_multiplier: float = 2.0
    plausible_limit: int = 5_000_000
    interpolate_gaps: bool = True
    dead_after_outages: int = 2

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s <= 0:
            raise ValueError("backoff_s must be > 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.plausible_limit <= 0:
            raise ValueError("plausible_limit must be > 0")
        if self.dead_after_outages < 1:
            raise ValueError("dead_after_outages must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), in seconds."""
        return self.backoff_s * self.backoff_multiplier**attempt


class SensorHealth:
    """healthy → flaky → dead state machine for one polled channel.

    Any observed fault makes the channel ``flaky``; a clean read heals
    it back to ``healthy``.  A read where *every* sample was lost is an
    outage; ``dead_after_outages`` consecutive outages pin the channel
    to ``dead``, which is sticky.
    """

    def __init__(self, dead_after_outages: int = 2):
        if dead_after_outages < 1:
            raise ValueError("dead_after_outages must be >= 1")
        self.dead_after_outages = dead_after_outages
        self._state = HEALTHY
        self._consecutive_outages = 0

    @property
    def state(self) -> str:
        """Current health state."""
        return self._state

    @property
    def is_dead(self) -> bool:
        return self._state == DEAD

    def note_read(self, faults: int, gaps: int, total: int) -> str:
        """Record one read's outcome; returns the new state.

        Args:
            faults: samples that hit any fault (recovered or not).
            gaps: samples that never recovered.
            total: samples requested.
        """
        if total <= 0:
            raise ValueError("total must be > 0")
        if self._state == DEAD:
            return self._state
        if gaps >= total:
            self._consecutive_outages += 1
            if self._consecutive_outages >= self.dead_after_outages:
                self._state = DEAD
            else:
                self._state = FLAKY
        else:
            self._consecutive_outages = 0
            self._state = FLAKY if (faults > 0 or gaps > 0) else HEALTHY
        return self._state

    def __repr__(self) -> str:
        return (
            f"SensorHealth({self._state}, "
            f"outages={self._consecutive_outages})"
        )
