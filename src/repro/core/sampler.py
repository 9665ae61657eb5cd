"""Unprivileged hwmon sampling: the attacker's measurement loop.

The attack process is an ordinary user-space loop::

    fd = open("/sys/class/hwmon/hwmon3/curr1_input")
    while recording:
        readings.append(int(pread(fd)))
        clock_nanosleep(...)

Two real-world effects shape the resulting trace and are modeled here:

* the *poll clock* has jitter (nanosleep wakeups are not exact), so
  sample timestamps wander around the nominal grid;
* the sensor refreshes only every ``update_interval`` (35 ms default),
  so polling faster returns runs of repeated values — the paper's RSA
  attack polls at 1 kHz against a 35 ms sensor for exactly this
  oversampled regime.

Every poll clock — a one-shot session, a stream's next chunk, a
resumed stream skipping what it already recorded — is drawn by one
helper, :func:`_poll_grid`; :meth:`HwmonSampler.collect` and
:meth:`HwmonSampler.collect_many` record through one path that sends a
fault-free window through :meth:`repro.soc.Soc.sample_many` and a
faulted one through the resilient retry loop.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.traces import Trace, TraceQuality
from repro.faults import RetryPolicy, SensorHealth
from repro.sensors.hwmon import HwmonError
from repro.soc.soc import Soc
from repro.utils.rng import RngLike, spawn
from repro.utils.validation import (
    require_int_in_range,
    require_non_negative,
    require_positive,
)

#: Largest read, in polls, that serves a faulted chunk together with
#: all its retry re-polls (``chunk polls * (1 + max_retries)``); bigger
#: chunks read once per retry attempt.  A read's fixed cost is ~0.5 ms
#: and each extra poll costs per-element work only, so one read wins on
#: small chunks (14 polls at 1 kHz: 0.86 -> 0.51 ms) and loses on large
#: ones (35 000 polls at 1 kHz: 8 -> 28 ms).  On a 2-vCPU Xeon host,
#: one victim, fault rate 0.05 and 3 retries, the two cross between
#: 12 000 and 16 000 combined polls; the budget sits below that.
PREFETCH_POLLS = 8192


def _poll_grid(
    start: float,
    first: int,
    count: int,
    poll_hz: float,
    jitter: float,
    rng,
    floor: float = -np.inf,
) -> np.ndarray:
    """Timestamps of polls ``first .. first + count - 1`` of one session.

    The nominal grid plus ``jitter``-scaled normals from ``rng`` (``None``
    when jitter is off), clamped monotonic — the loop never polls
    backwards in time — from ``floor``, the session's last drawn time.
    """
    # Built in place, so a call allocates two poll-length arrays (the
    # times and the noise).  Each step is one IEEE operation of
    # ``start + arange / poll_hz + jitter * noise`` (additions and
    # products commute), so the times keep that expression's bits.
    times = np.arange(first, first + count, dtype=np.float64)
    times /= poll_hz
    times += start
    if rng is None:
        return times
    noise = rng.standard_normal(count)
    noise *= jitter
    times += noise
    np.maximum.accumulate(times, out=times)
    return np.maximum(times, floor, out=times)


class ChannelOutageError(RuntimeError):
    """A resilient read lost every sample despite the retry budget."""

    def __init__(
        self, domain: str, quantity: str, message: str, retries: int = 0
    ):
        super().__init__(f"{domain}/{quantity}: {message}")
        self.domain = domain
        self.quantity = quantity
        self.message = message
        self.retries = retries

    def __reduce__(self):
        # Rebuild from the fields, as StreamInterrupted does: ``args``
        # holds only the formatted string, which ``__init__`` rejects.
        return (
            type(self),
            (self.domain, self.quantity, self.message, self.retries),
        )


class ChannelDeadError(ChannelOutageError):
    """The channel's health machine has pinned it ``dead``."""


class StreamInterrupted(RuntimeError):
    """A :class:`TraceStream`'s device failed mid-session.

    The stream flushes the last good partial chunk first (when any
    leading samples survived), then raises this on the following
    ``next()``; ``emitted`` counts every sample delivered before the
    failure, including that partial chunk.
    """

    def __init__(self, domain: str, quantity: str, emitted: int, message: str):
        super().__init__(
            f"{domain}/{quantity} interrupted after {emitted} samples: "
            f"{message}"
        )
        self.domain = domain
        self.quantity = quantity
        self.emitted = emitted
        self.message = message

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # string) into ``__init__``, which takes four fields — so a
        # stream failure crossing a process boundary (pool worker →
        # parent) must rebuild from the fields instead.
        return (
            type(self),
            (self.domain, self.quantity, self.emitted, self.message),
        )


class TraceStream:
    """A bounded-memory polling session, yielded as :class:`Trace` chunks.

    Iterating produces consecutive chunks of at most ``chunk_samples``
    polls each; concatenating every chunk's times/values is
    **bit-identical** to one :meth:`HwmonSampler.collect` call over the
    whole session.  That equality holds because

    * poll jitter is drawn chunk-by-chunk from the *same* generator a
      one-shot collect would use (numpy's normal stream is invariant
      under draw batching), and
    * the monotonic-clock clamp carries its running maximum across
      chunk boundaries.

    Only one chunk is resident at a time, so a stakeout loop or a
    long recording session uses memory proportional to the chunk size,
    not the session length; :attr:`max_resident_samples` records the
    high-water mark for tests and capacity planning.
    """

    def __init__(
        self,
        sampler: "HwmonSampler",
        domain: str,
        quantity: str,
        start: float,
        n_samples: int,
        poll_hz: float,
        chunk_samples: int,
        label: Optional[str] = None,
    ):
        self.sampler = sampler
        self.domain = domain
        self.quantity = quantity
        # Keep the caller's start value verbatim: the jitter stream is
        # keyed by its repr, exactly as poll_times() keys a one-shot
        # collect for the same session.
        self.start = start
        self.n_samples = require_int_in_range(
            n_samples, 1, 100_000_000, "n_samples"
        )
        self.poll_hz = require_positive(poll_hz, "poll_hz")
        self.chunk_samples = require_int_in_range(
            chunk_samples, 1, 100_000_000, "chunk_samples"
        )
        self.label = label
        self._emitted = 0
        self._pending_error: Optional[StreamInterrupted] = None
        self._terminated = False
        self._running_max = -np.inf
        self._rng = sampler._jitter_rng(f"{domain}-{quantity}", start)
        #: Largest chunk materialized so far (samples) — the stream's
        #: peak resident trace buffer.
        self.max_resident_samples = 0

    @property
    def samples_remaining(self) -> int:
        """Polls not yet emitted."""
        return self.n_samples - self._emitted

    def skip_samples(self, count: int) -> None:
        """Advance past ``count`` already-recorded samples without polling.

        The resume path of a monitor session: samples recovered from an
        archive checkpoint must not be re-polled, but the stream's
        deterministic state — the jitter generator's position and the
        monotonic clamp's running maximum — must advance exactly as if
        they had been, so every subsequent chunk is byte-identical to
        an uninterrupted session.  Replays the per-chunk time
        computation (the RNG is consumed in the same chunk-sized draws)
        and discards the result instead of sampling the SoC.
        """
        count = require_int_in_range(
            count, 0, self.samples_remaining, "count"
        )
        for first in range(0, count, self.chunk_samples):
            step = min(self.chunk_samples, count - first)
            self._next_times(step)
            self._emitted += step

    def _next_times(self, count: int) -> np.ndarray:
        """Draw the next ``count`` poll times, carrying the clamp."""
        times = _poll_grid(
            self.start, self._emitted, count, self.poll_hz,
            self.sampler.poll_jitter, self._rng, self._running_max,
        )
        self._running_max = float(times[-1])
        return times

    def __iter__(self) -> Iterator[Trace]:
        return self

    def __next__(self) -> Trace:
        if self._pending_error is not None:
            error, self._pending_error = self._pending_error, None
            self._terminated = True
            raise error
        if self._terminated or self._emitted >= self.n_samples:
            raise StopIteration
        count = min(self.chunk_samples, self.n_samples - self._emitted)
        times = self._next_times(count)
        channel = (self.domain, self.quantity)
        try:
            trace = self.sampler._record({channel: times}, self.label)[channel]
        except ChannelDeadError as exc:
            self._terminated = True
            error = StreamInterrupted(
                self.domain, self.quantity, self._emitted, str(exc)
            )
            raise error from exc
        except (ChannelOutageError, HwmonError) as exc:
            return self._flush_partial(times, exc)
        self._emitted += count
        self.max_resident_samples = max(self.max_resident_samples, count)
        return trace

    def _flush_partial(self, times: np.ndarray, cause: Exception) -> Trace:
        """Emit the good leading samples of a chunk whose read failed.

        The failing chunk is re-polled through the masked fault path
        (pointwise identical values) to find the longest good prefix; a
        :class:`StreamInterrupted` carrying the failure is queued for
        the following ``next()``.  Raises it immediately when no
        samples at all survived.
        """
        values, bad = self.sampler._gated_read(
            self.domain, self.quantity, times
        )
        prefix = int(np.argmax(bad)) if bad.any() else int(times.size)
        error = StreamInterrupted(
            self.domain, self.quantity, self._emitted + prefix, str(cause)
        )
        error.__cause__ = cause
        if prefix == 0:
            self._terminated = True
            raise error
        quality = None
        if isinstance(cause, ChannelOutageError):
            # Keep the retry provenance from the failed resilient read:
            # a downstream consumer judging verdict trustworthiness
            # must see that this partial chunk burned its retry budget,
            # not just that the channel was unhealthy.
            quality = TraceQuality(
                retries=int(getattr(cause, "retries", 0)),
                health=self.sampler.channel_health(self.domain),
            )
        self._pending_error = error
        self._emitted += prefix
        self.max_resident_samples = max(self.max_resident_samples, prefix)
        return Trace(
            times=times[:prefix],
            values=values[:prefix],
            domain=self.domain,
            quantity=self.quantity,
            label=self.label,
            quality=quality,
        )

    def __repr__(self) -> str:
        return (
            f"TraceStream({self.domain}/{self.quantity}, "
            f"{self._emitted}/{self.n_samples} samples emitted, "
            f"chunk={self.chunk_samples})"
        )


class HwmonSampler:
    """Polls a SoC's hwmon channels and records traces.

    Args:
        soc: the simulated SoC under attack.
        poll_jitter: RMS timing jitter of the polling loop in seconds
            (nanosleep + scheduler wakeup noise on a Cortex-A53).
        seed: keys the sampler's jitter stream.
        retry_policy: how the resilient read path reacts to injected
            faults (bounded retries, deterministic backoff,
            plausibility gate, gap interpolation).  Only consulted
            when a device has a live :class:`repro.faults.FaultPlan`
            armed; the fault-free fast path is untouched.
    """

    def __init__(
        self,
        soc: Soc,
        poll_jitter: float = 120e-6,
        seed: RngLike = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if not isinstance(soc, Soc):
            raise TypeError("soc must be a repro.soc.Soc")
        self.soc = soc
        self.poll_jitter = require_non_negative(poll_jitter, "poll_jitter")
        self._seed = seed
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self._health: Dict[str, SensorHealth] = {}

    # --------------------------------------------------- resilient plumbing

    def _faults_active(self, domain: str) -> bool:
        """True when this domain's device has a live fault plan armed."""
        return bool(getattr(self.soc.device(domain), "faults_active", False))

    def _health_for(self, domain: str) -> SensorHealth:
        health = self._health.get(domain)
        if health is None:
            health = SensorHealth(self.retry_policy.dead_after_outages)
            self._health[domain] = health
        return health

    def channel_health(self, domain: str) -> str:
        """Current health state of one domain's sensor."""
        return self._health_for(domain).state

    def _gated_read(self, domain: str, quantity: str, times: np.ndarray):
        """One fault-annotated read: ``(values, bad)``.

        ``bad`` flags transient errors, hotplug windows and torn values
        the retry policy's plausibility gate rejects.
        """
        values, transient, gone = self.soc.sample_faulted(
            domain, quantity, times
        )
        values = np.array(values)
        limit = self.retry_policy.plausible_limit
        return values, transient | gone | (np.abs(values.astype(np.int64)) > limit)

    def _sample_resilient(
        self,
        domain: str,
        quantity: str,
        times: np.ndarray,
    ):
        """One fault-aware read: retry, plausibility-gate, interpolate.

        Returns ``(values, TraceQuality)``.  Bad samples (transient
        errors, hotplug windows, torn readings caught by the
        plausibility gate) are re-read at deterministically backed-off
        simulated times — the fault schedule is a pure function of the
        poll time, so a shifted retry draws a fresh outcome and the
        whole recovery is identical across runs, chunk sizes, and
        worker counts.  Polls still bad after the retry budget become
        gaps, linearly interpolated from the chunk's good samples when
        the policy allows (interpolation uses within-chunk neighbors,
        so recovered values are chunking-dependent; schedules and
        per-poll outcomes are not).

        A chunk of at most :data:`PREFETCH_POLLS` polls with all its
        re-polls is served by **one** device read: the chunk's times,
        then ``times + o_k`` for every attempt's offset ``o_k`` (the
        running sum of the backoffs), and each attempt takes its
        re-polls from that result.  This is exact because every
        poll's value and fault outcome is a pure function of its
        time: hashed latch noise and fault masks, the stale/unbind
        clamps, and the hardening grid and dither.  Re-polls the loop
        never uses cost only per-element work; a larger chunk reads
        once per attempt instead, as the extra polls would cost more
        than the fixed cost of the reads they save.

        Raises :class:`ChannelDeadError` when the channel's health is
        pinned dead, :class:`ChannelOutageError` when a read loses
        every sample.
        """
        policy = self.retry_policy
        health = self._health_for(domain)
        if health.is_dead:
            raise ChannelDeadError(
                domain, quantity, "channel health is pinned dead"
            )
        times = np.asarray(times, dtype=np.float64)
        total = int(times.size)
        offsets = []
        offset = 0.0
        for attempt in range(policy.max_retries):
            offset += policy.backoff(attempt)
            offsets.append(offset)
        prefetch = total * (1 + len(offsets)) <= PREFETCH_POLLS
        if prefetch:
            polled, polled_bad = self._gated_read(
                domain,
                quantity,
                np.concatenate([times] + [times + o for o in offsets]),
            )
            values, bad = polled[:total].copy(), polled_bad[:total].copy()
        else:
            values, bad = self._gated_read(domain, quantity, times)
        faults_seen = int(bad.sum())
        retries = 0
        for attempt, offset in enumerate(offsets):
            if not bad.any():
                break
            idx = np.flatnonzero(bad)
            if prefetch:
                served = idx + (attempt + 1) * total
                retry_values, retry_bad = polled[served], polled_bad[served]
            else:
                retry_values, retry_bad = self._gated_read(
                    domain, quantity, times[idx] + offset
                )
            recovered = idx[~retry_bad]
            values[recovered] = retry_values[~retry_bad]
            bad[recovered] = False
            retries += int(idx.size)
        gaps = int(bad.sum())
        good = ~bad
        if gaps >= total:
            health.note_read(faults_seen, gaps, total)
            if health.is_dead:
                raise ChannelDeadError(
                    domain,
                    quantity,
                    f"dead after repeated outages "
                    f"({retries} retries exhausted)",
                    retries=retries,
                )
            raise ChannelOutageError(
                domain,
                quantity,
                f"all {total} samples lost after {retries} retries",
                retries=retries,
            )
        interpolated = 0
        if gaps:
            if policy.interpolate_gaps:
                filled = np.interp(
                    times[bad], times[good], values[good].astype(np.float64)
                )
                values[bad] = np.rint(filled).astype(values.dtype)
                interpolated = gaps
            else:
                # Sample-and-hold: repeat the nearest preceding good
                # poll (the first good poll for leading gaps).
                good_idx = np.flatnonzero(good)
                pos = np.searchsorted(
                    good_idx, np.flatnonzero(bad), side="right"
                ) - 1
                pos = np.clip(pos, 0, good_idx.size - 1)
                values[bad] = values[good_idx[pos]]
        quality = TraceQuality(
            retries=retries,
            gaps=gaps,
            interpolated=interpolated,
            health=health.note_read(faults_seen, gaps, total),
        )
        return values, quality

    def _jitter_rng(self, stream: str, start: float):
        """The jitter generator of one session's poll clock, or ``None``.

        Keyed by the caller's ``start`` value verbatim (its repr), so a
        stream and a one-shot collect of the same session draw the same
        jitter.
        """
        if self.poll_jitter > 0.0:
            return spawn(self._seed, f"sampler-{stream}-{start!r}")
        return None

    def poll_times(
        self,
        start: float,
        n_samples: int,
        poll_hz: float,
        stream: str = "poll",
    ) -> np.ndarray:
        """Jittered poll timestamps for one recording session."""
        n_samples = require_int_in_range(
            n_samples, 1, 100_000_000, "n_samples"
        )
        require_positive(poll_hz, "poll_hz")
        rng = self._jitter_rng(stream, start)
        return _poll_grid(start, 0, n_samples, poll_hz, self.poll_jitter, rng)

    def _session(
        self,
        domain: str,
        duration: Optional[float],
        n_samples: Optional[int],
        poll_hz: Optional[float] = None,
    ) -> Tuple[int, float]:
        """``(n_samples, poll_hz)`` of a session given by length or count."""
        if poll_hz is None:
            poll_hz = self.default_poll_hz(domain)
        if (duration is None) == (n_samples is None):
            raise ValueError("specify exactly one of duration or n_samples")
        if n_samples is None:
            require_positive(duration, "duration")
            n_samples = max(1, int(round(duration * poll_hz)))
        return n_samples, poll_hz

    def default_poll_hz(self, domain: str) -> float:
        """One poll per sensor update — the paper's default cadence."""
        return 1.0 / self.soc.device(domain).update_period

    def collect(
        self,
        domain: str,
        quantity: str,
        start: float = 0.0,
        duration: Optional[float] = None,
        n_samples: Optional[int] = None,
        poll_hz: Optional[float] = None,
        label: Optional[str] = None,
    ) -> Trace:
        """Record one trace from an hwmon channel.

        Specify the session length either as ``duration`` (seconds) or
        ``n_samples``; ``poll_hz`` defaults to the sensor's update rate
        (polling faster only repeats cached registers).
        """
        n_samples, poll_hz = self._session(domain, duration, n_samples, poll_hz)
        channel = (domain, quantity)
        times = self.poll_times(
            start, n_samples, poll_hz, stream=f"{domain}-{quantity}"
        )
        return self._record({channel: times}, label)[channel]

    def stream(
        self,
        domain: str,
        quantity: str,
        start: float = 0.0,
        duration: Optional[float] = None,
        n_samples: Optional[int] = None,
        poll_hz: Optional[float] = None,
        chunk_samples: Optional[int] = None,
        chunk_duration: Optional[float] = None,
        label: Optional[str] = None,
    ) -> TraceStream:
        """Open a chunked recording session on one hwmon channel.

        Like :meth:`collect`, but the session is consumed as an
        iterator of bounded :class:`Trace` chunks instead of one
        resident array — the shape of a real long-running capture
        loop that flushes to disk as it polls.  Concatenating the
        chunks reproduces the one-shot :meth:`collect` trace
        bit-exactly.

        The chunk size is given as ``chunk_samples`` or
        ``chunk_duration`` (seconds); unspecified, chunks cover one
        second of polling.
        """
        n_samples, poll_hz = self._session(domain, duration, n_samples, poll_hz)
        if chunk_samples is not None and chunk_duration is not None:
            raise ValueError(
                "specify at most one of chunk_samples or chunk_duration"
            )
        if chunk_samples is None:
            window = 1.0 if chunk_duration is None else chunk_duration
            require_positive(window, "chunk_duration")
            chunk_samples = max(1, int(round(window * poll_hz)))
        return TraceStream(
            self,
            domain,
            quantity,
            start=start,
            n_samples=n_samples,
            poll_hz=poll_hz,
            chunk_samples=chunk_samples,
            label=label,
        )

    def collect_many(
        self,
        channels,
        start: float = 0.0,
        duration: Optional[float] = None,
        n_samples: Optional[int] = None,
        label: Optional[str] = None,
        on_dead: str = "raise",
    ) -> dict:
        """Record several channels over one window in a single pass.

        Each channel keeps its own jittered poll clock (exactly the
        timestamps :meth:`collect` would draw), but the sensor
        conversions are batched through :meth:`repro.soc.Soc.
        sample_many`: channels sharing a physical device are served
        from one conversion pass over their combined latch windows.
        The returned traces are bit-identical to one :meth:`collect`
        call per channel.

        With a live fault plan armed, each channel instead goes
        through the resilient read path.  ``on_dead`` picks the
        degraded-mode behavior when a channel is dead or suffers a
        total outage: ``"raise"`` propagates the error, ``"drop"``
        omits that channel from the result (so callers can see which
        channels were lost by comparing keys against the request).
        """
        if on_dead not in ("raise", "drop"):
            raise ValueError(
                f"on_dead must be 'raise' or 'drop', got {on_dead!r}"
            )
        channels = [tuple(channel) for channel in channels]
        if not channels:
            raise ValueError("need at least one channel")
        if len(set(channels)) != len(channels):
            raise ValueError("duplicate channels in collect_many")
        times_by_channel = {}
        for domain, quantity in channels:
            times_by_channel[(domain, quantity)] = self.poll_times(
                start,
                *self._session(domain, duration, n_samples),
                stream=f"{domain}-{quantity}",
            )
        return self._record(times_by_channel, label, on_dead)

    def _record(
        self, times_by_channel: dict, label: Optional[str], on_dead="raise"
    ) -> dict:
        """Poll each channel at its own times; one trace per channel.

        A fault-free window goes through one batched
        :meth:`repro.soc.Soc.sample_many` call.  With a live fault plan
        armed on any channel's device, every channel goes through the
        resilient read path instead, and ``on_dead`` handles a dead
        channel or a total outage (see :meth:`collect_many`).
        """
        channels = list(times_by_channel)
        if not any(self._faults_active(domain) for domain, _ in channels):
            values = self.soc.sample_many(channels, times_by_channel)
            polled = {channel: (values[channel], None) for channel in channels}
        else:
            polled = {}
            for domain, quantity in channels:
                try:
                    polled[(domain, quantity)] = self._sample_resilient(
                        domain, quantity, times_by_channel[(domain, quantity)]
                    )
                except ChannelOutageError:
                    if on_dead == "drop":
                        continue
                    raise
            if not polled:
                raise ChannelOutageError(
                    channels[0][0],
                    channels[0][1],
                    f"every requested channel is dead "
                    f"({len(channels)} dropped)",
                )
        return {
            (domain, quantity): Trace(
                times=times_by_channel[(domain, quantity)],
                values=values,
                domain=domain,
                quantity=quantity,
                label=label,
                quality=quality,
            )
            for (domain, quantity), (values, quality) in polled.items()
        }

    def __repr__(self) -> str:
        return f"HwmonSampler({self.soc!r}, jitter={self.poll_jitter:.3g}s)"
