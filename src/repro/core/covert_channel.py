"""Current-based covert channel across the FPGA/CPU boundary.

A natural corollary of AmpereBleed (and of the C3APSULe line of work
the paper cites): if an unprivileged ARM process can *observe* FPGA
power through the INA226s, then a colluding FPGA circuit can *signal*
to it by modulating its own power — a covert channel that crosses the
hardware isolation boundary with no shared memory, no network and no
crafted receiver circuit.

The implementation is deliberately simple and robust: on-off keying
(OOK).  The sender toggles a power load per bit; the receiver polls
``curr1_input`` one bit window at a time (bounded chunks — a real
receiver loop never holds the whole frame), averages each window, and
thresholds against a calibration derived from an alternating preamble.
Demodulation is a pure function of the recorded readings, so a frame
archived by the acquisition plane replays to exactly the bits a live
receiver decodes.  The channel's capacity is gated by the sensor's
update interval — one more reason the root-only ``update_interval``
knob matters — which the covert bench sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sampler import HwmonSampler
from repro.core.traces import Trace
from repro.soc.soc import Soc
from repro.soc.workload import PiecewiseActivity
from repro.utils.rng import ensure_rng
from repro.utils.validation import require_positive

#: Alternating preamble used for threshold calibration.
PREAMBLE: Tuple[int, ...] = (1, 0, 1, 0, 1, 0, 1, 0)


@dataclass(frozen=True)
class ChannelReport:
    """Outcome of one covert transmission."""

    sent: Tuple[int, ...]
    received: Tuple[int, ...]
    bit_period: float

    @property
    def bit_errors(self) -> int:
        """Payload bits decoded incorrectly."""
        return sum(a != b for a, b in zip(self.sent, self.received))

    @property
    def bit_error_rate(self) -> float:
        """Fraction of payload bits in error."""
        if not self.sent:
            return 0.0
        return self.bit_errors / len(self.sent)

    @property
    def raw_throughput_bps(self) -> float:
        """Signaling rate in bits per second (before coding overhead)."""
        return 1.0 / self.bit_period

    @property
    def effective_throughput_bps(self) -> float:
        """Error-free goodput: raw rate scaled by correct-bit fraction."""
        return self.raw_throughput_bps * (1.0 - self.bit_error_rate)


class PowerCovertSender:
    """The FPGA-side conspirator: modulates a power load per bit.

    Args:
        p_high: additional watts drawn while transmitting a 1.  Any
            ordinary compute kernel can serve as the load; no special
            circuit is required (contrast with RO-based channels).
        p_low: watts drawn for a 0 (idle leakage of the load logic).
    """

    def __init__(self, p_high: float = 1.2, p_low: float = 0.02):
        if p_high <= p_low:
            raise ValueError("p_high must exceed p_low")
        if p_low < 0:
            raise ValueError("p_low must be >= 0")
        self.p_high = float(p_high)
        self.p_low = float(p_low)

    def modulate(
        self, bits: Sequence[int], bit_period: float, start: float = 0.0
    ) -> PiecewiseActivity:
        """OOK-modulate ``bits`` (preamble prepended) into a timeline."""
        require_positive(bit_period, "bit_period")
        frame = list(PREAMBLE) + [1 if bit else 0 for bit in bits]
        segments = [
            (bit_period, self.p_high if bit else self.p_low) for bit in frame
        ]
        return PiecewiseActivity.from_segments(segments, start=start)


def _window_mean(window: np.ndarray) -> float:
    """Mean of one bit window, discarding the leading edge poll.

    The first poll of a window may still serve the previous bit's
    cached conversion; dropping it is what a real receiver does.
    """
    window = window.astype(np.float64)
    if window.size > 1:
        window = window[1:]
    return float(window.mean())


def slice_bits(means: np.ndarray, n_payload_bits: int) -> List[int]:
    """Threshold per-bit means against the preamble calibration.

    Pure analysis-plane arithmetic: the alternating preamble
    self-calibrates the slicing threshold (midpoint of the high/low
    means), so decoding needs no knowledge of the board's idle
    current — and works identically on live and archived frames.
    """
    means = np.asarray(means, dtype=np.float64)
    if means.size != len(PREAMBLE) + n_payload_bits:
        raise ValueError(
            f"expected {len(PREAMBLE) + n_payload_bits} bit means "
            f"(preamble + payload), got {means.size}"
        )
    preamble_means = means[: len(PREAMBLE)]
    highs = preamble_means[np.array(PREAMBLE, dtype=bool)]
    lows = preamble_means[~np.array(PREAMBLE, dtype=bool)]
    threshold = (highs.mean() + lows.mean()) / 2.0
    payload = means[len(PREAMBLE):]
    return [int(value > threshold) for value in payload]


def decode_frame(trace: Trace, n_payload_bits: int) -> List[int]:
    """Analysis plane: demodulate an archived frame recording.

    ``trace`` must cover the whole frame (preamble + payload) at the
    receiver's polling geometry — i.e. what
    :meth:`PowerCovertReceiver.demodulate` recorded through its
    ``sink``.  Pure: needs no sampler or SoC, so a replay machine can
    decode with nothing but the archive, and returns exactly the bits
    the live receiver decoded.
    """
    total_bits = len(PREAMBLE) + n_payload_bits
    if trace.n_samples % total_bits:
        raise ValueError(
            f"frame of {trace.n_samples} samples does not divide "
            f"into {total_bits} bit windows"
        )
    polls_per_bit = trace.n_samples // total_bits
    windows = trace.values.reshape(total_bits, polls_per_bit)
    means = np.array([_window_mean(window) for window in windows])
    return slice_bits(means, n_payload_bits)


class PowerCovertReceiver:
    """The CPU-side conspirator: an unprivileged polling loop on the
    FPGA current channel."""

    #: Fewest polls per bit window, however short the bit period.
    MIN_POLLS_PER_BIT = 4

    def __init__(self, sampler: HwmonSampler):
        self.sampler = sampler

    def _polls_per_bit(self, bit_period: float) -> int:
        update = self.sampler.soc.device("fpga").update_period
        return max(self.MIN_POLLS_PER_BIT, int(bit_period / update))

    def _bit_means(
        self,
        start: float,
        n_bits: int,
        bit_period: float,
        sink: Optional[Callable[[Trace], None]] = None,
    ) -> np.ndarray:
        """Mean current per bit window, one bounded chunk at a time.

        The stream yields exactly one bit window per chunk, so the
        receiver's resident buffer is polls-per-bit samples regardless
        of frame length; ``sink`` observes each raw chunk as it is
        captured (the acquisition plane's archive hook).
        """
        polls_per_bit = self._polls_per_bit(bit_period)
        stream = self.sampler.stream(
            "fpga",
            "current",
            start=start,
            n_samples=n_bits * polls_per_bit,
            poll_hz=polls_per_bit / bit_period,
            chunk_samples=polls_per_bit,
        )
        means = np.empty(n_bits)
        for index, chunk in enumerate(stream):
            if sink is not None:
                sink(chunk)
            means[index] = _window_mean(chunk.values)
        return means

    def demodulate(
        self,
        start: float,
        n_payload_bits: int,
        bit_period: float,
        sink: Optional[Callable[[Trace], None]] = None,
    ) -> List[int]:
        """Recover a payload sent with :class:`PowerCovertSender`.

        Polls live in bounded per-bit chunks; pass ``sink`` to tee the
        raw chunks into a trace archive while decoding.
        """
        total_bits = len(PREAMBLE) + n_payload_bits
        means = self._bit_means(start, total_bits, bit_period, sink=sink)
        return slice_bits(means, n_payload_bits)


class CovertChannel:
    """End-to-end channel harness over one attack session.

    Args:
        session: the receiver's foothold (default: a fresh
            :meth:`~repro.session.AttackSession.create`).
        sender: the fabric-side transmitter (default: a fresh
            :class:`PowerCovertSender`).
    """

    def __init__(
        self,
        session=None,
        sender: Optional[PowerCovertSender] = None,
    ):
        if session is None:
            from repro.session import AttackSession

            session = AttackSession.create()
        self.session = session
        self.sender = sender if sender is not None else PowerCovertSender()
        self.receiver = PowerCovertReceiver(self.session.sampler)
        self._clock = 1.0

    @property
    def soc(self) -> Soc:
        return self.session.soc

    def transmit(
        self,
        bits: Sequence[int],
        bit_period: float = 0.08,
        sink: Optional[Callable[[Trace], None]] = None,
    ) -> ChannelReport:
        """Send ``bits`` across the boundary and report the outcome.

        ``sink`` receives each raw receiver chunk as it is captured —
        wire it to a :class:`~repro.core.io.TraceArchiveWriter` to
        archive the frame for later replay.
        """
        bits = tuple(1 if bit else 0 for bit in bits)
        start = self._clock
        frame_seconds = (len(PREAMBLE) + len(bits)) * bit_period
        self._clock += frame_seconds + 1.0
        timeline = self.sender.modulate(bits, bit_period, start=start)
        self.soc.replace_workload("fpga", "covert-sender", timeline)
        try:
            received = self.receiver.demodulate(
                start, len(bits), bit_period, sink=sink
            )
        finally:
            self.soc.detach_workload("fpga", "covert-sender")
        return ChannelReport(
            sent=bits, received=tuple(received), bit_period=bit_period
        )

    def capacity_sweep(
        self, bit_periods: Sequence[float], n_bits: int = 64, seed: int = 0
    ) -> List[ChannelReport]:
        """Measure BER/goodput across signaling rates."""
        rng = ensure_rng(seed)
        reports = []
        for bit_period in bit_periods:
            bits = rng.integers(0, 2, size=n_bits)
            reports.append(self.transmit(bits, bit_period=bit_period))
        return reports
