"""RSA Hamming-weight inference (paper §IV-C, Fig 4).

The victim is a 100 MHz RSA-1024 square-and-multiply circuit looping
encryptions of a random plaintext; its secret exponent is sealed in
the encrypted bitstream.  The unprivileged attacker polls the FPGA
current file at 1 kHz and records 100 k samples.  Because the multiply
module is active only on 1-bits, the rail's mean power — hence current
— is linear in the exponent's Hamming weight, and the 1 mA current
resolution separates all 17 test keys while the 25 mW power resolution
collapses them into ~5 groups.

Like the fingerprinting attack, this one is split across the two
planes: :meth:`RsaHammingWeightAttack.collect_sweep` records labeled
traces on the device (optionally streaming them to an archive), and
:func:`sweep_from_traces` turns a trace set — fresh or loaded from
disk — into the Fig 4 distributions.  ``sweep()`` runs the classic
in-process experiment, profiling each key as soon as it is recorded.

Knowing the Hamming weight shrinks the brute-force key space and seeds
statistical key-recovery attacks (the paper cites Sarkar & Maitra).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.distributions import (
    DistributionSummary,
    count_groups,
    summarize,
)
from repro.analysis.stats import LinearFit, linear_fit
from repro.core.io import TraceArchiveWriter, resume_point
from repro.core.sampler import HwmonSampler
from repro.core.traces import Trace, TraceSet
from repro.crypto.rsa_math import (
    PAPER_HAMMING_WEIGHTS,
    make_exponent_with_weight,
)
from repro.fpga.rsa import RsaCircuit
from repro.soc.soc import Soc
from repro.utils.validation import require_int_in_range, require_positive

#: Channel LSB in hwmon units, for grouping analysis.
GROUP_GAP = {"current": 1.0, "power": 25_000.0}

#: Trace label prefix identifying one test key's Hamming weight.
WEIGHT_LABEL_PREFIX = "hw-"

#: Integer dtypes a profile holds its readings in, narrowest first.
_PROFILE_INT_DTYPES = (np.int16, np.int32, np.int64)


@dataclass(frozen=True)
class KeyProfile:
    """Readings collected while one key was in use.

    ``values`` are the trace's readings in hwmon units (mA for
    current, µW for power), held once: integer readings in the
    narrowest of int16, int32 and int64 that holds their minimum and
    maximum (int16 for mA, int32 for µW and torn-fault magnitudes),
    any other readings as float64.  Consumers convert to float64,
    which is exact for integers below 2**53.
    """

    weight: int
    quantity: str
    values: np.ndarray

    @cached_property
    def summary(self) -> DistributionSummary:
        """Box-plot summary (what Fig 4 draws per key), computed once."""
        return summarize(self.values)


@dataclass(frozen=True)
class WeightSweepResult:
    """Fig 4 for one channel: per-key reading distributions."""

    quantity: str
    profiles: Tuple[KeyProfile, ...]

    @property
    def weights(self) -> np.ndarray:
        """Hamming weights, in sweep order."""
        return np.asarray([profile.weight for profile in self.profiles])

    @property
    def medians(self) -> np.ndarray:
        """Median reading per key."""
        return np.asarray(
            [profile.summary.median for profile in self.profiles]
        )

    def distinguishable_groups(self, min_gap: Optional[float] = None) -> int:
        """How many of the 17 keys stay distinguishable on this channel."""
        if min_gap is None:
            min_gap = GROUP_GAP.get(self.quantity, 1.0)
        return count_groups(self.medians, min_gap)

    def calibration(self) -> LinearFit:
        """Median-vs-weight line: the attacker's decoding curve."""
        return linear_fit(self.weights, self.medians)


def weight_from_label(label: Optional[str]) -> int:
    """Parse the Hamming weight from an archived trace label."""
    if label is None or not label.startswith(WEIGHT_LABEL_PREFIX):
        raise ValueError(
            f"trace label {label!r} does not carry a Hamming weight "
            f"(expected '{WEIGHT_LABEL_PREFIX}<n>')"
        )
    return int(label[len(WEIGHT_LABEL_PREFIX):])


def _narrow_readings(values: np.ndarray) -> np.ndarray:
    """``values`` in the narrowest profile dtype that holds them."""
    if values.dtype.kind in "iu":
        low, high = int(values.min()), int(values.max())
        for dtype in _PROFILE_INT_DTYPES:
            bounds = np.iinfo(dtype)
            if bounds.min <= low and high <= bounds.max:
                return values.astype(dtype, copy=False)
    return np.asarray(values, dtype=np.float64)


def profile_from_trace(trace: Trace) -> KeyProfile:
    """The per-key reading distribution behind one recorded trace."""
    return KeyProfile(
        weight=weight_from_label(trace.label),
        quantity=trace.quantity,
        values=_narrow_readings(trace.values),
    )


def sweep_from_traces(
    traces: TraceSet, quantity: Optional[str] = None
) -> WeightSweepResult:
    """Analysis plane: rebuild Fig 4 from recorded key traces.

    ``traces`` may come straight from :meth:`RsaHammingWeightAttack.
    collect_sweep` or from a trace archive; the result is bit-identical
    either way.  ``quantity`` filters a mixed-channel set (e.g. an
    archive holding both the current and power sweeps).
    """
    if quantity is not None:
        traces = traces.filter(quantity=quantity)
    if len(traces) == 0:
        raise ValueError("no traces to analyze (wrong quantity filter?)")
    quantities = {trace.quantity for trace in traces}
    if len(quantities) > 1:
        raise ValueError(
            f"mixed quantities {sorted(quantities)}; pass quantity= to "
            f"select one sweep"
        )
    profiles = tuple(profile_from_trace(trace) for trace in traces)
    return WeightSweepResult(
        quantity=quantities.pop(), profiles=profiles
    )


class RsaHammingWeightAttack:
    """Mounts the Fig 4 experiment on a simulated SoC.

    Args:
        session: the attacker's foothold; its SoC hosts the victim, its
            sampler polls it, and its seed keys key construction and
            the victim's plaintext (default: a fresh
            :meth:`~repro.session.AttackSession.create`).
        sampling_hz: poll rate (paper: 1 kHz — far above the 35 ms
            sensor refresh, so readings repeat in runs of ~35).
    """

    def __init__(
        self,
        session=None,
        sampling_hz: float = 1000.0,
    ):
        if session is None:
            from repro.session import AttackSession

            session = AttackSession.create()
        self.session = session
        self.sampling_hz = require_positive(sampling_hz, "sampling_hz")
        self._clock = 1.0

    @property
    def soc(self) -> Soc:
        return self.session.soc

    @property
    def sampler(self) -> HwmonSampler:
        return self.session.sampler

    @property
    def seed(self) -> Optional[int]:
        return self.session.seed

    def make_circuit(self, weight: int) -> RsaCircuit:
        """The victim circuit for one Hamming-weight test key."""
        exponent = make_exponent_with_weight(weight, seed=self.seed)
        return RsaCircuit(exponent)

    def record_key(
        self,
        circuit: RsaCircuit,
        quantity: str = "current",
        n_samples: int = 35_000,
    ) -> Trace:
        """Acquisition plane: one key's polling session as a raw trace.

        The trace label encodes the ground-truth Hamming weight
        (``hw-<n>``), which is what the analysis plane keys on.
        """
        n_samples = require_int_in_range(
            n_samples, 10, 100_000_000, "n_samples"
        )
        start = self._clock
        self._clock += n_samples / self.sampling_hz + 1.0
        self.soc.replace_workload(
            "fpga", "rsa", circuit.timeline(start=start)
        )
        try:
            trace = self.sampler.collect(
                "fpga",
                quantity,
                start=start,
                n_samples=n_samples,
                poll_hz=self.sampling_hz,
                label=f"{WEIGHT_LABEL_PREFIX}{circuit.hamming_weight}",
            )
        finally:
            self.soc.detach_workload("fpga", "rsa")
        return trace

    def profile_key(
        self,
        circuit: RsaCircuit,
        quantity: str = "current",
        n_samples: int = 35_000,
    ) -> KeyProfile:
        """Record ``n_samples`` polls while ``circuit`` loops encryptions."""
        return profile_from_trace(
            self.record_key(circuit, quantity=quantity, n_samples=n_samples)
        )

    def archive_meta(
        self,
        weights: Sequence[int] = PAPER_HAMMING_WEIGHTS,
        quantity: str = "current",
        n_samples: int = 35_000,
    ) -> dict:
        """Manifest metadata describing one sweep recording."""
        return {
            "experiment": "rsa",
            "board": self.soc.board.name,
            "seed": self.seed,
            "sampling_hz": self.sampling_hz,
            "quantity": quantity,
            "n_samples": n_samples,
            "weights": [int(weight) for weight in weights],
        }

    def collect_sweep(
        self,
        weights: Sequence[int] = PAPER_HAMMING_WEIGHTS,
        quantity: str = "current",
        n_samples: int = 35_000,
        sink: Optional[TraceArchiveWriter] = None,
    ) -> TraceSet:
        """Acquisition plane: record every test key's trace.

        The returned set holds every key's trace, so its memory grows
        with the sweep (27 MB for the paper's 17 keys of 100 k
        polls); :meth:`sweep` profiles each key as it is recorded and
        holds one key's trace at a time.  With ``sink`` given each
        key's trace is also appended to the archive as soon as its
        session ends, followed by a progress checkpoint.

        A sink reopened via ``TraceArchiveWriter(..., resume=True)``
        resumes the interrupted sweep (:func:`~repro.core.io.
        resume_point`): keys it persisted are loaded back from disk,
        and the sweep continues at the first unrecorded key with the
        experiment clock advanced exactly as if those keys had just
        been recorded, so the sealed archive is byte-identical to an
        uninterrupted sweep's.
        """
        state, recovered = resume_point(sink)
        keys_done = int(state.get("keys_done", 0))
        traces = TraceSet(recovered)
        for index, weight in enumerate(weights):
            if index < keys_done:
                # Advance the clock exactly as record_key did for the
                # already-persisted run.
                self._clock += n_samples / self.sampling_hz + 1.0
                continue
            trace = self.record_key(
                self.make_circuit(weight),
                quantity=quantity,
                n_samples=n_samples,
            )
            traces.add(trace)
            if sink is not None:
                sink.append(trace)
                sink.checkpoint(
                    {
                        "experiment": "rsa",
                        "keys_done": index + 1,
                        "weight": int(weight),
                    }
                )
        return traces

    def sweep(
        self,
        weights: Sequence[int] = PAPER_HAMMING_WEIGHTS,
        quantity: str = "current",
        n_samples: int = 35_000,
    ) -> WeightSweepResult:
        """Profile every test key on one channel (one Fig 4 panel).

        Each key is profiled as soon as it is recorded, so one key's
        trace is alive at a time; the result equals
        ``sweep_from_traces(self.collect_sweep(...))`` bit for bit.
        """
        if len(weights) == 0:
            raise ValueError("no test keys to sweep")
        profiles = tuple(
            self.profile_key(
                self.make_circuit(weight),
                quantity=quantity,
                n_samples=n_samples,
            )
            for weight in weights
        )
        return WeightSweepResult(quantity=quantity, profiles=profiles)

    def infer_weight(
        self, values: np.ndarray, calibration: LinearFit
    ) -> float:
        """Decode an unknown key's Hamming weight from its readings.

        Inverts the calibration line at the observed median; the
        attacker rounds to the nearest plausible weight.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("need at least one reading")
        if calibration.slope == 0:
            raise ValueError("degenerate calibration (zero slope)")
        median = float(np.median(values))
        return (median - calibration.intercept) / calibration.slope

    def end_to_end(
        self,
        true_weight: int,
        calibration: LinearFit,
        n_samples: int = 35_000,
    ) -> float:
        """Full online attack on one unknown key, through the current
        channel; returns the estimate."""
        profile = self.profile_key(
            self.make_circuit(true_weight),
            quantity="current",
            n_samples=n_samples,
        )
        return self.infer_weight(profile.values, calibration)
