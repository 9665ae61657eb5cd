"""Acquisition sessions: the on-device half of every attack.

The paper's threat model is collect-once / analyze-anywhere: one
unprivileged process on the board records hwmon traces, and the heavy
analysis (forest training, the Table III grid) happens later on the
attacker's machine.  :class:`AttackSession` is the library's single
owner of the *device side* of that split — the board spec, the
simulated SoC, the unprivileged sampler, and the channel registry —
with one seed-derivation policy shared by every pipeline.

Every pipeline (`characterize`, `DnnFingerprinter`,
`RsaHammingWeightAttack`, `CovertChannel`, `AttackCampaign`) takes a
session as its first argument and is built from nothing else: wrap an
existing SoC with ``AttackSession(soc, sampler=..., seed=...)`` or
start on a fresh board with :meth:`AttackSession.create`, which is
also what a pipeline builds when given no session.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.boards.catalog import BoardSpec
from repro.core.sampler import HwmonSampler
from repro.soc.soc import QUANTITY_ATTRS, Soc
from repro.utils.rng import derive_seed, normalize_seed

__all__ = [
    "DEFAULT_BOARD",
    "AttackSession",
    "normalize_seed",
]

#: Default board: the paper's experimental machine.
DEFAULT_BOARD = "ZCU102"


class AttackSession:
    """One attacker foothold on one board: SoC + sampler + seed.

    Args:
        soc: the simulated platform (build with :meth:`create` to get
            the default board construction).
        sampler: the unprivileged polling loop; defaults to a fresh
            :class:`HwmonSampler` keyed by the session seed.
        seed: session seed (``None`` normalizes to 0 — see
            :func:`normalize_seed`).

    Every attack pipeline is built from a session, so several of them
    can share one foothold (same SoC, same noise streams) — exactly
    what one malicious process on the real board would have.
    """

    def __init__(
        self,
        soc: Soc,
        sampler: Optional[HwmonSampler] = None,
        seed: Optional[int] = 0,
    ):
        if not isinstance(soc, Soc):
            raise TypeError("soc must be a repro.soc.Soc")
        self.seed = normalize_seed(seed)
        self.soc = soc
        self.sampler = (
            sampler
            if sampler is not None
            else HwmonSampler(soc, seed=self.seed)
        )

    @classmethod
    def create(
        cls,
        board=DEFAULT_BOARD,
        seed: Optional[int] = 0,
        poll_jitter: float = 120e-6,
        hardening=None,
        faults=None,
        retry_policy=None,
    ) -> "AttackSession":
        """Build a session on a fresh simulated board.

        This is the one place the library constructs the
        SoC-plus-sampler pair, so every pipeline derives its noise
        streams identically.

        ``faults`` arms deterministic fault injection on every hwmon
        device: a :class:`repro.faults.FaultPlan` or a rate in [0, 1]
        (shorthand for :meth:`FaultPlan.at_rate`); ``None`` or a rate
        of 0 arms nothing and keeps the bit-identical fast path.
        ``retry_policy`` configures the sampler's resilient read loop.
        """
        seed = normalize_seed(seed)
        soc = Soc(board, seed=seed, hardening=hardening)
        sampler = HwmonSampler(
            soc, poll_jitter=poll_jitter, seed=seed,
            retry_policy=retry_policy,
        )
        session = cls(soc, sampler=sampler, seed=seed)
        session.arm_faults(faults)
        return session

    def arm_faults(self, faults=None):
        """Arm (or re-arm) fault injection on this session's devices.

        Accepts the same spellings as :meth:`create`'s ``faults``
        argument; the resolved plan (or ``None`` when nothing was
        armed) is returned.  The plan's per-device schedule is keyed by
        its own seed — by default derived from the session seed, so
        sessions with different seeds fail differently.
        """
        from repro.faults import resolve_fault_plan

        plan = resolve_fault_plan(faults, seed=self.derive("faults"))
        if plan is not None:
            self.soc.arm_faults(plan)
        return plan

    @property
    def board(self) -> BoardSpec:
        """The board under attack."""
        return self.soc.board

    def derive(self, name: str) -> int:
        """A stable integer sub-seed keyed by ``(session seed, name)``."""
        return derive_seed(self.seed, name)

    # ------------------------------------------------ channel registry

    def domains(self) -> List[str]:
        """Sensor domains pollable on this board, in stable order.

        These are the paper's Table II sensitive channels — the rails
        an unprivileged process can meaningfully observe.
        """
        return [domain for domain, _ in self.soc.sensitive_channels()]

    def channels(
        self, quantities: Optional[Tuple[str, ...]] = None
    ) -> List[Tuple[str, str]]:
        """Every pollable ``(domain, quantity)`` pair on this board.

        ``quantities`` restricts the registry (e.g. ``("current",)``
        for the four Table II current channels).
        """
        if quantities is None:
            quantities = tuple(QUANTITY_ATTRS)
        for quantity in quantities:
            if quantity not in QUANTITY_ATTRS:
                known = ", ".join(sorted(QUANTITY_ATTRS))
                raise ValueError(
                    f"unknown quantity {quantity!r}; expected one of {known}"
                )
        return [
            (domain, quantity)
            for domain in self.domains()
            for quantity in quantities
        ]

    def monitor(
        self,
        classifier,
        domain: str = "fpga",
        quantity: str = "current",
        *,
        duration: float,
        window_samples: int,
        hop_samples: Optional[int] = None,
        poll_hz: Optional[float] = None,
        chunk_samples: Optional[int] = None,
        chunk_duration: Optional[float] = None,
        n_features: int = 140,
        top_k: int = 3,
        smoothing: float = 1.0,
        detector=None,
        sink=None,
        trace_id: str = "monitor",
    ):
        """Record one channel and classify it live, in a single pass.

        The streaming shape of the attack: a
        :class:`~repro.core.sampler.TraceStream` polls the channel in
        bounded chunks, every chunk is (optionally) persisted to
        ``sink`` with a progress checkpoint, and a
        :class:`~repro.core.streaming.StreamingAnalyzer` turns it into
        live :class:`~repro.core.streaming.MonitorUpdate`\\ s — one per
        chunk plus a final flush.  A stream killed by a dead channel
        ends with an :class:`~repro.core.streaming.Interruption` event
        instead of an exception, keeping the verdicts already earned.

        A ``sink`` reopened via ``TraceArchiveWriter(..., resume=True)``
        resumes the interrupted session (:func:`~repro.core.io.
        resume_point`): the ``trace_id`` chunks it persisted are
        replayed through the analyzer off disk — rebuilding
        smoothing/detector state deterministically — and the live
        stream skips past them, so the completed session's archive and
        verdicts are byte-identical to an uninterrupted run's.
        Replayed chunks do not re-yield their updates; only fresh
        chunks produce output.
        """
        from repro.core.io import resume_point
        from repro.core.streaming import (
            StreamingAnalyzer,
            WindowSpec,
            monitor_chunks,
        )

        analyzer = StreamingAnalyzer(
            classifier,
            WindowSpec(
                window_samples,
                window_samples if hop_samples is None else hop_samples,
            ),
            n_features,
            top_k=top_k,
            smoothing=smoothing,
            detector=detector,
        )
        stream = self.sampler.stream(
            domain,
            quantity,
            start=0.0,
            duration=duration,
            poll_hz=poll_hz,
            chunk_samples=chunk_samples,
            chunk_duration=chunk_duration,
        )
        _, recovered = resume_point(sink, trace_id=trace_id)
        for chunk in recovered:
            analyzer.push_chunk(chunk)
        stream.skip_samples(sum(chunk.n_samples for chunk in recovered))

        def _recorded(chunks, part):
            for chunk in chunks:
                if sink is not None:
                    sink.append(chunk, trace_id=trace_id, part=part)
                    part += 1
                    sink.checkpoint(
                        {
                            "experiment": "monitor",
                            "trace_id": trace_id,
                            "parts_done": part,
                        }
                    )
                yield chunk

        return monitor_chunks(analyzer, _recorded(stream, len(recovered)))

    def __repr__(self) -> str:
        return (
            f"AttackSession({self.board.name}, seed={self.seed}, "
            f"{len(self.domains())} domains)"
        )

