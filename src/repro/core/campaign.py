"""End-to-end attack campaign: what the malicious process actually does.

The paper's threat model is a single unprivileged process dropped onto
the device (OTA update, malware).  Its kill chain through this library:

1. **Recon** — walk ``/sys/class/hwmon``, read each device's ``name``
   file, and match the INA226 instances against the known sensitive
   designators (Table II knowledge ships with the malware).
2. **Stakeout** — poll the FPGA current file until victim activity
   starts (onset detection), so traces are not wasted on idle.
3. **Attack** — hand the located channels to the fingerprinting or
   RSA pipelines.

:class:`AttackCampaign` packages those stages so an end-to-end run is
three calls; the examples and the campaign tests exercise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.boards.zcu102 import SENSITIVE_SENSOR_MAP
from repro.core.detector import OnsetDetector
from repro.core.io import TraceArchiveWriter
from repro.core.sampler import HwmonSampler
from repro.core.traces import Trace
from repro.soc.soc import Soc
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class ReconReport:
    """What sensor enumeration found."""

    #: Every hwmon device: path -> name-file contents.
    devices: Dict[str, str]
    #: domain key -> curr1_input path, for recognized sensitive sensors.
    sensitive_paths: Dict[str, str]

    @property
    def found_fpga_sensor(self) -> bool:
        """Did recon locate the FPGA current channel?"""
        return "fpga" in self.sensitive_paths


def deploy_victim(
    session,
    start: float = 2.0,
    amplitude: float = 3.0,
    domain: str = "fpga",
):
    """Attach a deterministic step-on victim workload to a session.

    The canonical stakeout target: a workload named ``"victim"`` that
    idles until ``start`` seconds, then holds ``amplitude`` activity
    forever.  Pulling this out of the test fixtures makes a campaign
    self-contained from just ``(board, seed, start, amplitude)`` —
    exactly what a fleet job pickles — so every board in a sharded run
    deploys an identical victim and resumed runs reproduce it bit for
    bit.  Returns the session for chaining.
    """
    from repro.soc.workload import PiecewiseActivity

    require_positive(start, "start")
    session.soc.attach_workload(
        domain,
        "victim",
        PiecewiseActivity(
            [0.0, float(start), 1e9], [0.0, float(amplitude)]
        ),
    )
    return session


class AttackCampaign:
    """Drives the recon -> stakeout -> attack chain on one session.

    Args:
        session: the malicious process's foothold (default: a fresh
            :meth:`~repro.session.AttackSession.create`).
    """

    def __init__(self, session=None):
        if session is None:
            from repro.session import AttackSession

            session = AttackSession.create()
        self.session = session

    @property
    def soc(self) -> Soc:
        return self.session.soc

    @property
    def sampler(self) -> HwmonSampler:
        return self.session.sampler

    # ------------------------------------------------------------ recon

    def recon(self) -> ReconReport:
        """Enumerate hwmon and locate the sensitive INA226 instances.

        Uses only unprivileged reads of ``name`` files — exactly what
        ``grep . /sys/class/hwmon/hwmon*/name`` does on the real board.
        """
        devices: Dict[str, str] = {}
        sensitive: Dict[str, str] = {}
        known = {
            f"ina226_{designator}": domain
            for domain, designator in SENSITIVE_SENSOR_MAP.items()
        }
        for device in self.soc.hwmon.devices():
            name = device.read("name")
            devices[device.path] = name
            domain = known.get(name)
            if domain is not None:
                sensitive[domain] = f"{device.path}/curr1_input"
        return ReconReport(devices=devices, sensitive_paths=sensitive)

    # --------------------------------------------------------- stakeout

    def wait_for_victim(
        self,
        start: float = 0.0,
        timeout: float = 30.0,
        chunk: float = 2.0,
    ) -> Tuple[bool, float]:
        """Poll the FPGA current until a default
        :class:`~repro.core.detector.OnsetDetector` sees activity (or
        timeout).

        Returns ``(found, onset_time)``; consumes the channel as one
        chunked :class:`~repro.core.sampler.TraceStream`, so memory is
        bounded by the ``chunk`` window no matter how long the
        stakeout runs.  The stream's first chunk calibrates the idle
        baseline; later chunks are judged against it, so a victim that
        is already running when a chunk starts is still caught.
        """
        require_positive(timeout, "timeout")
        require_positive(chunk, "chunk")
        stream = self.sampler.stream(
            "fpga",
            "current",
            start=start,
            duration=timeout,
            chunk_duration=chunk,
        )
        return OnsetDetector().scan_for_onset(stream)

    # ----------------------------------------------------------- attack

    def record_victim(
        self,
        start: float = 0.0,
        duration: float = 5.0,
        label: Optional[str] = None,
    ) -> Trace:
        """Record an FPGA current attack trace once the victim runs."""
        return self.sampler.collect(
            "fpga", "current", start=start, duration=duration, label=label
        )

    def run(
        self,
        victim_start: float,
        trace_duration: float = 5.0,
        timeout: float = 60.0,
    ) -> Optional[Trace]:
        """The full chain against an already-deployed victim.

        The stakeout watches from time 0.  Returns the attack trace, or
        ``None`` when recon or stakeout fails (no sensors / victim
        never ran).
        """
        report = self.recon()
        if not report.found_fpga_sensor:
            return None
        found, onset = self.wait_for_victim(timeout=timeout)
        if not found:
            return None
        return self.record_victim(
            start=max(onset, victim_start), duration=trace_duration
        )

    def run_archived(
        self,
        out: Union[str, Path],
        victim_start: float,
        trace_duration: float = 5.0,
        timeout: float = 60.0,
        chunk_duration: float = 1.0,
        resume: bool = False,
    ) -> Optional[Trace]:
        """The full chain, checkpointed to a v3 trace archive.

        Each stage (recon, stakeout, every recorded attack chunk)
        lands in the archive manifest as it completes, so a campaign
        killed at any point resumes from its last checkpoint with
        ``resume=True`` — the stages already done are skipped and the
        attack trace continues at the exact chunk where the kill hit.
        Recording is deterministic, so the sealed archive (and the
        returned trace) is byte-identical to an uninterrupted run's.

        Returns the reassembled attack trace, or ``None`` when recon
        or stakeout fails (the archive is sealed either way, with an
        ``outcome`` in its metadata).
        """
        meta = {
            "experiment": "campaign",
            "board": self.soc.board.name,
            "seed": self.session.seed,
            "victim_start": victim_start,
            "trace_duration": trace_duration,
            # The stakeout watches from time 0; the key stays in the
            # manifest so existing archives and digests keep their bytes.
            "stakeout_from": 0.0,
            "timeout": timeout,
            "chunk_duration": chunk_duration,
        }
        writer = TraceArchiveWriter(out, meta=meta, resume=resume)
        try:
            state = dict(writer.checkpoint_state or {})
            stages = {"recon": 1, "stakeout": 2, "attack": 3}
            reached = stages.get(state.get("stage"), 0)
            if reached < 1:
                report = self.recon()
                state = {
                    "stage": "recon",
                    "found_fpga_sensor": report.found_fpga_sensor,
                }
                writer.checkpoint(state)
            if not state.get("found_fpga_sensor"):
                writer.update_meta(outcome="no-sensor")
                writer.close()
                return None
            if reached < 2:
                found, onset = self.wait_for_victim(timeout=timeout)
                state = dict(
                    state,
                    stage="stakeout",
                    victim_found=found,
                    onset=float(onset),
                )
                writer.checkpoint(state)
            if not state.get("victim_found"):
                writer.update_meta(outcome="no-victim")
                writer.close()
                return None
            chunks_done = int(state.get("chunks_done", 0))
            stream = self.sampler.stream(
                "fpga",
                "current",
                start=max(float(state["onset"]), victim_start),
                duration=trace_duration,
                chunk_duration=chunk_duration,
                label="campaign-attack",
            )
            recorded = []
            for index, chunk in enumerate(stream):
                recorded.append(chunk)
                if index < chunks_done:
                    # Already persisted before the interruption; the
                    # chunk was regenerated (deterministically) only
                    # to rebuild the in-memory trace and advance the
                    # stream's jitter state.
                    continue
                writer.append(chunk, trace_id="attack", part=index)
                state = dict(state, stage="attack", chunks_done=index + 1)
                writer.checkpoint(state)
            writer.update_meta(outcome="recorded")
            writer.close()
        except BaseException:
            # Leave the archive visibly unsealed for a later resume.
            writer.abort()
            raise
        first = recorded[0]
        return Trace(
            times=np.concatenate([c.times for c in recorded]),
            values=np.concatenate([c.values for c in recorded]),
            domain=first.domain,
            quantity=first.quantity,
            label=first.label,
        )
