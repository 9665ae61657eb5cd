"""AmpereBleed (DAC 2025) reproduction.

A circuit-free current side-channel attack on ARM-FPGA SoCs, rebuilt on a
physics-grounded simulation substrate (no hardware required):

* :mod:`repro.boards` — evaluation-board catalog and INA226 sensor maps.
* :mod:`repro.fpga` — fabric, PDN, power-virus / RO / RSA victim
  circuits.
* :mod:`repro.sensors` — register-level INA226 model and an in-memory
  hwmon sysfs tree.
* :mod:`repro.soc` — SoC composition: rails, workload timelines, sampling.
* :mod:`repro.dpu` — layer-level DPU execution model and 39 DNN
  architectures over 7 families.
* :mod:`repro.crypto` — RSA-1024 reference math and key construction.
* :mod:`repro.ml` — from-scratch decision-tree / random-forest stack.
* :mod:`repro.core` — the attack itself: unprivileged sampling,
  characterization, DNN fingerprinting, RSA Hamming-weight inference.
* :mod:`repro.session` — acquisition sessions: the one place the
  board/SoC/sampler stack is constructed and seeded.
* :mod:`repro.analysis` — statistics shared by the evaluation benches.

The public entry points re-exported here are the ones a downstream user
needs to mount the three attacks end to end; see ``examples/``.
"""

__version__ = "1.0.0"

from repro.core import (
    CharacterizationResult,
    DnnFingerprinter,
    FingerprintAnalyzer,
    FingerprintConfig,
    HwmonSampler,
    RsaHammingWeightAttack,
    Trace,
    TraceArchiveReader,
    TraceArchiveWriter,
    TraceSet,
    TraceStream,
    characterize,
)
from repro.dpu import DpuRunner, build_model, list_models
from repro.fpga import PowerVirusArray, RingOscillator, RoSensorBank, RsaCircuit
from repro.ml import RandomForestClassifier
from repro.session import AttackSession
from repro.soc import Soc

__all__ = [
    "__version__",
    "AttackSession",
    "CharacterizationResult",
    "DnnFingerprinter",
    "FingerprintAnalyzer",
    "FingerprintConfig",
    "HwmonSampler",
    "RsaHammingWeightAttack",
    "Trace",
    "TraceArchiveReader",
    "TraceArchiveWriter",
    "TraceSet",
    "TraceStream",
    "characterize",
    "DpuRunner",
    "build_model",
    "list_models",
    "PowerVirusArray",
    "RingOscillator",
    "RoSensorBank",
    "RsaCircuit",
    "RandomForestClassifier",
    "Soc",
]
