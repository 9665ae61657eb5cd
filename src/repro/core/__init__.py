"""The AmpereBleed attack library: sampling, characterization, attacks."""

from repro.core.characterize import (
    CHANNEL_LSBS,
    ChannelSweep,
    CharacterizationResult,
    characterize,
)
from repro.core.countermeasures import (
    ROOT_ONLY,
    SensorHardening,
    coarsened,
    dithered,
    rate_limited,
)
from repro.core.covert_channel import (
    ChannelReport,
    CovertChannel,
    PowerCovertReceiver,
    PowerCovertSender,
    decode_frame,
)
from repro.core.campaign import AttackCampaign, ReconReport
from repro.core.detector import Episode, OnsetDetector, OnsetEvent, OnsetTracker
from repro.core.io import (
    ArchiveCorruptError,
    ArchiveError,
    TraceArchiveReader,
    TraceArchiveWriter,
)
from repro.core.features import resample_values
from repro.core.fingerprint import (
    TABLE3_CHANNELS,
    TABLE3_DURATIONS,
    DnnFingerprinter,
    FingerprintAnalyzer,
    FingerprintConfig,
)
from repro.core.rsa_attack import (
    KeyProfile,
    RsaHammingWeightAttack,
    WeightSweepResult,
    sweep_from_traces,
)
from repro.core.sampler import (
    ChannelDeadError,
    ChannelOutageError,
    HwmonSampler,
    StreamInterrupted,
    TraceStream,
)
from repro.core.streaming import (
    ConfidenceSmoother,
    FeatureBatch,
    FeatureWindow,
    IncrementalFeatureExtractor,
    Interruption,
    ModelSwitch,
    MonitorUpdate,
    StreamingAnalyzer,
    Verdict,
    WindowSpec,
    monitor_chunks,
)
from repro.core.traces import Trace, TraceQuality, TraceSet

__all__ = [
    "CHANNEL_LSBS",
    "ROOT_ONLY",
    "SensorHardening",
    "coarsened",
    "dithered",
    "rate_limited",
    "ChannelReport",
    "CovertChannel",
    "PowerCovertReceiver",
    "PowerCovertSender",
    "decode_frame",
    "AttackCampaign",
    "ReconReport",
    "Episode",
    "OnsetDetector",
    "OnsetEvent",
    "OnsetTracker",
    "ArchiveCorruptError",
    "ArchiveError",
    "TraceArchiveReader",
    "TraceArchiveWriter",
    "ChannelSweep",
    "CharacterizationResult",
    "characterize",
    "resample_values",
    "TABLE3_CHANNELS",
    "TABLE3_DURATIONS",
    "DnnFingerprinter",
    "FingerprintAnalyzer",
    "FingerprintConfig",
    "KeyProfile",
    "RsaHammingWeightAttack",
    "WeightSweepResult",
    "sweep_from_traces",
    "ChannelDeadError",
    "ChannelOutageError",
    "HwmonSampler",
    "StreamInterrupted",
    "TraceStream",
    "ConfidenceSmoother",
    "FeatureBatch",
    "FeatureWindow",
    "IncrementalFeatureExtractor",
    "Interruption",
    "ModelSwitch",
    "MonitorUpdate",
    "StreamingAnalyzer",
    "Verdict",
    "WindowSpec",
    "monitor_chunks",
    "Trace",
    "TraceQuality",
    "TraceSet",
]
