"""Statistics shared by the evaluation benches."""

from repro.analysis.leakage import (
    TVLA_THRESHOLD,
    TTestResult,
    pairwise_tvla,
    snr,
    welch_t_test,
)
from repro.analysis.spectral import (
    SpectralPeak,
    amplitude_spectrum,
    estimate_serving_rate,
)
from repro.analysis.distributions import (
    DistributionSummary,
    count_groups,
    overlap_fraction,
    pairwise_separable,
    summarize,
)
from repro.analysis.stats import (
    LinearFit,
    linear_fit,
    lsb_per_step,
    pearson,
    relative_variation,
    variation_ratio,
)

__all__ = [
    "TVLA_THRESHOLD",
    "TTestResult",
    "pairwise_tvla",
    "snr",
    "welch_t_test",
    "SpectralPeak",
    "amplitude_spectrum",
    "estimate_serving_rate",
    "DistributionSummary",
    "count_groups",
    "overlap_fraction",
    "pairwise_separable",
    "summarize",
    "LinearFit",
    "linear_fit",
    "lsb_per_step",
    "pearson",
    "relative_variation",
    "variation_ratio",
]
