"""Tests for analysis statistics and distribution helpers."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    count_groups,
    linear_fit,
    lsb_per_step,
    overlap_fraction,
    pairwise_separable,
    pearson,
    relative_variation,
    summarize,
    variation_ratio,
)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([0, 1, 2, 3], [1, 3, 5, 7]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([0, 1, 2, 3], [7, 5, 3, 1]) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert pearson([0, 1, 2], [5, 5, 5]) == 0.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1], [1])


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([0, 1, 2], [1.0, 3.0, 5.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r == pytest.approx(1.0)

    def test_predict(self):
        fit = linear_fit([0, 1], [0.0, 2.0])
        np.testing.assert_allclose(fit.predict([2.0]), [4.0])

    def test_noisy_r_below_one(self):
        rng = np.random.default_rng(0)
        x = np.arange(50.0)
        y = 2 * x + rng.normal(scale=5.0, size=50)
        fit = linear_fit(x, y)
        assert 0.9 < fit.r < 1.0


def _random_series(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 200))
    x = rng.normal(size=n) * rng.uniform(0.1, 100.0)
    y = (
        rng.normal() * 3.0 * x
        + rng.normal(size=n) * rng.uniform(0.01, 10.0)
        + rng.normal() * 50.0
    )
    return x, y


def _fig2_series(seed):
    """Per-level means of a 161-level sweep: current, voltage, RO."""
    rng = np.random.default_rng(seed)
    levels = np.arange(161.0)
    return levels, [
        1000.0 + 40.0 * levels + rng.normal(scale=2.0, size=161),
        850.0 - 0.004 * levels + rng.normal(scale=0.2, size=161),
        52000.0 - 0.3 * levels + rng.normal(scale=4.0, size=161),
    ]


class TestClosedFormsMatchNumpy:
    """pearson/linear_fit agree with numpy's own estimators."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_inputs(self, seed):
        x, y = _random_series(seed)
        self._assert_agree(x, y)

    @pytest.mark.parametrize("seed", range(3))
    def test_fig2_shaped_inputs(self, seed):
        levels, channels = _fig2_series(seed)
        for means in channels:
            self._assert_agree(levels, means)

    @staticmethod
    def _assert_agree(x, y):
        expected_r = np.corrcoef(x, y)[0, 1]
        slope, intercept = np.polyfit(x, y, 1)
        fit = linear_fit(x, y)
        assert pearson(x, y) == pytest.approx(expected_r, rel=1e-12)
        assert fit.r == pytest.approx(expected_r, rel=1e-12)
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12)


class TestClosedFormEdges:
    def test_constant_x_raises(self):
        with pytest.raises(ValueError, match="identical"):
            linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_constant_y_is_flat_with_undefined_r(self):
        fit = linear_fit([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
        assert fit.slope == 0.0
        assert fit.intercept == 5.0
        assert np.isnan(fit.r)

    def test_r_stays_in_unit_interval(self):
        x = np.arange(1000.0) * 1e-3
        assert linear_fit(x, 7.0 * x + 1.0).r <= 1.0
        assert -1.0 <= pearson(x, -3.0 * x)

    def test_pearson_constant_series_is_zero(self):
        assert pearson([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) == 0.0


def test_import_repro_leaves_scipy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import repro; "
        "print('scipy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestLsbPerStep:
    def test_forty_lsb_per_step(self):
        means = 1000.0 + 40.0 * np.arange(161)
        assert lsb_per_step(means, 1.0) == pytest.approx(40.0)

    def test_power_lsb_scaling(self):
        means = 1e6 + 34_000.0 * np.arange(10)  # uW readings
        assert lsb_per_step(means, 25_000.0) == pytest.approx(1.36)

    def test_negative_slope_absolute(self):
        means = 100.0 - 2.0 * np.arange(10)
        assert lsb_per_step(means, 1.0) == pytest.approx(2.0)

    def test_invalid_lsb(self):
        with pytest.raises(ValueError):
            lsb_per_step([1.0, 2.0], 0.0)


class TestVariation:
    def test_relative_variation(self):
        assert relative_variation([1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_ratio(self):
        current = [1000.0, 7400.0]  # big swing
        ro = [189.0, 190.0]  # tiny swing
        ratio = variation_ratio(current, ro)
        assert ratio == pytest.approx(
            relative_variation(current) / relative_variation(ro)
        )
        assert ratio > 100

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            relative_variation([0.0, 0.0])


class TestDistributions:
    def test_summarize(self):
        summary = summarize(np.arange(101.0))
        assert summary.median == pytest.approx(50.0)
        assert summary.q1 == pytest.approx(25.0)
        assert summary.q3 == pytest.approx(75.0)
        assert summary.iqr == pytest.approx(50.0)
        assert summary.n == 101

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_count_groups_all_separate(self):
        centers = np.arange(17) * 8.0
        assert count_groups(centers, min_gap=1.0) == 17

    def test_count_groups_collapse(self):
        # 17 centers spaced 6 apart with a min gap of 25 -> ~4-5 groups.
        centers = np.arange(17) * 6.0
        assert count_groups(centers, min_gap=25.0) == 4

    def test_count_groups_zero_gap_counts_distinct(self):
        assert count_groups([1.0, 1.0, 2.0], min_gap=0.0) == 2

    def test_count_groups_invalid(self):
        with pytest.raises(ValueError):
            count_groups([], 1.0)
        with pytest.raises(ValueError):
            count_groups([1.0], -1.0)

    def test_pairwise_separable(self):
        separated = [summarize(np.full(5, v)) for v in (1.0, 5.0, 9.0)]
        assert pairwise_separable(separated, min_gap=1.0)
        merged = [summarize(np.full(5, v)) for v in (1.0, 1.0)]
        assert not pairwise_separable(merged)

    def test_overlap_fraction_disjoint(self):
        assert overlap_fraction([0.0, 1.0], [5.0, 6.0]) == 0.0

    def test_overlap_fraction_identical(self):
        assert overlap_fraction([0.0, 1.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_overlap_fraction_partial(self):
        value = overlap_fraction([0.0, 2.0], [1.0, 3.0])
        assert 0.0 < value < 1.0
