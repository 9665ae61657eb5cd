"""Tests for repro.soc.workload activity timelines."""

import numpy as np
import pytest

from repro.soc.workload import (
    CompositeActivity,
    ConstantActivity,
    PiecewiseActivity,
)


class TestConstantActivity:
    def test_power_at(self):
        timeline = ConstantActivity(2.5)
        np.testing.assert_allclose(timeline.power_at([0.0, 1.0, 100.0]), 2.5)

    def test_energy(self):
        timeline = ConstantActivity(2.0)
        np.testing.assert_allclose(
            timeline.energy_between([0.0], [3.0]), [6.0]
        )

    def test_window_mean(self):
        timeline = ConstantActivity(1.5)
        np.testing.assert_allclose(
            timeline.window_mean([10.0], [11.0]), [1.5]
        )

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ConstantActivity(-1.0)

    def test_zero_power_ok(self):
        assert ConstantActivity(0.0).power_at([1.0])[0] == 0.0


class TestPiecewiseFinite:
    @pytest.fixture
    def steps(self):
        # 1 W for 1 s, 3 W for 2 s, 2 W for 1 s.
        return PiecewiseActivity([0.0, 1.0, 3.0, 4.0], [1.0, 3.0, 2.0])

    def test_power_lookup(self, steps):
        np.testing.assert_allclose(
            steps.power_at([0.5, 1.5, 3.5]), [1.0, 3.0, 2.0]
        )

    def test_edge_belongs_to_right_segment(self, steps):
        np.testing.assert_allclose(steps.power_at([1.0]), [3.0])

    def test_holds_last_value_after_end(self, steps):
        np.testing.assert_allclose(steps.power_at([10.0]), [2.0])

    def test_holds_first_value_before_start(self, steps):
        np.testing.assert_allclose(steps.power_at([-5.0]), [1.0])

    def test_energy_within(self, steps):
        # 1*1 + 3*2 + 2*1 = 9 J over the whole span.
        np.testing.assert_allclose(steps.energy_between([0.0], [4.0]), [9.0])

    def test_energy_partial_segment(self, steps):
        np.testing.assert_allclose(steps.energy_between([0.5], [1.5]), [0.5 + 1.5])

    def test_energy_beyond_end_extrapolates(self, steps):
        np.testing.assert_allclose(steps.energy_between([0.0], [5.0]), [9.0 + 2.0])

    def test_energy_before_start_extrapolates(self, steps):
        np.testing.assert_allclose(steps.energy_between([-1.0], [0.0]), [1.0])

    def test_window_mean(self, steps):
        np.testing.assert_allclose(steps.window_mean([0.0], [4.0]), [2.25])

    def test_window_mean_rejects_empty_window(self, steps):
        with pytest.raises(ValueError):
            steps.window_mean([1.0], [1.0])

    def test_mean_power(self, steps):
        assert steps.mean_power == pytest.approx(9.0 / 4.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseActivity([0.0, 1.0], [1.0, 2.0])

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseActivity([0.0, 2.0, 1.0], [1.0, 2.0])

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseActivity([0.0, 1.0], [-1.0])

    def test_from_segments(self):
        timeline = PiecewiseActivity.from_segments([(1.0, 2.0), (2.0, 4.0)])
        np.testing.assert_allclose(timeline.power_at([0.5, 2.0]), [2.0, 4.0])
        np.testing.assert_allclose(timeline.energy_between([0.0], [3.0]), [10.0])

    def test_from_segments_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            PiecewiseActivity.from_segments([(0.0, 1.0)])


class TestPiecewisePeriodic:
    @pytest.fixture
    def square_wave(self):
        # 2 W for 1 ms, 0 W for 1 ms, repeating.
        return PiecewiseActivity(
            [0.0, 1e-3, 2e-3], [2.0, 0.0], period=2e-3
        )

    def test_periodic_power(self, square_wave):
        np.testing.assert_allclose(
            square_wave.power_at([0.5e-3, 1.5e-3, 2.5e-3, 3.5e-3]),
            [2.0, 0.0, 2.0, 0.0],
        )

    def test_periodic_energy_whole_cycles(self, square_wave):
        # One cycle = 2 mJ.
        np.testing.assert_allclose(
            square_wave.energy_between([0.0], [10e-3]), [10e-3]
        )

    def test_periodic_energy_fraction(self, square_wave):
        np.testing.assert_allclose(
            square_wave.energy_between([0.0], [0.5e-3]), [1e-3]
        )

    def test_periodic_mean_power(self, square_wave):
        assert square_wave.mean_power == pytest.approx(1.0)

    def test_negative_time_energy(self, square_wave):
        # Periodicity extends to negative time as well.
        np.testing.assert_allclose(
            square_wave.energy_between([-2e-3], [0.0]), [2e-3]
        )

    def test_gap_is_zero_filled(self):
        # 1 W for 1 s, then a 1 s gap before the 3 s period repeats.
        timeline = PiecewiseActivity([0.0, 1.0], [1.0], period=3.0)
        np.testing.assert_allclose(timeline.power_at([2.0]), [0.0])
        np.testing.assert_allclose(timeline.energy_between([0.0], [3.0]), [1.0])

    def test_period_shorter_than_span_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseActivity([0.0, 1.0, 2.0], [1.0, 2.0], period=1.0)

    def test_window_mean_spanning_many_cycles(self, square_wave):
        # Over many whole cycles the mean approaches 1 W exactly.
        np.testing.assert_allclose(
            square_wave.window_mean([0.0], [20e-3]), [1.0]
        )


class TestCompositeAndScaling:
    def test_addition(self):
        combined = ConstantActivity(1.0) + ConstantActivity(2.0)
        np.testing.assert_allclose(combined.power_at([0.0]), [3.0])

    def test_addition_flattens(self):
        a = ConstantActivity(1.0) + ConstantActivity(2.0)
        b = a + ConstantActivity(3.0)
        assert isinstance(b, CompositeActivity)
        assert len(b.components) == 3

    def test_composite_energy(self):
        combined = CompositeActivity(
            [ConstantActivity(1.0), ConstantActivity(0.5)]
        )
        np.testing.assert_allclose(combined.energy_between([0.0], [2.0]), [3.0])

    def test_empty_composite_rejected(self):
        with pytest.raises(ValueError):
            CompositeActivity([])

    def test_scaled(self):
        timeline = ConstantActivity(2.0).scaled(1.5)
        np.testing.assert_allclose(timeline.power_at([0.0]), [3.0])
        np.testing.assert_allclose(timeline.energy_between([0.0], [1.0]), [3.0])

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            ConstantActivity(1.0).scaled(-1.0)

    def test_mixed_composite_window_mean(self):
        wave = PiecewiseActivity([0.0, 1.0, 2.0], [2.0, 0.0], period=2.0)
        combined = wave + ConstantActivity(1.0)
        np.testing.assert_allclose(combined.window_mean([0.0], [2.0]), [2.0])


def _unpruned_energy(composite, t0, t1):
    """Reference: every component's energy summed in order, none skipped."""
    t0 = np.atleast_1d(np.asarray(t0, dtype=np.float64))
    t1 = np.atleast_1d(np.asarray(t1, dtype=np.float64))
    total = np.zeros_like(t0)
    for component in composite.components:
        total = total + component.energy_between(t0, t1)
    return total


def _assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


def _random_finite(rng):
    """A finite profile, sometimes with 0 W ends or zero-length segments."""
    n = int(rng.integers(1, 6))
    durations = rng.uniform(0.05, 1.0, n)
    durations[rng.random(n) < 0.2] = 0.0
    durations[int(rng.integers(n))] = rng.uniform(0.05, 1.0)
    powers = rng.uniform(0.1, 3.0, n)
    powers[rng.random(n) < 0.3] = 0.0
    if rng.random() < 0.5:
        powers[0] = 0.0
    if rng.random() < 0.5:
        powers[-1] = 0.0
    start = rng.uniform(-5.0, 5.0)
    return PiecewiseActivity(
        start + np.concatenate(([0.0], np.cumsum(durations))), powers
    )


def _random_composite(rng):
    """Components of every kind, plus the finite profiles inside them."""
    components, finite = [], []
    for _ in range(int(rng.integers(1, 9))):
        kind = rng.choice(["finite", "finite", "periodic", "constant", "scaled"])
        if kind == "constant":
            components.append(ConstantActivity(rng.uniform(0.0, 2.0)))
            continue
        timeline = _random_finite(rng)
        finite.append(timeline)
        if kind == "periodic":
            timeline = PiecewiseActivity(
                timeline.edges,
                timeline.powers,
                period=timeline.span * rng.uniform(1.0, 1.5),
            )
        elif kind == "scaled":
            timeline = timeline.scaled(rng.uniform(0.0, 3.0))
        components.append(timeline)
    return CompositeActivity(components), finite


def _window_batches(rng, finite):
    """Batches wholly before, wholly after, straddling and on each edge."""
    for timeline in finite:
        begin, span = timeline.start, timeline.span
        for end in (begin + span, timeline.edges[-1]):
            ranges = (
                (begin - 3.0, begin),
                (end, end + 3.0),
                (begin - 1.0, end + 1.0),
                (begin, end),
            )
            for lo, hi in ranges:
                t0 = np.sort(rng.uniform(lo, hi, 16))
                t1 = np.minimum(t0 + rng.uniform(0.0, 1.0, 16), hi)
                t0[0], t1[-1] = lo, hi
                yield t0, t1


class TestSilentBetween:
    @pytest.fixture
    def burst(self):
        # 0 W, then 5 W over [2, 3), then 0 W; held 0 W on both sides.
        return PiecewiseActivity([1.0, 2.0, 3.0, 4.0], [0.0, 5.0, 0.0])

    def test_wholly_before_start(self, burst):
        assert burst.silent_between(-1.0, 1.0)
        assert not burst.silent_between(-1.0, np.nextafter(1.0, 2.0))

    def test_wholly_after_end(self, burst):
        assert burst.silent_between(4.0, 9.0)
        assert not burst.silent_between(np.nextafter(4.0, 0.0), 9.0)

    def test_straddling_is_not_silent(self, burst):
        assert not burst.silent_between(0.0, 5.0)

    def test_non_zero_held_ends_are_not_silent(self):
        steps = PiecewiseActivity([1.0, 2.0, 3.0], [1.0, 2.0])
        assert not steps.silent_between(-1.0, 0.0)
        assert not steps.silent_between(5.0, 6.0)

    def test_one_zero_end_only(self):
        ramp = PiecewiseActivity([1.0, 2.0, 3.0], [0.0, 2.0])
        assert ramp.silent_between(-1.0, 0.0)
        assert not ramp.silent_between(5.0, 6.0)

    def test_periodic_and_constant_are_never_silent(self):
        wave = PiecewiseActivity([1.0, 2.0, 3.0], [0.0, 0.0], period=2.0)
        assert not wave.silent_between(-5.0, -4.0)
        assert not ConstantActivity(0.0).silent_between(0.0, 1.0)

    def test_scaled_delegates_to_base(self, burst):
        assert burst.scaled(2.0).silent_between(4.0, 9.0)
        assert not burst.scaled(2.0).silent_between(0.0, 5.0)
        assert not burst.scaled(np.inf).silent_between(4.0, 9.0)

    def test_nan_bounds_are_never_silent(self, burst):
        # Each held side is judged by one bound: hi before, lo after.
        assert not burst.silent_between(-1.0, np.nan)
        assert not burst.silent_between(np.nan, 9.0)
        assert not burst.silent_between(np.nan, np.nan)


class TestPruningParity:
    """Skipping silent components never changes a bit of the sum."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_composites(self, seed):
        rng = np.random.default_rng(seed)
        composite, finite = _random_composite(rng)
        for t0, t1 in _window_batches(rng, finite):
            _assert_bit_equal(
                composite.energy_between(t0, t1),
                _unpruned_energy(composite, t0, t1),
            )

    def test_random_batches_do_skip(self):
        rng = np.random.default_rng(0)
        skipped = 0
        for _ in range(25):
            composite, finite = _random_composite(rng)
            for t0, t1 in _window_batches(rng, finite):
                lo = min(t0.min(), t1.min())
                hi = max(t0.max(), t1.max())
                skipped += sum(
                    c.silent_between(lo, hi) for c in composite.components
                )
        assert skipped > 100

    def test_all_silent_keeps_broadcast_shape(self):
        silent = CompositeActivity(
            [PiecewiseActivity([5.0, 6.0], [0.0])] * 2
        )
        got = silent.energy_between([0.0], [1.0, 2.0, 3.0])
        _assert_bit_equal(
            got, _unpruned_energy(silent, [0.0], [1.0, 2.0, 3.0])
        )

    def test_reversed_windows(self):
        # t0 > t1 integrates backwards; both ends bound the batch.
        burst = PiecewiseActivity([1.0, 2.0, 3.0, 4.0], [0.0, 5.0, 0.0])
        composite = burst + ConstantActivity(1.0)
        for t0, t1 in (([2.5], [0.5]), ([4.5], [2.5])):
            got = composite.energy_between(t0, t1)
            _assert_bit_equal(got, _unpruned_energy(composite, t0, t1))

    def test_empty_batch(self):
        composite = PiecewiseActivity([5.0, 6.0], [0.0]) + ConstantActivity(1.0)
        assert composite.energy_between([], []).shape == (0,)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "t0, t1", [([-np.inf], [1.0]), ([10.0], [np.inf]), ([np.nan], [1.0])]
    )
    def test_non_finite_bounds_skip_nothing(self, t0, t1):
        composite = CompositeActivity(
            [ConstantActivity(0.5), PiecewiseActivity([5.0, 6.0], [0.0])]
        )
        _assert_bit_equal(
            composite.energy_between(t0, t1),
            _unpruned_energy(composite, t0, t1),
        )


class TestStaggeredVictimRails:
    """Monitor-shaped board: 60 back-to-back DPU victims on every rail."""

    @pytest.mark.parametrize("domain", ["fpga", "fpd", "lpd", "ddr"])
    def test_window_state_matches_unpruned(
        self, staggered_soc, domain, monkeypatch
    ):
        rail = staggered_soc.rail(domain)
        device = staggered_soc.device(domain)
        period = device.update_period
        rng = np.random.default_rng(1)
        batches = []
        # 0.5 s chunks: the first, one straddling the 100 s hand-over, the last.
        for chunk_start in (0.0, 99.75, 599.5):
            latches = np.arange(
                np.floor((chunk_start - device.phase) / period),
                np.ceil((chunk_start + 0.5 - device.phase) / period) + 1,
            )
            t1 = device.phase + latches * period
            batches.append((t1 - period, t1))
        # One coarse batch spanning the whole session and beyond.
        edges = np.linspace(-1.0, 610.0, 200)
        batches.append((edges[:-1], edges[1:]))
        pruned = []
        for t0, t1 in batches:
            noise = rng.standard_normal((2, t0.size)) * 1e-3
            pruned.append(rail.window_state(t0, t1, noise[0], noise[1] * 1e-3))
        monkeypatch.setattr(
            PiecewiseActivity, "silent_between", lambda self, lo, hi: False
        )
        rng = np.random.default_rng(1)
        for (t0, t1), got in zip(batches, pruned):
            noise = rng.standard_normal((2, t0.size)) * 1e-3
            want = rail.window_state(t0, t1, noise[0], noise[1] * 1e-3)
            for got_part, want_part in zip(got, want):
                _assert_bit_equal(got_part, want_part)
