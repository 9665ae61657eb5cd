"""Property-based tests for activity timelines (hypothesis).

Invariants under test:
* energy is additive over adjacent windows;
* window means are bounded by the segment power range;
* periodic profiles accumulate exactly cycle_energy per period;
* composition and scaling are linear in energy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.workload import (
    CompositeActivity,
    ConstantActivity,
    PiecewiseActivity,
)

segments = st.lists(
    st.tuples(
        st.floats(min_value=1e-4, max_value=2.0),
        st.floats(min_value=0.0, max_value=10.0),
    ),
    min_size=1,
    max_size=12,
)

windows = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=1e-3, max_value=5.0),
)


@st.composite
def piecewise(draw, periodic=False):
    segs = draw(segments)
    span = sum(d for d, _ in segs)
    period = None
    if periodic:
        period = span * draw(st.floats(min_value=1.0, max_value=1.5))
    return PiecewiseActivity.from_segments(segs, period=period)


class TestEnergyAdditivity:
    @given(piecewise(), windows, st.floats(min_value=1e-3, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_adjacent_windows_sum(self, timeline, window, extra):
        t0, width = window
        t1 = t0 + width
        t2 = t1 + extra
        left = timeline.energy_between(np.array([t0]), np.array([t1]))[0]
        right = timeline.energy_between(np.array([t1]), np.array([t2]))[0]
        total = timeline.energy_between(np.array([t0]), np.array([t2]))[0]
        assert np.isclose(left + right, total, rtol=1e-9, atol=1e-12)

    @given(piecewise(periodic=True), windows)
    @settings(max_examples=60, deadline=None)
    def test_periodic_additivity(self, timeline, window):
        t0, width = window
        t1 = t0 + width
        mid = (t0 + t1) / 2
        left = timeline.energy_between(np.array([t0]), np.array([mid]))[0]
        right = timeline.energy_between(np.array([mid]), np.array([t1]))[0]
        total = timeline.energy_between(np.array([t0]), np.array([t1]))[0]
        assert np.isclose(left + right, total, rtol=1e-9, atol=1e-12)


class TestWindowMeanBounds:
    @given(piecewise(), windows)
    @settings(max_examples=60, deadline=None)
    def test_mean_within_power_range(self, timeline, window):
        t0, width = window
        mean = timeline.window_mean(np.array([t0]), np.array([t0 + width]))[0]
        low = timeline.powers.min()
        high = timeline.powers.max()
        assert low - 1e-9 <= mean <= high + 1e-9

    @given(piecewise(periodic=True), windows)
    @settings(max_examples=60, deadline=None)
    def test_periodic_mean_bounds(self, timeline, window):
        t0, width = window
        mean = timeline.window_mean(np.array([t0]), np.array([t0 + width]))[0]
        # The idle gap (zero power) extends the lower bound to 0.
        assert -1e-9 <= mean <= timeline.powers.max() + 1e-9


class TestPeriodicity:
    @given(piecewise(periodic=True), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_whole_periods_accumulate_cycle_energy(self, timeline, cycles):
        period = timeline.period
        energy = timeline.energy_between(
            np.array([0.0]), np.array([cycles * period])
        )[0]
        one = timeline.energy_between(np.array([0.0]), np.array([period]))[0]
        assert np.isclose(energy, cycles * one, rtol=1e-9, atol=1e-12)

    @given(piecewise(periodic=True), windows)
    @settings(max_examples=60, deadline=None)
    def test_energy_is_periodic(self, timeline, window):
        # Point samples sit exactly on segment edges for some folds, so
        # the robust statement of periodicity is over window energies.
        t0, width = window
        period = timeline.period
        a = timeline.energy_between(np.array([t0]), np.array([t0 + width]))[0]
        b = timeline.energy_between(
            np.array([t0 + 3 * period]), np.array([t0 + width + 3 * period])
        )[0]
        assert np.isclose(a, b, rtol=1e-6, atol=1e-9)


class TestLinearity:
    @given(piecewise(), windows, st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling_scales_energy(self, timeline, window, factor):
        t0, width = window
        t1 = t0 + width
        base = timeline.energy_between(np.array([t0]), np.array([t1]))[0]
        scaled = PiecewiseActivity(
            timeline.edges, timeline.powers * factor, period=timeline.period
        ).energy_between(np.array([t0]), np.array([t1]))[0]
        assert np.isclose(scaled, factor * base, rtol=1e-9, atol=1e-12)

    @given(piecewise(), piecewise(periodic=True), windows)
    @settings(max_examples=60, deadline=None)
    def test_composition_adds_energy(self, a, b, window):
        t0, width = window
        t1 = t0 + width
        combined = CompositeActivity([a, b])
        ea = a.energy_between(np.array([t0]), np.array([t1]))[0]
        eb = b.energy_between(np.array([t0]), np.array([t1]))[0]
        ec = combined.energy_between(np.array([t0]), np.array([t1]))[0]
        assert np.isclose(ec, ea + eb, rtol=1e-9, atol=1e-12)

    @given(st.floats(min_value=0.0, max_value=100.0), windows)
    @settings(max_examples=40, deadline=None)
    def test_constant_energy_exact(self, power, window):
        t0, width = window
        energy = ConstantActivity(power).energy_between(
            np.array([t0]), np.array([t0 + width])
        )[0]
        assert np.isclose(energy, power * width, rtol=1e-12, atol=1e-15)
