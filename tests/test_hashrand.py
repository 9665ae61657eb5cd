"""Tests for counter-based hash randomness."""

import warnings

import numpy as np
import pytest
from reference_kernels import (
    legacy_hashed_normal,
    legacy_hashed_uniform,
    legacy_splitmix64,
)

from repro.utils.hashrand import (
    _splitmix64_int,
    hashed_normal,
    hashed_normals,
    hashed_uniform,
)

#: Sizes around the kernel's 4 096-element block and the ~9 400
#: latches of one Fig 2 level.
SIZES = (0, 1, 7, 8, 9, 140, 4095, 4096, 4097, 9366, 20000)
KEYS = (0, 2**63 - 1, -987654321)
#: The hwmon conversion's normal streams, in the order it draws them.
HWMON_STREAMS = (3, 4, 1, 2)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _counters(size, seed=0):
    """Counters spanning the whole uint64 range, extremes included."""
    rng = np.random.default_rng(seed)
    counters = rng.integers(
        0, np.iinfo(np.uint64).max, size, dtype=np.uint64, endpoint=True
    )
    counters[: min(size, 2)] = [0, np.iinfo(np.uint64).max][: min(size, 2)]
    return counters


class TestSplitmix:
    """The splitmix64 that seeds every noise stream."""

    def test_deterministic(self):
        x = range(10)
        assert [_splitmix64_int(v) for v in x] == [_splitmix64_int(v) for v in x]

    def test_distinct_inputs_distinct_outputs(self):
        assert len({_splitmix64_int(v) for v in range(1000)}) == 1000

    def test_avalanche(self):
        # Flipping one input bit should flip roughly half the output bits.
        flipped = bin(_splitmix64_int(0) ^ _splitmix64_int(1)).count("1")
        assert 16 <= flipped <= 48


class TestHashedUniform:
    def test_range(self):
        u = hashed_uniform(123, np.arange(10_000))
        assert np.all(u >= 0.0)
        assert np.all(u < 1.0)

    def test_pure_function(self):
        counters = np.arange(100)
        np.testing.assert_array_equal(
            hashed_uniform(5, counters, stream=2),
            hashed_uniform(5, counters, stream=2),
        )

    def test_key_sensitivity(self):
        counters = np.arange(100)
        a = hashed_uniform(1, counters)
        b = hashed_uniform(2, counters)
        assert not np.array_equal(a, b)

    def test_stream_sensitivity(self):
        counters = np.arange(100)
        a = hashed_uniform(1, counters, stream=0)
        b = hashed_uniform(1, counters, stream=1)
        assert not np.array_equal(a, b)

    def test_mean_and_variance(self):
        u = hashed_uniform(42, np.arange(200_000))
        assert u.mean() == pytest.approx(0.5, abs=0.01)
        assert u.var() == pytest.approx(1 / 12, rel=0.05)


class TestHashedNormal:
    def test_moments(self):
        z = hashed_normal(7, np.arange(200_000))
        assert z.mean() == pytest.approx(0.0, abs=0.02)
        assert z.std() == pytest.approx(1.0, rel=0.02)

    def test_pure_function(self):
        counters = np.arange(50)
        np.testing.assert_array_equal(
            hashed_normal(9, counters, stream=3),
            hashed_normal(9, counters, stream=3),
        )

    def test_streams_are_independent(self):
        counters = np.arange(100_000)
        a = hashed_normal(9, counters, stream=0)
        b = hashed_normal(9, counters, stream=1)
        correlation = np.corrcoef(a, b)[0, 1]
        assert abs(correlation) < 0.02

    def test_no_nan_or_inf(self):
        z = hashed_normal(0, np.arange(100_000))
        assert np.all(np.isfinite(z))

    def test_negative_counter_values_via_uint_cast(self):
        # Latch indices can be negative before a device's first full
        # period; the uint64 cast must still yield valid draws.
        counters = np.array([-3, -2, -1], dtype=np.int64).astype(np.uint64)
        z = hashed_normal(1, counters)
        assert np.all(np.isfinite(z))


class TestFusedKernelParity:
    """The fused kernel equals the frozen one-stream kernels bit for bit."""

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("size", SIZES)
    def test_rows_match_oracle(self, size, key):
        counters = _counters(size, seed=size)
        rows = hashed_normals(key, counters, HWMON_STREAMS)
        assert rows.shape == (len(HWMON_STREAMS), size)
        for row, stream in zip(rows, HWMON_STREAMS):
            np.testing.assert_array_equal(
                _bits(row), _bits(legacy_hashed_normal(key, counters, stream))
            )
        np.testing.assert_array_equal(
            _bits(hashed_normal(key, counters, 4)),
            _bits(legacy_hashed_normal(key, counters, 4)),
        )
        for stream in (0, 17):
            np.testing.assert_array_equal(
                _bits(hashed_uniform(key, counters, stream)),
                _bits(legacy_hashed_uniform(key, counters, stream)),
            )

    def test_negative_int64_counters(self):
        counters = np.arange(-5000, 5000, dtype=np.int64).astype(np.uint64)
        rows = hashed_normals(11, counters, HWMON_STREAMS)
        for row, stream in zip(rows, HWMON_STREAMS):
            np.testing.assert_array_equal(
                _bits(row), _bits(legacy_hashed_normal(11, counters, stream))
            )

    @pytest.mark.parametrize(
        "counters",
        [
            np.arange(12_000, dtype=np.uint64).reshape(100, 120),
            np.arange(30_000, dtype=np.uint64)[::3],
            np.arange(20_000, dtype=np.uint64).reshape(100, 200)[:, ::7].T,
        ],
        ids=["2d", "strided", "strided-2d"],
    )
    def test_shaped_counters(self, counters):
        rows = hashed_normals(3, counters, HWMON_STREAMS)
        assert rows.shape == (len(HWMON_STREAMS),) + counters.shape
        for row, stream in zip(rows, HWMON_STREAMS):
            np.testing.assert_array_equal(
                _bits(row), _bits(legacy_hashed_normal(3, counters, stream))
            )
        np.testing.assert_array_equal(
            _bits(hashed_uniform(3, counters, 5)),
            _bits(legacy_hashed_uniform(3, counters, 5)),
        )

    def test_golden_values(self):
        # Pins the oracle itself: these are the kernel's historic bits.
        assert int(legacy_splitmix64(np.uint64(0))) == 0xE220A8397B1DCDAF
        cases = [
            (legacy_hashed_uniform, 0, 0, 0, 0x3FC1C13ADE1C7E5C),
            (legacy_hashed_normal, 2**63 - 1, 2**64 - 1, 4, 0xBFD3FB9A18D3C19F),
            (legacy_hashed_normal, -12345, 2**64 - 7, 1, 0xBFD623D4DBF018C5),
        ]
        for kernel, key, counter, stream, expected in cases:
            counters = np.array([counter], dtype=np.uint64)
            assert int(_bits(kernel(key, counters, stream))[0]) == expected
            new = hashed_uniform if kernel is legacy_hashed_uniform else (
                hashed_normal
            )
            assert int(_bits(new(key, counters, stream))[0]) == expected

    def test_zero_d_counter_is_silent_and_keeps_shape(self):
        counter = np.uint64(2**64 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uniform = hashed_uniform(5, counter, 2)
            normal = hashed_normal(5, counter, 1)
            rows = hashed_normals(5, counter, HWMON_STREAMS)
        assert np.shape(uniform) == ()
        assert np.shape(normal) == ()
        assert rows.shape == (len(HWMON_STREAMS),)
        assert _bits(uniform) == _bits(legacy_hashed_uniform(5, counter, 2))
        assert _bits(normal) == _bits(legacy_hashed_normal(5, counter, 1))

    def test_empty_stream_list(self):
        assert hashed_normals(1, np.arange(5), ()).shape == (0, 5)
