"""Tests for Trace / TraceSet and feature extraction."""

import numpy as np
import pytest
from reference_kernels import truncated_trace

from repro.core.features import resample_values
from repro.core.traces import Trace, TraceSet
from repro.ml.linear import LogisticRegressionClassifier


def make_trace(n=10, label="m", domain="fpga", quantity="current", start=0.0):
    times = start + np.arange(n) * 0.0352
    values = np.arange(n) + 100
    return Trace(times=times, values=values, domain=domain,
                 quantity=quantity, label=label)


class TestTrace:
    def test_basic_properties(self):
        trace = make_trace(n=5)
        assert trace.n_samples == 5
        assert trace.duration == pytest.approx(4 * 0.0352)

    def test_validation(self):
        with pytest.raises(ValueError):
            Trace(times=np.array([0.0, 1.0]), values=np.array([1]),
                  domain="fpga", quantity="current")
        with pytest.raises(ValueError):
            Trace(times=np.array([1.0, 0.0]), values=np.array([1, 2]),
                  domain="fpga", quantity="current")
        with pytest.raises(ValueError):
            Trace(times=np.array([]), values=np.array([]),
                  domain="fpga", quantity="current")

    def test_truncated(self):
        trace = make_trace(n=100)
        short = truncated_trace(trace, 1.0)
        assert short.duration <= 1.0 + 1e-9
        assert short.n_samples < trace.n_samples
        assert short.label == trace.label

    def test_truncated_keeps_at_least_one(self):
        trace = make_trace(n=5)
        assert trace.truncation_mask(1e-9).sum() == 1

    def test_truncated_invalid(self):
        with pytest.raises(ValueError):
            make_trace().truncation_mask(0.0)

    def test_repr(self):
        assert "fpga/current" in repr(make_trace())


class TestTraceSet:
    def test_add_and_len(self):
        ts = TraceSet()
        ts.add(make_trace())
        assert len(ts) == 1

    def test_add_rejects_non_trace(self):
        with pytest.raises(TypeError):
            TraceSet().add("not a trace")

    def test_labels(self):
        ts = TraceSet([make_trace(label="a"), make_trace(label="b")])
        assert ts.labels == ["a", "b"]

    def test_filter(self):
        ts = TraceSet([
            make_trace(domain="fpga", quantity="current"),
            make_trace(domain="ddr", quantity="current"),
            make_trace(domain="fpga", quantity="power"),
        ])
        assert len(ts.filter(domain="fpga")) == 2
        assert len(ts.filter(quantity="current")) == 2
        assert len(ts.filter(domain="fpga", quantity="power")) == 1

    def test_truncated(self):
        # to_matrix(duration=...) equals the matrix of the truncated
        # traces, bit for bit.
        ts = TraceSet([make_trace(n=100, label="a"),
                       make_trace(n=70, label="b", start=2.0)])
        for duration in (1e-9, 0.5, 1.0, 10.0):
            X, y = ts.to_matrix(16, duration=duration)
            short = TraceSet([truncated_trace(t, duration) for t in ts])
            X_ref, y_ref = short.to_matrix(16)
            assert np.array_equal(X, X_ref)
            assert list(y) == list(y_ref)

    def test_to_matrix(self):
        ts = TraceSet([make_trace(n=50, label="a"), make_trace(n=60, label="b")])
        X, y = ts.to_matrix(32)
        assert X.shape == (2, 32)
        assert list(y) == ["a", "b"]

    def test_to_matrix_rejects_unlabeled(self):
        ts = TraceSet([make_trace(label=None)])
        with pytest.raises(ValueError, match="labeled"):
            ts.to_matrix(8)

    def test_to_matrix_empty_rejected(self):
        with pytest.raises(ValueError):
            TraceSet().to_matrix(8)

    def test_summary(self):
        ts = TraceSet([make_trace(label="a"), make_trace(label="a"),
                       make_trace(label=None)])
        assert ts.summary() == {"a": 2, "<unlabeled>": 1}


class TestFeatures:
    def test_resample_identity_length(self):
        values = np.arange(10.0)
        np.testing.assert_allclose(resample_values(values, 10), values)

    def test_resample_upsample_endpoints(self):
        out = resample_values(np.array([0.0, 1.0]), 5)
        assert out[0] == 0.0
        assert out[-1] == 1.0
        assert out.size == 5

    def test_resample_downsample(self):
        out = resample_values(np.arange(100.0), 10)
        assert out.size == 10
        assert out[0] == 0.0
        assert out[-1] == 99.0

    def test_resample_single_value(self):
        np.testing.assert_allclose(resample_values(np.array([7.0]), 4), 7.0)

    def test_resample_invalid(self):
        with pytest.raises(ValueError):
            resample_values(np.array([]), 4)

    def test_standardize(self):
        # The linear classifier z-scores features with training
        # statistics; a constant column passes through as zeros.
        matrix = np.array([[1.0, 10.0], [3.0, 10.0]])
        classifier = LogisticRegressionClassifier(n_iterations=1)
        out = classifier.fit(matrix, np.array(["a", "b"]))._prepare(matrix)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out[:, 0], [-1.0, 1.0])
        np.testing.assert_allclose(out[:, 1], 0.0)

    def test_standardize_needs_2d(self):
        with pytest.raises(ValueError):
            LogisticRegressionClassifier().fit(np.arange(4.0), np.arange(4))
