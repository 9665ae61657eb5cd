"""Tests for trace persistence."""

import zlib

import numpy as np
import pytest

from repro.core.io import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    ArchiveError,
    TraceArchiveReader,
    TraceArchiveWriter,
)
from repro.core.traces import Trace, TraceSet


def make_traceset(n_traces=3):
    traceset = TraceSet()
    for index in range(n_traces):
        times = index * 10.0 + np.arange(20) * 0.0352
        values = np.arange(20) + 100 * index
        traceset.add(
            Trace(times=times, values=values, domain="fpga",
                  quantity="current", label=f"model-{index}")
        )
    return traceset


def save(traceset, path):
    """Write a trace set as one sealed archive; returns its directory."""
    with TraceArchiveWriter(path) as writer:
        for trace in traceset:
            writer.append(trace)
    return path


def load(path):
    return TraceArchiveReader(path).load_traceset()


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        original = make_traceset()
        loaded = load(save(original, tmp_path / "traces"))
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_array_equal(a.values, b.values)
            assert a.domain == b.domain
            assert a.quantity == b.quantity
            assert a.label == b.label

    def test_unlabeled_traces_survive(self, tmp_path):
        traceset = TraceSet()
        traceset.add(
            Trace(times=np.array([0.0]), values=np.array([5]),
                  domain="ddr", quantity="power", label=None)
        )
        loaded = load(save(traceset, tmp_path / "t"))
        assert loaded.traces[0].label is None

    def test_creates_parent_dirs(self, tmp_path):
        path = save(make_traceset(1), tmp_path / "a" / "b" / "t")
        assert (path / MANIFEST_NAME).exists()

    def test_loaded_matrix_matches(self, tmp_path):
        original = make_traceset()
        loaded = load(save(original, tmp_path / "t"))
        Xa, ya = original.to_matrix(16)
        Xb, yb = loaded.to_matrix(16)
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)


def _make_small():
    return Trace(times=np.array([0.5, 0.6]), values=np.array([3, 4]),
                 domain="fpga", quantity="current")


class TestChunkBytes:
    """A chunk is its raw ``<f8`` times, then its raw values, in place.

    A :class:`Trace` needs at least one sample, so the one-sample chunk
    is the smallest a writer can be handed.
    """

    @pytest.mark.parametrize(
        "n_samples", [14, 1, 6000], ids=["poll", "smallest", "over-64k"]
    )
    def test_chunk_is_raw_times_then_values(self, tmp_path, n_samples):
        times = np.arange(n_samples) * 0.0352 + 1.5
        values = (np.arange(n_samples, dtype=np.int64) * 7919) % 4001 - 2000
        trace = Trace(times=times, values=values, domain="fpga",
                      quantity="current", label="resnet-50")
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_make_small())
            file_name = writer.append(trace)
        entry = TraceArchiveReader(tmp_path / "arch").entries[1]
        expected = (
            times.astype("<f8").tobytes() + values.astype("<i8").tobytes()
        )
        written = (tmp_path / "arch" / file_name).read_bytes()
        assert entry["file"] == file_name
        assert entry["offset"] == _make_small().times.nbytes * 2
        assert entry["dtype"] == "<i8"
        assert entry["crc32"] == zlib.crc32(expected)
        assert written[entry["offset"]:] == expected
        if n_samples == 6000:
            assert len(expected) > 64 * 1024


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ArchiveError, match="no trace archive manifest"):
            load(tmp_path / "missing")

    def test_not_an_archive(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"kind": "something-else"}\n')
        with pytest.raises(ValueError, match="not an AmpereBleed trace archive"):
            load(tmp_path)

    def test_format_version_pinned(self):
        # v3 is the streaming directory format (manifest plus segments).
        assert FORMAT_VERSION == 3
