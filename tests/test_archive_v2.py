"""The v3 streaming archive, its checked-in fixture and failure modes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.io import (
    MANIFEST_NAME,
    SEGMENT_BYTES,
    ArchiveError,
    TraceArchiveReader,
    TraceArchiveWriter,
    is_archive_dir,
)
from repro.core.traces import Trace, TraceSet

FIXTURE = Path(__file__).parent / "data" / "traceset"
REPO = Path(__file__).resolve().parent.parent


def _make_trace(n=30, offset=0, domain="fpga", quantity="current",
                label=None):
    times = 1.0 + offset + np.arange(n) * 0.0352
    values = (700 + offset + np.arange(n) % 5).astype(np.int64)
    return Trace(times=times, values=values, domain=domain,
                 quantity=quantity, label=label)


class TestWriterReader:
    def test_round_trip(self, tmp_path):
        traces = [
            _make_trace(label="resnet-50"),
            _make_trace(offset=3, quantity="voltage"),
        ]
        with TraceArchiveWriter(
            tmp_path / "arch", meta={"experiment": "test"}
        ) as writer:
            for trace in traces:
                writer.append(trace)
        reader = TraceArchiveReader(tmp_path / "arch")
        assert reader.meta == {"experiment": "test"}
        assert reader.complete
        loaded = list(reader.load_traceset())
        assert len(loaded) == 2
        for original, restored in zip(traces, loaded):
            assert (restored.times == original.times).all()
            assert (restored.values == original.values).all()
            assert restored.values.dtype == original.values.dtype
            assert restored.label == original.label
            assert restored.quantity == original.quantity

    def test_multipart_reassembly(self, tmp_path):
        whole = _make_trace(n=90, label="long-capture")
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            for part, start in enumerate(range(0, 90, 25)):
                chunk = Trace(
                    times=whole.times[start:start + 25],
                    values=whole.values[start:start + 25],
                    domain=whole.domain,
                    quantity=whole.quantity,
                    label=whole.label,
                )
                writer.append(chunk, trace_id="cap", part=part)
        loaded = list(TraceArchiveReader(tmp_path / "arch").load_traceset())
        assert len(loaded) == 1
        assert (loaded[0].times == whole.times).all()
        assert (loaded[0].values == whole.values).all()

    def test_iter_chunks_streams_in_order(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            for offset in range(4):
                writer.append(_make_trace(offset=offset))
        chunks = list(TraceArchiveReader(tmp_path / "arch").iter_chunks())
        assert [int(chunk.values[0]) for chunk in chunks] == [
            700, 701, 702, 703
        ]

    def test_load_datasets_keys_by_channel(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_make_trace(domain="fpga", quantity="current"))
            writer.append(_make_trace(domain="fpga", quantity="voltage"))
            writer.append(_make_trace(domain="ddr", quantity="current"))
        datasets = TraceArchiveReader(tmp_path / "arch").load_datasets()
        assert set(datasets) == {
            ("fpga", "current"), ("fpga", "voltage"), ("ddr", "current")
        }

    def test_update_meta_rides_the_footer(self, tmp_path):
        with TraceArchiveWriter(
            tmp_path / "arch", meta={"experiment": "covert"}
        ) as writer:
            writer.append(_make_trace())
            writer.update_meta(received=[1, 0, 1])
        meta = TraceArchiveReader(tmp_path / "arch").meta
        assert meta["experiment"] == "covert"
        assert meta["received"] == [1, 0, 1]

    def test_refuses_existing_manifest(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_make_trace())
        with pytest.raises(ArchiveError, match="already has a manifest"):
            TraceArchiveWriter(tmp_path / "arch")

    def test_append_after_close_fails(self, tmp_path):
        writer = TraceArchiveWriter(tmp_path / "arch")
        writer.close()
        with pytest.raises(ArchiveError, match="closed"):
            writer.append(_make_trace())

    def test_load_traceset_dispatches_to_v2(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_make_trace())
        assert is_archive_dir(tmp_path / "arch")
        assert len(TraceArchiveReader(tmp_path / "arch").load_traceset()) == 1


class TestTruncationAndCorruption:
    def test_unsealed_archive_is_truncated(self, tmp_path):
        writer = TraceArchiveWriter(tmp_path / "arch")
        writer.append(_make_trace())
        writer._manifest.close()  # crash: no footer ever written
        with pytest.raises(ArchiveError, match="truncated"):
            TraceArchiveReader(tmp_path / "arch")
        # Tailing a live capture is still possible.
        partial = TraceArchiveReader(tmp_path / "arch", allow_partial=True)
        assert not partial.complete
        assert len(partial) == 1

    def test_exception_leaves_archive_unsealed(self, tmp_path):
        with pytest.raises(RuntimeError):
            with TraceArchiveWriter(tmp_path / "arch") as writer:
                writer.append(_make_trace())
                raise RuntimeError("capture died")
        with pytest.raises(ArchiveError, match="truncated"):
            TraceArchiveReader(tmp_path / "arch")

    def test_missing_chunk_file(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_make_trace())
        (tmp_path / "arch" / "segment_000000.bin").unlink()
        for mmap in (False, True):
            reader = TraceArchiveReader(tmp_path / "arch", mmap=mmap)
            with pytest.raises(ArchiveError, match="missing"):
                reader.load_traceset()

    def test_corrupted_chunk_file(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_make_trace())
            writer.append(_make_trace(offset=1))
        segment = tmp_path / "arch" / "segment_000000.bin"
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0x01  # one bit of the second chunk's last value
        segment.write_bytes(bytes(data))
        reader = TraceArchiveReader(tmp_path / "arch")
        assert int(next(reader.iter_chunks()).values[0]) == 700
        with pytest.raises(ArchiveError, match="corrupted chunk 1"):
            reader.load_traceset()

    def test_truncated_segment(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_make_trace())
        segment = tmp_path / "arch" / "segment_000000.bin"
        for size in (len(segment.read_bytes()) - 1, 0):
            os.truncate(segment, size)
            for mmap in (False, True):
                reader = TraceArchiveReader(tmp_path / "arch", mmap=mmap)
                with pytest.raises(ArchiveError, match="truncated"):
                    reader.load_traceset()

    def test_corrupted_manifest_line(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_make_trace())
        manifest = tmp_path / "arch" / MANIFEST_NAME
        manifest.write_text(
            manifest.read_text().replace('"chunk": 0', '"chunk": ', 1)
        )
        with pytest.raises(ArchiveError, match="corrupted manifest"):
            TraceArchiveReader(tmp_path / "arch")

    def test_wrong_kind_rejected(self, tmp_path):
        (tmp_path / "arch").mkdir()
        (tmp_path / "arch" / MANIFEST_NAME).write_text(
            json.dumps({"kind": "something-else", "version": 2}) + "\n"
        )
        with pytest.raises(ArchiveError, match="not an AmpereBleed"):
            TraceArchiveReader(tmp_path / "arch")

    def test_footer_chunk_count_mismatch(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_make_trace())
            writer.append(_make_trace(offset=1))
        manifest = tmp_path / "arch" / MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        del lines[2]  # drop a chunk record but keep the footer
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArchiveError, match="footer claims"):
            TraceArchiveReader(tmp_path / "arch")

    def test_errors_are_value_errors(self, tmp_path):
        # Callers catching ValueError keep working.
        assert issubclass(ArchiveError, ValueError)
        with pytest.raises(ValueError):
            TraceArchiveReader(tmp_path / "nonexistent")


def _samples(n_bytes):
    """A chunk of exactly ``n_bytes`` (16 bytes a sample: f8 + i8)."""
    assert n_bytes % 16 == 0
    return _make_trace(n=n_bytes // 16)


class TestSegments:
    """Chunks append into segments that roll at ``SEGMENT_BYTES``."""

    def _layout(self, path):
        return [
            (entry["file"], entry["offset"])
            for entry in TraceArchiveReader(path).entries
        ]

    def test_segment_fills_to_exactly_one_mib(self, tmp_path):
        assert SEGMENT_BYTES == 1 << 20
        half = SEGMENT_BYTES // 2
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_samples(half))
            writer.append(_samples(half))  # lands exactly on the bound
            writer.append(_samples(16))  # one sample more rolls
        assert self._layout(tmp_path / "arch") == [
            ("segment_000000.bin", 0),
            ("segment_000000.bin", half),
            ("segment_000001.bin", 0),
        ]
        assert (
            tmp_path / "arch" / "segment_000000.bin"
        ).stat().st_size == SEGMENT_BYTES

    def test_one_byte_past_the_bound_rolls(self, tmp_path):
        half = SEGMENT_BYTES // 2
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_samples(half))
            writer.append(_samples(half + 16))
        assert self._layout(tmp_path / "arch") == [
            ("segment_000000.bin", 0),
            ("segment_000001.bin", 0),
        ]

    def test_chunk_larger_than_a_segment_gets_its_own(self, tmp_path):
        big = SEGMENT_BYTES + 4096
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_samples(big))  # empty segment: no roll
            writer.append(_samples(64))
            writer.append(_samples(big))
            writer.append(_samples(64))
        assert self._layout(tmp_path / "arch") == [
            ("segment_000000.bin", 0),
            ("segment_000001.bin", 0),
            ("segment_000002.bin", 0),
            ("segment_000003.bin", 0),
        ]
        sizes = [
            (tmp_path / "arch" / f"segment_00000{index}.bin").stat().st_size
            for index in range(4)
        ]
        assert sizes == [big, 64, big, 64]
        loaded = list(TraceArchiveReader(tmp_path / "arch").load_traceset())
        assert [trace.values.nbytes * 2 for trace in loaded] == [
            big, 64, big, 64
        ]

    def test_mmap_maps_each_segment_once_read_only(self, tmp_path):
        half = SEGMENT_BYTES // 2
        traces = [_samples(half), _samples(4096), _samples(half)]
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            for trace in traces:
                writer.append(trace)
        reader = TraceArchiveReader(tmp_path / "arch", mmap=True)
        loaded = list(reader.load_traceset())

        def mapping(array):
            while isinstance(array.base, np.ndarray):
                array = array.base
            return array.base

        roots = [
            mapping(array)
            for trace in loaded
            for array in (trace.times, trace.values)
        ]
        # Chunks 0 and 1 share segment 0; chunk 2 rolled to segment 1.
        assert len({id(root) for root in roots}) == 2
        assert roots[0] is roots[3]
        assert roots[0] is not roots[4]
        for original, trace in zip(traces, loaded):
            assert not trace.values.flags.writeable
            assert not trace.times.flags.writeable
            with pytest.raises(ValueError):
                trace.values[0] = -1
            assert (trace.values == original.values).all()
            assert (trace.times == original.times).all()

    def test_copying_reads_are_writable(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            writer.append(_make_trace())
        trace = next(TraceArchiveReader(tmp_path / "arch").iter_chunks())
        trace.values[0] = -1
        assert trace.values.dtype == np.int64


#: Writes, aborts, resumes and seals an archive across segment rolls,
#: dropping every writer and reader before a full collection.
_HANDLES_SCRIPT = """
import gc, sys
import numpy as np
from repro.core.io import TraceArchiveReader, TraceArchiveWriter
from repro.core.traces import Trace

def chunk(n):
    return Trace(times=np.arange(n) * 0.5, values=np.arange(n),
                 domain="fpga", quantity="current")

def session(out):
    writer = TraceArchiveWriter(out)
    writer.append(chunk(40000))
    writer.checkpoint({"done": 1})
    writer.append(chunk(40000))  # rolls to a second segment
    writer.append(chunk(10))
    writer.abort()
    with TraceArchiveWriter(out, resume=True) as writer:
        assert len(writer.entries) == 1  # rolled back to the checkpoint
        writer.append(chunk(70000))
    for mmap in (False, True):
        TraceArchiveReader(out, mmap=mmap).load_traceset()

session(sys.argv[1])
gc.collect()
print("ok")
"""


class TestHandles:
    def test_no_resource_warnings(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        run = subprocess.run(
            [
                sys.executable, "-W", "error::ResourceWarning",
                "-c", _HANDLES_SCRIPT, str(tmp_path / "arch"),
            ],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert "ResourceWarning" not in run.stderr, run.stderr
        assert run.stdout.strip() == "ok"
        assert len(list((tmp_path / "arch").glob("segment_*.bin"))) == 2


class TestV1Compatibility:
    """Recordings made in the retired v1 ``.npz`` format survive."""

    def _fixture_content(self):
        ts = TraceSet()
        for i, (domain, quantity, label) in enumerate([
            ("fpga", "current", "resnet-50"),
            ("fpga", "voltage", None),
            ("ddr", "current", "hw-448"),
        ]):
            n = 40 + 7 * i
            times = (
                1.0 + np.arange(n) * 0.0352
                + 1e-5 * np.sin(np.arange(n) + i)
            )
            values = (
                700 + 13 * i + np.round(5 * np.cos(0.3 * np.arange(n) + i))
            ).astype(np.int64)
            ts.add(Trace(times=times, values=values, domain=domain,
                         quantity=quantity, label=label))
        return ts

    def test_checked_in_v1_fixture_loads_bit_exactly(self):
        # The fixture was written by the v1 ``.npz`` writer before the
        # v2 format existed, then converted to v3 bit for bit; the
        # reader must still reproduce it bit for bit.
        loaded = list(TraceArchiveReader(FIXTURE).load_traceset())
        expected = list(self._fixture_content())
        assert len(loaded) == len(expected)
        for restored, original in zip(loaded, expected):
            assert (restored.times == original.times).all()
            assert (restored.values == original.values).all()
            assert restored.values.dtype == original.values.dtype
            assert restored.label == original.label
            assert restored.domain == original.domain
            assert restored.quantity == original.quantity
