"""Checkpoint/resume: interrupted recordings finish byte-identically.

The contract: every recording loop (fingerprint dataset collection,
the RSA sweep, the end-to-end campaign) checkpoints its progress into
the v3 archive manifest, and a run killed at any point — torn manifest
tail, torn or corrupted segment tail, half-finished multi-chunk unit,
a crash across a segment roll — resumes
from its last checkpoint and seals an archive *byte-identical* to an
uninterrupted run's.  Corruption that cannot be safely rolled back
(mid-manifest damage, a sealed archive) is refused with a clear
:class:`~repro.core.io.ArchiveError`, never silently patched.
"""

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.fingerprint import DnnFingerprinter, FingerprintConfig
from repro.core.io import (
    MANIFEST_NAME,
    SEGMENT_BYTES,
    ArchiveError,
    TraceArchiveReader,
    TraceArchiveWriter,
)
from repro.core.rsa_attack import RsaHammingWeightAttack
from repro.core.traces import Trace
from repro.fleet import (
    STATUS_DONE,
    STATUS_QUARANTINED,
    FleetScheduler,
    build_fleet_jobs,
)
from repro.resilience.quarantine import QUARANTINE_DIRNAME, RECORD_NAME
from repro.session import AttackSession

pytestmark = pytest.mark.faults

MODELS = ["resnet-50", "vgg-16", "mobilenet-v2-1.0"]
CONFIG = dict(duration=1.0, traces_per_model=3, n_folds=2, forest_trees=5)
CHANNELS = [("fpga", "current"), ("ddr", "current")]


def tree_hash(root) -> str:
    """One digest over every file in an archive directory."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Bomb(Exception):
    """The injected mid-recording crash."""


def _explode_after(writer, n_appends):
    """Make the writer's append crash after ``n_appends`` successes."""
    real_append = writer.append
    state = {"left": n_appends}

    def append(*args, **kwargs):
        if state["left"] == 0:
            raise Bomb()
        state["left"] -= 1
        return real_append(*args, **kwargs)

    writer.append = append


def _fingerprinter():
    session = AttackSession.create(seed=5)
    return DnnFingerprinter(
        session=session, config=FingerprintConfig(**CONFIG)
    )


class TestFingerprintResume:
    def _record_uninterrupted(self, out):
        fingerprinter = _fingerprinter()
        with TraceArchiveWriter(out, meta={"experiment": "test"}) as writer:
            datasets = fingerprinter.collect_datasets(
                models=MODELS, channels=CHANNELS, sink=writer
            )
        return datasets

    def test_killed_run_resumes_byte_identical(self, tmp_path):
        clean, broken = tmp_path / "clean", tmp_path / "broken"
        reference = self._record_uninterrupted(clean)

        writer = TraceArchiveWriter(broken, meta={"experiment": "test"})
        _explode_after(writer, n_appends=5)
        with pytest.raises(Bomb):
            with writer:
                _fingerprinter().collect_datasets(
                    models=MODELS, channels=CHANNELS, sink=writer
                )

        resumed_writer = TraceArchiveWriter(
            broken, meta={"experiment": "test"}, resume=True
        )
        with resumed_writer:
            resumed = _fingerprinter().collect_datasets(
                models=MODELS,
                channels=CHANNELS,
                sink=resumed_writer,
            )

        assert tree_hash(clean) == tree_hash(broken)
        for channel in reference:
            for a, b in zip(reference[channel], resumed[channel]):
                np.testing.assert_array_equal(a.values, b.values)
                np.testing.assert_array_equal(a.times, b.times)

    def test_resumed_analysis_matches(self, tmp_path):
        clean, broken = tmp_path / "clean", tmp_path / "broken"
        reference = self._record_uninterrupted(clean)
        writer = TraceArchiveWriter(broken, meta={"experiment": "test"})
        _explode_after(writer, n_appends=3)
        with pytest.raises(Bomb):
            with writer:
                _fingerprinter().collect_datasets(
                    models=MODELS, channels=CHANNELS, sink=writer
                )
        resumed_writer = TraceArchiveWriter(
            broken, meta={"experiment": "test"}, resume=True
        )
        with resumed_writer:
            resumed = _fingerprinter().collect_datasets(
                models=MODELS,
                channels=CHANNELS,
                sink=resumed_writer,
            )
        fingerprinter = _fingerprinter()
        a = fingerprinter.evaluate_channel(reference[("fpga", "current")])
        b = fingerprinter.evaluate_channel(resumed[("fpga", "current")])
        assert a.top1 == b.top1
        assert a.top5 == b.top5


class TestRsaResume:
    WEIGHTS = (4, 8, 12)

    def _attack(self):
        return RsaHammingWeightAttack(
            session=AttackSession.create(seed=5)
        )

    def test_killed_sweep_resumes_byte_identical(self, tmp_path):
        clean, broken = tmp_path / "clean", tmp_path / "broken"
        attack = self._attack()
        with TraceArchiveWriter(
            clean, meta=attack.archive_meta(weights=self.WEIGHTS)
        ) as writer:
            reference = attack.collect_sweep(
                weights=self.WEIGHTS, n_samples=300, sink=writer
            )

        attack = self._attack()
        writer = TraceArchiveWriter(
            broken, meta=attack.archive_meta(weights=self.WEIGHTS)
        )
        _explode_after(writer, n_appends=1)
        with pytest.raises(Bomb):
            with writer:
                attack.collect_sweep(
                    weights=self.WEIGHTS, n_samples=300, sink=writer
                )

        attack = self._attack()
        writer = TraceArchiveWriter(
            broken,
            meta=attack.archive_meta(weights=self.WEIGHTS),
            resume=True,
        )
        with writer:
            resumed = attack.collect_sweep(
                weights=self.WEIGHTS,
                n_samples=300,
                sink=writer,
            )
        assert tree_hash(clean) == tree_hash(broken)
        for a, b in zip(reference, resumed):
            assert a.label == b.label
            np.testing.assert_array_equal(a.values, b.values)


class TestCampaignResume:
    def _campaign(self):
        from repro.core.campaign import AttackCampaign
        from repro.soc.workload import PiecewiseActivity

        session = AttackSession.create(seed=5)
        session.soc.attach_workload(
            "fpga",
            "victim",
            PiecewiseActivity([0.0, 2.0, 1e9], [0.0, 3.0]),
        )
        return AttackCampaign(session=session)

    def test_killed_campaign_resumes_byte_identical(self, tmp_path):
        clean, broken = tmp_path / "clean", tmp_path / "broken"
        kwargs = dict(
            victim_start=2.0,
            trace_duration=3.0,
            timeout=20.0,
            chunk_duration=1.0,
        )
        reference = self._campaign().run_archived(clean, **kwargs)

        campaign = self._campaign()
        writer_cls = TraceArchiveWriter

        original_append = writer_cls.append
        counter = {"left": 1}

        def bombed_append(self, *args, **kw):
            if counter["left"] == 0:
                raise Bomb()
            counter["left"] -= 1
            return original_append(self, *args, **kw)

        try:
            writer_cls.append = bombed_append
            with pytest.raises(Bomb):
                campaign.run_archived(broken, **kwargs)
        finally:
            writer_cls.append = original_append

        resumed = self._campaign().run_archived(
            broken, resume=True, **kwargs
        )
        assert tree_hash(clean) == tree_hash(broken)
        np.testing.assert_array_equal(reference.values, resumed.values)
        np.testing.assert_array_equal(reference.times, resumed.times)


class TestWriterOwnedResume:
    """A writer reopened with ``resume=True`` is all a recorder needs:
    passed as the sink with no other flag, the recording picks up at
    the writer's last checkpoint and seals byte-identical."""

    def test_sweep_resumes_from_a_reopened_sink(self, tmp_path):
        weights = (8, 16, 24)
        clean, broken = tmp_path / "clean", tmp_path / "broken"

        def attack():
            return RsaHammingWeightAttack(session=AttackSession.create(seed=5))

        meta = attack().archive_meta(weights=weights, n_samples=300)
        with TraceArchiveWriter(clean, meta=meta) as writer:
            attack().collect_sweep(weights=weights, n_samples=300, sink=writer)
        writer = TraceArchiveWriter(broken, meta=meta)
        _explode_after(writer, n_appends=1)  # killed after the first key
        with pytest.raises(Bomb):
            with writer:
                attack().collect_sweep(
                    weights=weights, n_samples=300, sink=writer
                )
        with TraceArchiveWriter(broken, meta=meta, resume=True) as writer:
            traces = attack().collect_sweep(
                weights=weights, n_samples=300, sink=writer
            )
        assert tree_hash(clean) == tree_hash(broken)
        assert [trace.label for trace in traces] == ["hw-8", "hw-16", "hw-24"]
        assert len(TraceArchiveReader(broken)) == 3

    def test_datasets_resume_from_a_reopened_sink(self, tmp_path):
        clean, broken = tmp_path / "clean", tmp_path / "broken"
        meta = _fingerprinter().archive_meta(MODELS, CHANNELS)
        with TraceArchiveWriter(clean, meta=meta) as writer:
            _fingerprinter().collect_datasets(
                models=MODELS, channels=CHANNELS, sink=writer
            )
        writer = TraceArchiveWriter(broken, meta=meta)
        # Run 1 persists one of its two channels, then the kill hits.
        _explode_after(writer, n_appends=3)
        with pytest.raises(Bomb):
            with writer:
                _fingerprinter().collect_datasets(
                    models=MODELS, channels=CHANNELS, sink=writer
                )
        with TraceArchiveWriter(broken, meta=meta, resume=True) as writer:
            assert len(writer.entries) == 2  # run 1's half rolled back
            datasets = _fingerprinter().collect_datasets(
                models=MODELS, channels=CHANNELS, sink=writer
            )
        assert tree_hash(clean) == tree_hash(broken)
        runs = len(MODELS) * CONFIG["traces_per_model"]
        assert [len(datasets[channel]) for channel in CHANNELS] == [runs] * 2


class TestArchiveRecovery:
    """What the writer accepts, repairs, or refuses on resume."""

    def _partial_archive(self, out, n_appends=2):
        attack = RsaHammingWeightAttack(session=AttackSession.create(seed=5))
        writer = TraceArchiveWriter(out, meta={"experiment": "test"})
        _explode_after(writer, n_appends=n_appends)
        with pytest.raises(Bomb):
            with writer:
                attack.collect_sweep(
                    weights=(4, 8, 12), n_samples=300, sink=writer
                )
        return out

    def test_torn_manifest_tail_is_truncated(self, tmp_path):
        out = self._partial_archive(tmp_path / "arch")
        manifest = out / "manifest.jsonl"
        intact = manifest.read_text()
        manifest.write_text(intact + '{"chunk": "torn-mid-wr')
        writer = TraceArchiveWriter(
            out, meta={"experiment": "test"}, resume=True
        )
        writer.abort()
        assert manifest.read_text() == intact

    def _last_chunk(self, out):
        entry = TraceArchiveReader(out, allow_partial=True).entries[-1]
        nbytes = entry["n_samples"] * 16  # <f8 times + <i8 values
        return out / entry["file"], entry["offset"], nbytes

    def _finish_sweep(self, out):
        attack = RsaHammingWeightAttack(session=AttackSession.create(seed=5))
        with TraceArchiveWriter(
            out, meta={"experiment": "test"}, resume=True
        ) as writer:
            attack.collect_sweep(
                weights=(4, 8, 12), n_samples=300, sink=writer
            )

    def _sealed_sweep(self, out):
        attack = RsaHammingWeightAttack(session=AttackSession.create(seed=5))
        with TraceArchiveWriter(out, meta={"experiment": "test"}) as writer:
            attack.collect_sweep(
                weights=(4, 8, 12), n_samples=300, sink=writer
            )
        return tree_hash(out)

    def test_corrupt_trailing_chunk_is_dropped(self, tmp_path):
        out = self._partial_archive(tmp_path / "arch")
        segment, offset, nbytes = self._last_chunk(out)
        data = bytearray(segment.read_bytes())
        data[offset + nbytes - 1] ^= 0x40  # one bit of the last value
        segment.write_bytes(bytes(data))
        writer = TraceArchiveWriter(
            out, meta={"experiment": "test"}, resume=True
        )
        try:
            # The corrupted chunk's entry is gone, and the segment is
            # cut back so recording rewrites it at the same offset.
            assert len(writer.entries) == 1
            assert writer._n_chunks == 1
            assert writer.checkpoint_state["keys_done"] == 1
            assert segment.stat().st_size == offset
        finally:
            writer.abort()
        self._finish_sweep(out)
        assert tree_hash(out) == self._sealed_sweep(tmp_path / "clean")

    def test_torn_segment_tail_is_dropped(self, tmp_path):
        out = self._partial_archive(tmp_path / "arch")
        segment, offset, nbytes = self._last_chunk(out)
        os.truncate(segment, offset + nbytes - 5)
        writer = TraceArchiveWriter(
            out, meta={"experiment": "test"}, resume=True
        )
        try:
            assert writer._n_chunks == 1
            assert segment.stat().st_size == offset
        finally:
            writer.abort()
        self._finish_sweep(out)
        assert tree_hash(out) == self._sealed_sweep(tmp_path / "clean")

    def test_bytes_without_a_manifest_line_are_cut(self, tmp_path):
        # A crash between the segment write and the manifest line.
        out = self._partial_archive(tmp_path / "arch")
        segment, offset, nbytes = self._last_chunk(out)
        with open(segment, "ab") as handle:
            handle.write(b"\x5a" * 1000)
        self._finish_sweep(out)
        assert tree_hash(out) == self._sealed_sweep(tmp_path / "clean")

    def test_mid_manifest_corruption_is_refused(self, tmp_path):
        out = self._partial_archive(tmp_path / "arch")
        manifest = out / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArchiveError, match="not a torn tail"):
            TraceArchiveWriter(
                out, meta={"experiment": "test"}, resume=True
            )

    def test_sealed_archive_refuses_resume(self, tmp_path):
        out = tmp_path / "arch"
        attack = RsaHammingWeightAttack(session=AttackSession.create(seed=5))
        with TraceArchiveWriter(out, meta={"experiment": "test"}) as writer:
            attack.collect_sweep(weights=(4,), n_samples=300, sink=writer)
        with pytest.raises(ArchiveError, match="already sealed"):
            TraceArchiveWriter(
                out, meta={"experiment": "test"}, resume=True
            )

    def test_meta_mismatch_refuses_resume(self, tmp_path):
        out = self._partial_archive(tmp_path / "arch")
        with pytest.raises(ArchiveError, match="metadata mismatch"):
            TraceArchiveWriter(
                out, meta={"experiment": "different"}, resume=True
            )

    def test_existing_manifest_without_resume_refused(self, tmp_path):
        out = self._partial_archive(tmp_path / "arch")
        with pytest.raises(ArchiveError, match="pass resume=True"):
            TraceArchiveWriter(out, meta={"experiment": "test"})

    def test_checkpoint_state_survives_reload(self, tmp_path):
        out = self._partial_archive(tmp_path / "arch", n_appends=2)
        writer = TraceArchiveWriter(
            out, meta={"experiment": "test"}, resume=True
        )
        try:
            state = writer.checkpoint_state
            assert state is not None
            assert state["keys_done"] == 2
        finally:
            writer.abort()

    def test_resume_rolls_back_to_checkpoint(self, tmp_path):
        out = tmp_path / "arch"
        writer = TraceArchiveWriter(out, meta={"experiment": "test"})
        attack = RsaHammingWeightAttack(session=AttackSession.create(seed=5))
        traces = list(
            attack.collect_sweep(weights=(4, 8), n_samples=300)
        )
        writer.append(traces[0])
        writer.checkpoint({"keys_done": 1})
        writer.append(traces[1])  # persisted after the last checkpoint
        writer.abort()
        assert len(TraceArchiveReader(out, allow_partial=True)) == 2
        resumed = TraceArchiveWriter(
            out, meta={"experiment": "test"}, resume=True
        )
        try:
            assert len(resumed.entries) == 1
            assert resumed._n_chunks == 1
            assert resumed.checkpoint_state == {"keys_done": 1}
        finally:
            resumed.abort()
        assert len(TraceArchiveReader(out, allow_partial=True)) == 1

    def test_reader_rejects_unsealed_archive(self, tmp_path):
        out = self._partial_archive(tmp_path / "arch")
        with pytest.raises(ArchiveError):
            TraceArchiveReader(out)


#: Chunk sizes in samples (16 bytes each) chosen so that segments roll
#: before chunks 2, 3, 4 and 5: chunks 0 and 1 share segment 0.
_SIZES = [24000 + 5000 * index for index in range(6)]


def _chunk(index):
    n = _SIZES[index]
    return Trace(
        times=0.5 * index + np.arange(n) * 0.0352,
        values=(np.arange(n, dtype=np.int64) * (index + 3)) % 997,
        domain="fpga",
        quantity="current",
        label=f"chunk-{index}",
    )


def _record_chunks(writer, start=0):
    for index in range(start, len(_SIZES)):
        writer.append(_chunk(index))
        writer.checkpoint({"done": index + 1})


class TestSegmentResume:
    """Resume across segment rolls lands re-recorded bytes in place."""

    def _segments(self, out):
        return sorted(path.name for path in out.glob("segment_*.bin"))

    def test_chunk_sizes_roll_segments(self, tmp_path):
        with TraceArchiveWriter(tmp_path / "arch") as writer:
            _record_chunks(writer)
        files = [
            entry["file"]
            for entry in TraceArchiveReader(tmp_path / "arch").entries
        ]
        assert files == [
            "segment_000000.bin",
            "segment_000000.bin",
            "segment_000001.bin",
            "segment_000002.bin",
            "segment_000003.bin",
            "segment_000004.bin",
        ]
        assert 16 * (_SIZES[0] + _SIZES[1]) <= SEGMENT_BYTES

    @pytest.mark.parametrize("crash_at", [1, 2, 4])
    def test_drop_after_checkpoint_resumes_byte_identical(
        self, tmp_path, crash_at
    ):
        clean, broken = tmp_path / "clean", tmp_path / "broken"
        with TraceArchiveWriter(clean, meta={"experiment": "test"}) as writer:
            _record_chunks(writer)
        # Chunk ``crash_at`` lands on disk, its checkpoint never does.
        writer = TraceArchiveWriter(broken, meta={"experiment": "test"})
        for index in range(crash_at + 1):
            writer.append(_chunk(index))
            if index < crash_at:
                writer.checkpoint({"done": index + 1})
        writer.abort()
        with TraceArchiveWriter(
            broken, meta={"experiment": "test"}, resume=True
        ) as writer:
            assert writer._n_chunks == crash_at
            _record_chunks(writer, start=writer.checkpoint_state["done"])
        assert tree_hash(clean) == tree_hash(broken)

    def test_drop_truncates_and_deletes_later_segments(self, tmp_path):
        out = tmp_path / "arch"
        writer = TraceArchiveWriter(out, meta={"experiment": "test"})
        writer.append(_chunk(0))
        writer.checkpoint({"done": 1})
        for index in range(1, 4):  # never checkpointed
            writer.append(_chunk(index))
        writer.abort()
        assert len(self._segments(out)) == 3
        with TraceArchiveWriter(
            out, meta={"experiment": "test"}, resume=True
        ) as writer:
            assert len(writer.entries) == 1
        assert self._segments(out) == ["segment_000000.bin"]
        assert (out / "segment_000000.bin").stat().st_size == 16 * _SIZES[0]
        entries = TraceArchiveReader(out).entries
        assert [entry["chunk"] for entry in entries] == [0]

    def test_torn_append_after_a_roll_resumes_byte_identical(self, tmp_path):
        clean, broken = tmp_path / "clean", tmp_path / "broken"
        with TraceArchiveWriter(clean, meta={"experiment": "test"}) as writer:
            _record_chunks(writer)
        writer = TraceArchiveWriter(broken, meta={"experiment": "test"})
        for index in range(3):
            writer.append(_chunk(index))
            writer.checkpoint({"done": index + 1})
        writer.abort()
        # Chunk 3 rolled to a fresh segment and tore mid-write, before
        # its manifest line.
        (broken / "segment_000002.bin").write_bytes(b"torn")
        with TraceArchiveWriter(
            broken, meta={"experiment": "test"}, resume=True
        ) as writer:
            assert writer._n_chunks == 3
            _record_chunks(writer, start=writer.checkpoint_state["done"])
        assert tree_hash(clean) == tree_hash(broken)


class TestFaultedArchiveRoundtrip:
    def test_quality_metadata_survives_the_archive(self, tmp_path):
        out = tmp_path / "arch"
        session = AttackSession.create(seed=5, faults=0.2)
        trace = session.sampler.collect(
            "fpga", "current", start=1.0, n_samples=300, label="faulted"
        )
        assert trace.quality is not None and trace.quality.retries > 0
        with TraceArchiveWriter(out, meta={"experiment": "test"}) as writer:
            writer.append(trace)
        loaded = TraceArchiveReader(out).load_traceset()
        assert len(loaded) == 1
        restored = next(iter(loaded))
        assert restored.quality == trace.quality
        np.testing.assert_array_equal(restored.values, trace.values)

    def test_faulted_resume_is_byte_identical(self, tmp_path):
        clean, broken = tmp_path / "clean", tmp_path / "broken"

        def attack():
            return RsaHammingWeightAttack(
                session=AttackSession.create(seed=5, faults=0.1)
            )

        weights = (4, 8, 12)
        with TraceArchiveWriter(clean, meta={"experiment": "test"}) as writer:
            attack().collect_sweep(
                weights=weights, n_samples=300, sink=writer
            )
        writer = TraceArchiveWriter(broken, meta={"experiment": "test"})
        _explode_after(writer, n_appends=1)
        with pytest.raises(Bomb):
            with writer:
                attack().collect_sweep(
                    weights=weights, n_samples=300, sink=writer
                )
        writer = TraceArchiveWriter(
            broken, meta={"experiment": "test"}, resume=True
        )
        with writer:
            attack().collect_sweep(
                weights=weights, n_samples=300, sink=writer
            )
        assert tree_hash(clean) == tree_hash(broken)

    def test_checkpoints_invisible_to_reader_traces(self, tmp_path):
        out = tmp_path / "arch"
        attack = RsaHammingWeightAttack(session=AttackSession.create(seed=5))
        with TraceArchiveWriter(out, meta={"experiment": "test"}) as writer:
            attack.collect_sweep(
                weights=(4, 8), n_samples=300, sink=writer
            )
        reader = TraceArchiveReader(out)
        assert len(reader.entries) == 2
        assert reader.checkpoint is not None
        assert reader.checkpoint["keys_done"] == 2
        manifest_kinds = [
            "checkpoint" in json.loads(line)
            for line in (out / "manifest.jsonl").read_text().splitlines()
        ]
        assert any(manifest_kinds), "checkpoints must be in the manifest"


class TestCorruptArchiveInFleet:
    def test_garbled_manifest_is_quarantined_and_rerecorded(self, tmp_path):
        # A garbled line mid-manifest is damage no torn tail explains:
        # the fleet run must quarantine the archive, not abort, and
        # re-record it byte-identical to a clean run.
        clean = build_fleet_jobs(tmp_path / "clean", boards=["ZCU102"])
        assert FleetScheduler(clean, use_pool=False).run().ok
        jobs = build_fleet_jobs(tmp_path / "fleet", boards=["ZCU102"])
        victim = next(job for job in jobs if job.kind == "rsa")
        template = next(job for job in clean if job.kind == "rsa")
        shutil.copytree(template.out, victim.out)
        manifest = Path(victim.out) / MANIFEST_NAME
        lines = manifest.read_text(encoding="utf-8").splitlines()
        lines[1] = '{"chunk": garbled'
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")

        report = FleetScheduler(jobs, max_concurrent=2, use_pool=False).run()

        assert [outcome.status for outcome in report.outcomes] == [
            STATUS_QUARANTINED if job is victim else STATUS_DONE
            for job in jobs
        ]
        (entry,) = (Path(victim.out).parent / QUARANTINE_DIRNAME).iterdir()
        record = json.loads((entry / RECORD_NAME).read_text())
        assert record["reason"] == "archive-corrupt"
        assert record["job_id"] == victim.job_id
        for clean_job, job in zip(clean, jobs):
            assert tree_hash(clean_job.out) == tree_hash(job.out), job.job_id
