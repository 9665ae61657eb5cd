"""Chunked acquisition: bit-identity with one-shot collects, bounded RAM."""

import numpy as np
import pytest

from repro.core.covert_channel import CovertChannel, decode_frame
from repro.core.detector import OnsetDetector
from repro.session import AttackSession
from repro.soc.workload import PiecewiseActivity


@pytest.fixture
def session():
    return AttackSession.create(seed=3)


class TestBitIdentity:
    def test_chunks_concatenate_to_collect(self, session):
        sampler = session.sampler
        one_shot = sampler.collect("fpga", "current", n_samples=500)
        stream = sampler.stream(
            "fpga", "current", n_samples=500, chunk_samples=37
        )
        chunks = list(stream)
        times = np.concatenate([chunk.times for chunk in chunks])
        values = np.concatenate([chunk.values for chunk in chunks])
        assert times.shape == one_shot.times.shape
        assert (times == one_shot.times).all()
        assert (values == one_shot.values).all()

    def test_duration_path_matches(self, session):
        sampler = session.sampler
        one_shot = sampler.collect(
            "fpga", "current", start=2.0, duration=6.0
        )
        stream = sampler.stream(
            "fpga", "current", start=2.0, duration=6.0, chunk_duration=1.5
        )
        values = np.concatenate([chunk.values for chunk in stream])
        assert (values == one_shot.values).all()

    def test_jitterless_sampler_matches(self):
        session = AttackSession.create(seed=3, poll_jitter=0.0)
        one_shot = session.sampler.collect("fpga", "power", n_samples=100)
        chunks = list(
            session.sampler.stream(
                "fpga", "power", n_samples=100, chunk_samples=9
            )
        )
        times = np.concatenate([chunk.times for chunk in chunks])
        assert (times == one_shot.times).all()

    def test_int_start_matches_collect(self, session):
        # The jitter stream is keyed by the caller's start repr; an
        # integer start must not silently reseed via float coercion.
        one_shot = session.sampler.collect(
            "fpga", "current", start=0, n_samples=64
        )
        values = np.concatenate(
            [
                chunk.values
                for chunk in session.sampler.stream(
                    "fpga", "current", start=0, n_samples=64,
                    chunk_samples=10,
                )
            ]
        )
        assert (values == one_shot.values).all()


class TestBoundedMemory:
    def test_peak_resident_bounded_by_chunk(self, session):
        stream = session.sampler.stream(
            "fpga", "current", n_samples=5_000, chunk_samples=128
        )
        for _ in stream:
            pass
        # The high-water mark is the chunk size, not the session size.
        assert stream.max_resident_samples == 128
        assert stream.max_resident_samples < stream.n_samples

    def test_tail_chunk_is_partial(self, session):
        stream = session.sampler.stream(
            "fpga", "current", n_samples=100, chunk_samples=30
        )
        sizes = [chunk.n_samples for chunk in stream]
        assert sizes == [30, 30, 30, 10]
        assert stream.samples_remaining == 0

    def test_validation(self, session):
        with pytest.raises(ValueError):
            session.sampler.stream("fpga", "current")  # no length
        with pytest.raises(ValueError):
            session.sampler.stream(
                "fpga", "current", n_samples=10, duration=1.0
            )
        with pytest.raises(ValueError):
            session.sampler.stream(
                "fpga", "current", n_samples=10,
                chunk_samples=4, chunk_duration=1.0,
            )


class TestStreamingConsumers:
    def test_detector_scan_matches_one_shot(self, session):
        # A victim that starts mid-stakeout is found at the same onset
        # whether the channel is scanned in chunks or as one trace.
        session.soc.replace_workload(
            "fpga",
            "victim",
            PiecewiseActivity([0.0, 6.0, 1e9], [0.0, 4.0]),
        )
        try:
            detector = OnsetDetector()
            one_shot = session.sampler.collect(
                "fpga", "current", start=0.0, duration=10.0
            )
            found_ref, onset_ref = detector.scan_for_onset([one_shot])
            stream = session.sampler.stream(
                "fpga", "current", start=0.0, duration=10.0,
                chunk_duration=2.0,
            )
            found, onset = detector.scan_for_onset(stream)
        finally:
            session.soc.detach_workload("fpga", "victim")
        assert found_ref and found
        assert onset == pytest.approx(onset_ref, abs=0.5)

    def test_campaign_stakeout_bounded(self):
        from repro.core.campaign import AttackCampaign

        session = AttackSession.create(seed=17)
        session.soc.replace_workload(
            "fpga",
            "victim",
            PiecewiseActivity([0.0, 5.0, 1e9], [0.0, 4.0]),
        )
        campaign = AttackCampaign(session=session)
        found, onset = campaign.wait_for_victim(timeout=12.0, chunk=2.0)
        assert found
        assert onset == pytest.approx(5.0, abs=2.5)

    def test_covert_decode_frame_matches_live(self):
        # The archived frame replays to exactly the live receiver bits.
        channel = CovertChannel(AttackSession.create(seed=5))
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=24)
        recorded = []
        report = channel.transmit(
            bits, bit_period=0.08, sink=recorded.append
        )
        assert len(recorded) > 1  # chunked per bit window
        from repro.core.traces import Trace

        frame = Trace(
            times=np.concatenate([c.times for c in recorded]),
            values=np.concatenate([c.values for c in recorded]),
            domain="fpga",
            quantity="current",
        )
        assert decode_frame(frame, len(bits)) == list(report.received)
