"""Tests for the workload library and the attack campaign."""

import numpy as np
import pytest
from reference_kernels import read_sysfs

from repro.core.campaign import AttackCampaign
from repro.fpga.workloads import WORKLOAD_CLASSES, generate_dataset
from repro.session import AttackSession
from repro.soc import PiecewiseActivity, Soc


def _first_of(kind, seed):
    """The first ``kind`` victim of a one-per-class dataset."""
    return next(
        victim for victim in generate_dataset(1, seed=seed)
        if victim.kind == kind
    )


class TestWorkloadLibrary:
    def test_four_classes(self):
        assert set(WORKLOAD_CLASSES) == {
            "burst", "stream", "memory", "crypto"
        }

    @pytest.mark.parametrize("kind", WORKLOAD_CLASSES)
    def test_generate_each_class(self, kind):
        victim = _first_of(kind, seed=1)
        t = np.linspace(0, 2, 50)
        assert np.all(victim.fpga.power_at(t) >= 0)
        assert np.all(victim.ddr.power_at(t) >= 0)

    def test_seeded_determinism(self):
        a = _first_of("burst", seed=7)
        b = _first_of("burst", seed=7)
        t = np.linspace(0, 1, 20)
        np.testing.assert_allclose(a.fpga.power_at(t), b.fpga.power_at(t))

    def test_memory_class_is_ddr_heavy(self):
        victim = _first_of("memory", seed=3)
        window = (np.array([0.0]), np.array([2.0]))
        assert victim.ddr.window_mean(*window)[0] > (
            victim.fpga.window_mean(*window)[0]
        )

    def test_burst_class_is_fpga_heavy(self):
        victim = _first_of("burst", seed=3)
        window = (np.array([0.0]), np.array([2.0]))
        assert victim.fpga.window_mean(*window)[0] > (
            victim.ddr.window_mean(*window)[0]
        )

    def test_dataset_balanced(self):
        victims = generate_dataset(instances_per_class=5, seed=2)
        assert len(victims) == 20
        kinds = [victim.kind for victim in victims]
        for kind in WORKLOAD_CLASSES:
            assert kinds.count(kind) == 5

    def test_dataset_instances_differ(self):
        victims = generate_dataset(instances_per_class=3, seed=2)
        bursts = [v for v in victims if v.kind == "burst"]
        t = np.linspace(0, 1, 30)
        assert not np.allclose(
            bursts[0].fpga.power_at(t), bursts[1].fpga.power_at(t)
        )

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            generate_dataset(0)

    def test_attach_detach(self):
        soc = Soc("ZCU102", seed=0)
        victim = _first_of("stream", seed=1)
        victim.attach(soc)
        assert "victim" in soc.rail("fpga")._workloads
        assert "victim" in soc.rail("ddr")._workloads
        victim.detach(soc)
        assert "victim" not in soc.rail("fpga")._workloads


class TestCampaign:
    @pytest.fixture
    def soc(self):
        return Soc("ZCU102", seed=5)

    def test_recon_finds_all_sensitive_sensors(self, soc):
        campaign = AttackCampaign(AttackSession(soc, seed=5))
        report = campaign.recon()
        assert len(report.devices) == 18
        assert set(report.sensitive_paths) == {"fpga", "fpd", "lpd", "ddr"}
        assert report.found_fpga_sensor
        assert report.sensitive_paths["fpga"].endswith("curr1_input")

    def test_recon_paths_are_pollable(self, soc):
        campaign = AttackCampaign(AttackSession(soc, seed=5))
        report = campaign.recon()
        value = read_sysfs(soc.hwmon, report.sensitive_paths["fpga"], 1.0)
        assert int(value) > 0

    def test_stakeout_detects_late_victim(self, soc):
        campaign = AttackCampaign(AttackSession(soc, seed=5))
        onset_time = 6.0
        soc.attach_workload(
            "fpga",
            "victim",
            PiecewiseActivity([0.0, onset_time, 1e9], [0.0, 3.0]),
        )
        found, onset = campaign.wait_for_victim(timeout=20.0)
        assert found
        assert abs(onset - onset_time) < 2.5

    def test_stakeout_times_out_on_idle_board(self, soc):
        campaign = AttackCampaign(AttackSession(soc, seed=5))
        found, onset = campaign.wait_for_victim(timeout=6.0)
        assert not found
        assert np.isnan(onset)

    def test_full_chain(self, soc):
        campaign = AttackCampaign(AttackSession(soc, seed=5))
        soc.attach_workload(
            "fpga",
            "victim",
            PiecewiseActivity([0.0, 4.0, 1e9], [0.0, 2.5]),
        )
        trace = campaign.run(victim_start=4.0, trace_duration=3.0,
                             timeout=20.0)
        assert trace is not None
        assert trace.values.mean() > 2500  # the 2.5 W victim is in view

    def test_full_chain_fails_without_victim(self, soc):
        campaign = AttackCampaign(AttackSession(soc, seed=5))
        trace = campaign.run(victim_start=0.0, timeout=4.0)
        assert trace is None

    def test_record_victim_labels(self, soc):
        campaign = AttackCampaign(AttackSession(soc, seed=5))
        trace = campaign.record_victim(duration=1.0, label="suspect")
        assert trace.label == "suspect"

    def test_invalid_timeout(self, soc):
        campaign = AttackCampaign(AttackSession(soc, seed=5))
        with pytest.raises(ValueError):
            campaign.wait_for_victim(timeout=0.0)
