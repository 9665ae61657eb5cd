"""Tests for the VCK190 Versal sensor map."""

import numpy as np
import pytest

from repro.boards.versal import VCK190_SENSORS
from repro.session import AttackSession
from repro.soc import Soc


class TestVck190Map:
    def test_seventeen_sensors(self):
        # Table I: VCK190 integrates 17 INA226 sensors.
        assert len(VCK190_SENSORS) == 17

    def test_four_sensitive(self):
        sensitive = [s for s in VCK190_SENSORS if s.sensitive]
        assert len(sensitive) == 4
        assert {s.domain for s in sensitive} == {"fpd", "lpd", "fpga", "ddr"}

    def test_versal_rail_names(self):
        rails = {s.rail for s in VCK190_SENSORS}
        assert {"VCC_PSFP", "VCC_PSLP", "VCCINT", "VCC1V1_LP4"} <= rails

    def test_unique_designators(self):
        designators = [s.designator for s in VCK190_SENSORS]
        assert len(designators) == len(set(designators))


class TestVck190Soc:
    @pytest.fixture(scope="class")
    def soc(self):
        return Soc("VCK190", seed=0)

    def test_device_count_matches_table1(self, soc):
        assert len(soc.hwmon.devices()) == 17

    def test_core_rail_is_versal_band(self, soc):
        values = soc.sample("fpga", "voltage", np.array([1.0]))
        assert 775 <= values[0] <= 825

    def test_sensitive_domains_resolve(self, soc):
        for domain in ("fpga", "fpd", "lpd", "ddr"):
            assert soc.sample(domain, "current", np.array([1.0]))[0] >= 0

    def test_lpddr4_rail_voltage(self, soc):
        values = soc.sample("ddr", "voltage", np.array([1.0]))
        assert 1040 <= values[0] <= 1160  # 1.1 V +- 5%

    def test_rsa_attack_runs_on_versal(self, soc):
        from repro.core.rsa_attack import RsaHammingWeightAttack

        attack = RsaHammingWeightAttack(AttackSession(soc))
        sweep = attack.sweep(weights=(1, 512, 1024), n_samples=1500)
        assert sweep.distinguishable_groups() == 3

    def test_campaign_recon_finds_versal_sensors(self, soc):
        from repro.core.campaign import AttackCampaign

        report = AttackCampaign(AttackSession(soc)).recon()
        assert set(report.sensitive_paths) == {"fpga", "fpd", "lpd", "ddr"}
