"""The paper's headline claims, as a compact executable ledger.

One test per claim, in the order the paper makes them.  The benches
regenerate the full artifacts; this file is the fast, always-on record
of *what the paper says* mapped to *where the code shows it*.
"""

import numpy as np
import pytest
from reference_kernels import fabric_totals, read_sysfs

from repro.core.characterize import characterize
from repro.core.rsa_attack import RsaHammingWeightAttack
from repro.soc import ConstantActivity, Soc


@pytest.fixture(scope="module")
def small_sweep():
    return characterize(samples_per_level=120, seed=0)


class TestAbstractClaims:
    def test_261x_greater_variation_than_ro(self, small_sweep):
        """'AmpereBleed achieves 261x greater variations to victim
        activities compared to the popular ring oscillator circuit.'"""
        assert 180 < small_sweep.current_vs_ro_variation < 360

    def test_circuit_free(self):
        """'...without relying on either crafted circuits or a shared
        PDN' — the attack surface is hwmon reads alone."""
        soc = Soc("ZCU102", seed=0)
        # Nothing deployed on the fabric by the attacker:
        assert not any(fabric_totals(soc.fabric, "used").values())
        # yet a victim is visible through sysfs:
        idle = soc.sample("fpga", "current", np.array([1.0]))[0]
        soc.attach_workload("fpga", "victim", ConstantActivity(2.0))
        busy = soc.sample("fpga", "current", np.array([1.0]))[0]
        assert busy > idle + 2000


class TestSection3Claims:
    def test_unprivileged_current_access(self):
        """'these measurements are accessible to an unprivileged
        process ... via the hwmon subsystem.'"""
        soc = Soc("ZCU102", seed=0)
        for domain, _ in soc.sensitive_channels():
            path = soc.sysfs_path(domain, "current")
            assert int(read_sysfs(soc.hwmon, path, 1.0)) >= 0

    def test_update_interval_needs_root(self):
        """'modifying it requires root privileges.'"""
        from repro.sensors.hwmon import HwmonPermissionError

        soc = Soc("ZCU102", seed=0)
        with pytest.raises(HwmonPermissionError):
            soc.hwmon.write(
                f"{soc.device('fpga').path}/update_interval", "2"
            )

    def test_resolution_1ma_and_interval_2_to_35ms(self):
        """'a resolution of +-1 mA and a configurable updating interval
        between 2 and 35 ms ... default ... 35 ms.'"""
        soc = Soc("ZCU102", seed=0)
        device = soc.device("fpga")
        assert device.sensor.current_lsb == pytest.approx(1e-3)
        assert device.update_period == pytest.approx(35.2e-3)
        device.write("update_interval", "2", privileged=True)
        assert device.update_period == pytest.approx(2e-3, rel=0.2)
        with pytest.raises(ValueError):
            device.write("update_interval", "36", privileged=True)

    def test_power_lsb_ratio_25(self):
        """'the power measurements are derived from current and
        voltage, with their resolution fixed at a ratio of 25 relative
        to the current resolution.'"""
        from repro.sensors.ina226 import Ina226

        assert Ina226(shunt_ohms=2e-3).power_lsb == pytest.approx(25e-3)

    def test_voltage_band_0825_to_0876(self):
        """'the FPGA supply voltage fluctuates within a limited range
        (e.g., 0.825 V to 0.876 V on the Zynq UltraScale+ series).'"""
        soc = Soc("ZCU102", seed=0)
        soc.attach_workload("fpga", "heavy", ConstantActivity(6.0))
        volts = soc.sample("fpga", "voltage", np.linspace(1, 5, 30))
        assert np.all((volts >= 825) & (volts <= 876))


class TestSection4Claims:
    def test_current_pearson_0999(self, small_sweep):
        """'FPGA current and power exhibit a strong linear relationship
        ... Pearson correlation coefficient of 0.999.'"""
        assert small_sweep.current.pearson > 0.995
        assert small_sweep.power.pearson > 0.995

    def test_voltage_pearson_0958(self, small_sweep):
        """'FPGA voltage achieves a Pearson correlation of 0.958'
        (sign convention: the rail droops, so ours is negative)."""
        assert 0.80 < abs(small_sweep.voltage.pearson) < 0.995

    def test_ro_pearson_minus_0996(self, small_sweep):
        """'RO achieves -0.996.'"""
        assert small_sweep.ro.pearson < -0.98

    def test_current_40_lsb_per_setting(self, small_sweep):
        """'current measurements ... vary approximately 40 LSBs per
        setting.'"""
        assert 30 < small_sweep.current.lsb_step < 50

    def test_current_floor_from_static_power(self, small_sweep):
        """'current measurements do not start from 0 ... due to the
        static workloads caused by inactivated but deployed power
        virus instances.'"""
        assert small_sweep.current.means[0] > 500

    def test_rsa_17_keys_current_5_groups_power(self):
        """'the attacker can use the FPGA current measurements to infer
        the Hamming weights' / 'power measurements could only
        categorize the 17 keys into 5 groups.'"""
        attack = RsaHammingWeightAttack()
        current = attack.sweep(n_samples=4000)
        power = attack.sweep(quantity="power", n_samples=4000)
        assert current.distinguishable_groups() == 17
        assert 3 <= power.distinguishable_groups() <= 7

    def test_rsa_circuit_at_100mhz(self):
        """'we follow Zhao et al. to implement an RSA-1024 circuit ...
        and modify it to operate at 100 MHz.'"""
        attack = RsaHammingWeightAttack()
        circuit = attack.make_circuit(64)
        assert circuit.clock_hz == pytest.approx(100e6)
        assert circuit.width == 1024

    def test_39_architectures_7_families(self):
        """'39 architectures over 7 diverse architecture families.'"""
        from repro.dpu.models import build_model, list_models

        assert len(list_models()) == 39
        assert len({build_model(name).family for name in list_models()}) == 7

    def test_random_guess_baseline(self):
        """Table III: 'The baseline of random guess is 0.0256.'"""
        assert 1 / 39 == pytest.approx(0.0256, abs=1e-4)


class TestSection5Claims:
    def test_mitigation_restrict_to_privileged(self):
        """'restricting their access to privileged users can
        effectively mitigate the unprivileged attacks.'"""
        from repro.core.countermeasures import ROOT_ONLY
        from repro.sensors.hwmon import HwmonPermissionError

        soc = Soc("ZCU102", seed=0, hardening=ROOT_ONLY)
        with pytest.raises(HwmonPermissionError):
            soc.sample("fpga", "current", np.array([1.0]))
        # The stated cost: benign unprivileged monitoring breaks too.
        with pytest.raises(HwmonPermissionError):
            soc.sample("ddr", "power", np.array([1.0]))
