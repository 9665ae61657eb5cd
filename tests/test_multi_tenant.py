"""Tests for the isolated-tenant PDN topology."""

import numpy as np
import pytest

from repro.fpga.multi_tenant import IsolatedTenantPdn
from repro.soc import ConstantActivity, Soc


class TestTopology:
    def test_tenant_count(self):
        pdn = IsolatedTenantPdn(n_tenants=3)
        assert len(pdn.tenants) == 3
        assert pdn.tenant(2).name == "TENANT2"

    def test_tenant_index_bounds(self):
        pdn = IsolatedTenantPdn(n_tenants=2)
        with pytest.raises(IndexError):
            pdn.tenant(2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IsolatedTenantPdn(n_tenants=0)
        with pytest.raises(ValueError):
            IsolatedTenantPdn(efficiency=0.2)


class TestUpstreamAggregation:
    def test_idle_tenants_draw_idle_power(self):
        pdn = IsolatedTenantPdn(n_tenants=2, efficiency=1.0)
        demand = pdn.upstream_demand()
        power = demand.power_at(np.array([0.0]))[0]
        assert power == pytest.approx(2 * 0.05)

    def test_tenant_load_appears_upstream(self):
        pdn = IsolatedTenantPdn(n_tenants=2, efficiency=1.0)
        pdn.tenant(0).attach("load", ConstantActivity(2.0))
        power = pdn.upstream_demand().power_at(np.array([0.0]))[0]
        assert power == pytest.approx(2.0 + 0.1)

    def test_efficiency_inflates_upstream(self):
        lossless = IsolatedTenantPdn(n_tenants=1, efficiency=1.0)
        lossy = IsolatedTenantPdn(n_tenants=1, efficiency=0.9)
        for pdn in (lossless, lossy):
            pdn.tenant(0).attach("load", ConstantActivity(1.0))
        p_lossless = lossless.upstream_demand().power_at(np.array([0.0]))[0]
        p_lossy = lossy.upstream_demand().power_at(np.array([0.0]))[0]
        assert p_lossy == pytest.approx(p_lossless / 0.9)

    def test_aggregate_is_live(self):
        # Workloads attached after upstream_demand() still count.
        pdn = IsolatedTenantPdn(n_tenants=1, efficiency=1.0)
        demand = pdn.upstream_demand()
        before = demand.power_at(np.array([0.0]))[0]
        pdn.tenant(0).attach("late", ConstantActivity(1.0))
        after = demand.power_at(np.array([0.0]))[0]
        assert after == pytest.approx(before + 1.0)

    def test_energy_between(self):
        pdn = IsolatedTenantPdn(n_tenants=1, efficiency=1.0)
        pdn.tenant(0).attach("load", ConstantActivity(1.0))
        energy = pdn.upstream_demand().energy_between(
            np.array([0.0]), np.array([2.0])
        )[0]
        assert energy == pytest.approx(2 * 1.05)


class TestIsolation:
    def test_tenant_voltage_ignores_other_tenant(self):
        pdn = IsolatedTenantPdn(n_tenants=2)
        window = (np.array([0.0]), np.array([0.035]))
        quiet = pdn.tenant_voltage(1, *window)[0]
        pdn.tenant(0).attach("victim", ConstantActivity(5.0))
        still_quiet = pdn.tenant_voltage(1, *window)[0]
        assert still_quiet == pytest.approx(quiet, abs=1e-9)

    def test_tenant_voltage_tracks_own_load(self):
        pdn = IsolatedTenantPdn(n_tenants=2)
        window = (np.array([0.0]), np.array([0.035]))
        unloaded = pdn.tenant_voltage(0, *window)[0]
        pdn.tenant(0).attach("self", ConstantActivity(5.0))
        loaded = pdn.tenant_voltage(0, *window)[0]
        assert loaded < unloaded

    def test_install_routes_through_fpga_sensor(self):
        soc = Soc("ZCU102", seed=0)
        pdn = IsolatedTenantPdn(n_tenants=2)
        pdn.install(soc)
        idle = soc.sample("fpga", "current", np.array([1.0]))[0]
        pdn.tenant(0).attach("victim", ConstantActivity(3.0))
        loaded = soc.sample("fpga", "current", np.array([1.0]))[0]
        assert loaded > idle + 3000
        pdn.uninstall(soc)
        assert "tenant-pdn" not in soc.rail("fpga")._workloads
