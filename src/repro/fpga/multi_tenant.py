"""Multi-tenant FPGA with per-tenant PDN isolation (ISO-TENANT style).

The paper's introduction notes that recent defenses give each tenant an
*isolated* power delivery network (ISO-TENANT, FPGA'24): per-tenant
point-of-load regulation means one tenant's switching no longer
modulates the voltage another tenant's crafted sensor sees — killing
the co-residence attacks of prior work.

AmpereBleed is indifferent to this defense, for a structural reason:
the per-tenant regulators are *fed from the same upstream rail that
the board's INA226 monitors*.  Regulators conserve power (minus
efficiency), so the upstream current still aggregates every tenant's
activity.  This module builds that topology so the claim can be
measured: a victim in tenant A, an RO sensor in tenant B, and the
board-level current sensor upstream of both.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.fpga.pdn import VoltageRegulator
from repro.soc.rails import PowerRail
from repro.soc.workload import ActivityTimeline
from repro.utils.validation import require_in_range, require_int_in_range


class _TenantAggregate(ActivityTimeline):
    """Upstream power demand of all tenant sub-rails (lazy view).

    Evaluated at call time, so workloads attached to tenant rails after
    construction are included — the upstream rail always sees the live
    tenant state, like a real regulator tree.
    """

    def __init__(self, tenants: List[PowerRail], efficiency: float):
        self._tenants = tenants
        self._efficiency = efficiency

    def power_at(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        total = np.zeros_like(t)
        for tenant in self._tenants:
            total = total + tenant.timeline().power_at(t)
        return total / self._efficiency

    def energy_between(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        t0 = np.atleast_1d(np.asarray(t0, dtype=np.float64))
        t1 = np.atleast_1d(np.asarray(t1, dtype=np.float64))
        total = np.zeros_like(t0)
        for tenant in self._tenants:
            total = total + tenant.timeline().energy_between(t0, t1)
        return total / self._efficiency


class IsolatedTenantPdn:
    """Per-tenant regulated sub-rails under one monitored upstream rail.

    Args:
        n_tenants: number of isolated tenant slots.
        efficiency: conversion efficiency of the per-tenant regulators
            (their losses also flow through the upstream sensor).

    Each tenant sub-rail has its own tight ISO-TENANT-style regulator.
    """

    def __init__(self, n_tenants: int = 2, efficiency: float = 0.93):
        require_int_in_range(n_tenants, 1, 64, "n_tenants")
        require_in_range(efficiency, 0.5, 1.0, "efficiency")
        self.efficiency = float(efficiency)
        self.tenants: List[PowerRail] = [
            PowerRail(
                f"TENANT{i}",
                regulator=VoltageRegulator(
                    v_set=0.8505,
                    band=(0.825, 0.876),
                    r_loadline=0.05e-3,  # ISO-TENANT regulates hard
                    k_quadratic=0.0,
                ),
                idle_power=0.05,
            )
            for i in range(n_tenants)
        ]

    def tenant(self, index: int) -> PowerRail:
        """One tenant's isolated sub-rail."""
        if not (0 <= index < len(self.tenants)):
            raise IndexError(
                f"tenant {index} outside 0..{len(self.tenants) - 1}"
            )
        return self.tenants[index]

    def upstream_demand(self) -> ActivityTimeline:
        """The aggregated power the upstream (monitored) rail supplies."""
        return _TenantAggregate(self.tenants, self.efficiency)

    def install(self, soc) -> None:
        """Route the tenant tree through a SoC's FPGA rail, as the
        workload ``"tenant-pdn"``.

        After this, the board's ``ina226_u79`` sees the sum of all
        tenants (scaled by regulator efficiency), while each tenant's
        *voltage* is set only by its own sub-regulator — the exact
        situation the isolation defense creates.
        """
        soc.replace_workload("fpga", "tenant-pdn", self.upstream_demand())

    def uninstall(self, soc) -> None:
        """Remove the tenant tree from the SoC."""
        soc.detach_workload("fpga", "tenant-pdn")

    def tenant_voltage(
        self, index: int, t0: np.ndarray, t1: np.ndarray
    ) -> np.ndarray:
        """Window-averaged voltage on one tenant's isolated sub-rail.

        This is what a crafted sensor *inside* that tenant can observe;
        it depends only on the tenant's own load.
        """
        _, voltage = self.tenant(index).window_state(t0, t1)
        return voltage
