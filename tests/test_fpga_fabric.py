"""Tests for fabric placement and deployment."""

import pytest
from reference_kernels import fabric_totals

from repro.fpga.fabric import CircuitSpec, Fabric, PlacementError


class TestCircuitSpec:
    def test_valid_spec(self):
        spec = CircuitSpec("x", {"lut": 10, "ff": 10}, {"lut": 0.5})
        assert spec.utilization["lut"] == 10

    def test_unknown_resource_rejected(self):
        with pytest.raises(ValueError, match="unknown resource"):
            CircuitSpec("x", {"gpu": 1})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            CircuitSpec("x", {"lut": -1})

    def test_activity_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CircuitSpec("x", {"lut": 1}, {"lut": 1.5})


class TestFabric:
    @pytest.fixture
    def fabric(self):
        return Fabric("ZCU102", rows=2, cols=2)

    def test_default_board(self):
        assert Fabric().board.name == "ZCU102"

    def test_capacity_close_to_device_totals(self, fabric):
        capacity = fabric_totals(fabric, "capacity")
        assert capacity["lut"] == 4 * (274_080 // 4)
        assert capacity["dsp"] == 2_520

    def test_single_region_deploy(self, fabric):
        placement = fabric.deploy(
            CircuitSpec("a", {"lut": 100}), region=(0, 1)
        )
        assert placement.regions == ((0, 1),)
        assert fabric_totals(fabric, "used")["lut"] == 100

    def test_distributed_deploy_spreads_evenly(self, fabric):
        placement = fabric.deploy(CircuitSpec("a", {"lut": 100}))
        assert len(placement.shards) == 4
        counts = [shard.utilization_dict()["lut"] for shard in placement.shards]
        assert sum(counts) == 100
        assert max(counts) - min(counts) <= 1

    def test_distributed_deploy_with_remainder(self, fabric):
        placement = fabric.deploy(CircuitSpec("a", {"lut": 7}))
        counts = [shard.utilization_dict()["lut"] for shard in placement.shards]
        assert sorted(counts) == [1, 2, 2, 2]

    def test_duplicate_name_rejected(self, fabric):
        fabric.deploy(CircuitSpec("a", {"lut": 1}))
        with pytest.raises(PlacementError, match="already deployed"):
            fabric.deploy(CircuitSpec("a", {"lut": 1}))

    def test_over_capacity_rejected(self, fabric):
        with pytest.raises(PlacementError, match="out of"):
            fabric.deploy(CircuitSpec("big", {"lut": 10_000_000}))

    def test_failed_deploy_rolls_back(self, fabric):
        fabric.deploy(CircuitSpec("a", {"dsp": 2_400}))
        with pytest.raises(PlacementError):
            fabric.deploy(CircuitSpec("b", {"dsp": 500}))
        # The failed deploy must not leave partial allocations behind.
        assert fabric_totals(fabric, "used")["dsp"] == 2_400

    def test_undeploy_frees_resources(self, fabric):
        fabric.deploy(CircuitSpec("a", {"lut": 100, "ff": 50}))
        fabric.undeploy("a")
        assert fabric_totals(fabric, "used")["lut"] == 0
        assert fabric_totals(fabric, "used")["ff"] == 0

    def test_undeploy_single_region(self, fabric):
        fabric.deploy(CircuitSpec("a", {"lut": 100}), region=(1, 1))
        fabric.undeploy("a")
        assert fabric_totals(fabric, "used")["lut"] == 0

    def test_undeploy_unknown_raises(self, fabric):
        with pytest.raises(PlacementError, match="not deployed"):
            fabric.undeploy("ghost")

    def test_utilization_fraction(self, fabric):
        capacity = fabric_totals(fabric, "capacity")["lut"]
        fabric.deploy(CircuitSpec("a", {"lut": capacity // 2}))
        used = fabric_totals(fabric, "used")["lut"] / capacity
        assert used == pytest.approx(0.5, abs=0.01)

    def test_region_out_of_grid_rejected(self, fabric):
        with pytest.raises(PlacementError, match="outside"):
            fabric.deploy(CircuitSpec("a", {"lut": 1}), region=(5, 5))

    def test_empty_circuit_rejected_distributed(self, fabric):
        with pytest.raises(PlacementError, match="no resources"):
            fabric.deploy(CircuitSpec("empty", {}))

    def test_bad_board_type(self):
        with pytest.raises(TypeError):
            Fabric(board=123)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            Fabric(rows=0, cols=3)

    def test_paper_workloads_fit_together(self):
        # The Fig 2 setup: 160 k virus cells + a distributed RO bank
        # must co-reside on the ZCU102 fabric.
        from repro.fpga.power_virus import PowerVirusArray
        from repro.fpga.ring_osc import RoSensorBank

        fabric = Fabric("ZCU102")
        fabric.deploy(PowerVirusArray().circuit_spec())
        fabric.deploy(RoSensorBank().circuit_spec())
        used = fabric_totals(fabric, "used")["lut"]
        assert used < fabric_totals(fabric, "capacity")["lut"]
