"""FPGA substrate: fabric, PDN, and victim circuits."""

from repro.fpga.aes import AesCircuit, aes128_encrypt_block, expand_key
from repro.fpga.fabric import (
    RESOURCE_TYPES,
    CircuitSpec,
    Fabric,
    Placement,
    PlacementError,
    Region,
    Shard,
)
from repro.fpga.pdn import VoltageRegulator
from repro.fpga.power_virus import PowerVirusArray
from repro.fpga.ring_osc import RingOscillator, RoSensorBank
from repro.fpga.multi_tenant import IsolatedTenantPdn
from repro.fpga.rsa import RsaCircuit
from repro.fpga.tdc import TdcSensor
from repro.fpga.workloads import (
    WORKLOAD_CLASSES,
    WorkloadInstance,
    generate_dataset,
)

__all__ = [
    "AesCircuit",
    "aes128_encrypt_block",
    "expand_key",
    "WORKLOAD_CLASSES",
    "WorkloadInstance",
    "generate_dataset",
    "IsolatedTenantPdn",
    "TdcSensor",
    "RESOURCE_TYPES",
    "CircuitSpec",
    "Fabric",
    "Placement",
    "PlacementError",
    "Region",
    "Shard",
    "VoltageRegulator",
    "PowerVirusArray",
    "RingOscillator",
    "RoSensorBank",
    "RsaCircuit",
]
