"""FPGA fabric: resource pools, placement regions, circuit deployment.

The fabric is modeled as a grid of clock regions, each holding a share
of the device's LUT / flip-flop / DSP / BRAM pools.  Circuits declare a
resource utilization and are placed into regions; the fabric enforces
capacity and tracks what is deployed.  Placement matters for two
experiments: the power-virus array is split into groups that are
*evenly distributed* across the board, and the RO baseline circuits are
likewise spread out "to average dependence on spatial proximity to
activated power virus instances" (paper §IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.boards.catalog import BoardSpec, get_board

RESOURCE_TYPES = ("lut", "ff", "dsp", "bram")


@dataclass(frozen=True)
class CircuitSpec:
    """A synthesizable circuit: name, resources, and toggle activity.

    Attributes:
        name: unique identifier within a fabric.
        utilization: resource type -> element count.
        activity: resource type -> toggle rate alpha in [0, 1] when the
            circuit is running (idle circuits still leak).
    """

    name: str
    utilization: Mapping[str, int]
    activity: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for resource, count in self.utilization.items():
            if resource not in RESOURCE_TYPES:
                raise ValueError(
                    f"unknown resource {resource!r}; "
                    f"expected one of {RESOURCE_TYPES}"
                )
            if count < 0:
                raise ValueError(f"negative {resource} count: {count}")
        for resource, alpha in self.activity.items():
            if not (0.0 <= alpha <= 1.0):
                raise ValueError(
                    f"activity for {resource!r} must be in [0, 1], got {alpha}"
                )


@dataclass
class Region:
    """One clock region with its local resource capacity and usage."""

    row: int
    col: int
    capacity: Dict[str, int]
    used: Dict[str, int] = field(default_factory=dict)

    def free(self, resource: str) -> int:
        """Remaining elements of ``resource`` in this region."""
        return self.capacity.get(resource, 0) - self.used.get(resource, 0)

    def allocate(self, utilization: Mapping[str, int]) -> None:
        """Reserve resources, raising :class:`PlacementError` on overflow."""
        for resource, count in utilization.items():
            if count > self.free(resource):
                raise PlacementError(
                    f"region ({self.row},{self.col}) out of {resource}: "
                    f"need {count}, free {self.free(resource)}"
                )
        for resource, count in utilization.items():
            self.used[resource] = self.used.get(resource, 0) + count

    def release(self, utilization: Mapping[str, int]) -> None:
        """Return previously allocated resources to the region."""
        for resource, count in utilization.items():
            current = self.used.get(resource, 0)
            if count > current:
                raise PlacementError(
                    f"region ({self.row},{self.col}) releasing more "
                    f"{resource} ({count}) than allocated ({current})"
                )
            self.used[resource] = current - count


class PlacementError(RuntimeError):
    """Raised when a circuit does not fit the fabric."""


@dataclass(frozen=True)
class Shard:
    """One piece of a deployed circuit in a single clock region."""

    row: int
    col: int
    utilization: Tuple[Tuple[str, int], ...]

    def utilization_dict(self) -> Dict[str, int]:
        """Per-resource counts of this shard as a dict."""
        return dict(self.utilization)


@dataclass(frozen=True)
class Placement:
    """Where a deployed circuit landed, shard by shard."""

    circuit: CircuitSpec
    shards: Tuple[Shard, ...]

    @property
    def regions(self) -> Tuple[Tuple[int, int], ...]:
        """The (row, col) of each shard."""
        return tuple((shard.row, shard.col) for shard in self.shards)


class Fabric:
    """Programmable-logic fabric of one board.

    Args:
        board: a :class:`BoardSpec` or board name; sets total resources.
        rows, cols: clock-region grid shape (ZCU102's XCZU9EG exposes a
            grid of clock regions; the default 7x3 mirrors it).
    """

    def __init__(self, board="ZCU102", rows: int = 7, cols: int = 3):
        if isinstance(board, str):
            board = get_board(board)
        if not isinstance(board, BoardSpec):
            raise TypeError(f"board must be a name or BoardSpec, got {board!r}")
        if rows <= 0 or cols <= 0:
            raise ValueError("region grid must be non-empty")
        self.board = board
        self.rows = rows
        self.cols = cols
        totals = {
            "lut": board.luts,
            "ff": board.flip_flops,
            "dsp": board.dsp_blocks,
            # BRAM count is not in Table I; use the XCZU9EG's 912 blocks
            # scaled by LUT ratio for other boards.
            "bram": max(1, round(912 * board.luts / 274_080)),
        }
        n_regions = rows * cols
        self.regions: List[Region] = []
        for row in range(rows):
            for col in range(cols):
                capacity = {
                    resource: total // n_regions
                    for resource, total in totals.items()
                }
                self.regions.append(Region(row=row, col=col, capacity=capacity))
        self._placements: Dict[str, Placement] = {}

    def deploy(
        self, circuit: CircuitSpec, region: Optional[Tuple[int, int]] = None
    ) -> Placement:
        """Place ``circuit`` on the fabric.

        With ``region`` the whole circuit goes into one clock region;
        without it the circuit is spread evenly across all regions
        (one shard per region), which is how the power-virus array and
        the RO baseline are deployed in the paper.
        """
        if circuit.name in self._placements:
            raise PlacementError(f"circuit {circuit.name!r} already deployed")
        if region is not None:
            row, col = region
            target = self._region_at(row, col)
            target.allocate(circuit.utilization)
            shard = Shard(
                row=row,
                col=col,
                utilization=tuple(sorted(circuit.utilization.items())),
            )
            placement = Placement(circuit=circuit, shards=(shard,))
        else:
            placement = self._deploy_distributed(circuit)
        self._placements[circuit.name] = placement
        return placement

    def _deploy_distributed(self, circuit: CircuitSpec) -> Placement:
        n_regions = len(self.regions)
        shards: List[Shard] = []
        allocated: List[Tuple[Region, Dict[str, int]]] = []
        try:
            for index, target in enumerate(self.regions):
                shard_utilization: Dict[str, int] = {}
                for resource, count in circuit.utilization.items():
                    base = count // n_regions
                    extra = 1 if index < count % n_regions else 0
                    if base + extra:
                        shard_utilization[resource] = base + extra
                if not shard_utilization:
                    continue
                target.allocate(shard_utilization)
                allocated.append((target, shard_utilization))
                shards.append(
                    Shard(
                        row=target.row,
                        col=target.col,
                        utilization=tuple(sorted(shard_utilization.items())),
                    )
                )
        except PlacementError:
            for target, shard_utilization in allocated:
                target.release(shard_utilization)
            raise
        if not shards:
            raise PlacementError(
                f"circuit {circuit.name!r} has no resources to place"
            )
        return Placement(circuit=circuit, shards=tuple(shards))

    def undeploy(self, name: str) -> None:
        """Remove a circuit and free its resources."""
        placement = self._placements.pop(name, None)
        if placement is None:
            raise PlacementError(f"circuit {name!r} is not deployed")
        for shard in placement.shards:
            self._region_at(shard.row, shard.col).release(
                shard.utilization_dict()
            )

    def _region_at(self, row: int, col: int) -> Region:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise PlacementError(
                f"region ({row},{col}) outside {self.rows}x{self.cols} grid"
            )
        return self.regions[row * self.cols + col]
