"""Cluster description: accelerator types and the resource configurations
(type x placement) that allocations are expressed over."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Placement(str, enum.Enum):
    SOLE = "sole"
    CONSOLIDATED = "consolidated"
    UNCONSOLIDATED = "unconsolidated"


@dataclass(frozen=True)
class AcceleratorType:
    id: int
    name: str
    cost_per_hour: float
    num_workers: int
    workers_per_server: int = 1

    def __post_init__(self):
        if self.num_workers < 1 or self.workers_per_server < 1:
            raise ValueError(f"{self.name}: worker counts must be >= 1")
        if self.cost_per_hour < 0:
            raise ValueError(f"{self.name}: cost_per_hour must be >= 0")


@dataclass(frozen=True)
class ResourceConfiguration:
    type_id: int
    placement: Placement

    def key(self, cluster: "ClusterSpec") -> str:
        name = cluster.types[self.type_id].name
        if self.placement is Placement.SOLE:
            return name
        return f"{name}/{self.placement.value}"


@dataclass(frozen=True)
class ClusterSpec:
    """Ordered accelerator types; placement awareness doubles each type into
    consolidated and unconsolidated configurations."""

    types: tuple
    placement_aware: bool = False

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        ids = [t.id for t in self.types]
        if ids != list(range(len(self.types))):
            raise ValueError("type ids must be 0..len-1 in order")
        if len({t.name for t in self.types}) != len(self.types):
            raise ValueError("type names must be unique")

    @property
    def configurations(self) -> tuple:
        configs = []
        for t in self.types:
            if self.placement_aware:
                configs.append(ResourceConfiguration(t.id, Placement.CONSOLIDATED))
                configs.append(ResourceConfiguration(t.id, Placement.UNCONSOLIDATED))
            else:
                configs.append(ResourceConfiguration(t.id, Placement.SOLE))
        return tuple(configs)

    @property
    def total_workers(self) -> int:
        return sum(t.num_workers for t in self.types)

    @classmethod
    def from_json(cls, doc: dict) -> "ClusterSpec":
        types = tuple(
            AcceleratorType(i, d["name"], float(d.get("cost_per_hour", 0.0)),
                            int(d["num_workers"]),
                            int(d.get("workers_per_server", 1)))
            for i, d in enumerate(doc["types"]))
        return cls(types, bool(doc.get("placement_aware", False)))


def make_cluster(counts: dict, placement_aware: bool = False,
                 costs: dict | None = None,
                 workers_per_server: dict | None = None) -> ClusterSpec:
    """Convenience builder: counts maps type name -> worker count."""
    costs = costs or {}
    workers_per_server = workers_per_server or {}
    types = tuple(
        AcceleratorType(i, name, float(costs.get(name, 0.0)), int(n),
                        int(workers_per_server.get(name, 1)))
        for i, (name, n) in enumerate(counts.items()))
    return ClusterSpec(types, placement_aware)
