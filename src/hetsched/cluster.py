"""Cluster description: accelerator types and the resource configurations
(type x placement) that allocations are expressed over."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate


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
        # Derived once, as attributes rather than fields, so equality and
        # hashing still read only the types and the placement flag.
        placements = ((Placement.CONSOLIDATED, Placement.UNCONSOLIDATED)
                      if self.placement_aware else (Placement.SOLE,))
        object.__setattr__(self, "configurations", tuple(
            ResourceConfiguration(t.id, p) for t in self.types for p in placements))
        # Per type, each server's worker ids: type-major, then by server.
        first_ids = accumulate((t.num_workers for t in self.types), initial=0)
        object.__setattr__(self, "servers", tuple(
            tuple(range(f + s, f + min(s + t.workers_per_server, t.num_workers))
                  for s in range(0, t.num_workers, t.workers_per_server))
            for t, f in zip(self.types, first_ids)))

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
