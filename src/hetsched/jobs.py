"""Jobs, entities, and job combinations (the rows of throughput and
allocation matrices)."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass


class EntityPolicy(str, enum.Enum):
    FAIRNESS = "fairness"
    FIFO = "fifo"


# The short names that policy strings and trace generation use.
ENTITY_POLICY_NAMES = {"fair": EntityPolicy.FAIRNESS, "fifo": EntityPolicy.FIFO}


@dataclass
class Job:
    """A training job.  Policies treat jobs as read-only snapshots; only the
    simulator mutates progress and clock fields."""

    id: int
    name: str = ""
    num_steps: int = 1
    steps_done: float = 0.0
    scale_factor: int = 1
    weight: float = 1.0
    entity_id: int | None = None
    slo_seconds: float | None = None
    arrival_time: float = 0.0
    elapsed_time: float = 0.0
    isolated_elapsed_time: float = 0.0

    def __post_init__(self):
        for name in ("num_steps", "steps_done", "scale_factor", "weight",
                     "slo_seconds", "arrival_time", "elapsed_time",
                     "isolated_elapsed_time", "entity_id"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real)
                    or v is None and name in ("slo_seconds", "entity_id")):
                raise ValueError(f"job {self.id}: {name} must be a number, not {v!r}")
        for name in ("weight", "steps_done", "arrival_time", "elapsed_time",
                     "isolated_elapsed_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"job {self.id}: {name} must be finite")
        for name in ("num_steps", "scale_factor"):
            v = getattr(self, name)
            if not (v >= 1 and float(v).is_integer()):
                raise ValueError(f"job {self.id}: {name} must be a whole number >= 1, "
                                 f"not {v}")
        if self.weight <= 0:
            raise ValueError(f"job {self.id}: weight must be positive")
        if self.slo_seconds is not None and self.slo_seconds <= 0:
            raise ValueError(f"job {self.id}: slo_seconds must be positive")

    @property
    def remaining_steps(self) -> float:
        return max(self.num_steps - self.steps_done, 0.0)

    @property
    def finished(self) -> bool:
        return self.steps_done >= self.num_steps


@dataclass(frozen=True)
class Entity:
    id: int
    weight: float = 1.0
    internal_policy: EntityPolicy = EntityPolicy.FAIRNESS

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"entity {self.id}: weight must be positive and finite")


@dataclass(frozen=True, order=True)
class JobCombination:
    """One or two jobs sharing the same worker set (ids sorted ascending)."""

    members: tuple

    def __post_init__(self):
        members = tuple(sorted(int(j) for j in self.members))
        if not 1 <= len(members) <= 2:
            raise ValueError("combinations hold 1 or 2 jobs")
        if len(set(members)) != len(members):
            raise ValueError("combination members must be distinct")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, *job_ids: int) -> "JobCombination":
        return cls(tuple(job_ids))

    @property
    def is_pair(self) -> bool:
        return len(self.members) == 2

    def __str__(self):
        return "+".join(str(m) for m in self.members)
