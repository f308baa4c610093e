"""Synthetic workload generation.

A catalog of job templates stands in for profiled models: each template has
per-tier throughputs (tier 0 is the fastest accelerator class), distributed
scaling efficiencies for consolidated and spread placements, and a pair of
colocation scalars (sensitivity, aggressiveness) from which pairwise
normalized colocated throughputs are derived.  The derived colocation matrix
is a clipped rank-2 surface, which is what makes low-rank completion work.

Traces draw arrivals from a Poisson process, job durations from an
exponential distribution truncated to [10^1.5, 10^4] minutes, and worker
counts from a 70/25/5 single/2-4/8 mix.
"""

from __future__ import annotations

import importlib.resources as resources
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .jobs import ENTITY_POLICY_NAMES, Entity

DURATION_MIN_MINUTES = 10 ** 1.5
DURATION_MAX_MINUTES = 1e4
DURATION_MEAN_MINUTES = 10 ** 2.5
SCALE_FACTOR_MIX = ((1, 0.70), (2, 0.125), (4, 0.125), (8, 0.05))
COLOC_FLOOR = 0.35


@dataclass(frozen=True)
class JobTemplate:
    name: str
    tier_throughputs: tuple  # steps/sec on one worker of tiers 0,1,2 (fast..slow)
    consolidated_efficiency: float
    unconsolidated_efficiency: float
    coloc_sensitivity: float
    coloc_aggressiveness: float

    def isolated_throughput(self, tier: int, scale_factor: int,
                            consolidated: bool) -> float:
        base = self.tier_throughputs[tier % len(self.tier_throughputs)]
        if scale_factor == 1:
            return base
        eff = self.consolidated_efficiency if consolidated \
            else self.unconsolidated_efficiency
        return base * scale_factor * eff ** math.log2(scale_factor)


def colocation_factor(a: JobTemplate, b: JobTemplate) -> float:
    """Normalized throughput of `a` when sharing a worker with `b`."""
    raw = 1.0 - a.coloc_sensitivity * b.coloc_aggressiveness
    return float(min(1.0, max(COLOC_FLOOR, raw)))


def catalog_from_json(doc: dict) -> list:
    return [JobTemplate(d["name"], tuple(d["tier_throughputs"]),
                        d["consolidated_efficiency"], d["unconsolidated_efficiency"],
                        d["coloc_sensitivity"], d["coloc_aggressiveness"])
            for d in doc["templates"]]


def load_catalog(path=None) -> list:
    if path is None:
        with resources.files("hetsched.data").joinpath("templates.json").open() as f:
            return catalog_from_json(json.load(f))
    with open(path) as f:
        return catalog_from_json(json.load(f))


@dataclass
class TraceEntry:
    arrival_time: float
    template: str
    num_steps: int
    scale_factor: int = 1
    weight: float = 1.0
    slo_seconds: float | None = None
    entity_id: int | None = None


@dataclass
class Trace:
    entries: list
    mode: str  # "static" | "continuous"
    seed: int
    entities: list = field(default_factory=list)

    def save(self, path):
        with open(path, "w") as f:
            header = {"mode": self.mode, "seed": self.seed,
                      "entities": [{"id": e.id, "weight": e.weight,
                                    "policy": e.internal_policy.value}
                                   for e in self.entities]}
            f.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for e in self.entries:
                f.write(json.dumps(asdict(e), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        header = lines[0]["header"]
        if not isinstance(header, dict):
            raise TypeError(f"the header must be a JSON object, not {header!r}")
        entities = [Entity(d["id"], d["weight"], d["policy"])
                    for d in header.get("entities", [])]
        entries = [TraceEntry(**d) for d in lines[1:]]
        return cls(entries, header["mode"], header["seed"], entities)


def _truncated_exponential_minutes(rng: np.random.Generator, mean: float) -> float:
    # Inverse-CDF sampling of an exponential restricted to
    # [DURATION_MIN_MINUTES, DURATION_MAX_MINUTES].
    u = rng.random()
    z = 1.0 - math.exp(-(DURATION_MAX_MINUTES - DURATION_MIN_MINUTES) / mean)
    return DURATION_MIN_MINUTES - mean * math.log(1.0 - u * z)


def _sample_scale_factor(rng: np.random.Generator) -> int:
    u = rng.random()
    acc = 0.0
    for value, p in SCALE_FACTOR_MIX:
        acc += p
        if u < acc:
            return value
    return SCALE_FACTOR_MIX[-1][0]


def generate_trace(mode: str, num_jobs: int, templates, seed: int = 0,
                   lambda_rate: float | None = None,
                   single_worker: bool = False,
                   max_scale_factor: int | None = None,
                   slo_factors: tuple | None = None,
                   num_entities: int = 0,
                   entity_policy: str = "fair",
                   duration_mean_minutes: float = DURATION_MEAN_MINUTES) -> Trace:
    """Draw a workload trace.

    Static mode puts every arrival at t=0; continuous mode needs a Poisson
    arrival rate (jobs/second).  Durations are converted to steps via each
    template's fastest-tier throughput at the drawn scale factor, so the
    sampled value is the job's best-case runtime.
    """
    if mode not in ("static", "continuous"):
        raise ValueError(f"unknown trace mode {mode!r}")
    if mode == "continuous" and (lambda_rate is None or not lambda_rate > 0):
        raise ValueError(f"continuous mode requires a positive lambda, "
                         f"not {lambda_rate}")
    if mode == "static" and lambda_rate is not None:
        raise ValueError("static mode does not take a lambda")
    if num_jobs < 0 or num_entities < 0:
        raise ValueError(f"the job and entity counts must not be negative, "
                         f"not {num_jobs} and {num_entities}")
    if max_scale_factor is not None and max_scale_factor < 1:
        raise ValueError(f"the largest scale factor must be at least 1, "
                         f"not {max_scale_factor}")
    if not (math.isfinite(duration_mean_minutes) and duration_mean_minutes > 0):
        raise ValueError(f"the mean duration must be a positive number of "
                         f"minutes, not {duration_mean_minutes}")
    if slo_factors is not None and not all(f > 0 for f in slo_factors):
        raise ValueError(f"SLO factors must be positive, not {list(slo_factors)}")
    policies = [ENTITY_POLICY_NAMES.get(name) for name in entity_policy.split("/")]
    if None in policies:
        raise ValueError(f"unknown entity policy in {entity_policy!r}; "
                         f"choose from {'/'.join(ENTITY_POLICY_NAMES)}")

    rng = np.random.default_rng(seed)
    entities = [Entity(e, float(e + 1), policies[e % len(policies)])
                for e in range(num_entities)]

    entries = []
    now = 0.0
    for i in range(num_jobs):
        if mode == "continuous":
            now += float(rng.exponential(1.0 / lambda_rate))
            arrival = now
        else:
            arrival = 0.0
        template = templates[int(rng.integers(0, len(templates)))]
        sf = 1 if single_worker else _sample_scale_factor(rng)
        if max_scale_factor is not None:
            sf = min(sf, max_scale_factor)
        duration_s = _truncated_exponential_minutes(rng, duration_mean_minutes) * 60.0
        best_thr = template.isolated_throughput(0, sf, consolidated=True)
        num_steps = max(1, int(round(duration_s * best_thr)))
        slo = None
        if slo_factors:
            factor = float(slo_factors[int(rng.integers(0, len(slo_factors)))])
            slo = duration_s * factor
        entity_id = (i % num_entities) if num_entities > 0 else None
        entries.append(TraceEntry(arrival_time=round(arrival, 3),
                                  template=template.name,
                                  num_steps=num_steps, scale_factor=sf,
                                  weight=1.0, slo_seconds=slo,
                                  entity_id=entity_id))
    return Trace(entries, mode, seed, entities)
