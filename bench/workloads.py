"""The four benchmark workloads and how their inputs are made from a seed.

Every workload simulates a fixed set of traces drawn from the run's seed.
Trace structure (arrival order, templates, scale factors, entities) comes
from ``hetsched.traces.generate_trace``.  Job durations and inter-arrival
gaps are then stratified: each trace holds exactly the mid-quantiles of the
generator's own truncated-exponential duration law and of the exponential
gap law, shuffled by the seed.  The marginal distributions are unchanged,
but a single long job or a burst of arrivals no longer decides a whole
run's figures, so runs on different seeds can be compared.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from hetsched.cluster import make_cluster
from hetsched.policies import parse_policy
from hetsched.simulator import EstimatorConfig, SimConfig, Simulation
from hetsched import traces

# Costs and server sizes of the CLI's default cluster.
COSTS = {"V100": 3.0, "P100": 1.5, "K80": 0.5}
SERVERS = {"V100": 4, "P100": 4, "K80": 8}


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    workers_per_type: int     # V100 = P100 = K80 count
    mode: str                 # "continuous" | "static"
    jobs: int                 # jobs per trace
    traces: int               # traces simulated per measured pass
    jobs_per_hour: float | None = None
    duration_mean_minutes: float = traces.DURATION_MEAN_MINUTES
    single_worker: bool = False
    entities: int = 0
    entity_policy: str = "fair"
    references: int = 0       # estimator reference templates (0 = oracle)


WORKLOADS = {w.name: w for w in (
    Workload("las-reset", "las", 36, "continuous", jobs=80, traces=6,
             jobs_per_hour=48.0, duration_mean_minutes=100.0),
    Workload("ss-estimated", "las+ss", 36, "continuous", jobs=20, traces=4,
             jobs_per_hour=60.0, single_worker=True, references=8),
    Workload("hier-wf", "hier:fair", 4, "continuous", jobs=8, traces=8,
             jobs_per_hour=12.0, single_worker=True, entities=3,
             entity_policy="fair/fifo/fair"),
    Workload("makespan-static", "makespan", 36, "static", jobs=24, traces=6),
)}


def trace_seeds(seed: int, count: int) -> list:
    return [seed * 1000 + k for k in range(count)]


def _mid_quantiles(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.permutation((np.arange(n) + 0.5) / n)


def _stratify(trace: traces.Trace, wl: Workload, templates: dict,
              seed: int) -> traces.Trace:
    rng = np.random.default_rng([seed, 7])
    n = len(trace.entries)
    lo, hi = traces.DURATION_MIN_MINUTES, traces.DURATION_MAX_MINUTES
    mean = wl.duration_mean_minutes
    z = 1.0 - math.exp(-(hi - lo) / mean)
    minutes = lo - mean * np.log1p(-_mid_quantiles(rng, n) * z)
    if wl.mode == "continuous":
        gaps = -np.log1p(-_mid_quantiles(rng, n)) * 3600.0 / wl.jobs_per_hour
        arrivals = np.cumsum(gaps)
    else:
        arrivals = np.zeros(n)
    entries = []
    for e, d, a in zip(trace.entries, minutes, arrivals):
        best = templates[e.template].isolated_throughput(0, e.scale_factor,
                                                         consolidated=True)
        entries.append(dataclasses.replace(
            e, arrival_time=round(float(a), 3),
            num_steps=max(1, int(round(float(d) * 60.0 * best)))))
    return dataclasses.replace(trace, entries=entries)


def make_traces(wl: Workload, seed: int, templates: list) -> list:
    by_name = {t.name: t for t in templates}
    out = []
    for s in trace_seeds(seed, wl.traces):
        lam = wl.jobs_per_hour / 3600.0 if wl.mode == "continuous" else None
        trace = traces.generate_trace(
            wl.mode, wl.jobs, templates, seed=s, lambda_rate=lam,
            single_worker=wl.single_worker, num_entities=wl.entities,
            entity_policy=wl.entity_policy,
            duration_mean_minutes=wl.duration_mean_minutes)
        out.append(_stratify(trace, wl, by_name, s))
    return out


def sim_config(wl: Workload, seed: int, templates: list) -> SimConfig:
    n = wl.workers_per_type
    cluster = make_cluster({"V100": n, "P100": n, "K80": n}, costs=COSTS,
                           workers_per_server=SERVERS)
    estimator = None
    if wl.references:
        estimator = EstimatorConfig(
            reference_names=[t.name for t in templates[:wl.references]])
    return SimConfig(cluster=cluster, policy=parse_policy(wl.policy),
                     estimator=estimator, seed=seed)


def set_up(wl: Workload, seed: int):
    """Catalog load, trace generation and one Simulation per trace: the
    work a user pays before the first round is simulated."""
    templates = traces.load_catalog()
    trace_list = make_traces(wl, seed, templates)
    configs = [sim_config(wl, s, templates)
               for s in trace_seeds(seed, wl.traces)]
    sims = [Simulation(c, t, templates) for c, t in zip(configs, trace_list)]
    return templates, trace_list, configs, sims
