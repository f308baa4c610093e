"""Round-based scheduling mechanism.

Turns a target allocation matrix into per-round assignments: priorities are
the element-wise ratio of the target allocation to the time fraction each
combination has actually received, and each round greedily schedules the
highest-priority (combination, configuration) cells that fit, never running
a job in more than one combination per round.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .cluster import ClusterSpec
from .jobs import JobCombination
from .matrices import AllocationMatrix, ThroughputMatrix, row_workers


class RoundLedger:
    """Cumulative seconds each combination has spent on each configuration,
    persisted across allocation recomputations.  Configurations are fixed
    per cluster, so an entry is one vector indexed like `T.configs`."""

    def __init__(self, round_duration: float):
        self.round_duration = float(round_duration)
        self.time = {}  # members -> seconds per configuration index
        self.rounds_total = 0
        self.last_scheduled = {}  # members -> round index

    def received(self, T: ThroughputMatrix) -> np.ndarray:
        """(R, C) seconds each row of T has received on each configuration."""
        none = np.zeros(T.num_configs)
        return np.array([self.time.get(combo.members, none) for combo in T.rows]
                        ).reshape(T.num_rows, T.num_configs)

    def rounds_since_scheduled(self, combo: JobCombination) -> float:
        last = self.last_scheduled.get(combo.members)
        return math.inf if last is None else self.rounds_total - last

    def drop_jobs(self, job_ids):
        """Forget ledger entries involving departed jobs."""
        gone = set(job_ids)
        self.time = {m: v for m, v in self.time.items() if gone.isdisjoint(m)}
        self.last_scheduled = {m: r for m, r in self.last_scheduled.items()
                               if gone.isdisjoint(m)}


def compute_priorities(X_opt: AllocationMatrix, ledger: RoundLedger) -> np.ndarray:
    """(R, C) target-over-received ratios: zero where the target allocation
    is zero, infinite where a positive target has received no time yet."""
    received = ledger.received(X_opt.T)
    col_totals = received.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(col_totals > 0, received / np.where(col_totals > 0, col_totals, 1.0), 0.0)
    x = X_opt.values
    values = np.where(x > 0, np.inf, 0.0)
    ratio = (x > 0) & (f > 0)
    values[ratio] = x[ratio] / f[ratio]
    return values


@dataclass
class Assignment:
    combo: JobCombination
    config_index: int
    workers: int  # the combination's scale factor
    worker_ids: list = field(default_factory=list)
    consolidated: bool = True


@dataclass
class RoundPlan:
    assignments: list
    idle_workers: dict  # type_id -> count

    def jobs_scheduled(self):
        out = set()
        for a in self.assignments:
            out.update(a.combo.members)
        return out

    def to_json(self, T: ThroughputMatrix, round_index: int) -> dict:
        return {
            "round": round_index,
            "assignments": [
                {"jobs": list(a.combo.members),
                 "config": T.configs[a.config_index].key(T.cluster),
                 "workers": list(a.worker_ids),
                 "consolidated": a.consolidated}
                for a in self.assignments
            ],
            "idle": {T.cluster.types[t].name: n
                     for t, n in sorted(self.idle_workers.items())},
        }


def plan_round(priorities: np.ndarray, jobs: dict, ledger: RoundLedger,
               T: ThroughputMatrix, work_conserving: bool = True) -> RoundPlan:
    """Greedy highest-priority-first selection of combinations for one round
    on `T.cluster`; `jobs` maps job id -> Job for the rows' `row_workers`.

    Only cells whose accelerator type still has enough free workers for the
    combination's scale factor are candidates, so a large job simply waits
    (its priority keeps rising) rather than blocking the round.  Scheduling a
    combination removes every conflicting combination.  Ties are broken by
    fewest rounds since last scheduled, then lower combination id, then
    column index.
    """
    remaining = {t.id: t.num_workers for t in T.cluster.types}
    workers = row_workers(T, jobs).tolist()
    eligible = [True] * T.num_rows
    since = [ledger.rounds_since_scheduled(combo) for combo in T.rows]
    rows_of_job: dict[int, list] = {}
    for r, combo in enumerate(T.rows):
        for m in combo.members:
            rows_of_job.setdefault(m, []).append(r)
    chosen: list[Assignment] = []

    def take(r: int, c: int):
        chosen.append(Assignment(T.rows[r], c, workers[r]))
        remaining[T.configs[c].type_id] -= workers[r]
        for m in T.rows[r].members:
            for rr in rows_of_job[m]:
                eligible[rr] = False

    def sweep(cells):
        # Priorities are fixed within a round and capacity only shrinks, so a
        # single descending pass is equivalent to repeated argmax over the
        # still-feasible cells.
        for _, _, r, c in sorted(cells):
            if not eligible[r]:
                continue
            if remaining[T.configs[c].type_id] < workers[r]:
                continue
            take(r, c)

    rs, cs = np.nonzero(priorities > 0)
    sweep([(-priorities[r, c], (since[r], T.rows[r].members, c), r, c)
           for r, c in zip(rs.tolist(), cs.tolist())])

    if work_conserving:
        # Hand leftover workers to unscheduled combinations with feasible
        # throughput.  The preferred configuration rotates with the round
        # counter so the filler spreads load across types instead of
        # systematically favoring one (the target allocation, not the
        # filler, is what should express type preferences).
        C = T.num_configs
        rs, cs = np.nonzero(T.feasible)
        sweep([((since[r], T.rows[r].members, (c - ledger.rounds_total) % C), 0, r, c)
               for r, c in zip(rs.tolist(), cs.tolist()) if eligible[r]])

    return RoundPlan(chosen, dict(remaining))


class PlacementError(ValueError):
    """A round plan asks for more workers of a type than the cluster has."""


def place(plan: RoundPlan, cluster: ClusterSpec) -> RoundPlan:
    """Assign concrete worker ids, largest jobs first, first-fit onto servers.

    Multi-worker assignments that fit on one server are marked consolidated.
    Placement is per round; worker ids are stable (type-major, then server).
    """
    configs = cluster.configurations
    first_id = accumulate((t.num_workers for t in cluster.types), initial=0)
    # The free worker ids on each server of each type, lowest first.
    free = {t.id: [list(range(f + s, f + min(s + t.workers_per_server, t.num_workers)))
                   for s in range(0, t.num_workers, t.workers_per_server)]
            for t, f in zip(cluster.types, first_id)}
    for a in sorted(plan.assignments, key=lambda a: (-a.workers, a.combo.members)):
        t = cluster.types[configs[a.config_index].type_id]
        sf, servers = a.workers, free[t.id]
        # First fit: first server with the whole group free, else spread in
        # server order.
        whole = next((s for s, ids in enumerate(servers) if len(ids) >= sf), None)
        if whole is not None:
            grabs = [(whole, sf)]
        else:
            grabs, need = [], sf
            for s, ids in enumerate(servers):
                if need and ids:
                    grabs.append((s, min(len(ids), need)))
                    need -= grabs[-1][1]
            if need:
                raise PlacementError(f"{sf} workers of {t.name} requested but "
                                     f"only {sf - need} are free this round")
        a.worker_ids = []
        for s, k in grabs:
            a.worker_ids += servers[s][:k]
            del servers[s][:k]
        a.consolidated = whole is not None
    return plan


def settle_round(plan: RoundPlan, ledger: RoundLedger, T: ThroughputMatrix):
    """Credit one round to every scheduled combination and advance the round
    counter; unscheduled combinations are untouched and therefore gain
    priority next round."""
    for a in plan.assignments:
        members = a.combo.members
        if members not in ledger.time:
            ledger.time[members] = np.zeros(T.num_configs)
        ledger.time[members][a.config_index] += ledger.round_duration
        ledger.last_scheduled[members] = ledger.rounds_total
    ledger.rounds_total += 1


def write_round_log(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
