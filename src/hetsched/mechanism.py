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

import numpy as np

from .cluster import ClusterSpec
from .jobs import JobCombination
from .matrices import AllocationMatrix, ThroughputMatrix

DEFAULT_ROUND_DURATION = 360.0  # seconds; a six-minute quantum


def _config_key(cfg) -> tuple:
    return (cfg.type_id, cfg.placement.value)


class RoundLedger:
    """Cumulative seconds each combination has spent on each configuration,
    persisted across allocation recomputations."""

    def __init__(self, round_duration: float = DEFAULT_ROUND_DURATION):
        if round_duration <= 0:
            raise ValueError("round_duration must be positive")
        self.round_duration = float(round_duration)
        self.time = {}  # (members, (type_id, placement)) -> seconds
        self.rounds_total = 0
        self.last_scheduled = {}  # members -> round index

    def seconds(self, combo: JobCombination, key: tuple) -> float:
        return self.time.get((combo.members, key), 0.0)

    def add(self, combo: JobCombination, key: tuple, elapsed: float):
        if elapsed < 0:
            raise ValueError("elapsed must be nonnegative")
        slot = (combo.members, key)
        self.time[slot] = self.time.get(slot, 0.0) + elapsed

    def rounds_since_scheduled(self, combo: JobCombination) -> float:
        last = self.last_scheduled.get(combo.members)
        return math.inf if last is None else self.rounds_total - last

    def drop_jobs(self, job_ids):
        """Forget ledger rows involving departed jobs."""
        gone = set(job_ids)
        self.time = {slot: v for slot, v in self.time.items()
                     if not (set(slot[0]) & gone)}
        self.last_scheduled = {m: r for m, r in self.last_scheduled.items()
                               if not (set(m) & gone)}


def compute_priorities(X_opt: AllocationMatrix, ledger: RoundLedger) -> np.ndarray:
    """(R, C) target-over-received ratios: zero where the target allocation
    is zero, infinite where a positive target has received no time yet."""
    T = X_opt.T
    keys = [_config_key(cfg) for cfg in T.configs]
    received = np.array([[ledger.seconds(combo, key) for key in keys]
                         for combo in T.rows]).reshape(T.num_rows, T.num_configs)
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


def plan_round(priorities: np.ndarray, jobs: dict, cluster: ClusterSpec,
               ledger: RoundLedger, T: ThroughputMatrix,
               work_conserving: bool = True) -> RoundPlan:
    """Greedy highest-priority-first selection of combinations for one round.

    Only cells whose accelerator type still has enough free workers for the
    combination's scale factor are candidates, so a large job simply waits
    (its priority keeps rising) rather than blocking the round.  Scheduling a
    combination removes every conflicting combination.  Ties are broken by
    fewest rounds since last scheduled, then lower combination id, then
    column index.
    """
    remaining = {t.id: t.num_workers for t in cluster.types}
    eligible = [True] * T.num_rows
    since = [ledger.rounds_since_scheduled(combo) for combo in T.rows]
    rows_of_job: dict[int, list] = {}
    for r, combo in enumerate(T.rows):
        for m in combo.members:
            rows_of_job.setdefault(m, []).append(r)
    chosen: list[Assignment] = []

    def scale_factor(r: int) -> int:
        return jobs[T.rows[r].members[0]].scale_factor

    def take(r: int, c: int):
        chosen.append(Assignment(T.rows[r], c))
        remaining[T.configs[c].type_id] -= scale_factor(r)
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
            if remaining[T.configs[c].type_id] < scale_factor(r):
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


class ServerPool:
    """Concrete worker/server layout of a cluster, used for placement."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self.servers = []  # (type_id, server_index, capacity)
        self.worker_base = {}
        base = 0
        for t in cluster.types:
            self.worker_base[t.id] = base
            full, rem = divmod(t.num_workers, t.workers_per_server)
            sizes = [t.workers_per_server] * full + ([rem] if rem else [])
            for s, size in enumerate(sizes):
                self.servers.append((t.id, s, size))
            base += t.num_workers


def place(plan: RoundPlan, cluster: ClusterSpec, jobs: dict) -> RoundPlan:
    """Assign concrete worker ids, largest jobs first, first-fit onto servers.

    Multi-worker assignments that fit on one server are marked consolidated.
    Placement is per round; worker ids are stable (type-major, then server).
    """
    pool = ServerPool(cluster)
    free = {}
    next_slot = {}
    for t_id, s, cap in pool.servers:
        free[(t_id, s)] = cap
        next_slot[(t_id, s)] = 0

    def server_offset(t_id: int, s: int) -> int:
        t = cluster.types[t_id]
        return pool.worker_base[t_id] + s * t.workers_per_server

    order = sorted(range(len(plan.assignments)),
                   key=lambda i: (-jobs[plan.assignments[i].combo.members[0]].scale_factor,
                                  plan.assignments[i].combo.members))
    configs = cluster.configurations
    for i in order:
        a = plan.assignments[i]
        cfg = configs[a.config_index]
        t_id = cfg.type_id
        sf = jobs[a.combo.members[0]].scale_factor
        servers = [(t, s) for (t, s, cap) in pool.servers if t == t_id]
        # First fit: first server with the whole group free, else spread in
        # server order.
        one_server = next(((t, s) for (t, s) in servers if free[(t, s)] >= sf), None)
        workers = []
        if one_server is not None:
            t, s = one_server
            start = server_offset(t, s) + next_slot[(t, s)]
            workers = list(range(start, start + sf))
            free[(t, s)] -= sf
            next_slot[(t, s)] += sf
            a.consolidated = True
        else:
            need = sf
            for (t, s) in servers:
                if need == 0:
                    break
                take = min(free[(t, s)], need)
                if take > 0:
                    start = server_offset(t, s) + next_slot[(t, s)]
                    workers.extend(range(start, start + take))
                    free[(t, s)] -= take
                    next_slot[(t, s)] += take
                    need -= take
            if need > 0:
                raise AssertionError("placement exceeded type capacity")
            a.consolidated = sf == 1
        a.worker_ids = workers
    return plan


def settle_round(plan: RoundPlan, ledger: RoundLedger, elapsed: float,
                 T: ThroughputMatrix):
    """Credit elapsed seconds to every scheduled combination and advance the
    round counter; unscheduled combinations are untouched and therefore gain
    priority next round."""
    if elapsed < 0 or elapsed > ledger.round_duration + 1e-9:
        raise ValueError("elapsed must lie within the round duration")
    for a in plan.assignments:
        cfg = T.configs[a.config_index]
        ledger.add(a.combo, _config_key(cfg), elapsed)
        ledger.last_scheduled[a.combo.members] = ledger.rounds_total
    ledger.rounds_total += 1


def write_round_log(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
