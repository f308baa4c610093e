"""Round-based scheduling mechanism.

Turns a target allocation matrix into per-round assignments: priorities are
the element-wise ratio of the target allocation to the time fraction each
combination has actually received, and each round greedily schedules the
highest-priority (combination, configuration) cells that fit, never running
a job in more than one combination per round.

What depends only on the decision is compiled once per decision
(`CompiledAllocation`): the positive target cells, each row's worker count,
conflicting rows, rank in `members` order and feasible columns.  The
`RoundLedger` keeps its seconds as an array aligned to the current matrix
and remaps itself by combination when the matrix changes, so a round is
one priority pass over arrays, then greedy walks in sorted order over the
candidate cells and, to fill idle workers, over the rows left.

A plan whose greedy pass took every positive target cell, while the filler
took nothing, repeats (`repeats`): until the decision changes, every later
round takes the same cells, so `place` gives the same worker ids, and only
the order of the assignments can change.  The caller may then keep the
placed plan and `reorder` it each round instead of planning again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterSpec
from .jobs import JobCombination
from .matrices import AllocationMatrix, ThroughputMatrix


class RoundLedger:
    """Cumulative seconds each combination has spent on each configuration,
    and the round it last ran, persisted across allocation recomputations.

    The ledger aligns itself to the matrix it is asked about: `seconds`
    (R, C) and `last` (R,; -inf for never ran) follow `rows`, the current
    matrix's rows, and are remapped by combination whenever the rows change.
    Rows outside the current matrix keep their history in `time` and
    `last_scheduled` (members -> seconds per configuration / round index),
    so a pair row that one decision prunes and a later one re-admits picks
    up where it left off."""

    def __init__(self, round_duration: float):
        self.round_duration = float(round_duration)
        self.rounds_total = 0
        self.rows = ()
        self.seconds = np.zeros((0, 0))
        self.last = np.zeros(0)
        self.time = {}
        self.last_scheduled = {}

    def align(self, T: ThroughputMatrix):
        """Remap `seconds` and `last` to T's rows, by combination."""
        if T.rows is self.rows or (T.rows == self.rows
                                   and self.seconds.shape[1] == T.num_configs):
            self.rows = T.rows
            return
        ran = np.flatnonzero(self.last > -np.inf)
        for r, seconds, last in zip(ran.tolist(), self.seconds[ran],
                                    self.last[ran].tolist()):
            self.time[self.rows[r].members] = seconds
            self.last_scheduled[self.rows[r].members] = last
        self.rows = T.rows
        self.seconds = np.zeros((T.num_rows, T.num_configs))
        self.last = np.full(T.num_rows, -np.inf)
        for r, combo in enumerate(T.rows):
            seconds = self.time.pop(combo.members, None)
            if seconds is not None:
                self.seconds[r] = seconds
                self.last[r] = self.last_scheduled.pop(combo.members)

    def received(self, T: ThroughputMatrix) -> np.ndarray:
        """(R, C) seconds each row of T has received on each configuration."""
        self.align(T)
        return self.seconds

    def drop_jobs(self, job_ids):
        """Forget ledger entries involving departed jobs.  Their rows in the
        current matrix read as never run, and the next remap drops them."""
        gone = set(job_ids)
        self.time = {m: v for m, v in self.time.items() if gone.isdisjoint(m)}
        self.last_scheduled = {m: r for m, r in self.last_scheduled.items()
                               if gone.isdisjoint(m)}
        dropped = [r for r, combo in enumerate(self.rows)
                   if not gone.isdisjoint(combo.members)]
        self.seconds[dropped] = 0.0
        self.last[dropped] = -np.inf


class CompiledAllocation:
    """Everything the round mechanism reads of one decision, built once
    from its allocation matrix: the allocation and its positive cells with
    their count, each row's worker count (the allocation's `workers`) and
    the rows it conflicts with (those sharing a member, itself included),
    each row's rank in `members` order, which columns it can run on, and
    each column's accelerator type."""

    def __init__(self, allocation: AllocationMatrix):
        T = self.T = allocation.T
        self.x = allocation.values
        self.positive = self.x > 0
        # Counted by a routine the ledger already calls: a new one pages
        # numpy code into the resident set.
        self.num_positive = len(np.flatnonzero(self.positive))
        self.unreceived = np.where(self.positive, np.inf, 0.0)
        self.workers = allocation.workers.tolist()
        rows_of_job: dict[int, list] = {}
        for r, combo in enumerate(T.rows):
            for m in combo.members:
                rows_of_job.setdefault(m, []).append(r)
        self.conflicts = [[rr for m in combo.members for rr in rows_of_job[m]]
                          for combo in T.rows]
        self.rank = [0] * T.num_rows
        for k, r in enumerate(sorted(range(T.num_rows),
                                     key=lambda r: T.rows[r].members)):
            self.rank[r] = k
        self.feasible = T.feasible.tolist()
        self.type_of = T.type_of.tolist()


def compute_priorities(decision: CompiledAllocation,
                       ledger: RoundLedger) -> np.ndarray:
    """(R, C) target-over-received ratios: zero where the target allocation
    is zero, infinite where a positive target has received no time yet."""
    received = ledger.received(decision.T)
    col_totals = received.sum(axis=0)
    # A column with no time received is all zeros, so dividing it by one
    # leaves f at zero there.
    f = received / np.where(col_totals > 0, col_totals, 1.0)
    return np.divide(decision.x, f, out=decision.unreceived.copy(),
                     where=decision.positive & (f > 0))


@dataclass
class Assignment:
    combo: JobCombination
    row: int  # the combination's row in the decision's matrix
    config_index: int
    workers: int  # the combination's scale factor
    worker_ids: list = field(default_factory=list)
    consolidated: bool = True


@dataclass
class RoundPlan:
    assignments: list
    idle_workers: dict  # type_id -> count
    greedy: int  # assignments the greedy pass took; the filler took the rest

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


def plan_round(priorities: np.ndarray, decision: CompiledAllocation,
               ledger: RoundLedger) -> RoundPlan:
    """Greedy highest-priority-first selection of combinations for one round
    on the decision's cluster.

    Only cells whose accelerator type still has enough free workers for the
    combination's scale factor are candidates, so a large job simply waits
    (its priority keeps rising) rather than blocking the round.  Scheduling a
    combination removes every conflicting combination.  Ties are broken by
    fewest rounds since last scheduled, then lower combination id, then
    column index.
    """
    T = decision.T
    ledger.align(T)
    # Fewest rounds since last scheduled first: the latest last round.
    since, rank = (-ledger.last).tolist(), decision.rank
    workers, type_of = decision.workers, decision.type_of
    remaining = [t.num_workers for t in T.cluster.types]
    eligible = [True] * T.num_rows
    chosen: list[Assignment] = []

    def take(r: int, c: int):
        chosen.append(Assignment(T.rows[r], r, c, workers[r]))
        remaining[type_of[c]] -= workers[r]
        for rr in decision.conflicts[r]:
            eligible[rr] = False

    # Priorities are fixed within a round and capacity only shrinks, so a
    # single descending pass is equivalent to repeated argmax over the
    # still-feasible cells.  Python's sort, not numpy's: on lists this short
    # it is as fast, and numpy's sort code would add its pages to the
    # resident set.
    rs, cs = np.nonzero(priorities > 0)
    minus_priority = (-priorities[rs, cs]).tolist()
    rs, cs = rs.tolist(), cs.tolist()
    cells = zip(minus_priority, [since[r] for r in rs], [rank[r] for r in rs],
                cs, rs)
    for _, _, _, c, r in sorted(cells):
        if eligible[r] and remaining[type_of[c]] >= workers[r]:
            take(r, c)
    greedy = len(chosen)

    # Hand leftover workers to unscheduled combinations with feasible
    # throughput.  The preferred configuration rotates with the round
    # counter so the filler spreads load across types instead of
    # systematically favoring one (the target allocation, not the filler,
    # is what should express type preferences).
    C = T.num_configs
    rotation = [(ledger.rounds_total + j) % C for j in range(C)]
    for _, _, r in sorted(zip(since, rank, range(T.num_rows))):
        if not eligible[r]:
            continue
        for c in rotation:
            if decision.feasible[r][c] and remaining[type_of[c]] >= workers[r]:
                take(r, c)
                break

    return RoundPlan(chosen, dict(enumerate(remaining)), greedy)


def repeats(plan: RoundPlan, decision: CompiledAllocation) -> bool:
    """Whether `plan_round` makes `plan`, which it made for `decision`, again
    in every following round of `decision`: its greedy pass took every
    positive target cell, and the filler took nothing.

    A take makes its own row ineligible, so no row then has two positive
    cells.  The positive cells fit together and none conflict, so in any
    priority order the greedy pass takes them all again; the filler then
    sees the same eligible rows and free workers, and its rotation only
    reorders configurations that all failed.  `place` sorts by worker count
    and members, so the worker ids repeat too.  Only the order changes."""
    return plan.greedy == len(plan.assignments) == decision.num_positive


def reorder(plan: RoundPlan, priorities: np.ndarray,
            decision: CompiledAllocation) -> RoundPlan:
    """Sort a repeating plan's assignments as `plan_round`'s greedy pass
    would: every row in it ran last round, so the rounds-since-scheduled key
    ties, and a row's rank alone breaks ties in priority (rows are distinct
    within a plan)."""
    chosen = plan.assignments
    minus_priority = (-priorities[[a.row for a in chosen],
                                  [a.config_index for a in chosen]]).tolist()
    rank = decision.rank
    order = sorted(range(len(chosen)),
                   key=lambda k: (minus_priority[k], rank[chosen[k].row]))
    plan.assignments = [chosen[k] for k in order]
    return plan


class PlacementError(ValueError):
    """A round plan asks for more workers of a type than the cluster has."""


def place(plan: RoundPlan, cluster: ClusterSpec) -> RoundPlan:
    """Assign concrete worker ids, largest jobs first, first-fit onto servers.

    Multi-worker assignments that fit on one server are marked consolidated.
    Placement is per round; worker ids are stable (type-major, then server).
    """
    configs = cluster.configurations
    # The free worker ids on each server of each type, lowest first.
    free = [list(servers) for servers in cluster.servers]
    for a in sorted(plan.assignments, key=lambda a: (-a.workers, a.combo.members)):
        t = cluster.types[configs[a.config_index].type_id]
        sf, servers = a.workers, free[t.id]
        # First fit: first server with the whole group free, else spread in
        # server order.
        for s, ids in enumerate(servers):
            if len(ids) >= sf:
                a.worker_ids, servers[s] = list(ids[:sf]), ids[sf:]
                a.consolidated = True
                break
        else:
            have = sum(map(len, servers))
            if have < sf:
                raise PlacementError(f"{sf} workers of {t.name} requested but "
                                     f"only {have} are free this round")
            a.worker_ids, need = [], sf
            for s, ids in enumerate(servers):
                k = min(len(ids), need)
                a.worker_ids += ids[:k]
                servers[s], need = ids[k:], need - k
            a.consolidated = False
    return plan


def settle_round(plan: RoundPlan, ledger: RoundLedger, T: ThroughputMatrix):
    """Credit one round to every scheduled combination and advance the round
    counter; unscheduled combinations are untouched and therefore gain
    priority next round."""
    ledger.align(T)
    # A plan runs each row at most once, so no cell is credited twice.
    rows = [a.row for a in plan.assignments]
    ledger.seconds[rows, [a.config_index for a in plan.assignments]] += \
        ledger.round_duration
    ledger.last[rows] = ledger.rounds_total
    ledger.rounds_total += 1


def write_round_log(path, records):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
