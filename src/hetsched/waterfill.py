"""Hierarchical max-min fairness via water filling.

Each iteration splits every entity's weight across its still-active jobs
according to the entity's internal policy, raises all active jobs' scaled
normalized throughputs at rates proportional to those weights, then freezes
the jobs that have hit a bottleneck.  Frozen jobs keep their achieved
throughput through carry-over constraints while the remaining jobs keep
rising, so the final allocation is Pareto efficient at every level of the
hierarchy.  Both entry points run over the `ProblemSpace` their caller
compiled and return a `PolicyResult` that also records every iteration.

Bottleneck detection is settled with LPs: one gain LP with an objective
per active job, then one screening LP that asks whether every job able to
gain on its own can gain at the same time.  A mixed-integer program runs
only when the screen fails or a gain sits too close to the strictness
slack to call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jobs import EntityPolicy
from .lp import Relation, solve_lp, solve_lp_each
from .matrices import AllocationMatrix, effective_throughput
from .milp import MixedIntegerProgram, solve_milp
from .policies import (PolicyError, PolicyInfeasibleError, PolicyResult,
                       ProblemSpace, max_min_lp)

# Strictness slack for "can improve" as a fraction of each job's largest
# throughput (LPs cannot express strict inequalities).  The constraint
# geometry can attenuate a slack violation by two orders of magnitude before
# it reaches the solver's feasibility test, so this must sit well above the
# 1e-7 solver tolerance; 1e-4 means "improvable by at least 0.01% of the
# job's best rate", which is far below any scheduling-relevant difference.
DELTA_FRACTION = 1e-4
# A job counts as improvable only if its directly computed gain clears this
# fraction of the slack; gains in [VERIFY_FRACTION * delta, delta) are left to
# the MILP, where its tolerance and this check could disagree with a screen.
VERIFY_FRACTION = 0.5
# Slack under the level and carry rows of the tightening LP, so rounding in
# the level LP's solution cannot make its own level infeasible.
TIGHTEN_SLACK = 1e-9


@dataclass
class WaterfillIteration:
    weights: dict
    level: float
    allocation: AllocationMatrix
    normalized: dict
    bottlenecks: set


@dataclass
class WaterfillResult(PolicyResult):
    """The last iteration's allocation; the objective is the first
    iteration's water level, the max-min value of the most constrained job
    group."""

    iterations: list = field(default_factory=list)

    @property
    def normalized(self) -> dict:
        return self.iterations[-1].normalized


def assign_job_weights(entities, jobs, done: set) -> dict:
    """Distribute each entity's weight over its active members.

    Fairness splits the weight equally; FIFO gives it all to the
    earliest-arrived active member.  Jobs already bottlenecked get weight 0.
    """
    by_entity: dict[int, list] = {}
    for j in jobs:
        by_entity.setdefault(j.entity_id, []).append(j)
    weights = {j.id: 0.0 for j in jobs}
    for ent in entities:
        members = [j for j in by_entity.get(ent.id, []) if j.id not in done]
        if not members:
            continue
        if ent.internal_policy is EntityPolicy.FAIRNESS:
            share = ent.weight / len(members)
            for j in members:
                weights[j.id] = share
        else:
            first = min(members, key=lambda j: (j.arrival_time, j.id))
            weights[first.id] = ent.weight
    return weights


def _carry_rows(space: ProblemSpace, thr_prev: dict) -> list:
    """Rows keeping every job's throughput at or above `thr_prev`."""
    return [(space.coeffs[j.id], Relation.GE, thr_prev[j.id]) for j in space.jobs]


def _level_lp(space: ProblemSpace, weights: dict, t_prev: dict,
              thr_prev: dict) -> float:
    """Water level of one iteration: the max-min LP raising every weighted
    job's scaled normalized throughput above its previous level, plus carry
    rows that keep any job's raw throughput from dropping."""
    weighted = [j for j in space.jobs if weights[j.id] > 0]
    lp = max_min_lp(
        space,
        {j.id: j.scale_factor / (weights[j.id] * space.equal_norm[j.id])
         for j in weighted},
        {j.id: t_prev[j.id] / weights[j.id] for j in weighted})
    for j in space.jobs:
        if thr_prev[j.id] > 0:
            lp.add_constraint(np.append(space.coeffs[j.id], 0.0), Relation.GE,
                              thr_prev[j.id])
    res = solve_lp(lp)
    if not res.optimal:
        raise PolicyInfeasibleError(f"water-filling LP returned {res.status}")
    return res.objective_value


def _tighten_lp(space: ProblemSpace, weights: dict, t_prev: dict,
                thr_prev: dict, level: float) -> AllocationMatrix:
    """Re-solve at the found water level, minimizing total allocated time.

    The max-min LP can return a vertex that hands surplus throughput to
    non-bottlenecked jobs; the lean re-solve pins every weighted job at
    exactly the water level so bottleneck detection sees the true frontier.
    """
    rows = []
    for j in space.jobs:
        w = weights[j.id]
        if w > 0:
            rows.append((j.scale_factor / space.equal_norm[j.id] * space.coeffs[j.id],
                         Relation.GE, t_prev[j.id] + w * level - TIGHTEN_SLACK))
        if thr_prev[j.id] > 0:
            rows.append((space.coeffs[j.id], Relation.GE,
                         thr_prev[j.id] - TIGHTEN_SLACK))
    res = solve_lp(space.lp(np.ones(space.n_cells), rows, maximize=False))
    if not res.optimal:
        raise PolicyInfeasibleError(f"tightening LP returned {res.status}")
    return space.allocation(res.x)


def max_gain(space: ProblemSpace, thr_prev: dict, job_ids) -> dict:
    """Largest throughput increase available to each of `job_ids` alone
    while every job keeps at least its previous throughput.  The gain LPs
    differ only in their objective, so they are solved as one LP with one
    objective per job; a job whose LP has no optimum gains 0.0."""
    lp = space.lp(np.zeros(space.n_cells), _carry_rows(space, thr_prev))
    results = solve_lp_each(lp, [space.coeffs[job_id] for job_id in job_ids])
    return {job_id: res.objective_value - thr_prev[job_id] if res.optimal else 0.0
            for job_id, res in zip(job_ids, results)}


def find_bottlenecks(space: ProblemSpace, thr_prev: dict,
                     active_weights: dict) -> set:
    """Jobs whose effective throughput cannot rise without lowering another's.

    `thr_prev` holds every job's effective throughput under the previous
    allocation X_prev.  A job is improvable when it can gain at least its
    strictness slack delta_j = DELTA_FRACTION * Y_j (Y_j its best rate)
    while every job keeps at least its previous throughput.  The answer is
    the active jobs left out of the largest set that can improve together,
    ties going to the lexicographically smallest choice of flags, and then
    every job whose own gain falls short of VERIFY_FRACTION * delta_j.

    The gain LP (`max_gain`, one objective per active job) names the
    candidates, the jobs that can gain delta_j alone.  If every other gain
    is below VERIFY_FRACTION * delta_j, one feasibility LP checks that all
    candidates can gain delta_j at once while every other active job stays
    capped at its previous throughput.  When it can, the candidates are
    exactly the improvable jobs: no larger set exists, since any job in one
    must gain delta_j alone, and the largest set is unique, so no tie is
    left to break.  With no candidates X_prev itself is the witness.
    Otherwise (a gain in [VERIFY_FRACTION * delta_j, delta_j), or
    candidates that conflict) the bottleneck MILP decides.
    """
    active = [j for j in space.jobs if active_weights.get(j.id, 0.0) > 0]
    delta = {j.id: DELTA_FRACTION * space.T.max_throughput(j.id) for j in active}
    gain = max_gain(space, thr_prev, [j.id for j in active])
    cand = {j.id for j in active if gain[j.id] >= delta[j.id]}
    in_band = any(VERIFY_FRACTION * delta[j.id] <= gain[j.id] < delta[j.id]
                  for j in active)
    if not in_band and (not cand or _screen_feasible(space, active, thr_prev,
                                                     delta, cand)):
        return {j.id for j in active} - cand
    return _milp_bottlenecks(space, active, thr_prev, delta, gain)


def _screen_feasible(space: ProblemSpace, active: list, thr_prev: dict,
                     delta: dict, cand: set) -> bool:
    """Whether every candidate can gain its slack at once while every other
    active job stays at its previous throughput."""
    rows = _carry_rows(space, thr_prev) + [
        (space.coeffs[j.id], Relation.GE, thr_prev[j.id] + delta[j.id])
        if j.id in cand else (space.coeffs[j.id], Relation.LE, thr_prev[j.id])
        for j in active]
    return solve_lp(space.lp(np.zeros(space.n_cells), rows)).optimal


def _milp_bottlenecks(space: ProblemSpace, active: list, thr_prev: dict,
                      delta: dict, gain: dict) -> set:
    """The bottleneck MILP: a binary flag per active job that is 1 exactly
    when the job gains delta_j, maximizing the number of flags.  The big-M
    rows can attenuate a sub-slack violation below the solver's feasibility
    tolerance, so a flag at 1 counts only if the job's own gain clears
    VERIFY_FRACTION of its slack."""
    n_z = len(active)
    n = space.n_cells + n_z
    obj = np.zeros(n)
    obj[space.n_cells:] = 1.0
    rows = _carry_rows(space, thr_prev)
    for k, j in enumerate(active):
        Y = space.T.max_throughput(j.id)
        # z=1 forces a strict improvement of delta; z=0 caps the job at its
        # previous throughput (combined with the carry row above).
        flag = np.arange(n_z) == k
        rows.append((np.append(space.coeffs[j.id],
                               np.where(flag, -(Y + delta[j.id]), 0.0)),
                     Relation.GE, thr_prev[j.id] - Y))
        rows.append((np.append(space.coeffs[j.id], np.where(flag, -Y, 0.0)),
                     Relation.LE, thr_prev[j.id]))
    # MixedIntegerProgram bounds the flags to [0, 1].
    lp = space.lp(obj, rows)
    res = solve_milp(MixedIntegerProgram(lp, set(range(space.n_cells, n))))
    if not res.optimal:  # X_prev is a witness, so only the solver can fail here
        raise PolicyError(f"bottleneck MILP not solved: {res.status.value}")
    return {j.id for k, j in enumerate(active)
            if round(res.x[space.n_cells + k]) == 0
            or gain[j.id] < VERIFY_FRACTION * delta[j.id]}


def hierarchical_waterfill(space: ProblemSpace, entities) -> WaterfillResult:
    """Water filling over entities, each splitting its weight over its jobs
    by its internal policy."""
    if entities is None:
        raise PolicyInfeasibleError("hierarchical policy requires entities")
    known = {e.id for e in entities}
    strays = [j.id for j in space.jobs if j.entity_id not in known]
    if strays:
        raise PolicyInfeasibleError(
            "hierarchical policy requires every job's entity among the "
            f"entities; jobs {strays} have none or an unlisted one")
    return _fill(space,
                 lambda done: assign_job_weights(entities, space.jobs, done))


def single_level_waterfill(space: ProblemSpace) -> WaterfillResult:
    """Water filling for flat max-min fairness: each job is its own entity
    carrying the job's weight."""
    return _fill(space, lambda done: {
        j.id: 0.0 if j.id in done else float(j.weight) for j in space.jobs})


def _fill(space: ProblemSpace, weights_of) -> WaterfillResult:
    """Iterate level LPs and bottleneck detection until every job is frozen;
    `weights_of(done)` gives the job weights once the jobs in `done` are
    frozen."""
    jobs = space.jobs
    done: set = set()
    t_prev = {j.id: 0.0 for j in jobs}
    thr_prev = {j.id: 0.0 for j in jobs}
    iterations = []

    for _ in range(len(jobs) + 1):
        weights = weights_of(done)
        if all(w <= 0 for w in weights.values()):
            break
        level = _level_lp(space, weights, t_prev, thr_prev)
        X = _tighten_lp(space, weights, t_prev, thr_prev, level)
        thr = {j.id: effective_throughput(j.id, X, space.T) for j in jobs}
        normalized = {j.id: thr[j.id] / space.equal_norm[j.id] for j in jobs}
        bottlenecks = find_bottlenecks(space, thr, weights)
        if not bottlenecks:
            # Numerically possible only when every weighted job can still
            # move; freeze them all to guarantee termination.
            bottlenecks = {j.id for j in jobs
                           if weights[j.id] > 0 and j.id not in done}
        iterations.append(WaterfillIteration(weights, level, X, normalized,
                                             bottlenecks))
        done |= bottlenecks
        t_prev = {j.id: normalized[j.id] * j.scale_factor for j in jobs}
        thr_prev = thr
        if all(j.id in done for j in jobs):
            break

    if not iterations:
        raise PolicyInfeasibleError("water filling needs a job with positive weight")
    return WaterfillResult(iterations[-1].allocation, iterations[0].level,
                           iterations=iterations)
