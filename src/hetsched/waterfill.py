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

The gain LPs of one decision share their rows, and only the carry rows'
right-hand sides change from one iteration to the next; the screen is the
gain LP plus appended rows.  So one `GainRows` per decision keeps the gain
rows as one `lp._Standardized`, and `GainRows.restart` is the only way to
a feasible basis of them.  It restarts from the previous iteration's basis
with a zero-cost dual simplex when it can, and otherwise rebuilds the rows
cold through phase 1.  Every screen starts from the gain LP's feasible
basis plus its new rows' slacks, so it never pays for a cold phase 1.

Each iteration pays one cold phase 1 of its own, the level LP's.  The
tightening LP, whose optimal vertex becomes the allocation, is the level
LP's rows plus one row pinning lam at the level: it is appended to the
level LP's `lp._Standardized` at its optimum, which already satisfies it,
and phase 2 under the minimum-total-time objective starts from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .jobs import EntityPolicy
from .lp import LinearProgram, Relation, _Standardized, dump_each
from .matrices import AllocationMatrix, inorder_sum
# bench/tracing.py wraps these two names where this module binds them.
from .lp import solve_lp  # noqa: F401
from .matrices import effective_throughput  # noqa: F401
from .milp import MixedIntegerProgram, solve_milp
from .policies import (PolicyError, PolicyInfeasibleError, PolicyResult,
                       ProblemSpace, check_entities, max_min_lp)

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
# Slack under the water level where the tightening LP pins lam, so rounding
# in the level LP's solution cannot make its own level infeasible.
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


def _carry_rows(space: ProblemSpace, thr_prev: dict) -> tuple:
    """The row block keeping every job's throughput at or above `thr_prev`."""
    return (space.thr_rows, [Relation.GE] * len(space.jobs),
            [thr_prev[j.id] for j in space.jobs])


def _level_lp(space: ProblemSpace, weights: dict, t_prev: dict,
              thr_prev: dict) -> tuple:
    """Water level of one iteration: the max-min LP raising every weighted
    job's scaled normalized throughput above its previous level, plus carry
    rows that keep any job's raw throughput from dropping.  Returns the LP
    as an `lp._Standardized` at its optimal basis, and the level."""
    weighted = [j for j in space.jobs if weights[j.id] > 0]
    lp = max_min_lp(
        space,
        {j.id: j.scale_factor / (weights[j.id] * space.equal_norm[j.id])
         for j in weighted},
        {j.id: t_prev[j.id] / weights[j.id] for j in weighted})
    carried = [k for k, j in enumerate(space.jobs) if thr_prev[j.id] > 0]
    lp.add_rows(np.column_stack([space.thr_rows[carried], np.zeros(len(carried))]),
                [Relation.GE] * len(carried),
                [thr_prev[space.jobs[k].id] for k in carried])
    dump_each(lambda: lp)
    state = _Standardized(lp)
    state.phase_one()
    res = state.solve(lp.objective)
    if not res.optimal:
        raise PolicyInfeasibleError(f"water-filling LP returned {res.status}")
    return state, res.objective_value


def _tighten(space: ProblemSpace, state: _Standardized,
             level: float) -> AllocationMatrix:
    """Re-solve at the found water level, minimizing total allocated time.

    The max-min LP can return a vertex that hands surplus throughput to
    non-bottlenecked jobs; the lean re-solve pins lam at the level, so
    every weighted job's level row holds it at the water level and
    bottleneck detection sees the true frontier.  The pin row is appended
    to the level LP's rows at their optimum, which satisfies it with its
    slack basic, so phase 2 starts there with no phase 1.
    """
    pin = (np.eye(1, space.n_cells + 1, space.n_cells), [Relation.GE],
           [level - TIGHTEN_SLACK])
    # Maximizing minus the total allocated time minimizes it.
    lean = np.append(np.full(space.n_cells, -1.0), 0.0)
    dump_each(lambda: _with_rows(state.lp, *pin), [lean])
    tight = state.append(*pin)
    # A restart that finds no feasible basis leaves `solve` infeasible.
    tight.restart()
    res = tight.solve(lean)
    if not res.optimal:
        raise PolicyInfeasibleError(f"tightening LP returned {res.status}")
    return space.allocation(res.x)


def _with_rows(lp: LinearProgram, coeffs, relations, rhs) -> LinearProgram:
    out = replace(lp)
    out.add_rows(coeffs, relations, rhs)
    return out


class GainRows:
    """Bottleneck detection's state within one decision: the gain LP's rows
    as one `lp._Standardized`, at the basis the last gain LP left."""

    def __init__(self, space: ProblemSpace):
        self.space = space
        self.state = None

    def restart(self, thr_prev: dict) -> _Standardized:
        """The gain rows with carry rows at `thr_prev`, moved to a feasible
        basis by the dual simplex from the last one.  They are rebuilt cold
        through phase 1 instead at the decision's first gain LP, after a
        phase 1 that dropped a row or found no feasible basis, and when the
        dual simplex calls the rows infeasible (X_prev satisfies them, so
        only numerics can)."""
        space, state = self.space, self.state
        if (state is None or state.dropped or not state.feasible
                or not state.restart([thr_prev[j.id] for j in space.jobs]
                                     + space.validity_rhs)):
            self.state = state = _Standardized(_gain_lp(space, thr_prev))
            state.phase_one()
        return state


def _gain_lp(space: ProblemSpace, thr_prev: dict):
    return space.lp(np.zeros(space.n_cells), [_carry_rows(space, thr_prev)])


def max_gain(space: ProblemSpace, thr_prev: dict, job_ids,
             gain_rows: GainRows) -> dict:
    """Largest throughput increase available to each of `job_ids` alone
    while every job keeps at least its previous throughput.  The gain LPs
    differ only in their objective, so they are solved as one LP with one
    objective per job; a job whose LP has no optimum gains 0.0.  Phase 2
    starts from the feasible basis `gain_rows` restarts to."""
    objectives = [space.coeffs[job_id] for job_id in job_ids]
    state = gain_rows.restart(thr_prev)
    dump_each(lambda: _gain_lp(space, thr_prev), objectives)
    return {job_id: res.objective_value - thr_prev[job_id] if res.optimal else 0.0
            for job_id, res in zip(job_ids, state.solve_each(objectives))}


def find_bottlenecks(space: ProblemSpace, thr_prev: dict, active_weights: dict,
                     gain_rows: GainRows) -> set:
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
    candidates that conflict) the bottleneck MILP decides.  Both LPs start
    from the basis in `gain_rows`, the decision's `GainRows`.
    """
    active = [j for j in space.jobs if active_weights.get(j.id, 0.0) > 0]
    delta = {j.id: DELTA_FRACTION * space.T.max_throughput(j.id) for j in active}
    gain = max_gain(space, thr_prev, [j.id for j in active], gain_rows)
    cand = {j.id for j in active if gain[j.id] >= delta[j.id]}
    in_band = any(VERIFY_FRACTION * delta[j.id] <= gain[j.id] < delta[j.id]
                  for j in active)
    if not in_band and (not cand or _screen_feasible(space, active, thr_prev,
                                                     delta, cand, gain_rows)):
        return {j.id for j in active} - cand
    return _milp_bottlenecks(space, active, thr_prev, delta, gain)


def _screen_feasible(space: ProblemSpace, active: list, thr_prev: dict,
                     delta: dict, cand: set, gain_rows: GainRows) -> bool:
    """Whether every candidate can gain its slack at once while every other
    active job stays at its previous throughput.  The screen's rows are
    appended to the gain rows, and the dual simplex starts from the gain
    LP's basis for `thr_prev` in `gain_rows` plus their slacks."""
    ids = {j.id for j in active}
    extra = (space.thr_rows[[k for k, j in enumerate(space.jobs) if j.id in ids]],
             [Relation.GE if j.id in cand else Relation.LE for j in active],
             [thr_prev[j.id] + delta[j.id] if j.id in cand else thr_prev[j.id]
              for j in active])
    dump_each(lambda: space.lp(np.zeros(space.n_cells),
                               [_carry_rows(space, thr_prev), extra]))
    return gain_rows.state.append(*extra).restart()


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
    # Per active job: z=1 forces a strict improvement of delta; z=0 caps the
    # job at its previous throughput (combined with its carry row).
    flags = np.zeros((2 * n_z, n))
    rels, rhs = [Relation.GE, Relation.LE] * n_z, []
    for k, j in enumerate(active):
        Y = space.T.max_throughput(j.id)
        flags[2 * k:2 * k + 2, :space.n_cells] = space.coeffs[j.id]
        flags[2 * k, space.n_cells + k] = -(Y + delta[j.id])
        flags[2 * k + 1, space.n_cells + k] = -Y
        rhs += [thr_prev[j.id] - Y, thr_prev[j.id]]
    # MixedIntegerProgram bounds the flags to [0, 1].
    lp = space.lp(obj, [_carry_rows(space, thr_prev), (flags, rels, rhs)])
    res = solve_milp(MixedIntegerProgram(lp, set(range(space.n_cells, n))))
    if not res.optimal:  # X_prev is a witness, so only the solver can fail here
        raise PolicyError(f"bottleneck MILP not solved: {res.status.value}")
    return {j.id for k, j in enumerate(active)
            if round(res.x[space.n_cells + k]) == 0
            or gain[j.id] < VERIFY_FRACTION * delta[j.id]}


def hierarchical_waterfill(space: ProblemSpace, entities) -> WaterfillResult:
    """Water filling over entities, each splitting its weight over its jobs
    by its internal policy."""
    check_entities(space.jobs, entities)
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
    gain_rows = GainRows(space)

    for _ in range(len(jobs) + 1):
        weights = weights_of(done)
        if all(w <= 0 for w in weights.values()):
            break
        state, level = _level_lp(space, weights, t_prev, thr_prev)
        X = _tighten(space, state, level)
        # Each job's row summed in order, as effective_throughput sums it.
        thr = dict(zip([j.id for j in jobs],
                       inorder_sum(space.thr_rows * X.values.ravel()).tolist()))
        normalized = {j.id: thr[j.id] / space.equal_norm[j.id] for j in jobs}
        bottlenecks = find_bottlenecks(space, thr, weights, gain_rows)
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
