"""Hierarchical max-min fairness via water filling.

Each iteration splits every entity's weight across its still-active jobs
according to the entity's internal policy, raises all active jobs' scaled
normalized throughputs at rates proportional to those weights, then freezes
the jobs that have hit a bottleneck.  Frozen jobs keep their achieved
throughput through carry-over constraints while the remaining jobs keep
rising, so the final allocation is Pareto efficient at every level of the
hierarchy.  Both entry points run over the `ProblemSpace` their caller
compiled and return a `PolicyResult` that also records every iteration.

Bottleneck detection takes up to three steps (`_bottlenecks`).  First the
level LP's own optimum certifies jobs: a job whose level row's slack prices
at a large enough reduced cost is tight in every optimum and cannot gain
its strictness slack (`_certified`; the dual test of max-min fairness,
Nace and Pioro, IEEE Comm. Surveys & Tutorials 10(4), 2008).  If every
active job is certified, no LP runs.  Otherwise one screening LP asks
whether every uncertified job can gain its slack at the same time; if so,
the certified jobs are the answer.  Only when that screen fails does
`find_bottlenecks` run: one gain LP per active job, its own screen, and a
mixed-integer program when that screen fails too or a gain sits too close
to the strictness slack to call.

Every LP of an iteration starts from the level LP, and no level LP after
the first pays for a phase 1: phase 2 starts at a basis crashed at the
previous iteration's allocation, which meets every row of the next level
LP (`_level_lp`, `lp._Standardized.start_at`).  The first level LP's rows
all hold at the slack basis, so a fill runs a phase 1 only where a crash
fails.  The other LPs are rows appended to an optimum and moved to a
feasible basis by a zero-cost dual simplex (`lp._Standardized.append`),
and solved by phase 2 from there:

- the tightening LP, whose optimal vertex becomes the allocation X, is the
  level LP's rows plus one row pinning lam at the level, which the level
  LP's optimum already satisfies;
- the gain rows are the tightening LP's rows plus a carry row
  thr_j(X') >= thr_j(X) per job (`_gain_rows`), which X itself satisfies
  within rounding.  Any X' that keeps every job at its throughput under X
  meets the level rows, the earlier carry rows and the pin row as X does,
  with lam unchanged, so these rows allow exactly the gain LP's
  allocations;
- each gain LP (`max_gain`) is the gain rows under one job's throughput,
  solved from the previous gain LP's optimum, and each screen
  (`_screen_feasible`) is the gain rows plus its own rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jobs import EntityPolicy
from .lp import Relation, Rows, _Standardized
from .matrices import AllocationMatrix
# bench/tracing.py wraps these two names where this module binds them.
from .lp import solve_lp  # noqa: F401
from .matrices import effective_throughput  # noqa: F401
from .milp import solve_milp
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
# The level LP certifies a job a bottleneck when its level row's slack
# prices at rc_j with rc_j * s_j * Y_j above this bound (`_certified`): then
# the job can gain at most half of VERIFY_FRACTION * delta_j.
CERTIFY_BOUND = 2 * TIGHTEN_SLACK / (VERIFY_FRACTION * DELTA_FRACTION)


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


def _carry_rows(space: ProblemSpace, thr_prev: dict, width: int) -> tuple:
    """The row block keeping every job's throughput at or above `thr_prev`,
    over `width` columns."""
    return (space.rate_rows(width), [Relation.GE] * len(space.jobs),
            [thr_prev[j.id] for j in space.jobs])


def _level_scales(space: ProblemSpace, weights: dict) -> dict:
    """Each weighted job's level-row scale s_j, in `space.jobs` order."""
    return {j.id: j.scale_factor / (weights[j.id] * space.equal_norm[j.id])
            for j in space.jobs if weights[j.id] > 0}


def _level_lp(space: ProblemSpace, weights: dict, t_prev: dict,
              thr_prev: dict, X_prev: AllocationMatrix | None) -> tuple:
    """Water level of one iteration: the max-min LP raising every weighted
    job's scaled normalized throughput above its previous level, plus carry
    rows that keep any job's raw throughput from dropping.  Returns the LP
    as an `lp._Standardized` at its optimal basis, and the level.

    `X_prev` is the previous iteration's allocation, None at the first.
    With lam = 0 it meets every row: each weighted job's floor is its
    scaled throughput under X_prev and each carry row's right-hand side its
    throughput.  It is a vertex of these rows, since every rate row the
    previous tightening LP held tight is a carry row here, so phase 2
    starts from a basis crashed at it (`lp._Standardized.start_at`), with
    a cold phase 1 only if the crash fails.  The first iteration's rows
    all hold at the slack basis."""
    lp = max_min_lp(space, _level_scales(space, weights),
                    {j.id: t_prev[j.id] / weights[j.id]
                     for j in space.jobs if weights[j.id] > 0})
    carried = [k for k, j in enumerate(space.jobs) if thr_prev[j.id] > 0]
    lp.add_rows(space.rate_rows(lp.num_vars).take(carried),
                [Relation.GE] * len(carried),
                [thr_prev[space.jobs[k].id] for k in carried])
    state = _Standardized(lp)
    if X_prev is None or not state.start_at(np.append(X_prev.values.ravel(), 0.0)):
        state.phase_one()
    res = state.solve(lp.objective)
    if not res.optimal:
        raise PolicyInfeasibleError(f"water-filling LP returned {res.status}")
    return state, res.objective_value


def _tighten(space: ProblemSpace, state: _Standardized, level: float) -> tuple:
    """Re-solve at the found water level, minimizing total allocated time.

    The max-min LP can return a vertex that hands surplus throughput to
    non-bottlenecked jobs; the lean re-solve pins lam at the level, so
    every weighted job's level row holds it at the water level and
    bottleneck detection sees the true frontier.  The pin row is appended
    to the level LP's rows at their optimum, which satisfies it with its
    slack basic, so phase 2 starts there with no phase 1.  Returns the
    allocation and the tightening LP at its optimal basis.
    """
    # Maximizing minus the total allocated time minimizes it.
    lean = np.append(np.full(space.n_cells, -1.0), 0.0)
    n = space.n_cells
    pin = Rows(np.zeros(1, dtype=np.intp), np.full(1, n), np.ones(1), (1, n + 1))
    tight = state.append(pin, [Relation.GE], [level - TIGHTEN_SLACK])
    # Rows with no feasible basis leave `solve` infeasible.
    res = tight.solve(lean)
    if not res.optimal:
        raise PolicyInfeasibleError(f"tightening LP returned {res.status}")
    return space.allocation(res.x), tight


def _gain_rows(space: ProblemSpace, tight: _Standardized, thr: dict) -> _Standardized:
    """The gain rows for the tightened throughputs `thr`: the tightening
    LP's rows, appended to at its optimum `tight` with the carry rows at
    `thr`, which that optimum meets within rounding, at the feasible basis
    the dual simplex reaches from it."""
    gain_rows = tight.append(*_carry_rows(space, thr, space.n_cells + 1))
    if not gain_rows.feasible:  # the tightened allocation is a witness
        raise PolicyError("gain rows infeasible at the tightened allocation")
    return gain_rows


def max_gain(space: ProblemSpace, thr_prev: dict, job_ids,
             gain_rows: _Standardized) -> dict:
    """Largest throughput increase available to each of `job_ids` alone
    while every job keeps at least its previous throughput; a job whose LP
    has no optimum gains 0.0.  The gain LPs differ only in their objective,
    so each starts from the last one's optimum, the first from the feasible
    basis `gain_rows` holds (`_gain_rows`), which it leaves at the last
    optimum."""
    out = {}
    for job_id in job_ids:
        objective = np.append(space.rates(job_id), 0.0)
        res = gain_rows.solve(objective)
        out[job_id] = res.objective_value - thr_prev[job_id] if res.optimal else 0.0
    return out


def find_bottlenecks(space: ProblemSpace, thr_prev: dict, active_weights: dict,
                     gain_rows: _Standardized) -> set:
    """Jobs whose effective throughput cannot rise without lowering another's.

    `thr_prev` holds every job's effective throughput under the previous
    allocation X_prev.  A job is improvable when it can gain at least its
    strictness slack delta_j = DELTA_FRACTION * Y_j (Y_j its best rate)
    while every job keeps at least its previous throughput.  The answer is
    the active jobs left out of the largest set that can improve together,
    ties going to the lexicographically smallest choice of flags, and then
    every job whose own gain falls short of VERIFY_FRACTION * delta_j.

    The gain LPs (`max_gain`, one per active job) name the candidates,
    the jobs that can gain delta_j alone.  If every other gain is below
    VERIFY_FRACTION * delta_j, one feasibility LP checks that all
    candidates can gain delta_j at once while every other active job stays
    capped at its previous throughput.  When it can, the candidates are
    exactly the improvable jobs: no larger set exists, since any job in one
    must gain delta_j alone, and the largest set is unique, so no tie is
    left to break.  With no candidates X_prev itself is the witness.
    Otherwise (a gain in [VERIFY_FRACTION * delta_j, delta_j), or
    candidates that conflict) the bottleneck MILP decides.  The LPs start
    from `gain_rows`: the gain rows for `thr_prev` over the level LP's
    variables, the cells then lam, at a feasible basis (`_gain_rows`).

    Water filling calls it only when the level LP's certificate and one
    screen of the uncertified jobs have not settled the answer
    (`_bottlenecks`); it always gives the same answer as they would.
    """
    active = [j for j in space.jobs if active_weights.get(j.id, 0.0) > 0]
    delta = {j.id: DELTA_FRACTION * space.best[j.id] for j in active}
    gain = max_gain(space, thr_prev, [j.id for j in active], gain_rows)
    cand = {j.id for j in active if gain[j.id] >= delta[j.id]}
    in_band = any(VERIFY_FRACTION * delta[j.id] <= gain[j.id] < delta[j.id]
                  for j in active)
    if not in_band and (not cand or _screen_feasible(space, active, thr_prev,
                                                     delta, cand, gain_rows)):
        return {j.id for j in active} - cand
    return _milp_bottlenecks(space, active, thr_prev, delta, gain)


def _screen_feasible(space: ProblemSpace, active: list, thr_prev: dict,
                     delta: dict, cand: set, gain_rows: _Standardized) -> bool:
    """Whether every candidate can gain its slack at once while every other
    active job stays at its previous throughput.  The screen's rows are
    appended to the gain rows for `thr_prev`, and the dual simplex starts
    from `gain_rows`' basis plus the new rows' slacks."""
    screen = gain_rows.append(
        space.rate_rows(space.n_cells + 1).take([space.position[j.id] for j in active]),
        [Relation.GE if j.id in cand else Relation.LE for j in active],
        [thr_prev[j.id] + delta[j.id] if j.id in cand else thr_prev[j.id]
         for j in active])
    screen.dump(np.zeros(space.n_cells + 1))
    return screen.feasible


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
    # job at its previous throughput (combined with its carry row).  Rows
    # 2k and 2k + 1 hold job k's rates and its flag's coefficient.
    rates = space.rate_rows(n).take([space.position[j.id] for j in active])
    Y = np.array([space.best[j.id] for j in active])
    d = np.array([delta[j.id] for j in active])
    k = np.arange(n_z)
    flags = Rows(np.concatenate([2 * rates.row, 2 * rates.row + 1, 2 * k, 2 * k + 1]),
                 np.concatenate([rates.col, rates.col, space.n_cells + k,
                                 space.n_cells + k]),
                 np.concatenate([rates.val, rates.val, -(Y + d), -Y]), (2 * n_z, n))
    rels = [Relation.GE, Relation.LE] * n_z
    rhs = [v for j in active for v in (thr_prev[j.id] - space.best[j.id], thr_prev[j.id])]
    # solve_milp bounds the flags to [0, 1].
    lp = space.lp(obj, [_carry_rows(space, thr_prev, n), (flags, rels, rhs)])
    res = solve_milp(lp, range(space.n_cells, n))
    if not res.optimal:  # X_prev is a witness, so only the solver can fail here
        raise PolicyError(f"bottleneck MILP not solved: {res.status.value}")
    return {j.id for k, j in enumerate(active)
            if round(res.x[space.n_cells + k]) == 0
            or gain[j.id] < VERIFY_FRACTION * delta[j.id]}


def _certified(space: ProblemSpace, state: _Standardized, weights: dict,
               level: float) -> set:
    """The weighted jobs that the level LP, at the optimal basis `state`
    holds, proves are bottlenecks in `find_bottlenecks`' sense.

    Only lam has a cost, so at the optimum lam* = `level` every point of
    the level rows has lam = lam* - sum_k rc_k u_k over the nonbasic
    columns u_k.  Take any allocation X' in which every job keeps its
    throughput under the tightened allocation X: the gain LP's feasible
    points.  X meets every level row at lam = lam* - TIGHTEN_SLACK, so X'
    does too, with job j's level-row slack at least s_j times its gain
    g_j.  So TIGHTEN_SLACK >= rc_j * s_j * g_j - L, where L bounds what
    the columns pricing negative add.  Phase 2 stops once no reduced cost
    is below -OPT_TOL, so such columns exist, at up to OPT_TOL each, and
    roundoff leaves many dual-degenerate ones near -1e-14.  At that point a
    cell's time share is at most 1, |lam| is at most |lam*| + TIGHTEN_SLACK
    and a slack at most its row's |rhs| plus its absolute coefficients
    times those, so L is the largest of these times the sum of the negative
    reduced costs' magnitudes.  A job with
    rc_j * s_j * Y_j > CERTIFY_BOUND * (1 + L / TIGHTEN_SLACK) therefore
    gains at most half of VERIFY_FRACTION * delta_j: `find_bottlenecks`
    would hold it whatever its screen or MILP decides, and the other half
    is room for the rounding in the rows X meets.  The level rows come
    first in the level LP and are all inequalities, so their slacks'
    reduced costs lead; it has no upper-bound rows."""
    cols, slacks = state.reduced_costs(state.lp.objective)
    lift = -(cols[cols < 0].sum() + slacks[slacks < 0].sum())
    if lift > 0:
        lp = state.lp
        top = np.append(np.ones(space.n_cells), abs(level) + TIGHTEN_SLACK)
        # The rows made dense, so BLAS sums each row as it always has.
        rows = np.abs(lp.constraints.dense())
        lift *= max(top.max(), (np.abs(lp.rhs) + rows @ top).max())
    bound = CERTIFY_BOUND * (1.0 + lift / TIGHTEN_SLACK)
    scales = _level_scales(space, weights)
    return {job_id for (job_id, s), rc in zip(scales.items(),
                                             slacks[:len(scales)].tolist())
            if rc * s * space.best[job_id] > bound}


def _bottlenecks(space: ProblemSpace, state: _Standardized, tight: _Standardized,
                 level: float, thr: dict, weights: dict) -> set:
    """`find_bottlenecks`' answer for the tightened throughputs `thr`,
    settled by the level LP's certificate when it can be.  With C the
    certified jobs: if C is every weighted job, it is the answer and no LP
    runs.  Otherwise one screen asks whether every other weighted job can
    gain its slack at once; if so, the answer is C, by `find_bottlenecks`'
    own argument (the screen is a joint witness for the others, and no job
    in C can gain alone).  Only when it fails does `find_bottlenecks` run.
    `state` holds the level LP at its optimum and `tight` the tightening
    LP at its own, where the gain rows start."""
    active = [j for j in space.jobs if weights[j.id] > 0]
    cert = _certified(space, state, weights, level)
    if len(cert) == len(active):
        return cert
    gain_rows = _gain_rows(space, tight, thr)
    delta = {j.id: DELTA_FRACTION * space.best[j.id] for j in active}
    if _screen_feasible(space, active, thr, delta,
                        {j.id for j in active} - cert, gain_rows):
        return cert
    return find_bottlenecks(space, thr, weights, gain_rows)


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
    X = None

    for _ in range(len(jobs) + 1):
        weights = weights_of(done)
        if all(w <= 0 for w in weights.values()):
            break
        state, level = _level_lp(space, weights, t_prev, thr_prev, X)
        X, tight = _tighten(space, state, level)
        thr = dict(zip([j.id for j in jobs],
                       space.throughputs(X.values.ravel()).tolist()))
        normalized = {j.id: thr[j.id] / space.equal_norm[j.id] for j in jobs}
        bottlenecks = _bottlenecks(space, state, tight, level, thr, weights)
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
