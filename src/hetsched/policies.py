"""Scheduling policies compiled into optimization problems over allocation
matrices.

Every policy searches for the fraction of wall-clock time each job (or job
combination) should spend on each resource configuration, maximizing or
minimizing an objective expressed through effective throughputs.  Each
policy is a function of the `ProblemSpace` that `solve_policy` compiles once
per decision, and returns a `PolicyResult`; `solve_policy` finds it in
`POLICIES` by kind (water filling lives in `waterfill`).  Max-min objectives
(max-min fairness, min-makespan and the water-filling level) are compiled to
one epigraph LP by `max_min_lp`; only finish-time fairness is solved by
bisection over a feasibility LP; the cost policies reduce a
linear-fractional objective to one LP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .cluster import ClusterSpec
from .jobs import ENTITY_POLICY_NAMES
from .lp import LinearProgram, Relation, SolveResult, solve_lp
from .matrices import (AllocationMatrix, ThroughputMatrix,
                       equal_share_allocation, effective_throughput,
                       inorder_sum, isolated_allocation, row_workers)
from .search import RatioUnboundedError, bisect, maximize_ratio

# SJF switches to a job only when it finishes this many seconds sooner, so
# exact ties go to the job listed first.
SJF_TIE_TOL = 1e-12
# Pad added to both ends of the FTF bisection bracket: the lower end then
# leaves every job a positive time budget, the upper end is strictly feasible.
FTF_BRACKET_PAD = 1e-9
# An SLO is unattainable when the rate it needs exceeds the job's best
# standalone rate by more than this.
SLO_RATE_TOL = 1e-9


class PolicyKind(str, enum.Enum):
    MAX_MIN_FAIRNESS = "las"
    FIFO = "fifo"
    SHORTEST_JOB_FIRST = "sjf"
    MIN_MAKESPAN = "makespan"
    FINISH_TIME_FAIRNESS = "ftf"
    MAX_TOTAL_THROUGHPUT = "throughput"
    MIN_COST = "cost"
    MIN_COST_SLO = "cost_slo"
    HIERARCHICAL = "hier"


# "wlas" names weighted max-min fairness, which "las" already is: both read
# each job's weight.
_ALIASES = {"wlas": "las"}


@dataclass
class PolicySpec:
    """Policy kind plus the options that change a solve.  Placement
    awareness follows from the cluster spec, and entities' internal policies
    come from the trace or the jobs file.  Water filling applies only to
    max-min fairness, which it switches to water filling, and to the
    hierarchical policy, which always water-fills."""

    kind: PolicyKind
    space_sharing: bool = False
    water_filling: bool = False

    def __post_init__(self):
        if self.water_filling and self.kind not in (
                PolicyKind.MAX_MIN_FAIRNESS, PolicyKind.HIERARCHICAL):
            raise ValueError(
                f"+wf applies only to las and hier, not {self.kind.value!r}")

    def label(self) -> str:
        text = self.kind.value
        if self.space_sharing:
            text += "+ss"
        if self.water_filling:
            text += "+wf"
        return text


def parse_policy(text: str) -> PolicySpec:
    """Parse a policy string such as "las", "las+ss", "hier:fair/fifo+wf".

    The entity-policy list after "hier:" is checked but selects nothing.
    """
    parts = text.strip().split("+")
    head, flags = parts[0], set(parts[1:])
    unknown = flags - {"ss", "wf"}
    if unknown:
        raise ValueError(f"unknown policy flags: {sorted(unknown)}")
    name, colon, entity_policies = head.partition(":")
    try:
        kind = PolicyKind(_ALIASES.get(name, name))
    except ValueError:
        raise ValueError(f"unknown policy {head!r}") from None
    if colon:
        if kind is not PolicyKind.HIERARCHICAL:
            raise ValueError(f"unknown policy {head!r}")
        bad = set(entity_policies.split("/")) - ENTITY_POLICY_NAMES.keys()
        if bad:
            raise ValueError(f"unknown entity policies: {sorted(bad)}")
    return PolicySpec(kind, space_sharing="ss" in flags,
                      water_filling="wf" in flags)


class PolicyError(Exception):
    pass


class MissingThroughputError(PolicyError):
    pass


class ZeroThroughputError(PolicyError):
    """A job has zero throughput on every configuration, so its equal-share
    normalizer vanishes."""


class InfeasibleSloError(PolicyError):
    def __init__(self, job_ids):
        self.job_ids = sorted(job_ids)
        super().__init__(f"SLOs unattainable for jobs {self.job_ids}")


class PolicyInfeasibleError(PolicyError):
    pass


class ProblemSpace:
    """Indexing and shared constraints for LPs over allocation cells.

    Variables 0..R*C-1 are the allocation cells in row-major order; builders
    may append extra scalar variables (an epigraph bound, binary flags).
    The cell bounds, the validity rows and each job's coefficient row and
    equal-share throughput are compiled once from the matrix's arrays, and
    `lp` builds every LP over the cells from them.
    """

    def __init__(self, jobs, T: ThroughputMatrix):
        self.T = T
        self.jobs = list(jobs)
        self.by_id = {j.id: j for j in self.jobs}
        present = set(T.job_ids)
        missing = [j.id for j in self.jobs if j.id not in present]
        if missing:
            raise MissingThroughputError(f"no throughput rows for jobs {missing}")
        self.n_cells = T.num_rows * T.num_configs
        ks = [T.job_index(j.id) for j in self.jobs]
        self.coeffs = {j.id: T.coeffs[k] for j, k in zip(self.jobs, ks)}
        norms = inorder_sum(T.coeffs[ks] * equal_share_allocation(T).values.ravel())
        self.equal_norm = {}
        for j, norm in zip(self.jobs, norms.tolist()):
            if norm <= 0:
                raise ZeroThroughputError(
                    f"job {j.id} has zero throughput on every configuration")
            self.equal_norm[j.id] = norm

        self.row_sf = row_workers(T, self.by_id).astype(float)
        self._upper = np.where(T.feasible.ravel(), np.inf, 0.0)
        # Per-job time budgets, then per-type worker capacity.
        budget = np.repeat(T.member_of[ks], T.num_configs, axis=1).astype(float)
        types = T.cluster.types
        capacity = np.where(T.type_of == np.arange(len(types))[:, None, None],
                            self.row_sf[:, None], 0.0)
        self.validity = np.vstack([budget, capacity.reshape(len(types), self.n_cells)])
        self.validity_rhs = [1.0] * len(ks) + [float(t.num_workers) for t in types]

    def lp(self, objective, rows=(), maximize: bool = True,
           extra_lower=None) -> LinearProgram:
        """The LP over the cells plus `len(objective) - n_cells` extra
        variables: cells nonnegative and pinned to 0 where infeasible, extra
        variables in [extra_lower (default 0), inf), then `rows`, then
        the per-job time budget and per-type worker capacity rows.  Each row
        is a (coeffs, relation, rhs) triple whose coeffs cover the cells
        alone, padded with zeros, or every variable."""
        n = len(objective)
        pad = np.zeros(n - self.n_cells)
        lower = np.zeros(n)
        if extra_lower is not None:
            lower[self.n_cells:] = extra_lower
        lp = LinearProgram(n, objective, maximize, lower=lower,
                           upper=np.append(self._upper, np.full(len(pad), np.inf)))
        validity = [(row, Relation.LE, rhs)
                    for row, rhs in zip(self.validity, self.validity_rhs)]
        for coeffs, rel, rhs in [*rows, *validity]:
            lp.add_constraint(coeffs if len(coeffs) == n else np.append(coeffs, pad),
                              rel, rhs)
        return lp

    def allocation(self, x: np.ndarray) -> AllocationMatrix:
        values = np.clip(x[: self.n_cells], 0.0, 1.0)
        return AllocationMatrix(self.T, values.reshape(self.T.num_rows,
                                                       self.T.num_configs))

    def standalone_best(self, job_id: int) -> float:
        """Best achievable throughput with the whole cluster to one job."""
        res = self.standalone(job_id)
        return res.objective_value if res.optimal else 0.0

    def standalone(self, job_id: int) -> SolveResult:
        """The LP that gives one job the whole cluster, maximizing its
        throughput over its singleton row's time shares, solved."""
        T = self.T
        r = T.singleton_row(job_id)
        sf = float(self.by_id[job_id].scale_factor)
        lp = LinearProgram(T.num_configs, T.thr[r, :, 0], maximize=True,
                           upper=np.where(T.feasible[r], np.inf, 0.0))
        lp.add_constraint(np.ones(T.num_configs), Relation.LE, 1.0)
        for t in T.cluster.types:
            lp.add_constraint(np.where(T.type_of == t.id, sf, 0.0), Relation.LE,
                              float(t.num_workers))
        return solve_lp(lp)

    def single_job_allocation(self, job_id: int, x: np.ndarray) -> AllocationMatrix:
        """The allocation giving one job the time shares `x` of its
        singleton row, as solved by `standalone`, and nothing to the rest."""
        X = AllocationMatrix.zeros(self.T)
        X.values[self.T.singleton_row(job_id), :] = x
        return X


@dataclass
class PolicyResult:
    """What every policy returns: the allocation, the policy's objective
    value and, under min_cost_slo, the jobs whose deadline had passed."""

    allocation: AllocationMatrix
    objective: float
    violations: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Single-LP policies
# ---------------------------------------------------------------------------

def max_min_lp(space: ProblemSpace, scales: dict,
               floors: dict | None = None) -> LinearProgram:
    """Epigraph LP: maximize lam subject to
    scales[j] * thr_j(X) - lam >= floors[j] for every job in `scales` (in
    `space.jobs` order), then the validity rows.  Variable `space.n_cells`
    is lam; floors default to zero."""
    obj = np.zeros(space.n_cells + 1)
    obj[-1] = 1.0
    rows = [(np.append(scales[j.id] * space.coeffs[j.id], -1.0), Relation.GE,
             floors[j.id] if floors else 0.0)
            for j in space.jobs if j.id in scales]
    return space.lp(obj, rows, extra_lower=-np.inf)


def _weighted_sum_lp(space: ProblemSpace, weights: dict) -> LinearProgram:
    """Maximize sum_j weights[j] * thr_j(X), accumulated in `weights`
    order, over valid allocations."""
    obj = np.zeros(space.n_cells)
    for job_id, w in weights.items():
        obj += w * space.coeffs[job_id]
    return space.lp(obj)


def _solve(label: str, lp: LinearProgram, space: ProblemSpace) -> PolicyResult:
    """Solve a built policy LP; the objective is the LP's optimum."""
    res = solve_lp(lp)
    if not res.optimal:
        raise PolicyInfeasibleError(f"{label} LP returned {res.status}")
    return PolicyResult(space.allocation(res.x), res.objective_value)


def max_min_fairness(space: ProblemSpace) -> PolicyResult:
    """Weighted max-min fairness over normalized effective throughputs,
    each scaled by the job's worker count over its weight."""
    return _solve("max-min fairness", max_min_lp(space, {
        j.id: j.scale_factor / (j.weight * space.equal_norm[j.id])
        for j in space.jobs}), space)


def fifo(space: ProblemSpace) -> PolicyResult:
    """Prefer earlier arrivals: maximize the sum of throughputs normalized
    by each job's fastest configuration, weighted M-m by arrival rank."""
    order = sorted(space.jobs, key=lambda j: (j.arrival_time, j.id))
    weights = {}
    for rank, j in enumerate(order):
        fastest = space.T.max_throughput(j.id)
        if fastest <= 0:
            raise ZeroThroughputError(f"job {j.id} has no feasible configuration")
        weights[j.id] = (len(order) - rank) / fastest
    return _solve("fifo", _weighted_sum_lp(space, weights), space)


def max_total_throughput(space: ProblemSpace) -> PolicyResult:
    """Maximize the sum of the jobs' effective throughputs."""
    return _solve("throughput",
                  _weighted_sum_lp(space, {j.id: 1.0 for j in space.jobs}), space)


def shortest_job_first(space: ProblemSpace) -> PolicyResult:
    """Give the whole cluster to whichever job can finish soonest; the
    objective is that job's duration in seconds."""
    best = None
    for j in space.jobs:
        res = space.standalone(j.id)
        if not res.optimal or res.objective_value <= 0:
            continue
        duration = j.remaining_steps / res.objective_value
        if best is None or duration < best[0] - SJF_TIE_TOL:
            best = (duration, j.id, res.x)
    if best is None:
        raise ZeroThroughputError("no job can run anywhere")
    duration, job_id, x = best
    return PolicyResult(space.single_job_allocation(job_id, x), duration)


def min_makespan(space: ProblemSpace) -> PolicyResult:
    """Min-makespan as one max-min LP; the objective is the makespan in
    seconds.

    The makespan min_X max_j remaining_j / thr_j(X) is the reciprocal of
    max_X min_j thr_j(X) / remaining_j.  Each row is scaled by a reference
    horizon H, the longest equal-share finishing time, so the optimum
    lam* = H / makespan is of order one instead of near the solver's
    feasibility tolerance.
    """
    H = max(j.remaining_steps / space.equal_norm[j.id] for j in space.jobs)
    lp = max_min_lp(space, {j.id: H / j.remaining_steps for j in space.jobs})
    res = _solve("min makespan", lp, space)
    return PolicyResult(res.allocation, float(H / res.objective))


# ---------------------------------------------------------------------------
# Bisection policies
# ---------------------------------------------------------------------------

def finish_time_fairness(space: ProblemSpace) -> PolicyResult:
    """Minimize the maximum finish-time-fairness ratio rho by bisection; the
    objective is rho.

    The ratio compares each job's projected finish time under the allocation
    with its finish time under an isolated 1/n share, n the number of jobs.
    """
    T = space.T
    Xiso = isolated_allocation(T, len(space.jobs))
    denom = {}
    iso_thr = {}
    for j in space.jobs:
        thr = effective_throughput(j.id, Xiso, T)
        if thr <= 0:
            raise ZeroThroughputError(f"job {j.id}: isolated throughput is zero")
        iso_thr[j.id] = thr
        denom[j.id] = j.isolated_elapsed_time + j.remaining_steps / thr

    def feasible(lam: float):
        budget = {j.id: lam * denom[j.id] - j.elapsed_time for j in space.jobs}
        if min(budget.values()) <= 0:
            return False, None
        res = solve_lp(space.lp(np.zeros(space.n_cells), [
            (space.coeffs[j.id], Relation.GE, j.remaining_steps / budget[j.id])
            for j in space.jobs]))
        return res.optimal, (space.allocation(res.x) if res.optimal else None)

    lo = max(j.elapsed_time / denom[j.id] for j in space.jobs) + FTF_BRACKET_PAD
    hi = max((j.elapsed_time + j.remaining_steps / iso_thr[j.id]) / denom[j.id]
             for j in space.jobs) + FTF_BRACKET_PAD
    value, X = bisect(feasible, lo, hi)
    return PolicyResult(X, value)


# ---------------------------------------------------------------------------
# Cost policies (linear-fractional)
# ---------------------------------------------------------------------------

def min_cost(space: ProblemSpace) -> PolicyResult:
    """Maximize total effective throughput per dollar; the objective is
    steps per dollar."""
    return _max_steps_per_dollar(space, [], [])


def min_cost_slo(space: ProblemSpace) -> PolicyResult:
    """`min_cost` with every job sustaining enough throughput to meet its
    deadline.  A job whose deadline has already passed is held at its best
    standalone rate and listed in the result's violations."""
    rows, violations, impossible = [], [], []
    for j in space.jobs:
        if j.slo_seconds is None or not np.isfinite(j.slo_seconds):
            continue
        time_left = j.slo_seconds - j.elapsed_time
        best = space.standalone_best(j.id)
        if time_left <= 0:
            violations.append(j.id)
            required = best
        else:
            required = j.remaining_steps / time_left
            if required > best + SLO_RATE_TOL:
                impossible.append(j.id)
                continue
        rows.append((space.coeffs[j.id], Relation.GE, required))
    if impossible:
        raise InfeasibleSloError(impossible)
    return _max_steps_per_dollar(space, rows, violations)


def _max_steps_per_dollar(space: ProblemSpace, slo_rows: list,
                          violations: list) -> PolicyResult:
    """The cost ratio LP over the validity rows plus `slo_rows`.

    The denominator charges each cell cost_j * scale_factor once per
    combination row, so a colocated pair is billed for one worker set, not
    two.
    """
    T = space.T
    num = np.zeros(space.n_cells)
    for j in space.jobs:
        num += space.coeffs[j.id]
    den = np.outer(space.row_sf, [T.cluster.types[cfg.type_id].cost_per_hour
                                  for cfg in T.configs]).ravel()
    lp = space.lp(num)
    for row in slo_rows:
        lp.add_constraint(*row)
    try:
        res = maximize_ratio(lp, den)
    except RatioUnboundedError:
        # A zero-cost configuration can absorb all work: fall back to
        # maximizing throughput over the free cells only.
        res = solve_lp(replace(lp, upper=np.where(den <= 0, lp.upper, 0.0)))
        if not res.optimal:
            raise PolicyInfeasibleError(
                "cost ratio unbounded but zero-cost restriction unsolvable")
        return PolicyResult(space.allocation(res.x), float("inf"), violations)
    if not res.optimal:
        raise PolicyInfeasibleError(f"cost LP returned {res.status}")
    return PolicyResult(space.allocation(res.x), res.objective_value, violations)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# Every policy but the hierarchical one, which also needs the entities.
POLICIES = {
    PolicyKind.MAX_MIN_FAIRNESS: max_min_fairness,
    PolicyKind.FIFO: fifo,
    PolicyKind.SHORTEST_JOB_FIRST: shortest_job_first,
    PolicyKind.MIN_MAKESPAN: min_makespan,
    PolicyKind.FINISH_TIME_FAIRNESS: finish_time_fairness,
    PolicyKind.MAX_TOTAL_THROUGHPUT: max_total_throughput,
    PolicyKind.MIN_COST: min_cost,
    PolicyKind.MIN_COST_SLO: min_cost_slo,
}


def _runnable(T: ThroughputMatrix, jobs: dict,
             space_sharing: bool) -> ThroughputMatrix:
    """T without what cannot run: rows with a finished member (`jobs` maps
    job id -> Job), pair rows unless space sharing, and cells whose type has
    fewer workers than the row needs.  T itself when nothing is dropped."""
    finished = np.array([job_id in jobs and jobs[job_id].finished
                         for job_id in T.job_ids], dtype=bool)
    keep = ~finished[T.ends].any(axis=1) & (space_sharing | ~T.is_pair)
    if not keep.all():
        T = T.with_rows([combo for combo, k in zip(T.rows, keep) if k])
    workers = np.array([t.num_workers for t in T.cluster.types])
    fits = row_workers(T, jobs)[:, None] <= workers[T.type_of]
    if (fits | ~T.feasible).all():
        return T
    return ThroughputMatrix(T.cluster, T.rows, T.thr, T.feasible & fits)


def solve_policy(spec: PolicySpec, jobs, cluster: ClusterSpec,
                 T: ThroughputMatrix, entities=None) -> PolicyResult:
    """Compile the unfinished jobs' ProblemSpace once over what of T can
    run (`_runnable`), solve the spec's policy over it and return a
    validated allocation over that matrix.

    `cluster` is not read (`T.cluster` is the cluster); it stays in the
    signature for callers that pass the arguments by position.
    """
    from . import waterfill

    by_id = {j.id: j for j in jobs}
    jobs = [j for j in jobs if not j.finished]
    if not jobs:
        raise PolicyError("no active jobs")
    space = ProblemSpace(jobs, _runnable(T, by_id, spec.space_sharing))
    if spec.kind is PolicyKind.HIERARCHICAL:
        out = waterfill.hierarchical_waterfill(space, entities)
    elif spec.water_filling:
        out = waterfill.single_level_waterfill(space)
    else:
        out = POLICIES[spec.kind](space)
    out.allocation.validate(space.by_id)
    return out
