"""Scheduling policies compiled into optimization problems over allocation
matrices.

Every policy searches for the fraction of wall-clock time each job (or job
combination) should spend on each resource configuration, maximizing or
minimizing an objective expressed through effective throughputs.  Max-min
objectives (max-min fairness, min-makespan and the water-filling level) are
compiled to one epigraph LP by `max_min_lp`; only finish-time fairness is
solved by bisection over a feasibility LP; the cost policies reduce a
linear-fractional objective to one LP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterSpec
from .lp import LinearProgram, Relation, solve_lp
from .matrices import (AllocationMatrix, ThroughputMatrix,
                       equal_share_allocation, effective_throughput,
                       inorder_sum, isolated_allocation)
from .search import RatioUnboundedError, bisect, maximize_ratio


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
    come from the trace or the jobs file."""

    kind: PolicyKind
    space_sharing: bool = False
    water_filling: bool = False

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
        bad = set(entity_policies.split("/")) - {"fair", "fifo"}
        if bad:
            raise ValueError(f"unknown entity policies: {sorted(bad)}")
    return PolicySpec(kind, space_sharing="ss" in flags,
                      water_filling="wf" in flags)


# Optional hook for --dump-lp style debugging: a callable fed the text of
# every LP built by the policy compilers.
lp_debug_sink = None


def _debug_lp(label: str, lp: LinearProgram):
    if lp_debug_sink is not None:
        lp_debug_sink(f"# {label}\n{lp.dump()}")


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
    equal-share throughput are compiled once from the matrix's arrays.
    """

    def __init__(self, jobs, T: ThroughputMatrix):
        self.T = T
        self.jobs = list(jobs)
        self.by_id = {j.id: j for j in self.jobs}
        present = set(T.job_ids)
        missing = [j.id for j in self.jobs if j.id not in present]
        if missing:
            raise MissingThroughputError(f"no throughput rows for jobs {missing}")
        for combo in T.rows:
            sfs = {self.by_id[m].scale_factor for m in combo.members
                   if m in self.by_id}
            if len(sfs) > 1:
                raise ValueError(f"pair {combo} mixes scale factors {sfs}")
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

        # A row's workers are its first member's scale factor (1 when that
        # job is not scheduled here).
        self.row_sf = np.array([
            float(self.by_id[combo.members[0]].scale_factor)
            if combo.members[0] in self.by_id else 1.0 for combo in T.rows])
        self._upper = np.where(T.feasible.ravel(), np.inf, 0.0)
        # Per-job time budgets, then per-type worker capacity.
        budget = np.repeat(T.member_of[ks], T.num_configs, axis=1).astype(float)
        types = T.cluster.types
        capacity = np.where(T.type_of == np.arange(len(types))[:, None, None],
                            self.row_sf[:, None], 0.0)
        self.validity = np.vstack([budget, capacity.reshape(len(types), self.n_cells)])
        self.validity_rhs = [1.0] * len(ks) + [float(t.num_workers) for t in types]

    def cell_bounds(self, extra: int = 0):
        lower = np.zeros(self.n_cells + extra)
        upper = np.concatenate([self._upper, np.full(extra, np.inf)])
        return lower, upper

    def pad(self, cell_coeffs: np.ndarray, extra: int = 0) -> np.ndarray:
        if extra == 0:
            return cell_coeffs
        return np.concatenate([cell_coeffs, np.zeros(extra)])

    def add_validity(self, lp: LinearProgram, extra: int = 0):
        """Per-job time budget and per-type worker capacity rows."""
        for row, rhs in zip(self.validity, self.validity_rhs):
            lp.add_constraint(self.pad(row, extra), Relation.LE, rhs)

    def allocation(self, x: np.ndarray) -> AllocationMatrix:
        values = np.clip(x[: self.n_cells], 0.0, 1.0)
        return AllocationMatrix(self.T, values.reshape(self.T.num_rows,
                                                       self.T.num_configs))

    def throughputs(self, X: AllocationMatrix) -> dict:
        return {j.id: effective_throughput(j.id, X, self.T) for j in self.jobs}

    def standalone_best(self, job_id: int) -> float:
        """Best achievable throughput with the whole cluster to one job."""
        lp = self._single_job_lp(job_id)
        res = solve_lp(lp)
        return res.objective_value if res.optimal else 0.0

    def _single_job_lp(self, job_id: int) -> LinearProgram:
        T = self.T
        r = T.singleton_row(job_id)
        sf = float(self.by_id[job_id].scale_factor)
        lp = LinearProgram(T.num_configs, T.thr[r, :, 0], maximize=True,
                           upper=np.where(T.feasible[r], np.inf, 0.0))
        lp.add_constraint(np.ones(T.num_configs), Relation.LE, 1.0)
        for t in T.cluster.types:
            lp.add_constraint(np.where(T.type_of == t.id, sf, 0.0), Relation.LE,
                              float(t.num_workers))
        return lp

    def single_job_allocation(self, job_id: int) -> AllocationMatrix:
        res = solve_lp(self._single_job_lp(job_id))
        X = AllocationMatrix.zeros(self.T)
        if res.optimal:
            r = self.T.singleton_row(job_id)
            X.values[r, :] = res.x
        return X


# ---------------------------------------------------------------------------
# Single-LP policies
# ---------------------------------------------------------------------------

def max_min_lp(space: ProblemSpace, scales: dict,
               floors: dict | None = None) -> LinearProgram:
    """Epigraph LP: maximize lam subject to
    scales[j] * thr_j(X) - lam >= floors[j] for every job in `scales` (in
    `space.jobs` order), then the validity rows.  Variable `space.n_cells`
    is lam; floors default to zero."""
    n = space.n_cells + 1
    lam = space.n_cells
    obj = np.zeros(n)
    obj[lam] = 1.0
    lower, upper = space.cell_bounds(extra=1)
    lower[lam] = -np.inf
    lp = LinearProgram(n, obj, maximize=True, lower=lower, upper=upper)
    for j in space.jobs:
        if j.id not in scales:
            continue
        row = space.pad(scales[j.id] * space.coeffs[j.id], extra=1)
        row[lam] = -1.0
        lp.add_constraint(row, Relation.GE, floors[j.id] if floors else 0.0)
    space.add_validity(lp, extra=1)
    return lp


def _weighted_sum_lp(space: ProblemSpace, weights: dict) -> LinearProgram:
    """Maximize sum_j weights[j] * thr_j(X), accumulated in `weights`
    order, over valid allocations."""
    obj = np.zeros(space.n_cells)
    for job_id, w in weights.items():
        obj += w * space.coeffs[job_id]
    lower, upper = space.cell_bounds()
    lp = LinearProgram(space.n_cells, obj, maximize=True, lower=lower, upper=upper)
    space.add_validity(lp)
    return lp


def _solve(label: str, lp: LinearProgram, space: ProblemSpace):
    """Solve a built policy LP; returns (AllocationMatrix, objective)."""
    _debug_lp(label, lp)
    res = solve_lp(lp)
    if not res.optimal:
        raise PolicyInfeasibleError(f"{label} LP returned {res.status}")
    return space.allocation(res.x), res.objective_value


def build_las(jobs, cluster: ClusterSpec, T: ThroughputMatrix,
              weights: dict | None = None):
    """Epigraph LP for weighted max-min fairness over normalized effective
    throughputs, scaled by each job's worker count."""
    space = ProblemSpace(jobs, T)
    weights = weights or {j.id: j.weight for j in space.jobs}
    scales = {}
    for j in space.jobs:
        w = weights[j.id]
        if w <= 0:
            raise ValueError(f"job {j.id}: weight must be positive")
        scales[j.id] = j.scale_factor / (w * space.equal_norm[j.id])
    return max_min_lp(space, scales), space


def solve_las(jobs, cluster, T, weights=None):
    lp, space = build_las(jobs, cluster, T, weights)
    return _solve("max-min fairness", lp, space)


def build_fifo(jobs, cluster: ClusterSpec, T: ThroughputMatrix):
    """LP preferring earlier arrivals: maximize the sum of throughputs
    normalized by each job's fastest configuration, weighted M-m by arrival
    rank."""
    space = ProblemSpace(jobs, T)
    order = sorted(space.jobs, key=lambda j: (j.arrival_time, j.id))
    M = len(order)
    weights = {}
    for rank, j in enumerate(order):
        fastest = T.max_throughput(j.id)
        if fastest <= 0:
            raise ZeroThroughputError(f"job {j.id} has no feasible configuration")
        weights[j.id] = (M - rank) / fastest
    return _weighted_sum_lp(space, weights), space


def solve_fifo(jobs, cluster, T):
    lp, space = build_fifo(jobs, cluster, T)
    return _solve("fifo", lp, space)


def solve_max_total_throughput(jobs, cluster, T):
    space = ProblemSpace(jobs, T)
    lp = _weighted_sum_lp(space, {j.id: 1.0 for j in space.jobs})
    return _solve("throughput", lp, space)


def solve_sjf(jobs, cluster, T):
    """Give the whole cluster to whichever job can finish soonest."""
    space = ProblemSpace(jobs, T)
    best = None
    for j in space.jobs:
        thr = space.standalone_best(j.id)
        if thr <= 0:
            continue
        duration = j.remaining_steps / thr
        if best is None or duration < best[0] - 1e-12:
            best = (duration, j.id)
    if best is None:
        raise ZeroThroughputError("no job can run anywhere")
    duration, job_id = best
    return space.single_job_allocation(job_id), duration


def build_makespan(jobs, cluster: ClusterSpec, T: ThroughputMatrix):
    """Min-makespan as one max-min LP.

    The makespan min_X max_j remaining_j / thr_j(X) is the reciprocal of
    max_X min_j thr_j(X) / remaining_j.  Each row is scaled by a reference
    horizon H, the longest equal-share finishing time, so the optimum
    lam* = H / makespan is of order one instead of near the solver's
    feasibility tolerance.  Returns (makespan_seconds, AllocationMatrix).
    """
    space = ProblemSpace(jobs, T)
    H = max(j.remaining_steps / space.equal_norm[j.id] for j in space.jobs)
    lp = max_min_lp(space, {j.id: H / j.remaining_steps for j in space.jobs})
    X, lam = _solve("min makespan", lp, space)
    return float(H / lam), X


# ---------------------------------------------------------------------------
# Bisection policies
# ---------------------------------------------------------------------------

def build_ftf(jobs, cluster: ClusterSpec, T: ThroughputMatrix,
              n_active: int | None = None):
    """Minimize the maximum finish-time-fairness ratio by bisection.

    The ratio compares each job's projected finish time under the allocation
    with its finish time under an isolated 1/n share.  Returns
    (rho, AllocationMatrix).
    """
    space = ProblemSpace(jobs, T)
    n = n_active if n_active is not None else len(space.jobs)
    Xiso = isolated_allocation(T, max(n, 1))
    denom = {}
    iso_thr = {}
    for j in space.jobs:
        thr = effective_throughput(j.id, Xiso, T)
        if thr <= 0:
            raise ZeroThroughputError(f"job {j.id}: isolated throughput is zero")
        iso_thr[j.id] = thr
        denom[j.id] = j.isolated_elapsed_time + j.remaining_steps / thr

    def feasible(lam: float):
        lower, upper = space.cell_bounds()
        lp = LinearProgram(space.n_cells, np.zeros(space.n_cells),
                           maximize=True, lower=lower, upper=upper)
        for j in space.jobs:
            budget = lam * denom[j.id] - j.elapsed_time
            if budget <= 0:
                return False, None
            lp.add_constraint(space.coeffs[j.id], Relation.GE,
                              j.remaining_steps / budget)
        space.add_validity(lp)
        res = solve_lp(lp)
        return res.optimal, (space.allocation(res.x) if res.optimal else None)

    lo = max(j.elapsed_time / denom[j.id] for j in space.jobs) + 1e-9
    hi = max((j.elapsed_time + j.remaining_steps / iso_thr[j.id]) / denom[j.id]
             for j in space.jobs) + 1e-9
    value, X = bisect(feasible, lo, hi)
    if X is None:
        ok, X = feasible(value)
        if not ok:
            raise PolicyError(f"FTF bound {value} was not feasible on re-solve")
    return value, X


# ---------------------------------------------------------------------------
# Cost policies (linear-fractional)
# ---------------------------------------------------------------------------

def build_cost(jobs, cluster: ClusterSpec, T: ThroughputMatrix,
               slo: bool = False):
    """Maximize total effective throughput per dollar.

    The denominator charges each cell cost_j * scale_factor once per
    combination row, so a colocated pair is billed for one worker set, not
    two.  With `slo` every job must additionally sustain enough throughput
    to meet its deadline.  Returns (X, steps_per_dollar, violations) where
    violations lists jobs whose already-elapsed SLO had to be clamped.
    """
    space = ProblemSpace(jobs, T)
    num = np.zeros(space.n_cells)
    for j in space.jobs:
        num += space.coeffs[j.id]
    den = np.outer(space.row_sf, [cluster.types[cfg.type_id].cost_per_hour
                                  for cfg in T.configs]).ravel()

    constraints = []
    lower, upper = space.cell_bounds()
    shell = LinearProgram(space.n_cells, np.zeros(space.n_cells),
                          maximize=True, lower=lower, upper=upper)
    space.add_validity(shell)
    constraints.extend(shell.constraints)

    violations = []
    if slo:
        impossible = []
        for j in space.jobs:
            if j.slo_seconds is None or not np.isfinite(j.slo_seconds):
                continue
            time_left = j.slo_seconds - j.elapsed_time
            best = space.standalone_best(j.id)
            if time_left <= 0:
                # Deadline already blown: hold the job at its best standalone
                # rate and report the violation instead of failing the solve.
                violations.append(j.id)
                required = best
            else:
                required = j.remaining_steps / time_left
                if required > best + 1e-9:
                    impossible.append(j.id)
                    continue
            constraints.append((space.coeffs[j.id], Relation.GE, required))
        if impossible:
            raise InfeasibleSloError(impossible)

    try:
        res = maximize_ratio(num, den, constraints, space.n_cells,
                             lower=lower, upper=upper)
    except RatioUnboundedError:
        # A zero-cost configuration can absorb all work: fall back to
        # maximizing throughput over the free cells only.
        upper2 = np.where(den <= 0, upper, 0.0)
        lp = LinearProgram(space.n_cells, num, maximize=True,
                           lower=lower, upper=upper2)
        for coeffs, rel, rhs in constraints:
            lp.add_constraint(coeffs, rel, rhs)
        res2 = solve_lp(lp)
        if not res2.optimal:
            raise PolicyInfeasibleError(
                "cost ratio unbounded but zero-cost restriction unsolvable")
        return space.allocation(res2.x), float("inf"), violations
    if not res.optimal:
        raise PolicyInfeasibleError(f"cost LP returned {res.status}")
    return space.allocation(res.x), res.objective_value, violations


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

@dataclass
class PolicyResult:
    allocation: AllocationMatrix
    objective: float
    violations: list = field(default_factory=list)


def solve_policy(spec: PolicySpec, jobs, cluster: ClusterSpec,
                 T: ThroughputMatrix, entities=None,
                 n_active: int | None = None) -> PolicyResult:
    """Dispatch to the policy builders and return a validated allocation."""
    from . import waterfill

    if not spec.space_sharing:
        T = T.singletons_only()
    jobs = [j for j in jobs if not j.finished]
    if not jobs:
        raise PolicyError("no active jobs")

    if spec.kind is PolicyKind.HIERARCHICAL:
        if any(j.entity_id is None for j in jobs):
            raise PolicyError("hierarchical policy requires entity ids on all jobs")
        result = waterfill.hierarchical_waterfill(entities, jobs, cluster, T)
        out = PolicyResult(result.allocation, result.objective)
    elif spec.kind is PolicyKind.MAX_MIN_FAIRNESS:
        if spec.water_filling:
            result = waterfill.single_level_waterfill(jobs, cluster, T)
            out = PolicyResult(result.allocation, result.objective)
        else:
            X, obj = solve_las(jobs, cluster, T)
            out = PolicyResult(X, obj)
    elif spec.kind is PolicyKind.FIFO:
        X, obj = solve_fifo(jobs, cluster, T)
        out = PolicyResult(X, obj)
    elif spec.kind is PolicyKind.SHORTEST_JOB_FIRST:
        X, obj = solve_sjf(jobs, cluster, T)
        out = PolicyResult(X, obj)
    elif spec.kind is PolicyKind.MIN_MAKESPAN:
        value, X = build_makespan(jobs, cluster, T)
        out = PolicyResult(X, value)
    elif spec.kind is PolicyKind.FINISH_TIME_FAIRNESS:
        value, X = build_ftf(jobs, cluster, T, n_active=n_active)
        out = PolicyResult(X, value)
    elif spec.kind is PolicyKind.MAX_TOTAL_THROUGHPUT:
        X, obj = solve_max_total_throughput(jobs, cluster, T)
        out = PolicyResult(X, obj)
    elif spec.kind in (PolicyKind.MIN_COST, PolicyKind.MIN_COST_SLO):
        X, obj, violations = build_cost(jobs, cluster, T,
                                        slo=spec.kind is PolicyKind.MIN_COST_SLO)
        out = PolicyResult(X, obj, violations)
    else:  # pragma: no cover
        raise PolicyError(f"unhandled policy {spec.kind}")

    out.allocation.validate({j.id: j for j in jobs})
    return out
