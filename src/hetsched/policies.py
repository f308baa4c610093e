"""Scheduling policies compiled into optimization problems over allocation
matrices.

Every policy searches for the fraction of wall-clock time each job (or job
combination) should spend on each resource configuration, maximizing or
minimizing an objective expressed through effective throughputs.  Each
policy is a function of the `ProblemSpace` that `solve_policy` compiles once
per decision, and returns a `PolicyResult`; `solve_policy` finds it in
`POLICIES` by kind (water filling lives in `waterfill`).  `ProblemSpace.lp`
builds every LP over the cells from row blocks, (coeffs, relations, rhs)
triples whose coeffs are sparse `lp.Rows` made from the space's per-entry
rates, never a dense job-by-cell array.  Max-min objectives
(max-min fairness, min-makespan and the water-filling level) are compiled to
one epigraph LP by `max_min_lp`; LAS builds it over classes of jobs alike
(`ProblemSpace.classes`).  Finish-time fairness iterates the same
builder, and the cost policies maximize their linear-fractional objective
by Dinkelbach's iteration over `ProblemSpace.lp`.
Shortest job first and the SLO rates solve no LP: a job alone on the
cluster runs on its fastest singleton cell (`fastest_cell`).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cluster import ClusterSpec
from .jobs import ENTITY_POLICY_NAMES
from .lp import OPT_TOL, IterationLimitError, LinearProgram, Relation, Rows, solve_lp
from .matrices import (AllocationMatrix, ThroughputMatrix, effective_throughput,
                       equal_shares, isolated_allocation, row_workers)
# bench/tracing.py wraps `bisect` where this module binds it.
from .search import bisect  # noqa: F401

# SJF switches to a job only when it finishes this many seconds sooner, so
# exact ties go to the job listed first.
SJF_TIE_TOL = 1e-12
# Finish-time fairness and the cost policies raise IterationLimitError
# after this many LPs of their parametric iteration.
MAX_PARAMETRIC_ITERS = 50
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
    max-min fairness, which it switches to water filling; the hierarchical
    policy always water-fills, so on it, as on any other, the flag would
    change nothing and is refused."""

    kind: PolicyKind
    space_sharing: bool = False
    water_filling: bool = False

    def __post_init__(self):
        if self.water_filling and self.kind is not PolicyKind.MAX_MIN_FAIRNESS:
            raise ValueError(f"+wf applies only to las, not {self.kind.value!r}")

    def label(self) -> str:
        text = self.kind.value
        if self.space_sharing:
            text += "+ss"
        if self.water_filling:
            text += "+wf"
        return text


def parse_policy(text: str) -> PolicySpec:
    """Parse a policy string such as "las", "las+ss+wf", "hier:fair/fifo".

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


class ZeroThroughputError(PolicyError):
    """A job has zero throughput on every configuration, so its equal-share
    normalizer vanishes."""


class InfeasibleSloError(PolicyError):
    def __init__(self, job_ids):
        self.job_ids = sorted(job_ids)
        super().__init__(f"SLOs unattainable for jobs {self.job_ids}")


class PolicyInfeasibleError(PolicyError):
    pass


class JobListError(PolicyError, ValueError):
    """The jobs given to a solve do not match the throughput matrix's."""


class EntityError(PolicyError, ValueError):
    """A hierarchical policy got no entities, or a job whose entity is not
    among them."""


def check_jobs(jobs, T: ThroughputMatrix):
    """A solve's input rule: the jobs, finished ones included, are the
    matrix's jobs, each listed once.  Raises JobListError otherwise."""
    counts = Counter(j.id for j in jobs)
    missing = [job_id for job_id in T.job_ids if job_id not in counts]
    repeated = sorted(job_id for job_id, n in counts.items() if n > 1)
    unknown = sorted(counts.keys() - set(T.job_ids))
    if missing or repeated or unknown:
        raise JobListError(f"the jobs do not match the throughput matrix: "
                           f"missing jobs {missing}, repeated jobs {repeated}, "
                           f"jobs without rows {unknown}")


def check_entities(jobs, entities):
    """The hierarchical policy's input rule: some entities are listed and
    every job names one of them.  Raises EntityError otherwise."""
    if not entities:
        raise EntityError("a hierarchical policy needs entities, and none are listed")
    known = {e.id for e in entities}
    strays = [j.id for j in jobs if j.entity_id not in known]
    if strays:
        raise EntityError("a hierarchical policy needs every job's entity among "
                          f"the listed ones; jobs {strays} have none or an "
                          "unlisted one")


class ProblemSpace:
    """Indexing and shared constraints for LPs over allocation cells.

    Variables 0..R*C-1 are the allocation cells in row-major order; builders
    may append extra scalar variables (an epigraph bound, binary flags).
    Every job must have rows in the matrix (`check_jobs`).

    The cells are compiled once per decision as flat entries, one per
    member of each row on each of the row's cells, infeasible ones
    included: `job` (the member's position in `jobs`), `cell` and `rate`
    (its steps/second there, 0.0 where infeasible), ordered by row, then
    member, then configuration, so each job's cells ascend.  A member
    outside `jobs` has no entry.  Each job's rates over the cells
    (`rate_rows`, `rates`), its throughput under an allocation
    (`throughputs`), the validity rows (each job's time budget, 1.0 on its
    entries' cells, then each type's worker capacity) and the equal-share
    throughputs all come from them, and `lp` builds every LP over the cells
    from `lp.Rows` blocks.  No array is indexed by job and cell together.

    When T has no pair rows, `classes` splits the jobs into classes of
    jobs alike and gives the space LAS solves over: one budget and one
    level row per class (`ClassSpace`).
    """

    def __init__(self, jobs, T: ThroughputMatrix):
        self.T = T
        self.jobs = list(jobs)
        self.by_id = {j.id: j for j in self.jobs}
        self.position = {j.id: k for k, j in enumerate(self.jobs)}
        R, C, n = T.num_rows, T.num_configs, len(self.jobs)
        self.n_cells = R * C
        # Each row's first and last member's position in `jobs`, n for a job
        # outside the space and for a singleton's second slot.
        pos = np.full(len(T.job_ids), n, dtype=np.intp)
        pos[[T.job_index(j.id) for j in self.jobs]] = np.arange(n)
        self.members = pos[T.ends]
        self.members[~T.is_pair, 1] = n
        r, slot = (self.members < n).nonzero()
        self.job = self.members[r, slot].repeat(C)
        self.cell = ((r * C)[:, None] + np.arange(C)).ravel()
        self.rate = T.thr[r, :, slot].ravel()
        # Only singleton rows have an equal share.
        single = ~T.is_pair[r]
        shares = np.where(single[:, None], equal_shares(T.cluster), 0.0).ravel()
        norms = np.bincount(self.job, self.rate * shares, n)
        self.equal_norm = {}
        for j, norm in zip(self.jobs, norms.tolist()):
            if norm <= 0:
                raise ZeroThroughputError(
                    f"job {j.id} has zero throughput on every configuration")
            self.equal_norm[j.id] = norm

        self.row_sf = row_workers(T, self.by_id).astype(float)
        self._upper = np.where(T.feasible.ravel(), np.inf, 0.0)

    @cached_property
    def validity(self) -> Rows:
        """Each job's time budget, 1.0 on its entries' cells, then each
        type's worker capacity, a cell's coefficient its row's `row_sf`
        (no entry where that is 0, as on a `ClassSpace`'s other members)."""
        n, C = len(self.jobs), self.T.num_configs
        workers = np.repeat(self.row_sf, C)
        cells = workers.nonzero()[0]
        return Rows(np.concatenate([self.job, n + self.T.type_of[cells % C]]),
                    np.concatenate([self.cell, cells]),
                    np.concatenate([np.ones(len(self.job)), workers[cells]]),
                    (n + len(self.T.cluster.types), self.n_cells))

    @property
    def validity_rhs(self) -> list:
        """The validity rows' right-hand sides."""
        return [1.0] * len(self.jobs) + [float(t.num_workers) for t in self.T.cluster.types]

    def classes(self) -> "ProblemSpace":
        """This space over its classes of jobs alike (a `ClassSpace`), or
        the space itself when no two jobs are alike.  Jobs are alike when
        T has no pair rows and they have the same rate row, feasible row,
        scale factor and weight, and so the same LAS scale; a matrix with
        pair rows leaves every job its own class.  Not cached: a space that
        held itself would be freed only by the cyclic garbage collector."""
        n = len(self.jobs)
        if self.T.is_pair.any() or not n:
            return self
        # Each job's row, its only one, in `jobs` order (outsiders sort last).
        rows = self.members[:, 0].argsort(kind="stable")[:n]
        # A cell's rate, or -1.0 where infeasible.
        cells = np.where(self.T.feasible[rows], self.T.thr[rows, :, 0], -1.0).tobytes()
        w, first = len(cells) // n, {}
        rep = [first.setdefault((cells[k * w:(k + 1) * w], j.scale_factor, j.weight), k)
               for k, j in enumerate(self.jobs)]
        if len(first) == n:
            return self
        return ClassSpace(self, rows, np.array(rep))

    @cached_property
    def best(self) -> dict:
        """Each job's best rate over its cells, 0.0 when it has none."""
        top = [0.0] * (len(self.jobs) + 1)
        for k, rate in zip(self.members.ravel().tolist(),
                           self.T.thr.max(axis=1).ravel().tolist()):
            if rate > top[k]:
                top[k] = rate
        return dict(zip(self.by_id, top))

    def throughputs(self, x: np.ndarray) -> np.ndarray:
        """Each job's throughput when the cells hold the time shares `x`,
        in `jobs` order.  A job's entries are added onto 0.0 as its cells
        ascend, so the sum is the one `effective_throughput` adds: every
        term that one has and this one lacks is a +0.0."""
        return np.bincount(self.job, self.rate * x[self.cell], len(self.jobs))

    def rates(self, job_id) -> np.ndarray:
        """The job's rate on every cell, 0.0 off its rows."""
        mine = self.job == self.position[job_id]
        out = np.zeros(self.n_cells)
        out[self.cell[mine]] = self.rate[mine]
        return out

    def rate_rows(self, width: int) -> Rows:
        """Row k holds the rates of the job at position k of `jobs` on its
        cells, over `width` columns."""
        return Rows(self.job, self.cell, self.rate, (len(self.jobs), width))

    def lp(self, objective, rows=()) -> LinearProgram:
        """The LP maximizing `objective` over the cells and the
        `len(objective) - n_cells` extra variables, all nonnegative and the
        cells pinned to 0 where infeasible, under the row blocks in `rows`
        and then the per-job time budget and per-type worker capacity rows.
        A block is a (coeffs, relations, rhs) triple whose coeffs are
        `Rows` over the cells alone (the extra variables' entries are 0) or
        over every variable."""
        n = len(objective)
        blocks = [*rows, (self.validity, [Relation.LE] * len(self.validity),
                          self.validity_rhs)]
        return LinearProgram(
            n, objective, Rows.stack([c for c, _, _ in blocks], n),
            [rel for _, rels, _ in blocks for rel in rels],
            np.concatenate([rhs for _, _, rhs in blocks]), np.zeros(n),
            np.append(self._upper, np.full(n - self.n_cells, np.inf)))

    def allocation(self, x: np.ndarray) -> AllocationMatrix:
        values = np.clip(x[: self.n_cells], 0.0, 1.0)
        return AllocationMatrix(self.T, values.reshape(self.T.num_rows,
                                                       self.T.num_configs))


class ClassSpace(ProblemSpace):
    """A space over classes of jobs alike (`ProblemSpace.classes`), compiled
    from the job space's entries.  Its `jobs` are each class's first
    member, in the job space's order, with that member's entries, so a
    class has one time budget and one row in every per-job block.  The
    other members are outside it: their cells are pinned to 0 and carry no
    coefficient.  `row_sf` is each row's worker count times its class's
    size, so a first member's capacity coefficients count every member,
    and `allocation` gives every member its class's row.  The variables
    are still every cell of T."""

    def __init__(self, space: ProblemSpace, rows: np.ndarray, rep: np.ndarray):
        """`rows` holds each job's row and `rep` the position of its
        class's first member, both in `space.jobs` order."""
        n, C = len(space.jobs), space.T.num_configs
        first = (rep == np.arange(n)).nonzero()[0]
        m = len(first)
        self.T, self.n_cells = space.T, space.n_cells
        self.jobs = [space.jobs[k] for k in first.tolist()]
        self.by_id = {j.id: j for j in self.jobs}
        self.position = {j.id: k for k, j in enumerate(self.jobs)}
        self.equal_norm = space.equal_norm
        # A job's position here, m for the other members and outsiders.
        at = np.full(n + 1, m)
        at[first] = np.arange(m)
        self.members = at[space.members]
        job = at[space.job]
        mine = (job < m).nonzero()[0]
        self.job, self.cell, self.rate = job[mine], space.cell[mine], space.rate[mine]
        # Each row's member count: its class's size on a first member's
        # row, 0 on the other members' rows, 1 on an outsider's.
        size = np.bincount(rep, minlength=n + 1)
        size[n] = 1
        count = size[space.members[:, 0]]
        self.row_sf = space.row_sf * count
        self._upper = np.where(np.repeat(count > 0, C), space._upper, 0.0)
        # The row of x each row of the allocation is read from.
        self.source = np.arange(space.T.num_rows)
        self.source[rows] = rows[rep]

    def allocation(self, x: np.ndarray) -> AllocationMatrix:
        """Every member's row holds its class's first member's row of x."""
        return AllocationMatrix(self.T, super().allocation(x).values[self.source])


def fastest_cell(T: ThroughputMatrix, job_id: int) -> tuple[int | None, float]:
    """The job's best standalone rate and the cell that gives it: the first
    fastest configuration of its singleton row, as an index into the
    row-major allocation cells.

    This is the optimum of the LP that gives the job the whole cluster.  In
    a runnable matrix (`_runnable`) every feasible cell fits its row's
    workers, so no capacity row binds and only the job's time budget does.
    A best rate at or below `OPT_TOL` counts as 0 with no cell, as the
    simplex's pricing would.
    """
    r = T.singleton_row(job_id)
    rates = T.thr[r, :, 0]  # 0.0 where infeasible
    c = int(rates.argmax())
    if rates[c] <= OPT_TOL:
        return None, 0.0
    return r * T.num_configs + c, float(rates[c])


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
    is lam; floors default to zero.  The scales are positive, so a level
    row's coefficient is +0.0 wherever its job has no rate."""
    n = space.n_cells
    obj = np.zeros(n + 1)
    obj[-1] = 1.0
    ks = [k for k, j in enumerate(space.jobs) if j.id in scales]
    ids = [space.jobs[k].id for k in ks]
    level, m = space.rate_rows(n), len(ks)
    if m < len(space.jobs):
        level = level.take(ks)
    lp = space.lp(obj, [(Rows(np.concatenate([level.row, np.arange(m)]),
                              np.concatenate([level.col, np.full(m, n)]),
                              np.concatenate([np.array([scales[i] for i in ids])[level.row]
                                              * level.val, np.full(m, -1.0)]),
                              (m, n + 1)),
                         [Relation.GE] * m,
                         [floors[i] if floors else 0.0 for i in ids])])
    lp.lower[-1] = -np.inf  # lam is free
    return lp


def _weighted_sum_lp(space: ProblemSpace, weights: dict) -> LinearProgram:
    """Maximize sum_j weights[j] * thr_j(X) over valid allocations.  A cell
    has at most two members, so its objective coefficient is the same
    whichever order their terms are added in."""
    w = np.zeros(len(space.jobs))
    w[[space.position[job_id] for job_id in weights]] = list(weights.values())
    return space.lp(np.bincount(space.cell, w[space.job] * space.rate,
                                space.n_cells))


def _solve(label: str, lp: LinearProgram, space: ProblemSpace) -> PolicyResult:
    """Solve a built policy LP; the objective is the LP's optimum."""
    res = solve_lp(lp)
    if not res.optimal:
        raise PolicyInfeasibleError(f"{label} LP returned {res.status}")
    return PolicyResult(space.allocation(res.x), res.objective_value)


def max_min_fairness(space: ProblemSpace) -> PolicyResult:
    """Weighted max-min fairness over normalized effective throughputs,
    each scaled by the job's worker count over its weight.

    The epigraph LP is built over the space's classes of jobs alike
    (`ProblemSpace.classes`): one level row and one time budget per class,
    in the order of the classes' first members, with each first member's
    capacity coefficients multiplied by its class's size, and every member
    gets its class's allocation row.  Averaging any optimum over the
    members of each class gives an optimum that treats them alike, so the
    optimum is the job LP's (the LP symmetry reduction of Bödi, Herr and
    Joswig, Math. Programming 2013).  A class of one adds exactly the job
    LP's rows and coefficients, so with no two jobs alike the LP is the
    job LP."""
    classes = space.classes()
    return _solve("max-min fairness", max_min_lp(classes, {
        j.id: j.scale_factor / (j.weight * space.equal_norm[j.id])
        for j in classes.jobs}), classes)


def fifo(space: ProblemSpace) -> PolicyResult:
    """Prefer earlier arrivals: maximize the sum of throughputs normalized
    by each job's fastest configuration, weighted M-m by arrival rank."""
    order = sorted(space.jobs, key=lambda j: (j.arrival_time, j.id))
    # Positive: `ProblemSpace` rejects a job with no positive singleton cell.
    weights = {j.id: (len(order) - rank) / space.best[j.id]
               for rank, j in enumerate(order)}
    return _solve("fifo", _weighted_sum_lp(space, weights), space)


def max_total_throughput(space: ProblemSpace) -> PolicyResult:
    """Maximize the sum of the jobs' effective throughputs."""
    return _solve("throughput",
                  _weighted_sum_lp(space, {j.id: 1.0 for j in space.jobs}), space)


def shortest_job_first(space: ProblemSpace) -> PolicyResult:
    """Give the whole cluster to whichever job can finish soonest; the
    objective is that job's duration in seconds.  A job alone runs all the
    time on its fastest singleton cell (`fastest_cell`), so no LP is
    solved."""
    best = None
    for j in space.jobs:
        cell, rate = fastest_cell(space.T, j.id)
        if rate <= 0:
            continue
        duration = j.remaining_steps / rate
        if best is None or duration < best[0] - SJF_TIE_TOL:
            best = (duration, cell)
    if best is None:
        raise ZeroThroughputError("no job can run anywhere")
    duration, cell = best
    x = np.zeros(space.n_cells)
    x[cell] = 1.0
    return PolicyResult(space.allocation(x), duration)


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


def finish_time_fairness(space: ProblemSpace) -> PolicyResult:
    """Minimize the largest finish-time-fairness ratio by a sequence of
    max-min LPs; the objective is the returned allocation's ratio.

    rho_j(X) = (e_j + r_j / thr_j(X)) / d_j for elapsed time e_j, remaining
    steps r_j and d_j the finish time under an isolated 1/n share.  From the
    isolated allocation, each step (Crouzeix, Ferland and Schaible, 1985)
    takes lam and w_j = 1 / (d_j thr_j) at the last allocation, which scores
    >= 0, solves max_X min_j w_j ((lam d_j - e_j) thr_j(X) - r_j), and stops
    once rho falls by no more than `OPT_TOL` relative.
    """
    T, ids = space.T, list(space.by_id)
    e, r, iso_e = np.array([(j.elapsed_time, j.remaining_steps,
                             j.isolated_elapsed_time) for j in space.jobs]).T
    X = isolated_allocation(T, len(ids))
    thr = np.array([effective_throughput(i, X, T) for i in ids])
    if thr.min() <= 0:
        raise ZeroThroughputError(
            f"job {ids[(thr <= 0).argmax()]}: isolated throughput is zero")
    d = iso_e + r / thr
    lam = float(((e + r / thr) / d).max())
    for _ in range(MAX_PARAMETRIC_ITERS):
        w = 1.0 / (d * thr)
        res = solve_lp(max_min_lp(space, dict(zip(ids, (w * (lam * d - e)).tolist())),
                                  dict(zip(ids, (w * r).tolist()))))
        if not res.optimal:
            raise PolicyInfeasibleError(f"finish-time fairness LP returned {res.status}")
        X_next = space.allocation(res.x)
        thr_next = np.array([effective_throughput(i, X_next, T) for i in ids])
        lam_next = float(((e + r / thr_next) / d).max()) if thr_next.min() > 0 else np.inf
        done = lam - lam_next <= OPT_TOL * lam_next
        if lam_next < lam:  # else the last allocation stays
            X, thr, lam = X_next, thr_next, lam_next
        if done:
            return PolicyResult(X, lam)
    raise IterationLimitError(
        f"finish-time fairness did not converge in {MAX_PARAMETRIC_ITERS} LPs")


# ---------------------------------------------------------------------------
# Cost policies (linear-fractional)
# ---------------------------------------------------------------------------

def min_cost(space: ProblemSpace) -> PolicyResult:
    """Maximize total effective throughput per dollar; the objective is
    steps per dollar."""
    return _max_steps_per_dollar(space, {}, [])


def min_cost_slo(space: ProblemSpace) -> PolicyResult:
    """`min_cost` with every job sustaining enough throughput to meet its
    deadline.  A job whose deadline has already passed is held at its best
    standalone rate (`fastest_cell`) and listed in the result's
    violations."""
    required, violations, impossible = {}, [], []
    for k, j in enumerate(space.jobs):
        if j.slo_seconds is None or not np.isfinite(j.slo_seconds):
            continue
        time_left = j.slo_seconds - j.elapsed_time
        best = fastest_cell(space.T, j.id)[1]
        if time_left <= 0:
            violations.append(j.id)
            rate = best
        else:
            rate = j.remaining_steps / time_left
            if rate > best + SLO_RATE_TOL:
                impossible.append(j.id)
                continue
        required[k] = rate
    if impossible:
        raise InfeasibleSloError(impossible)
    return _max_steps_per_dollar(space, required, violations)


def _max_steps_per_dollar(space: ProblemSpace, required: dict,
                          violations: list) -> PolicyResult:
    """Maximize steps per dollar, num(X) / den(X), over the validity rows
    and a row holding the job at each index of `space.jobs` in `required`
    at or above its rate there; the objective is the result's ratio.

    The denominator charges each cell cost_j * scale_factor once per
    combination row, so a colocated pair is billed for one worker set, not
    two.  By Dinkelbach's iteration (1967), each LP from ratio 0 maximizes
    num - ratio * den over those rows, and its optimum's ratio is the next.
    It stops once the ratio rises by no more than `OPT_TOL` relative,
    keeping the last allocation that raised it.  An optimum with steps at no
    cost leaves the ratio unbounded: the result then maximizes throughput
    over the zero-cost cells alone, with objective inf.
    """
    T = space.T
    num = np.bincount(space.cell, space.rate, space.n_cells)
    den = np.outer(space.row_sf, [T.cluster.types[cfg.type_id].cost_per_hour
                                  for cfg in T.configs]).ravel()
    lp = space.lp(num)
    lp.add_rows(space.rate_rows(space.n_cells).take(list(required)),
                [Relation.GE] * len(required),
                list(required.values()))
    ratio, X = 0.0, None
    for _ in range(MAX_PARAMETRIC_ITERS):
        res = solve_lp(replace(lp, objective=num - ratio * den))
        if not res.optimal:
            raise PolicyInfeasibleError(f"cost LP returned {res.status}")
        X_next = space.allocation(res.x)
        x = X_next.values.ravel()
        steps, dollars = float(num @ x), float(den @ x)
        if dollars <= 0 < steps:
            free = replace(lp, upper=np.where(den <= 0, lp.upper, 0.0))
            return PolicyResult(_solve("zero-cost", free, space).allocation,
                                float("inf"), violations)
        # An optimum that costs nothing and runs nothing has value 0, so no
        # allocation beats `ratio`.
        ratio_next = steps / dollars if dollars > 0 else ratio
        done = ratio_next - ratio <= OPT_TOL * ratio_next
        if X is None or ratio_next > ratio:
            X, ratio = X_next, ratio_next
        if done:
            return PolicyResult(X, ratio, violations)
    raise IterationLimitError(
        f"min cost did not converge in {MAX_PARAMETRIC_ITERS} LPs")


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
        T = T.take(keep)
    workers = np.array([t.num_workers for t in T.cluster.types])
    fits = row_workers(T, jobs)[:, None] <= workers[T.type_of]
    if (fits | ~T.feasible).all():
        return T
    return ThroughputMatrix(T.cluster, T.rows, T.thr, T.feasible & fits)


def solve_policy(spec: PolicySpec, jobs, cluster: ClusterSpec,
                 T: ThroughputMatrix, entities=None) -> PolicyResult:
    """Check the jobs against T (`check_jobs`), compile the unfinished
    jobs' ProblemSpace once over what of T can run (`_runnable`), solve the
    spec's policy over it and return a validated allocation over that
    matrix.

    `cluster` is not read (`T.cluster` is the cluster); it stays in the
    signature for callers that pass the arguments by position.
    """
    from . import waterfill

    check_jobs(jobs, T)
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
