"""Independent brute-force oracles for policy objectives.

The search space is gridded over the first accelerator type's per-job time
shares (resolution 0.01 with a 0.001 local refinement); the last type's
shares are then solved exactly per grid point (water filling for max-min
objectives, a greedy fill for linear ones, feasibility bisection for
ratio-bound objectives).  Instances are restricted to singleton jobs with
scale factor 1 and one worker per type so the grid is the whole story.

The ratio (cost) objective is handled by exact vertex enumeration instead:
a linear-fractional optimum lies at a vertex of the allocation polytope.

The module also keeps the first, plainer versions of library kernels as
references that the optimized ones must match: row-at-a-time ALS
(`reference_complete_matrix`), ALS one matrix per call
(`restart_batched_complete_matrix`), the two-phase simplex (`reference_solve_lp`),
the dense standardization whose tableau the library's sparse scatter must
match byte for byte (`DenseStandardized`), the cell-at-a-time
throughput-matrix walks (`CellMatrix`, which also gives a space's dense
rate rows, `space_coeffs`, and validity rows, `space_cells`), the
simulator's matrix build one pair at a time (`reference_build_matrix`,
with its pair factors from `reference_pair_factor`), one gain LP
per job (`reference_max_gain`), bottleneck detection by MILP alone
(`reference_find_bottlenecks`), the gain rows that bottleneck detection
takes, built cold where no level LP ran (`gain_state`), water filling's
gain and screen LPs built whole and solved cold (`cold_max_gain`,
`cold_screen_feasible`), water filling with `find_bottlenecks` deciding
every iteration (`reference_waterfill`), its
tightening LP built whole and solved cold (`reference_tighten_lp`), the LP
that gives one job the whole cluster (`reference_standalone`),
finish-time fairness by bisection over its feasibility LP
(`reference_ftf`, with `ftf_rho` to score an allocation) and the LP
builders adding one row at a time (`reference_space_lp` and the
`reference_*_lp` builders on top of it, `reference_pinned`; LAS's LP
with one row per job is `reference_las_lp`), with the
seeded matrices (`random_cells`, priced by `random_costs`) on which they
are compared.  So is the cost policies' ratio as they once maximized it, by
the Charnes-Cooper transformation into one LP (`reference_maximize_ratio`).
The round mechanism as it was before it compiled each decision is kept too:
a ledger with one dict entry per combination (`ReferenceLedger`),
priorities, round planning, placement and settling rebuilt from the matrix
every round (`reference_priorities`, `reference_plan_round`,
`reference_place`, `reference_settle_round`), and `reference_mechanism` to
bind them in the simulator, where none of its plans repeats.  It also
writes throughput-matrix files as the CLI reads them (`matrix_doc`),
generates the template catalog the package ships (`make_template_catalog`)
and builds LPs from the dense rows, relation text and default bounds that
tests write (`lp_of`, with `rows_of` for a block of rows).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

import hetsched.lp
from hetsched.cluster import ClusterSpec, make_cluster
from hetsched.estimator import (DEFAULT_ITERS, DEFAULT_RANK, DEFAULT_REG,
                                CompletionError)
from hetsched.jobs import Job, JobCombination
from hetsched.lp import (DEGENERATE_LIMIT, FEAS_TOL, OPT_TOL, REFACTOR_EVERY,
                         LinearProgram, Relation, Rows, SolveResult, Status,
                         solve_lp)
from hetsched.matrices import (PAIR_KEEP_THRESHOLD, ThroughputMatrix,
                               effective_throughput, isolated_allocation,
                               row_workers)
from hetsched.mechanism import Assignment, PlacementError, RoundPlan
from hetsched.milp import solve_milp
from hetsched.policies import PolicyError, ProblemSpace
from hetsched.search import bisect
from hetsched.traces import JobTemplate, colocation_factor
from hetsched.waterfill import (DELTA_FRACTION, TIGHTEN_SLACK,
                                WaterfillIteration, WaterfillResult,
                                assign_job_weights)

GRID = 0.01
REFINE = 0.001


@dataclass
class OracleInstance:
    """Singleton jobs, scale factor 1, one worker per type."""

    T: np.ndarray  # (jobs, types); 0.0 marks an infeasible cell
    steps: np.ndarray
    weights: np.ndarray
    elapsed: np.ndarray
    iso_elapsed: np.ndarray
    costs: np.ndarray = field(default_factory=lambda: np.array([]))
    slo: np.ndarray | None = None

    @property
    def num_jobs(self) -> int:
        return self.T.shape[0]

    @property
    def num_types(self) -> int:
        return self.T.shape[1]

    def equal_norm(self) -> np.ndarray:
        # Equal share: 1/num_types of the time on each type (one worker per
        # type, so num_workers_j / total_workers = 1/J).
        return self.T.sum(axis=1) / self.num_types


def random_instance(rng: np.random.Generator, max_jobs: int = 3,
                    max_types: int = 2, with_history: bool = False,
                    with_costs: bool = False) -> OracleInstance:
    # Bias away from the largest size so the exhaustive grids stay cheap
    # while every shape still gets real coverage.
    M = int(rng.choice(np.arange(1, max_jobs + 1),
                       p=[0.4, 0.35, 0.25][: max_jobs]
                       if max_jobs == 3 else None))
    J = int(rng.integers(1, max_types + 1))
    T = rng.uniform(0.5, 5.0, size=(M, J))
    if J > 1 and rng.random() < 0.3:
        # Knock out one cell, keeping every job feasible somewhere.
        m = int(rng.integers(0, M))
        j = int(rng.integers(0, J))
        T[m, j] = 0.0
    steps = rng.integers(50, 5000, size=M).astype(float)
    weights = rng.choice([1.0, 2.0, 3.0], size=M)
    elapsed = rng.uniform(0, 2000, size=M) if with_history else np.zeros(M)
    iso_elapsed = elapsed.copy()
    costs = rng.uniform(0.2, 4.0, size=J) if with_costs else np.zeros(J)
    return OracleInstance(T, steps, weights, elapsed, iso_elapsed, costs)


# ---------------------------------------------------------------------------
# Exact inner solvers on the last type (vectorized over grid points)
# ---------------------------------------------------------------------------

def _jobs_major(*arrays):
    """(P, M) inputs as contiguous (M, P) arrays, so every step of the
    bisections below runs over long rows of grid points."""
    return [np.ascontiguousarray(np.transpose(a)) for a in arrays]


def _sum_jobs(a: np.ndarray) -> np.ndarray:
    """Column sums of an (M, P) array, adding the jobs in order."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def waterfill_level(p: np.ndarray, q: np.ndarray, caps: np.ndarray,
                    C: float) -> np.ndarray:
    """Per grid point, maximize min_m (p_m + q_m v_m) subject to
    sum v <= C, 0 <= v <= caps.  Shapes: (P, M).  Returns (P,) levels."""
    p, q, caps = _jobs_major(p, q, caps)
    lam_max = np.where(q > 0, p + q * caps, p)
    hi = lam_max.min(axis=0)
    lo = p.min(axis=0)
    lo = np.minimum(lo, hi)
    movable = q > 0
    q_safe = np.where(movable, q, 1.0)
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        need = np.where(movable, (mid - p) / q_safe, 0.0)
        need = np.clip(need, 0.0, caps)
        ok = _sum_jobs(need) <= C + 1e-12
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return lo


def greedy_linear(coef: np.ndarray, caps: np.ndarray, C: float) -> np.ndarray:
    """Per grid point, maximize sum coef_m v_m subject to sum v <= C,
    0 <= v <= caps.  coef is (M,) constant across points; caps is (P, M)."""
    order = np.argsort(-coef)
    P = caps.shape[0]
    remaining = np.full(P, C)
    value = np.zeros(P)
    for m in order:
        if coef[m] <= 0:
            continue
        take = np.minimum(caps[:, m], remaining)
        value += coef[m] * take
        remaining -= take
    return value


def min_max_rho_level(rho_num_const: np.ndarray, steps: np.ndarray,
                      denom: np.ndarray, p: np.ndarray, q: np.ndarray,
                      caps: np.ndarray, C: float) -> np.ndarray:
    """Per grid point, minimize max_m (t_m + steps_m/theta_m)/denom_m where
    theta_m = p_m + q_m v_m, by bisecting the bound and checking the exact
    transportation feasibility on the last type.  Shapes of p, q and caps:
    (P, M)."""
    P, M = p.shape
    lo_bound = (rho_num_const / denom).max()
    t, steps, denom = (np.asarray(a, dtype=float)[:, None]
                       for a in (rho_num_const, steps, denom))
    p, q, caps = _jobs_major(p, q, caps)

    # Feasible starting bound: scale every cap so the shared capacity holds,
    # then take the worst rho at that concrete allocation.
    cap_sum = _sum_jobs(caps)
    scale = np.minimum(1.0, C / np.where(cap_sum > 0, cap_sum, 1.0))
    theta_feas = p + q * caps * scale
    bad = theta_feas <= 0
    with np.errstate(divide="ignore"):
        rho_feas = (t + steps / np.where(bad, 1.0, theta_feas)) / denom
    rho_feas = np.where(bad, np.inf, rho_feas)
    lo = np.full(P, lo_bound)
    hi = rho_feas.max(axis=0) + 1e-9
    infeasible = ~np.isfinite(hi)
    hi = np.where(infeasible, lo_bound + 1.0, hi)
    movable = q > 0
    q_safe = np.where(movable, q, 1.0)
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        budget = mid * denom - t
        positive = budget > 1e-15
        req = np.where(positive, steps / np.where(positive, budget, 1.0), np.inf)
        need = np.where(movable, (req - p) / q_safe, np.inf)
        need = np.where(req <= p + 1e-15, 0.0, need)
        ok_each = need <= caps + 1e-12
        need = np.clip(need, 0.0, caps)
        ok = ok_each.all(axis=0) & (_sum_jobs(need) <= C + 1e-12)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return np.where(infeasible, np.inf, hi)


# ---------------------------------------------------------------------------
# Grid over the first type
# ---------------------------------------------------------------------------

_GRID_CACHE: dict = {}


def simplex_grid(M: int, step: float, total: float = 1.0) -> np.ndarray:
    """All vectors u >= 0 with entries on the step lattice, u_m <= 1 and
    sum u <= total."""
    key = (M, step, total)
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]
    ticks = int(round(total / step))
    per = int(round(1.0 / step))
    out = []

    def rec(prefix, left):
        if len(prefix) == M - 1:
            for k in range(0, min(left, per) + 1):
                out.append(prefix + [k])
            return
        for k in range(0, min(left, per) + 1):
            rec(prefix + [k], left - k)

    rec([], ticks)
    grid = np.array(out, dtype=float) * step
    _GRID_CACHE[key] = grid
    return grid


def local_grid(center: np.ndarray, step: float, radius: float,
               total: float = 1.0) -> np.ndarray:
    offsets = np.arange(-radius, radius + step / 2, step)
    axes = [np.clip(center[m] + offsets, 0.0, 1.0) for m in range(len(center))]
    pts = np.array(list(itertools.product(*axes)))
    pts = pts[pts.sum(axis=1) <= total + 1e-12]
    return pts


def _outer_values(inst: OracleInstance, evaluate) -> float:
    """Maximize evaluate(u) over the gridded first-type shares; for a single
    type there is no grid and the inner solver sees the whole problem."""
    M = inst.num_jobs
    if inst.num_types == 1:
        u = np.zeros((1, M))
        return float(evaluate(u).max())
    u = simplex_grid(M, GRID)
    vals = evaluate(u)
    best = int(np.argmax(vals))
    fine = local_grid(u[best], REFINE, GRID)
    vals_fine = evaluate(fine)
    return float(max(vals.max(), vals_fine.max()))


def _caps_after(inst: OracleInstance, u: np.ndarray) -> np.ndarray:
    # Row budget left for the last type; infeasible cells get cap 0.
    caps = 1.0 - u
    if inst.num_types == 1:
        last = inst.T[:, 0]
    else:
        last = inst.T[:, 1]
    return np.where(last > 0, caps, 0.0)


def _first_theta(inst: OracleInstance, u: np.ndarray) -> np.ndarray:
    if inst.num_types == 1:
        return np.zeros_like(u)
    first = inst.T[:, 0]
    return u * np.where(first > 0, first, 0.0)


def _last_col(inst: OracleInstance) -> np.ndarray:
    return inst.T[:, -1]


def oracle_las(inst: OracleInstance) -> float:
    norm = inst.equal_norm()
    scale = 1.0 / (inst.weights * norm)

    def evaluate(u):
        if inst.num_types == 2:
            u = u * (inst.T[:, 0] > 0)  # wasted time on infeasible cells never helps
        p = _first_theta(inst, u) * scale
        q = _last_col(inst) * scale
        caps = _caps_after(inst, u)
        return waterfill_level(p, np.broadcast_to(q, p.shape), caps, 1.0)

    return _outer_values(inst, evaluate)


def oracle_makespan(inst: OracleInstance) -> float:
    scale = 1.0 / inst.steps

    def evaluate(u):
        p = _first_theta(inst, u) * scale
        q = _last_col(inst) * scale
        caps = _caps_after(inst, u)
        return waterfill_level(p, np.broadcast_to(q, p.shape), caps, 1.0)

    level = _outer_values(inst, evaluate)
    return 1.0 / level


def oracle_ftf(inst: OracleInstance, n_active: int | None = None) -> float:
    n = n_active if n_active is not None else inst.num_jobs
    iso_thr = inst.equal_norm() / n
    denom = inst.iso_elapsed + inst.steps / iso_thr

    def evaluate(u):
        p = _first_theta(inst, u)
        q = np.broadcast_to(_last_col(inst), p.shape)
        caps = _caps_after(inst, u)
        rho = min_max_rho_level(inst.elapsed, inst.steps, denom, p, q, caps, 1.0)
        return -rho

    return -_outer_values(inst, evaluate)


def oracle_fifo(inst: OracleInstance) -> float:
    M = inst.num_jobs
    fastest = inst.T.max(axis=1)
    rank_w = (M - np.arange(M)) / fastest

    def evaluate(u):
        p = _first_theta(inst, u)
        base = (rank_w * p).sum(axis=1)
        coef = rank_w * _last_col(inst)
        caps = _caps_after(inst, u)
        return base + greedy_linear(coef, caps, 1.0)

    return _outer_values(inst, evaluate)


def oracle_max_throughput(inst: OracleInstance) -> float:
    ones = np.ones(inst.num_jobs)

    def evaluate(u):
        p = _first_theta(inst, u)
        caps = _caps_after(inst, u)
        return p.sum(axis=1) + greedy_linear(_last_col(inst) * ones, caps, 1.0)

    return _outer_values(inst, evaluate)


def oracle_cost(inst: OracleInstance, slo: bool = False) -> float:
    """Exact vertex enumeration of the allocation polytope; the ratio
    objective attains its maximum at a vertex."""
    M, J = inst.T.shape
    n = M * J
    rows = []
    rhs = []
    # Row budgets, column capacities, nonnegativity, box <= 1.
    for m in range(M):
        r = np.zeros(n)
        r[m * J:(m + 1) * J] = 1.0
        rows.append(r)
        rhs.append(1.0)
    for j in range(J):
        r = np.zeros(n)
        r[j::J] = 1.0
        rows.append(r)
        rhs.append(1.0)
    for i in range(n):
        r = np.zeros(n)
        r[i] = -1.0
        rows.append(r)
        rhs.append(0.0)
    for m in range(M):
        for j in range(J):
            if inst.T[m, j] <= 0:
                r = np.zeros(n)
                r[m * J + j] = 1.0
                rows.append(r)
                rhs.append(0.0)
    if slo and inst.slo is not None:
        for m in range(M):
            if not math.isfinite(inst.slo[m]):
                continue
            r = np.zeros(n)
            r[m * J:(m + 1) * J] = -inst.T[m]
            rows.append(r)
            rhs.append(-inst.steps[m] / inst.slo[m])
    A = np.array(rows)
    b = np.array(rhs)
    num = inst.T.reshape(-1)
    den = np.tile(inst.costs, M)

    best = -np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(combo)])
        if np.all(A @ x <= b + 1e-9):
            d = float(den @ x)
            if d > 1e-12:
                best = max(best, float(num @ x) / d)
    return best


# ---------------------------------------------------------------------------
# Per-row alternating least squares (reference for the batched estimator)
# ---------------------------------------------------------------------------

def _als_once(partial, mask, rank, reg, iters, seed):
    n, p = partial.shape
    rng = np.random.default_rng(seed)
    U = rng.uniform(0.0, 1.0, size=(n, rank))
    V = rng.uniform(0.0, 1.0, size=(p, rank))
    eye = reg * np.eye(rank)

    def objective():
        err = (U @ V.T - partial)[mask]
        return float(err @ err) + reg * float((U * U).sum() + (V * V).sum())

    history = [objective()]
    for _ in range(iters):
        for i in range(n):
            cols = mask[i]
            Vi = V[cols]
            U[i] = np.linalg.solve(Vi.T @ Vi + eye, Vi.T @ partial[i, cols])
        for j in range(p):
            rows_ = mask[:, j]
            Uj = U[rows_]
            V[j] = np.linalg.solve(Uj.T @ Uj + eye, Uj.T @ partial[rows_, j])
        history.append(objective())
    return U @ V.T, history


def reference_complete_matrix(partial, mask, rank=3, reg=1e-2, iters=50,
                              seed=0, restarts=3):
    """Row-at-a-time ALS with seeded restarts; the lowest final objective
    wins, the first restart on ties.  Returns (completed, history)."""
    best = None
    for attempt in range(max(1, restarts)):
        completed, history = _als_once(partial, mask, rank, reg, iters,
                                       seed + attempt)
        if best is None or history[-1] < best[1][-1]:
            best = (completed, history)
    completed, history = best
    completed = completed.copy()
    completed[mask] = partial[mask]
    return completed, history


# The library's ALS as it stood when it completed one matrix per call, all
# restarts and rows batched; the stacked ALS must be bit-identical to it.
def restart_batched_complete_matrix(partial: np.ndarray, mask: np.ndarray, rank: int = DEFAULT_RANK,
                    reg: float = DEFAULT_REG, iters: int = DEFAULT_ITERS,
                    seed: int = 0, restarts: int = 3,
                    return_history: bool = False):
    """Alternating least squares low-rank completion.

    Minimizes the squared error on observed cells (mask True) with L2
    regularization on both factors.  ALS is non-convex, so several seeded
    uniform(0,1) starts are run and the factorization with the lowest final
    objective wins (the first on ties).  Observed cells are copied through
    unchanged in the returned matrix.  Deterministic for a fixed seed.

    Given V every row of U is an independent ridge regression (and vice
    versa), so one batched solve over all restarts and rows gives the same
    iterates as updating the rows one at a time.
    """
    partial = np.asarray(partial, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if partial.shape != mask.shape:
        raise CompletionError("matrix and mask shapes differ")
    if rank < 1:
        raise CompletionError("rank must be >= 1")
    if np.any(mask.sum(axis=1) == 0) or np.any(mask.sum(axis=0) == 0):
        raise CompletionError("every row and column needs at least one observation")

    n, p = partial.shape
    U, V = [], []
    for attempt in range(max(1, restarts)):
        rng = np.random.default_rng(seed + attempt)
        U.append(rng.uniform(0.0, 1.0, size=(n, rank)))
        V.append(rng.uniform(0.0, 1.0, size=(p, rank)))
    U, V = np.stack(U), np.stack(V)  # (restarts, n or p, rank)
    weight = mask.astype(float)
    observed = np.where(mask, partial, 0.0)
    eye = reg * np.eye(rank)
    Us, Vs = [U], [V]
    for _ in range(iters):
        gram = np.einsum("ij,sjk,sjl->sikl", weight, V, V) + eye
        U = np.linalg.solve(gram, (observed @ V)[..., None])[..., 0]
        gram = np.einsum("ij,sik,sil->sjkl", weight, U, U) + eye
        V = np.linalg.solve(gram, (observed.T @ U)[..., None])[..., 0]
        Us.append(U)
        Vs.append(V)

    # Objective of every iterate of every restart: (iters + 1, restarts).
    Us, Vs = np.stack(Us), np.stack(Vs)
    err = np.where(mask, Us @ Vs.swapaxes(-1, -2) - partial, 0.0)
    history = (err * err).sum(axis=(-2, -1)) \
        + reg * ((Us * Us).sum(axis=(-2, -1)) + (Vs * Vs).sum(axis=(-2, -1)))
    best = int(np.argmin(history[-1]))  # argmin keeps the first restart on ties
    completed = U[best] @ V[best].T
    completed[mask] = partial[mask]
    if return_history:
        return completed, history[:, best].tolist()
    return completed


# -- LPs as tests write them -------------------------------------------------
# A `LinearProgram` is plain data: `Rows`, `Relation` members and float
# arrays, every field given.  Tests write rows dense, relations as text and
# bounds by default; `lp_of` and `rows_of` turn that into the plain data
# and convert nothing else, so every check still happens in the library.

def rows_of(coeffs, relations, rhs) -> tuple:
    """The (rows, relations, rhs) block that `LinearProgram.add_rows` and
    `lp._Standardized.append` take: `coeffs` a 2-D array-like, each entry
    that is not +0.0 kept (a -0.0 keeps its sign), `relations` `Relation`
    members or their text, `rhs` any 1-D array-like."""
    a = np.asarray(coeffs, dtype=float)
    row, col = ((a != 0.0) | np.signbit(a)).nonzero()
    return (Rows(row, col, a[row, col], a.shape), [Relation(r) for r in relations],
            np.asarray(rhs, dtype=float))


def lp_of(num_vars, objective, constraints=None, relations=(), rhs=(),
          lower=None, upper=None) -> LinearProgram:
    """A `LinearProgram` over `num_vars` variables: the rows as `rows_of`
    takes them (none by default), and bounds x >= 0 with no upper limit
    unless `lower` or `upper` is given."""
    if constraints is None:
        constraints = np.empty((0, num_vars))
    return LinearProgram(
        num_vars, np.asarray(objective, dtype=float), *rows_of(constraints, relations, rhs),
        np.zeros(num_vars) if lower is None else np.asarray(lower, dtype=float),
        np.full(num_vars, np.inf) if upper is None else np.asarray(upper, dtype=float))


# -- reference LP kernel -----------------------------------------------------
# The two-phase revised simplex as hetsched.lp first wrote it: one Python
# pass per constraint row to standardize, a fresh basis inverse for phase 1,
# and per-pivot temporaries.  hetsched.lp must pivot exactly like it and
# return bit-identical solutions.

def reference_solve_lp(lp: LinearProgram) -> SolveResult:
    """Solve the LP; returns an optimal basic feasible solution when one exists."""
    prob = _Standardized(lp)
    status, x_std = prob.solve()
    if status is not Status.OPTIMAL:
        return SolveResult(status)
    x = prob.recover(x_std)
    value = float(lp.objective @ x)
    return SolveResult(Status.OPTIMAL, x, value)


class _Standardized:
    """Conversion of a LinearProgram to  min c'u, A u = b, u >= 0.

    Fixed variables (lo == hi) are eliminated up front.  Finite lower bounds
    are shifted out; free variables are split into positive/negative parts;
    finite upper bounds become extra rows.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.num_vars
        self.fixed = np.isclose(lp.lower, lp.upper, rtol=0.0, atol=0.0) | (
            np.abs(lp.upper - lp.lower) < 1e-15)
        self.fixed_vals = np.where(self.fixed, lp.lower, 0.0)
        self.keep = np.flatnonzero(~self.fixed)

        lower = lp.lower[self.keep]
        upper = lp.upper[self.keep]
        nk = len(self.keep)

        # Column layout of the standardized variables: one column per kept
        # variable (shifted by its finite lower bound), plus a mirror column
        # for each free variable's negative part.
        self.shift = np.where(np.isfinite(lower), lower, 0.0)
        self.free = ~np.isfinite(lower)
        self.n_main = nk
        self.neg_cols = np.flatnonzero(self.free)

        rows = []
        rhs = []
        rels = []
        for coeffs, rel, b in zip(lp.constraints.dense(), lp.relations, lp.rhs):
            ck = coeffs[self.keep]
            rows.append(ck)
            rhs.append(b - float(coeffs[self.fixed] @ self.fixed_vals[self.fixed])
                       - float(ck @ self.shift))
            rels.append(rel)
        # Upper-bound rows (after the shift, u <= hi - lo).
        ub = upper - self.shift
        for idx in np.flatnonzero(np.isfinite(ub)):
            row = np.zeros(nk)
            row[idx] = 1.0
            rows.append(row)
            rhs.append(float(ub[idx]))
            rels.append(Relation.LE)

        m = len(rows)
        ncols = nk + len(self.neg_cols)
        A = np.zeros((m, ncols))
        for i, row in enumerate(rows):
            A[i, :nk] = row
            A[i, nk:] = -row[self.neg_cols]
        b = np.asarray(rhs, dtype=float)

        c_full = -lp.objective[self.keep].astype(float)
        c = np.zeros(ncols)
        c[:nk] = c_full
        c[nk:] = -c_full[self.neg_cols]

        self.A, self.b, self.c = A, b, c
        self.rels = rels

    def recover(self, u: np.ndarray) -> np.ndarray:
        x = self.fixed_vals.copy()
        vals = u[: self.n_main].copy()
        vals[self.neg_cols] -= u[self.n_main:]
        x[self.keep] = vals + self.shift
        # Clip roundoff that strays just outside the box.
        return np.clip(x, self.lp.lower, self.lp.upper)

    def solve(self):
        A, b, rels = self.A, self.b, list(self.rels)
        m, n = A.shape
        if m == 0:
            # No constraints: optimum at the (shifted) origin unless some
            # cost is negative with no upper row, which means unbounded.
            if np.any(self.c < -OPT_TOL):
                return Status.UNBOUNDED, None
            return Status.OPTIMAL, np.zeros(n)

        A = A.copy()
        b = b.copy()
        # Rows with a negative right-hand side are negated, and so are GE
        # rows with a zero one: their slack starts basic at 0.
        neg = b < 0
        negate = neg | np.array([r is Relation.GE and b[i] == 0
                                 for i, r in enumerate(rels)], dtype=bool)
        A[negate] *= -1.0
        b[neg] = -b[neg]
        flip = {Relation.LE: Relation.GE, Relation.GE: Relation.LE}
        rels = [flip[r] if negate[i] else r for i, r in enumerate(rels)]

        # Slack / surplus columns, then artificials where no basic slack exists.
        slack_cols = []
        art_rows = []
        for i, rel in enumerate(rels):
            if rel is Relation.LE:
                slack_cols.append((i, 1.0, True))
            else:
                slack_cols.append((i, -1.0, False))
                art_rows.append(i)

        n_slack = len(slack_cols)
        n_art = len(art_rows)
        total = n + n_slack + n_art
        T = np.zeros((m, total))
        T[:, :n] = A
        basis = [-1] * m
        for k, (i, sign, basic) in enumerate(slack_cols):
            T[i, n + k] = sign
            if basic:
                basis[i] = n + k
        for k, i in enumerate(art_rows):
            T[i, n + n_slack + k] = 1.0
            basis[i] = n + n_slack + k

        art_start = n + n_slack
        # Without artificials the slack basis is feasible: no phase 1.
        if art_rows:
            c1 = np.zeros(total)
            c1[art_start:] = 1.0
            # Phase 1 runs to much tighter optimality than phase 2: its
            # objective value IS the feasibility verdict, so a pricing
            # tolerance comparable to the infeasibility threshold would let
            # near-threshold systems through (or reject feasible ones).
            status, x_all, basis = _simplex(T, b, c1, basis, opt_tol=1e-10)
            if status is not Status.OPTIMAL:
                return Status.INFEASIBLE, None
            # Absolute residual threshold: scaling it by the rhs magnitude
            # would make the verdict depend on how the caller formulated the
            # rows (a big-M variant of the same system would pass where the
            # direct form fails).
            if float(c1 @ x_all) > FEAS_TOL:
                return Status.INFEASIBLE, None

            # Drive leftover artificials out of the basis; drop dependent rows.
            keep_rows = np.ones(m, dtype=bool)
            for i in range(m):
                if basis[i] >= art_start:
                    Binv_row = _basis_inverse(T, basis)[i]
                    coeffs = Binv_row @ T[:, :art_start]
                    j = next((jj for jj in range(art_start) if abs(coeffs[jj]) > 1e-9
                              and jj not in basis), None)
                    if j is None:
                        keep_rows[i] = False
                    else:
                        basis[i] = j
            if not np.all(keep_rows):
                T = T[keep_rows]
                b = b[keep_rows]
                basis = [bv for bv, k in zip(basis, keep_rows) if k]

        T2 = T[:, :art_start]
        c2 = np.zeros(art_start)
        c2[:n] = self.c
        status, x_all, basis = _simplex(T2, b, c2, basis)
        if status is not Status.OPTIMAL:
            return status, None
        return Status.OPTIMAL, x_all[:n]


def _basis_inverse(A: np.ndarray, basis) -> np.ndarray:
    return np.linalg.inv(A[:, basis])


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list,
             opt_tol: float = OPT_TOL):
    """Revised simplex (min c'x, Ax=b, x>=0) from a starting basis.

    Returns (status, x, basis).  The basis inverse is maintained with
    rank-one pivot updates and refactorized periodically.
    """
    m, n = A.shape
    basis = list(basis)
    Binv = _basis_inverse(A, basis)
    xb = Binv @ b
    # Roundoff guard: phase-1 starting bases are exactly feasible.
    xb[np.abs(xb) < 1e-12] = 0.0

    bland = False
    degenerate_run = 0
    max_iter = 5000 + 40 * (m + n)

    for it in range(max_iter):
        if it > 0 and it % REFACTOR_EVERY == 0:
            Binv = _basis_inverse(A, basis)
            xb = Binv @ b

        y = c[basis] @ Binv
        reduced = c - y @ A
        reduced[basis] = 0.0

        if bland:
            candidates = np.flatnonzero(reduced < -opt_tol)
            if candidates.size == 0:
                break
            enter = int(candidates[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -opt_tol:
                break

        d = Binv @ A[:, enter]
        pos = d > FEAS_TOL
        if not np.any(pos):
            return Status.UNBOUNDED, None, basis
        ratios = np.full(m, np.inf)
        ratios[pos] = xb[pos] / d[pos]
        min_ratio = ratios.min()
        tied = np.flatnonzero(ratios <= min_ratio + 1e-12)
        # Leaving rule: among minimum-ratio rows pick the smallest basis index
        # (Bland-compatible, deterministic).
        leave = int(min(tied, key=lambda i: basis[i]))

        step = ratios[leave]
        if step <= 1e-12:
            degenerate_run += 1
            if degenerate_run > DEGENERATE_LIMIT:
                bland = True
        else:
            degenerate_run = 0

        # Pivot: update basis, xb, and Binv in place (rank-one update).
        piv = d[leave]
        xb = xb - step * d
        xb[leave] = step
        Binv[leave] /= piv
        d_rest = d.copy()
        d_rest[leave] = 0.0
        Binv -= np.outer(d_rest, Binv[leave])
        basis[leave] = enter
    else:
        raise RuntimeError("simplex iteration limit exceeded")

    x = np.zeros(n)
    x[basis] = xb
    x[np.abs(x) < 1e-11] = 0.0
    return Status.OPTIMAL, x, basis


# -- dense standardization ---------------------------------------------------
# `hetsched.lp._Standardized` as it standardized rows before they went
# sparse: every row block made a dense array over the standardized columns
# (the kept variables, then each free variable's mirror), and the tableau
# was copied from it.  The library scatters its sparse entries instead and
# must leave the same bytes, zero signs included.

def _dense_row_dots(coeffs: np.ndarray, cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """coeffs[:, cols] @ v, entry i bit-identical to the 1-D dot
    ``coeffs[i, cols] @ v``: rows with at most one nonzero product are
    summed, the others go through the 1-D dot."""
    out = np.zeros(len(coeffs))
    nz = v.nonzero()[0]
    if nz.size:
        prod = coeffs[:, cols[nz]] * v[nz]
        terms = np.count_nonzero(prod, axis=1)
        one = terms == 1
        out[one] = prod[one].sum(axis=1)
        for i in (terms > 1).nonzero()[0]:
            out[i] = coeffs[i, cols] @ v
    return out


class DenseStandardized(hetsched.lp._Standardized):
    """`hetsched.lp._Standardized` with each row block standardized into a
    dense array `A` and copied into the tableau whole."""

    def standardize_rows(self, rows):
        coeffs = rows.dense()
        main = coeffs[:, self.keep]
        fixed_cols = self.fixed.nonzero()[0]
        return (np.hstack([main, -main[:, self.neg_cols]]),
                _dense_row_dots(coeffs, fixed_cols, self.fixed_vals[fixed_cols]))

    def _scatter(self, T, A, first, flip):
        T[first:, :A.shape[1]] = A
        if flip is not None:
            T[flip, :A.shape[1]] *= -1.0


# ---------------------------------------------------------------------------
# Cell-at-a-time throughput matrix
# ---------------------------------------------------------------------------

def random_cells(rng: np.random.Generator):
    """Cluster, rows, nested cells and jobs: one to three types, placement
    aware or not, scale factors 1, 2 and 4, pairs of equal scale factor,
    infeasible cells and zero-rate feasible cells.  Every singleton has a
    positive rate somewhere, so every job has an equal-share throughput."""
    counts = {name: int(rng.integers(1, 9))
              for name in ("V100", "P100", "K80")[: int(rng.integers(1, 4))]}
    cluster = make_cluster(counts, placement_aware=bool(rng.random() < 0.5))
    C = len(cluster.configurations)
    n = int(rng.integers(1, 7))
    jobs = [Job(id=int(i), scale_factor=int(rng.choice([1, 2, 4])))
            for i in rng.permutation(10)[:n]]

    def rate():
        return 0.0 if rng.random() < 0.1 else round(float(rng.uniform(0.1, 5.0)), 3)

    rows, cells = [], []
    for j in jobs:
        row = [None if rng.random() < 0.2 else (rate(),) for _ in range(C)]
        row[int(rng.integers(C))] = (round(float(rng.uniform(0.1, 5.0)), 3),)
        rows.append(JobCombination.of(j.id))
        cells.append(row)
    for a in range(n):
        for b in range(a + 1, n):
            if jobs[a].scale_factor == jobs[b].scale_factor and rng.random() < 0.7:
                rows.append(JobCombination.of(jobs[a].id, jobs[b].id))
                cells.append([None if rng.random() < 0.25 else (rate(), rate())
                              for _ in range(C)])
    return cluster, rows, cells, jobs


def random_costs(rng: np.random.Generator, cluster: ClusterSpec) -> ClusterSpec:
    """`cluster` with each type's cost per hour drawn from [0.5, 4], and in
    about one draw in five one type free."""
    costs = [round(float(rng.uniform(0.5, 4.0)), 2) for _ in cluster.types]
    if rng.random() < 0.2:
        costs[int(rng.integers(len(costs)))] = 0.0
    return ClusterSpec(tuple(replace(t, cost_per_hour=c)
                             for t, c in zip(cluster.types, costs)),
                       cluster.placement_aware)


class CellMatrix:
    """A throughput matrix as nested cells, walked one cell at a time:
    cells[r][c] is a tuple of per-member rates, or None where combination r
    cannot run on configuration c.  Each method is the per-cell loop the
    array code replaced, with the same accumulation order."""

    def __init__(self, cluster, rows, cells):
        self.cluster = cluster
        self.configs = cluster.configurations
        self.rows = list(rows)
        self.cells = cells
        self.C = len(self.configs)

    def feasible(self, r: int, c: int) -> bool:
        return self.cells[r][c] is not None

    def value(self, r: int, c: int, job_id: int) -> float:
        cell = self.cells[r][c]
        if cell is None:
            return 0.0
        return float(cell[self.rows[r].members.index(job_id)])

    def combos_containing(self, job_id: int) -> list:
        return [r for r, combo in enumerate(self.rows) if job_id in combo.members]

    def singleton_row(self, job_id: int) -> int:
        return next(r for r, combo in enumerate(self.rows)
                    if combo.members == (job_id,))

    def job_coefficients(self, job_id: int) -> np.ndarray:
        coeffs = np.zeros(len(self.rows) * self.C)
        for r in self.combos_containing(job_id):
            for c in range(self.C):
                if self.feasible(r, c):
                    coeffs[r * self.C + c] = self.value(r, c, job_id)
        return coeffs

    def max_throughput(self, job_id: int) -> float:
        best = 0.0
        for r in self.combos_containing(job_id):
            for c in range(self.C):
                if self.feasible(r, c):
                    best = max(best, self.value(r, c, job_id))
        return best

    def effective_throughput(self, job_id: int, X: np.ndarray) -> float:
        total = 0.0
        for r in self.combos_containing(job_id):
            for c in range(self.C):
                if self.feasible(r, c):
                    total += self.value(r, c, job_id) * X[r, c]
        return total

    def equal_share(self) -> np.ndarray:
        total = self.cluster.total_workers
        values = np.zeros((len(self.rows), self.C))
        per_type_cols: dict = {}
        for c, cfg in enumerate(self.configs):
            per_type_cols.setdefault(cfg.type_id, []).append(c)
        for r, combo in enumerate(self.rows):
            if combo.is_pair:
                continue
            for t in self.cluster.types:
                cols = per_type_cols[t.id]
                for c in cols:
                    values[r, c] = t.num_workers / total / len(cols)
        return values

    def equal_norm(self, job_id: int) -> float:
        return self.effective_throughput(job_id, self.equal_share())

    def cell_bounds(self):
        lower = np.zeros(len(self.rows) * self.C)
        upper = np.full(len(self.rows) * self.C, np.inf)
        for r in range(len(self.rows)):
            for c in range(self.C):
                if not self.feasible(r, c):
                    upper[r * self.C + c] = 0.0
        return lower, upper

    def validity_rows(self, jobs) -> list:
        """(coeffs, rhs) of the per-job time budgets, in `jobs` order, then
        the per-type worker capacities; a row's workers are its first
        member's scale factor, or 1 when that job is not in `jobs`."""
        by_id = {j.id: j for j in jobs}
        n = len(self.rows) * self.C
        out = []
        for j in jobs:
            row = np.zeros(n)
            for r in self.combos_containing(j.id):
                row[r * self.C: (r + 1) * self.C] = 1.0
            out.append((row, 1.0))
        for t in self.cluster.types:
            row = np.zeros(n)
            for c, cfg in enumerate(self.configs):
                if cfg.type_id != t.id:
                    continue
                for r, combo in enumerate(self.rows):
                    job = by_id.get(combo.members[0])
                    row[r * self.C + c] = job.scale_factor if job is not None else 1
            out.append((row, float(t.num_workers)))
        return out

    def prune(self, threshold: float = 1.0) -> list:
        """Rows kept by pair pruning."""
        kept = []
        for r, combo in enumerate(self.rows):
            if not combo.is_pair:
                kept.append(combo)
                continue
            best = 0.0
            for c in range(self.C):
                if not self.feasible(r, c):
                    continue
                norm_sum = 0.0
                for job_id in combo.members:
                    iso_r = self.singleton_row(job_id)
                    iso = self.value(iso_r, c, job_id) if self.feasible(iso_r, c) else 0.0
                    if iso > 0:
                        norm_sum += self.value(r, c, job_id) / iso
                best = max(best, norm_sum)
            if best > threshold:
                kept.append(combo)
        return kept


# ---------------------------------------------------------------------------
# The simulator's matrices, one pair at a time
# ---------------------------------------------------------------------------

def reference_pair_factor(sim, a, b) -> float:
    """Normalized throughput of state a when colocated with state b in
    simulation `sim`: an online-observed value, else the estimated
    reference factor, else the true colocation factor."""
    observed = sim.estimates.values.get((a.job.id, b.job.id))
    if observed is not None:
        return observed
    if sim.refs is not None and a.match is not None and b.match is not None:
        return float(sim.refs.R[a.match, b.match])
    return colocation_factor(a.template, b.template)


def reference_build_matrix(sim, states: list) -> tuple:
    """`Simulation.build_matrix` as it was: a double loop over the states
    for the pairs, two `reference_pair_factor` calls and a new combination
    per pair, pruning by `CellMatrix.prune` and the kept rows looked up by
    combination; the execution matrix takes the true factors of the kept
    pairs."""
    cluster = sim.cfg.cluster
    workers = [cluster.types[cfg.type_id].num_workers
               for cfg in cluster.configurations]
    feasible = (np.array([st.job.scale_factor for st in states])[:, None]
                <= np.array(workers)).reshape(len(states), len(workers))
    rate = np.array([st.rates for st in states]).reshape(feasible.shape)
    singles = [JobCombination.of(st.job.id) for st in states]
    pairs = []
    if sim.cfg.policy.space_sharing:
        pairs = [(i, j) if states[i].job.id < states[j].job.id else (j, i)
                 for i in range(len(states)) for j in range(i + 1, len(states))
                 if states[i].job.scale_factor == states[j].job.scale_factor]
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)

    def matrix(members, factor) -> ThroughputMatrix:
        ends = [(states[i], states[j]) for i, j in members.tolist()]
        factors = np.array([[factor(a, b), factor(b, a)] for a, b in ends],
                           dtype=float).reshape(-1, 2)
        rows = singles + [JobCombination.of(a.job.id, b.job.id) for a, b in ends]
        thr = np.concatenate([np.stack([rate, np.zeros_like(rate)], axis=-1),
                              rate[members].transpose(0, 2, 1) * factors[:, None, :]])
        return ThroughputMatrix(cluster, rows, thr,
                                np.concatenate([feasible,
                                                feasible[members].all(axis=1)]))

    T_all = matrix(pairs, lambda a, b: reference_pair_factor(sim, a, b))
    if not sim.cfg.policy.space_sharing:
        return T_all, T_all
    rows = CellMatrix(cluster, T_all.rows, T_all.entries).prune(PAIR_KEEP_THRESHOLD)
    idx = [T_all.row_index(combo) for combo in rows]
    T_policy = ThroughputMatrix(cluster, rows, T_all.thr[idx], T_all.feasible[idx])
    if sim.refs is None:
        return T_policy, T_policy
    kept = [r - len(states) for r in idx[len(states):]]
    return T_policy, matrix(pairs[kept],
                            lambda a, b: colocation_factor(a.template, b.template))


# ---------------------------------------------------------------------------
# One job alone on the cluster
# ---------------------------------------------------------------------------

def reference_standalone(T, job: Job) -> SolveResult:
    """The LP that gives one job the whole cluster, solved: maximize its
    rate over its singleton row's time shares under its time budget and
    each type's worker capacity.  `policies.fastest_cell` is its closed
    form."""
    r = T.singleton_row(job.id)
    sf = float(job.scale_factor)
    lp = lp_of(T.num_configs, T.thr[r, :, 0],
               upper=np.where(T.feasible[r], np.inf, 0.0))
    lp.add_rows(*rows_of([np.ones(T.num_configs)], [Relation.LE], [1.0]))
    for t in T.cluster.types:
        lp.add_rows(*rows_of([np.where(T.type_of == t.id, sf, 0.0)],
                             [Relation.LE], [float(t.num_workers)]))
    return solve_lp(lp)


# ---------------------------------------------------------------------------
# Bottleneck detection by MILP alone
# ---------------------------------------------------------------------------

def _cell_upper(space: ProblemSpace, extra: int = 0) -> np.ndarray:
    """Cell upper bounds (0 where the cell is infeasible), then `extra`
    unbounded variables."""
    return np.concatenate([np.where(space.T.feasible.ravel(), np.inf, 0.0),
                           np.full(extra, np.inf)])


def space_cells(space: ProblemSpace) -> CellMatrix:
    """The space's matrix as nested cells, walked one cell at a time."""
    return CellMatrix(space.T.cluster, space.T.rows, space.T.entries)


def space_coeffs(space: ProblemSpace) -> dict:
    """Each of the space's jobs' rates on every cell, as a dense row."""
    cells = space_cells(space)
    return {j.id: cells.job_coefficients(j.id) for j in space.jobs}


def _add_validity(lp: LinearProgram, space: ProblemSpace, extra: int = 0):
    for row, rhs in space_cells(space).validity_rows(space.jobs):
        lp.add_rows(*rows_of([np.concatenate([row, np.zeros(extra)])], [Relation.LE],
                             [rhs]))


def reference_max_gain(space: ProblemSpace, thr_prev: dict, job_id: int) -> float:
    """Largest throughput increase available to one job while every job keeps
    at least its previous throughput."""
    coeffs = space_coeffs(space)
    lp = lp_of(space.n_cells, coeffs[job_id],
               lower=np.zeros(space.n_cells), upper=_cell_upper(space))
    for j in space.jobs:
        lp.add_rows(*rows_of([coeffs[j.id]], [Relation.GE], [thr_prev[j.id]]))
    _add_validity(lp, space)
    res = solve_lp(lp)
    if not res.optimal:
        return 0.0
    return res.objective_value - thr_prev[job_id]


def reference_bottleneck_lp(space: ProblemSpace, active: list,
                            thr_prev: dict) -> LinearProgram:
    """The bottleneck MILP's LP, one row at a time: a flag z_j in [0, 1]
    per active job after the cells, maximizing the flags' sum, under the
    carry rows, then each active job's big-M rows, then the validity
    rows."""
    coeffs = space_coeffs(space)
    n_z = len(active)
    n = space.n_cells + n_z
    obj = np.zeros(n)
    obj[space.n_cells:] = 1.0
    upper = _cell_upper(space, extra=n_z)
    upper[space.n_cells:] = 1.0
    lp = lp_of(n, obj, lower=np.zeros(n), upper=upper)
    for j in space.jobs:
        lp.add_rows(*rows_of([np.concatenate([coeffs[j.id], np.zeros(n_z)])],
                             [Relation.GE], [thr_prev[j.id]]))
    for k, j in enumerate(active):
        Y = space.best[j.id]
        delta = DELTA_FRACTION * Y
        z_col = space.n_cells + k
        # z=1 forces a strict improvement of delta; z=0 caps the job at its
        # previous throughput (combined with the carry row above).
        row = np.concatenate([coeffs[j.id], np.zeros(n_z)])
        row[z_col] = -(Y + delta)
        lp.add_rows(*rows_of([row], [Relation.GE], [thr_prev[j.id] - Y]))
        row = np.concatenate([coeffs[j.id], np.zeros(n_z)])
        row[z_col] = -Y
        lp.add_rows(*rows_of([row], [Relation.LE], [thr_prev[j.id]]))
    _add_validity(lp, space, extra=n_z)
    return lp


def reference_find_bottlenecks(jobs, X_prev, T, active_weights: dict) -> set:
    """Jobs whose effective throughput cannot rise without lowering another's.

    Solves a MILP with a binary flag per weighted job that is 1 exactly when
    the job's throughput can strictly improve while every job keeps at least
    its previous throughput; the bottlenecks are the flags left at 0.  Each
    improvable claim is then re-verified with a single-objective LP: the
    big-M rows can attenuate a sub-slack violation below the solver's
    feasibility tolerance, so a claim is kept only if the job's directly
    computed gain clears half the strictness slack.
    """
    space = ProblemSpace(jobs, T)
    active = [j for j in space.jobs if active_weights.get(j.id, 0.0) > 0]
    thr_prev = {j.id: effective_throughput(j.id, X_prev, T) for j in space.jobs}
    lp = reference_bottleneck_lp(space, active, thr_prev)
    n = lp.num_vars
    res = solve_milp(lp, range(space.n_cells, n))
    if not res.optimal:  # X_prev is a witness, so only the solver can fail here
        raise PolicyError(f"bottleneck MILP not solved: {res.status.value}")
    stuck = {j.id for k, j in enumerate(active)
             if round(res.x[space.n_cells + k]) == 0}
    for j in active:
        if j.id in stuck:
            continue
        delta = DELTA_FRACTION * space.best[j.id]
        if reference_max_gain(space, thr_prev, j.id) < 0.5 * delta:
            stuck.add(j.id)
    return stuck


# ---------------------------------------------------------------------------
# Water filling's bottleneck LPs, built whole and solved cold
# ---------------------------------------------------------------------------
# `hetsched.waterfill` appends its gain and screen rows to the tightening
# LP at its optimum.  `gain_state` builds the gain rows cold where no level
# LP ran; `cold_max_gain` and `cold_screen_feasible` take the library's
# signatures and solve each LP built whole from the rows it was appended
# to, so a test can swap them in and run the same fill on the cold path.

def _carry(space: ProblemSpace, thr_prev: dict) -> tuple:
    return (space.rate_rows(space.n_cells), [Relation.GE] * len(space.jobs),
            [thr_prev[j.id] for j in space.jobs])


def gain_state(space: ProblemSpace, thr_prev: dict):
    """The gain rows for `thr_prev` as `find_bottlenecks` and `max_gain`
    take them, over the level LP's variables (the cells, then lam fixed at
    0), at the feasible basis of a cold phase 1."""
    lp = space.lp(np.zeros(space.n_cells + 1), [_carry(space, thr_prev)])
    lp.upper[-1] = 0.0
    state = hetsched.lp._Standardized(lp)
    state.phase_one()
    return state


def cold_max_gain(space: ProblemSpace, thr_prev: dict, job_ids, gain) -> dict:
    """Each job's largest gain while every job keeps its previous
    throughput: the rows `gain` holds, built whole under the job's
    throughput and solved by `solve_lp`."""
    coeffs = space_coeffs(space)
    out = {}
    for job_id in job_ids:
        res = solve_lp(gain.as_lp(np.append(coeffs[job_id], 0.0)))
        out[job_id] = res.objective_value - thr_prev[job_id] if res.optimal else 0.0
    return out


def cold_screen_feasible(space: ProblemSpace, active: list, thr_prev: dict,
                         delta: dict, cand: set, gain) -> bool:
    """Whether every candidate can gain its slack at once while every other
    active job stays at its previous throughput: the rows `gain` holds,
    then the screen LP's own rows, built whole and solved by `solve_lp`."""
    return solve_lp(reference_screen_lp(gain.as_lp(np.zeros(space.n_cells + 1)),
                                        space, active, thr_prev, delta, cand)).optimal


def reference_waterfill(space: ProblemSpace, entities=None) -> WaterfillResult:
    """Water filling as it ran before the level LP certified bottlenecks:
    `find_bottlenecks` decides every iteration.  Each level LP starts at
    the previous iteration's allocation, as the library's does.
    Hierarchical over `entities`, or flat max-min fairness when they are
    None."""
    import hetsched.waterfill as wf

    def weights_of(done):
        if entities is not None:
            return assign_job_weights(entities, space.jobs, done)
        return {j.id: 0.0 if j.id in done else float(j.weight) for j in space.jobs}

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
        state, level = wf._level_lp(space, weights, t_prev, thr_prev, X)
        X, _ = wf._tighten(space, state, level)
        thr = {j.id: effective_throughput(j.id, X, space.T) for j in jobs}
        normalized = {j.id: thr[j.id] / space.equal_norm[j.id] for j in jobs}
        bottlenecks = (wf.find_bottlenecks(space, thr, weights, gain_state(space, thr))
                       or {j.id for j in jobs if weights[j.id] > 0 and j.id not in done})
        iterations.append(WaterfillIteration(weights, level, X, normalized,
                                             bottlenecks))
        done |= bottlenecks
        t_prev = {j.id: normalized[j.id] * j.scale_factor for j in jobs}
        thr_prev = thr
        if all(j.id in done for j in jobs):
            break
    return WaterfillResult(iterations[-1].allocation, iterations[0].level,
                           iterations=iterations)


# ---------------------------------------------------------------------------
# The LP builders, one row at a time
# ---------------------------------------------------------------------------
# The library stacks each LP's rows in blocks.  These build the same LPs
# with `add_rows`, one row at a time, in the same order and with the
# same float operations, so a test can require the two byte-identical.

def reference_space_lp(space: ProblemSpace, objective, rows=(),
                       extra_lower=None) -> LinearProgram:
    """`ProblemSpace.lp` with `rows` a list of (coeffs, relation, rhs)
    triples."""
    n = len(objective)
    pad = np.zeros(n - space.n_cells)
    lower = np.zeros(n)
    if extra_lower is not None:
        lower[space.n_cells:] = extra_lower
    lp = lp_of(n, objective, lower=lower,
               upper=_cell_upper(space, extra=len(pad)))
    validity = [(row, Relation.LE, rhs)
                for row, rhs in space_cells(space).validity_rows(space.jobs)]
    for coeffs, rel, rhs in [*rows, *validity]:
        lp.add_rows(*rows_of([coeffs if len(coeffs) == n else np.append(coeffs, pad)],
                             [rel], [rhs]))
    return lp


def reference_max_min_lp(space: ProblemSpace, scales: dict,
                         floors: dict | None = None) -> LinearProgram:
    coeffs = space_coeffs(space)
    obj = np.zeros(space.n_cells + 1)
    obj[-1] = 1.0
    rows = [(np.append(scales[j.id] * coeffs[j.id], -1.0), Relation.GE,
             floors[j.id] if floors else 0.0)
            for j in space.jobs if j.id in scales]
    return reference_space_lp(space, obj, rows, extra_lower=-np.inf)


def reference_las_lp(space: ProblemSpace) -> LinearProgram:
    """LAS's epigraph LP with one level row and one time budget per job, as
    it was built before LAS solved over classes of jobs alike."""
    return reference_max_min_lp(space, {
        j.id: j.scale_factor / (j.weight * space.equal_norm[j.id])
        for j in space.jobs})


def _ftf_terms(space: ProblemSpace):
    """Each job's elapsed time, remaining steps, isolated-share rate and
    isolated finish time, as Python floats in `space.jobs` order."""
    Xiso = isolated_allocation(space.T, len(space.jobs))
    e = [j.elapsed_time for j in space.jobs]
    r = [j.remaining_steps for j in space.jobs]
    iso = [effective_throughput(j.id, Xiso, space.T) for j in space.jobs]
    d = [j.isolated_elapsed_time + rj / t for j, rj, t in zip(space.jobs, r, iso)]
    return e, r, iso, d


def ftf_rho(space: ProblemSpace, X) -> float:
    """max_j rho_j(X), the finish-time-fairness ratio of allocation X."""
    e, r, _, d = _ftf_terms(space)
    thr = [effective_throughput(j.id, X, space.T) for j in space.jobs]
    return max((ej + rj / t) / dj for ej, rj, t, dj in zip(e, r, thr, d))


def reference_ftf_probe(space: ProblemSpace, lam: float) -> LinearProgram:
    """Finish-time fairness's feasibility LP at ratio `lam`: every job
    finishes within its time budget lam d_j - e_j."""
    e, r, _, d = _ftf_terms(space)
    coeffs = space_coeffs(space)
    rows = [(coeffs[j.id], Relation.GE, rj / (lam * dj - ej))
            for j, ej, rj, dj in zip(space.jobs, e, r, d)]
    return reference_space_lp(space, np.zeros(space.n_cells), rows)


def reference_ftf(space: ProblemSpace):
    """Finish-time fairness as the policy once solved it: `search.bisect`
    over `reference_ftf_probe`, from just above the ratio at which some job's
    time budget vanishes to just above the isolated allocation's ratio.
    Returns the bisection's (upper bracket, allocation)."""
    pad = 1e-9
    e, r, iso, d = _ftf_terms(space)

    def feasible(lam):
        if min(lam * dj - ej for ej, dj in zip(e, d)) <= 0:
            return False, None
        res = solve_lp(reference_ftf_probe(space, lam))
        return res.optimal, (space.allocation(res.x) if res.optimal else None)

    lo = max(ej / dj for ej, dj in zip(e, d)) + pad
    hi = max((ej + rj / t) / dj for ej, rj, t, dj in zip(e, r, iso, d)) + pad
    return bisect(feasible, lo, hi)


def reference_ftf_lp(space: ProblemSpace, X_prev) -> LinearProgram:
    """The max-min LP finish-time fairness solves after allocation X_prev:
    lam is X_prev's ratio, and job j's row is weighted by
    w_j = 1 / (d_j thr_j(X_prev)), with scale w_j (lam d_j - e_j) and floor
    w_j r_j."""
    e, r, _, d = _ftf_terms(space)
    thr = [effective_throughput(j.id, X_prev, space.T) for j in space.jobs]
    lam = ftf_rho(space, X_prev)
    w = [1.0 / (dj * t) for dj, t in zip(d, thr)]
    return reference_max_min_lp(
        space,
        {j.id: wj * (lam * dj - ej) for j, wj, dj, ej in zip(space.jobs, w, d, e)},
        {j.id: wj * rj for j, wj, rj in zip(space.jobs, w, r)})


def reference_level_lp(space: ProblemSpace, weights: dict, t_prev: dict,
                       thr_prev: dict) -> LinearProgram:
    weighted = [j for j in space.jobs if weights[j.id] > 0]
    lp = reference_max_min_lp(
        space,
        {j.id: j.scale_factor / (weights[j.id] * space.equal_norm[j.id])
         for j in weighted},
        {j.id: t_prev[j.id] / weights[j.id] for j in weighted})
    coeffs = space_coeffs(space)
    for j in space.jobs:
        if thr_prev[j.id] > 0:
            lp.add_rows(*rows_of([np.append(coeffs[j.id], 0.0)],
                                 [Relation.GE], [thr_prev[j.id]]))
    return lp


def reference_level_pin_lp(space: ProblemSpace, weights: dict, t_prev: dict,
                           thr_prev: dict, level: float) -> LinearProgram:
    """The tightening LP as water filling solves it: the level LP plus a
    row pinning lam at the level less TIGHTEN_SLACK, maximizing minus the
    total allocated time."""
    lp = reference_level_lp(space, weights, t_prev, thr_prev)
    lp.objective = np.append(np.full(space.n_cells, -1.0), 0.0)
    pin = np.zeros(space.n_cells + 1)
    pin[-1] = 1.0
    lp.add_rows(*rows_of([pin], [Relation.GE], [level - TIGHTEN_SLACK]))
    return lp


def reference_tighten_lp(space: ProblemSpace, weights: dict, t_prev: dict,
                         thr_prev: dict, level: float) -> LinearProgram:
    """The tightening LP built whole, as water filling once solved it cold:
    maximize minus the total allocated time while each weighted job keeps its
    share of the level and each carried job its previous throughput, both
    less TIGHTEN_SLACK; each job's level row comes before its carry row."""
    coeffs = space_coeffs(space)
    rows = []
    for j in space.jobs:
        w = weights[j.id]
        if w > 0:
            rows.append((j.scale_factor / space.equal_norm[j.id] * coeffs[j.id],
                         Relation.GE, t_prev[j.id] + w * level - TIGHTEN_SLACK))
        if thr_prev[j.id] > 0:
            rows.append((coeffs[j.id], Relation.GE,
                         thr_prev[j.id] - TIGHTEN_SLACK))
    return reference_space_lp(space, np.full(space.n_cells, -1.0), rows)


def _with_lam_rows(lp: LinearProgram, rows) -> LinearProgram:
    """`lp` under a zero objective plus the (coeffs over the cells,
    relation, rhs) triples `rows`, one at a time, lam's coefficient 0."""
    out = replace(lp, objective=np.zeros(lp.num_vars))
    for coeffs, rel, rhs in rows:
        out.add_rows(*rows_of([np.append(coeffs, 0.0)], [rel], [rhs]))
    return out


def reference_gain_lp(tight: LinearProgram, space: ProblemSpace,
                      thr: dict) -> LinearProgram:
    """The gain rows as water filling solves them: the tightening LP
    `tight`, then a carry row per job keeping it at `thr`."""
    coeffs = space_coeffs(space)
    return _with_lam_rows(tight, [(coeffs[j.id], Relation.GE, thr[j.id])
                                  for j in space.jobs])


def reference_screen_lp(gain: LinearProgram, space: ProblemSpace, active: list,
                        thr_prev: dict, delta: dict, cand: set) -> LinearProgram:
    """The screen as water filling solves it: the gain rows `gain`, then a
    row per active job, raising a candidate by its slack and capping any
    other at its previous throughput."""
    coeffs = space_coeffs(space)
    return _with_lam_rows(gain, [
        (coeffs[j.id], Relation.GE, thr_prev[j.id] + delta[j.id])
        if j.id in cand else (coeffs[j.id], Relation.LE, thr_prev[j.id])
        for j in active])


class RatioUnboundedError(ValueError):
    """The denominator can reach zero with positive numerator: the ratio has
    no finite maximum."""


# A Charnes-Cooper scale t at or below this means the ratio's maximum is
# approached only in the limit, not attained.
RATIO_T_TOL = 1e-9


def reference_maximize_ratio(lp: LinearProgram, den_coeffs) -> SolveResult:
    """Maximize lp.objective'x / den'x over the LP's feasible set.

    Uses the Charnes-Cooper substitution y = t*x, den'y = 1 (as the two
    rows den'y <= 1 and den'y >= 1), t >= 0, which turns the linear-fractional program into a single LP.  The
    denominator must stay strictly positive on the feasible set; if it can
    vanish while the numerator stays positive the LP is unbounded and a
    RatioUnboundedError is raised.
    """
    n = lp.num_vars
    den_coeffs = np.asarray(den_coeffs, dtype=float)
    # Variables: y_0..y_{n-1}, t.  Each row a'x (rel) b becomes
    # a'y - b t (rel) 0.  So that y can be left free, each variable's finite
    # bounds become rows against t, its upper row y_i - hi_i t <= 0 before its
    # lower row y_i - lo_i t >= 0.  Last come den'y <= 1 and den'y >= 1.
    bound = np.column_stack([lp.upper, lp.lower]).ravel()
    finite = np.isfinite(bound)
    bound_rows = np.zeros((2 * n, n + 1))
    bound_rows[np.arange(2 * n), np.arange(2 * n) // 2] = 1.0
    bound_rows[:, n] = -bound
    den_row = np.append(den_coeffs, 0.0)
    cc = lp_of(
        n + 1, np.append(lp.objective, 0.0),
        np.vstack([np.column_stack([lp.constraints.dense(), -lp.rhs]), bound_rows[finite],
                   den_row, den_row]),
        [*lp.relations, *itertools.compress([Relation.LE, Relation.GE] * n, finite),
         Relation.LE, Relation.GE],
        np.append(np.zeros(len(lp.rhs) + finite.sum()), [1.0, 1.0]),
        np.append(np.full(n, -np.inf), 0.0), np.full(n + 1, np.inf))

    res = solve_lp(cc)
    if res.status is Status.UNBOUNDED:
        raise RatioUnboundedError("denominator can reach zero on the feasible set")
    if not res.optimal:
        # Distinguish an empty polytope from a denominator that cannot
        # reach the normalization plane (identically zero, say).
        if solve_lp(replace(lp, objective=np.zeros(n))).optimal:
            raise RatioUnboundedError(
                "denominator cannot be normalized on the feasible set")
        return SolveResult(res.status)
    t = res.x[n]
    if t <= RATIO_T_TOL:
        raise RatioUnboundedError("ratio maximized only in the limit (t = 0)")
    x = res.x[:n] / t
    x = np.clip(x, lp.lower, lp.upper)
    value = float(lp.objective @ x) / float(den_coeffs @ x)
    return SolveResult(Status.OPTIMAL, x, value)


def reference_pinned(lp: LinearProgram, fixed: dict) -> LinearProgram:
    """A branch-and-bound node: `lp`'s rows added again, with each variable
    in `fixed` pinned to its value."""
    lo, hi = lp.lower.copy(), lp.upper.copy()
    for v, val in fixed.items():
        lo[v] = hi[v] = float(val)
    node = lp_of(lp.num_vars, lp.objective, lower=lo, upper=hi)
    for coeffs, rel, rhs in zip(lp.constraints.dense(), lp.relations, lp.rhs):
        node.add_rows(*rows_of([coeffs], [rel], [rhs]))
    return node


# ---------------------------------------------------------------------------
# The round mechanism, rebuilt from the matrix every round
# ---------------------------------------------------------------------------

class ReferenceLedger:
    """Cumulative seconds each combination has spent on each configuration,
    one vector indexed like `T.configs` per combination."""

    def __init__(self, round_duration: float):
        self.round_duration = float(round_duration)
        self.time = {}  # members -> seconds per configuration index
        self.rounds_total = 0
        self.last_scheduled = {}  # members -> round index

    def received(self, T) -> np.ndarray:
        """(R, C) seconds each row of T has received on each configuration."""
        none = np.zeros(T.num_configs)
        return np.array([self.time.get(combo.members, none) for combo in T.rows]
                        ).reshape(T.num_rows, T.num_configs)

    def rounds_since_scheduled(self, combo: JobCombination) -> float:
        last = self.last_scheduled.get(combo.members)
        return math.inf if last is None else self.rounds_total - last

    def drop_jobs(self, job_ids):
        gone = set(job_ids)
        self.time = {m: v for m, v in self.time.items() if gone.isdisjoint(m)}
        self.last_scheduled = {m: r for m, r in self.last_scheduled.items()
                               if gone.isdisjoint(m)}


def reference_priorities(X, ledger: ReferenceLedger) -> np.ndarray:
    received = ledger.received(X.T)
    col_totals = received.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(col_totals > 0, received / np.where(col_totals > 0, col_totals, 1.0), 0.0)
    x = X.values
    values = np.where(x > 0, np.inf, 0.0)
    ratio = (x > 0) & (f > 0)
    values[ratio] = x[ratio] / f[ratio]
    return values


def reference_plan_round(priorities: np.ndarray, jobs: dict,
                         ledger: ReferenceLedger, T) -> RoundPlan:
    """Sorts every candidate cell on (priority, rounds since scheduled,
    members, column) as tuples, each round."""
    remaining = {t.id: t.num_workers for t in T.cluster.types}
    workers = row_workers(T, jobs).tolist()
    eligible = [True] * T.num_rows
    since = [ledger.rounds_since_scheduled(combo) for combo in T.rows]
    rows_of_job: dict[int, list] = {}
    for r, combo in enumerate(T.rows):
        for m in combo.members:
            rows_of_job.setdefault(m, []).append(r)
    chosen = []

    def take(r: int, c: int):
        chosen.append(Assignment(T.rows[r], r, c, workers[r]))
        remaining[T.configs[c].type_id] -= workers[r]
        for m in T.rows[r].members:
            for rr in rows_of_job[m]:
                eligible[rr] = False

    def sweep(cells):
        for _, _, r, c in sorted(cells):
            if not eligible[r]:
                continue
            if remaining[T.configs[c].type_id] < workers[r]:
                continue
            take(r, c)

    rs, cs = np.nonzero(priorities > 0)
    sweep([(-priorities[r, c], (since[r], T.rows[r].members, c), r, c)
           for r, c in zip(rs.tolist(), cs.tolist())])
    greedy = len(chosen)

    C = T.num_configs
    rs, cs = np.nonzero(T.feasible)
    sweep([((since[r], T.rows[r].members, (c - ledger.rounds_total) % C), 0, r, c)
           for r, c in zip(rs.tolist(), cs.tolist()) if eligible[r]])

    return RoundPlan(chosen, dict(remaining), greedy)


def reference_place(plan: RoundPlan, cluster) -> RoundPlan:
    """First fit over free-id lists rebuilt for every server each round."""
    configs = cluster.configurations
    first_id = accumulate((t.num_workers for t in cluster.types), initial=0)
    free = {t.id: [list(range(f + s, f + min(s + t.workers_per_server, t.num_workers)))
                   for s in range(0, t.num_workers, t.workers_per_server)]
            for t, f in zip(cluster.types, first_id)}
    for a in sorted(plan.assignments, key=lambda a: (-a.workers, a.combo.members)):
        t = cluster.types[configs[a.config_index].type_id]
        sf, servers = a.workers, free[t.id]
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


def reference_settle_round(plan: RoundPlan, ledger: ReferenceLedger, T):
    for a in plan.assignments:
        members = a.combo.members
        if members not in ledger.time:
            ledger.time[members] = np.zeros(T.num_configs)
        ledger.time[members][a.config_index] += ledger.round_duration
        ledger.last_scheduled[members] = ledger.rounds_total
    ledger.rounds_total += 1


def reference_mechanism() -> dict:
    """Name -> reference for every mechanism name `hetsched.simulator`
    binds, called as the simulator calls them; the compiled decision
    becomes the bare (allocation, jobs) pair that the references read.  No
    plan repeats, so every round is planned and placed afresh."""
    return {
        "repeats": lambda plan, d: False,
        "RoundLedger": ReferenceLedger,
        "CompiledAllocation": lambda X, jobs: (X, jobs),
        "compute_priorities": lambda d, ledger: reference_priorities(d[0], ledger),
        "plan_round": lambda pr, d, ledger: reference_plan_round(
            pr, d[1], ledger, d[0].T),
        "place": reference_place,
        "settle_round": reference_settle_round,
    }


# ---------------------------------------------------------------------------
# The synthetic template catalog
# ---------------------------------------------------------------------------

NUM_TEMPLATES = 26


def make_template_catalog(seed: int) -> list:
    """Seeded catalog of `NUM_TEMPLATES` templates spanning speedup ratios
    from ~1x to ~10x across tiers.  Seed 0 gives the shipped
    `hetsched/data/templates.json`."""
    rng = np.random.default_rng(seed)
    templates = []
    for i in range(NUM_TEMPLATES):
        slow = float(rng.uniform(0.4, 2.5))
        speedup_fast = float(rng.uniform(1.5, 10.0))
        speedup_mid = float(rng.uniform(1.0, speedup_fast))
        templates.append(JobTemplate(
            name=f"model-{i:02d}",
            tier_throughputs=(round(slow * speedup_fast, 4),
                              round(slow * speedup_mid, 4),
                              round(slow, 4)),
            consolidated_efficiency=round(float(rng.uniform(0.82, 0.99)), 4),
            unconsolidated_efficiency=round(float(rng.uniform(0.45, 0.80)), 4),
            coloc_sensitivity=round(float(rng.uniform(0.1, 0.9)), 4),
            coloc_aggressiveness=round(float(rng.uniform(0.1, 0.9)), 4),
        ))
    return templates


# ---------------------------------------------------------------------------
# Throughput-matrix files
# ---------------------------------------------------------------------------

def matrix_doc(T) -> dict:
    """The JSON document of a throughput matrix that
    `ThroughputMatrix.from_json` reads back: the cluster's types and
    placement flag, then per row its members and per configuration key its
    rates (None where the row cannot run)."""
    cluster = T.cluster
    keys = [cfg.key(cluster) for cfg in T.configs]
    return {
        "types": [{"name": t.name, "cost_per_hour": t.cost_per_hour,
                   "num_workers": t.num_workers,
                   "workers_per_server": t.workers_per_server}
                  for t in cluster.types],
        "placement_aware": cluster.placement_aware,
        "rows": [{"members": list(combo.members),
                  "throughputs": {key: None if cell is None else list(cell)
                                  for key, cell in zip(keys, row)}}
                 for combo, row in zip(T.rows, T.entries)],
    }
