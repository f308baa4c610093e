"""Dense linear-program solver: two-phase revised simplex.

Solves  max/min c'x  subject to  A_i x (<=|>=|=) b_i  and  lo <= x <= hi.
A `LinearProgram` stacks its rows in one (m, num_vars) array, `constraints`,
beside their `relations` and right-hand sides `rhs`.  The solver is
deterministic for a fixed input: Dantzig pricing with lowest-index
tie-breaking, falling back to Bland's rule after a run of degenerate pivots
so cycling is impossible.

Phase 1 starts from the slack basis.  Rows with a negative right-hand side,
and ``>=`` rows with a zero one, are negated first, so only ``=`` rows and
``>=`` rows with a positive right-hand side need an artificial.  When none
does (the max-min epigraph rows ``s_j thr_j(X) - lam >= 0`` of LAS and
min-makespan are all of this kind), the slack basis is feasible: phase 1 is
skipped and phase 2 starts from it with the identity as its inverse.

Pivots and solutions are bit-identical to the reference kernel kept in the
test suite (``tests/oracles.py``), which applies the same starting rule:
only the bookkeeping around the floating-point operations that decide a
pivot differs from it.

Pivots skip work on exact zeros without changing a rounding (the
hyper-sparsity of Hall and McKinnon, Comput. Optim. Appl. 32, 2005).  On a
basis of at least SPARSE_PIVOT_ROWS rows whose pivot row of B^-1 is at most
a quarter nonzeros, `_pivot` updates only the columns that row touches, each
with the dense update's multiply-then-subtract.  When exactly one basic cost
is nonzero (the level of a max-min LP), the duals are that cost times one
row of B^-1, the one product the full sum would round.  A degenerate step
leaves the basic values alone.  What is skipped would only add or subtract
an exact zero, so at most the sign of a zero in B^-1 or in the basic values
differs.  Such a sign reaches a sum only when every term is zero, pricing
and the ratio test only compare, a refactorization rebuilds both arrays,
and the returned solution has +0.0 in every zero: every pivot and every
returned bit is the dense kernel's.

One object, `_Standardized`, holds an LP's rows in standard form and the
basis its last solve left, for cold and warm solves alike; the LP's own
rows, its upper-bound rows and appended rows share `standardize_rows`.
Phase 1 keeps its row-signed tableau and feasible basis; `solve_lp_each`
runs phase 2 from it once per objective.  Rows solved again and again with new
right-hand sides or appended rows restart from the kept basis instead of a
cold phase 1: a new right-hand side is negated where phase 1 negated the
row, and appended rows start with their slacks basic.  A zero objective
makes every basis dual feasible, so a dual simplex under Bland's rule
reaches a feasible basis paying only for the pivots the change needs
(Koberstein, PhD thesis, 2005).  Phase 2 then runs the same primal simplex
from that basis.  A phase 2 may also leave its optimal basis in the state:
a row appended to an optimum that it already satisfies starts with its
slack basic and feasible, so phase 2 under a new objective restarts there
with no phase 1 and no dual pivot.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, replace

import numpy as np

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
# Phase 1 prices to a much tighter tolerance than phase 2: its objective
# value IS the feasibility verdict, so a pricing tolerance comparable to the
# infeasibility threshold would let near-threshold systems through (or
# reject feasible ones).
PHASE1_OPT_TOL = 1e-10
# Starting basic values below this are roundoff and start at zero; ratio-test
# ties and degenerate steps are judged at the same width.
ROUNDOFF_TOL = 1e-12
# Entries of a returned solution below this are reported as zero.
ZERO_TOL = 1e-11
# Smallest pivot that may drive a leftover artificial out of the basis.
PIVOT_TOL = 1e-9
# Bounds closer than this fix the variable.
FIXED_TOL = 1e-15
# Consecutive degenerate pivots tolerated before switching to Bland's rule.
DEGENERATE_LIMIT = 40
REFACTOR_EVERY = 100
# Bases with at least this many rows update only the basis-inverse columns
# a sparse pivot row touches (`_pivot`).
SPARSE_PIVOT_ROWS = 48
# Pivot budget per simplex phase: MAX_ITER_BASE + MAX_ITER_PER_DIM * (rows
# + columns) of the standardized problem.
MAX_ITER_BASE = 5000
MAX_ITER_PER_DIM = 40
# Optional hook for --dump-lp debugging: a callable fed the text of every
# LP before it is solved.
debug_sink = None


class Relation(str, enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class DimensionError(ValueError):
    """A constraint or bound vector does not match the variable count."""


class IterationLimitError(RuntimeError):
    """A simplex phase used up its pivot budget, or a branch-and-bound
    search its node budget, without reaching a verdict."""


@dataclass
class LinearProgram:
    """max/min objective'x with linear constraints and box bounds.

    The rows are stacked: `constraints` is an (m, num_vars) array of their
    coefficients, `relations` their m relations and `rhs` their m
    right-hand sides (no rows by default).  Bounds default to x >= 0 with no
    upper limit; entries may be +-inf.
    """

    num_vars: int
    objective: np.ndarray
    maximize: bool = True
    constraints: np.ndarray | None = None
    relations: list | None = None
    rhs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        n = self.num_vars
        self.objective = _objective(self, self.objective)
        self.constraints = np.asarray(
            np.empty((0, n)) if self.constraints is None else self.constraints,
            dtype=float)
        self.relations = [Relation(rel) for rel in self.relations or ()]
        self.rhs = np.asarray(() if self.rhs is None else self.rhs, dtype=float)
        if self.lower is None:
            self.lower = np.zeros(n)
        else:
            self.lower = np.asarray(self.lower, dtype=float)
        if self.upper is None:
            self.upper = np.full(n, np.inf)
        else:
            self.upper = np.asarray(self.upper, dtype=float)
        m = len(self.relations)
        shapes = [a.shape for a in (self.constraints, self.rhs, self.lower, self.upper)]
        if shapes != [(m, n), (m,), (n,), (n,)]:
            raise DimensionError(
                f"constraints, rhs, lower and upper have shapes {shapes}, but "
                f"{m} rows over {n} variables need {[(m, n), (m,), (n,), (n,)]}")
        if np.any(self.lower > self.upper + FEAS_TOL):
            raise ValueError("lower bound exceeds upper bound")

    def add_rows(self, coeffs, relations, rhs):
        """Append the rows `coeffs` stacks over every variable, with their
        relations and right-hand sides."""
        rows = LinearProgram(self.num_vars, self.objective, constraints=coeffs,
                             relations=relations, rhs=rhs)  # checks the shapes
        self.constraints = np.vstack([self.constraints, rows.constraints])
        self.relations = self.relations + rows.relations
        self.rhs = np.concatenate([self.rhs, rows.rhs])

    def dump(self) -> str:
        """Plain-text rendering for --dump-lp debugging."""
        lines = [("maximize  " if self.maximize else "minimize  ")
                 + _linear_str(self.objective), "subject to"]
        lines += [f"  {_linear_str(row)} {rel.value} {b:g}"
                  for row, rel, b in zip(self.constraints, self.relations, self.rhs)]
        lines.append("bounds")
        for i in range(self.num_vars):
            lines.append(f"  {self.lower[i]:g} <= x{i} <= {self.upper[i]:g}")
        return "\n".join(lines)


def _linear_str(coeffs) -> str:
    terms = [f"{c:+g}*x{i}" for i, c in enumerate(coeffs) if c != 0.0]
    return " ".join(terms) if terms else "0"


@dataclass
class SolveResult:
    status: Status
    x: np.ndarray | None = None
    objective_value: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL


def solve_lp(lp: LinearProgram) -> SolveResult:
    """Solve the LP; returns an optimal basic feasible solution when one exists."""
    return solve_lp_each(lp, [lp.objective])[0]


def solve_lp_each(lp: LinearProgram, objectives) -> list[SolveResult]:
    """Solve the LP once per objective, keeping its sense, rows and bounds.

    Entry i is exactly what `solve_lp` returns for the LP with objective
    `objectives[i]`.  Phase 1 does not read the objective, so it runs once
    and every objective starts its phase 2 from the same feasible basis.
    """
    dump_each(lambda: lp, objectives)
    prob = _Standardized(lp)
    prob.phase_one()
    return prob.solve_each(objectives)


def dump_each(build, objectives=None) -> None:
    """Feed `debug_sink` the text of the LP that `build()` returns, once per
    objective in `objectives` (by default its own), as `solve_lp_each`
    would.  `build` runs only when a sink is set, so a solver that never
    builds the LinearProgram can still show it."""
    if debug_sink is None:
        return
    lp = build()
    for objective in [lp.objective] if objectives is None else objectives:
        debug_sink(f"# LP: {lp.num_vars} variables, {len(lp.constraints)} constraints\n"
                   + replace(lp, objective=_objective(lp, objective)).dump())


def _objective(lp: LinearProgram, objective) -> np.ndarray:
    objective = np.asarray(objective, dtype=float)
    if objective.shape != (lp.num_vars,):
        raise DimensionError(
            f"objective has shape {objective.shape}, expected ({lp.num_vars},)")
    return objective


def _row_dots(coeffs: np.ndarray, cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """coeffs[:, cols] @ v, entry i bit-identical to the 1-D dot
    ``coeffs[i, cols] @ v``.

    A row with at most one nonzero product sums exactly in any order, so
    only rows with several go through the 1-D dot, whose summation order
    and fused multiply-adds are BLAS's own.
    """
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


class _Standardized:
    """An LP's rows in standard form,  min c'u, A u = b, u >= 0, and the
    basis a cold or warm solve of them left.

    Fixed variables (lo == hi) are eliminated up front.  Finite lower bounds
    are shifted out; free variables are split into positive/negative parts;
    finite upper bounds become extra rows.  `phase_one` adds a slack column
    per inequality row and negates some rows, keeping the tableau `T`, its
    right-hand side `b`, the negated rows `flip` and a feasible basis with
    its inverse and basic values.  `restart`, `append`, `solve_each` and
    `solve` all start from that state; `solve` leaves it at the optimal
    basis its phase 2 reaches.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.fixed = (lp.lower == lp.upper) | (np.abs(lp.upper - lp.lower) < FIXED_TOL)
        self.fixed_vals = np.where(self.fixed, lp.lower, 0.0)
        self.keep = (~self.fixed).nonzero()[0]

        # Column layout of the standardized variables: one column per kept
        # variable (shifted by its finite lower bound), plus a mirror column
        # for each free variable's negative part.
        lower = lp.lower[self.keep]
        finite = np.isfinite(lower)
        self.shift = np.where(finite, lower, 0.0)
        self.n_main = len(self.keep)
        self.neg_cols = (~finite).nonzero()[0]

        # The LP's rows, then an upper-bound row x_i <= hi_i per kept
        # variable with a finite one (after the shift, u_i <= hi_i - lo_i).
        ub_vars = self.keep[np.isfinite(lp.upper[self.keep] - self.shift)]
        bounds = np.zeros((len(ub_vars), lp.num_vars))
        bounds[np.arange(len(ub_vars)), ub_vars] = 1.0
        self.upper_rhs = lp.upper[ub_vars]
        self.A, self.row_shifts = self.standardize_rows(
            np.vstack([lp.constraints, bounds]))
        self.b = self.rhs(lp.rhs)
        rels = lp.relations + [Relation.LE] * len(ub_vars)
        self.le = np.array([rel is Relation.LE for rel in rels], dtype=bool)
        self.ge = np.array([rel is Relation.GE for rel in rels], dtype=bool)

    def standardize_rows(self, coeffs: np.ndarray):
        """Rows over the LP's variables (`coeffs` stacks them) in the
        standardized columns, and what the fixed values and the lower-bound
        shift move each row's right-hand side by: a right-hand side b
        becomes b - fixed - shift."""
        main = coeffs[:, self.keep]
        fixed_cols = self.fixed.nonzero()[0]
        return (np.hstack([main, -main[:, self.neg_cols]]),
                (_row_dots(coeffs, fixed_cols, self.fixed_vals[fixed_cols]),
                 _row_dots(coeffs, self.keep, self.shift)))

    def rhs(self, rhs) -> np.ndarray:
        """The standardized right-hand side when the LP's rows have the
        right-hand sides `rhs`."""
        fixed, shift = self.row_shifts
        return np.concatenate([rhs, self.upper_rhs]) - fixed - shift

    def cost(self, objective: np.ndarray) -> np.ndarray:
        """The standardized (minimized) cost vector of an objective."""
        c_full = objective[self.keep].astype(float)
        if self.lp.maximize:
            c_full = -c_full
        c = np.zeros(self.A.shape[1])
        c[:self.n_main] = c_full
        c[self.n_main:] = -c_full[self.neg_cols]
        return c

    def recover(self, u: np.ndarray) -> np.ndarray:
        x = self.fixed_vals.copy()
        vals = u[: self.n_main].copy()
        vals[self.neg_cols] -= u[self.n_main:]
        x[self.keep] = vals + self.shift
        # Clip roundoff that strays just outside the box.
        return np.clip(x, self.lp.lower, self.lp.upper)

    @staticmethod
    def _without_rows(c: np.ndarray):
        """No constraints: optimum at the (shifted) origin unless some cost
        is negative with no upper row, which means unbounded."""
        if np.any(c < -OPT_TOL):
            return Status.UNBOUNDED, None
        return Status.OPTIMAL, np.zeros(len(c))

    def phase_one(self) -> bool:
        """Whether the rows are feasible, by the cold phase 1, which runs
        only when some row needs an artificial.  It keeps the state
        described in the class docstring, none of which depends on the
        objective, and sets `dropped` when it drops a dependent row."""
        A, b = self.A, self.b
        m, n = A.shape

        # Rows with a negative right-hand side are negated, which swaps LE
        # and GE; so are GE rows with a zero right-hand side, whose slack
        # then starts basic at 0 and needs no artificial.
        neg = b < 0
        self.flip = neg | (self.ge & (b == 0))
        b = np.where(neg, -b, b)
        le = np.where(self.flip, self.ge, self.le)
        ge = np.where(self.flip, self.le, self.ge)

        # Slack / surplus columns, then artificials where no basic slack
        # exists.  The starting basis (the LE slacks and the artificials) is
        # the identity.
        slack_rows = (le | ge).nonzero()[0]
        art_rows = (~le).nonzero()[0]
        art_start = n + len(slack_rows)
        total = art_start + len(art_rows)
        slack_cols = np.arange(n, art_start)
        art_cols = np.arange(art_start, total)
        T = np.zeros((m, total))
        T[:, :n] = A
        T[self.flip, :n] *= -1.0
        T[slack_rows, slack_cols] = np.where(le[slack_rows], 1.0, -1.0)
        T[art_rows, art_cols] = 1.0
        basis = np.empty(m, dtype=np.intp)
        basis[slack_rows] = slack_cols
        basis[art_rows] = art_cols
        self.dropped = False
        if art_rows.size:
            c1 = np.zeros(total)
            c1[art_start:] = 1.0
            status, x_all, basis = _simplex(T, b, c1, basis, np.eye(m), b.copy(),
                                            PHASE1_OPT_TOL)
            # Absolute residual threshold: scaling it by the rhs magnitude
            # would make the verdict depend on how the caller formulated the
            # rows (a big-M variant of the same system would pass where the
            # direct form fails).
            if status is not Status.OPTIMAL or float(c1 @ x_all) > FEAS_TOL:
                self.feasible = False
                return False

            # Drive leftover artificials out of the basis; drop dependent rows.
            keep_rows = np.ones(m, dtype=bool)
            Binv = None
            for i in (basis >= art_start).nonzero()[0]:
                if Binv is None:  # the basis changed since the last inverse
                    Binv = _basis_inverse(T, basis)
                coeffs = Binv[i] @ T[:, :art_start]
                entering = np.abs(coeffs) > PIVOT_TOL
                entering[basis[basis < art_start]] = False
                j = entering.nonzero()[0]
                if j.size:
                    basis[i] = j[0]
                    Binv = None
                else:
                    keep_rows[i] = False
            if not keep_rows.all():
                self.dropped = True
                T, b, basis = T[keep_rows], b[keep_rows], basis[keep_rows]
            T = T[:, :art_start]
            Binv = _basis_inverse(T, basis)
            xb = Binv @ b
        else:
            # The slack basis is feasible: no phase 1.
            Binv, xb = np.eye(m), b.copy()
        self.feasible = True
        self.T, self.b, self.basis, self.Binv, self.xb = T, b, basis, Binv, xb
        return True

    def restart(self, rhs=None) -> bool:
        """Whether the rows are feasible, by the dual simplex from the basis
        the state holds, the LP's own rows taking the right-hand sides `rhs`
        when given (negated where phase 1 negated the row; appended rows
        keep theirs)."""
        if rhs is not None:
            if self.dropped:
                raise ValueError("phase 1 dropped a dependent equality row, "
                                 "so new right-hand sides cannot restart")
            b = self.rhs(np.asarray(rhs, dtype=float))
            self.b = np.concatenate([np.where(self.flip, -b, b), self.b[len(b):]])
        self.feasible, self.basis, self.Binv, self.xb = _dual_simplex(
            self.T, self.b, self.basis, self.Binv, self.Binv @ self.b)
        return self.feasible

    def append(self, coeffs, relations, rhs) -> "_Standardized":
        """A copy with the rows `coeffs` stacks over the LP's variables
        appended, with their relations and right-hand sides, each with its
        own slack, whose basis is this one plus the new slacks; `restart`
        then decides it.  That basis is block lower triangular,
        [[B, 0], [R, S]] with S = diag(+-1) of the new slacks, so its
        inverse is [[B^-1, 0], [-S R B^-1, S]]."""
        rels = [Relation(rel) for rel in relations]
        if Relation.EQ in rels:
            raise ValueError("an equality row has no slack")
        A, (fixed, shift) = self.standardize_rows(np.asarray(coeffs, dtype=float))
        b = np.asarray(rhs, dtype=float) - fixed - shift
        sign = np.array([1.0 if rel is Relation.LE else -1.0 for rel in rels])
        (m, n), k = self.T.shape, len(rels)
        rows_k, slacks_k = np.arange(m, m + k), np.arange(n, n + k)
        out = copy.copy(self)
        out.T = np.zeros((m + k, n + k))
        out.T[:m, :n] = self.T
        out.T[m:, :A.shape[1]] = A
        out.T[rows_k, slacks_k] = sign
        out.b = np.concatenate([self.b, b])
        out.basis = np.concatenate([self.basis, slacks_k])
        out.Binv = np.zeros((m + k, m + k))
        out.Binv[:m, :m] = self.Binv
        out.Binv[m:, :m] = -sign[:, None] * (out.T[m:, self.basis] @ self.Binv)
        out.Binv[rows_k, rows_k] = sign
        return out

    def solve_each(self, objectives) -> list[SolveResult]:
        """Phase 2 per objective from the basis the last phase 1 or restart
        found, as SolveResults over the LP's own variables.  Each starts
        from copies of the inverse and basic values, so the state keeps
        that basis."""
        return [self._result(_objective(self.lp, objective), keep=False)
                for objective in objectives]

    def solve(self, objective) -> SolveResult:
        """Phase 2 for one objective, as `solve_each` solves it, leaving the
        state at the basis it ends on: rows appended afterwards, and the
        next objective, start from this one's optimum."""
        return self._result(_objective(self.lp, objective), keep=True)

    def _result(self, objective: np.ndarray, keep: bool) -> SolveResult:
        c = self.cost(objective)
        if not self.feasible:
            return SolveResult(Status.INFEASIBLE)
        if not len(self.basis):
            status, u = self._without_rows(c)
        else:
            n = self.A.shape[1]
            c2 = np.zeros(self.T.shape[1])
            c2[:n] = c
            # The simplex moves the inverse and basic values it is given to
            # the basis it returns.
            if keep:
                Binv, xb = self.Binv, self.xb
            else:
                Binv, xb = self.Binv.copy(), self.xb.copy()
            status, x_all, basis = _simplex(self.T, self.b, c2, self.basis,
                                            Binv, xb)
            if keep:
                self.basis = basis
            u = x_all[:n] if status is Status.OPTIMAL else None
        if status is not Status.OPTIMAL:
            return SolveResult(status)
        x = self.recover(u)
        return SolveResult(status, x, float(objective @ x))


def _basis_inverse(A: np.ndarray, basis) -> np.ndarray:
    return np.linalg.inv(A[:, basis])


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray,
             Binv: np.ndarray, xb: np.ndarray, opt_tol: float = OPT_TOL):
    """Revised simplex (min c'x, Ax=b, x>=0) from a starting basis.

    `Binv` is the exact inverse of the starting basis and `xb` its basic
    values.  Pivots and refactorizations update both in place, so on return
    they belong to the returned basis: the optimal one, or the last one
    before an unbounded ray.  Returns (status, x, basis).  The basis inverse
    is maintained with `_pivot`'s rank-one updates and refactorized
    periodically.
    """
    m, n = A.shape
    basis = basis.copy()
    # Roundoff guard: phase-1 starting bases are exactly feasible.
    xb[np.abs(xb) < ROUNDOFF_TOL] = 0.0

    bland = False
    degenerate_run = 0
    max_iter = MAX_ITER_BASE + MAX_ITER_PER_DIM * (m + n)
    # The basic costs c[basis], kept up to date pivot by pivot.
    cb = c[basis]
    # Buffers reused by every pivot.
    pos = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    buf = np.empty(m)

    for it in range(max_iter):
        if it > 0 and it % REFACTOR_EVERY == 0:
            Binv[...] = _basis_inverse(A, basis)
            xb[...] = Binv @ b

        # One nonzero basic cost (the level of a max-min LP) makes y a row
        # of Binv scaled once, as the product sum rounds it.
        costed = cb.nonzero()[0]
        if costed.size == 1:
            k = costed[0]
            y = Binv[k] * cb[k]
        else:
            y = cb @ Binv
        reduced = c - y @ A
        reduced[basis] = 0.0

        if bland:
            improving = reduced < -opt_tol
            enter = improving.argmax()
            if not improving[enter]:
                break
        else:
            enter = reduced.argmin()
            if reduced[enter] >= -opt_tol:
                break

        d = Binv @ A[:, enter]
        np.greater(d, FEAS_TOL, out=pos)
        ratios.fill(np.inf)
        np.divide(xb, d, out=ratios, where=pos)
        min_ratio = np.minimum.reduce(ratios)
        # Unbounded when no entry of d is positive; only an all-inf ratio
        # vector can mean that, so the test runs only then.
        if min_ratio == np.inf and not pos.any():
            return Status.UNBOUNDED, None, basis
        tied = (ratios <= min_ratio + ROUNDOFF_TOL).nonzero()[0]
        # Leaving rule: among minimum-ratio rows pick the smallest basis index
        # (Bland-compatible, deterministic).
        leave = tied[0] if len(tied) == 1 else tied[basis[tied].argmin()]

        step = ratios[leave]
        if step <= ROUNDOFF_TOL:
            degenerate_run += 1
            if degenerate_run > DEGENERATE_LIMIT:
                bland = True
        else:
            degenerate_run = 0

        # A degenerate step moves no basic value.
        if step != 0.0:
            xb -= np.multiply(d, step, out=buf)
        xb[leave] = step
        _pivot(Binv, d, leave, buf)
        basis[leave] = enter
        cb[leave] = c[enter]
    else:
        raise IterationLimitError(
            f"simplex iteration limit exceeded ({max_iter} pivots)")

    x = np.zeros(n)
    x[basis] = xb
    x[np.abs(x) < ZERO_TOL] = 0.0
    return Status.OPTIMAL, x, basis


def _pivot(Binv: np.ndarray, d: np.ndarray, leave: int, buf: np.ndarray):
    """Update `Binv` in place for the basis whose column `leave` takes the
    entering column with B^-1 a = `d`: the pivot row is divided by
    d[leave], then d times it is subtracted from every other row.  `d` is
    left with d[leave] = 0; `buf` is an (m,) buffer.

    When the pivot row has at most a quarter nonzeros on a basis of at least
    SPARSE_PIVOT_ROWS rows, only the columns it touches are updated, each
    by the same multiply-then-subtract as the dense update.  A skipped
    column would subtract d * 0, an exact zero, so the update differs at
    most in the sign of a zero entry.
    """
    pivot_row = Binv[leave]
    pivot_row /= d[leave]
    d[leave] = 0.0
    m = len(d)
    if m >= SPARSE_PIVOT_ROWS:
        cols = pivot_row.nonzero()[0]
        if 4 * cols.size <= m:
            for j in cols:
                Binv[:, j] -= np.multiply(d, pivot_row[j], out=buf)
            return
    Binv -= np.multiply(d[:, None], pivot_row)


def _dual_simplex(T: np.ndarray, b: np.ndarray, basis: np.ndarray,
                  Binv: np.ndarray, xb: np.ndarray):
    """Dual simplex for a zero objective (T x = b, x >= 0) from a basis with
    its exact inverse `Binv` and basic values `xb`.  Both are scratch: a
    refactorization replaces them, so read the returned ones.

    Every basis is dual feasible for a zero objective, so every ratio test
    ties and Bland's rule decides: the leaving row is, among rows whose
    basic value is below -FEAS_TOL, the one whose basic column has the
    smallest index; the entering column is the lowest-index nonbasic one
    with a pivot-row entry below -PIVOT_TOL.  Returns (feasible, basis,
    Binv, xb): feasible once no basic value is below -FEAS_TOL, infeasible
    when the leaving row has no entering column (its row of B^-1 T x = B^-1 b
    then has no nonnegative solution).  The pivot budget and refactorization
    are `_simplex`'s.
    """
    m, n = T.shape
    basis = basis.copy()
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[basis] = False
    max_iter = MAX_ITER_BASE + MAX_ITER_PER_DIM * (m + n)
    buf = np.empty(m)
    for it in range(max_iter):
        if it > 0 and it % REFACTOR_EVERY == 0:
            Binv = _basis_inverse(T, basis)
            xb = Binv @ b
        short = (xb < -FEAS_TOL).nonzero()[0]
        if not short.size:
            return True, basis, Binv, xb
        leave = short[basis[short].argmin()]
        entering = (Binv[leave] @ T < -PIVOT_TOL) & nonbasic
        enter = entering.argmax()
        if not entering[enter]:
            return False, basis, Binv, xb
        d = Binv @ T[:, enter]
        step = xb[leave] / d[leave]
        xb -= d * step
        xb[leave] = step
        _pivot(Binv, d, leave, buf)
        nonbasic[basis[leave]] = True
        nonbasic[enter] = False
        basis[leave] = enter
    raise IterationLimitError(
        f"dual simplex iteration limit exceeded ({max_iter} pivots)")
