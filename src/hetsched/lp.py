"""Linear-program solver: two-phase revised simplex over sparse rows.

Solves  max c'x  subject to  A_i x (<=|>=) b_i  and  lo <= x <= hi,  the
only LPs the policies build: no equality rows, no minimization (a cost is
maximized negated), and every variable fixed (lo == hi), nonnegative
(lo == 0) or free (lo == -inf).  A `LinearProgram` is plain data that
keeps its rows in one sparse store, `constraints` (a `Rows`: flat (row,
column, value) entries, every other coefficient +0.0), beside their
`relations` and right-hand sides `rhs`; the `_Standardized` that every
solve builds checks it once.  The solver is deterministic for a fixed
input: Dantzig pricing with lowest-index tie-breaking, falling back to
Bland's rule after a run of degenerate pivots so cycling is impossible.

Phase 1 starts from the slack basis.  Rows with a negative right-hand side,
and ``>=`` rows with a zero one, are negated first, so only ``>=`` rows
with a positive right-hand side need an artificial.  When none does (the
max-min epigraph rows ``s_j thr_j(X) - lam >= 0`` of LAS and min-makespan
are all of this kind), the slack basis is feasible: phase 1 is skipped and
phase 2 starts from it with the identity as its inverse.  The phase-1
tableau is the only dense copy of the rows: the kept variables' entries are
scattered straight into it, and each free variable's mirror column is its
column negated there.

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
basis its last solve left; the LP's own rows, its upper-bound rows and
appended rows share `standardize_rows`.  It is entered three ways, and
--dump-lp prints each LP once, before its phase 1, crash or phase 2:

- `phase_one` runs phase 1 from the slack basis; `solve_lp` follows it with
  phase 2.
- `start_at(x)` crashes a basis whose basic solution is a known vertex x of
  the rows, with no phase 1, and reports False when x is not one, so the
  caller falls back on `phase_one`.  Water filling's level LPs start there
  from the previous iteration's allocation.
- `append` adds rows to a state at a basis it already reached: each new row
  starts with its slack basic, and a zero-cost dual simplex moves the basis
  to a feasible one.  A zero objective makes every basis dual feasible, so
  under Bland's rule it pays only for the pivots the new rows need
  (Koberstein, PhD thesis, 2005), and none when the basis already satisfies
  them.

Phase 2 (`solve`) then runs the same primal simplex from the state's basis
and leaves its optimum in the state, so the next objective, or the next
appended rows, start there.
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
# `start_at` pivots onto the first open row whose pivot is at least this
# fraction of the largest one (threshold partial pivoting).
CRASH_PIVOT_RATIO = 0.1
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


# Whether each relation is >=.
_IS_GE = {Relation.LE: False, Relation.GE: True}


def _ge(relations) -> list:
    """Whether each of `relations` is >=.  Anything but a `Relation`
    member raises ValueError, text such as "<=" included: it compares
    equal to `Relation.LE` but has no `value` for `dump`."""
    if not {Relation}.issuperset(map(type, relations)):
        bad = next(rel for rel in relations if type(rel) is not Relation)
        raise ValueError(f"{bad!r} is not a valid Relation")
    return list(map(_IS_GE.__getitem__, relations))


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class DimensionError(ValueError):
    """A constraint or bound vector does not match the variable count."""


class IterationLimitError(RuntimeError):
    """A simplex phase used up its pivot budget, or a branch-and-bound
    search its node budget, without reaching a verdict."""


class Rows:
    """LP rows stored sparse: entry k is `val[k]` in row `row[k]`, column
    `col[k]`, and every coefficient no entry names is +0.0.  No position
    is named twice.  `shape` is (rows, columns); `len` is the row count."""

    __slots__ = ("row", "col", "val", "shape")

    def __init__(self, row, col, val, shape):
        self.row, self.col, self.val, self.shape = row, col, val, shape

    def __len__(self) -> int:
        return self.shape[0]

    @classmethod
    def stack(cls, blocks, width: int) -> "Rows":
        """The blocks' rows one after another, over `width` columns; a
        block over fewer columns has 0 in the others."""
        if any(b.shape[1] > width for b in blocks):
            raise DimensionError(f"a row block is wider than {width} columns")
        rows, m = [], 0
        for b in blocks:
            rows.append(b.row + m)
            m += len(b)
        return cls(np.concatenate(rows), np.concatenate([b.col for b in blocks]),
                   np.concatenate([b.val for b in blocks]), (m, width))

    def take(self, ks) -> "Rows":
        """The rows whose row i is row `ks[i]` of these."""
        at = np.full(len(self), -1, dtype=np.intp)
        at[ks] = np.arange(len(ks))
        row = at[self.row]
        mine = (row >= 0).nonzero()[0]
        return Rows(row[mine], self.col[mine], self.val[mine], (len(ks), self.shape[1]))

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row, self.col] = self.val
        return out


@dataclass
class LinearProgram:
    """max objective'x with linear constraints and box bounds, as plain
    data: `constraints` holds the m stacked rows' coefficients as `Rows`
    over `num_vars` columns, `relations` their m `Relation`s and `rhs`
    their m right-hand sides; `lower` and `upper` bound each variable, and
    a variable that is not fixed has lower bound 0 or -inf.  Nothing is
    checked or converted here: `_Standardized`, which every solve builds,
    checks the shapes, relations and bounds once per LP.
    """

    num_vars: int
    objective: np.ndarray
    constraints: Rows
    relations: list
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def add_rows(self, rows: Rows, relations: list, rhs):
        """Append `rows`, rows over every variable, with their relations
        and right-hand sides."""
        rhs = np.asarray(rhs, dtype=float)
        k = len(relations)
        if rows.shape != (k, self.num_vars) or rhs.shape != (k,):
            raise DimensionError(
                f"rows of shape {rows.shape} and rhs of shape {rhs.shape} do not "
                f"make {k} rows over {self.num_vars} variables")
        self.constraints = Rows.stack([self.constraints, rows], self.num_vars)
        self.relations = self.relations + relations
        self.rhs = np.concatenate([self.rhs, rhs])

    def dump(self) -> str:
        """Plain-text rendering for --dump-lp debugging."""
        terms = [[] for _ in self.relations]
        rows = self.constraints
        for i, j, c in zip(rows.row.tolist(), rows.col.tolist(), rows.val.tolist()):
            terms[i].append((j, c))
        lines = ["maximize  " + _linear_str(enumerate(self.objective)), "subject to"]
        lines += [f"  {_linear_str(sorted(row))} {rel.value} {b:g}"
                  for row, rel, b in zip(terms, self.relations, self.rhs)]
        lines.append("bounds")
        for i in range(self.num_vars):
            lines.append(f"  {self.lower[i]:g} <= x{i} <= {self.upper[i]:g}")
        return "\n".join(lines)


def _fixed(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Which variables' bounds are close enough to fix them."""
    return (lower == upper) | (np.abs(upper - lower) < FIXED_TOL)


def _linear_str(terms) -> str:
    """The (index, coefficient) pairs `terms`, in their order, without the
    zero coefficients."""
    terms = [f"{c:+g}*x{i}" for i, c in terms if c != 0.0]
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
    prob = _Standardized(lp)
    prob.phase_one()
    return prob.solve(lp.objective)


def _row_dots(rows: Rows, fixed: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each row's dot with `v` over the columns `fixed` marks (`v` is 0 on
    the others), entry i bit-identical to the 1-D dot of the row's dense
    coefficients on those columns with `v` on them.

    A row with at most one nonzero product sums exactly in any order, so
    only rows with several go through the 1-D dot, whose summation order
    and fused multiply-adds are BLAS's own.
    """
    out = np.zeros(len(rows))
    prod = rows.val * v[rows.col]
    hit = prod.nonzero()[0]
    if hit.size:
        at = rows.row[hit]
        terms = np.bincount(at, minlength=len(rows))
        one = terms[at] == 1
        out[at[one]] = prod[hit[one]]
        cols = fixed.nonzero()[0]
        for i in (terms > 1).nonzero()[0]:
            mine = rows.row == i
            dense = np.zeros(len(v))
            dense[rows.col[mine]] = rows.val[mine]
            out[i] = dense[cols] @ v[cols]
    return out


class _Standardized:
    """An LP's rows in standard form,  min c'u, A u = b, u >= 0, and the
    basis a cold or warm solve of them left.

    Building one checks the LP, once: its shapes (DimensionError), its
    relations, lower <= upper and the lower-bound rule (ValueError).  Fixed
    variables are eliminated up front; free variables are split into
    positive/negative parts; finite upper bounds become extra rows; the
    maximized objective is negated into the cost.  `entries` holds the
    rows' coefficients on the kept variables as (row, column, value)
    arrays, and a cold entry (`phase_one` or `start_at`) scatters them
    into the tableau `T`, negating some rows, adds each free variable's
    mirror column and a slack column per row, and keeps `T`, its
    right-hand side `b` and a feasible basis with its inverse and basic
    values.  `append` and `solve` both start from that state; `solve`
    leaves it at the optimal basis its phase 2 reaches.  `lp` is the LP
    the state was built from and `appended` the row blocks appended to it
    since, which `as_lp` puts back together.
    """

    def __init__(self, lp: LinearProgram):
        n, ge = lp.num_vars, _ge(lp.relations)
        m = len(ge)
        shapes = [a.shape for a in (lp.constraints, lp.rhs, lp.lower, lp.upper)]
        if shapes != [(m, n), (m,), (n,), (n,)]:
            raise DimensionError(
                f"constraints, rhs, lower and upper have shapes {shapes}, but "
                f"{m} rows over {n} variables need {[(m, n), (m,), (n,), (n,)]}")
        if np.any(lp.lower > lp.upper + FEAS_TOL):
            raise ValueError("lower bound exceeds upper bound")
        self.lp = lp
        self.fixed = _fixed(lp.lower, lp.upper)
        shifted = (np.isfinite(lp.lower) & (lp.lower != 0.0) & ~self.fixed).nonzero()[0]
        if shifted.size:
            i = shifted[0]
            raise ValueError(f"x{i} has lower bound {lp.lower[i]:g}; a variable "
                             "that is not fixed needs lower bound 0 or -inf")
        self.fixed_vals = np.where(self.fixed, lp.lower, 0.0)
        self.shifts = bool(self.fixed_vals.any())
        self.keep = (~self.fixed).nonzero()[0]

        # Column layout of the standardized variables: one column per kept
        # variable (`column` maps a variable to it, -1 when fixed), plus a
        # mirror column for each free variable's negative part.
        self.n_main = len(self.keep)
        self.neg_cols = (~np.isfinite(lp.lower[self.keep])).nonzero()[0]
        self.n = self.n_main + len(self.neg_cols)
        self.column = np.full(lp.num_vars, -1, dtype=np.intp)
        self.column[self.keep] = np.arange(self.n_main)

        # The LP's rows, then an upper-bound row x_i <= hi_i per kept
        # variable with a finite one.
        rows = lp.constraints
        ub_vars = self.keep[np.isfinite(lp.upper[self.keep])]
        if ub_vars.size:
            k = len(ub_vars)
            rows = Rows.stack([rows, Rows(np.arange(k), ub_vars, np.ones(k),
                                          (k, lp.num_vars))], lp.num_vars)
        self.entries, fixed = self.standardize_rows(rows)
        self.b = np.concatenate([lp.rhs, lp.upper[ub_vars]]) - fixed
        self.ge = np.array(ge + [False] * len(ub_vars), dtype=bool)
        self.appended = ()
        # The objective the LP was printed under by its cold entry.
        self.shown = None

    def standardize_rows(self, rows: Rows):
        """The (row, column, value) entries of `rows`, rows over the LP's
        variables, on the kept variables' columns, and what the fixed
        values move each row's right-hand side by: a right-hand side b
        becomes b - fixed."""
        cols = self.column[rows.col]
        kept = (cols >= 0).nonzero()[0]
        entries = rows.row[kept], cols[kept], rows.val[kept]
        if not self.shifts:
            return entries, np.zeros(len(rows))
        return entries, _row_dots(rows, self.fixed, self.fixed_vals)

    def _scatter(self, T: np.ndarray, entries, first: int, flip):
        """Write `entries` into the rows of `T` from row `first` on, then
        fill those rows' mirror columns: each is its free variable's column
        negated, -0.0 where that is +0.0.  Where the mask `flip` (over the
        rows, or None) holds, a row is negated first, its zeros too."""
        r, c, v = entries
        if flip is not None:
            T[flip, :self.n_main] = -0.0
            v = np.where(flip[r], -v, v)
        T[r + first if first else r, c] = v
        if self.neg_cols.size:
            T[first:, self.n_main:self.n] = -T[first:, self.neg_cols]

    def cost(self, objective: np.ndarray) -> np.ndarray:
        """The standardized (minimized) cost vector of an objective."""
        c_full = -objective[self.keep]
        c = np.zeros(self.n)
        c[:self.n_main] = c_full
        c[self.n_main:] = -c_full[self.neg_cols]
        return c

    def recover(self, u: np.ndarray) -> np.ndarray:
        x = self.fixed_vals.copy()
        vals = u[: self.n_main].copy()
        vals[self.neg_cols] -= u[self.n_main:]
        x[self.keep] = vals
        # Clip roundoff that strays just outside the box.
        return np.clip(x, self.lp.lower, self.lp.upper)

    @staticmethod
    def _without_rows(c: np.ndarray):
        """No constraints: optimum at the origin unless some cost is
        negative with no upper row, which means unbounded."""
        if np.any(c < -OPT_TOL):
            return Status.UNBOUNDED, None
        return Status.OPTIMAL, np.zeros(len(c))

    def _tableau(self, artificials: bool) -> tuple:
        """The rows as a cold entry starts them: (T, b, ge).  Rows with a
        negative right-hand side are negated, which swaps LE and GE; so are
        GE rows with a zero right-hand side, whose slack then starts basic
        at 0.  `ge` marks the rows that are >= after that and `b` is their
        right-hand side, nonnegative.  T holds the standardized columns,
        then a slack column per row (a surplus on GE rows), then, with
        `artificials`, an identity column per GE row."""
        b, n = self.b, self.n
        m = len(b)
        neg = b < 0
        flip = neg | (self.ge & (b == 0))
        ge = self.ge ^ flip
        art_rows = ge.nonzero()[0]
        T = np.zeros((m, n + m + (len(art_rows) if artificials else 0)))
        self._scatter(T, self.entries, 0, flip)
        T[np.arange(m), np.arange(n, n + m)] = np.where(ge, -1.0, 1.0)
        if artificials:
            T[art_rows, np.arange(n + m, T.shape[1])] = 1.0
        return T, np.where(neg, -b, b), ge

    def _enter(self, T, b, basis, Binv, xb) -> None:
        """Keep a cold entry's tableau and feasible basis."""
        self.feasible = True
        self.T, self.b, self.basis, self.Binv, self.xb = T, b, basis, Binv, xb

    def _show(self) -> None:
        """Print the LP the state was built from once, before its first
        cold entry; `solve` prints it again only under another objective."""
        if self.shown is None:
            self.shown = self.lp.objective
            self.dump(self.shown)

    def phase_one(self) -> bool:
        """Whether the rows are feasible, by the cold phase 1, which runs
        only when some row needs an artificial: a >= row with a positive
        right-hand side.  It keeps the state described in the class
        docstring, none of which depends on the objective."""
        self._show()
        # The starting basis, the LE slacks and the artificials, is the
        # identity.
        T, b, ge = self._tableau(True)
        m = len(b)
        art_start = self.n + m
        basis = np.arange(self.n, art_start)
        basis[ge] = np.arange(art_start, T.shape[1])
        if art_start == T.shape[1]:
            # The slack basis is feasible: no phase 1.
            self._enter(T, b, basis, np.eye(m), b.copy())
            return True
        c1 = np.zeros(T.shape[1])
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

        # Pivot each artificial left basic (at zero) out for the
        # lowest-index nonbasic column it can take.  One always exists,
        # so no row is dropped: an artificial e_r basic at position i
        # has B^-1 e_r = e_i, so row r's slack +-e_r prices at +-1 in
        # row i and is nonbasic (Chvatal, Linear Programming, 1983).
        Binv = None
        for i in (basis >= art_start).nonzero()[0]:
            if Binv is None:  # the basis changed since the last inverse
                Binv = _basis_inverse(T, basis)
            entering = np.abs(Binv[i] @ T[:, :art_start]) > PIVOT_TOL
            entering[basis[basis < art_start]] = False
            basis[i] = entering.argmax()
            Binv = None
        T = T[:, :art_start]
        Binv = _basis_inverse(T, basis)
        self._enter(T, b, basis, Binv, Binv @ b)
        return True

    def start_at(self, x) -> bool:
        """Enter at a basis whose basic solution is `x`, a point over the
        LP's variables, with no phase 1; False, leaving the state as it
        was, when `x` is not a vertex of the rows.  The caller then runs
        `phase_one`.

        The tableau is `phase_one`'s without artificials.  From the slack
        basis each column positive at `x` is pivoted in, in column order,
        onto an open row: one tight at `x` (its slack within ROUNDOFF_TOL
        of zero) whose slack is still basic.  Of those it takes the first
        in row order whose |d| is at least CRASH_PIVOT_RATIO times the
        largest, the threshold partial pivoting of sparse LU (Duff, Erisman
        and Reid, Direct Methods for Sparse Matrices, 1986), so a max-min
        LP's level rows, which come first, leave before the rows they
        share a job's rates with; the crash bases of Bixby (Oper. Res.
        50(1), 2002) start the same way.  Every other column is zero at
        `x`, so the basic solution is `x`, up to the rounding that put the
        tight rows' slacks at zero.  The crash fails when `x` is off a
        fixed variable's value or below a zero lower bound, when no open
        row has a pivot of at least PIVOT_TOL (the positive columns are
        dependent on the tight rows: `x` is not a vertex) or when a basic
        value ends below -ROUNDOFF_TOL (`x` breaks a row)."""
        self._show()
        x = np.asarray(x, dtype=float)
        if x.shape != (self.lp.num_vars,):
            raise DimensionError(f"start point has shape {x.shape}, "
                                 f"expected ({self.lp.num_vars},)")
        if np.any(x[self.fixed] != self.fixed_vals[self.fixed]):
            return False
        n, m = self.n, len(self.b)
        vals = x[self.keep]
        free = vals[self.neg_cols]
        u = np.zeros(n)
        u[:self.n_main] = vals
        u[self.neg_cols] = np.maximum(free, 0.0)
        u[self.n_main:] = np.maximum(-free, 0.0)
        if np.any(u < -ROUNDOFF_TOL):
            return False
        T, b, ge = self._tableau(False)
        sign = np.where(ge, -1.0, 1.0)
        slack = sign * (b - T[:, :n] @ u)
        # The rows whose slack may leave the basis.
        open_rows = np.abs(slack) <= ROUNDOFF_TOL
        basis = np.arange(n, n + m)
        Binv = np.diag(sign)
        buf = np.empty(m)
        for col in (u > 0).nonzero()[0]:
            d = Binv @ T[:, col]
            size = np.where(open_rows, np.abs(d), 0.0)
            top = size.max(initial=0.0)
            if top < PIVOT_TOL:
                return False
            leave = (size >= CRASH_PIVOT_RATIO * top).argmax()
            _pivot(Binv, d, leave, buf)
            basis[leave] = col
            open_rows[leave] = False
        xb = Binv @ b
        if np.any(xb < -ROUNDOFF_TOL):
            return False
        self._enter(T, b, basis, Binv, xb)
        return True

    def append(self, rows: Rows, relations: list, rhs) -> "_Standardized":
        """A copy with `rows`, rows over the LP's variables, appended with
        their relations and right-hand sides, each with its own slack, at
        a feasible basis if one exists; its `feasible` says whether one
        does.  The dual simplex starts from this basis plus the new
        slacks.  That basis is block lower triangular, [[B, 0], [R, S]]
        with S = diag(+-1) of the new slacks, so its inverse is
        [[B^-1, 0], [-S R B^-1, S]]."""
        ge = _ge(relations)
        if rows.shape != (len(ge), self.lp.num_vars):
            raise DimensionError(f"rows of shape {rows.shape} do not make "
                                 f"{len(ge)} rows over {self.lp.num_vars} variables")
        entries, fixed = self.standardize_rows(rows)
        sign = np.array([-1.0 if g else 1.0 for g in ge])
        (m, n), k = self.T.shape, len(ge)
        rows_k, slacks_k = np.arange(m, m + k), np.arange(n, n + k)
        out = copy.copy(self)
        out.T = np.zeros((m + k, n + k))
        out.T[:m, :n] = self.T
        self._scatter(out.T, entries, m, None)
        out.T[rows_k, slacks_k] = sign
        out.b = np.concatenate([self.b, np.asarray(rhs, dtype=float) - fixed])
        Binv = np.zeros((m + k, m + k))
        Binv[:m, :m] = self.Binv
        Binv[m:, :m] = -sign[:, None] * (out.T[m:, self.basis] @ self.Binv)
        Binv[rows_k, rows_k] = sign
        out.feasible, out.basis, out.Binv, out.xb = _dual_simplex(
            out.T, out.b, np.concatenate([self.basis, slacks_k]), Binv, Binv @ out.b)
        out.appended = self.appended + ((rows, relations, rhs),)
        out.shown = None
        return out

    def as_lp(self, objective) -> LinearProgram:
        """The LP of the rows the state holds under `objective`: its own
        LP's rows, then each appended block.  --dump-lp prints it."""
        lp = replace(self.lp, objective=objective)
        for rows in self.appended:
            lp.add_rows(*rows)
        return lp

    def dump(self, objective) -> None:
        """Feed `debug_sink` the text of `as_lp(objective)`, when a sink is set."""
        if debug_sink is not None:
            lp = self.as_lp(objective)
            debug_sink(f"# LP: {lp.num_vars} variables, {len(lp.constraints)} "
                       "constraints\n" + lp.dump())

    def reduced_costs(self, objective) -> tuple:
        """The reduced costs under `objective` at the basis the state holds,
        priced as `_simplex` prices them, zero on basic columns: those of
        the standardized variables, then those of the inequality rows'
        slacks in row order.  A free variable's two parts price as
        negatives, so the nonbasic part of a basic free variable prices at
        exactly zero, and is set to it."""
        n = self.n
        c = np.zeros(self.T.shape[1])
        c[:n] = self.cost(objective)
        reduced = c - _duals(c[self.basis], self.Binv) @ self.T
        basic = np.zeros(len(c), dtype=bool)
        basic[self.basis] = True
        mirror = np.arange(self.n_main, n)
        basic[mirror[basic[self.neg_cols]]] = True
        basic[self.neg_cols[basic[mirror]]] = True
        reduced[basic] = 0.0
        return reduced[:n], reduced[n:]

    def solve(self, objective) -> SolveResult:
        """Phase 2 for one objective from the basis the state holds, as a
        SolveResult over the LP's own variables, leaving the state at the
        basis it ends on: rows appended afterwards, and the next objective,
        start from this one's optimum.  --dump-lp prints the LP first,
        unless it is the one the cold entry printed."""
        shown = objective is self.shown
        objective = np.asarray(objective, dtype=float)
        if objective.shape != (self.lp.num_vars,):
            raise DimensionError(f"objective has shape {objective.shape}, "
                                 f"expected ({self.lp.num_vars},)")
        if not shown:
            self.dump(objective)
        c = self.cost(objective)
        if not self.feasible:
            return SolveResult(Status.INFEASIBLE)
        if not len(self.basis):
            status, u = self._without_rows(c)
        else:
            n = self.n
            c2 = np.zeros(self.T.shape[1])
            c2[:n] = c
            # The simplex moves the inverse and basic values to the basis
            # it returns.
            status, x_all, self.basis = _simplex(self.T, self.b, c2, self.basis,
                                                 self.Binv, self.xb)
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

        reduced = c - _duals(cb, Binv) @ A
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


def _duals(cb: np.ndarray, Binv: np.ndarray) -> np.ndarray:
    """The duals cb B^-1 of the basic costs `cb`.  One nonzero basic cost
    (the level of a max-min LP) makes them a row of `Binv` scaled once, as
    the product sum rounds it."""
    costed = cb.nonzero()[0]
    if costed.size == 1:
        k = costed[0]
        return Binv[k] * cb[k]
    return cb @ Binv


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
