"""The linear-fractional reduction (Charnes-Cooper) used by the cost
policies, and a bisection driver that no policy calls any more."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from .lp import LinearProgram, Relation, SolveResult, Status, solve_lp

DEFAULT_REL_TOL = 1e-3
MAX_BISECT_ITERS = 64
# A Charnes-Cooper scale t at or below this means the ratio's maximum is
# approached only in the limit, not attained.
RATIO_T_TOL = 1e-9


class BracketError(ValueError):
    """The supplied bracket does not straddle the feasibility threshold."""


class RatioUnboundedError(ValueError):
    """The denominator can reach zero with positive numerator: the ratio has
    no finite maximum."""


def bisect(feasible, lo: float, hi: float):
    """Find the feasibility threshold of a monotone predicate.

    No policy calls it; it stays while `bench/tracing.py` wraps the name
    where `policies` binds it, and leaves with ROADMAP item 2.

    `feasible(v)` returns (bool, witness).  The predicate is infeasible below
    the answer and feasible above; the search returns the smallest feasible
    value to within DEFAULT_REL_TOL (relative to max(1, |hi|)), as
    (value, witness) where witness comes from the last feasible probe.
    """
    if not lo < hi:
        raise BracketError(f"need lo < hi, got [{lo}, {hi}]")
    ok_lo, wit_lo = feasible(lo)
    if ok_lo:
        # Answer is at or below the lower bracket; lo is already a valid
        # lower bound, so it is the threshold.
        return lo, wit_lo
    ok_hi, witness = feasible(hi)
    if not ok_hi:
        raise BracketError(f"upper bracket {hi} is not feasible")

    for _ in range(MAX_BISECT_ITERS):
        if hi - lo <= DEFAULT_REL_TOL * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        ok, wit = feasible(mid)
        if ok:
            hi, witness = mid, wit
        else:
            lo = mid
    return hi, witness


def maximize_ratio(lp: LinearProgram, den_coeffs) -> SolveResult:
    """Maximize lp.objective'x / den'x over the LP's feasible set.

    Uses the Charnes-Cooper substitution y = t*x, den'y = 1,
    t >= 0, which turns the linear-fractional program into a single LP.  The
    denominator must stay strictly positive on the feasible set; if it can
    vanish while the numerator stays positive the LP is unbounded and a
    RatioUnboundedError is raised.
    """
    n = lp.num_vars
    den_coeffs = np.asarray(den_coeffs, dtype=float)
    # Variables: y_0..y_{n-1}, t.  Each row a'x (rel) b becomes
    # a'y - b t (rel) 0.  So that y can be left free, each variable's finite
    # bounds become rows against t, its upper row y_i - hi_i t <= 0 before its
    # lower row y_i - lo_i t >= 0.  Last comes den'y = 1.
    bound = np.column_stack([lp.upper, lp.lower]).ravel()
    finite = np.isfinite(bound)
    bound_rows = np.zeros((2 * n, n + 1))
    bound_rows[np.arange(2 * n), np.arange(2 * n) // 2] = 1.0
    bound_rows[:, n] = -bound
    cc = LinearProgram(
        n + 1, np.append(lp.objective, 0.0), True,
        np.vstack([np.column_stack([lp.constraints, -lp.rhs]), bound_rows[finite],
                   np.append(den_coeffs, 0.0)]),
        [*lp.relations, *itertools.compress([Relation.LE, Relation.GE] * n, finite),
         Relation.EQ],
        np.append(np.zeros(len(lp.rhs) + finite.sum()), 1.0),
        np.append(np.full(n, -np.inf), 0.0), np.full(n + 1, np.inf))

    res = solve_lp(cc)
    if res.status is Status.UNBOUNDED:
        raise RatioUnboundedError("denominator can reach zero on the feasible set")
    if not res.optimal:
        # Distinguish an empty polytope from a denominator that cannot
        # reach the normalization plane (identically zero, say).
        if solve_lp(replace(lp, objective=np.zeros(n), maximize=True)).optimal:
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
