"""A bisection driver that no policy calls any more, kept with the name
`solve_lp` while `bench/tracing.py` wraps both where they are bound."""

from __future__ import annotations

# bench/tracing.py wraps `solve_lp` where this module binds it.
from .lp import solve_lp  # noqa: F401

DEFAULT_REL_TOL = 1e-3
MAX_BISECT_ITERS = 64


class BracketError(ValueError):
    """The supplied bracket does not straddle the feasibility threshold."""


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
