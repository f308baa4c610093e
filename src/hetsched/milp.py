"""Branch-and-bound solver for LPs with binary variables.

Best-first search on the LP relaxation bound, branching on the most
fractional binary.  Ties between equally good incumbents are broken toward
the lexicographically smallest binary vector, which keeps results
reproducible across runs.
"""

from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np

from .lp import (ROUNDOFF_TOL, IterationLimitError, LinearProgram, SolveResult,
                 Status, solve_lp)

INT_TOL = 1e-6
# Objective values closer than this count as equal: a node or incumbent must
# beat the incumbent by more to displace it, and ties go to the lex order.
OBJ_TOL = 1e-9
# Nodes one branch-and-bound search may explore before it gives up.
NODE_LIMIT = 200_000


def solve_milp(lp: LinearProgram, binaries) -> SolveResult:
    """Globally optimal solve of `lp` over the assignments of the variables
    `binaries` to 0 or 1.  Each binary's bounds are tightened to [0, 1] on
    a copy; `lp` is left as it is.

    The returned binary vector is the lexicographically smallest one
    attaining the optimum, found by re-solving with a prefix of binaries
    pinned to zero wherever that preserves the objective.  Raises
    IterationLimitError when a search passes NODE_LIMIT nodes.
    """
    binaries = {int(v) for v in binaries}
    lower, upper = lp.lower.copy(), lp.upper.copy()
    for v in binaries:
        if not 0 <= v < lp.num_vars:
            raise ValueError(f"binary var {v} out of range")
        lower[v] = max(lower[v], 0.0)
        upper[v] = min(upper[v], 1.0)
    lp = replace(lp, lower=lower, upper=upper)
    result = _branch_and_bound(lp, binaries)
    if not result.optimal:
        return result
    return _lex_refine(lp, binaries, result)


def _lex_refine(lp: LinearProgram, binary_vars: set, best: SolveResult) -> SolveResult:
    binaries = sorted(binary_vars)
    target = best.objective_value
    fixed: dict[int, float] = {}
    current = best
    for v in binaries:
        if int(round(current.x[v])) == 0 and all(
                int(round(current.x[u])) == fixed[u] for u in fixed):
            fixed[v] = 0.0
            continue
        sub = _branch_and_bound(_pinned(lp, {**fixed, v: 0.0}),
                                binary_vars - set(fixed) - {v})
        if sub.optimal and sub.objective_value - target >= -OBJ_TOL:
            fixed[v] = 0.0
            current = sub
        else:
            fixed[v] = 1.0
    if any(int(round(current.x[u])) != fixed[u] for u in fixed):
        current = _branch_and_bound(_pinned(lp, fixed), binary_vars - set(fixed))
    return current


def _pinned(lp: LinearProgram, fixed: dict) -> LinearProgram:
    """A copy of `lp`, sharing its rows, with each variable in `fixed`
    pinned to its value."""
    lo, hi = lp.lower.copy(), lp.upper.copy()
    for v, val in fixed.items():
        lo[v] = hi[v] = float(val)
    return replace(lp, lower=lo, upper=hi)


def _branch_and_bound(lp: LinearProgram, binary_vars: set) -> SolveResult:
    binaries = sorted(binary_vars)
    if not binaries:
        return solve_lp(lp)

    def better(a: float, b: float) -> bool:
        return a - b > OBJ_TOL

    incumbent: SolveResult | None = None
    incumbent_key: tuple | None = None

    def binary_key(x: np.ndarray) -> tuple:
        return tuple(int(round(x[v])) for v in binaries)

    def relax(fixed: dict) -> SolveResult:
        return solve_lp(_pinned(lp, fixed))

    root = relax({})
    if root.status is Status.UNBOUNDED:
        return SolveResult(Status.UNBOUNDED)
    heap = []
    counter = 0
    if root.optimal:
        heapq.heappush(heap, (-root.objective_value, counter, {}, root))

    explored = 0
    while heap:
        _, _, fixed, res = heapq.heappop(heap)
        bound = res.objective_value
        explored += 1
        if explored > NODE_LIMIT:
            raise IterationLimitError(
                f"branch and bound passed {NODE_LIMIT} nodes without a proof "
                "of optimality")
        if incumbent is not None and not better(bound, incumbent.objective_value) \
                and abs(bound - incumbent.objective_value) > OBJ_TOL:
            continue  # bound strictly worse than incumbent

        frac = {v: res.x[v] for v in binaries
                if min(res.x[v], 1.0 - res.x[v]) > INT_TOL}
        if not frac:
            # Validate the leaf with binaries pinned to their rounded values:
            # a variable sitting just inside the integrality tolerance can
            # make the rounded vector infeasible.
            pinned = {v: float(round(res.x[v])) for v in binaries}
            cand = relax(pinned)
            if cand.optimal:
                key = binary_key(cand.x)
                if incumbent is None or better(cand.objective_value,
                                               incumbent.objective_value) \
                        or (abs(cand.objective_value - incumbent.objective_value) <= OBJ_TOL
                            and key < incumbent_key):
                    incumbent, incumbent_key = cand, key
                continue
            # The rounded vector is infeasible: branch on any free binary
            # that sits off its bounds by more than roundoff.
            frac = {v: res.x[v] for v in binaries if v not in fixed
                    and min(res.x[v], 1.0 - res.x[v]) > ROUNDOFF_TOL}
            if not frac:
                continue

        # Most fractional binary, lowest index on ties.
        branch_var = min(frac, key=lambda v: (abs(frac[v] - 0.5), v))
        for val in (0, 1):
            child_fixed = dict(fixed)
            child_fixed[branch_var] = val
            child = relax(child_fixed)
            if not child.optimal:
                continue
            if incumbent is not None \
                    and not better(child.objective_value, incumbent.objective_value) \
                    and abs(child.objective_value - incumbent.objective_value) > OBJ_TOL:
                continue
            counter += 1
            heapq.heappush(heap, (-child.objective_value, counter, child_fixed,
                                  child))

    if incumbent is None:
        return SolveResult(Status.INFEASIBLE)
    return incumbent
