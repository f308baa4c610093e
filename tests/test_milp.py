import dataclasses
import itertools

import numpy as np
import pytest

import hetsched.milp
from hetsched.lp import IterationLimitError, LinearProgram, Status, solve_lp
from hetsched.milp import MixedIntegerProgram, solve_milp


def enumerate_oracle(lp: LinearProgram, binaries):
    """Solve every binary assignment's restricted LP; ties keep the first
    (lexicographically smallest) assignment."""
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        lo = lp.lower.copy()
        hi = lp.upper.copy()
        for v, val in zip(binaries, bits):
            lo[v] = hi[v] = val
        sub = dataclasses.replace(lp, lower=lo, upper=hi)
        res = solve_lp(sub)
        if not res.optimal:
            continue
        sense = 1 if lp.maximize else -1
        if best is None or sense * (res.objective_value - best[0]) > 1e-9:
            best = (res.objective_value, bits, res.x)
    return best


def test_tie_break_lexicographic():
    lp = LinearProgram(2, [1.0, 1.0], maximize=True)
    lp.add_rows([[1.0, 1.0]], ["<="], [1.0])
    res = solve_milp(MixedIntegerProgram(lp, {0, 1}))
    assert res.objective_value == pytest.approx(1.0)
    assert tuple(round(v) for v in res.x) == (0, 1)


def test_integral_relaxation_matches_lp():
    lp = LinearProgram(2, [1.0, 2.0], maximize=True, upper=np.ones(2))
    lp.add_rows([[1.0, 0.0]], ["<="], [1.0])
    lp_res = solve_lp(lp)
    milp_res = solve_milp(MixedIntegerProgram(lp, {0, 1}))
    assert milp_res.objective_value == pytest.approx(lp_res.objective_value)


def test_infeasible():
    lp = LinearProgram(2, [1.0, 1.0], maximize=True)
    lp.add_rows([[1.0, 1.0]], [">="], [3.0])  # binaries cap the sum at 2
    res = solve_milp(MixedIntegerProgram(lp, {0, 1}))
    assert res.status is Status.INFEASIBLE


def test_mixed_continuous_binary():
    lp = LinearProgram(3, [1.0, 1.0, 0.5], maximize=True,
                       upper=np.array([1.0, 1.0, 2.0]))
    lp.add_rows([[1.0, 1.0, 1.0]], ["<="], [2.5])
    res = solve_milp(MixedIntegerProgram(lp, {0, 1}))
    assert res.objective_value == pytest.approx(2.25)
    assert res.x[2] == pytest.approx(0.5)


def test_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n_bin = int(rng.integers(1, 7))
        n_cont = int(rng.integers(0, 3))
        n = n_bin + n_cont
        c = rng.uniform(-2, 2, size=n)
        lp = LinearProgram(n, c, maximize=True, upper=np.ones(n))
        for _ in range(int(rng.integers(1, 4))):
            lp.add_rows([rng.uniform(-1, 2, size=n)],
                        ["<="], [float(rng.uniform(0.5, 2.5))])
        binaries = list(range(n_bin))
        res = solve_milp(MixedIntegerProgram(lp, set(binaries)))
        best = enumerate_oracle(lp, binaries)
        if best is None:
            assert res.status is Status.INFEASIBLE
        else:
            assert res.optimal
            assert res.objective_value == pytest.approx(best[0], abs=1e-6)
            assert tuple(round(res.x[v]) for v in binaries) == \
                tuple(int(b) for b in best[1])


def test_node_limit_raises(monkeypatch):
    # The root relaxation is fractional, (1, 0.5), so the search needs more
    # than one node; past the limit it must not return its incumbent.
    lp = LinearProgram(2, [1.0, 1.0], maximize=True)
    lp.add_rows([[2.0, 2.0]], ["<="], [3.0])
    mip = MixedIntegerProgram(lp, {0, 1})
    assert solve_milp(mip).objective_value == pytest.approx(1.0)
    monkeypatch.setattr(hetsched.milp, "NODE_LIMIT", 1)
    with pytest.raises(IterationLimitError):
        solve_milp(mip)
