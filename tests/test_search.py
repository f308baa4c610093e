"""`search.bisect`, and the Charnes-Cooper ratio maximization the cost
policies once used, which `tests/oracles.py` keeps as the reference they are
compared against."""

import numpy as np
import pytest

import hetsched.search
from hetsched.lp import Relation
from hetsched.search import DEFAULT_REL_TOL, BracketError, bisect
from oracles import RatioUnboundedError, lp_of, reference_maximize_ratio


def test_step_predicate():
    assert DEFAULT_REL_TOL == 1e-3
    value, witness = bisect(lambda v: (v >= 100, v), 1, 1000)
    assert value == pytest.approx(100, abs=0.15)
    assert witness >= 100


def test_feasible_lower_bracket_returns_lo():
    value, _ = bisect(lambda v: (v >= 5, v), 10, 100)
    assert value == 10


def test_bad_bracket():
    with pytest.raises(BracketError):
        bisect(lambda v: (v >= 1e9, v), 1, 10)


def test_bracket_widening_invariance(monkeypatch):
    monkeypatch.setattr(hetsched.search, "DEFAULT_REL_TOL", 1e-4)
    v1, _ = bisect(lambda v: (v >= 77, v), 50, 100)
    v2, _ = bisect(lambda v: (v >= 77, v), 1, 10000)
    assert v1 == pytest.approx(v2, rel=2e-3)


def test_ratio_constant_denominator_reduces_to_lp():
    # x1 is fixed at 1, so the denominator is the constant 1.
    res = reference_maximize_ratio(
        lp_of(2, [1.0, 0.0], lower=np.array([0.0, 1.0]),
              upper=np.array([1.0, 1.0])), [0.0, 1.0])
    assert res.x[0] == pytest.approx(1.0)
    assert res.objective_value == pytest.approx(1.0)


def test_ratio_two_type_cost_example():
    # Throughputs (4, 1), costs (3.0, 0.5) $/hr, one worker each: everything
    # on the cheap slow type wins at 2.0 steps per dollar.
    res = reference_maximize_ratio(
        lp_of(2, [4.0, 1.0], constraints=[[1.0, 1.0]],
              relations=[Relation.LE], rhs=[1.0],
              upper=np.array([1.0, 1.0])), [3.0, 0.5])
    assert res.objective_value == pytest.approx(2.0, abs=1e-6)
    assert res.x[1] == pytest.approx(1.0, abs=1e-6)


def test_ratio_zero_denominator_errors():
    with pytest.raises(RatioUnboundedError):
        reference_maximize_ratio(lp_of(1, [1.0], upper=np.array([1.0])),
                                 [0.0])


def test_ratio_matches_grid_search():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.uniform(0.5, 4.0, size=2)
        d = rng.uniform(0.2, 3.0, size=2)
        # A third variable fixed at 1 carries the denominator's constant 0.1.
        res = reference_maximize_ratio(
            lp_of(3, np.append(c, 0.0), constraints=[[1.0, 1.0, 0.0]],
                  relations=[Relation.LE], rhs=[1.0], lower=np.array([0.0, 0.0, 1.0]),
                  upper=np.ones(3)),
            np.append(d, 0.1))
        xs = np.linspace(0, 1, 101)
        best = 0.0
        for a in xs:
            for b in xs:
                if a + b <= 1.0 + 1e-12:
                    best = max(best, (c[0] * a + c[1] * b) / (d[0] * a + d[1] * b + 0.1))
        assert res.objective_value >= best - 1e-9
        assert res.objective_value <= best + 0.01
