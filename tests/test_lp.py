import inspect
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import hetsched.lp
import hetsched.waterfill
from hetsched.cluster import make_cluster
from hetsched.jobs import Job, JobCombination
from hetsched.lp import (FEAS_TOL, OPT_TOL, PHASE1_OPT_TOL, DimensionError,
                         IterationLimitError, LinearProgram, Relation, Status,
                         solve_lp)
from hetsched.matrices import ThroughputMatrix
from hetsched.policies import ProblemSpace, max_min_lp, parse_policy, solve_policy
import oracles
from oracles import (DenseStandardized, lp_of, random_cells, reference_cold_solve_lp,
                     reference_solve_lp, rows_of)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def test_one_variable_box():
    lp = lp_of(1, [1.0], upper=np.array([1.0]))
    res = solve_lp(lp)
    assert res.optimal
    assert res.objective_value == pytest.approx(1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_system():
    lp = lp_of(1, [1.0])
    lp.add_rows(*rows_of([[1.0], [1.0]], ["<=", ">="], [0.0, 1.0]))
    assert solve_lp(lp).status is Status.INFEASIBLE


def test_unbounded():
    lp = lp_of(1, [1.0])
    assert solve_lp(lp).status is Status.UNBOUNDED


def test_free_variable():
    lp = lp_of(1, [-1.0], lower=np.array([-np.inf]))
    lp.add_rows(*rows_of([[1.0]], [">="], [-3.0]))
    res = solve_lp(lp)
    assert res.optimal
    assert res.objective_value == pytest.approx(3.0, abs=1e-7)


def test_fixed_variable_elimination():
    lp = lp_of(2, [1.0, 1.0],
               lower=np.array([0.5, 0.0]), upper=np.array([0.5, 2.0]))
    lp.add_rows(*rows_of([[1.0, 1.0]], ["<="], [2.0]))
    res = solve_lp(lp)
    assert res.optimal
    assert res.x[0] == pytest.approx(0.5)
    assert res.objective_value == pytest.approx(2.0, abs=1e-7)


def test_dimension_mismatch():
    lp = lp_of(2, [1.0, 1.0])
    with pytest.raises(DimensionError):
        lp.add_rows(*rows_of([[1.0]], ["<="], [1.0]))
    # The solve checks the shapes of an LP's fields against each other.
    lp.rhs = np.ones(1)
    with pytest.raises(DimensionError, match="constraints, rhs, lower and upper"):
        solve_lp(lp)


def test_only_maximization_over_inequalities_and_nonshifted_bounds():
    """An LP has no equality rows, and a variable that is not fixed has
    lower bound 0 or -inf.  The solve checks both."""
    lp = lp_of(2, [1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0])
    lp.relations = ["="]
    with pytest.raises(ValueError, match="'=' is not a valid Relation"):
        solve_lp(lp)
    with pytest.raises(ValueError, match="x1 has lower bound 1"):
        solve_lp(lp_of(2, [1.0, 1.0], lower=np.array([0.0, 1.0])))
    with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
        solve_lp(lp_of(1, [1.0], lower=np.array([2.0]), upper=np.array([1.0])))
    # Fixed at 1, nonnegative and boxed, and free.
    lp = lp_of(3, [1.0, 1.0, 1.0], lower=np.array([1.0, 0.0, -np.inf]),
               upper=np.array([1.0, 2.0, 3.0]))
    assert solve_lp(lp).x.tolist() == [1.0, 2.0, 3.0]


def test_relation_given_as_text_is_refused():
    """Text such as "<=" compares equal to its `Relation` member, but
    `dump` cannot print it, so a solve refuses it, in an LP's own rows and
    in rows appended to a state alike."""
    lp = lp_of(2, [1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0])
    lp.relations = ["<="]
    with pytest.raises(ValueError, match="'<=' is not a valid Relation"):
        solve_lp(lp)
    state = hetsched.lp._Standardized(lp_of(2, [1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0]))
    assert state.phase_one()
    rows, _, rhs = rows_of([[1.0, 0.0]], [">="], [0.5])
    with pytest.raises(ValueError, match="'>=' is not a valid Relation"):
        state.append(rows, [">="], rhs)


def test_degenerate_cycling_guard():
    # Classic Beale-style degeneracy: must terminate at the optimum.
    lp = lp_of(4, [0.75, -150.0, 0.02, -6.0])
    lp.add_rows(*rows_of([[0.25, -60.0, -1.0 / 25.0, 9.0],
                          [0.5, -90.0, -1.0 / 50.0, 3.0],
                          [0.0, 0.0, 1.0, 0.0]], ["<="] * 3, [0.0, 0.0, 1.0]))
    res = solve_lp(lp)
    assert res.optimal
    assert res.objective_value == pytest.approx(0.05, abs=1e-7)


def _grid_best(c, rows, rhs, n, step=0.01):
    axes = np.arange(0.0, 1.0 + step / 2, step)
    grids = np.meshgrid(*([axes] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    ok = np.ones(len(pts), dtype=bool)
    for row, b in zip(rows, rhs):
        ok &= pts @ np.asarray(row) <= b + 1e-12
    vals = pts[ok] @ np.asarray(c)
    return vals.max() if vals.size else None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_grid_oracle_on_random_boxes(data):
    n = data.draw(st.integers(2, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    c = rng.uniform(-2, 2, size=n)
    n_rows = data.draw(st.integers(0, 3))
    rows = [rng.uniform(0, 2, size=n) for _ in range(n_rows)]
    rhs = [float(rng.uniform(0.2, 2.0)) for _ in range(n_rows)]
    lp = lp_of(n, c, upper=np.ones(n))
    for row, b in zip(rows, rhs):
        lp.add_rows(*rows_of([row], ["<="], [b]))
    res = solve_lp(lp)
    assert res.optimal
    best = _grid_best(c, rows, rhs, n)
    assert res.objective_value >= best - 1e-9
    # The grid only bounds the optimum from below (a thin feasible corner
    # can sit more than 0.01 * n above every grid point), so the upper side
    # is checked against an exact solve.
    exact = linprog(-c, A_ub=np.array(rows).reshape(n_rows, n), b_ub=rhs,
                    bounds=[(0.0, 1.0)] * n, method="highs")
    assert res.objective_value == pytest.approx(-exact.fun, abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solution_feasible_and_consistent(data):
    n = data.draw(st.integers(2, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    c = rng.uniform(-1, 1, size=n)
    lp = lp_of(n, c, upper=np.ones(n))
    for _ in range(data.draw(st.integers(1, 3))):
        lp.add_rows(*rows_of([rng.uniform(0, 1, size=n)],
                             [Relation.LE], [float(rng.uniform(0.5, 2))]))
    res = solve_lp(lp)
    assert res.optimal
    for coeffs, rel, rhs in zip(lp.constraints.dense(), lp.relations, lp.rhs):
        lhs = float(coeffs @ res.x)
        assert lhs <= rhs + 1e-7
    assert np.all(res.x >= -1e-9) and np.all(res.x <= 1 + 1e-9)
    assert res.objective_value == pytest.approx(float(c @ res.x), rel=1e-7, abs=1e-9)


def test_dump_format():
    lp = lp_of(2, [1.0, 0.0], upper=np.array([1.0, 2.0]))
    lp.add_rows(*rows_of([[1.0, 1.0]], ["<="], [1.5]))
    text = lp.dump()
    assert "maximize" in text and "<=" in text and "x0" in text


def test_iteration_limit_is_typed(monkeypatch):
    monkeypatch.setattr(hetsched.lp, "MAX_ITER_BASE", 1)
    monkeypatch.setattr(hetsched.lp, "MAX_ITER_PER_DIM", 0)
    lp = lp_of(2, [1.0, 1.0], upper=np.array([1.0, 1.0]))
    with pytest.raises(IterationLimitError, match="iteration limit"):
        solve_lp(lp)
    assert issubclass(IterationLimitError, RuntimeError)


def _random_lp(rng) -> LinearProgram:
    """A small LP mixing LE/GE rows, right-hand sides of both signs and
    default, boxed, free and fixed variables.  Half the instances use small
    integers, whose ties and degenerate vertices exercise the tie-breaking
    rules; half maximize the negated objective, which is how a cost is
    minimized."""
    n = int(rng.integers(1, 8))
    m = int(rng.integers(0, 8))
    integer = rng.random() < 0.5
    kind = rng.integers(0, 5, size=n)
    base = rng.integers(-3, 3, size=n).astype(float)
    if not integer:
        base += np.round(rng.uniform(0.0, 1.0, size=n), 2)
    width = rng.integers(1, 4, size=n).astype(float)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    # Kinds 0 and 4 are default variables.
    boxed, free, fixed = (kind == 1), (kind == 2), (kind == 3)
    upper[boxed] = width[boxed]
    lower[free] = -np.inf
    upper[free & (rng.random(n) < 0.3)] = 4.0
    lower[fixed] = upper[fixed] = base[fixed]
    if integer:
        coeffs = rng.integers(-2, 3, size=(m, n)).astype(float)
        rhs = rng.integers(-2, 6, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
    else:
        coeffs = np.round(rng.uniform(-2.0, 2.0, size=(m, n)), 3)
        rhs = np.round(rng.uniform(-2.0, 5.0, size=m), 3)
        c = np.round(rng.uniform(-3.0, 3.0, size=n), 3)
    if rng.random() >= 0.5:
        c = -c
    lp = lp_of(n, c, lower=lower, upper=upper)
    for row, rel, b in zip(coeffs, rng.choice(["<=", ">="], size=m, p=[0.6, 0.4]),
                           rhs):
        lp.add_rows(*rows_of([row], [rel], [b]))
    return lp


def _bottleneck_relaxation(rng) -> LinearProgram:
    """A B&B relaxation of the water-filling bottleneck MILP: time shares
    per (job, type) cell with infeasible cells fixed at 0, carry rows
    thr_j >= prev_j, big-M rows per binary z_j, and the validity rows.  Each
    binary is pinned to 1 (most), pinned to 0, or left relaxed in [0, 1]."""
    jobs, types = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    cells = jobs * types
    thr = np.round(rng.uniform(0.5, 4.0, size=(jobs, types)), 3)
    thr[rng.random((jobs, types)) < 0.15] = 0.0
    workers = rng.integers(1, 3, size=types).astype(float)
    share = np.minimum(1.0 / types, workers / jobs) * rng.uniform(0.3, 1.0, size=jobs)[:, None]
    prev = (thr * share).sum(axis=1)
    n = cells + jobs
    lower, upper = np.zeros(n), np.full(n, np.inf)
    upper[:cells][thr.ravel() == 0.0] = 0.0
    upper[cells:] = 1.0
    pin = rng.choice([1.0, 0.0, np.nan], size=jobs, p=[0.7, 0.15, 0.15])
    lower[cells:] = np.where(np.isnan(pin), 0.0, pin)
    upper[cells:] = np.where(np.isnan(pin), 1.0, pin)
    obj = np.zeros(n)
    obj[cells:] = 1.0
    lp = lp_of(n, obj, lower=lower, upper=upper)
    for j in range(jobs):
        row = np.zeros(n)
        row[j * types:(j + 1) * types] = thr[j]
        lp.add_rows(*rows_of([row], [">="], [prev[j]]))
        big = row.max() if row.max() > 0 else 1.0
        up = row.copy()
        up[cells + j] = -(big + 0.1 * big)
        lp.add_rows(*rows_of([up], [">="], [prev[j] - big]))
        cap = row.copy()
        cap[cells + j] = -big
        lp.add_rows(*rows_of([cap], ["<="], [prev[j]]))
    for j in range(jobs):
        row = np.zeros(n)
        row[j * types:(j + 1) * types] = 1.0
        lp.add_rows(*rows_of([row], ["<="], [1.0]))
    for t in range(types):
        row = np.zeros(n)
        row[t:cells:types] = 1.0
        lp.add_rows(*rows_of([row], ["<="], [workers[t]]))
    return lp


def _cold_solve(lp):
    """`solve_lp` without the crash: phase 1, then phase 2 from the basis
    it leaves."""
    prob = hetsched.lp._Standardized(lp)
    prob.phase_one()
    return prob.solve(lp.objective)


def _assert_same_as_reference(lp, solve=solve_lp, reference=reference_solve_lp):
    ref = reference(lp)
    res = solve(lp)
    assert res.status is ref.status
    if ref.optimal:
        assert res.x.tobytes() == ref.x.tobytes()
        assert np.float64(res.objective_value).tobytes() == \
            np.float64(ref.objective_value).tobytes()
    return ref.status


def _assert_all_fixed_verdict(lp):
    """An LP whose variables are all fixed is optimal at the fixed point
    exactly when every row holds there, which is checked directly."""
    x = lp.lower
    holds = [{Relation.LE: lhs <= rhs + 1e-9, Relation.GE: lhs >= rhs - 1e-9}[rel]
             for lhs, rel, rhs in ((float(row @ x), rel, rhs)
                                   for row, rel, rhs in zip(
                                       lp.constraints.dense(), lp.relations, lp.rhs))]
    res = solve_lp(lp)
    if all(holds):
        assert res.optimal
        assert np.array_equal(res.x, x)
        assert res.objective_value == float(lp.objective @ x)
    else:
        assert res.status is Status.INFEASIBLE
    return res.status


def test_bit_identical_to_reference_kernel():
    statuses = []
    multi_term_fixed_rows = 0
    all_fixed = 0
    for seed in range(240):
        lp = _random_lp(np.random.default_rng(seed))
        fixed = lp.lower == lp.upper
        if fixed.all():
            statuses.append(_assert_all_fixed_verdict(lp))
            all_fixed += 1
            continue
        statuses.append(_assert_same_as_reference(lp))
        multi_term_fixed_rows += any(
            np.count_nonzero(row[fixed] * lp.lower[fixed]) > 1
            for row in lp.constraints.dense())
    # The instances cover every verdict and the fixed-variable rows whose
    # right-hand side shift sums several products.
    assert {statuses.count(s) >= 10 for s in Status} == {True}
    assert multi_term_fixed_rows >= 10
    # All-fixed instances occur.
    assert all_fixed >= 5


def _lp_of(objective, coeffs, relations, rhs) -> LinearProgram:
    lp = lp_of(len(objective), objective)
    lp.add_rows(*rows_of(coeffs, relations, rhs))
    return lp


def test_artificials_left_basic_at_zero_are_driven_out():
    """Duplicated or implied >= rows at a vertex that other rows pin leave
    an artificial basic at zero after phase 1.  Each is pivoted out for the
    lowest-index nonbasic column it can take, so no row is dropped, and the
    solution is the reference kernel's, bit for bit."""
    lps = [
        # x0 + x1 >= 1 twice, under x0 + x1 <= 1.
        _lp_of([1.0, 2.0], [[1.0, 1.0]] * 3, ["<=", ">=", ">="], [1.0] * 3),
        # x0 + x1 >= 2, implied by x0 >= 1 and x1 >= 1, under x0 + x1 <= 2.
        _lp_of([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
               [">=", ">=", ">=", "<="], [1.0, 1.0, 2.0, 2.0]),
        _lp_of([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]] * 3, [">=", ">=", "<="],
               [2.0] * 3),
    ]
    for lp in lps:
        prob = hetsched.lp._Standardized(lp)
        hits = _line_hits({"driven": (hetsched.lp._Standardized.phase_one,
                                      "basis[i] = entering.argmax()")},
                          prob.phase_one)
        assert hits["driven"] >= 1
        assert prob.feasible and len(prob.basis) == len(prob.b)
        assert _assert_same_as_reference(lp) is Status.OPTIMAL


def test_bit_identical_on_bottleneck_relaxations():
    statuses = [_assert_same_as_reference(
        _bottleneck_relaxation(np.random.default_rng(1000 + seed)))
        for seed in range(120)]
    assert statuses.count(Status.OPTIMAL) >= 60


def _max_min_lps(rng, draw=random_cells):
    """The LAS and min-makespan LPs that `ProblemSpace` compiles for a
    matrix `draw` makes (a `random_cells` one by default): the max-min
    epigraph with zero floors, scaled by worker count over weight and equal
    share, then by a horizon over each job's remaining steps."""
    cluster, rows, cells, jobs = draw(rng)
    jobs = [Job(id=j.id, scale_factor=j.scale_factor,
                weight=float(rng.choice([1.0, 2.0])),
                num_steps=int(rng.integers(1, 10_000))) for j in jobs]
    space = ProblemSpace(jobs, ThroughputMatrix.from_cells(cluster, rows, cells))
    las = max_min_lp(space, {j.id: j.scale_factor / (j.weight * space.equal_norm[j.id])
                             for j in jobs})
    H = max(j.remaining_steps / space.equal_norm[j.id] for j in jobs)
    makespan = max_min_lp(space, {j.id: H / j.remaining_steps for j in jobs})
    return las, makespan


def _many_jobs(rng):
    """Cluster, rows, cells and jobs as `random_cells` gives them, but 24 to
    40 jobs without pairs on 4 to 36 workers of each of three types, so the
    max-min LPs have 50 to 90 rows, as a busy cluster's do."""
    cluster = make_cluster({name: int(rng.integers(4, 37))
                            for name in ("V100", "P100", "K80")})
    C = len(cluster.configurations)
    jobs = [Job(id=i, scale_factor=int(rng.choice([1, 2, 4], p=[0.7, 0.25, 0.05])))
            for i in range(int(rng.integers(24, 41)))]
    cells = []
    for _ in jobs:
        row = [None if rng.random() < 0.2 else
               (0.0 if rng.random() < 0.1 else round(float(rng.uniform(0.1, 5.0)), 3),)
               for _ in range(C)]
        row[int(rng.integers(C))] = (round(float(rng.uniform(0.1, 5.0)), 3),)
        cells.append(row)
    return cluster, [JobCombination.of(j.id) for j in jobs], cells, jobs


def _line_hits(lines: dict, run) -> dict:
    """How many times each source line ran during `run()`: `lines` maps a
    name to (function, text of the one line of it to count)."""
    targets = {}
    for name, (func, text) in lines.items():
        source, start = inspect.getsourcelines(func)
        [k] = [k for k, line in enumerate(source) if text in line]
        targets[func.__code__, start + k] = name
    codes = {code for code, _ in targets}
    hits = dict.fromkeys(lines, 0)

    def local(frame, event, arg):
        if event == "line" and (frame.f_code, frame.f_lineno) in targets:
            hits[targets[frame.f_code, frame.f_lineno]] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits


def test_bit_identical_on_max_min_lps():
    for seed in range(150):
        for lp in _max_min_lps(np.random.default_rng(2000 + seed)):
            assert _assert_same_as_reference(lp) is Status.OPTIMAL


def test_sparse_pivots_bit_identical_on_many_job_max_min_lps():
    """LAS and min-makespan LPs over 24 to 40 jobs have enough rows for
    `_pivot` to update only the basis-inverse columns its pivot row
    touches, and their phase 2 has a single nonzero basic cost (the level)
    on most pivots.  Both shortcuts return the reference kernel's bytes,
    from the crash basis and from the slack basis alike; the slack basis
    makes the most pivots."""
    lps = [lp for seed in range(8)
           for lp in _max_min_lps(np.random.default_rng(3000 + seed), _many_jobs)]
    rows = [len(hetsched.lp._Standardized(lp).b) for lp in lps]
    assert min(rows) >= hetsched.lp.SPARSE_PIVOT_ROWS
    # The column update returns early, once per pivot it makes.
    hits = _line_hits({"column": (hetsched.lp._pivot, "return"),
                       "dense": (hetsched.lp._pivot, "Binv -= np.multiply"),
                       "one_cost": (hetsched.lp._duals, "return Binv[k] * cb[k]")},
                      lambda: [_cold_solve(lp) for lp in lps])
    assert hits["column"] >= 400 and hits["one_cost"] >= 400
    assert hits["dense"] >= 1
    for lp in lps:
        assert _assert_same_as_reference(lp) is Status.OPTIMAL
        assert _assert_same_as_reference(lp, _cold_solve,
                                         reference_cold_solve_lp) is Status.OPTIMAL


def test_solutions_hold_no_negative_zero(monkeypatch):
    """Every zero of an `x` that `solve_lp` or `_solve_each` returns, and
    of the standardized `x` the simplex returns, is +0.0.  That is what lets
    the sparse pivot update differ from the dense one in the sign of a
    zero: the simplex writes +0.0 over every entry below ZERO_TOL, tiny
    negative basic values included."""
    simplex_xs = []
    simplex = hetsched.lp._simplex

    def spy(*args):
        status, x, basis = simplex(*args)
        simplex_xs.append(x)
        return status, x, basis

    monkeypatch.setattr(hetsched.lp, "_simplex", spy)
    lps = (_equivalence_set()
           + [lp for seed in range(40)
              for lp in _max_min_lps(np.random.default_rng(2000 + seed))]
           + [lp for seed in range(4)
              for lp in _max_min_lps(np.random.default_rng(3000 + seed), _many_jobs)])
    zeros = 0
    for k, lp in enumerate(lps):
        objectives = [lp.objective] + _random_objectives(
            np.random.default_rng(10_000 + k), lp.num_vars)
        for res in [solve_lp(lp)] + _solve_each(lp, objectives):
            if res.x is not None:
                assert not np.signbit(res.x[res.x == 0]).any(), k
                zeros += int(np.count_nonzero(res.x == 0))
    xs = [x for x in simplex_xs if x is not None]
    assert len(xs) >= 1000 and zeros >= 1000
    for x in xs:
        assert not np.signbit(x[x == 0]).any()


def test_max_min_lps_start_from_the_slack_basis(monkeypatch):
    """Every row of a zero-floor max-min LP holds at the slack basis, so
    `phase_one` runs no phase 1 and leaves the identity as the inverse,
    and `solve_lp`, which starts from the crash basis, never prices at
    phase 1's tolerance either."""
    tols = []
    simplex = hetsched.lp._simplex

    def spy(A, b, c, basis, Binv, xb, opt_tol=hetsched.lp.OPT_TOL):
        tols.append(opt_tol)
        return simplex(A, b, c, basis, Binv, xb, opt_tol)

    monkeypatch.setattr(hetsched.lp, "_simplex", spy)
    for seed in range(40):
        for lp in _max_min_lps(np.random.default_rng(2000 + seed)):
            prob = hetsched.lp._Standardized(lp)
            assert prob.phase_one()
            assert np.array_equal(prob.Binv, np.eye(len(prob.basis)))
            assert solve_lp(lp).optimal
    assert tols and PHASE1_OPT_TOL not in tols


def _random_objectives(rng, n):
    """2-4 objectives for an n-variable LP: small integers (ties), rounded
    reals, or all zeros."""
    objectives = []
    for _ in range(int(rng.integers(2, 5))):
        kind = rng.integers(0, 5)
        if kind == 0:
            objectives.append(np.zeros(n))
        elif kind <= 2:
            objectives.append(rng.integers(-3, 4, size=n).astype(float))
        else:
            objectives.append(np.round(rng.uniform(-3.0, 3.0, size=n), 3))
    return objectives


def _solve_each(lp, objectives):
    """One phase 1, then `solve` once per objective, each from the last
    one's optimum, as `waterfill.max_gain` solves its gain LPs."""
    prob = hetsched.lp._Standardized(lp)
    prob.phase_one()
    return [prob.solve(objective) for objective in objectives]


def _solve_alone(lp, objective):
    return solve_lp(replace(lp, objective=np.asarray(objective, dtype=float)))


def test_solve_checks_objective_shape():
    lp = lp_of(2, np.zeros(2))
    with pytest.raises(DimensionError):
        _solve_each(lp, [np.ones(2), np.ones(3)])


def _equivalence_set():
    """The LPs every kernel is checked on: 240 random LPs and 120
    bottleneck-MILP relaxations."""
    return ([_random_lp(np.random.default_rng(seed)) for seed in range(240)]
            + [_bottleneck_relaxation(np.random.default_rng(1000 + seed))
               for seed in range(120)])


def _with_rows(lp, coeffs, relations, rhs) -> LinearProgram:
    return lp_of(lp.num_vars, lp.objective, coeffs, relations, rhs, lp.lower, lp.upper)


def _assert_warm_verdict(ds, feasible, lp):
    """`feasible` (a warm verdict of the rows `ds`) is solve_lp's on `lp`,
    and phase 2 from the basis found gives solve_lp's status and optimum
    within OPT_TOL."""
    ref = solve_lp(lp)
    assert feasible == (ref.status is not Status.INFEASIBLE)
    if feasible:
        res = ds.solve(lp.objective)
        assert res.status is ref.status
        if ref.optimal:
            assert abs(res.objective_value - ref.objective_value) <= OPT_TOL
    return feasible


def _warm_verdicts():
    """The warm verdicts on the equivalence set's LPs, each checked by
    `_assert_warm_verdict`.  An LP's rows start from phase 1 at right-hand
    sides that a point of its box meets with equality, so there is always a
    feasible basis to append to; phase 2 under the LP's own objective moves
    it to an optimum or the last basis before a ray.  Rows are appended
    there, which runs the dual simplex."""
    verdicts = []
    for k, lp in enumerate(_equivalence_set()):
        rng = np.random.default_rng(5000 + k)
        x0 = np.clip(np.random.default_rng(7000 + k).uniform(-2.0, 4.0, lp.num_vars),
                     lp.lower, lp.upper)
        at_x0 = [float(row @ x0) for row in lp.constraints.dense()]
        ds = hetsched.lp._Standardized(replace(lp, rhs=np.array(at_x0)))
        assert ds.phase_one()
        ds.solve(lp.objective)
        extra = [(rng.integers(-2, 3, size=lp.num_vars).astype(float),
                  Relation(rng.choice(["<=", ">="])), float(rng.integers(-2, 6)))
                 for _ in range(int(rng.integers(1, 4)))]
        coeffs, rels, extra_rhs = map(list, zip(*extra))
        screen = ds.append(*rows_of(coeffs, rels, extra_rhs))
        verdicts.append(_assert_warm_verdict(
            screen, screen.feasible,
            _with_rows(lp, np.vstack([lp.constraints.dense(), coeffs]),
                       lp.relations + rels, at_x0 + extra_rhs)))
    assert len(verdicts) == 360
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30
    return verdicts


def test_dual_simplex_verdicts_match_solve_lp():
    """Run when rows are appended to a phase-2 basis, the zero-cost dual
    simplex decides feasibility as solve_lp does."""
    _warm_verdicts()


def test_warm_verdicts_match_solve_lp_when_refactorizing(monkeypatch):
    """With the basis inverse refactorized every other pivot, both simplex
    kernels still reach solve_lp's verdicts on the same appended rows."""
    callers = []
    basis_inverse = hetsched.lp._basis_inverse

    def spy(A, basis):
        callers.append(sys._getframe(1).f_code.co_name)
        return basis_inverse(A, basis)

    monkeypatch.setattr(hetsched.lp, "REFACTOR_EVERY", 2)
    monkeypatch.setattr(hetsched.lp, "_basis_inverse", spy)
    _warm_verdicts()
    assert callers.count("_dual_simplex") >= 100
    assert callers.count("_simplex") >= 100


@pytest.mark.parametrize("refactor_every", [hetsched.lp.REFACTOR_EVERY, 2])
def test_solve_leaves_its_optimal_basis(monkeypatch, refactor_every):
    """`solve` after `phase_one` returns what `solve_lp` returns and leaves
    the state at the basis its phase 2 ends on, with that basis's inverse and basic values,
    also when the inverse is refactorized along the way.  Solving again
    from there makes no pivot, and so does appending a row the optimum
    satisfies."""
    monkeypatch.setattr(hetsched.lp, "REFACTOR_EVERY", refactor_every)
    kept = 0
    for k, lp in enumerate(_equivalence_set()):
        objective = _random_objectives(np.random.default_rng(10_000 + k),
                                       lp.num_vars)[-1]
        ds = hetsched.lp._Standardized(lp)
        ds.phase_one()
        ref = _solve_alone(lp, objective)
        res = ds.solve(objective)
        assert res.status is ref.status and res.objective_value == ref.objective_value
        if not res.optimal or not len(ds.basis):
            continue
        kept += 1
        assert res.x.tobytes() == ref.x.tobytes()
        assert np.allclose(ds.Binv @ ds.T[:, ds.basis], np.eye(len(ds.T)))
        assert np.allclose(ds.xb, ds.Binv @ ds.b)
        basis = ds.basis.copy()
        assert ds.solve(objective).x.tobytes() == res.x.tobytes()
        assert np.array_equal(ds.basis, basis)
        # x_0 >= its optimal value less a margin holds at the optimum.
        row = np.eye(1, lp.num_vars)
        grown = ds.append(*rows_of(row, [Relation.GE], [res.x[0] - 1e-6]))
        assert grown.feasible
        assert np.array_equal(grown.basis[:len(basis)], basis)
    assert kept >= 50


def test_appended_rows_standardize_as_built_cold():
    """Rows appended to a `_Standardized` take the path the LP's own rows
    take, so their standardized coefficients and right-hand sides are bit
    for bit those of the same rows in the LP built cold with them, on LPs
    with fixed variables."""
    checked = moved = 0
    for seed in range(240):
        rng = np.random.default_rng(seed)
        lp = _random_lp(rng)
        ds = hetsched.lp._Standardized(lp)
        if not ds.phase_one():
            continue
        k = int(rng.integers(1, 4))
        coeffs = np.round(rng.uniform(-2.0, 2.0, size=(k, lp.num_vars)), 3)
        rels = [Relation.LE if rng.random() < 0.6 else Relation.GE for _ in range(k)]
        rhs = np.round(rng.uniform(-2.0, 5.0, size=k), 3)
        screen = ds.append(*rows_of(coeffs, rels, rhs))
        cold = hetsched.lp._Standardized(_with_rows(
            lp, np.vstack([lp.constraints.dense(), coeffs]), lp.relations + rels,
            np.concatenate([lp.rhs, rhs])))
        # The cold LP's rows in the standardized columns, before any flip.
        A = np.zeros((len(cold.b), cold.n))
        cold._scatter(A, cold.entries, 0, None)
        m, rows = len(ds.T), slice(len(lp.rhs), len(lp.rhs) + k)
        assert screen.T[m:, :cold.n].tobytes() == A[rows].tobytes()
        assert screen.b[m:].tobytes() == cold.b[rows].tobytes()
        checked += 1
        moved += bool(np.count_nonzero(ds.fixed_vals)) and lp.num_vars > 1
    assert checked >= 100 and moved >= 50


def state_bytes(state) -> tuple:
    """What phase 1 or an append leaves: the verdict and, when feasible, the
    tableau, right-hand side, basis, basis inverse and basic values, byte
    for byte."""
    if not state.feasible:
        return (False,)
    return (True,) + tuple(getattr(state, name).tobytes()
                           for name in ("T", "b", "basis", "Binv", "xb"))


def test_tableaus_match_dense_standardization():
    """Scattering sparse rows into the tableau leaves the bytes of the dense
    standardization (`oracles.DenseStandardized`), zero signs included,
    after phase 1 and after an appended block: on LPs with fixed variables
    whose values move several products of a row, free variables with and
    without upper bounds, rows of both signs, and -0.0 coefficients."""
    moved = mirrored = bounded = appended = 0
    for k, lp in enumerate(_equivalence_set()):
        got, want = hetsched.lp._Standardized(lp), DenseStandardized(lp)
        got.phase_one()
        want.phase_one()
        assert state_bytes(got) == state_bytes(want)
        moved += got.shifts
        mirrored += bool(got.neg_cols.size)
        bounded += len(got.b) > len(lp.rhs)
        if not got.feasible:
            continue
        assert got.solve(lp.objective).status is want.solve(lp.objective).status
        rng = np.random.default_rng(9000 + k)
        coeffs = rng.integers(-2, 3, size=(int(rng.integers(1, 4)), lp.num_vars))
        coeffs = np.where(coeffs == 0, rng.choice([0.0, -0.0], size=coeffs.shape),
                          coeffs)
        rels = [Relation(rng.choice(["<=", ">="])) for _ in coeffs]
        rhs = rng.integers(-2, 6, size=len(coeffs)).astype(float)
        block = rows_of(coeffs, rels, rhs)
        got, want = got.append(*block), want.append(*block)
        assert state_bytes(got) == state_bytes(want)
        appended += 1
    assert min(moved, mirrored, bounded, appended) >= 30


def test_dual_simplex_iteration_limit_is_typed(monkeypatch):
    lp = lp_of(2, np.zeros(2))
    lp.add_rows(*rows_of([[1.0, 1.0]], [Relation.GE], [1.0]))
    prob = hetsched.lp._Standardized(lp)
    assert prob.phase_one()
    monkeypatch.setattr(hetsched.lp, "MAX_ITER_BASE", 0)
    monkeypatch.setattr(hetsched.lp, "MAX_ITER_PER_DIM", 0)
    with pytest.raises(IterationLimitError, match="dual simplex iteration limit"):
        prob.append(*rows_of(np.ones((1, 2)), [Relation.GE], [2.0]))


def test_each_lp_is_checked_once(monkeypatch):
    """A policy's LP is plain data that the `_Standardized` built for it
    checks once: `_fixed` runs once per build, and nowhere else, on LAS,
    min-makespan, the cost policies, finish-time fairness, las+wf and a
    water-filling run whose bottlenecks the MILP decides.  For that run no
    job is certified and a gain of zero is too close to call, so every
    iteration's bottleneck check reaches the MILP."""
    calls = {"fixed": 0, "built": 0, "milp": 0}
    fixed, init = hetsched.lp._fixed, hetsched.lp._Standardized.__init__
    milp = hetsched.waterfill._milp_bottlenecks

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(hetsched.lp, "_fixed", counted("fixed", fixed))
    monkeypatch.setattr(hetsched.lp._Standardized, "__init__", counted("built", init))
    monkeypatch.setattr(hetsched.waterfill, "_milp_bottlenecks", counted("milp", milp))
    cluster = make_cluster({"V100": 1, "K80": 1}, costs={"V100": 3.0, "K80": 0.5})
    T = ThroughputMatrix.from_cells(cluster, [JobCombination.of(i) for i in range(3)],
                                    [[(4.0,), (1.0,)], [(3.0,), (1.0,)],
                                     [(2.0,), (1.0,)]])
    jobs = [Job(id=0, num_steps=1000, weight=2.0),
            Job(id=1, num_steps=500, slo_seconds=5000.0, elapsed_time=30.0),
            Job(id=2, num_steps=800, elapsed_time=10.0)]
    runs = [lambda policy=policy: solve_policy(parse_policy(policy), jobs, cluster, T)
            for policy in ("las", "makespan", "cost", "cost_slo", "ftf", "las+wf")]

    def milp_fill():
        with monkeypatch.context() as m:
            m.setattr(hetsched.waterfill, "CERTIFY_BOUND", np.inf)
            m.setattr(hetsched.waterfill, "VERIFY_FRACTION", -1.0)
            hetsched.waterfill.single_level_waterfill(ProblemSpace(jobs, T))
        assert calls["milp"] >= 1

    for run in runs + [milp_fill]:
        calls.update(fixed=0, built=0)
        run()
        assert calls["fixed"] == calls["built"] > 0


def _crashed_point(prob):
    """The LP variables' values at the basic solution a state holds."""
    u = np.zeros(prob.T.shape[1])
    u[prob.basis] = prob.xb
    return prob.recover(u[:prob.n])


def _assert_cold_path_solves(prob, lp, dumped):
    """After a failed crash the state still takes `phase_one` and phase 2,
    which give a fresh state's cold path bit for bit, and the LP that the
    crash printed is not printed again."""
    assert len(dumped) == 1
    prob.phase_one()
    res = prob.solve(lp.objective)
    assert len(dumped) == 1
    ref = _cold_solve(lp)
    assert res.status is ref.status
    assert not res.optimal or res.x.tobytes() == ref.x.tobytes()


def test_start_at_a_vertex_reproduces_it(monkeypatch):
    """A basis crashed at a vertex of a max-min LP (its optimum under the
    LP's own or a random objective) holds its own inverse, its basic
    solution is the vertex within FEAS_TOL, and phase 2 from it reaches
    `solve_lp`'s optimum within OPT_TOL.  The LP prints once, before the
    crash."""
    dumped = []
    monkeypatch.setattr(hetsched.lp, "debug_sink", dumped.append)
    crashed = moved = 0
    for seed in range(40):
        rng = np.random.default_rng(12_000 + seed)
        for lp in _max_min_lps(rng):
            ref = solve_lp(lp)
            for objective in [lp.objective] + _random_objectives(rng, lp.num_vars):
                vertex = _solve_alone(lp, objective)
                if not vertex.optimal:
                    continue
                dumped.clear()
                prob = hetsched.lp._Standardized(lp)
                assert prob.start_at(vertex.x)
                m = len(prob.b)
                assert np.abs(prob.Binv @ prob.T[:, prob.basis] - np.eye(m)).max() <= 1e-9
                assert np.abs(_crashed_point(prob) - vertex.x).max() <= FEAS_TOL
                res = prob.solve(lp.objective)
                assert res.optimal
                assert abs(res.objective_value - ref.objective_value) <= OPT_TOL
                assert len(dumped) == 1
                crashed += 1
                moved += bool(np.any(vertex.x != ref.x))
    assert crashed >= 150 and moved >= 50


def test_start_at_refuses_points_that_are_not_vertices(monkeypatch):
    """The crash returns False, and the cold path still solves, at points
    that are not vertices of the rows: the midpoint of two distinct
    vertices, a vertex that breaks a row it leaves slack (the row's
    right-hand side moved past it), a vertex with a cell below its zero
    lower bound, and one off a pinned cell's value."""
    dumped = []
    monkeypatch.setattr(hetsched.lp, "debug_sink", dumped.append)
    refused = dict.fromkeys(("midpoint", "broken row", "negative", "pinned"), 0)
    for seed in range(40):
        rng = np.random.default_rng(13_000 + seed)
        for lp in _max_min_lps(rng):
            a = solve_lp(lp).x
            cases = []
            for objective in _random_objectives(rng, lp.num_vars):
                b = _solve_alone(lp, objective)
                if b.optimal and np.abs(a - b.x).max() > 1e-3:
                    cases.append(("midpoint", lp, (a + b.x) / 2))
                    break
            rows = lp.constraints.dense()
            slack = np.where([rel is Relation.GE for rel in lp.relations],
                             rows @ a - lp.rhs, lp.rhs - rows @ a)
            i = int(slack.argmax())
            if slack[i] > 1e-3:
                rhs = lp.rhs.copy()
                rhs[i] += 2 * slack[i] if lp.relations[i] is Relation.GE else -2 * slack[i]
                cases.append(("broken row", replace(lp, rhs=rhs), a))
            nonnegative = (lp.lower == 0) & (lp.upper > 0)
            if nonnegative.any():
                x = a.copy()
                x[nonnegative.argmax()] = -0.5
                cases.append(("negative", lp, x))
            pinned = (lp.lower == lp.upper).nonzero()[0]
            if pinned.size:
                x = a.copy()
                x[pinned[0]] = 0.5
                cases.append(("pinned", lp, x))
            for name, case_lp, x in cases:
                dumped.clear()
                prob = hetsched.lp._Standardized(case_lp)
                assert not prob.start_at(x), name
                _assert_cold_path_solves(prob, case_lp, dumped)
                refused[name] += 1
    assert min(refused.values()) >= 40, refused


def _alike(rng):
    """Cluster, rows, cells and jobs as `random_cells` gives them, without
    pair rows and with one to three copies of some jobs (the same rates,
    feasible cells, scale factor and weight), so LAS solves over classes."""
    cluster, rows, cells, jobs = random_cells(rng)
    singles = [k for k, row in enumerate(rows) if not row.is_pair]
    rows, cells = [rows[k] for k in singles], [cells[k] for k in singles]
    by_id = {j.id: j for j in jobs}
    for row, row_cells in list(zip(rows, cells)):
        for _ in range(int(rng.integers(0, 4))):
            job = Job(id=10 + len(jobs), scale_factor=by_id[row.members[0]].scale_factor)
            jobs.append(job)
            rows.append(JobCombination.of(job.id))
            cells.append(row_cells)
    return cluster, rows, cells, jobs


def _class_lp(rng):
    """The LAS LP over the classes of an `_alike` draw, as
    `policies.max_min_fairness` builds it."""
    cluster, rows, cells, jobs = _alike(rng)
    space = ProblemSpace(jobs, ThroughputMatrix.from_cells(cluster, rows, cells))
    classes = space.classes()
    return max_min_lp(classes, {j.id: j.scale_factor / (j.weight * space.equal_norm[j.id])
                                for j in classes.jobs}), classes is not space


def _counting_pivots(monkeypatch):
    """Count `_pivot` calls in the returned one-entry list."""
    pivots = [0]
    pivot = hetsched.lp._pivot

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    monkeypatch.setattr(hetsched.lp, "_pivot", counted)
    return pivots


def _crash_and_cold(lp, pivots):
    """The crashed state, its phase-2 result, and the cold path's result
    (phase 1, then phase 2), with the pivots each phase 2 made."""
    prob = hetsched.lp._Standardized(lp)
    assert prob.crash(lp.objective)
    crashed = (prob.Binv.copy(), prob.T[:, prob.basis])
    pivots[0] = 0
    res = prob.solve(lp.objective)
    crash_pivots = pivots[0]
    cold = hetsched.lp._Standardized(lp)
    assert cold.phase_one()
    pivots[0] = 0
    ref = cold.solve(lp.objective)
    return crashed, res, crash_pivots, ref, pivots[0]


def test_crash_basis_is_inverted_exactly_and_reaches_the_cold_optimum(monkeypatch):
    """On LAS and min-makespan LPs over random matrices (pair rows,
    placement-aware clusters) and on LAS LPs over classes of jobs alike,
    the crash basis's written-down inverse times the basis is the identity
    within 1e-12, and phase 2 from it reaches the cold path's optimum
    within OPT_TOL in fewer pivots in all."""
    pivots = _counting_pivots(monkeypatch)
    lps, classes = [], 0
    for seed in range(100):
        lps += _max_min_lps(np.random.default_rng(14_000 + seed))
        lp, over_classes = _class_lp(np.random.default_rng(15_000 + seed))
        lps.append(lp)
        classes += over_classes
    crash_total = cold_total = 0
    for lp in lps:
        (Binv, B), res, crash_pivots, ref, cold_pivots = _crash_and_cold(lp, pivots)
        assert np.abs(Binv @ B - np.eye(len(B))).max() <= 1e-12
        assert res.optimal and ref.optimal
        assert abs(res.objective_value - ref.objective_value) <= OPT_TOL
        crash_total += crash_pivots
        cold_total += cold_pivots
    assert len(lps) >= 200 and classes >= 50
    # 619 against 1,603 phase-2 pivots when written.
    assert crash_total < cold_total / 2, (crash_total, cold_total)


def test_crash_inverse_is_the_dense_oracles_bit_for_bit():
    """On LAS and min-makespan LPs over 24 to 40 jobs, whose capacity rows
    sum many terms into the inverse's first level column, the crash picks
    the basis of the reference kernel's dense crash (`oracles`'
    `_Standardized._crash`, entry by entry over the same tableau) and
    writes down its inverse's bits."""
    for seed in range(8):
        for lp in _max_min_lps(np.random.default_rng(3000 + seed), _many_jobs):
            prob = hetsched.lp._Standardized(lp)
            assert prob.crash(lp.objective)
            m, n = prob.T.shape
            basis, Binv = oracles._Standardized(lp)._crash(
                prob.T, prob.b, list(range(n - m, n)))
            assert basis == prob.basis.tolist()
            assert np.array_equal(Binv, prob.Binv)


def test_crash_declines_and_leaves_the_state(monkeypatch):
    """The crash declines, changing nothing the state held but the LP it
    printed, on a max-min LP with positive floors (the finish-time
    fairness shape), one whose objective has several nonzero coefficients
    and one with a >= row that needs an artificial; the cold path then
    solves each, and the LP prints once."""
    dumped = []
    monkeypatch.setattr(hetsched.lp, "debug_sink", dumped.append)
    declined = dict.fromkeys(("floors", "coefficients", "artificial"), 0)
    for seed in range(20):
        rng = np.random.default_rng(16_000 + seed)
        cluster, rows, cells, jobs = random_cells(rng)
        space = ProblemSpace(jobs, ThroughputMatrix.from_cells(cluster, rows, cells))
        scales = {j.id: 1.0 / space.equal_norm[j.id] for j in jobs}
        lp = max_min_lp(space, scales)
        objective = lp.objective.copy()
        objective[space.cell[space.rate > 0][0]] = 0.5
        level = solve_lp(lp).objective_value
        floored = replace(lp)
        floored.add_rows(*rows_of([np.eye(lp.num_vars)[-1]], [">="], [level / 2]))
        cases = [("floors", max_min_lp(space, scales, {j.id: 0.1 for j in jobs})),
                 ("coefficients", replace(lp, objective=objective)),
                 ("artificial", floored)]
        for name, case in cases:
            dumped.clear()
            prob = hetsched.lp._Standardized(case)
            before = dict(vars(prob))
            assert not prob.crash(case.objective), name
            after = dict(vars(prob))
            assert after.pop("shown") is case.objective and before.pop("shown") is None
            assert after.keys() == before.keys()
            assert all(after[key] is before[key] for key in before)
            _assert_cold_path_solves(prob, case, dumped)
            declined[name] += 1
    assert min(declined.values()) == 20, declined


@pytest.mark.parametrize("name", ["las-reset", "makespan-static"])
def test_crash_reaches_the_cold_optimum_on_every_lp_of_a_benchmark_pass(
        name, monkeypatch):
    """Every LP that one seed-1 pass of a benchmark workload solves through
    `policies.solve_lp` takes the crash, and phase 2 from it reaches the
    cold path's optimum within OPT_TOL in under a quarter of the pivots in
    all.  When this was written, las-reset's 337 LPs made 1,144 phase-2
    pivots from the crash against 9,209 from the slack basis, and
    makespan-static's 139 LPs 139 against 1,858."""
    lps = []

    def solve(lp):
        lps.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(hetsched.policies, "solve_lp", solve)
    for sim in workloads.set_up(workloads.WORKLOADS[name], 1)[3]:
        sim.run()
    pivots = _counting_pivots(monkeypatch)
    crash_total = cold_total = 0
    for lp in lps:
        _, res, crash_pivots, ref, cold_pivots = _crash_and_cold(lp, pivots)
        assert res.optimal and ref.optimal
        assert abs(res.objective_value - ref.objective_value) <= OPT_TOL
        crash_total += crash_pivots
        cold_total += cold_pivots
    assert len(lps) > 100 and 4 * crash_total < cold_total, (crash_total, cold_total)
