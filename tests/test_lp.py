import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import hetsched.lp
from hetsched.cluster import make_cluster
from hetsched.jobs import Job, JobCombination
from hetsched.lp import (OPT_TOL, PHASE1_OPT_TOL, DimensionError,
                         IterationLimitError, LinearProgram, Relation, Status,
                         solve_lp, solve_lp_each)
from hetsched.matrices import ThroughputMatrix
from hetsched.policies import ProblemSpace, max_min_lp
from oracles import random_cells, reference_solve_lp


def test_one_variable_box():
    lp = LinearProgram(1, [1.0], maximize=True, upper=np.array([1.0]))
    res = solve_lp(lp)
    assert res.optimal
    assert res.objective_value == pytest.approx(1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_system():
    lp = LinearProgram(1, [1.0], maximize=True)
    lp.add_rows([[1.0], [1.0]], ["<=", ">="], [0.0, 1.0])
    assert solve_lp(lp).status is Status.INFEASIBLE


def test_unbounded():
    lp = LinearProgram(1, [1.0], maximize=True)
    assert solve_lp(lp).status is Status.UNBOUNDED


def test_minimization_and_equality():
    lp = LinearProgram(2, [1.0, 2.0], maximize=False)
    lp.add_rows([[1.0, 1.0]], ["="], [4.0])
    res = solve_lp(lp)
    assert res.optimal
    assert res.objective_value == pytest.approx(4.0, abs=1e-7)
    assert res.x[0] == pytest.approx(4.0, abs=1e-7)


def test_free_variable():
    lp = LinearProgram(1, [1.0], maximize=False,
                       lower=np.array([-np.inf]))
    lp.add_rows([[1.0]], [">="], [-3.0])
    res = solve_lp(lp)
    assert res.optimal
    assert res.objective_value == pytest.approx(-3.0, abs=1e-7)


def test_fixed_variable_elimination():
    lp = LinearProgram(2, [1.0, 1.0], maximize=True,
                       lower=np.array([0.5, 0.0]), upper=np.array([0.5, 2.0]))
    lp.add_rows([[1.0, 1.0]], ["<="], [2.0])
    res = solve_lp(lp)
    assert res.optimal
    assert res.x[0] == pytest.approx(0.5)
    assert res.objective_value == pytest.approx(2.0, abs=1e-7)


def test_all_fixed_with_equality_row():
    # Phase 1 drops the equality row, which leaves phase 2 nothing to price.
    lp = LinearProgram(1, [1.0], lower=np.array([1.0]), upper=np.array([1.0]))
    lp.add_rows([[1.0]], ["="], [1.0])
    res = solve_lp(lp)
    assert res.optimal and res.x[0] == 1.0 and res.objective_value == 1.0
    lp = LinearProgram(2, [1.0, 1.0], lower=np.array([1.0, 0.0]),
                       upper=np.array([1.0, np.inf]))
    lp.add_rows([[1.0, 0.0]], ["="], [1.0])
    assert solve_lp(lp).status is Status.UNBOUNDED
    lp = LinearProgram(1, [1.0], lower=np.array([1.0]), upper=np.array([1.0]))
    lp.add_rows([[1.0]], ["="], [2.0])
    assert solve_lp(lp).status is Status.INFEASIBLE


def test_dimension_mismatch():
    lp = LinearProgram(2, [1.0, 1.0])
    with pytest.raises(DimensionError):
        lp.add_rows([[1.0]], ["<="], [1.0])


def test_degenerate_cycling_guard():
    # Classic Beale-style degeneracy: must terminate at the optimum.
    lp = LinearProgram(4, [-0.75, 150.0, -0.02, 6.0], maximize=False)
    lp.add_rows([[0.25, -60.0, -1.0 / 25.0, 9.0],
                 [0.5, -90.0, -1.0 / 50.0, 3.0],
                 [0.0, 0.0, 1.0, 0.0]], ["<="] * 3, [0.0, 0.0, 1.0])
    res = solve_lp(lp)
    assert res.optimal
    assert res.objective_value == pytest.approx(-0.05, abs=1e-7)


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
    lp = LinearProgram(n, c, maximize=True, upper=np.ones(n))
    for row, b in zip(rows, rhs):
        lp.add_rows([row], ["<="], [b])
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
    lp = LinearProgram(n, c, maximize=True, upper=np.ones(n))
    for _ in range(data.draw(st.integers(1, 3))):
        lp.add_rows([rng.uniform(0, 1, size=n)],
                    [Relation.LE], [float(rng.uniform(0.5, 2))])
    res = solve_lp(lp)
    assert res.optimal
    for coeffs, rel, rhs in zip(lp.constraints, lp.relations, lp.rhs):
        lhs = float(coeffs @ res.x)
        assert lhs <= rhs + 1e-7
    assert np.all(res.x >= -1e-9) and np.all(res.x <= 1 + 1e-9)
    assert res.objective_value == pytest.approx(float(c @ res.x), rel=1e-7, abs=1e-9)


def test_dump_format():
    lp = LinearProgram(2, [1.0, 0.0], maximize=True, upper=np.array([1.0, 2.0]))
    lp.add_rows([[1.0, 1.0]], ["<="], [1.5])
    text = lp.dump()
    assert "maximize" in text and "<=" in text and "x0" in text


def test_iteration_limit_is_typed(monkeypatch):
    monkeypatch.setattr(hetsched.lp, "MAX_ITER_BASE", 1)
    monkeypatch.setattr(hetsched.lp, "MAX_ITER_PER_DIM", 0)
    lp = LinearProgram(2, [1.0, 1.0], maximize=True, upper=np.array([1.0, 1.0]))
    with pytest.raises(IterationLimitError, match="iteration limit"):
        solve_lp(lp)
    assert issubclass(IterationLimitError, RuntimeError)


def _random_lp(rng) -> LinearProgram:
    """A small LP mixing LE/GE/EQ rows, right-hand sides of both signs and
    default, boxed, free, fixed and shifted variables.  Half the instances
    use small integers, whose ties and degenerate vertices exercise the
    tie-breaking rules."""
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
    boxed, free, fixed, shifted = (kind == 1), (kind == 2), (kind == 3), (kind == 4)
    lower[boxed], upper[boxed] = base[boxed], base[boxed] + width[boxed]
    lower[free] = -np.inf
    upper[free & (rng.random(n) < 0.3)] = 4.0
    lower[fixed] = upper[fixed] = base[fixed]
    lower[shifted] = base[shifted]
    if integer:
        coeffs = rng.integers(-2, 3, size=(m, n)).astype(float)
        rhs = rng.integers(-2, 6, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
    else:
        coeffs = np.round(rng.uniform(-2.0, 2.0, size=(m, n)), 3)
        rhs = np.round(rng.uniform(-2.0, 5.0, size=m), 3)
        c = np.round(rng.uniform(-3.0, 3.0, size=n), 3)
    lp = LinearProgram(n, c, maximize=bool(rng.random() < 0.5),
                       lower=lower, upper=upper)
    for row, rel, b in zip(coeffs, rng.choice(["<=", ">=", "="], size=m,
                                              p=[0.55, 0.3, 0.15]), rhs):
        lp.add_rows([row], [rel], [b])
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
    lp = LinearProgram(n, obj, maximize=True, lower=lower, upper=upper)
    for j in range(jobs):
        row = np.zeros(n)
        row[j * types:(j + 1) * types] = thr[j]
        lp.add_rows([row], [">="], [prev[j]])
        big = row.max() if row.max() > 0 else 1.0
        up = row.copy()
        up[cells + j] = -(big + 0.1 * big)
        lp.add_rows([up], [">="], [prev[j] - big])
        cap = row.copy()
        cap[cells + j] = -big
        lp.add_rows([cap], ["<="], [prev[j]])
    for j in range(jobs):
        row = np.zeros(n)
        row[j * types:(j + 1) * types] = 1.0
        lp.add_rows([row], ["<="], [1.0])
    for t in range(types):
        row = np.zeros(n)
        row[t:cells:types] = 1.0
        lp.add_rows([row], ["<="], [workers[t]])
    return lp


def _assert_same_as_reference(lp):
    ref = reference_solve_lp(lp)
    res = solve_lp(lp)
    assert res.status is ref.status
    if ref.optimal:
        assert res.x.tobytes() == ref.x.tobytes()
        assert np.float64(res.objective_value).tobytes() == \
            np.float64(ref.objective_value).tobytes()
    return ref.status


def _assert_all_fixed_verdict(lp):
    """An LP whose variables are all fixed is optimal at the fixed point
    exactly when every row holds there.  The reference kernel fails on
    equality rows here (phase 2 is left with no column), so the verdict is
    checked directly."""
    x = lp.lower
    holds = [{Relation.LE: lhs <= rhs + 1e-9, Relation.GE: lhs >= rhs - 1e-9,
              Relation.EQ: abs(lhs - rhs) <= 1e-9}[rel]
             for lhs, rel, rhs in ((float(row @ x), rel, rhs)
                                   for row, rel, rhs in zip(
                                       lp.constraints, lp.relations, lp.rhs))]
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
    all_fixed = []
    for seed in range(240):
        lp = _random_lp(np.random.default_rng(seed))
        fixed = lp.lower == lp.upper
        if fixed.all():
            statuses.append(_assert_all_fixed_verdict(lp))
            all_fixed.append(any(rel is Relation.EQ for rel in lp.relations))
            continue
        statuses.append(_assert_same_as_reference(lp))
        multi_term_fixed_rows += any(
            np.count_nonzero(row[fixed] * lp.lower[fixed]) > 1
            for row in lp.constraints)
    # The instances cover every verdict and the fixed-variable rows whose
    # right-hand side shift sums several products.
    assert {statuses.count(s) >= 10 for s in Status} == {True}
    assert multi_term_fixed_rows >= 10
    # All-fixed instances occur, some of them with an equality row.
    assert len(all_fixed) >= 5 and any(all_fixed)


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
    on most pivots.  Both shortcuts return the reference kernel's bytes."""
    lps = [lp for seed in range(8)
           for lp in _max_min_lps(np.random.default_rng(3000 + seed), _many_jobs)]
    rows = [len(hetsched.lp._Standardized(lp).A) for lp in lps]
    assert min(rows) >= hetsched.lp.SPARSE_PIVOT_ROWS
    # The column update returns early, once per pivot it makes.
    hits = _line_hits({"column": (hetsched.lp._pivot, "return"),
                       "dense": (hetsched.lp._pivot, "Binv -= np.multiply"),
                       "one_cost": (hetsched.lp._simplex, "y = Binv[k] * cb[k]")},
                      lambda: [solve_lp(lp) for lp in lps])
    assert hits["column"] >= 400 and hits["one_cost"] >= 400
    assert hits["dense"] >= 1
    for lp in lps:
        assert _assert_same_as_reference(lp) is Status.OPTIMAL


def test_solutions_hold_no_negative_zero(monkeypatch):
    """Every zero of an `x` that `solve_lp` or `solve_lp_each` returns, and
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
        for res in [solve_lp(lp)] + solve_lp_each(lp, objectives):
            if res.x is not None:
                assert not np.signbit(res.x[res.x == 0]).any(), k
                zeros += int(np.count_nonzero(res.x == 0))
    xs = [x for x in simplex_xs if x is not None]
    assert len(xs) >= 1000 and zeros >= 1000
    for x in xs:
        assert not np.signbit(x[x == 0]).any()


def test_max_min_lps_start_from_the_slack_basis(monkeypatch):
    """Every row of a zero-floor max-min LP holds at the slack basis, so
    phase 1 never runs and the phase-2 inverse starts as the identity."""
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


def test_solve_lp_each_matches_solve_lp():
    statuses = []
    all_fixed = no_rows = mixed = 0
    for seed in range(240):
        lp = _random_lp(np.random.default_rng(seed))
        objectives = _random_objectives(np.random.default_rng(10_000 + seed),
                                        lp.num_vars)
        each = solve_lp_each(lp, objectives)
        assert len(each) == len(objectives)
        for objective, res in zip(objectives, each):
            alone = solve_lp(LinearProgram(
                lp.num_vars, objective, maximize=lp.maximize,
                constraints=lp.constraints, relations=lp.relations, rhs=lp.rhs,
                lower=lp.lower, upper=lp.upper))
            assert res.status == alone.status, seed
            assert res.objective_value == alone.objective_value, seed
            assert (res.x is None) == (alone.x is None), seed
            if alone.x is not None:
                assert np.array_equal(res.x, alone.x), seed
            statuses.append(res.status)
        all_fixed += bool((lp.lower == lp.upper).all())
        no_rows += hetsched.lp._Standardized(lp).A.shape[0] == 0
        mixed += len({res.status for res in each}) > 1
    # Every verdict occurs, as do LPs with no standardized row, LPs whose
    # variables are all fixed, and LPs whose objectives get different
    # verdicts from the one shared phase 1.
    assert {statuses.count(s) >= 10 for s in Status} == {True}
    assert all_fixed >= 5 and no_rows >= 5 and mixed >= 10


def test_solve_lp_each_runs_phase_one_once(monkeypatch):
    calls = []
    simplex = hetsched.lp._simplex

    def spy(A, b, c, basis, Binv, xb, opt_tol=hetsched.lp.OPT_TOL):
        calls.append(opt_tol)
        return simplex(A, b, c, basis, Binv, xb, opt_tol)

    monkeypatch.setattr(hetsched.lp, "_simplex", spy)
    lp = LinearProgram(3, np.zeros(3), maximize=True)
    lp.add_rows([[1.0, 1.0, 1.0], [1.0, 2.0, 0.0], [0.0, 1.0, -1.0]],
                [Relation.LE, Relation.GE, Relation.EQ], [4.0, 1.0, 0.5])
    objectives = [np.eye(3)[i] for i in range(3)] + [np.ones(3)]
    each = solve_lp_each(lp, objectives)
    assert all(res.optimal for res in each)
    assert calls.count(PHASE1_OPT_TOL) == 1
    assert len(calls) == 1 + len(objectives)
    # Solved one at a time, every objective pays for its own phase 1.
    calls.clear()
    for objective in objectives:
        solve_lp(LinearProgram(3, objective, maximize=True,
                               constraints=lp.constraints,
                               relations=lp.relations, rhs=lp.rhs))
    assert calls.count(PHASE1_OPT_TOL) == len(objectives)


def test_solve_lp_each_checks_objective_shape():
    lp = LinearProgram(2, np.zeros(2))
    with pytest.raises(DimensionError):
        solve_lp_each(lp, [np.ones(2), np.ones(3)])


def _equivalence_set():
    """The LPs every kernel is checked on: 240 random LPs and 120
    bottleneck-MILP relaxations."""
    return ([_random_lp(np.random.default_rng(seed)) for seed in range(240)]
            + [_bottleneck_relaxation(np.random.default_rng(1000 + seed))
               for seed in range(120)])


def _has_equality(lp) -> bool:
    return any(rel is Relation.EQ for rel in lp.relations)


def _with_rows(lp, coeffs, relations, rhs) -> LinearProgram:
    return LinearProgram(lp.num_vars, lp.objective, maximize=lp.maximize,
                         constraints=coeffs, relations=relations, rhs=rhs,
                         lower=lp.lower, upper=lp.upper)


def _assert_warm_verdict(ds, feasible, lp):
    """`feasible` (a warm verdict of the rows `ds`) is solve_lp's on `lp`,
    and phase 2 from the basis found gives solve_lp's status and optimum
    within OPT_TOL."""
    ref = solve_lp(lp)
    assert feasible == (ref.status is not Status.INFEASIBLE)
    if feasible:
        res = ds.solve_each([lp.objective])[0]
        assert res.status is ref.status
        if ref.optimal:
            assert abs(res.objective_value - ref.objective_value) <= OPT_TOL
    return feasible


def _warm_verdicts():
    """The warm verdicts on the equivalence set's LPs with no equality row,
    each checked by `_assert_warm_verdict`, and the number of LPs whose
    phase 1 negated a row.  An LP's rows start from phase 1 at right-hand
    sides that a point of its box meets with equality, so there is always a
    feasible basis to restart from.  They then restart to the LP's own
    right-hand sides ("own"), to shifted ones ("rhs"), and with rows
    appended ("appended").  LPs with an equality row are left out: phase 1
    may drop a dependent one, and then no new right-hand side can restart."""
    verdicts = {"own": [], "rhs": [], "appended": []}
    equality = negated = 0
    for k, lp in enumerate(_equivalence_set()):
        if _has_equality(lp):
            equality += 1
            continue
        rng = np.random.default_rng(5000 + k)
        x0 = np.clip(np.random.default_rng(7000 + k).uniform(-2.0, 4.0, lp.num_vars),
                     lp.lower, lp.upper)
        ds = hetsched.lp._Standardized(_with_rows(
            lp, lp.constraints, lp.relations,
            [float(row @ x0) for row in lp.constraints]))
        assert ds.phase_one() and not ds.dropped
        negated += bool(ds.flip.any())
        verdicts["own"].append(_assert_warm_verdict(
            ds, ds.restart(lp.rhs), lp))

        rhs = [b + float(rng.integers(-2, 3)) for b in lp.rhs]
        verdicts["rhs"].append(_assert_warm_verdict(
            ds, ds.restart(rhs), _with_rows(lp, lp.constraints, lp.relations, rhs)))

        extra = [(rng.integers(-2, 3, size=lp.num_vars).astype(float),
                  Relation(rng.choice(["<=", ">="])), float(rng.integers(-2, 6)))
                 for _ in range(int(rng.integers(1, 4)))]
        coeffs, rels, extra_rhs = map(list, zip(*extra))
        screen = ds.append(np.array(coeffs), rels, extra_rhs)
        verdicts["appended"].append(_assert_warm_verdict(
            screen, screen.restart(),
            _with_rows(lp, np.vstack([lp.constraints, coeffs]),
                       lp.relations + rels, rhs + extra_rhs)))
    assert equality == 104
    for kind, seen in verdicts.items():
        assert len(seen) == 256
        assert seen.count(True) >= 30 and seen.count(False) >= 30, kind
    return verdicts, negated


def test_dual_simplex_verdicts_match_solve_lp():
    """Restarted from a phase-1 basis after the right-hand sides change, and
    after appended rows, the zero-cost dual simplex decides feasibility as
    solve_lp does."""
    _, negated = _warm_verdicts()
    # A restart negates a new right-hand side where phase 1 negated the row.
    assert negated >= 100


def test_warm_verdicts_match_solve_lp_when_refactorizing(monkeypatch):
    """With the basis inverse refactorized every other pivot, both simplex
    kernels still reach solve_lp's verdicts on the same restarts."""
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


def test_phase_one_start_is_solve_lp_each():
    """After `phase_one`, `solve_each` runs phase 2 from solve_lp's own
    feasible start, so every result is bit-identical to solve_lp_each's; the
    basis it keeps is feasible with its exact inverse, so a restart from it
    makes no pivot."""
    kept = 0
    for k, lp in enumerate(_equivalence_set()):
        if _has_equality(lp):
            continue
        objectives = _random_objectives(np.random.default_rng(10_000 + k),
                                        lp.num_vars)
        ds = hetsched.lp._Standardized(lp)
        feasible = ds.phase_one()
        for res, ref in zip(ds.solve_each(objectives), solve_lp_each(lp, objectives)):
            assert res.status is ref.status
            assert res.objective_value == ref.objective_value
            assert (res.x is None) == (ref.x is None)
            if ref.x is not None:
                assert np.array_equal(res.x, ref.x)
        if feasible and len(ds.basis) and not ds.dropped:
            kept += 1
            assert np.allclose(ds.Binv @ ds.T[:, ds.basis], np.eye(len(ds.T)))
            basis = ds.basis.copy()
            assert ds.restart() and np.array_equal(ds.basis, basis)
    assert kept >= 100


@pytest.mark.parametrize("refactor_every", [hetsched.lp.REFACTOR_EVERY, 2])
def test_solve_leaves_its_optimal_basis(monkeypatch, refactor_every):
    """`solve` returns what `solve_each` returns and leaves the state at the
    basis its phase 2 ends on, with that basis's inverse and basic values,
    also when the inverse is refactorized along the way.  Solving again
    from there makes no pivot, and so does restarting after a row the
    optimum satisfies is appended."""
    monkeypatch.setattr(hetsched.lp, "REFACTOR_EVERY", refactor_every)
    kept = 0
    for k, lp in enumerate(_equivalence_set()):
        if _has_equality(lp):
            continue
        objective = _random_objectives(np.random.default_rng(10_000 + k),
                                       lp.num_vars)[-1]
        ds = hetsched.lp._Standardized(lp)
        ds.phase_one()
        ref = ds.solve_each([objective])[0]
        res = ds.solve(objective)
        assert res.status is ref.status and res.objective_value == ref.objective_value
        if not res.optimal or not len(ds.basis) or ds.dropped:
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
        grown = ds.append(row, [Relation.GE], [res.x[0] - 1e-6])
        assert grown.restart()
        assert np.array_equal(grown.basis[:len(basis)], basis)
    assert kept >= 50


def test_appended_rows_standardize_as_built_cold():
    """Rows appended to a `_Standardized` take the path the LP's own rows
    take, so their standardized coefficients and right-hand sides are bit
    for bit those of the same rows in the LP built cold with them, on LPs
    with fixed variables and finite nonzero lower bounds."""
    checked = shifted = 0
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
        screen = ds.append(coeffs, rels, rhs)
        cold = hetsched.lp._Standardized(_with_rows(
            lp, np.vstack([lp.constraints, coeffs]), lp.relations + rels,
            np.concatenate([lp.rhs, rhs])))
        m, rows = len(ds.T), slice(len(lp.rhs), len(lp.rhs) + k)
        assert screen.T[m:, :cold.A.shape[1]].tobytes() == cold.A[rows].tobytes()
        assert screen.b[m:].tobytes() == cold.b[rows].tobytes()
        checked += 1
        moved = np.concatenate([ds.fixed_vals[ds.fixed], ds.shift])
        shifted += bool(np.count_nonzero(moved)) and lp.num_vars > 1
    assert checked >= 100 and shifted >= 50


def test_dual_start_rejects_equality_rows():
    """New right-hand sides need every row phase 1 saw, so they are refused
    once it drops a dependent equality row; an appended row needs a slack,
    so an equality row is refused there."""
    lp = LinearProgram(2, np.zeros(2))
    lp.add_rows([[1.0, 1.0], [2.0, 2.0]], [Relation.EQ] * 2, [1.0, 2.0])
    prob = hetsched.lp._Standardized(lp)
    assert prob.phase_one() and prob.dropped
    with pytest.raises(ValueError, match="equality"):
        prob.restart([1.0, 2.0])
    lp = LinearProgram(2, np.zeros(2))
    lp.add_rows([[1.0, 1.0]], [Relation.LE], [1.0])
    prob = hetsched.lp._Standardized(lp)
    assert prob.phase_one()
    with pytest.raises(ValueError, match="equality"):
        prob.append(np.ones((1, 2)), [Relation.EQ], [0.5])


def test_dual_simplex_iteration_limit_is_typed(monkeypatch):
    lp = LinearProgram(2, np.zeros(2))
    lp.add_rows([[1.0, 1.0]], [Relation.GE], [1.0])
    prob = hetsched.lp._Standardized(lp)
    assert prob.phase_one()
    monkeypatch.setattr(hetsched.lp, "MAX_ITER_BASE", 0)
    monkeypatch.setattr(hetsched.lp, "MAX_ITER_PER_DIM", 0)
    with pytest.raises(IterationLimitError, match="dual simplex iteration limit"):
        prob.restart([2.0])
