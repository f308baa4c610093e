"""The LP builders stack their rows in blocks; `tests/oracles.py` builds the
same LPs one row at a time.  Every builder must give the same
LP, byte for byte: rows, relations, right-hand sides, bounds, objective and
sense, on seeded `random_cells` matrices."""

import copy
from collections import Counter
from dataclasses import replace

import numpy as np

import hetsched.lp
import hetsched.milp
import hetsched.policies
import hetsched.waterfill as waterfill
from hetsched.jobs import Job
from hetsched.lp import Relation, SolveResult, Status, _Standardized, solve_lp
from hetsched.matrices import ThroughputMatrix, isolated_allocation
from hetsched.milp import _pinned
from hetsched.policies import (ClassSpace, PolicyError, PolicyInfeasibleError,
                               ProblemSpace, finish_time_fairness,
                               max_min_fairness, max_min_lp, min_cost_slo)
from oracles import (DenseStandardized, random_cells, random_costs,
                     reference_bottleneck_lp,
                     reference_ftf_lp, reference_gain_lp, reference_las_lp,
                     reference_level_lp,
                     reference_max_min_lp, reference_level_pin_lp,
                     reference_pinned, reference_screen_lp, reference_space_lp,
                     rows_of, space_coeffs)


def assert_same_lp(lp, ref):
    """Same LP, byte for byte; the sparse rows are compared made dense."""
    assert lp.num_vars == ref.num_vars
    assert lp.relations == ref.relations
    assert lp.constraints.shape == ref.constraints.shape
    for name in ("constraints", "rhs", "lower", "upper", "objective"):
        got, want = getattr(lp, name), getattr(ref, name)
        if name == "constraints":
            got, want = got.dense(), want.dense()
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def _space(rng):
    """A `random_cells` matrix and its space, over jobs with random weights,
    steps, elapsed times and a few finished steps."""
    cluster, rows, cells, jobs = random_cells(rng)
    jobs = [Job(id=j.id, scale_factor=j.scale_factor,
                weight=float(rng.choice([0.5, 1.0, 2.0])),
                num_steps=int(rng.integers(100, 10_000)),
                steps_done=float(rng.integers(0, 50)),
                elapsed_time=float(rng.uniform(0.0, 500.0)),
                isolated_elapsed_time=float(rng.uniform(0.0, 500.0)))
            for j in jobs]
    return ProblemSpace(jobs, ThroughputMatrix.from_cells(cluster, rows, cells))


def _fill_state(rng, space):
    """Water-filling state: weights with at least one positive, previous
    levels, previous throughputs with some zeros, and a level."""
    weights = {j.id: float(rng.choice([0.0, 0.5, 1.0, 3.0])) for j in space.jobs}
    weights[space.jobs[0].id] = 1.0
    t_prev = {j.id: float(rng.uniform(0.0, 2.0)) for j in space.jobs}
    thr_prev = {j.id: 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 3.0))
                for j in space.jobs}
    return weights, t_prev, thr_prev, float(rng.uniform(0.0, 1.0))


class _Searched:
    """Stands in for `milp._branch_and_bound`: records each LP and set of
    binaries it is given and reports an optimum at zero, which leaves
    `solve_milp` no binary to refine."""

    def __init__(self):
        self.seen = []

    def __call__(self, lp, binaries):
        self.seen.append((lp, binaries))
        return SolveResult(Status.OPTIMAL, np.zeros(lp.num_vars), 0.0)


class _State:
    """Stands in for an `lp._Standardized` at an optimum of `lp`: keeps the
    row blocks appended to it, as `as_lp` reads them, calls every appended
    state feasible and dumps through `_Standardized.dump`."""

    feasible = True

    def __init__(self, lp, appended=()):
        self.lp, self.appended = lp, appended

    def append(self, *rows):
        return _State(self.lp, self.appended + (rows,))

    as_lp = _Standardized.as_lp

    def dump(self, objective):
        _Standardized.dump(self, objective)


class _Standardizing:
    """Stands in for `lp._Standardized` in water filling: records each LP it
    is built from, the rows appended to it and the objectives solved, and
    solves every one at zero."""

    feasible = True

    def __init__(self, lp, seen):
        self.lp, self.seen = lp, seen
        seen.append(self)

    def phase_one(self):
        return True

    def append(self, *rows):
        out = copy.copy(self)
        out.lp = replace(self.lp)
        out.lp.add_rows(*rows)
        self.seen.append(out)
        return out

    def solve(self, objective):
        self.objective = objective
        return SolveResult(Status.OPTIMAL, np.zeros(self.lp.num_vars), 0.0)


def test_policy_builders_match_row_at_a_time(monkeypatch):
    floors = carried = iterated = 0
    for seed in range(120):
        rng = np.random.default_rng(3000 + seed)
        space = _space(rng)
        objective = rng.uniform(0.0, 1.0, space.n_cells)
        assert_same_lp(space.lp(objective), reference_space_lp(space, objective))

        scales = {j.id: float(rng.uniform(0.1, 3.0)) for j in space.jobs
                  if rng.random() < 0.8}
        assert_same_lp(max_min_lp(space, scales),
                       reference_max_min_lp(space, scales))
        lows = {job_id: float(rng.uniform(-1.0, 1.0)) for job_id in scales}
        assert_same_lp(max_min_lp(space, scales, lows),
                       reference_max_min_lp(space, scales, lows))
        floors += bool(lows)

        # Finish-time fairness: each LP is the max-min LP after the last
        # allocation, the isolated one first.
        lps, results = [], []

        def solve(lp):
            lps.append(lp)
            results.append(solve_lp(lp))
            return results[-1]

        monkeypatch.setattr(hetsched.policies, "solve_lp", solve)
        finish_time_fairness(space)
        monkeypatch.undo()
        allocations = [isolated_allocation(space.T, len(space.jobs))]
        allocations += [space.allocation(res.x) for res in results[:-1]]
        for lp, X_prev in zip(lps, allocations):
            assert_same_lp(lp, reference_ftf_lp(space, X_prev))
        iterated += len(lps) > 1

        # Water filling's level LP, then the same rows plus the pin row under
        # the tightening objective.
        weights, t_prev, thr_prev, level = _fill_state(rng, space)
        seen = []
        monkeypatch.setattr(waterfill, "_Standardized",
                            lambda lp: _Standardizing(lp, seen))
        state, _ = waterfill._level_lp(space, weights, t_prev, thr_prev, None)
        waterfill._tighten(space, state, level)
        monkeypatch.undo()
        level_lp, tighten = seen
        assert_same_lp(level_lp.lp, reference_level_lp(space, weights, t_prev,
                                                       thr_prev))
        assert level_lp.objective is level_lp.lp.objective
        assert_same_lp(replace(tighten.lp, objective=tighten.objective),
                       reference_level_pin_lp(space, weights, t_prev, thr_prev,
                                              level))
        carried += any(v > 0 for v in thr_prev.values())
    assert floors >= 80 and carried >= 80 and iterated >= 80


def test_bottleneck_builders_match_row_at_a_time(monkeypatch):
    screens = mixed = 0
    for seed in range(120):
        rng = np.random.default_rng(4000 + seed)
        space = _space(rng)
        weights, t_prev, thr_prev, level = _fill_state(rng, space)
        thr = _fill_state(rng, space)[2]
        # The gain rows: the tightening LP's rows, then the carry rows at
        # the tightened throughputs `thr`.
        tight = reference_level_pin_lp(space, weights, t_prev, thr_prev, level)
        gain = waterfill._gain_rows(space, _State(tight), thr)
        zero = np.zeros(tight.num_vars)
        assert_same_lp(gain.as_lp(zero), reference_gain_lp(tight, space, thr))

        active = [j for j in space.jobs if rng.random() < 0.7] or space.jobs[:1]
        delta = {j.id: waterfill.DELTA_FRACTION * space.best[j.id]
                 for j in active}
        cand = {j.id for j in active if rng.random() < 0.5}
        built = []
        monkeypatch.setattr(_Standardized, "dump",
                            lambda state, objective: built.append(state.as_lp(objective)))
        assert waterfill._screen_feasible(space, active, thr, delta, cand, gain)
        monkeypatch.undo()
        (screen,) = built
        assert_same_lp(screen, reference_screen_lp(gain.as_lp(zero), space, active,
                                                   thr, delta, cand))
        screens += 1
        mixed += 0 < len(cand) < len(active)

        # The bottleneck MILP as the search gets it, its flags bounded to
        # [0, 1], and a branch-and-bound node of it.
        search = _Searched()
        monkeypatch.setattr(hetsched.milp, "_branch_and_bound", search)
        waterfill._milp_bottlenecks(space, active, thr_prev, delta,
                                    {j.id: 0.0 for j in active})
        monkeypatch.undo()
        ((lp, binaries),) = search.seen
        ref = reference_bottleneck_lp(space, active, thr_prev)
        assert_same_lp(lp, ref)
        assert binaries == set(range(space.n_cells, ref.num_vars))
        fixed = {v: float(rng.integers(0, 2)) for v in sorted(binaries)
                 if rng.random() < 0.5}
        node = _pinned(lp, fixed)
        assert_same_lp(node, reference_pinned(ref, fixed))
        assert node.constraints is lp.constraints
        assert node.rhs is lp.rhs
    assert screens == 120 and mixed >= 30


def test_cost_lps_match_row_at_a_time(monkeypatch):
    # Each LP of the cost policies' Dinkelbach iteration is the space's LP
    # under num - ratio * den, the last allocation's ratio, plus the SLO
    # rows; the zero-cost fallback is the same LP under num with the paid
    # cells pinned to 0.
    iterated = fallbacks = with_slos = 0
    for seed in range(120):
        rng = np.random.default_rng(5000 + seed)
        cluster, rows, cells, jobs = random_cells(rng)
        T = ThroughputMatrix.from_cells(random_costs(rng, cluster), rows, cells)
        space = ProblemSpace(jobs, T)
        coeffs = space_coeffs(space)
        num = sum((coeffs[j.id] for j in space.jobs), np.zeros(space.n_cells))
        costs = [T.cluster.types[cfg.type_id].cost_per_hour for cfg in T.configs]
        den = np.array([sf * cost for sf in space.row_sf for cost in costs])
        required = {k: float(rng.uniform(0.0, 0.3)) * space.best[j.id]
                    for k, j in enumerate(space.jobs) if rng.random() < 0.3}

        lps, results = [], []

        def solve(lp):
            lps.append(lp)
            results.append(solve_lp(lp))
            return results[-1]

        monkeypatch.setattr(hetsched.policies, "solve_lp", solve)
        try:
            hetsched.policies._max_steps_per_dollar(space, required, [])
        except PolicyInfeasibleError:
            assert not results[-1].optimal
        monkeypatch.undo()

        ratio, fallback = 0.0, False
        for lp, res in zip(lps, results):
            ref = reference_space_lp(space, num if fallback else num - ratio * den)
            for k, rate in required.items():
                ref.add_rows(*rows_of([coeffs[space.jobs[k].id]], [Relation.GE], [rate]))
            if fallback:
                ref.upper = np.where(den <= 0, ref.upper, 0.0)
            assert_same_lp(lp, ref)
            if res.optimal:
                x = space.allocation(res.x).values.ravel()
                steps, dollars = float(num @ x), float(den @ x)
                fallback = dollars <= 0 < steps
                ratio = steps / dollars if dollars > 0 else ratio
        iterated += len(lps) > 2
        fallbacks += fallback
        with_slos += bool(required)
    assert iterated >= 60 and fallbacks >= 15 and with_slos >= 50


def _states(monkeypatch, run, standardized):
    """Run `run()` with `standardized` as every solver's `_Standardized`,
    recording what each phase 1 and each append leaves, byte for byte (the
    verdict and, when feasible, T, b, basis, Binv and xb), and which kinds
    of rows each phase 1 saw."""
    seen, kinds = [], []
    phase_one, append = _Standardized.phase_one, _Standardized.append

    def record(state):
        seen.append((state.feasible,) + (tuple(
            getattr(state, name).tobytes() for name in ("T", "b", "basis", "Binv", "xb"))
            if state.feasible else ()))

    def traced_phase_one(self):
        ok = phase_one(self)
        record(self)
        kinds.append({"fixed": bool(self.fixed.any()), "pinned": self.shifts,
                      "free": bool(self.neg_cols.size),
                      "bounded": len(self.b) > len(self.lp.rhs)})
        return ok

    def traced_append(self, *rows):
        out = append(self, *rows)
        record(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(_Standardized, "phase_one", traced_phase_one)
        m.setattr(_Standardized, "append", traced_append)
        m.setattr(hetsched.lp, "_Standardized", standardized)
        m.setattr(waterfill, "_Standardized", standardized)
        try:
            run()
        except PolicyError as e:
            seen.append(type(e))
    return seen, kinds


def test_tableaus_match_dense_standardization(monkeypatch):
    """Every tableau the policies build, by phase 1 or by appending rows,
    is byte for byte the one the dense standardization
    (`oracles.DenseStandardized`) builds, zero signs included.  The seeded
    spaces cover singleton and pair rows, infeasible (fixed) cells, the
    free lam of the max-min LPs, the flags' finite upper bounds and the
    binaries that branch and bound pins, and water filling's appended pin,
    carry and screen rows."""
    covered = Counter()
    for seed in range(60):
        rng = np.random.default_rng(6000 + seed)
        space = _space(rng)
        cluster, rows, cells, jobs = random_cells(rng)
        T = ThroughputMatrix.from_cells(random_costs(rng, cluster), rows, cells)
        cost_jobs = [Job(id=j.id, scale_factor=j.scale_factor, num_steps=1000,
                         slo_seconds=float(rng.uniform(200.0, 5000.0))
                         if rng.random() < 0.5 else None) for j in jobs]
        weights, _, thr_prev, _ = _fill_state(rng, space)
        active = [j for j in space.jobs if weights[j.id] > 0]
        delta = {j.id: waterfill.DELTA_FRACTION * space.best[j.id] for j in active}
        runs = [lambda: max_min_fairness(space),
                lambda: waterfill.single_level_waterfill(space),
                lambda: min_cost_slo(ProblemSpace(cost_jobs, T)),
                lambda: waterfill._milp_bottlenecks(space, active, thr_prev, delta,
                                                    {j.id: 0.0 for j in active})]
        for run in runs:
            got, kinds = _states(monkeypatch, run, _Standardized)
            want, _ = _states(monkeypatch, run, DenseStandardized)
            assert got == want
            covered["appended"] += len(got) > len(kinds)
            covered["pairs"] += bool(space.T.is_pair.any())
            for kind in kinds:
                covered.update(k for k, v in kind.items() if v)
    assert min(covered[k] for k in ("appended", "pairs", "fixed", "pinned", "free",
                                    "bounded")) >= 20, covered


def test_las_without_alike_jobs_solves_the_job_lp(monkeypatch):
    """With no two jobs alike, LAS over classes is LAS over jobs: the LP it
    solves is the one-row-per-job LP byte for byte, and so is every
    tableau (T, b, basis, Binv and xb) and the allocation.  A `ClassSpace`
    built with every job its own class compiles that same LP, since a
    class of one keeps its job's rows and coefficients (times 1.0)."""
    pairs = 0
    for seed in range(60):
        rng = np.random.default_rng(7000 + seed)
        space = _space(rng)
        pairs += bool(space.T.is_pair.any())
        T = space.T.take(~space.T.is_pair)
        for space in (space, ProblemSpace(space.jobs, T)):
            assert space.classes() is space
            scales = {j.id: j.scale_factor / (j.weight * space.equal_norm[j.id])
                      for j in space.jobs}
            job_lp = max_min_lp(space, scales)
            assert_same_lp(job_lp, reference_las_lp(space))
            got, _ = _states(monkeypatch, lambda: max_min_fairness(space), _Standardized)
            want, _ = _states(monkeypatch, lambda: solve_lp(job_lp), _Standardized)
            assert got == want
            res = max_min_fairness(space)
            assert res.allocation.values.tobytes() == \
                space.allocation(solve_lp(job_lp).x).values.tobytes()
        rows = np.array([T.singleton_row(j.id) for j in space.jobs])
        one_each = ClassSpace(space, rows, np.arange(len(space.jobs)))
        assert_same_lp(max_min_lp(one_each, scales), job_lp)
        x = solve_lp(job_lp).x
        assert one_each.allocation(x).values.tobytes() == \
            space.allocation(x).values.tobytes()
    assert pairs >= 20
