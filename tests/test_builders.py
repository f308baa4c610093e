"""The LP builders stack their rows in blocks; `tests/oracles.py` builds the
same LPs one `add_constraint` at a time.  Every builder must give the same
LP, byte for byte: rows, relations, right-hand sides, bounds, objective and
sense, on seeded `random_cells` matrices."""

import copy
from dataclasses import replace

import numpy as np

import hetsched.policies
import hetsched.search
import hetsched.waterfill as waterfill
from hetsched.jobs import Job
from hetsched.lp import SolveResult, Status
from hetsched.matrices import ThroughputMatrix
from hetsched.milp import MixedIntegerProgram, _pinned
from hetsched.policies import ProblemSpace, finish_time_fairness, max_min_lp
from hetsched.search import maximize_ratio
from oracles import (random_cells, reference_bottleneck_lp,
                     reference_charnes_cooper, reference_ftf_probe,
                     reference_gain_lp, reference_level_lp, reference_max_min_lp,
                     reference_level_pin_lp, reference_pinned,
                     reference_screen_lp, reference_space_lp)


def assert_same_lp(lp, ref):
    assert lp.num_vars == ref.num_vars and lp.maximize == ref.maximize
    assert lp.relations == ref.relations
    for name in ("constraints", "rhs", "lower", "upper", "objective"):
        got, want = getattr(lp, name), getattr(ref, name)
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


class _Solved:
    """Stands in for a solver: records what it is given and reports an
    optimum at zero, or the status it was built with."""

    def __init__(self, status=Status.OPTIMAL):
        self.status, self.seen = status, []

    def __call__(self, problem):
        self.seen.append(problem)
        if self.status is not Status.OPTIMAL:
            return SolveResult(self.status)
        n = (problem.base if isinstance(problem, MixedIntegerProgram)
             else problem).num_vars
        return SolveResult(Status.OPTIMAL, np.zeros(n), 0.0)


class _State:
    """Stands in for the gain rows' state: records the rows the screen
    appends and calls them feasible."""

    def __init__(self):
        self.appended = []

    def append(self, *rows):
        self.appended.append(rows)
        return self

    def restart(self):
        return True


class _Standardizing:
    """Stands in for `lp._Standardized` in water filling: records each LP it
    is built from, the rows appended to it and the objectives solved, and
    solves every one at zero."""

    def __init__(self, lp, seen):
        self.lp, self.seen = lp, seen
        seen.append(self)

    def phase_one(self):
        return True

    def append(self, *rows):
        out = copy.copy(self)
        out.lp = waterfill._with_rows(self.lp, *rows)
        self.seen.append(out)
        return out

    def restart(self):
        return True

    def solve(self, objective):
        self.objective = objective
        return SolveResult(Status.OPTIMAL, np.zeros(self.lp.num_vars), 0.0)


def test_policy_builders_match_row_at_a_time(monkeypatch):
    floors = carried = 0
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

        # Finish-time fairness: three probes, each checked at its ratio.
        lams, solve = [], _Solved(Status.INFEASIBLE)

        def probes(feasible, lo, hi):
            for lam in (lo, 0.5 * (lo + hi), hi):
                built = len(solve.seen)
                feasible(lam)
                if len(solve.seen) > built:
                    lams.append(lam)
            return hi, None

        monkeypatch.setattr(hetsched.policies, "bisect", probes)
        monkeypatch.setattr(hetsched.policies, "solve_lp", solve)
        finish_time_fairness(space)
        monkeypatch.undo()
        assert len(lams) == len(solve.seen) == 3
        for lam, lp in zip(lams, solve.seen):
            assert_same_lp(lp, reference_ftf_probe(space, lam))

        # Water filling's level LP, then the same rows plus the pin row under
        # the tightening objective.
        weights, t_prev, thr_prev, level = _fill_state(rng, space)
        seen = []
        monkeypatch.setattr(waterfill, "_Standardized",
                            lambda lp: _Standardizing(lp, seen))
        state, _ = waterfill._level_lp(space, weights, t_prev, thr_prev)
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
    assert floors >= 80 and carried >= 80


def test_bottleneck_builders_match_row_at_a_time(monkeypatch):
    screens = mixed = 0
    for seed in range(120):
        rng = np.random.default_rng(4000 + seed)
        space = _space(rng)
        _, _, thr_prev, _ = _fill_state(rng, space)
        assert_same_lp(waterfill._gain_lp(space, thr_prev),
                       reference_gain_lp(space, thr_prev))

        active = [j for j in space.jobs if rng.random() < 0.7] or space.jobs[:1]
        delta = {j.id: waterfill.DELTA_FRACTION * space.best[j.id]
                 for j in active}
        cand = {j.id for j in active if rng.random() < 0.5}
        built, state = [], _State()
        monkeypatch.setattr(waterfill, "dump_each",
                            lambda build, objectives=None: built.append(build()))
        gain_rows = waterfill.GainRows(space)
        gain_rows.state = state
        assert waterfill._screen_feasible(space, active, thr_prev, delta, cand,
                                          gain_rows)
        monkeypatch.undo()
        (screen,), ((coeffs, rels, rhs),) = built, state.appended
        ref = reference_screen_lp(space, active, thr_prev, delta, cand)
        assert_same_lp(screen, ref)
        # The appended rows are the screen LP's rows after the carry rows.
        rows = slice(len(space.jobs), len(space.jobs) + len(active))
        assert coeffs.tobytes() == ref.constraints[rows].tobytes()
        assert list(rels) == ref.relations[rows]
        assert np.asarray(rhs).tobytes() == ref.rhs[rows].tobytes()
        screens += 1
        mixed += 0 < len(cand) < len(active)

        # The bottleneck MILP, and a branch-and-bound node of it.
        solve = _Solved()
        monkeypatch.setattr(waterfill, "solve_milp", solve)
        waterfill._milp_bottlenecks(space, active, thr_prev, delta,
                                    {j.id: 0.0 for j in active})
        monkeypatch.undo()
        (mip,) = solve.seen
        ref = reference_bottleneck_lp(space, active, thr_prev)
        assert_same_lp(mip.base, ref)
        assert mip.binary_vars == set(range(space.n_cells, ref.num_vars))
        fixed = {v: float(rng.integers(0, 2)) for v in sorted(mip.binary_vars)
                 if rng.random() < 0.5}
        node = _pinned(mip.base, fixed)
        assert_same_lp(node, reference_pinned(ref, fixed))
        assert node.constraints is mip.base.constraints
        assert node.rhs is mip.base.rhs
    assert screens == 120 and mixed >= 30


def test_charnes_cooper_matches_row_at_a_time(monkeypatch):
    for seed in range(120):
        rng = np.random.default_rng(5000 + seed)
        space = _space(rng)
        num = space.thr_rows.sum(axis=0)
        den = rng.uniform(0.0, 3.0, space.n_cells)
        lp = space.lp(num)
        # Some SLO-like rows, and bounds that are finite on both sides.
        k = int(rng.integers(0, min(2, len(space.jobs)) + 1))
        lp.add_rows(space.thr_rows[:k], ["<="] * k, rng.uniform(0.0, 2.0, k))
        lp.lower[space.n_cells // 2:] = rng.uniform(-1.0, 0.0)
        lp.upper[: space.n_cells // 3] = np.minimum(lp.upper[: space.n_cells // 3],
                                                    2.0)
        solve = _Solved(Status.INFEASIBLE)
        monkeypatch.setattr(hetsched.search, "solve_lp", solve)
        maximize_ratio(lp, den)
        monkeypatch.undo()
        assert_same_lp(solve.seen[0], reference_charnes_cooper(lp, den))
