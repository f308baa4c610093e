from collections import Counter

import numpy as np
import pytest

import hetsched.lp
import hetsched.policies
from hetsched.cluster import make_cluster
from hetsched.jobs import Entity, Job, JobCombination
from hetsched.lp import (OPT_TOL, IterationLimitError, Relation, SolveResult,
                         Status, solve_lp)
from hetsched.matrices import ThroughputMatrix, effective_throughput
from hetsched.policies import (InfeasibleSloError, PolicyError,
                               PolicyInfeasibleError, PolicySpec,
                               PolicyKind, ProblemSpace, ZeroThroughputError,
                               fastest_cell, fifo,
                               finish_time_fairness, max_min_fairness,
                               max_total_throughput, min_cost, min_cost_slo,
                               min_makespan, parse_policy, shortest_job_first,
                               solve_policy)

from oracles import (OracleInstance, RatioUnboundedError, equal_share_allocation,
                     ftf_rho, oracle_ftf, oracle_las, oracle_makespan,
                     random_cells, random_costs, random_instance, reference_ftf,
                     reference_finish_time_fairness, reference_las_lp,
                     reference_maximize_ratio, reference_standalone, runnable)


def singles(cluster, T_rows):
    rows = [JobCombination.of(i) for i in range(len(T_rows))]
    entries = [[(float(v),) if v > 0 else None for v in row] for row in T_rows]
    return ThroughputMatrix.from_cells(cluster, rows, entries)


@pytest.fixture
def three_job_instance():
    cluster = make_cluster({"V100": 1, "K80": 1})
    T = singles(cluster, [[4.0, 1.0], [3.0, 1.0], [2.0, 1.0]])
    jobs = [Job(id=i, num_steps=1000) for i in range(3)]
    return cluster, T, jobs


def normalized_throughputs(jobs, X, T):
    Xeq = equal_share_allocation(T)
    return {j.id: effective_throughput(j.id, X, T)
            / effective_throughput(j.id, Xeq, T) for j in jobs}


class TestLas:
    def test_three_job_worked_example(self, three_job_instance):
        cluster, T, jobs = three_job_instance
        res = max_min_fairness(ProblemSpace(jobs, T))
        assert res.objective == pytest.approx(8 / 11, abs=0.01)
        norm = normalized_throughputs(jobs, res.allocation, T)
        assert min(norm.values()) == pytest.approx(8 / 11, abs=1e-6)

    def test_symmetric_jobs_equal_split(self):
        cluster = make_cluster({"gpu": 4})
        T = singles(cluster, [[2.0]] * 4)
        jobs = [Job(id=i, num_steps=100) for i in range(4)]
        X = max_min_fairness(ProblemSpace(jobs, T)).allocation
        assert np.allclose(X.values, 1.0, atol=1e-6)

    def test_weighted_split_two_to_one(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0], [1.0]])
        jobs = [Job(id=0, num_steps=100, weight=2.0),
                Job(id=1, num_steps=100, weight=1.0)]
        X = max_min_fairness(ProblemSpace(jobs, T)).allocation
        assert X.values[0, 0] == pytest.approx(2 / 3, abs=1e-6)
        assert X.values[1, 0] == pytest.approx(1 / 3, abs=1e-6)

    def test_zero_throughput_job_rejected(self):
        cluster = make_cluster({"gpu": 1})
        rows = [JobCombination.of(0)]
        T = ThroughputMatrix.from_cells(cluster, rows, [[(0.0,)]])
        with pytest.raises(ZeroThroughputError):
            max_min_fairness(ProblemSpace([Job(id=0, num_steps=10)], T))

    def test_classes_of_identical_jobs_keep_the_job_lp_optimum(self):
        """Criterion-3 instances with each job repeated one to four times,
        shuffled, and some copies given another weight.  LAS solves over
        the classes of jobs alike, and its optimum is the one-row-per-job
        LP's; every member gets its class's allocation row, byte for byte;
        the allocation is valid; and on a stated floor of instances a class
        of several members has time on a type whose capacity row binds, so
        the class size in that row decides the optimum."""
        rng = np.random.default_rng(3400)
        binding = 0
        for _ in range(120):
            inst = random_instance(rng, max_jobs=3, max_types=2)
            src = rng.permutation(np.repeat(np.arange(inst.num_jobs),
                                            rng.integers(1, 5, inst.num_jobs)))
            weights = inst.weights[src] * np.where(rng.random(len(src)) < 0.15, 2.0, 1.0)
            cluster = make_cluster({chr(65 + t): 1 for t in range(inst.num_types)})
            T = singles(cluster, inst.T[src].tolist())
            jobs = [Job(id=k, num_steps=int(inst.steps[s]), weight=float(w))
                    for k, (s, w) in enumerate(zip(src.tolist(), weights.tolist()))]
            space = ProblemSpace(jobs, T)
            classes = {}
            for k, key in enumerate(zip(src.tolist(), weights.tolist())):
                classes.setdefault(key, []).append(k)
            assert [j.id for j in space.classes().jobs] == [ks[0] for ks in classes.values()]

            res = max_min_fairness(space)
            ref = solve_lp(reference_las_lp(space))
            assert abs(res.objective - ref.objective_value) <= OPT_TOL
            X = res.allocation
            X.validate()
            for ks in classes.values():
                assert len({X.values[k].tobytes() for k in ks}) == 1
            tight = X.values.sum(axis=0) >= 1.0 - 1e-9  # one worker per type
            binding += any((X.values[ks[0]] > 1e-9)[tight].any()
                           for ks in classes.values() if len(ks) > 1)
        assert binding >= 80, binding

    def test_paper_scale_static_decisions(self, monkeypatch):
        """Static seed-7 decisions on the CLI's 108-worker cluster: at 2,048
        jobs the LP has one level row and one budget per class plus the
        three capacity rows, and at 200 jobs its optimum is the job LP's."""
        lps = []

        def solve(lp):
            lps.append(lp)
            return solve_lp(lp)

        monkeypatch.setattr(hetsched.policies, "solve_lp", solve)
        cluster, jobs, T, _ = _static_decision(2048)
        res = solve_policy(parse_policy("las"), jobs, cluster, T)
        alike = {(T.thr[T.singleton_row(j.id), :, 0].tobytes(),
                  T.feasible[T.singleton_row(j.id)].tobytes(), j.scale_factor, j.weight)
                 for j in jobs}
        (lp,) = lps
        assert len(cluster.types) == 3 and len(alike) < 2048 // 10
        assert len(lp.constraints) == 2 * len(alike) + 3
        assert res.objective == lp.objective @ solve_lp(lp).x

        cluster, jobs, T, _ = _static_decision(200)
        space = ProblemSpace(jobs, T)
        res = max_min_fairness(space)
        assert abs(res.objective - solve_lp(reference_las_lp(space)).objective_value) <= OPT_TOL


def test_warm_level_lps_halve_a_paper_scale_hierarchical_decision(monkeypatch):
    """A static seed-7 `hier:fair` decision over 50 jobs of 3 entities on
    the 108-worker cluster makes fewer than half the pivots (the crashes'
    included) that it makes when every level LP runs a cold phase 1, and
    returns the same objective."""
    cluster, jobs, T, entities = _static_decision(50, entities=3)
    pivots = [0]
    pivot = hetsched.lp._pivot

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    def decide():
        pivots[0] = 0
        res = solve_policy(parse_policy("hier:fair"), jobs, cluster, T, entities)
        return res, pivots[0]

    monkeypatch.setattr(hetsched.lp, "_pivot", counted)
    warm, warm_pivots = decide()
    monkeypatch.setattr(hetsched.lp._Standardized, "start_at", lambda self, x: False)
    cold, cold_pivots = decide()
    assert len(warm.iterations) == len(cold.iterations) > 30
    assert warm.objective == cold.objective
    assert warm_pivots < cold_pivots / 2, (warm_pivots, cold_pivots)


def _static_decision(n: int, entities: int = 0):
    """The cluster, jobs, matrix and entities of the first decision of a
    static seed-7 trace of n jobs, spread over `entities` entities, on the
    CLI's default 108-worker cluster, every job active and none started."""
    from hetsched import cli
    from hetsched.simulator import SimConfig, Simulation, _ActiveJob, _job_of
    from hetsched.traces import generate_trace, load_catalog

    catalog = load_catalog()
    cluster = make_cluster(cli.CLUSTER_PRESETS["simulated"][0], costs=cli.DEFAULT_COSTS,
                           workers_per_server=cli.DEFAULT_SERVERS)
    trace = generate_trace("static", n, catalog, seed=7, num_entities=entities)
    sim = Simulation(SimConfig(cluster=cluster, policy=parse_policy("las"), seed=7),
                     trace, catalog)
    jobs = [_job_of(e, k) for k, e in enumerate(trace.entries)]
    states = [_ActiveJob(j, sim.templates[j.name], sim._rates(j, sim.templates[j.name]))
              for j in jobs]
    return cluster, jobs, sim.build_matrix(states)[0], trace.entities


class TestFifo:
    @pytest.mark.parametrize("cells, scale_factor", [
        ([[(2.0,), (1.0,)], [(0.0,), None]], 1),
        ([[(2.0,), (1.0,)], [(3.0,), (0.0,)]], 2),
    ], ids=["zero-rates", "positive-cell-too-small"])
    def test_job_without_positive_runnable_cell_raises(self, cells, scale_factor):
        # `ProblemSpace` rejects job 1 before fifo divides by its fastest
        # rate: it has no positive feasible cell that fits its workers.
        cluster = make_cluster({"fast": 1, "slow": 2})
        T = ThroughputMatrix.from_cells(
            cluster, [JobCombination.of(0), JobCombination.of(1)], cells)
        jobs = [Job(id=0, num_steps=10), Job(id=1, num_steps=10,
                                             scale_factor=scale_factor)]
        with pytest.raises(ZeroThroughputError, match="job 1"):
            solve_policy(parse_policy("fifo"), jobs, cluster, T)

    def test_single_job_takes_fastest(self):
        cluster = make_cluster({"fast": 1, "slow": 1})
        T = singles(cluster, [[4.0, 1.0]])
        X = fifo(ProblemSpace([Job(id=0, num_steps=10)], T)).allocation
        assert X.values[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_earlier_job_wins_single_worker(self):
        cluster = make_cluster({"fast": 1})
        T = singles(cluster, [[2.0], [2.0]])
        jobs = [Job(id=0, num_steps=10, arrival_time=0.0),
                Job(id=1, num_steps=10, arrival_time=5.0)]
        X = fifo(ProblemSpace(jobs, T)).allocation
        assert X.values[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert X.values[1, 0] == pytest.approx(0.0, abs=1e-6)

    def test_enough_capacity_everyone_on_fast(self):
        M = 3
        cluster = make_cluster({"fast": M, "slow": M})
        T = singles(cluster, [[4.0, 1.0]] * M)
        jobs = [Job(id=i, num_steps=10, arrival_time=float(i)) for i in range(M)]
        res = fifo(ProblemSpace(jobs, T))
        assert res.objective == pytest.approx(sum(M - m for m in range(M)), abs=1e-6)
        assert np.allclose(res.allocation.values[:, 0], 1.0, atol=1e-6)


class TestSjf:
    def test_shortest_gets_cluster(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0], [1.0]])
        jobs = [Job(id=0, num_steps=100), Job(id=1, num_steps=1000)]
        res = shortest_job_first(ProblemSpace(jobs, T))
        assert res.objective == pytest.approx(100.0)
        assert res.allocation.values[0, 0] == pytest.approx(1.0)
        assert res.allocation.values[1, 0] == pytest.approx(0.0)

    def test_duration_not_steps_decides(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0], [0.05]])
        jobs = [Job(id=0, num_steps=100), Job(id=1, num_steps=10)]
        res = shortest_job_first(ProblemSpace(jobs, T))
        # job0: 100 s; job1: 200 s.
        assert res.objective == pytest.approx(100.0)
        assert res.allocation.values[0, 0] == pytest.approx(1.0)

    def test_builds_no_lp(self, three_job_instance, monkeypatch):
        cluster, T, _ = three_job_instance
        jobs = [Job(id=i, num_steps=n) for i, n in enumerate((300, 100, 200))]
        lps = []
        monkeypatch.setattr(hetsched.policies, "solve_lp", lps.append)
        res = shortest_job_first(ProblemSpace(jobs, T))
        assert lps == []
        # Job 1 finishes first (100 / 3 s); its allocation is the solution
        # of the LP that gives it the whole cluster, byte for byte.
        alone = reference_standalone(T, jobs[1])
        assert res.objective == 100 / alone.objective_value
        assert np.array_equal(res.allocation.values[1], alone.x)
        assert not res.allocation.values[[0, 2]].any()

    def test_matches_exhaustive_minimum(self):
        rng = np.random.default_rng(0)
        cluster = make_cluster({"A": 1, "B": 1})
        for _ in range(10):
            thr = rng.uniform(0.5, 4.0, size=(3, 2))
            steps = rng.integers(10, 500, size=3)
            T = singles(cluster, thr.tolist())
            jobs = [Job(id=i, num_steps=int(steps[i])) for i in range(3)]
            duration = shortest_job_first(ProblemSpace(jobs, T)).objective
            expected = min(steps[i] / thr[i].max() for i in range(3))
            assert duration == pytest.approx(expected, rel=1e-6)


class TestFastestCell:
    """`fastest_cell` is the closed form of the LP that gives one job the
    whole cluster (`reference_standalone`): the same rate and time shares,
    bit for bit, on runnable matrices."""

    @staticmethod
    def runnable_instance(rng):
        """A `random_cells` matrix through `runnable`, some singleton rows
        given a tie for their best rate and some only rates near `OPT_TOL`."""
        cluster, rows, cells, jobs = random_cells(rng)
        for r, combo in enumerate(rows):
            if combo.is_pair:
                continue
            if rng.random() < 0.3:
                best = max(cells[r], key=lambda cell: cell[0] if cell else -1.0)
                cells[r][int(rng.integers(len(cells[r])))] = best
            elif rng.random() < 0.2:
                cells[r] = [None if rng.random() < 0.3 else
                            (float(rng.choice([0.0, 0.5, 1.0, 1.5])) * OPT_TOL,)
                            for _ in cells[r]]
        T = ThroughputMatrix.from_cells(cluster, rows, cells)
        by_id = {j.id: j for j in jobs}
        return runnable(T, by_id, space_sharing=bool(rng.random() < 0.5)), jobs

    def test_matches_the_standalone_lp_bit_for_bit(self):
        rng = np.random.default_rng(2020)
        seen = Counter()
        for _ in range(400):
            T, jobs = self.runnable_instance(rng)
            for j in jobs:
                cell, rate = fastest_cell(T, j.id)
                ref = reference_standalone(T, j)
                assert ref.optimal
                assert np.float64(rate).tobytes() == \
                    np.float64(ref.objective_value).tobytes()
                x = np.zeros(T.num_configs)
                seen["aware"] += T.cluster.placement_aware
                if cell is None:
                    seen["no cell"] += 1
                else:
                    r, c = divmod(cell, T.num_configs)
                    assert r == T.singleton_row(j.id)
                    x[c] = 1.0
                    seen["tie"] += np.count_nonzero(T.thr[r, :, 0] == rate) > 1
                    # The LP's capacity row ties its budget row here.
                    seen["full type"] += (T.cluster.types[T.type_of[c]].num_workers
                                          == j.scale_factor)
                assert x.tobytes() == ref.x.tobytes()
        # Every case the closed form must get right occurred.
        assert min(seen[k] for k in ("no cell", "tie", "aware", "full type")) > 0, seen


class TestMakespan:
    def test_single_job_exact(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0]])
        M = min_makespan(ProblemSpace([Job(id=0, num_steps=100)], T)).objective
        assert M == pytest.approx(100.0, rel=1e-9)

    def test_two_identical_jobs_serialize(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0], [1.0]])
        jobs = [Job(id=i, num_steps=100) for i in range(2)]
        M = min_makespan(ProblemSpace(jobs, T)).objective
        assert M == pytest.approx(200.0, rel=1e-9)

    def test_matches_grid_oracle(self):
        inst = OracleInstance(T=np.array([[2.0, 1.0], [1.0, 1.0]]),
                              steps=np.array([200.0, 100.0]),
                              weights=np.ones(2), elapsed=np.zeros(2),
                              iso_elapsed=np.zeros(2))
        cluster = make_cluster({"A": 1, "B": 1})
        T = singles(cluster, inst.T.tolist())
        jobs = [Job(id=i, num_steps=int(inst.steps[i])) for i in range(2)]
        M = min_makespan(ProblemSpace(jobs, T)).objective
        # Job 0 alone on A and job 1 alone on B both finish at exactly 100.
        assert M == pytest.approx(100.0, rel=1e-9)
        assert M == pytest.approx(oracle_makespan(inst), rel=0.01)

    def test_remaining_steps_used(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0]])
        job = Job(id=0, num_steps=100, steps_done=50.0)
        M = min_makespan(ProblemSpace([job], T)).objective
        assert M == pytest.approx(50.0, rel=1e-9)


class TestFtf:
    def test_fresh_jobs_reduce_to_las(self, three_job_instance):
        cluster, T, jobs = three_job_instance
        rho = finish_time_fairness(ProblemSpace(jobs, T)).objective
        las_obj = max_min_fairness(ProblemSpace(jobs, T)).objective
        # With no history, minimizing max rho is maximizing min normalized
        # throughput: rho* = iso_share / las_obj with iso = equal/n.
        assert rho == pytest.approx(1 / (3 * las_obj), rel=1e-2)

    def test_single_job_full_cluster(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[2.0]])
        X = finish_time_fairness(ProblemSpace([Job(id=0, num_steps=100)], T)).allocation
        assert X.values[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_matches_grid_oracle_with_history(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            T_vals = rng.uniform(0.5, 4.0, size=(2, 2))
            steps = rng.integers(100, 2000, size=2).astype(float)
            elapsed = rng.uniform(0, 1000, size=2)
            inst = OracleInstance(T=T_vals, steps=steps, weights=np.ones(2),
                                  elapsed=elapsed, iso_elapsed=elapsed.copy())
            cluster = make_cluster({"A": 1, "B": 1})
            T = singles(cluster, T_vals.tolist())
            jobs = [Job(id=i, num_steps=int(steps[i]),
                        elapsed_time=float(elapsed[i]),
                        isolated_elapsed_time=float(elapsed[i]))
                    for i in range(2)]
            rho = finish_time_fairness(ProblemSpace(jobs, T)).objective
            assert rho == pytest.approx(oracle_ftf(inst), rel=0.01)

    def test_keeps_the_last_allocation_when_an_lp_does_not_lower_rho(
            self, three_job_instance, monkeypatch):
        # The second LP's answer starves every job, so its rho is infinite.
        cluster, T, jobs = three_job_instance
        space = ProblemSpace(jobs, T)
        solved = []

        def solve(lp):
            res = solve_lp(lp) if not solved else SolveResult(
                Status.OPTIMAL, np.zeros(lp.num_vars), 0.0)
            solved.append(res)
            return res

        monkeypatch.setattr(hetsched.policies, "solve_lp", solve)
        res = finish_time_fairness(space)
        first = space.allocation(solved[0].x)
        assert len(solved) == 2
        assert res.allocation.values.tobytes() == first.values.tobytes()
        assert res.objective == ftf_rho(space, first) < np.inf

    def test_non_optimal_lp_raises(self, three_job_instance, monkeypatch):
        cluster, T, jobs = three_job_instance
        monkeypatch.setattr(hetsched.policies, "solve_lp",
                            lambda lp: SolveResult(Status.INFEASIBLE))
        with pytest.raises(PolicyInfeasibleError, match="finish-time fairness"):
            finish_time_fairness(ProblemSpace(jobs, T))

    def test_small_ratio_matches_grid_oracle(self):
        # rho* is about 0.011, where a bisection that stops at an absolute
        # width of 1e-3 can answer 9% high.
        inst = OracleInstance(T=np.array([[4.0, 1.0], [3.0, 1.0]]),
                              steps=np.array([1000.0, 1000.0]), weights=np.ones(2),
                              elapsed=np.zeros(2), iso_elapsed=np.full(2, 40000.0))
        T = singles(make_cluster({"A": 1, "B": 1}), inst.T.tolist())
        jobs = [Job(id=i, num_steps=1000, isolated_elapsed_time=40000.0)
                for i in range(2)]
        rho = finish_time_fairness(ProblemSpace(jobs, T)).objective
        assert rho == pytest.approx(oracle_ftf(inst), rel=1e-3)

    def test_at_most_the_bisection(self):
        # Up to 4 jobs on up to 3 types, half with history; the bisection
        # (`reference_ftf`) returns the upper end of its last bracket.
        rng = np.random.default_rng(26)
        for i in range(600):
            inst = random_instance(rng, max_jobs=4, max_types=3,
                                   with_history=(i % 2 == 0))
            T = singles(make_cluster({chr(65 + t): 1 for t in range(inst.num_types)}),
                        inst.T.tolist())
            space = ProblemSpace([
                Job(id=m, num_steps=int(inst.steps[m]),
                    elapsed_time=float(inst.elapsed[m]),
                    isolated_elapsed_time=float(inst.iso_elapsed[m]))
                for m in range(inst.num_jobs)], T)
            res = finish_time_fairness(space)
            res.allocation.validate()
            assert res.objective == ftf_rho(space, res.allocation)
            assert res.objective <= reference_ftf(space)[0]


    def test_matches_the_effective_throughput_loop_bit_for_bit(self):
        # `random_cells` instances, pair rows included, half with history:
        # the same allocation bytes and objective, or the same error, as the
        # loop that read each job's throughput from `effective_throughput`.
        rng = np.random.default_rng(37)
        seen = Counter()
        for _ in range(240):
            cluster, rows, cells, jobs = random_cells(rng)
            T = ThroughputMatrix.from_cells(cluster, rows, cells)
            history = rng.random() < 0.5
            jobs = [Job(id=j.id, scale_factor=j.scale_factor,
                        num_steps=int(rng.integers(100, 5000)),
                        elapsed_time=float(rng.uniform(0, 2000)) if history else 0.0,
                        isolated_elapsed_time=float(rng.uniform(0, 2000))
                        if history else 0.0)
                    for j in jobs]
            space = ProblemSpace(jobs, T)
            outcomes = []
            for policy in (finish_time_fairness, reference_finish_time_fairness):
                try:
                    res = policy(space)
                except (PolicyError, IterationLimitError) as e:
                    outcomes.append((type(e), str(e)))
                else:
                    outcomes.append((res.allocation.values.tobytes(),
                                     np.float64(res.objective).tobytes()))
            assert outcomes[0] == outcomes[1]
            seen["solved" if isinstance(outcomes[0][0], bytes) else "raised"] += 1
            seen["pairs"] += bool(T.is_pair.any())
        assert seen["solved"] >= 200 and seen["pairs"] >= 100, seen


class TestCost:
    def test_cheap_type_wins(self):
        cluster = make_cluster({"V100": 1, "K80": 1},
                               costs={"V100": 3.0, "K80": 0.5})
        T = singles(cluster, [[4.0, 1.0]])
        res = min_cost(ProblemSpace([Job(id=0, num_steps=3000)], T))
        assert res.objective == pytest.approx(2.0, abs=1e-6)
        assert res.allocation.values[0, 1] == pytest.approx(1.0, abs=1e-6)
        assert res.violations == []

    def test_slo_forces_fast_share(self):
        cluster = make_cluster({"V100": 1, "K80": 1},
                               costs={"V100": 3.0, "K80": 0.5})
        T = singles(cluster, [[4.0, 1.0]])
        job = Job(id=0, num_steps=3000, slo_seconds=1000.0)
        res = min_cost_slo(ProblemSpace([job], T))
        X = res.allocation
        thr = effective_throughput(0, X, X.T)
        assert thr >= 3.0 - 1e-6
        assert X.values[0, 0] >= 2 / 3 - 1e-6
        assert res.objective < 2.0

    def test_impossible_slo_lists_jobs(self):
        cluster = make_cluster({"V100": 1}, costs={"V100": 3.0})
        T = singles(cluster, [[1.0], [1.0]])
        jobs = [Job(id=0, num_steps=100, slo_seconds=1e9),
                Job(id=1, num_steps=10_000, slo_seconds=10.0)]
        with pytest.raises(InfeasibleSloError) as exc:
            min_cost_slo(ProblemSpace(jobs, T))
        assert exc.value.job_ids == [1]

    def test_elapsed_slo_clamped_and_flagged(self):
        cluster = make_cluster({"V100": 1}, costs={"V100": 3.0})
        T = singles(cluster, [[1.0]])
        job = Job(id=0, num_steps=100, slo_seconds=100.0, elapsed_time=200.0)
        assert min_cost_slo(ProblemSpace([job], T)).violations == [0]

    def test_zero_cost_type_takes_everything(self):
        cluster = make_cluster({"free": 1, "paid": 1},
                               costs={"free": 0.0, "paid": 1.0})
        T = singles(cluster, [[1.0, 2.0]])
        res = min_cost(ProblemSpace([Job(id=0, num_steps=100)], T))
        assert res.objective == float("inf")
        assert res.allocation.values[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert res.allocation.values[0, 1] == pytest.approx(0.0, abs=1e-6)

    def test_rate_below_tolerance_scores_zero(self):
        # The simplex prices a rate at or below OPT_TOL as 0, so the first
        # LP's optimum runs nothing and costs nothing: no ratio beats 0.
        cluster = make_cluster({"V100": 1, "K80": 1},
                               costs={"V100": 1.0, "K80": 2.0})
        T = singles(cluster, [[OPT_TOL / 10, 0.0]])
        res = solve_policy(parse_policy("cost"), [Job(id=0, num_steps=10)],
                           cluster, T)
        assert res.objective == 0.0

    def test_matches_charnes_cooper_reference(self):
        # Seeded `random_cells` instances, about one in five with a free
        # type, half with SLOs asking a share of each job's best rate.  Where
        # the Charnes-Cooper LP the policy once solved has an optimum, the
        # objective matches it; where it found no finite ratio, it is inf.
        seen = Counter()
        for seed in range(400):
            rng = np.random.default_rng(9000 + seed)
            cluster, rows, cells, jobs = random_cells(rng)
            T = ThroughputMatrix.from_cells(random_costs(rng, cluster), rows, cells)
            T_run = runnable(T, {j.id: j for j in jobs}, True)
            slo = seed % 2 == 1
            if slo:
                best = {j.id: fastest_cell(T_run, j.id)[1] for j in jobs}
                jobs = [Job(id=j.id, scale_factor=j.scale_factor, num_steps=1000,
                            slo_seconds=1000 / (float(rng.uniform(0.1, 0.9))
                                                * best[j.id])
                            if best[j.id] > 0 and rng.random() < 0.5 else None)
                        for j in jobs]
            try:
                space = ProblemSpace(jobs, T_run)
            except ZeroThroughputError:
                continue
            required = {k: j.remaining_steps / (j.slo_seconds - j.elapsed_time)
                        for k, j in enumerate(space.jobs) if j.slo_seconds}
            num = sum((space.rates(j.id) for j in space.jobs),
                      np.zeros(space.n_cells))
            costs = [T.cluster.types[cfg.type_id].cost_per_hour
                     for cfg in T_run.configs]
            den = np.outer(space.row_sf, costs).ravel()
            lp = space.lp(num)
            lp.add_rows(space.rate_rows(space.n_cells).take(list(required)),
                        [Relation.GE] * len(required), list(required.values()))
            try:
                ref = reference_maximize_ratio(lp, den)
            except RatioUnboundedError:
                ref = None
            spec = PolicySpec(PolicyKind.MIN_COST_SLO if slo else PolicyKind.MIN_COST,
                              space_sharing=True)
            seen["checked"] += 1
            seen["slo"] += bool(required)
            if ref is not None and not ref.optimal:
                with pytest.raises(PolicyInfeasibleError):
                    solve_policy(spec, jobs, T.cluster, T)
                seen["infeasible"] += 1
                continue
            res = solve_policy(spec, jobs, T.cluster, T)
            X = res.allocation
            for k, rate in required.items():
                assert effective_throughput(space.jobs[k].id, X, X.T) >= rate - 1e-9
            x = X.values.ravel()
            if ref is None:
                assert res.objective == float("inf") and den @ x == 0
                seen["inf"] += 1
            else:
                assert res.objective == pytest.approx(ref.objective_value, rel=1e-9)
                assert res.objective == float(num @ x) / float(den @ x)
        assert seen["checked"] >= 300 and seen["slo"] >= 100, seen
        assert seen["inf"] >= 20 and seen["infeasible"] >= 1, seen


class TestMaxThroughput:
    def test_two_jobs_two_types(self):
        cluster = make_cluster({"V100": 1, "K80": 1})
        T = singles(cluster, [[4.0, 1.0], [3.0, 1.0]])
        res = max_total_throughput(ProblemSpace(
            [Job(id=0, num_steps=10), Job(id=1, num_steps=10)], T))
        assert res.objective == pytest.approx(5.0, abs=1e-6)
        assert res.allocation.values[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert res.allocation.values[1, 1] == pytest.approx(1.0, abs=1e-6)


class TestDispatchAndParsing:
    def test_parse_policy_strings(self):
        assert parse_policy("las").kind is PolicyKind.MAX_MIN_FAIRNESS
        spec = parse_policy("las+ss")
        assert spec.space_sharing and not spec.water_filling
        spec = parse_policy("las+ss+wf")
        assert spec.space_sharing and spec.water_filling
        spec = parse_policy("hier:fair/fifo")
        assert spec.kind is PolicyKind.HIERARCHICAL
        assert parse_policy("wlas") == parse_policy("las")
        for bad in ("hier:fair/bogus", "las:fair", "las+pa", "hier+wf",
                    "hier:fair+wf", "fifo+wf",
                    "makespan+wf", "ftf+wf", "sjf+wf", "throughput+wf",
                    "cost+wf", "cost_slo+wf"):
            with pytest.raises(ValueError):
                parse_policy(bad)
        assert parse_policy("cost_slo").kind is PolicyKind.MIN_COST_SLO
        with pytest.raises(ValueError):
            parse_policy("nonsense")
        with pytest.raises(ValueError):
            parse_policy("las+bogus")

    def test_single_job_single_worker_all_policies(self):
        cluster = make_cluster({"gpu": 1}, costs={"gpu": 1.0})
        T = singles(cluster, [[2.0]])
        jobs = [Job(id=0, num_steps=100)]
        for text in ("las", "fifo", "sjf", "makespan", "ftf", "throughput",
                     "cost"):
            result = solve_policy(parse_policy(text), jobs, cluster, T)
            assert result.allocation.values[0, 0] == pytest.approx(1.0, abs=1e-3), text

    def test_space_sharing_rows_filtered_when_disabled(self):
        cluster = make_cluster({"gpu": 1})
        rows = [JobCombination.of(0), JobCombination.of(1), JobCombination.of(0, 1)]
        T = ThroughputMatrix.from_cells(cluster, rows,
                                        [[(1.0,)], [(1.0,)], [(0.9, 0.9)]])
        jobs = [Job(id=0, num_steps=10), Job(id=1, num_steps=10)]
        res = solve_policy(parse_policy("las"), jobs, cluster, T)
        assert all(not c.is_pair for c in res.allocation.rows)
        res_ss = solve_policy(parse_policy("las+ss"), jobs, cluster, T)
        assert any(c.is_pair for c in res_ss.allocation.rows)

    def test_colocation_dominance_on_fixture(self):
        cluster = make_cluster({"gpu": 1})
        rows = [JobCombination.of(0), JobCombination.of(1), JobCombination.of(0, 1)]
        T = ThroughputMatrix.from_cells(cluster, rows,
                                        [[(1.0,)], [(1.0,)], [(0.8, 0.8)]])
        jobs = [Job(id=0, num_steps=10), Job(id=1, num_steps=10)]
        plain = solve_policy(parse_policy("las"), jobs, cluster, T)
        shared = solve_policy(parse_policy("las+ss"), jobs, cluster, T)
        assert shared.objective >= plain.objective - 1e-9


    def test_hierarchical_rejects_unlisted_entity(self, three_job_instance):
        cluster, T, _ = three_job_instance
        jobs = [Job(id=0, num_steps=10, entity_id=0),
                Job(id=1, num_steps=10, entity_id=0),
                Job(id=2, num_steps=10, entity_id=7)]
        with pytest.raises(PolicyError, match=r"jobs \[2\]"):
            solve_policy(parse_policy("hier:fair"), jobs, cluster, T,
                         entities=[Entity(0)])


class TestScaleFactor:
    def test_las_equalizes_scaled_terms(self):
        cluster = make_cluster({"gpu": 3})
        rows = [JobCombination.of(0), JobCombination.of(1)]
        # Throughput proportional to worker count for the 2-worker job.
        T = ThroughputMatrix.from_cells(cluster, rows, [[(1.0,)], [(2.0,)]])
        jobs = [Job(id=0, num_steps=100, scale_factor=1),
                Job(id=1, num_steps=100, scale_factor=2)]
        X = max_min_fairness(ProblemSpace(jobs, T)).allocation
        Xeq = equal_share_allocation(X.T)
        terms = []
        for j in jobs:
            norm = effective_throughput(j.id, X, X.T) / \
                effective_throughput(j.id, Xeq, X.T)
            terms.append(norm * j.scale_factor / j.weight)
        assert terms[0] == pytest.approx(terms[1], abs=1e-4)
