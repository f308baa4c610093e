"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s to see them).  Tolerances are fixed here,
not tuned at runtime.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from hetsched.cluster import make_cluster
from hetsched.jobs import Entity, EntityPolicy, Job, JobCombination
from hetsched.matrices import ThroughputMatrix, effective_throughput
from hetsched.mechanism import (CompiledAllocation, RoundLedger,
                                compute_priorities, plan_round, settle_round)
from hetsched.policies import (ProblemSpace, fifo, finish_time_fairness,
                               max_min_fairness, min_cost, min_makespan,
                               parse_policy, solve_policy)
from hetsched.estimator import DEFAULT_ITERS, complete_matrix
from hetsched.simulator import EstimatorConfig, SimConfig, Simulation
from hetsched.traces import generate_trace, load_catalog
from hetsched.waterfill import (DELTA_FRACTION, find_bottlenecks, max_gain,
                                single_level_waterfill)

import oracles
from oracles import (OracleInstance, allocation, equal_share_allocation,
                     gain_state, isolated_allocation, oracle_cost, oracle_ftf,
                     oracle_las, oracle_fifo, oracle_makespan, random_instance,
                     reference_space_lp)


def singles(cluster, T_rows):
    rows = [JobCombination.of(i) for i in range(len(T_rows))]
    entries = [[(float(v),) if v > 0 else None for v in row] for row in T_rows]
    return ThroughputMatrix.from_cells(cluster, rows, entries)


def inst_to_matrix(inst):
    cluster = make_cluster({chr(65 + j): 1 for j in range(inst.num_types)},
                           costs={chr(65 + j): float(c) for j, c in
                                  enumerate(inst.costs)} if inst.costs.size else None)
    return cluster, singles(cluster, inst.T.tolist())


def inst_to_jobs(inst):
    return [Job(id=i, num_steps=int(inst.steps[i]), weight=float(inst.weights[i]),
                arrival_time=float(i), elapsed_time=float(inst.elapsed[i]),
                isolated_elapsed_time=float(inst.iso_elapsed[i]))
            for i in range(inst.num_jobs)]


def throughputs(jobs, X, T):
    return {j.id: effective_throughput(j.id, X, T) for j in jobs}


def test_criterion_1_las_worked_example():
    t0 = time.perf_counter()
    cluster = make_cluster({"V100": 1, "K80": 1})
    T = singles(cluster, [[4.0, 1.0], [3.0, 1.0], [2.0, 1.0]])
    jobs = [Job(id=i, num_steps=1000) for i in range(3)]
    res = max_min_fairness(ProblemSpace(jobs, T))
    X, objective = res.allocation, res.objective
    elapsed = time.perf_counter() - t0

    Xeq = equal_share_allocation(T)
    normalized = [effective_throughput(j.id, X, T)
                  / effective_throughput(j.id, Xeq, T) for j in jobs]
    iso_value = 0.667  # normalized throughput under a 1/3 time share

    assert objective == pytest.approx(0.727, abs=0.01)
    assert min(normalized) == pytest.approx(0.727, abs=0.01)
    for v in normalized:
        assert v >= 1.10 * iso_value - 0.01
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - min normalized throughput "
          f"{min(normalized):.4f} (0.727 +/- 0.01), all jobs >= "
          f"{1.10 * iso_value - 0.01:.4f}, runtime {elapsed:.3f}s < 1s")


def test_criterion_2_water_filling_example():
    t0 = time.perf_counter()
    cluster = make_cluster({"gpu": 4})
    T = singles(cluster, [[2.0]] * 4)
    jobs = [Job(id=i, num_steps=1000, weight=(3.0 if i == 0 else 1.0))
            for i in range(4)]
    result = single_level_waterfill(ProblemSpace(jobs, T))
    elapsed = time.perf_counter() - t0

    first = result.iterations[0]
    expect_first = [1.0, 1 / 3, 1 / 3, 1 / 3]
    for i in range(4):
        assert first.normalized[i] == pytest.approx(expect_first[i], abs=1e-3)
    assert first.bottlenecks == {0}, "the weight-3 job bottlenecks first"
    for i in range(4):
        assert result.iterations[-1].normalized[i] == pytest.approx(1.0, abs=1e-3)
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2: PASS - iteration 1 normalized "
          f"{[round(float(first.normalized[i]), 4) for i in range(4)]}, bottleneck "
          f"{sorted(first.bottlenecks)}, final all 1.0, runtime {elapsed:.2f}s < 5s")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = {"las": 0, "fifo": 0, "makespan": 0, "ftf": 0, "cost": 0}
    worst = {k: 0.0 for k in checked}
    for i in range(200):
        inst = random_instance(rng, max_jobs=3, max_types=2,
                               with_history=(i % 3 == 0), with_costs=True)
        cluster, T = inst_to_matrix(inst)
        jobs = inst_to_jobs(inst)
        space = ProblemSpace(jobs, T)

        las_obj = max_min_fairness(space).objective
        gap = abs(las_obj - oracle_las(inst))
        worst["las"] = max(worst["las"], gap)
        assert gap <= 0.01, f"LAS gap {gap} on instance {i}"
        checked["las"] += 1

        fifo_obj = fifo(space).objective
        gap = abs(fifo_obj - oracle_fifo(inst))
        worst["fifo"] = max(worst["fifo"], gap)
        assert gap <= 0.01, f"FIFO gap {gap} on instance {i}"
        checked["fifo"] += 1

        fresh = [dataclasses.replace(j, elapsed_time=0.0,
                                     isolated_elapsed_time=0.0) for j in jobs]
        M = min_makespan(ProblemSpace(fresh, T)).objective
        oM = oracle_makespan(inst)
        rel = abs(M - oM) / oM
        worst["makespan"] = max(worst["makespan"], rel)
        assert rel <= 0.005, f"makespan rel gap {rel} on instance {i}"
        checked["makespan"] += 1

        rho = finish_time_fairness(space).objective
        orho = oracle_ftf(inst)
        rel = abs(rho - orho) / orho
        worst["ftf"] = max(worst["ftf"], rel)
        assert rel <= 0.005, f"FTF rel gap {rel} on instance {i}"
        checked["ftf"] += 1

        ratio = min_cost(space).objective
        gap = abs(ratio - oracle_cost(inst))
        worst["cost"] = max(worst["cost"], gap)
        assert gap <= 0.01, f"cost gap {gap} on instance {i}"
        checked["cost"] += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert all(v == 200 for v in checked.values())
    print(f"\nACCEPTANCE 3: PASS - 200 instances x 5 policies vs grid/vertex "
          f"oracles; worst gaps {dict((k, round(float(v), 5)) for k, v in worst.items())}, "
          f"runtime {elapsed:.1f}s < 120s")


def _enumerate_bottlenecks(jobs, X_prev, T, weights):
    from hetsched.lp import Relation, Status, solve_lp
    from hetsched.policies import ProblemSpace
    space = ProblemSpace(jobs, T)
    active = [j for j in space.jobs if weights.get(j.id, 0.0) > 0]
    thr_prev = {j.id: effective_throughput(j.id, X_prev, T) for j in space.jobs}
    best = None
    for bits in itertools.product((0, 1), repeat=len(active)):
        rows = [(space.rates(j.id), Relation.GE, thr_prev[j.id])
                for j in space.jobs]
        for z, j in zip(bits, active):
            Y = space.best[j.id]
            if z == 1:
                rows.append((space.rates(j.id), Relation.GE,
                             thr_prev[j.id] + DELTA_FRACTION * Y))
            else:
                rows.append((space.rates(j.id), Relation.LE,
                             thr_prev[j.id]))
        lp = reference_space_lp(space, np.zeros(space.n_cells), rows)
        if solve_lp(lp).status is Status.OPTIMAL:
            cand = sum(bits)
            if best is None or cand > best[0]:
                best = (cand, bits)
    stuck = {j.id for z, j in zip(best[1], active) if z == 0}
    gain = max_gain(space, thr_prev, [j.id for j in active if j.id not in stuck],
                    gain_state(space, thr_prev))
    for job_id, g in gain.items():
        delta = DELTA_FRACTION * space.best[job_id]
        if g < 0.5 * delta:
            stuck.add(job_id)
    return stuck


def test_criterion_4_bottleneck_milp_vs_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    for i in range(100):
        M = int(rng.integers(2, 9))
        J = int(rng.integers(1, 3))
        cluster = make_cluster({chr(65 + j): int(rng.integers(1, 3))
                                for j in range(J)})
        vals = rng.uniform(0.5, 4.0, size=(M, J))
        T = singles(cluster, vals.tolist())
        jobs = [Job(id=m, num_steps=100) for m in range(M)]
        X = rng.uniform(0, 1, size=(M, J))
        caps = np.array([t.num_workers for t in cluster.types], dtype=float)
        X *= np.minimum(1.0, caps / np.maximum(X.sum(axis=0), 1e-9))
        X /= np.maximum(X.sum(axis=1, keepdims=True), 1.0)
        X_prev = allocation(T, X)
        weights = {m: 1.0 for m in range(M)}
        space = ProblemSpace(jobs, T)
        thr_prev = throughputs(jobs, X_prev, T)
        ours = find_bottlenecks(space, thr_prev, weights, gain_state(space, thr_prev))
        reference = _enumerate_bottlenecks(jobs, X_prev, T, weights)
        assert ours == reference, f"instance {i}: {ours} != {reference}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 4: PASS - bottleneck MILP == z-enumeration on 100 "
          f"instances (<= 8 jobs), runtime {elapsed:.1f}s < 120s")


def test_criterion_5_mechanism_fidelity():
    cluster = make_cluster({"V100": 1, "P100": 1, "K80": 1})
    T = singles(cluster, [[4.0, 2.0, 1.0]] * 3)
    jobs = {i: Job(id=i, num_steps=10 ** 9) for i in range(3)}
    X = allocation(T, np.array([[0.6, 0.4, 0.0],
                                [0.2, 0.6, 0.2],
                                [0.2, 0.0, 0.8]]), jobs)

    def error_after(rounds):
        ledger, decision = RoundLedger(360.0), CompiledAllocation(X)
        for _ in range(rounds):
            pr = compute_priorities(decision, ledger)
            plan = plan_round(pr, decision, ledger)
            settle_round(plan, ledger, T)
        F = ledger.received(T) / (rounds * 360.0)
        return np.abs(F - X.values).max()

    errs = {R: error_after(R) for R in (10, 20, 50, 200)}
    assert errs[20] <= 0.10
    assert errs[200] <= 0.03
    assert errs[10] >= errs[50] >= errs[200]
    print(f"\nACCEPTANCE 5: PASS - max-cell error {errs[20]:.4f} <= 0.10 @20 "
          f"rounds, {errs[200]:.4f} <= 0.03 @200, non-increasing over "
          f"{{10,50,200}}: {errs[10]:.4f} >= {errs[50]:.4f} >= {errs[200]:.4f}")


def _random_property_instance(rng, max_jobs=5, max_types=3):
    M = int(rng.integers(2, max_jobs + 1))
    J = int(rng.integers(1, max_types + 1))
    cluster = make_cluster({chr(65 + j): int(rng.integers(1, 4))
                            for j in range(J)})
    vals = rng.uniform(0.5, 5.0, size=(M, J))
    T = singles(cluster, vals.tolist())
    jobs = [Job(id=m, num_steps=int(rng.integers(50, 2000)),
                weight=float(rng.choice([1.0, 2.0, 3.0])),
                arrival_time=float(m)) for m in range(M)]
    return cluster, T, jobs


def test_criterion_6a_sharing_incentive():
    rng = np.random.default_rng(11)
    for _ in range(500):
        cluster, T, jobs = _random_property_instance(rng)
        n = len(jobs)
        Xiso = isolated_allocation(T, n)
        Xeq = equal_share_allocation(T)
        space = ProblemSpace(jobs, T)
        las_obj = max_min_fairness(space).objective
        iso_las = min(effective_throughput(j.id, Xiso, T)
                      / effective_throughput(j.id, Xeq, T) / j.weight
                      * j.scale_factor for j in jobs)
        assert las_obj >= iso_las - 1e-7
        fifo_obj = fifo(space).objective
        order = sorted(jobs, key=lambda j: (j.arrival_time, j.id))
        iso_fifo = sum((len(order) - k) * effective_throughput(j.id, Xiso, T)
                       / space.best[j.id] for k, j in enumerate(order))
        assert fifo_obj >= iso_fifo - 1e-7
        M = min_makespan(space).objective
        iso_makespan = max(j.remaining_steps
                           / effective_throughput(j.id, Xiso, T) for j in jobs)
        assert M <= iso_makespan * 1.001 + 1e-6
    print("\nACCEPTANCE 6a: PASS - sharing incentive (LAS, FIFO, makespan) "
          "on 500 instances")


def _classical_fair_split(weights, caps, capacity):
    """Single-resource weighted max-min with per-job caps (exact water fill)."""
    x = np.zeros(len(weights))
    active = list(range(len(weights)))
    remaining = capacity
    while active and remaining > 1e-12:
        denom = sum(weights[i] for i in active)
        level = remaining / denom
        capped = [i for i in active if weights[i] * level >= caps[i] - 1e-12]
        if not capped:
            for i in active:
                x[i] += weights[i] * level
            remaining = 0.0
            break
        for i in capped:
            take = caps[i] - x[i]
            x[i] = caps[i]
            remaining -= take
        active = [i for i in active if i not in capped]
    return x


def test_criterion_6b_homogeneous_reduction():
    rng = np.random.default_rng(12)
    for _ in range(500):
        M = int(rng.integers(2, 6))
        workers = int(rng.integers(1, 4))
        cluster = make_cluster({"gpu": workers})
        thr = float(rng.uniform(0.5, 5.0))
        T = singles(cluster, [[thr]] * M)
        jobs = [Job(id=m, num_steps=100,
                    weight=float(rng.choice([1.0, 2.0, 3.0]))) for m in range(M)]
        res = solve_policy(parse_policy("las+wf"), jobs, cluster, T)
        expected = _classical_fair_split([j.weight for j in jobs],
                                         np.ones(M), float(workers))
        assert np.abs(res.allocation.values[:, 0] - expected).max() <= 1e-4
    print("\nACCEPTANCE 6b: PASS - homogeneous clusters reduce to the "
          "classical weighted fair split on 500 instances")


def test_criterion_6c_colocation_dominance():
    rng = np.random.default_rng(13)
    for _ in range(500):
        M = int(rng.integers(2, 5))
        J = int(rng.integers(1, 3))
        cluster = make_cluster({chr(65 + j): 1 for j in range(J)})
        vals = rng.uniform(0.5, 5.0, size=(M, J))
        rows = [JobCombination.of(m) for m in range(M)]
        entries = [[(float(v),) for v in row] for row in vals]
        pair_members = sorted(rng.choice(M, size=2, replace=False).tolist())
        f1, f2 = rng.uniform(0.3, 1.0, size=2)
        pair_row = [(float(vals[pair_members[0], j] * f1),
                     float(vals[pair_members[1], j] * f2)) for j in range(J)]
        rows.append(JobCombination.of(*pair_members))
        entries.append(pair_row)
        T = ThroughputMatrix.from_cells(cluster, rows, entries)
        jobs = [Job(id=m, num_steps=100) for m in range(M)]
        plain = solve_policy(parse_policy("las"), jobs, cluster, T)
        shared = solve_policy(parse_policy("las+ss"), jobs, cluster, T)
        assert shared.objective >= plain.objective - 1e-7
    print("\nACCEPTANCE 6c: PASS - space sharing never hurts the LAS "
          "objective on 500 instances")


def test_criterion_6d_water_filling_pareto():
    rng = np.random.default_rng(14)
    for _ in range(500):
        cluster, T, jobs = _random_property_instance(rng, max_jobs=4,
                                                     max_types=2)
        space = ProblemSpace(jobs, T)
        result = single_level_waterfill(space)
        weights = {j.id: j.weight for j in jobs}
        thr = throughputs(jobs, result.allocation, T)
        stuck = find_bottlenecks(space, thr, weights, gain_state(space, thr))
        assert stuck == {j.id for j in jobs}
    print("\nACCEPTANCE 6d: PASS - water filling terminates Pareto-efficient "
          "(no job improvable) on 500 instances")


CLUSTER_108 = dict(counts={"V100": 36, "P100": 36, "K80": 36},
                   costs={"V100": 3.0, "P100": 1.5, "K80": 0.5},
                   workers_per_server={"V100": 4, "P100": 4, "K80": 8})
SWEEP_LAMBDAS_PER_HOUR = (24.0, 36.0, 48.0, 60.0)
SWEEP_SEEDS = (1, 2, 3)
SWEEP_JOBS = 120
SWEEP_DURATION_MEAN_MIN = 100.0


def test_criterion_7_directional_end_to_end():
    t0 = time.perf_counter()
    catalog = load_catalog()
    assert len(catalog) == 26
    cluster = make_cluster(CLUSTER_108["counts"], costs=CLUSTER_108["costs"],
                           workers_per_server=CLUSTER_108["workers_per_server"])
    lines = []
    for lam_h in SWEEP_LAMBDAS_PER_HOUR:
        means = {}
        for label, agnostic in (("aware", False), ("agnostic", True)):
            jcts = []
            for seed in SWEEP_SEEDS:
                trace = generate_trace(
                    "continuous", SWEEP_JOBS, catalog, seed=seed,
                    lambda_rate=lam_h / 3600.0,
                    duration_mean_minutes=SWEEP_DURATION_MEAN_MIN)
                cfg = SimConfig(cluster=cluster, policy=parse_policy("las"),
                                seed=seed, agnostic=agnostic,
                                recompute_every=10)
                jcts.append(Simulation(cfg, trace, catalog).run().avg_steady_jct)
            means[label] = float(np.mean(jcts))
        assert means["aware"] < means["agnostic"], \
            f"lambda {lam_h}/h: aware {means['aware']} >= {means['agnostic']}"
        lines.append(f"lam={lam_h}/h aware={means['aware']:.0f}s "
                     f"agnostic={means['agnostic']:.0f}s "
                     f"ratio={means['agnostic'] / means['aware']:.3f}")

    strace = generate_trace("static", 100, catalog, seed=5,
                            duration_mean_minutes=SWEEP_DURATION_MEAN_MIN)
    cfg_m = SimConfig(cluster=cluster, policy=parse_policy("makespan"),
                      seed=5, recompute_every=20)
    aware_makespan = Simulation(cfg_m, strace, catalog).run().makespan
    cfg_f = SimConfig(cluster=cluster, policy=parse_policy("fifo"), seed=5,
                      agnostic=True, recompute_every=20)
    fifo_makespan = Simulation(cfg_f, strace, catalog).run().makespan
    ratio = fifo_makespan / aware_makespan
    elapsed = time.perf_counter() - t0
    assert ratio >= 1.2, f"makespan ratio {ratio:.2f} < 1.2"
    assert elapsed < 600.0
    print("\nACCEPTANCE 7: PASS - aware LAS beats agnostic at every lambda "
          f"({'; '.join(lines)}); aware makespan {aware_makespan:.0f}s vs "
          f"agnostic FIFO {fifo_makespan:.0f}s = {ratio:.2f}x >= 1.2x; "
          f"runtime {elapsed:.0f}s < 600s")


def test_criterion_8_estimator():
    t0 = time.perf_counter()
    catalog = load_catalog()
    cluster = make_cluster({"V100": 4, "P100": 4, "K80": 4},
                           workers_per_server={"V100": 4, "P100": 4, "K80": 4})
    refs = [t.name for t in catalog[:8]]
    oracle_jcts, est_jcts = [], []
    for seed in (1, 2, 3):
        trace = generate_trace("continuous", 40, catalog, seed=seed,
                               lambda_rate=6 / 3600.0, single_worker=True,
                               duration_mean_minutes=80)
        base = SimConfig(cluster=cluster, policy=parse_policy("las+ss"),
                         seed=seed)
        oracle_jcts.append(Simulation(base, trace, catalog).run().avg_jct)
        est_cfg = dataclasses.replace(
            base, estimator=EstimatorConfig(reference_names=refs,
                                            profile_fraction=0.2))
        est_jcts.append(Simulation(est_cfg, trace, catalog).run().avg_jct)
    mean_oracle = float(np.mean(oracle_jcts))
    mean_est = float(np.mean(est_jcts))
    rel = abs(mean_est - mean_oracle) / mean_oracle
    assert rel < 0.10, f"estimated-throughput JCT off by {rel:.1%}"

    rng = np.random.default_rng(0)
    worst = 0.0
    for rank in (1, 2):
        for trial in range(5):
            U = rng.uniform(0.2, 1.0, size=(9, rank))
            V = rng.uniform(0.2, 1.0, size=(9, rank))
            truth = U @ V.T
            mask = rng.random((9, 9)) < 0.55
            mask[np.arange(9), np.arange(9)] = True
            completed = complete_matrix(truth, mask, rank=rank, reg=1e-4,
                                        iters=DEFAULT_ITERS, seed=trial)
            held = ~mask
            rmse = float(np.sqrt(np.mean((completed[held] - truth[held]) ** 2)))
            worst = max(worst, rmse / truth.mean())
            assert rmse < 0.1 * truth.mean()
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 8: PASS - estimated-throughput SS-LAS JCT within "
          f"{rel:.1%} of oracle (< 10%, 3 seeds); held-out completion RMSE "
          f"worst {worst:.3f} of mean (< 0.1); runtime {elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    from click.testing import CliRunner
    from hetsched.cli import main as cli_main
    runner = CliRunner()
    args = ["simulate", "--policy", "las", "--jobs", "10",
            "--lambda", "0.003", "--seeds", "4,5"]
    r1 = runner.invoke(cli_main, ["--out", str(tmp_path / "run1")] + args)
    r2 = runner.invoke(cli_main, ["--out", str(tmp_path / "run2")] + args)
    assert r1.exit_code == 0 and r2.exit_code == 0
    names = ["metrics_aware_seed4_lam0.003.csv",
             "metrics_aware_seed5_lam0.003.csv", "summary.json"]
    for name in names:
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical-seed runs"
    print("\nACCEPTANCE 9: PASS - identical seeds give byte-identical "
          "metrics files")
