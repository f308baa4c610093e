import itertools

import numpy as np
import pytest

from hetsched.cluster import make_cluster
from hetsched.jobs import Entity, EntityPolicy, Job, JobCombination
from hetsched.lp import LinearProgram, Relation, Status, solve_lp
from hetsched.matrices import AllocationMatrix, ThroughputMatrix, effective_throughput
from hetsched.policies import (PolicyInfeasibleError, ProblemSpace, parse_policy,
                               solve_policy)
from hetsched.waterfill import (DELTA_FRACTION, assign_job_weights,
                                find_bottlenecks, hierarchical_waterfill,
                                max_gain, single_level_waterfill)


def singles(cluster, T_rows):
    rows = [JobCombination.of(i) for i in range(len(T_rows))]
    entries = [[(float(v),) if v > 0 else None for v in row] for row in T_rows]
    return ThroughputMatrix.from_cells(cluster, rows, entries)


@pytest.fixture
def four_job_example():
    cluster = make_cluster({"gpu": 4})
    T = singles(cluster, [[2.0]] * 4)
    jobs = [Job(id=i, num_steps=1000, weight=(3.0 if i == 0 else 1.0))
            for i in range(4)]
    return cluster, T, jobs


def test_weighted_four_job_example(four_job_example):
    cluster, T, jobs = four_job_example
    result = single_level_waterfill(jobs, cluster, T)
    first = result.iterations[0]
    assert first.normalized[0] == pytest.approx(1.0, abs=1e-3)
    for i in (1, 2, 3):
        assert first.normalized[i] == pytest.approx(1 / 3, abs=1e-3)
    assert first.bottlenecks == {0}
    final = result.normalized
    for i in range(4):
        assert final[i] == pytest.approx(1.0, abs=1e-3)
    assert len(result.iterations) == 2


def test_fifo_entity_head_of_queue_takes_all():
    cluster = make_cluster({"gpu": 1})
    T = singles(cluster, [[1.0], [1.0]])
    entities = [Entity(0, 1.0, EntityPolicy.FIFO)]
    jobs = [Job(id=0, num_steps=100, entity_id=0, arrival_time=0.0),
            Job(id=1, num_steps=100, entity_id=0, arrival_time=5.0)]
    result = hierarchical_waterfill(entities, jobs, cluster, T)
    assert result.allocation.values[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert result.allocation.values[1, 0] == pytest.approx(0.0, abs=1e-6)


def test_two_entities_weighted_split():
    cluster = make_cluster({"gpu": 1})
    T = singles(cluster, [[1.0], [1.0]])
    entities = [Entity(0, 1.0), Entity(1, 2.0)]
    jobs = [Job(id=0, num_steps=100, entity_id=0),
            Job(id=1, num_steps=100, entity_id=1)]
    result = hierarchical_waterfill(entities, jobs, cluster, T)
    assert result.allocation.values[0, 0] == pytest.approx(1 / 3, abs=1e-4)
    assert result.allocation.values[1, 0] == pytest.approx(2 / 3, abs=1e-4)


def test_weight_redistribution_rules():
    entities = [Entity(0, 2.0, EntityPolicy.FAIRNESS),
                Entity(1, 1.0, EntityPolicy.FIFO)]
    jobs = [Job(id=0, entity_id=0, num_steps=10),
            Job(id=1, entity_id=0, num_steps=10),
            Job(id=2, entity_id=1, num_steps=10, arrival_time=1.0),
            Job(id=3, entity_id=1, num_steps=10, arrival_time=0.0)]
    w = assign_job_weights(entities, jobs, done=set())
    assert w[0] == pytest.approx(1.0) and w[1] == pytest.approx(1.0)
    assert w[3] == pytest.approx(1.0) and w[2] == 0.0
    w = assign_job_weights(entities, jobs, done={0, 3})
    assert w[1] == pytest.approx(2.0)
    assert w[2] == pytest.approx(1.0)
    # Entity weight is conserved over its active members.
    assert w[1] == entities[0].weight
    assert w[2] + w[3] * 0 == entities[1].weight


def enumerate_bottlenecks(jobs, X_prev, T, weights):
    """Exhaustive oracle over z vectors: try every improvement set, check
    feasibility with a plain LP, keep the largest (lex-smallest) one."""
    space = ProblemSpace(jobs, T)
    active = [j for j in space.jobs if weights.get(j.id, 0.0) > 0]
    thr_prev = {j.id: effective_throughput(j.id, X_prev, T) for j in space.jobs}
    best = None
    for bits in itertools.product((0, 1), repeat=len(active)):
        lp = LinearProgram(space.n_cells, np.zeros(space.n_cells),
                           maximize=True, lower=space.cell_bounds()[0],
                           upper=space.cell_bounds()[1])
        for j in space.jobs:
            lp.add_constraint(space.coeffs[j.id], Relation.GE, thr_prev[j.id])
        for z, j in zip(bits, active):
            Y = T.max_throughput(j.id)
            delta = DELTA_FRACTION * Y
            if z == 1:
                lp.add_constraint(space.coeffs[j.id], Relation.GE,
                                  thr_prev[j.id] + delta)
            else:
                lp.add_constraint(space.coeffs[j.id], Relation.LE,
                                  thr_prev[j.id])
        space.add_validity(lp)
        if solve_lp(lp).status is Status.OPTIMAL:
            cand = (sum(bits), tuple(-b for b in bits))
            if best is None or cand > best[0]:
                best = (cand, bits)
    stuck = {j.id for z, j in zip(best[1], active) if z == 0}
    # Same tolerance-artifact demotion as find_bottlenecks.
    for j in active:
        if j.id in stuck:
            continue
        delta = DELTA_FRACTION * T.max_throughput(j.id)
        if max_gain(space, thr_prev, j.id) < 0.5 * delta:
            stuck.add(j.id)
    return stuck


def test_bottlenecks_worked_example(four_job_example):
    cluster, T, jobs = four_job_example
    X_prev = AllocationMatrix(T, np.array([[1.0], [1 / 3], [1 / 3], [1 / 3]]))
    weights = {j.id: j.weight for j in jobs}
    assert find_bottlenecks(jobs, X_prev, T, weights) == {0}


def test_bottlenecks_saturated_cluster_all_stuck():
    cluster = make_cluster({"gpu": 2})
    T = singles(cluster, [[1.0], [1.0]])
    jobs = [Job(id=0, num_steps=10), Job(id=1, num_steps=10)]
    X_prev = AllocationMatrix(T, np.array([[1.0], [1.0]]))
    weights = {0: 1.0, 1: 1.0}
    assert find_bottlenecks(jobs, X_prev, T, weights) == {0, 1}


def test_bottlenecks_match_enumeration_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        M = int(rng.integers(2, 5))
        J = int(rng.integers(1, 3))
        cluster = make_cluster({chr(65 + j): 1 for j in range(J)})
        vals = rng.uniform(0.5, 4.0, size=(M, J))
        T = singles(cluster, vals.tolist())
        jobs = [Job(id=i, num_steps=100) for i in range(M)]
        # Previous allocation: random feasible point.
        X = rng.uniform(0, 1, size=(M, J))
        X /= np.maximum(X.sum(axis=0, keepdims=True), 1.0)  # columns <= 1
        X /= np.maximum(X.sum(axis=1, keepdims=True), 1.0)  # rows <= 1
        X_prev = AllocationMatrix(T, X)
        weights = {i: 1.0 for i in range(M)}
        ours = find_bottlenecks(jobs, X_prev, T, weights)
        oracle = enumerate_bottlenecks(jobs, X_prev, T, weights)
        assert ours == oracle


def test_pareto_on_termination(four_job_example):
    cluster, T, jobs = four_job_example
    result = single_level_waterfill(jobs, cluster, T)
    weights = {j.id: j.weight for j in jobs}
    stuck = find_bottlenecks(jobs, result.allocation, T, weights)
    assert stuck == {j.id for j in jobs}


def test_hierarchical_requires_entity_ids():
    cluster = make_cluster({"gpu": 1})
    T = singles(cluster, [[1.0]])
    jobs = [Job(id=0, num_steps=10)]
    spec = parse_policy("hier:fair")
    with pytest.raises(Exception):
        solve_policy(spec, jobs, cluster, T, entities=[Entity(0, 1.0)])


def test_hierarchical_via_solve_policy():
    cluster = make_cluster({"gpu": 1})
    T = singles(cluster, [[1.0], [1.0]])
    entities = [Entity(0, 1.0), Entity(1, 2.0)]
    jobs = [Job(id=0, num_steps=100, entity_id=0),
            Job(id=1, num_steps=100, entity_id=1)]
    res = solve_policy(parse_policy("hier:fair"), jobs, cluster, T,
                       entities=entities)
    assert res.allocation.values[1, 0] == pytest.approx(2 / 3, abs=1e-4)


def test_las_water_filling_flag_lifts_non_bottlenecks():
    # A job that cannot use the second worker leaves slack that plain
    # max-min may strand; water filling must hand it to the other job.
    cluster = make_cluster({"gpu": 2})
    T = singles(cluster, [[1.0], [1.0]])
    jobs = [Job(id=0, num_steps=100), Job(id=1, num_steps=100)]
    res = solve_policy(parse_policy("las+wf"), jobs, cluster, T)
    thr = {j.id: effective_throughput(j.id, res.allocation, res.allocation.T)
           for j in jobs}
    assert thr[0] == pytest.approx(1.0, abs=1e-4)
    assert thr[1] == pytest.approx(1.0, abs=1e-4)


def test_no_weighted_job_is_a_policy_error():
    # A job whose entity is not listed gets no weight, so no level LP runs.
    cluster = make_cluster({"gpu": 1})
    T = singles(cluster, [[1.0]])
    with pytest.raises(PolicyInfeasibleError):
        hierarchical_waterfill([Entity(0, 1.0)], [Job(id=0, num_steps=100, entity_id=7)],
                               cluster, T)
