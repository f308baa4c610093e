import itertools

import numpy as np
import pytest

import hetsched.lp
import hetsched.waterfill
from hetsched.cluster import make_cluster
from hetsched.jobs import Entity, EntityPolicy, Job, JobCombination
from hetsched.lp import FEAS_TOL, OPT_TOL, Relation, Status, solve_lp
from hetsched.matrices import AllocationMatrix, ThroughputMatrix, effective_throughput
from hetsched.milp import solve_milp
from hetsched.policies import (EntityError, PolicyError, ProblemSpace,
                               parse_policy, solve_policy)
from hetsched.waterfill import (DELTA_FRACTION, TIGHTEN_SLACK, VERIFY_FRACTION,
                                assign_job_weights, find_bottlenecks,
                                hierarchical_waterfill, max_gain,
                                single_level_waterfill)
from oracles import (cold_max_gain, cold_screen_feasible, gain_state, random_cells,
                     reference_find_bottlenecks, reference_max_gain,
                     reference_space_lp, reference_tighten_lp,
                     reference_waterfill)


def singles(cluster, T_rows):
    rows = [JobCombination.of(i) for i in range(len(T_rows))]
    entries = [[(float(v),) if v > 0 else None for v in row] for row in T_rows]
    return ThroughputMatrix.from_cells(cluster, rows, entries)


def throughputs(jobs, X, T):
    return {j.id: effective_throughput(j.id, X, T) for j in jobs}


def bottlenecks(jobs, X_prev, T, weights):
    """find_bottlenecks over a fresh space and X_prev's throughputs."""
    space = ProblemSpace(jobs, T)
    thr_prev = throughputs(jobs, X_prev, T)
    return find_bottlenecks(space, thr_prev, weights, gain_state(space, thr_prev))


@pytest.fixture
def milp_calls(monkeypatch):
    """Records every bottleneck MILP that water filling solves."""
    calls = []

    def spy(lp, *args, **kwargs):
        calls.append(lp)
        return solve_milp(lp, *args, **kwargs)

    monkeypatch.setattr(hetsched.waterfill, "solve_milp", spy)
    return calls


@pytest.fixture
def four_job_example():
    cluster = make_cluster({"gpu": 4})
    T = singles(cluster, [[2.0]] * 4)
    jobs = [Job(id=i, num_steps=1000, weight=(3.0 if i == 0 else 1.0))
            for i in range(4)]
    return cluster, T, jobs


def test_weighted_four_job_example(four_job_example):
    cluster, T, jobs = four_job_example
    result = single_level_waterfill(ProblemSpace(jobs, T))
    first = result.iterations[0]
    assert first.normalized[0] == pytest.approx(1.0, abs=1e-3)
    for i in (1, 2, 3):
        assert first.normalized[i] == pytest.approx(1 / 3, abs=1e-3)
    assert first.bottlenecks == {0}
    final = result.iterations[-1].normalized
    for i in range(4):
        assert final[i] == pytest.approx(1.0, abs=1e-3)
    assert len(result.iterations) == 2


def test_fifo_entity_head_of_queue_takes_all():
    cluster = make_cluster({"gpu": 1})
    T = singles(cluster, [[1.0], [1.0]])
    entities = [Entity(0, 1.0, EntityPolicy.FIFO)]
    jobs = [Job(id=0, num_steps=100, entity_id=0, arrival_time=0.0),
            Job(id=1, num_steps=100, entity_id=0, arrival_time=5.0)]
    result = hierarchical_waterfill(ProblemSpace(jobs, T), entities)
    assert result.allocation.values[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert result.allocation.values[1, 0] == pytest.approx(0.0, abs=1e-6)


def test_two_entities_weighted_split():
    cluster = make_cluster({"gpu": 1})
    T = singles(cluster, [[1.0], [1.0]])
    entities = [Entity(0, 1.0), Entity(1, 2.0)]
    jobs = [Job(id=0, num_steps=100, entity_id=0),
            Job(id=1, num_steps=100, entity_id=1)]
    result = hierarchical_waterfill(ProblemSpace(jobs, T), entities)
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
        rows = [(space.rates(j.id), Relation.GE, thr_prev[j.id])
                for j in space.jobs]
        for z, j in zip(bits, active):
            Y = space.best[j.id]
            delta = DELTA_FRACTION * Y
            if z == 1:
                rows.append((space.rates(j.id), Relation.GE,
                             thr_prev[j.id] + delta))
            else:
                rows.append((space.rates(j.id), Relation.LE,
                             thr_prev[j.id]))
        lp = reference_space_lp(space, np.zeros(space.n_cells), rows)
        if solve_lp(lp).status is Status.OPTIMAL:
            cand = (sum(bits), tuple(-b for b in bits))
            if best is None or cand > best[0]:
                best = (cand, bits)
    stuck = {j.id for z, j in zip(best[1], active) if z == 0}
    # Same tolerance-artifact demotion as find_bottlenecks.
    gain = max_gain(space, thr_prev, [j.id for j in active if j.id not in stuck],
                    gain_state(space, thr_prev))
    for job_id, g in gain.items():
        delta = DELTA_FRACTION * space.best[job_id]
        if g < 0.5 * delta:
            stuck.add(job_id)
    return stuck


def test_bottlenecks_worked_example(four_job_example):
    cluster, T, jobs = four_job_example
    X_prev = AllocationMatrix(T, np.array([[1.0], [1 / 3], [1 / 3], [1 / 3]]))
    weights = {j.id: j.weight for j in jobs}
    assert bottlenecks(jobs, X_prev, T, weights) == {0}


def test_bottlenecks_saturated_cluster_all_stuck():
    cluster = make_cluster({"gpu": 2})
    T = singles(cluster, [[1.0], [1.0]])
    jobs = [Job(id=0, num_steps=10), Job(id=1, num_steps=10)]
    X_prev = AllocationMatrix(T, np.array([[1.0], [1.0]]))
    weights = {0: 1.0, 1: 1.0}
    assert bottlenecks(jobs, X_prev, T, weights) == {0, 1}


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
        ours = bottlenecks(jobs, X_prev, T, weights)
        oracle = enumerate_bottlenecks(jobs, X_prev, T, weights)
        assert ours == oracle


def _random_bottleneck_instance(rng):
    """A `random_cells` matrix with weight-0 jobs and a valid previous
    allocation: random cells pushed onto the capacity frontier, or a
    Pareto-efficient point shrunk by a few slacks, where candidates can
    conflict."""
    cluster, rows, cells, jobs = random_cells(rng)
    T = ThroughputMatrix.from_cells(cluster, rows, cells)
    space = ProblemSpace(jobs, T)
    if rng.random() < 0.5:
        x = rng.uniform(0.0, 1.0, size=space.n_cells) * T.feasible.ravel()
        slack = rng.choice([0.0, rng.uniform(0.0, 0.3)])
    else:
        # A Pareto-efficient point, shrunk so the freed room is a few slacks.
        x = single_level_waterfill(space).allocation.values.ravel()
        slack = rng.uniform(0.0, 3.0) * DELTA_FRACTION
    rhs = np.array(space.validity_rhs)
    validity = space.validity.dense()
    for row, cap in zip(validity, rhs):
        used = row @ x
        if used > cap:
            x[row > 0] *= cap / used
    x *= (1.0 - slack) / np.max(validity @ x / rhs)
    weights = {j.id: float(rng.choice([0.0, 1.0, 2.0])) for j in jobs}
    weights[jobs[int(rng.integers(len(jobs)))].id] = 1.0
    return jobs, AllocationMatrix(T, x.reshape(T.num_rows, T.num_configs)), T, weights


def test_bottlenecks_match_reference(milp_calls):
    pairs = placement = scaled = unweighted = fallback = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        jobs, X_prev, T, weights = _random_bottleneck_instance(rng)
        before = len(milp_calls)
        ours = bottlenecks(jobs, X_prev, T, weights)
        fallback += len(milp_calls) > before
        assert ours == reference_find_bottlenecks(jobs, X_prev, T, weights), seed
        pairs += any(c.is_pair for c in T.rows)
        placement += T.cluster.placement_aware
        scaled += any(j.scale_factor > 1 for j in jobs)
        unweighted += min(weights.values()) == 0.0
    assert min(pairs, placement, scaled, unweighted) >= 50
    # Both the screen and the MILP fallback decide a share of the instances.
    assert 10 <= fallback <= 190


def test_max_gain_matches_per_job_reference():
    # Same 200 instances as test_bottlenecks_match_reference.  Each gain LP
    # starts from the last one's optimum, so a gain may differ from the
    # cold per-job LP's in its last bits.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        jobs, X_prev, T, weights = _random_bottleneck_instance(rng)
        space = ProblemSpace(jobs, T)
        thr_prev = throughputs(jobs, X_prev, T)
        ids = [j.id for j in space.jobs]
        gain = max_gain(space, thr_prev, ids, gain_state(space, thr_prev))
        assert list(gain) == ids
        for job_id in ids:
            ref = reference_max_gain(space, thr_prev, job_id)
            assert gain[job_id] == pytest.approx(ref, rel=1e-9, abs=0.0), (seed, job_id)


def test_conflicting_candidates_fall_back_to_milp(milp_calls):
    # One worker with 1.5e-4 of its time free: either job can take the 1e-4
    # slack alone, but not both, so the screen fails and the MILP keeps the
    # lexicographically smaller flag vector, freezing job 0.
    cluster = make_cluster({"gpu": 1})
    T = singles(cluster, [[1.0], [1.0]])
    jobs = [Job(id=0, num_steps=10), Job(id=1, num_steps=10)]
    X_prev = AllocationMatrix(T, np.array([[0.499925], [0.499925]]))
    weights = {0: 1.0, 1: 1.0}
    assert bottlenecks(jobs, X_prev, T, weights) == {0}
    assert len(milp_calls) == 1


def test_gain_near_slack_falls_back_to_milp(milp_calls):
    # Job 0 is 0.7e-4 below its time budget: its gain lies in
    # [VERIFY_FRACTION, 1) times its slack, too close to call with a screen.
    # Job 1 can gain freely.
    cluster = make_cluster({"gpu": 2})
    T = singles(cluster, [[1.0], [1.0]])
    jobs = [Job(id=0, num_steps=10), Job(id=1, num_steps=10)]
    X_prev = AllocationMatrix(T, np.array([[1.0 - 0.7e-4], [0.5]]))
    space = ProblemSpace(jobs, T)
    thr_prev = throughputs(jobs, X_prev, T)
    delta = DELTA_FRACTION * space.best[0]
    assert VERIFY_FRACTION * delta <= max_gain(space, thr_prev, [0],
                                               gain_state(space, thr_prev))[0] < delta
    weights = {0: 1.0, 1: 1.0}
    assert bottlenecks(jobs, X_prev, T, weights) == {0}
    assert len(milp_calls) == 1


def test_screen_settles_ordinary_instances(four_job_example, monkeypatch):
    def no_milp(*args, **kwargs):
        raise AssertionError("bottleneck MILP called")

    monkeypatch.setattr(hetsched.waterfill, "solve_milp", no_milp)
    cluster, T, jobs = four_job_example
    result = single_level_waterfill(ProblemSpace(jobs, T))
    assert [it.bottlenecks for it in result.iterations] == [{0}, {1, 2, 3}]
    for i in range(4):
        assert result.iterations[-1].normalized[i] == pytest.approx(1.0, abs=1e-3)


def test_pareto_on_termination(four_job_example):
    cluster, T, jobs = four_job_example
    space = ProblemSpace(jobs, T)
    result = single_level_waterfill(space)
    weights = {j.id: j.weight for j in jobs}
    thr = throughputs(jobs, result.allocation, T)
    stuck = find_bottlenecks(space, thr, weights, gain_state(space, thr))
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
    # A job whose entity is not listed is rejected before any level LP runs.
    cluster = make_cluster({"gpu": 1})
    T = singles(cluster, [[1.0]])
    assert issubclass(EntityError, PolicyError)
    with pytest.raises(EntityError):
        hierarchical_waterfill(
            ProblemSpace([Job(id=0, num_steps=100, entity_id=7)], T), [Entity(0, 1.0)])


def _random_fill_instance(rng):
    """A `random_cells` space whose jobs carry weights, arrival times and
    one of one to three entities, each fair or FIFO with weight 1 to 3."""
    return _fill_instance(rng, *random_cells(rng))


def _degenerate_fill_instance(rng, kind):
    """A fill instance built to be degenerate: every job at the same rate on
    every configuration ("tied"), up to six jobs, some of scale factor 2,
    on one worker per type ("saturated"), or jobs at rate 0 on every
    configuration but one ("zero")."""
    types = ("V100", "P100", "K80")[: int(rng.integers(1, 4))]
    workers = 1 if kind == "saturated" else int(rng.integers(1, 5))
    cluster = make_cluster({name: workers for name in types})
    C = len(cluster.configurations)
    n = int(rng.integers(3, 7)) if kind == "saturated" else int(rng.integers(2, 6))
    jobs = [Job(id=i, scale_factor=int(rng.choice([1, 2])) if kind == "saturated" else 1)
            for i in range(n)]
    cells = []
    for _ in jobs:
        if kind == "tied":
            row = [(2.0,)] * C
        elif kind == "saturated":
            row = [(round(float(rng.uniform(0.5, 4.0)), 1),) for _ in range(C)]
        else:
            row = [(0.0,)] * C
            row[int(rng.integers(C))] = (float(rng.integers(1, 4)),)
        cells.append(row)
    return _fill_instance(rng, cluster, [JobCombination.of(j.id) for j in jobs],
                          cells, jobs)


def _fill_instance(rng, cluster, rows, cells, jobs):
    policies = [EntityPolicy.FAIRNESS, EntityPolicy.FIFO]
    entities = [Entity(e, float(rng.integers(1, 4)), policies[int(rng.integers(2))])
                for e in range(int(rng.integers(1, 4)))]
    jobs = [Job(id=j.id, num_steps=100, scale_factor=j.scale_factor,
                weight=float(rng.integers(1, 3)),
                entity_id=int(rng.integers(len(entities))),
                arrival_time=float(rng.integers(3)))
            for j in jobs]
    return ProblemSpace(jobs, ThroughputMatrix.from_cells(cluster, rows, cells)), entities


def _fills(space, entities):
    return [(hierarchical_waterfill, (space, entities)),
            (single_level_waterfill, (space,))]


def _cold_fill(monkeypatch, fill, args):
    """`fill(*args)` with every gain and screen LP solved from a cold phase 1."""
    with monkeypatch.context() as m:
        m.setattr(hetsched.waterfill, "max_gain", cold_max_gain)
        m.setattr(hetsched.waterfill, "_screen_feasible", cold_screen_feasible)
        return fill(*args)


@pytest.fixture
def level_calls(monkeypatch):
    """Records each level LP's (weights, t_prev, thr_prev, level)."""
    calls = []
    level_lp = hetsched.waterfill._level_lp

    def spy(space, weights, t_prev, thr_prev, X_prev):
        out = level_lp(space, weights, t_prev, thr_prev, X_prev)
        calls.append((weights, t_prev, thr_prev, out[1]))
        return out

    monkeypatch.setattr(hetsched.waterfill, "_level_lp", spy)
    return calls


def test_tightened_in_place_meets_the_cold_tightening_lp(level_calls):
    """Each iteration's allocation, the tightening vertex reached from the
    level LP's optimum, keeps every weighted job on its level row at
    lam = level and every carried job at its previous throughput, and its
    total allocated time is the cold tightening LP's optimum within
    OPT_TOL."""
    iterations = moved = 0
    for seed in range(40):
        space, entities = _random_fill_instance(np.random.default_rng(seed))
        for fill, args in _fills(space, entities):
            level_calls.clear()
            result = fill(*args)
            assert len(level_calls) == len(result.iterations)
            for (weights, t_prev, thr_prev, level), it in zip(level_calls,
                                                              result.iterations):
                X = it.allocation
                for j in space.jobs:
                    thr = effective_throughput(j.id, X, X.T)
                    w = weights[j.id]
                    if w > 0:
                        on_level = (j.scale_factor / (w * space.equal_norm[j.id])
                                    * thr - level)
                        assert on_level >= t_prev[j.id] / w - TIGHTEN_SLACK - FEAS_TOL
                    if thr_prev[j.id] > 0:
                        assert thr >= thr_prev[j.id] - FEAS_TOL
                cold = solve_lp(reference_tighten_lp(space, weights, t_prev,
                                                     thr_prev, level))
                assert cold.optimal
                # The cold LP maximizes minus the total allocated time.
                gap = abs(X.values.sum() + cold.objective_value)
                assert gap <= OPT_TOL * -cold.objective_value
                iterations += 1
                moved += X.values.tobytes() != space.allocation(cold.x).values.tobytes()
    # Most vertices differ from the cold LP's, so the bounds above carry the test.
    assert iterations >= 200 and moved >= 100


def test_iteration_throughputs_are_effective_throughputs(level_calls):
    """The throughputs an iteration computes for every job at once are
    `effective_throughput`'s, byte for byte: each job's row is summed in
    order either way.  They reach the next level LP as its `thr_prev`, and
    the iteration's normalized throughputs are divided from them."""
    carried = normalized = 0
    for seed in range(40):
        space, entities = _random_fill_instance(np.random.default_rng(seed))
        for fill, args in _fills(space, entities):
            level_calls.clear()
            result = fill(*args)
            for k, it in enumerate(result.iterations):
                for j in space.jobs:
                    thr = np.float64(effective_throughput(j.id, it.allocation,
                                                          space.T))
                    if k + 1 < len(level_calls):
                        got = np.float64(level_calls[k + 1][2][j.id])
                        assert got.tobytes() == thr.tobytes()
                        carried += 1
                    got = np.float64(it.normalized[j.id])
                    assert got.tobytes() == (thr / space.equal_norm[j.id]).tobytes()
                    normalized += 1
    assert carried >= 300 and normalized >= 500


def _assert_same_fill(ours, ref):
    assert len(ours.iterations) == len(ref.iterations)
    for a, b in zip(ours.iterations, ref.iterations):
        assert a.weights == b.weights
        assert a.level == b.level
        assert a.allocation.values.tobytes() == b.allocation.values.tobytes()
        assert a.bottlenecks == b.bottlenecks


_DEGENERATE = ("tied", "saturated", "zero")


def _fill_instances():
    """(kind, space, entities): 60 seeded instances, then 30 of each
    degenerate kind."""
    for seed in range(60):
        yield ("random", *_random_fill_instance(np.random.default_rng(seed)))
    for kind in _DEGENERATE:
        for seed in range(30):
            yield (kind, *_degenerate_fill_instance(np.random.default_rng(seed), kind))


@pytest.fixture
def paths(monkeypatch):
    """Records how each iteration of water filling found its bottlenecks:
    "whole" when the level LP certified every weighted job, "screened" when
    one screen settled the rest, "fallback" when `find_bottlenecks` ran."""
    out = []
    certified = hetsched.waterfill._certified
    find = hetsched.waterfill.find_bottlenecks

    def spy_certified(space, state, weights, level):
        cert = certified(space, state, weights, level)
        whole = len(cert) == sum(w > 0 for w in weights.values())
        out.append("whole" if whole else "screened")
        return cert

    def spy_find(*args):
        out[-1] = "fallback"
        return find(*args)

    monkeypatch.setattr(hetsched.waterfill, "_certified", spy_certified)
    monkeypatch.setattr(hetsched.waterfill, "find_bottlenecks", spy_find)
    return out


def test_certified_jobs_are_bottlenecks(monkeypatch):
    """At every iteration of both fills, on seeded instances and on
    degenerate ones, every job the level LP certifies lies inside
    `find_bottlenecks`' answer for that iteration's throughputs."""
    certified = hetsched.waterfill._certified
    step = hetsched.waterfill._bottlenecks
    seen = []

    def spy(space, state, tight, level, thr, weights):
        cert = certified(space, state, weights, level)
        ref = find_bottlenecks(space, thr, weights, gain_state(space, thr))
        assert cert <= ref
        seen[-1][1] += 1
        seen[-1][2] += len(cert)
        seen[-1][3] += len(cert) == sum(w > 0 for w in weights.values())
        return step(space, state, tight, level, thr, weights)

    monkeypatch.setattr(hetsched.waterfill, "_bottlenecks", spy)
    for kind, space, entities in _fill_instances():
        seen.append([kind, 0, 0, 0])
        for fill, args in _fills(space, entities):
            fill(*args)
    # Each kind runs at least `floor` iterations, certifies at least as many
    # jobs, and certifies every weighted job in a third of that many.
    for kind in ("random",) + _DEGENERATE:
        iterations, jobs, whole = np.sum([s[1:] for s in seen if s[0] == kind], axis=0)
        floor = 300 if kind == "random" else 100
        assert iterations >= floor and jobs >= floor and whole >= floor // 3, kind


def test_fill_matches_reference_loop(paths):
    """Settling bottlenecks by the certificate and the screen changes no
    iteration of either fill: weights, level, allocation bytes and
    bottlenecks all equal those of the loop that runs `find_bottlenecks`
    at every iteration."""
    counts = {"whole": 0, "screened": 0, "fallback": 0}
    for kind, space, entities in _fill_instances():
        for fill, args, ents in [(hierarchical_waterfill, (space, entities), entities),
                                 (single_level_waterfill, (space,), None)]:
            paths.clear()
            ours = fill(*args)
            # Read before the reference runs: its `find_bottlenecks` calls
            # pass through `paths` too.
            for path in paths:
                counts[path] += 1
            _assert_same_fill(ours, reference_waterfill(space, ents))
    # Each of the three ways to the answer decides a share of the iterations.
    assert counts["whole"] >= 300 and counts["screened"] >= 150
    assert counts["fallback"] >= 100


def test_fill_matches_cold_bottleneck_lps(monkeypatch, paths):
    """Solving the gain and screen LPs from rows appended to the tightening
    LP's optimum changes no iteration of either water filling: weights,
    level, allocation bytes and bottlenecks all equal those of the same LPs
    built whole and solved cold, and so does the text of every LP that
    --dump-lp prints.  Each gain and screen LP prints as the tightening
    LP's rows with its own appended."""
    dumped = []
    monkeypatch.setattr(hetsched.lp, "debug_sink", dumped.append)
    gain = screen = 0
    for _, space, entities in _fill_instances():
        for fill, args in _fills(space, entities):
            dumped.clear(), paths.clear()
            ours = fill(*args)
            warm_text = list(dumped)
            dumped.clear()
            _assert_same_fill(ours, _cold_fill(monkeypatch, fill, args))
            assert warm_text == dumped
            # Level, tightening, then each bottleneck LP after its tightening.
            for text in warm_text:
                lines = text.splitlines()
                if lines[1] == f"maximize  +1*x{space.n_cells}":
                    level = lines
                elif lines[lines.index("bounds") - 1].startswith(
                        f"  +1*x{space.n_cells} >= "):
                    tight = lines
                else:
                    rows = tight.index("bounds")
                    assert lines[2:rows] == tight[2:rows]
                    assert lines[rows:] != tight[rows:]
                    assert tight[2:rows - 1] == level[2:level.index("bounds")]
                    zero = lines[1] == "maximize  0"
                    screen += zero
                    gain += not zero
    assert gain >= 100 and screen >= 100


def test_warm_level_lps_reach_the_cold_optimum(monkeypatch):
    """Every level LP that starts at a basis crashed at the previous
    allocation reaches the optimum of the same LP solved cold by
    `solve_lp`, within OPT_TOL, on both fills of every instance.  Each kind
    of instance starts a floor of level LPs warm; the failed crashes, which
    fall back on phase 1, are reported and kept rare."""
    crashed, levels = [], []
    start_at = hetsched.lp._Standardized.start_at
    level_lp = hetsched.waterfill._level_lp

    def spy_start_at(self, x):
        crashed.append((self, start_at(self, x)))
        return crashed[-1][1]

    def spy_level_lp(*args):
        levels.append(level_lp(*args))
        return levels[-1]

    monkeypatch.setattr(hetsched.lp._Standardized, "start_at", spy_start_at)
    monkeypatch.setattr(hetsched.waterfill, "_level_lp", spy_level_lp)
    warm = dict.fromkeys(("random",) + _DEGENERATE, 0)
    fallbacks = 0
    for kind, space, entities in _fill_instances():
        for fill, args in _fills(space, entities):
            crashed.clear(), levels.clear()
            fill(*args)
            started = {id(state) for state, ok in crashed if ok}
            fallbacks += len(crashed) - len(started)
            for state, level in levels:
                if id(state) not in started:
                    continue
                cold = solve_lp(state.lp)
                assert cold.optimal
                assert abs(level - cold.objective_value) <= OPT_TOL * max(
                    1.0, abs(cold.objective_value))
                warm[kind] += 1
    total = sum(warm.values())
    assert warm["random"] >= 150 and min(warm.values()) >= 40, warm
    assert fallbacks <= total // 20, f"{fallbacks} of {total} crashes failed"


def test_one_cold_phase_one_per_fill(monkeypatch, milp_calls, paths):
    """Water filling builds exactly one `lp._Standardized` per iteration,
    the level LP's.  The first enters by phase 1 and every later one by a
    crash at the last allocation (`start_at`), so a fill runs one phase 1
    plus one per failed crash.  Every tightening, screen and gain LP is rows
    appended to an optimum, each append with one dual simplex."""
    built, entered, crashed, appended, dual_runs = [], [], [], [], []

    class CountingStandardized(hetsched.lp._Standardized):
        def __init__(self, lp):
            built.append(self)
            super().__init__(lp)

    standardized = hetsched.lp._Standardized
    phase_one, start_at = standardized.phase_one, standardized.start_at
    append = standardized.append
    dual_simplex = hetsched.lp._dual_simplex

    def spy_phase_one(self):
        entered.append(self)
        return phase_one(self)

    def spy_start_at(self, x):
        crashed.append((self, start_at(self, x)))
        return crashed[-1][1]

    def spy_append(self, *rows):
        appended.append(append(self, *rows))
        return appended[-1]

    def spy_dual_simplex(*args):
        dual_runs.append(len(appended))
        return dual_simplex(*args)

    monkeypatch.setattr(hetsched.waterfill, "_Standardized", CountingStandardized)
    monkeypatch.setattr(standardized, "phase_one", spy_phase_one)
    monkeypatch.setattr(standardized, "start_at", spy_start_at)
    monkeypatch.setattr(standardized, "append", spy_append)
    monkeypatch.setattr(hetsched.lp, "_dual_simplex", spy_dual_simplex)
    checked = bottleneck_lps = warm = fallbacks = 0
    for kind, space, entities in _fill_instances():
        built.clear(), entered.clear(), crashed.clear(), appended.clear()
        dual_runs.clear(), paths.clear()
        before = len(milp_calls)
        result = hierarchical_waterfill(space, entities)
        if len(milp_calls) > before:  # B&B relaxations enter phase 1 too
            continue
        checked += 1
        assert len(built) == len(result.iterations) == len(paths)
        # The level LPs carry lam after the cells.
        assert all(state.lp.num_vars == space.n_cells + 1 for state in built)
        assert [id(s) for s, _ in crashed] == [id(s) for s in built[1:]]
        failed = [s for s, ok in crashed if not ok]
        assert [id(s) for s in entered] == [id(s) for s in built[:1] + failed]
        warm += len(crashed) - len(failed)
        fallbacks += len(failed)
        # Each tightening LP, gain-row state and screen runs the dual
        # simplex once, inside its own append.
        assert dual_runs == list(range(len(appended)))
        assert len(appended) >= len(built) + 2 * (len(paths) - paths.count("whole"))
        bottleneck_lps += len(appended) - len(built)
    assert checked >= 120 and bottleneck_lps >= 200
    assert warm >= 200 and fallbacks <= warm // 20, (warm, fallbacks)
