import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hetsched.matrices
from hetsched.cluster import (AcceleratorType, ClusterSpec, Placement,
                              make_cluster)
from hetsched.jobs import (Entity, EntityPolicy, EntityValueError, Job,
                           JobCombination)
from hetsched.matrices import (AllocationMatrix, MatrixShapeError,
                               ThroughputMatrix, effective_throughput,
                               prune_combinations)
from hetsched.policies import ProblemSpace
from oracles import (CellMatrix, allocation, equal_share_allocation,
                     isolated_allocation, matrix_doc, random_cells)


@pytest.fixture
def two_type_cluster():
    return make_cluster({"V100": 1, "K80": 1})


def build_matrix(cluster, rows, entries):
    return ThroughputMatrix.from_cells(cluster, rows, entries)


def test_cluster_configurations_placement_aware():
    cluster = make_cluster({"V100": 2}, placement_aware=True)
    placements = [c.placement for c in cluster.configurations]
    assert placements == [Placement.CONSOLIDATED, Placement.UNCONSOLIDATED]
    plain = make_cluster({"V100": 2})
    assert [c.placement for c in plain.configurations] == [Placement.SOLE]


def test_cluster_derived_attributes_built_once_outside_fields():
    cluster = make_cluster({"V100": 5, "K80": 4}, placement_aware=True,
                           workers_per_server={"V100": 2, "K80": 4})
    assert cluster.configurations is cluster.configurations
    assert cluster.servers == ((range(0, 2), range(2, 4), range(4, 5)),
                               (range(5, 9),))
    # Equality, hashing and replace read the fields alone.
    twin = ClusterSpec(list(cluster.types), True)
    assert twin == cluster and hash(twin) == hash(cluster)
    assert [f.name for f in dataclasses.fields(ClusterSpec)] == [
        "types", "placement_aware"]
    plain = dataclasses.replace(cluster, placement_aware=False)
    assert [c.placement for c in plain.configurations] == [Placement.SOLE] * 2


def test_accelerator_type_validation():
    with pytest.raises(ValueError):
        AcceleratorType(0, "bad", -1.0, 1, 1)
    with pytest.raises(ValueError):
        AcceleratorType(0, "bad", 0.0, 0, 1)


@pytest.mark.parametrize("field", ["num_steps", "steps_done", "scale_factor",
                                   "weight", "slo_seconds", "arrival_time",
                                   "elapsed_time", "isolated_elapsed_time",
                                   "entity_id"])
def test_job_rejects_booleans_as_numbers(field):
    with pytest.raises(ValueError, match=f"{field} must be a number, not True"):
        Job(id=0, **{field: True})


@pytest.mark.parametrize("kwargs, named", [
    ({"id": 0.5}, "entity id must be a whole number, not 0.5"),
    ({"id": True}, "entity id must be a whole number, not True"),
    ({"id": "0"}, "entity id must be a whole number, not '0'"),
    ({"id": 3, "internal_policy": "lottery"}, "entity 3: unknown policy 'lottery'"),
], ids=["fractional-id", "boolean-id", "text-id", "unknown-policy"])
def test_entity_rejects_bad_id_and_policy(kwargs, named):
    with pytest.raises(EntityValueError, match=named):
        Entity(**kwargs)


def test_entity_converts_whole_id_and_policy_value():
    entity = Entity(2.0, 1.0, "fifo")
    assert entity.id == 2 and type(entity.id) is int
    assert entity.internal_policy is EntityPolicy.FIFO


def test_combination_ordering_and_conflicts():
    pair = JobCombination.of(3, 1)
    assert pair.members == (1, 3)
    assert 3 in pair.members and 2 not in pair.members
    with pytest.raises(ValueError):
        JobCombination.of(1, 1)
    with pytest.raises(ValueError):
        JobCombination.of(1, 2, 3)


def test_effective_throughput_worked_example(two_type_cluster):
    T = build_matrix(two_type_cluster, [JobCombination.of(0)], [[(4.0,), (1.0,)]])
    X = allocation(T, np.array([[0.45, 0.0]]))
    assert effective_throughput(0, X, T) == pytest.approx(1.8)


def test_effective_throughput_zero_row(two_type_cluster):
    T = build_matrix(two_type_cluster, [JobCombination.of(0)], [[(4.0,), (1.0,)]])
    X = allocation(T, np.zeros((1, 2)))
    assert effective_throughput(0, X, T) == 0.0


def test_effective_throughput_pair_row(two_type_cluster):
    rows = [JobCombination.of(0), JobCombination.of(1), JobCombination.of(0, 1)]
    entries = [[(4.0,), (1.0,)], [(3.0,), (1.0,)], [(2.0, 1.5), None]]
    T = build_matrix(two_type_cluster, rows, entries)
    X = allocation(T, np.array([[0, 0], [0, 0], [0.5, 0.0]]))
    assert effective_throughput(0, X, T) == pytest.approx(1.0)
    assert effective_throughput(1, X, T) == pytest.approx(0.75)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_effective_throughput_linear_in_allocation(seed):
    rng = np.random.default_rng(seed)
    cluster = make_cluster({"A": 1, "B": 1})
    rows = [JobCombination.of(0), JobCombination.of(1), JobCombination.of(0, 1)]
    entries = [[(rng.uniform(0.1, 5),), (rng.uniform(0.1, 5),)],
               [(rng.uniform(0.1, 5),), (rng.uniform(0.1, 5),)],
               [(rng.uniform(0.1, 5), rng.uniform(0.1, 5)), None]]
    T = build_matrix(cluster, rows, entries)
    vals = rng.uniform(0, 0.3, size=(3, 2))
    vals[2, 1] = 0.0
    X1 = allocation(T, vals)
    X2 = allocation(T, 2 * vals)
    for job in (0, 1):
        assert effective_throughput(job, X2, T) == pytest.approx(
            2 * effective_throughput(job, X1, T), rel=1e-9)


def test_equal_share_rows_sum_to_one(two_type_cluster):
    rows = [JobCombination.of(0), JobCombination.of(1)]
    T = build_matrix(two_type_cluster, rows, [[(4.0,), (1.0,)]] * 2)
    X = equal_share_allocation(T)
    assert np.allclose(X.values, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(X.values.sum(axis=1), 1.0)


def test_isolated_is_equal_share_over_n(two_type_cluster):
    rows = [JobCombination.of(0)]
    T = build_matrix(two_type_cluster, rows, [[(4.0,), (1.0,)]])
    X = isolated_allocation(T, 3)
    assert np.allclose(X.values, [[1 / 6, 1 / 6]])
    assert X.values.sum() == pytest.approx(1 / 3)


def test_equal_share_placement_aware_splits_columns():
    cluster = make_cluster({"V100": 2, "K80": 2}, placement_aware=True)
    rows = [JobCombination.of(0)]
    T = ThroughputMatrix.from_cells(cluster, rows, [[(4.0,), (3.0,), (1.0,), (0.9,)]])
    X = equal_share_allocation(T)
    assert np.allclose(X.values, [[0.25, 0.25, 0.25, 0.25]])
    assert X.values.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("members", [[(0,), (0,)], [(0,), (1,), (1, 0), (0, 1)]],
                         ids=["singleton", "pair"])
def test_duplicate_rows_rejected(two_type_cluster, members):
    rows = [JobCombination(m) for m in members]
    with pytest.raises(ValueError, match="duplicate combination rows"):
        ThroughputMatrix(two_type_cluster, rows, np.ones((len(rows), 2, 2)),
                         np.ones((len(rows), 2), dtype=bool))


def test_prune_keeps_good_pairs_drops_bad(two_type_cluster):
    rows = [JobCombination.of(0), JobCombination.of(1),
            JobCombination.of(0, 1)]
    # Normalized sum on V100 = 0.8 + 0.6 = 1.4 > 1: kept.
    good = [[(4.0,), (1.0,)], [(3.0,), (1.0,)], [(3.2, 1.8), None]]
    T = build_matrix(two_type_cluster, rows, good)
    assert prune_combinations(T).num_rows == 3
    # Normalized sums 0.8 / 0.9 on the two types: dropped.
    bad = [[(4.0,), (1.0,)], [(3.0,), (1.0,)], [(2.0, 1.2), (0.5, 0.4)]]
    T = build_matrix(two_type_cluster, rows, bad)
    pruned = prune_combinations(T)
    assert pruned.num_rows == 2
    assert all(not c.is_pair for c in pruned.rows)
    # Pair infeasible everywhere: dropped.
    infeasible = [[(4.0,), (1.0,)], [(3.0,), (1.0,)], [None, None]]
    T = build_matrix(two_type_cluster, rows, infeasible)
    assert prune_combinations(T).num_rows == 2


def test_prune_finds_singletons_listed_after_pairs(two_type_cluster):
    singles = [JobCombination.of(j) for j in range(3)]
    pairs = [JobCombination.of(0, 1), JobCombination.of(0, 2), JobCombination.of(1, 2)]
    iso = {0: [(4.0,), (1.0,)], 1: [(3.0,), (1.0,)], 2: [(2.0,), (2.0,)]}
    # Normalized sums: (0,1) 1.4 on V100, (0,2) 0.75 / 0.5, (1,2) 1.2 on K80.
    cells = {pairs[0]: [(3.2, 1.8), None], pairs[1]: [(2.0, 0.5), (0.25, 0.5)],
             pairs[2]: [(1.5, 0.5), (0.8, 0.8)]}
    first = build_matrix(two_type_cluster, singles + pairs,
                         [iso[j] for j in range(3)] + [cells[c] for c in pairs])
    last = build_matrix(two_type_cluster, pairs + singles,
                        [cells[c] for c in pairs] + [iso[j] for j in range(3)])
    kept = list(prune_combinations(last).rows)
    assert kept == [pairs[0], pairs[2]] + singles
    assert sorted(kept) == sorted(prune_combinations(first).rows)


def test_prune_needs_every_pair_member_singleton(two_type_cluster):
    from hetsched.matrices import UnknownJobError
    rows = [JobCombination.of(0), JobCombination.of(0, 1)]
    T = build_matrix(two_type_cluster, rows, [[(4.0,), (1.0,)], [(3.2, 1.8), None]])
    with pytest.raises(UnknownJobError, match="member 1"):
        prune_combinations(T)


def test_allocation_invariants_validate(two_type_cluster):
    rows = [JobCombination.of(0), JobCombination.of(1)]
    T = build_matrix(two_type_cluster, rows, [[(4.0,), (1.0,)]] * 2)
    jobs = {0: Job(id=0), 1: Job(id=1)}
    allocation(T, np.array([[0.5, 0.5], [0.5, 0.5]]), jobs).validate()
    with pytest.raises(ValueError):
        allocation(T, np.array([[0.9, 0.3], [0.0, 0.0]]), jobs).validate()
    with pytest.raises(ValueError):
        allocation(T, np.array([[0.9, 0.0], [0.9, 0.0]]), jobs).validate()


def test_allocation_checks_worker_counts_shape(two_type_cluster):
    rows = [JobCombination.of(0), JobCombination.of(1)]
    T = build_matrix(two_type_cluster, rows, [[(4.0,), (1.0,)]] * 2)
    AllocationMatrix(T, np.zeros((2, 2)), np.array([1, 2]))
    for workers in (np.array([1]), np.ones((2, 1), dtype=int)):
        with pytest.raises(MatrixShapeError, match="worker counts"):
            AllocationMatrix(T, np.zeros((2, 2)), workers)


def test_allocation_rejects_infeasible_cells(two_type_cluster):
    T = build_matrix(two_type_cluster, [JobCombination.of(0)], [[(4.0,), None]])
    jobs = {0: Job(id=0)}
    with pytest.raises(ValueError):
        allocation(T, np.array([[0.0, 0.5]]), jobs).validate()


def test_scale_factor_capacity(two_type_cluster):
    T = build_matrix(two_type_cluster, [JobCombination.of(0)], [[(4.0,), (1.0,)]])
    jobs = {0: Job(id=0, scale_factor=2)}
    with pytest.raises(ValueError):
        allocation(T, np.array([[0.9, 0.0]]), jobs).validate()


def test_capacity_checked_per_accelerator_type():
    # Each placement column alone fits two 2-worker jobs on 2 V100s; the
    # type as a whole does not.
    cluster = make_cluster({"V100": 2}, placement_aware=True)
    rows = [JobCombination.of(0), JobCombination.of(1)]
    T = build_matrix(cluster, rows, [[(2.0,), (1.0,)]] * 2)
    jobs = {0: Job(id=0, scale_factor=2), 1: Job(id=1, scale_factor=2)}
    with pytest.raises(ValueError, match="V100 oversubscribed"):
        allocation(T, np.array([[1.0, 0.0], [0.0, 1.0]]), jobs).validate()
    allocation(T, np.array([[0.5, 0.0], [0.0, 0.5]]), jobs).validate()


def test_matrix_json_round_trip(tmp_path):
    cluster = make_cluster({"V100": 2, "K80": 4}, placement_aware=True,
                           costs={"V100": 3.0, "K80": 0.5},
                           workers_per_server={"V100": 2, "K80": 4})
    rows = [JobCombination.of(0), JobCombination.of(1), JobCombination.of(0, 1)]
    entries = [
        [(4.0,), (3.5,), (1.0,), (1.0,)],
        [(3.0,), (2.5,), (1.1,), (1.0,)],
        [(2.0, 1.5), None, (0.5, 0.4), None],
    ]
    T = ThroughputMatrix.from_cells(cluster, rows, entries)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix_doc(T)))
    T2 = ThroughputMatrix.from_json(json.loads(path.read_text()))
    assert T2.rows == T.rows
    assert T2.cluster == T.cluster
    for r in range(T.num_rows):
        for c in range(T.num_configs):
            assert T2.entries[r][c] == T.entries[r][c]
    doc = json.loads(path.read_text())
    key = "V100/consolidated"
    assert key in doc["rows"][0]["throughputs"]
    assert doc["rows"][2]["throughputs"]["V100/unconsolidated"] is None


def test_effective_throughput_unknown_job(two_type_cluster):
    from hetsched.matrices import UnknownJobError
    T = build_matrix(two_type_cluster, [JobCombination.of(0)], [[(4.0,), (1.0,)]])
    X = allocation(T, np.zeros((1, 2)))
    with pytest.raises(UnknownJobError):
        effective_throughput(99, X, T)


def _over_budget(ref, T, values):
    """The first job, in `T.job_ids` order, whose rows' time sums past one,
    added row by row from the per-cell reference; None when none does."""
    for job_id in T.job_ids:
        total = 0.0
        for r in ref.combos_containing(job_id):
            total += values[r].sum()
        if total > 1 + hetsched.matrices.EPS:
            return job_id
    return None


def test_arrays_match_per_cell_reference(monkeypatch):
    pairs = infeasible = zero = placement = late = over = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        cluster, rows, cells, jobs = random_cells(rng)
        # Each piece in the given row order, with every pair listed before
        # the singletons, and shuffled.
        pairs_first = sorted(range(len(rows)), key=lambda r: not rows[r].is_pair)
        for order in (range(len(rows)), pairs_first, rng.permutation(len(rows))):
            shuffled = [rows[r] for r in order]
            shuffled_cells = [cells[r] for r in order]
            T = ThroughputMatrix.from_cells(cluster, shuffled, shuffled_cells)
            ref = CellMatrix(cluster, shuffled, shuffled_cells)
            X = allocation(T, rng.uniform(0.0, 1.0,
                                          size=(T.num_rows, T.num_configs)))
            for j in jobs:
                assert effective_throughput(j.id, X, T) == \
                    ref.effective_throughput(j.id, X.values)
            assert np.array_equal(equal_share_allocation(T).values, ref.equal_share())
            # Only the feasible cells carry time, so the budget check runs.
            X = allocation(T, X.values * T.feasible, {j.id: j for j in jobs})
            named = _over_budget(ref, T, X.values)
            over += named is not None
            if named is not None:
                with pytest.raises(ValueError, match=f"^job {named} total time"):
                    X.validate()
            # The LP pieces, for every job and for two subsets: the first
            # half, and every other job backwards.  Rows whose members are
            # outside a subset give its jobs no cells and fall back to one
            # worker in the capacity rows.
            for space_jobs in (jobs, jobs[: max(1, len(jobs) // 2)], jobs[::-2]):
                space = ProblemSpace(space_jobs, T)
                X = rng.uniform(0.0, 1.0, size=(T.num_rows, T.num_configs))
                thr = space.throughputs(X.ravel())
                for k, j in enumerate(space_jobs):
                    rates = ref.job_coefficients(j.id)
                    assert space.rates(j.id).tobytes() == rates.tobytes()
                    assert space.rate_rows(space.n_cells).take([k]).dense()[0].tobytes() \
                        == rates.tobytes()
                    assert space.best[j.id] == ref.max_throughput(j.id)
                    assert space.equal_norm[j.id] == ref.equal_norm(j.id)
                    assert thr[k] == ref.effective_throughput(j.id, X)
                assert len(space.rate_rows(space.n_cells)) == len(space_jobs)
                lp = space.lp(np.zeros(space.n_cells))
                ref_lower, ref_upper = ref.cell_bounds()
                assert np.array_equal(lp.lower, ref_lower)
                assert np.array_equal(lp.upper, ref_upper)
                expected = ref.validity_rows(space_jobs)
                assert len(lp.constraints) == len(expected)
                for row, rhs, (ref_row, ref_rhs) in zip(lp.constraints.dense(),
                                                         lp.rhs, expected):
                    assert np.array_equal(row, ref_row) and rhs == ref_rhs
            for threshold in (0.8, 1.0, 1.3):
                monkeypatch.setattr(hetsched.matrices, "PAIR_KEEP_THRESHOLD",
                                    threshold)
                assert list(prune_combinations(T).rows) == ref.prune(threshold)
            listed = set()
            for combo in shuffled:
                if combo.is_pair:
                    late += not set(combo.members) <= listed
                else:
                    listed.update(combo.members)
        pairs += any(c.is_pair for c in rows)
        infeasible += any(cell is None for row in cells for cell in row)
        zero += any(cell is not None and 0.0 in cell for row in cells for cell in row)
        placement += cluster.placement_aware
    # `late` counts pairs listed before one of their singletons.
    assert min(pairs, infeasible, zero, placement, late, over) >= 50


def test_matrix_holds_no_job_by_row_array():
    """The matrix's arrays grow with its cells, not with jobs x cells: with
    every pair present, a per-job copy of the cells would be n / 2 times
    the size of `thr`."""
    cluster = make_cluster({"V100": 2, "K80": 2}, placement_aware=True)
    C = len(cluster.configurations)
    for n in (4, 16, 40):
        rows = [JobCombination.of(a) for a in range(n)]
        rows += [JobCombination.of(a, b) for a in range(n) for b in range(a + 1, n)]
        T = ThroughputMatrix(cluster, rows, np.ones((len(rows), C, 2)),
                             np.ones((len(rows), C), dtype=bool))
        T.job_index(0), T.row_index(rows[-1])  # builds the lazy lookups too
        held = sum(v.nbytes for v in vars(T).values() if isinstance(v, np.ndarray))
        assert held <= 2 * T.thr.nbytes, (n, held, T.thr.nbytes)


def test_problem_space_holds_no_job_by_cell_array():
    """A space's arrays grow with the matrix's cells, not with jobs x cells:
    with every pair present, one dense row of rates per job would be n / 2
    times the size of `thr`."""
    cluster = make_cluster({"V100": 2, "K80": 2}, placement_aware=True)
    C = len(cluster.configurations)
    for n in (4, 16, 40):
        rows = [JobCombination.of(a) for a in range(n)]
        rows += [JobCombination.of(a, b) for a in range(n) for b in range(a + 1, n)]
        T = ThroughputMatrix(cluster, rows, np.ones((len(rows), C, 2)),
                             np.ones((len(rows), C), dtype=bool))
        space = ProblemSpace([Job(id=a) for a in range(n)], T)
        held = sum(v.nbytes for v in vars(space).values() if isinstance(v, np.ndarray))
        held += sum(a.nbytes for a in (space.validity.row, space.validity.col,
                                       space.validity.val))
        assert held <= 10 * T.thr.nbytes, (n, held, T.thr.nbytes)
