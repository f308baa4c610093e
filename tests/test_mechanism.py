import dataclasses
import itertools
import math

import numpy as np
import pytest

from hetsched.cluster import make_cluster
from hetsched.jobs import Job, JobCombination
from hetsched.matrices import AllocationMatrix, ThroughputMatrix
from hetsched.mechanism import (Assignment, CompiledAllocation,
                                PlacementError, RoundLedger, RoundPlan,
                                compute_priorities, place, plan_round,
                                reorder, repeats, settle_round)
import oracles


def singles(cluster, T_rows):
    rows = [JobCombination.of(i) for i in range(len(T_rows))]
    entries = [[(float(v),) if v > 0 else None for v in row] for row in T_rows]
    return ThroughputMatrix.from_cells(cluster, rows, entries)


def first_plan(X, jobs) -> RoundPlan:
    """The plan of a fresh ledger's first round."""
    decision, ledger = CompiledAllocation(X, jobs), RoundLedger(360.0)
    return plan_round(compute_priorities(decision, ledger), decision, ledger)


def jobs_scheduled(plan: RoundPlan) -> set:
    return {m for a in plan.assignments for m in a.combo.members}


def credit(ledger, T, *rows):
    """Settle one round in which the given rows ran on configuration 0."""
    settle_round(RoundPlan([Assignment(T.rows[r], r, 0, 1) for r in rows], {},
                           len(rows)), ledger, T)


def empirical_fractions(X, jobs, cluster, T, rounds):
    ledger = RoundLedger(360.0)
    decision = CompiledAllocation(X, jobs)
    for _ in range(rounds):
        pr = compute_priorities(decision, ledger)
        plan = plan_round(pr, decision, ledger)
        settle_round(plan, ledger, T)
    return ledger.received(T) / (rounds * 360.0)


@pytest.fixture
def three_type_cluster():
    return make_cluster({"V100": 1, "P100": 1, "K80": 1})


@pytest.fixture
def example_allocation(three_type_cluster):
    T = singles(three_type_cluster, [[4.0, 2.0, 1.0]] * 3)
    X = AllocationMatrix(T, np.array([[0.6, 0.4, 0.0],
                                      [0.2, 0.6, 0.2],
                                      [0.2, 0.0, 0.8]]))
    jobs = {i: Job(id=i, num_steps=10 ** 9) for i in range(3)}
    return T, X, jobs


class TestPriorities:
    def test_ratio_convention(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0], [1.0], [1.0]])
        X = AllocationMatrix(T, np.array([[0.6], [0.4], [0.0]]))
        ledger = RoundLedger(360.0)
        credit(ledger, T, 0, 1)
        pr = compute_priorities(CompiledAllocation(X, {}), ledger)
        # f = 0.5 each for rows 0/1: priorities X/f.
        assert pr[0, 0] == pytest.approx(1.2)
        assert pr[1, 0] == pytest.approx(0.8)
        assert pr[2, 0] == 0.0  # X == 0

    def test_never_ran_is_infinite(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0], [1.0]])
        X = AllocationMatrix(T, np.array([[0.4], [0.6]]))
        ledger = RoundLedger(360.0)
        credit(ledger, T, 0)
        credit(ledger, T, 0)
        pr = compute_priorities(CompiledAllocation(X, {}), ledger)
        assert pr[1, 0] == math.inf
        assert pr[0, 0] == pytest.approx(0.4)  # f = 1.0

    def test_fresh_ledger_all_infinite(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0]])
        X = AllocationMatrix(T, np.array([[0.5]]))
        pr = compute_priorities(CompiledAllocation(X, {}), RoundLedger(360.0))
        assert pr[0, 0] == math.inf


class TestPlanRound:
    def test_conflict_removal(self):
        cluster = make_cluster({"gpu": 1})
        rows = [JobCombination.of(0), JobCombination.of(0, 1)]
        T = ThroughputMatrix.from_cells(cluster, rows, [[(1.0,)], [(0.6, 0.6)]])
        X = AllocationMatrix(T, np.array([[0.4], [0.2]]))
        jobs = {0: Job(id=0, num_steps=10), 1: Job(id=1, num_steps=10)}
        ledger = RoundLedger(360.0)
        decision = CompiledAllocation(X, jobs)
        credit(ledger, T, 0, 1)
        pr = compute_priorities(decision, ledger)
        plan = plan_round(pr, decision, ledger)
        assert [a.combo for a in plan.assignments] == [rows[0]]

    def test_each_job_at_most_once(self):
        cluster = make_cluster({"gpu": 4})
        rows = [JobCombination.of(0), JobCombination.of(1),
                JobCombination.of(0, 1)]
        T = ThroughputMatrix.from_cells(cluster, rows, [[(1.0,)], [(1.0,)], [(0.9, 0.9)]])
        X = AllocationMatrix(T, np.array([[0.5], [0.5], [0.5]]))
        jobs = {0: Job(id=0, num_steps=10), 1: Job(id=1, num_steps=10)}
        plan = first_plan(X, jobs)
        seen = [m for a in plan.assignments for m in a.combo.members]
        assert len(seen) == len(set(seen))

    def test_large_job_waits_for_capacity(self):
        cluster = make_cluster({"gpu": 8})
        rows = [JobCombination.of(0), JobCombination.of(1)]
        T = ThroughputMatrix.from_cells(cluster, rows, [[(8.0,)], [(4.0,)]])
        X = AllocationMatrix(T, np.array([[0.5], [0.5]]))
        jobs = {0: Job(id=0, num_steps=10 ** 9, scale_factor=8),
                1: Job(id=1, num_steps=10 ** 9, scale_factor=4)}
        ledger = RoundLedger(360.0)
        decision = CompiledAllocation(X, jobs)
        scheduled = []
        for _ in range(4):
            pr = compute_priorities(decision, ledger)
            plan = plan_round(pr, decision, ledger)
            scheduled.append(sorted(jobs_scheduled(plan)))
            settle_round(plan, ledger, T)
        # The 8-worker job and the 4-worker job must alternate: neither can
        # run alongside the other, and skipped rounds raise priority.
        assert [0] in scheduled and [1] in scheduled
        flat = [s for s in scheduled]
        assert all(s in ([0], [1]) for s in flat)

    def test_work_conserving_fills_idle(self):
        cluster = make_cluster({"gpu": 2})
        T = singles(cluster, [[1.0], [1.0]])
        X = AllocationMatrix(T, np.array([[1.0], [0.0]]))  # job 1 unallocated
        jobs = {0: Job(id=0, num_steps=10), 1: Job(id=1, num_steps=10)}
        plan = first_plan(X, jobs)
        assert jobs_scheduled(plan) == {0, 1}
        # The greedy pass takes job 0 alone and leaves a worker idle; the
        # filler hands it to job 1.
        assert plan.greedy == 1
        assert plan.assignments[0].combo == JobCombination.of(0)
        assert plan.idle_workers[0] == 0

    def test_no_idle_with_eligible_positive_priority(self, example_allocation):
        T, X, jobs = example_allocation
        ledger = RoundLedger(360.0)
        decision = CompiledAllocation(X, jobs)
        for _ in range(10):
            pr = compute_priorities(decision, ledger)
            plan = plan_round(pr, decision, ledger)
            # Demand saturates capacity here, so the greedy pass alone
            # leaves no worker idle, and the filler takes nothing.
            assert plan.greedy == len(plan.assignments)
            assert all(v == 0 for v in plan.idle_workers.values())
            settle_round(plan, ledger, T)


class TestConvergence:
    def test_worked_example_fractions(self, example_allocation):
        T, X, jobs = example_allocation
        cluster = T.cluster
        errs = {}
        for rounds in (10, 20, 50, 200):
            F = empirical_fractions(X, jobs, cluster, T, rounds)
            errs[rounds] = np.abs(F - X.values).max()
        assert errs[20] <= 0.10
        assert errs[200] <= 0.03
        assert errs[10] >= errs[50] >= errs[200]

    def test_random_saturated_allocations_converge(self):
        rng = np.random.default_rng(4)
        cluster = make_cluster({"A": 1, "B": 1, "C": 1})
        jobs = {i: Job(id=i, num_steps=10 ** 9) for i in range(4)}
        T = singles(cluster, [[1.0, 1.0, 1.0]] * 4)
        for _ in range(5):
            V = rng.random((4, 3)) + 0.05
            for _ in range(400):
                V /= V.sum(axis=0, keepdims=True)
                rows_sum = V.sum(axis=1, keepdims=True)
                V = np.where(rows_sum > 1, V / rows_sum, V)
            X = AllocationMatrix(T, V)
            errs = [np.abs(empirical_fractions(X, jobs, cluster, T, R) - V).max()
                    for R in (10, 50, 200)]
            assert errs[2] < errs[1] < errs[0]
            assert errs[2] <= 0.02

    def test_no_starvation_with_positive_allocation(self):
        rng = np.random.default_rng(8)
        cluster = make_cluster({"A": 1, "B": 1})
        jobs = {i: Job(id=i, num_steps=10 ** 9) for i in range(3)}
        T = singles(cluster, [[1.0, 1.0]] * 3)
        for _ in range(5):
            V = rng.random((3, 2)) + 0.1
            for _ in range(400):
                V /= V.sum(axis=0, keepdims=True)
                rows_sum = V.sum(axis=1, keepdims=True)
                V = np.where(rows_sum > 1, V / rows_sum, V)
            X = AllocationMatrix(T, V)
            ledger = RoundLedger(360.0)
            decision = CompiledAllocation(X, jobs)
            last_run = {i: -1 for i in jobs}
            max_gap = {i: 0 for i in jobs}
            R = 120
            for rnd in range(R):
                pr = compute_priorities(decision, ledger)
                plan = plan_round(pr, decision, ledger)
                for m in jobs_scheduled(plan):
                    max_gap[m] = max(max_gap[m], rnd - last_run[m])
                    last_run[m] = rnd
                settle_round(plan, ledger, T)
            for i in jobs:
                bound = math.ceil(1.0 / X.values[i].max()) * 4
                assert max_gap[i] <= bound


class TestPlacement:
    def test_eight_gpu_job_consolidated(self):
        cluster = make_cluster({"gpu": 16}, workers_per_server={"gpu": 8})
        rows = [JobCombination.of(0)]
        T = ThroughputMatrix.from_cells(cluster, rows, [[(8.0,)]])
        jobs = {0: Job(id=0, num_steps=10, scale_factor=8)}
        X = AllocationMatrix(T, np.array([[0.5]]))
        plan = first_plan(X, jobs)
        place(plan, cluster)
        a = plan.assignments[0]
        assert a.consolidated
        assert len(a.worker_ids) == 8
        assert max(a.worker_ids) - min(a.worker_ids) == 7

    def test_spread_when_fragmented(self):
        cluster = make_cluster({"gpu": 4}, workers_per_server={"gpu": 2})
        rows = [JobCombination.of(0)]
        T = ThroughputMatrix.from_cells(cluster, rows, [[(4.0,)]])
        jobs = {0: Job(id=0, num_steps=10, scale_factor=4)}
        X = AllocationMatrix(T, np.array([[0.5]]))
        plan = first_plan(X, jobs)
        place(plan, cluster)
        assert not plan.assignments[0].consolidated
        assert plan.assignments[0].worker_ids == [0, 1, 2, 3]

    def test_spread_fills_leftover_slots_in_server_order(self):
        cluster = make_cluster({"V100": 2, "K80": 8},
                               workers_per_server={"V100": 2, "K80": 4})
        k80 = 1  # configuration index; K80 worker ids start after V100's
        plan = RoundPlan([Assignment(JobCombination.of(2), 2, k80, 2),
                          Assignment(JobCombination.of(3), 3, 0, 2),
                          Assignment(JobCombination.of(0), 0, k80, 3),
                          Assignment(JobCombination.of(1), 1, k80, 3)], {}, 4)
        place(plan, cluster)
        by_job = {a.combo.members[0]: a for a in plan.assignments}
        assert by_job[0].worker_ids == [2, 3, 4]
        assert by_job[1].worker_ids == [6, 7, 8]
        # No K80 server has two free workers left: job 2 takes one from each.
        assert by_job[2].worker_ids == [5, 9]
        assert by_job[3].worker_ids == [0, 1]
        assert [by_job[j].consolidated for j in range(4)] == [True, True, False, True]

    def test_over_capacity_plan_raises(self):
        cluster = make_cluster({"gpu": 4}, workers_per_server={"gpu": 2})
        plan = RoundPlan([Assignment(JobCombination.of(0), 0, 0, 4),
                          Assignment(JobCombination.of(1), 1, 0, 1)], {}, 2)
        with pytest.raises(PlacementError, match="only 0 are free"):
            place(plan, cluster)
        assert issubclass(PlacementError, ValueError)

    def test_first_fit_decreasing_packing(self):
        cluster = make_cluster({"gpu": 8}, workers_per_server={"gpu": 4})
        rows = [JobCombination.of(i) for i in range(4)]
        T = ThroughputMatrix.from_cells(cluster, rows, [[(1.0,)]] * 4)
        jobs = {0: Job(id=0, num_steps=10, scale_factor=4),
                1: Job(id=1, num_steps=10, scale_factor=2),
                2: Job(id=2, num_steps=10, scale_factor=1),
                3: Job(id=3, num_steps=10, scale_factor=1)}
        X = AllocationMatrix(T, np.array([[0.5]] * 4))
        plan = first_plan(X, jobs)
        place(plan, cluster)
        by_job = {a.combo.members[0]: a for a in plan.assignments}
        assert set(by_job[0].worker_ids) == {0, 1, 2, 3}
        assert set(by_job[1].worker_ids) == {4, 5}
        assert set(by_job[2].worker_ids) | set(by_job[3].worker_ids) == {6, 7}
        assert all(a.consolidated for a in plan.assignments)


class TestSettle:
    def test_elapsed_credited(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0]])
        X = AllocationMatrix(T, np.array([[1.0]]))
        jobs = {0: Job(id=0, num_steps=10)}
        ledger = RoundLedger(360.0)
        decision = CompiledAllocation(X, jobs)
        plan = plan_round(compute_priorities(decision, ledger), decision, ledger)
        settle_round(plan, ledger, T)
        assert ledger.received(T)[0, 0] == 360.0
        settle_round(plan, ledger, T)
        assert ledger.received(T)[0, 0] == 720.0
        assert ledger.rounds_total == 2

    def test_empty_plan_no_change(self):
        cluster = make_cluster({"gpu": 1})
        T = singles(cluster, [[1.0]])
        ledger = RoundLedger(360.0)
        settle_round(RoundPlan([], {0: 1}, 0), ledger, T)
        assert ledger.time == {}
        assert ledger.rounds_total == 1

    def test_round_log_json(self, example_allocation):
        T, X, jobs = example_allocation
        cluster = T.cluster
        ledger = RoundLedger(360.0)
        decision = CompiledAllocation(X, jobs)
        pr = compute_priorities(decision, ledger)
        plan = plan_round(pr, decision, ledger)
        place(plan, cluster)
        doc = plan.to_json(T, 7)
        assert doc["round"] == 7
        assert {a["config"] for a in doc["assignments"]} <= {"V100", "P100", "K80"}
        assert all(len(a["workers"]) == 1 for a in doc["assignments"])


def _random_matrix(rng, cluster, jobs, rows) -> ThroughputMatrix:
    """Random rates over `rows`, shuffled; a row can run wherever its
    first member's scale factor fits the type."""
    rows = [rows[i] for i in rng.permutation(len(rows))]
    most = [cluster.types[cfg.type_id].num_workers for cfg in cluster.configurations]
    feasible = [[jobs[combo.members[0]].scale_factor <= w for w in most]
                for combo in rows]
    thr = rng.uniform(0.5, 4.0, size=(len(rows), len(most), 2))
    return ThroughputMatrix(cluster, rows, thr, feasible)


def _random_allocation(rng, T) -> AllocationMatrix:
    """Targets from a few values, so that priorities tie."""
    x = rng.choice([0.0, 0.0, 0.2, 0.4, 0.5], size=T.feasible.shape)
    return AllocationMatrix(T, np.where(T.feasible, x, 0.0))


def _history(ledger) -> dict:
    """members -> (seconds, last round run) of every combination that ran,
    whether its row is in the ledger's current matrix or not (a reference
    ledger has no current matrix)."""
    out = {m: (v.tobytes(), ledger.last_scheduled[m])
           for m, v in ledger.time.items()}
    if isinstance(ledger, RoundLedger):
        for r in np.flatnonzero(ledger.last > -np.inf).tolist():
            out[ledger.rows[r].members] = (ledger.seconds[r].tobytes(),
                                           ledger.last[r])
    return out


class TestMatchesReference:
    """The compiled mechanism equals the one that rebuilds everything from
    the matrix every round (`tests/oracles.py`), bit for bit, round after
    round, with one ledger carried across every change of matrix."""

    @staticmethod
    def run_rounds(rng, X, jobs, ledgers, repeated):
        ledger, ref = ledgers
        T = X.T
        decision = CompiledAllocation(X, jobs)
        last = None
        for _ in range(int(rng.integers(2, 9))):
            pr = compute_priorities(decision, ledger)
            ref_pr = oracles.reference_priorities(X, ref)
            assert pr.tobytes() == ref_pr.tobytes()
            plan = place(plan_round(pr, decision, ledger), T.cluster)
            ref_plan = oracles.reference_place(oracles.reference_plan_round(
                ref_pr, jobs, ref, T), T.cluster)
            assert ([dataclasses.astuple(a) for a in plan.assignments]
                    == [dataclasses.astuple(a) for a in ref_plan.assignments])
            assert plan.idle_workers == ref_plan.idle_workers
            assert plan.greedy == ref_plan.greedy
            if last is not None and repeats(last, decision):
                # A certified plan, re-sorted, is the plan made afresh.
                again = reorder(last, pr, decision)
                assert ([dataclasses.astuple(a) for a in again.assignments]
                        == [dataclasses.astuple(a) for a in plan.assignments])
                repeated.append(plan.greedy)
            settle_round(plan, ledger, T)
            oracles.reference_settle_round(ref_plan, ref, T)
            assert ledger.received(T).tobytes() == ref.received(T).tobytes()
            last = plan
        assert _history(ledger) == _history(ref)

    def test_random_decisions(self):
        rng = np.random.default_rng(21)
        readmitted_with_history, repeated = 0, []
        for trial in range(60):
            counts = {name: int(rng.integers(1, 9)) for name in "ABC"[:rng.integers(1, 4)]}
            cluster = make_cluster(
                counts, placement_aware=bool(rng.integers(2)),
                workers_per_server={n: int(rng.integers(1, 5)) for n in counts})
            most = max(counts.values())
            jobs = {}

            def arrive(n):
                for _ in range(n):
                    sf = int(min(rng.choice([1, 1, 2, 4]), most))
                    jobs[len(jobs)] = Job(id=len(jobs), num_steps=10 ** 9,
                                          scale_factor=sf)

            def rows_of(ids):
                pairs = [JobCombination.of(a, b)
                         for a, b in itertools.combinations(sorted(ids), 2)
                         if jobs[a].scale_factor == jobs[b].scale_factor]
                return [JobCombination.of(j) for j in sorted(ids)] + pairs

            arrive(int(rng.integers(3, 8)))
            ledgers = (RoundLedger(360.0), oracles.ReferenceLedger(360.0))
            rows = rows_of(jobs)
            pairs = [combo for combo in rows if combo.is_pair]
            if not pairs:
                continue
            pruned = pairs[int(rng.integers(len(pairs)))]
            self.run_rounds(rng, _random_allocation(
                rng, _random_matrix(rng, cluster, jobs, rows)), jobs, ledgers,
                repeated)
            # A job outside the pair completes; the re-solve prunes the pair
            # and admits an arrival.
            done = [j for j in jobs if j not in pruned.members][:1]
            for ledger in ledgers:
                ledger.drop_jobs(done)
            for j in done:
                del jobs[j]
            arrive(1)
            rows = [combo for combo in rows_of(jobs) if combo != pruned]
            self.run_rounds(rng, _random_allocation(
                rng, _random_matrix(rng, cluster, jobs, rows)), jobs, ledgers,
                repeated)
            # The next re-solve re-admits it, with the history it had.
            readmitted_with_history += pruned.members in ledgers[1].time
            X = _random_allocation(rng, _random_matrix(
                rng, cluster, jobs, rows_of(jobs)))
            self.run_rounds(rng, X, jobs, ledgers, repeated)
            # A completion between periodic re-solves cuts its rows from the
            # matrix and keeps the rest of the allocation.
            gone = int(rng.choice(list(jobs)))
            for ledger in ledgers:
                ledger.drop_jobs([gone])
            del jobs[gone]
            keep = np.array([gone not in combo.members for combo in X.rows])
            self.run_rounds(rng, AllocationMatrix(
                X.T.take(keep), X.values[keep]), jobs, ledgers, repeated)
        assert readmitted_with_history >= 30
        # Certified plans occur, most of them with several assignments.
        assert len(repeated) >= 20 and sum(g > 1 for g in repeated) >= 12
