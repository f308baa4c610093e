import numpy as np
import pytest

from hetsched.estimator import (DEFAULT_ITERS, DEFAULT_RANK, DEFAULT_REG,
                                RESTARTS, CompletionError, OnlineEstimates,
                                ReferenceSet, complete_matrix,
                                fingerprint_and_match)

from oracles import reference_complete_matrix, restart_batched_complete_matrix


def low_rank(rng, n, p, rank):
    U = rng.uniform(0.2, 1.0, size=(n, rank))
    V = rng.uniform(0.2, 1.0, size=(p, rank))
    return U @ V.T


class TestCompleteMatrix:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(0)
        M = low_rank(rng, 8, 8, 1)
        mask = rng.random((8, 8)) < 0.5
        mask[np.arange(8), np.arange(8)] = True  # every row/col observed
        out = complete_matrix(M, mask, rank=1, reg=1e-4, iters=DEFAULT_ITERS,
                              seed=1)
        held = ~mask
        rmse = np.sqrt(np.mean((out[held] - M[held]) ** 2))
        assert rmse < 0.05 * M.mean()

    def test_rank_two_recovery(self):
        rng = np.random.default_rng(3)
        M = low_rank(rng, 10, 10, 2)
        mask = rng.random((10, 10)) < 0.6
        mask[np.arange(10), np.arange(10)] = True
        out = complete_matrix(M, mask, rank=2, reg=1e-4, iters=DEFAULT_ITERS,
                              seed=1)
        held = ~mask
        rmse = np.sqrt(np.mean((out[held] - M[held]) ** 2))
        assert rmse < 0.1 * M.mean()

    def test_fully_observed_returned_unchanged(self):
        rng = np.random.default_rng(1)
        M = rng.random((5, 5))
        out = complete_matrix(M, np.ones_like(M, dtype=bool), rank=2,
                              reg=DEFAULT_REG, iters=DEFAULT_ITERS, seed=0)
        assert np.array_equal(out, M)

    def test_observed_cells_preserved_exactly(self):
        rng = np.random.default_rng(2)
        M = low_rank(rng, 6, 6, 1)
        mask = rng.random((6, 6)) < 0.7
        mask[np.arange(6), np.arange(6)] = True
        out = complete_matrix(M, mask, rank=1, reg=DEFAULT_REG,
                              iters=DEFAULT_ITERS, seed=0)
        assert np.max(np.abs(out[mask] - M[mask])) < 1e-12

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(5)
        M = low_rank(rng, 8, 8, 2) + rng.normal(0, 0.01, size=(8, 8))
        mask = rng.random((8, 8)) < 0.6
        mask[np.arange(8), np.arange(8)] = True
        _, history = reference_complete_matrix(M, mask, rank=3)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-9)

    def test_empty_row_rejected(self):
        M = np.ones((3, 3))
        mask = np.ones((3, 3), dtype=bool)
        mask[1, :] = False
        with pytest.raises(CompletionError):
            complete_matrix(M, mask, rank=1, reg=DEFAULT_REG, iters=DEFAULT_ITERS,
                            seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        M = low_rank(rng, 6, 6, 2)
        mask = rng.random((6, 6)) < 0.5
        mask[np.arange(6), np.arange(6)] = True
        a = complete_matrix(M, mask, rank=2, reg=DEFAULT_REG, iters=DEFAULT_ITERS, seed=42)
        b = complete_matrix(M, mask, rank=2, reg=DEFAULT_REG, iters=DEFAULT_ITERS, seed=42)
        assert np.array_equal(a, b)


def match_one(measurements, observed, refs, seed=0):
    """fingerprint_and_match on a single measurement row."""
    matches, fingerprints = fingerprint_and_match(
        np.asarray(measurements)[None], np.asarray(observed)[None], refs, [seed])
    return matches[0], fingerprints[0]


def reference_set(rng, n=8):
    a = rng.uniform(0.1, 0.9, size=n)
    b = rng.uniform(0.1, 0.9, size=n)
    R = np.clip(1.0 - np.outer(a, b), 0.05, 1.0)
    return ReferenceSet([f"ref-{i}" for i in range(n)], R)


class TestFingerprint:
    def test_self_match_with_three_observations(self):
        rng = np.random.default_rng(0)
        refs = reference_set(rng)
        target = 3
        observed = np.zeros(refs.size, dtype=bool)
        observed[[0, 4, 6]] = True
        meas = np.where(observed, refs.R[target], 0.0)
        match, fingerprint = match_one(meas, observed, refs)
        assert match == target
        assert np.allclose(fingerprint[observed], refs.R[target][observed],
                           atol=1e-9)

    def test_single_reference(self):
        refs = ReferenceSet(["only"], np.array([[0.8]]))
        with pytest.raises(CompletionError):
            match_one(np.array([0.8]), np.array([True]), refs)

    def test_tie_goes_to_lowest_id(self):
        R = np.array([[0.5, 0.5], [0.5, 0.5]])
        refs = ReferenceSet(["a", "b"], R)
        match, _ = match_one(np.array([0.5, 0.5]), np.array([True, True]), refs)
        assert match == 0

    def test_needs_two_observations(self):
        rng = np.random.default_rng(1)
        refs = reference_set(rng)
        observed = np.ones((3, refs.size), dtype=bool)
        observed[1, 1:] = False
        with pytest.raises(CompletionError, match="row 1:"):
            fingerprint_and_match(refs.R[:3] * observed, observed, refs, [0, 1, 2])

    def test_one_seed_per_row(self):
        rng = np.random.default_rng(1)
        refs = reference_set(rng)
        observed = np.ones((2, refs.size), dtype=bool)
        with pytest.raises(ValueError, match="need 2 seeds"):
            fingerprint_and_match(refs.R[:2], observed, refs, [0])

    def test_invariant_under_reference_permutation(self):
        rng = np.random.default_rng(9)
        refs = reference_set(rng, 6)
        target = 2
        observed = np.zeros(6, dtype=bool)
        observed[[1, 3, 5]] = True
        meas = np.where(observed, refs.R[target], 0.0)
        match, _ = match_one(meas, observed, refs)
        perm = np.array([5, 4, 3, 2, 1, 0])
        refs_p = ReferenceSet([refs.names[i] for i in perm], refs.R[np.ix_(perm, perm)])
        meas_p = np.where(observed[perm], refs_p.R[np.where(perm == target)[0][0]], 0.0)
        match_p, _ = match_one(meas_p, observed[perm], refs_p)
        assert refs_p.names[match_p] == refs.names[match]


class TestBatchedAlsMatchesPerRowReference:
    """The batched ALS against the row-at-a-time loop it replaced, on the
    9x8 stacked matrices `fingerprint_and_match` completes (8 references
    plus one partially observed row)."""

    INSTANCES = 120

    def instances(self):
        for k in range(self.INSTANCES):
            rng = np.random.default_rng(1000 + k)
            refs = reference_set(rng)
            observed = rng.random(refs.size) < 0.3
            observed[rng.choice(refs.size, size=2, replace=False)] = True
            meas = np.where(observed, rng.uniform(0.05, 1.1, refs.size), 0.0)
            stacked = np.vstack([refs.R, meas])
            mask = np.vstack([np.ones_like(refs.R, dtype=bool), observed])
            yield k, refs, meas, observed, stacked, mask

    def test_completion_and_match_agree(self):
        for seed, refs, meas, observed, stacked, mask in self.instances():
            want, _ = reference_complete_matrix(
                stacked, mask, rank=DEFAULT_RANK, reg=DEFAULT_REG,
                iters=DEFAULT_ITERS, seed=seed, restarts=RESTARTS)
            got = complete_matrix(stacked, mask, rank=DEFAULT_RANK, reg=DEFAULT_REG,
                                  iters=DEFAULT_ITERS, seed=seed)
            assert np.max(np.abs(got - want)) <= 1e-10, seed
            match, _ = match_one(meas, observed, refs, seed=seed)
            want_match = int(np.argmin(np.linalg.norm(refs.R - want[-1], axis=1)))
            assert match == want_match, seed

    def test_every_restart_nonincreasing(self):
        # Restarts are independent, so restart `a` of a run seeded `s` is the
        # single-restart run seeded `s + a`.
        for seed, _, _, _, stacked, mask in self.instances():
            for attempt in range(RESTARTS):
                _, history = reference_complete_matrix(
                    stacked, mask, seed=seed + attempt, restarts=1)
                assert np.all(np.diff(history) <= 1e-12), (seed, attempt)


class TestStackedAlsIsBitIdentical:
    """The stacked ALS against `restart_batched_complete_matrix`, the ALS as
    it stood when it completed one matrix per call: every completion must be
    `np.array_equal` to it."""

    def test_fingerprints_of_estimator_shaped_stacks(self):
        # 12 stacks of 20 new jobs over 8 references, 2 to 8 observed each.
        checked = 0
        for k in range(12):
            rng = np.random.default_rng(2000 + k)
            refs = reference_set(rng)
            observed = np.zeros((20, refs.size), dtype=bool)
            for row, count in zip(observed, rng.integers(2, refs.size + 1, size=20)):
                row[rng.choice(refs.size, size=count, replace=False)] = True
            meas = np.where(observed, rng.uniform(0.05, 1.1, observed.shape), 0.0)
            seeds = [100 * k + i for i in range(20)]
            matches, fingerprints = fingerprint_and_match(meas, observed, refs, seeds)
            for i, seed in enumerate(seeds):
                stacked = np.vstack([refs.R, meas[i]])
                mask = np.vstack([np.ones_like(refs.R, dtype=bool), observed[i]])
                want = restart_batched_complete_matrix(stacked, mask, seed=seed)[-1]
                assert np.array_equal(fingerprints[i], want), (k, i)
                assert matches[i] == int(np.argmin(np.linalg.norm(refs.R - want,
                                                                  axis=1)))
                checked += 1
        assert checked >= 200

    def test_random_masks(self):
        # Stacks of 1 to 4 matrices of rank 1 to 3 whose first `lead` rows
        # are fully observed in every matrix.
        checked, leads = 0, set()
        for k in range(120):
            rng = np.random.default_rng(3000 + k)
            m, n, p = rng.integers(1, 5), rng.integers(2, 10), rng.integers(2, 10)
            rank = int(rng.integers(1, 4))
            lead = int(rng.integers(0, n))
            partial = rng.uniform(0.0, 1.0, size=(m, n, p))
            mask = rng.random((m, n, p)) < 0.5
            mask[:, :lead] = True
            mask[:, np.arange(n), rng.integers(0, p, size=n)] = True
            mask[:, rng.integers(0, n, size=p), np.arange(p)] = True
            seeds = rng.integers(0, 1000, size=m).tolist()
            got = complete_matrix(partial, mask, rank=rank, reg=DEFAULT_REG,
                                  iters=DEFAULT_ITERS, seed=seeds)
            for i, seed in enumerate(seeds):
                want = restart_batched_complete_matrix(partial[i], mask[i],
                                                       rank=rank, seed=seed)
                assert np.array_equal(got[i], want), (k, i)
                alone = complete_matrix(partial[i], mask[i], rank=rank, reg=DEFAULT_REG,
                                        iters=DEFAULT_ITERS, seed=seed)
                assert np.array_equal(alone, want), (k, i)
                checked += 1
            leads.add(lead)
        assert checked >= 200 and leads == set(range(9))


class TestOnlineRefinement:
    def test_converges_toward_observations(self):
        est = OnlineEstimates()
        est.values[("a", "b")] = 2.0
        prev = 2.0
        for _ in range(20):
            est.observe(("a", "b"), 1.0)
            now = est.values[("a", "b")]
            assert now <= prev + 1e-12
            prev = now
        assert abs(prev - 1.0) < 0.02

    def test_no_observations_no_change(self):
        est = OnlineEstimates()
        est.values[("a", "b")] = 2.0
        est.observe(("a", "c"), 5.0)
        assert est.values[("a", "b")] == 2.0


class TestReferenceSetLoading:
    def test_from_throughput_matrix_format(self):
        from hetsched.cluster import make_cluster
        from hetsched.jobs import JobCombination
        from hetsched.matrices import ThroughputMatrix

        cluster = make_cluster({"P100": 1})
        iso = [2.0, 3.0, 1.5]
        rows = [JobCombination.of(i) for i in range(3)]
        entries = [[(v,)] for v in iso]
        fac = np.array([[1.0, 0.8, 0.7], [0.9, 1.0, 0.6], [0.85, 0.75, 1.0]])
        for i in range(3):
            for j in range(i + 1, 3):
                rows.append(JobCombination.of(i, j))
                entries.append([(iso[i] * fac[i][j], iso[j] * fac[j][i])])
        T = ThroughputMatrix.from_cells(cluster, rows, entries)
        refs = ReferenceSet.from_throughputs(T)
        assert np.allclose(refs.R, fac)

    def test_missing_pair_rejected(self):
        from hetsched.cluster import make_cluster
        from hetsched.jobs import JobCombination
        from hetsched.matrices import ThroughputMatrix

        cluster = make_cluster({"P100": 1})
        rows = [JobCombination.of(0), JobCombination.of(1)]
        T = ThroughputMatrix.from_cells(cluster, rows, [[(1.0,)], [(1.0,)]])
        with pytest.raises(ValueError):
            ReferenceSet.from_throughputs(T)
