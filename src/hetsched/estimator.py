"""Colocated-throughput estimation: low-rank matrix completion over a set of
pre-profiled reference jobs, nearest-reference matching for new jobs, and
online refinement from observed rates.

Completion is alternating least squares with every restart and every row
of a factor updated in one batched solve per half-step.

Pairwise colocated throughputs are normalized by each job's isolated
throughput on the same configuration, so entries live in [0, ~1.2] and the
matrix is approximately low rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_RANK = 3
DEFAULT_REG = 1e-2
DEFAULT_ITERS = 50
EWMA_ALPHA = 0.25


class CompletionError(ValueError):
    pass


def complete_matrix(partial: np.ndarray, mask: np.ndarray, rank: int = DEFAULT_RANK,
                    reg: float = DEFAULT_REG, iters: int = DEFAULT_ITERS,
                    seed: int = 0, restarts: int = 3,
                    return_history: bool = False):
    """Alternating least squares low-rank completion.

    Minimizes the squared error on observed cells (mask True) with L2
    regularization on both factors.  ALS is non-convex, so several seeded
    uniform(0,1) starts are run and the factorization with the lowest final
    objective wins (the first on ties).  Observed cells are copied through
    unchanged in the returned matrix.  Deterministic for a fixed seed.

    Given V every row of U is an independent ridge regression (and vice
    versa), so one batched solve over all restarts and rows gives the same
    iterates as updating the rows one at a time.
    """
    partial = np.asarray(partial, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if partial.shape != mask.shape:
        raise CompletionError("matrix and mask shapes differ")
    if rank < 1:
        raise CompletionError("rank must be >= 1")
    if np.any(mask.sum(axis=1) == 0) or np.any(mask.sum(axis=0) == 0):
        raise CompletionError("every row and column needs at least one observation")

    n, p = partial.shape
    U, V = [], []
    for attempt in range(max(1, restarts)):
        rng = np.random.default_rng(seed + attempt)
        U.append(rng.uniform(0.0, 1.0, size=(n, rank)))
        V.append(rng.uniform(0.0, 1.0, size=(p, rank)))
    U, V = np.stack(U), np.stack(V)  # (restarts, n or p, rank)
    weight = mask.astype(float)
    observed = np.where(mask, partial, 0.0)
    eye = reg * np.eye(rank)
    Us, Vs = [U], [V]
    for _ in range(iters):
        gram = np.einsum("ij,sjk,sjl->sikl", weight, V, V) + eye
        U = np.linalg.solve(gram, (observed @ V)[..., None])[..., 0]
        gram = np.einsum("ij,sik,sil->sjkl", weight, U, U) + eye
        V = np.linalg.solve(gram, (observed.T @ U)[..., None])[..., 0]
        Us.append(U)
        Vs.append(V)

    # Objective of every iterate of every restart: (iters + 1, restarts).
    Us, Vs = np.stack(Us), np.stack(Vs)
    err = np.where(mask, Us @ Vs.swapaxes(-1, -2) - partial, 0.0)
    history = (err * err).sum(axis=(-2, -1)) \
        + reg * ((Us * Us).sum(axis=(-2, -1)) + (Vs * Vs).sum(axis=(-2, -1)))
    best = int(np.argmin(history[-1]))  # argmin keeps the first restart on ties
    completed = U[best] @ V[best].T
    completed[mask] = partial[mask]
    if return_history:
        return completed, history[:, best].tolist()
    return completed


@dataclass
class ReferenceSet:
    """Fully profiled reference jobs with their pairwise normalized
    colocated-throughput matrix R (square, complete)."""

    names: list
    R: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        n = len(self.names)
        if self.R.shape != (n, n):
            raise ValueError("R must be square over the reference jobs")
        if np.any(~np.isfinite(self.R)):
            raise ValueError("reference matrix must be complete")

    @property
    def size(self) -> int:
        return len(self.names)

    @classmethod
    def from_throughputs(cls, T) -> "ReferenceSet":
        """Build a reference set from a throughput matrix whose rows hold all
        singletons and all pairs of the reference jobs.

        Each pair entry is normalized by the member's own singleton
        throughput on the same configuration; the first configuration where
        both are feasible is used.  Diagonal cells (a job with itself) are 1.
        """
        ids = [combo.members[0] for combo in T.rows if not combo.is_pair]
        names = [f"job-{i}" for i in ids]
        index = {job_id: k for k, job_id in enumerate(ids)}
        n = len(ids)
        R = np.full((n, n), np.nan)
        np.fill_diagonal(R, 1.0)
        iso = T.thr[:, :, 0]
        usable = T.feasible & (iso > 0)
        for r in T.is_pair.nonzero()[0]:
            a, b = T.rows[r].members
            ia, ib = T.singleton_row(a), T.singleton_row(b)
            ok = T.feasible[r] & usable[ia] & usable[ib]
            if ok.any():
                c = ok.argmax()
                R[index[a], index[b]] = T.thr[r, c, 0] / iso[ia, c]
                R[index[b], index[a]] = T.thr[r, c, 1] / iso[ib, c]
        if np.any(np.isnan(R)):
            raise ValueError("reference throughputs must cover every pair")
        return cls(names, R)


def fingerprint_and_match(measurements: np.ndarray, observed: np.ndarray,
                          refs: ReferenceSet, rank: int = DEFAULT_RANK,
                          reg: float = DEFAULT_REG, iters: int = DEFAULT_ITERS,
                          seed: int = 0):
    """Complete a partially measured colocation row and return the index of
    the closest reference job (Euclidean distance, ties to the lowest id).

    `measurements` is the new job's normalized colocated throughput against
    each reference job, valid where `observed` is True; at least two entries
    must be observed.
    """
    measurements = np.asarray(measurements, dtype=float)
    observed = np.asarray(observed, dtype=bool)
    if measurements.shape != (refs.size,) or observed.shape != (refs.size,):
        raise ValueError("measurement vector must align with the reference set")
    if observed.sum() < 2:
        raise CompletionError("need at least two observed entries to fingerprint")

    stacked = np.vstack([refs.R, np.where(observed, measurements, 0.0)])
    mask = np.vstack([np.ones_like(refs.R, dtype=bool), observed])
    completed = complete_matrix(stacked, mask, rank=rank, reg=reg, iters=iters,
                                seed=seed)
    fingerprint = completed[-1]
    dists = np.linalg.norm(refs.R - fingerprint, axis=1)
    best = int(np.argmin(dists))  # argmin takes the first (lowest id) on ties
    return best, fingerprint


@dataclass
class OnlineEstimates:
    """Exponentially weighted running means (weight EWMA_ALPHA on the newest
    value) of observed values; the simulator keys normalized colocated
    throughputs by (job id, partner id)."""

    values: dict = field(default_factory=dict)

    def get(self, key, default: float | None = None):
        return self.values.get(key, default)

    def observe(self, key, measured: float):
        if key not in self.values:
            self.values[key] = float(measured)
        else:
            self.values[key] = (1 - EWMA_ALPHA) * self.values[key] \
                + EWMA_ALPHA * float(measured)
