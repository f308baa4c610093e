"""Colocated-throughput estimation: low-rank matrix completion over a set of
pre-profiled reference jobs, nearest-reference matching for new jobs, and
online refinement from observed rates.

Completion is alternating least squares with every matrix of a stack,
every restart and every row of a factor updated in one batched solve per
half-step, so all of a trace's new jobs are fingerprinted in one call.

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
# Seeded ALS starts per completion; the lowest final objective wins.
RESTARTS = 3
EWMA_ALPHA = 0.25
# Measurements a new job needs before it can be fingerprinted.
MIN_OBSERVED = 2


class CompletionError(ValueError):
    pass


def complete_matrix(partial: np.ndarray, mask: np.ndarray, rank: int, reg: float,
                    iters: int, seed) -> np.ndarray:
    """Alternating least squares low-rank completion of an (n, p) matrix, or
    of each matrix of an (m, n, p) stack with one seed per matrix.

    Minimizes the squared error on observed cells (mask True) with L2
    regularization on both factors.  ALS is non-convex, so several seeded
    uniform(0,1) starts are run and the factorization with the lowest final
    objective wins (the first on ties).  Observed cells are copied through
    unchanged in the returned matrix.  Deterministic for a fixed seed.

    Given V every row of U is an independent ridge regression (and vice
    versa), so one batched solve over all matrices, restarts and rows gives
    the same iterates as updating the rows one at a time, and completing a
    stack gives each matrix's completion bit for bit.
    """
    if not (rank >= 1 and np.isfinite(reg) and reg > 0 and iters >= 1):
        raise ValueError(f"need rank >= 1, a finite reg > 0 and iters >= 1, "
                         f"not rank {rank}, reg {reg}, iters {iters}")
    partial = np.asarray(partial, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if partial.shape != mask.shape:
        raise CompletionError("matrix and mask shapes differ")
    if np.any(mask.sum(axis=-1) == 0) or np.any(mask.sum(axis=-2) == 0):
        raise CompletionError("every row and column needs at least one observation")

    single = partial.ndim == 2
    if single:
        partial, mask = partial[None], mask[None]
    m, n, p = partial.shape
    U = np.empty((m, RESTARTS, n, rank))
    V = np.empty((m, RESTARTS, p, rank))
    for k, s in enumerate(np.broadcast_to(seed, m).tolist()):
        for attempt in range(RESTARTS):
            rng = np.random.default_rng(s + attempt)
            U[k, attempt] = rng.uniform(0.0, 1.0, size=(n, rank))
            V[k, attempt] = rng.uniform(0.0, 1.0, size=(p, rank))
    weight = mask.astype(float)
    observed = np.where(mask, partial, 0.0)
    eye = reg * np.eye(rank)
    # einsum adds a Gram's (w * a) * b terms in order, starting from zero.
    # The first `lead` rows are fully observed in every matrix, so they share
    # one U-step Gram (summed once, for row 0), and their sum is the common
    # start of every column's V-step Gram, to which the later rows are added
    # in order.  The weight of ones keeps that sum's products (1 * a) * b.
    full = mask.all(axis=(0, 2))
    lead = n if full.all() else int(full.argmin())
    distinct = np.r_[0:min(lead, 1), lead:n]
    spread = np.r_[np.zeros(lead, dtype=np.intp), min(lead, 1):len(distinct)]
    row_weight = weight[:, distinct]
    ones = np.ones(lead)
    for _ in range(iters):
        gram = np.einsum("mij,msjk,msjl->msikl", row_weight, V, V) + eye
        U = np.linalg.solve(gram[:, :, spread], (observed[:, None] @ V)[..., None])[..., 0]
        head = U[:, :, :lead]
        gram = np.repeat(np.einsum("i,msik,msil->mskl", ones, head, head)[:, :, None],
                         p, axis=2)
        for i in range(lead, n):
            u = U[:, :, None, i]
            gram += (weight[:, None, i, :, None, None] * u[..., :, None]) * u[..., None, :]
        V = np.linalg.solve(gram + eye,
                            (observed.swapaxes(-1, -2)[:, None] @ U)[..., None])[..., 0]

    err = np.where(mask[:, None], U @ V.swapaxes(-1, -2) - partial[:, None], 0.0)
    objective = (err * err).sum(axis=(-2, -1)) \
        + reg * ((U * U).sum(axis=(-2, -1)) + (V * V).sum(axis=(-2, -1)))
    best = objective.argmin(axis=-1)  # argmin keeps the first restart on ties
    stack = np.arange(m)
    completed = U[stack, best] @ V[stack, best].swapaxes(-1, -2)
    completed[mask] = partial[mask]
    return completed[0] if single else completed


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
                          refs: ReferenceSet, seeds, rank: int = DEFAULT_RANK,
                          reg: float = DEFAULT_REG, iters: int = DEFAULT_ITERS):
    """Complete partially measured colocation rows and match each to the
    closest reference job (Euclidean distance, ties to the lowest id).

    `measurements` holds one row per new job: its normalized colocated
    throughput against each reference job, valid where `observed` is True;
    every row needs at least `MIN_OBSERVED` observed entries.  Each row is
    stacked under the reference matrix and completed with its own seed (one
    per row in `seeds`), all in one `complete_matrix` call.  Returns
    (matches, fingerprints): each row's reference index and its completed
    row.
    """
    measurements = np.asarray(measurements, dtype=float)
    observed = np.asarray(observed, dtype=bool)
    m, n = len(measurements), refs.size
    if measurements.shape != (m, n) or observed.shape != (m, n):
        raise ValueError("measurement rows must align with the reference set")
    if len(seeds) != m:
        raise ValueError(f"{m} measurement rows need {m} seeds, not {len(seeds)}")
    short = np.flatnonzero(observed.sum(axis=1) < MIN_OBSERVED)
    if short.size:
        raise CompletionError(f"row {short[0]}: need at least {MIN_OBSERVED} "
                              "observed entries to fingerprint")

    stacked = np.concatenate([np.broadcast_to(refs.R, (m, n, n)),
                              np.where(observed, measurements, 0.0)[:, None]], axis=1)
    mask = np.concatenate([np.ones((m, n, n), dtype=bool), observed[:, None]], axis=1)
    fingerprints = complete_matrix(stacked, mask, rank=rank, reg=reg, iters=iters,
                                   seed=seeds)[:, -1]
    dists = np.linalg.norm(refs.R - fingerprints[:, None], axis=-1)
    # argmin takes the first (lowest id) on ties
    return dists.argmin(axis=1).tolist(), fingerprints


@dataclass
class OnlineEstimates:
    """Exponentially weighted running means (weight EWMA_ALPHA on the newest
    value) of observed values; the simulator keys normalized colocated
    throughputs by (job id, partner id)."""

    values: dict = field(default_factory=dict)

    def observe(self, key, measured: float):
        if key not in self.values:
            self.values[key] = float(measured)
        else:
            self.values[key] = (1 - EWMA_ALPHA) * self.values[key] \
                + EWMA_ALPHA * float(measured)
