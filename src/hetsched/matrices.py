"""Throughput and allocation matrices plus the effective-throughput
computation every policy consumes.

Rows are job combinations (singletons, optionally pairs when space sharing),
columns are resource configurations.  A `ThroughputMatrix` holds its cells
as arrays, built once; no array is indexed by job and row together, and the
per-job cell rows an LP needs are built by `policies.ProblemSpace`:

- ``thr[r, c, i]``: member i's steps/second in row r on configuration c,
  members in ``rows[r].members`` order; 0.0 where the cell is infeasible
  and in slot 1 of a singleton row.
- ``feasible[r, c]``: whether combination r can run on configuration c.
- ``ends[r]``: the ``job_ids`` positions of row r's first and last member
  (the same for a singleton); ``job_index`` maps a job id to its position.

The nested-cell form, ``cells[r][c]`` a tuple of per-member rates or None
where infeasible, is parsed only by `ThroughputMatrix.from_cells` (which
`from_json` uses); the `entries` property renders the arrays back into it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress

import numpy as np

from .cluster import ClusterSpec
from .jobs import JobCombination

EPS = 1e-6
# A pair row is kept only when its members' summed normalized throughput
# exceeds this on some configuration.
PAIR_KEEP_THRESHOLD = 1.0


class MatrixShapeError(ValueError):
    """Row/column indexing of two matrices does not line up."""


class UnknownJobError(KeyError):
    pass


class MixedPairError(ValueError):
    """A pair row's members need different worker counts."""


def inorder_sum(a: np.ndarray) -> np.ndarray:
    """Sums along the last axis, added left to right as a Python loop adds
    them; ``np.sum`` and ``@`` group the terms differently, which can move
    the last bit."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return np.cumsum(a, axis=-1)[..., -1]


class ThroughputMatrix:
    def __init__(self, cluster: ClusterSpec, rows, thr, feasible):
        """thr is (rows, configs, 2) steps/second per member; feasible is
        (rows, configs).  Rates of infeasible cells and of a singleton's
        second slot are ignored."""
        self.cluster = cluster
        self.configs = cluster.configurations
        self.rows = tuple(rows)
        self.job_ids = list(dict.fromkeys(m for combo in self.rows
                                          for m in combo.members))
        self._job_index = {job_id: k for k, job_id in enumerate(self.job_ids)}
        first = np.array([self._job_index[combo.members[0]] for combo in self.rows],
                         dtype=np.intp)
        last = np.array([self._job_index[combo.members[-1]] for combo in self.rows],
                        dtype=np.intp)
        # A row is named by its first and last member (one job for a singleton).
        if len(set(zip(first.tolist(), last.tolist()))) != len(self.rows):
            raise ValueError("duplicate combination rows")
        self.ends = np.stack([first, last], axis=1)
        self.is_pair = first != last
        R, C = len(self.rows), len(self.configs)
        thr = np.asarray(thr, dtype=float)
        feasible = np.array(feasible, dtype=bool)
        if thr.shape != (R, C, 2) or feasible.shape != (R, C):
            raise MatrixShapeError(
                f"throughput arrays {thr.shape} and {feasible.shape} do not "
                f"match {R} rows x {C} configurations")
        used = feasible[:, :, None] & np.stack(
            [np.ones(R, dtype=bool), self.is_pair], axis=1)[:, None, :]
        bad = used & ~(np.isfinite(thr) & (thr >= 0))
        if bad.any():
            combo = self.rows[int(bad.any(axis=(1, 2)).argmax())]
            raise ValueError(f"row {combo}: throughput must be finite and "
                             "nonnegative")
        self.thr = np.where(used, thr, 0.0)
        self.feasible = feasible
        self.type_of = np.array([cfg.type_id for cfg in self.configs], dtype=np.intp)
        # Policies share views of these arrays; none may write to them.
        for a in (self.thr, self.feasible, self.ends):
            a.flags.writeable = False

    @classmethod
    def from_cells(cls, cluster: ClusterSpec, rows, cells) -> "ThroughputMatrix":
        """Matrix from nested cells: cells[r][c] is a tuple of per-member
        steps/second (a bare number for a singleton), or None when the
        combination cannot run on that configuration."""
        rows = tuple(rows)
        C = len(cluster.configurations)
        thr = np.zeros((len(rows), C, 2))
        feasible = np.zeros((len(rows), C), dtype=bool)
        for r, combo in enumerate(rows):
            for c in range(C):
                cell = cells[r][c]
                if cell is None:
                    continue
                vals = tuple(float(v) for v in (cell if isinstance(cell, (tuple, list))
                                                else (cell,)))
                if len(vals) != len(combo.members):
                    raise ValueError(
                        f"row {combo} config {c}: expected {len(combo.members)} "
                        f"throughput values, got {len(vals)}")
                thr[r, c, :len(vals)] = vals
                feasible[r, c] = True
        return cls(cluster, rows, thr, feasible)

    @property
    def entries(self) -> list:
        """Nested-cell view of the arrays, in the form `from_cells` takes."""
        return [[tuple(cell[:len(combo.members)]) if ok else None
                 for cell, ok in zip(thr_row, feas_row)]
                for combo, thr_row, feas_row in zip(self.rows, self.thr.tolist(),
                                                    self.feasible.tolist())]

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_configs(self) -> int:
        return len(self.configs)

    @cached_property
    def _row_index(self) -> dict:
        return {combo: r for r, combo in enumerate(self.rows)}

    def row_index(self, combo: JobCombination) -> int:
        try:
            return self._row_index[combo]
        except KeyError:
            raise UnknownJobError(f"no row for combination {combo}") from None

    def singleton_row(self, job_id: int) -> int:
        return self.row_index(JobCombination.of(job_id))

    def job_index(self, job_id: int) -> int:
        """The job's position in `job_ids`, the value `ends` holds for it."""
        try:
            return self._job_index[job_id]
        except KeyError:
            raise UnknownJobError(f"job {job_id} not present in matrix") from None

    def take(self, keep: np.ndarray) -> "ThroughputMatrix":
        """The matrix of the rows where the boolean mask `keep` is true."""
        return ThroughputMatrix(self.cluster, compress(self.rows, keep),
                                self.thr[keep], self.feasible[keep])

    @classmethod
    def from_json(cls, doc: dict) -> "ThroughputMatrix":
        cluster = ClusterSpec.from_json(doc)
        keys = [cfg.key(cluster) for cfg in cluster.configurations]
        rows = [JobCombination(tuple(rdoc["members"])) for rdoc in doc["rows"]]
        cells = []
        for rdoc in doc["rows"]:
            thr = rdoc["throughputs"]
            if not isinstance(thr, dict):
                raise TypeError(f"throughputs must map configurations to cells, "
                                f"not {thr!r}")
            cells.append([thr.get(key) for key in keys])
        return cls.from_cells(cluster, rows, cells)


class AllocationMatrix:
    """Fractions of wall-clock time per (combination, configuration)."""

    def __init__(self, T: ThroughputMatrix, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (T.num_rows, T.num_configs):
            raise MatrixShapeError(
                f"allocation shape {values.shape} != {(T.num_rows, T.num_configs)}")
        self.T = T
        self.rows = T.rows
        self.configs = T.configs
        self.values = values

    def validate(self, jobs: dict):
        """Raise if any allocation-matrix invariant is violated.

        jobs maps job id -> Job (scale factors are needed for the worker
        capacity check, which sums every configuration of a type).
        """
        T = self.T
        if np.any(self.values < -EPS) or np.any(self.values > 1 + EPS):
            raise ValueError("allocation entries must lie in [0, 1]")
        bad = ~T.feasible & (self.values > EPS)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise ValueError(
                f"positive allocation on infeasible cell {self.rows[r]},{c}")
        # Each job's time over its rows, in row order; a singleton's 2nd end adds 0.
        share = self.values.sum(axis=1)
        weights = np.column_stack([share, share * T.is_pair]).ravel()
        over = np.bincount(T.ends.ravel(), weights, len(T.job_ids)) > 1 + EPS
        if over.any():
            raise ValueError(f"job {T.job_ids[over.argmax()]} total time "
                             "fraction exceeds 1")
        types = T.cluster.types
        used = np.bincount(T.type_of, weights=row_workers(T, jobs) @ self.values,
                           minlength=len(types))
        for t in types:
            if used[t.id] > t.num_workers + EPS:
                raise ValueError(f"accelerator type {t.name} oversubscribed")

    def to_json(self) -> dict:
        doc = {"rows": []}
        for r, combo in enumerate(self.rows):
            doc["rows"].append({
                "members": list(combo.members),
                "fractions": {cfg.key(self.T.cluster): self.values[r, c]
                              for c, cfg in enumerate(self.configs)},
            })
        return doc


def row_workers(T: ThroughputMatrix, jobs: dict) -> np.ndarray:
    """Each row's worker count: its first member's scale factor, or 1 when
    `jobs` (job id -> Job) does not list that member.  A pair whose listed
    members differ in scale factor raises `MixedPairError`."""
    # 0 marks a job that `jobs` does not list.
    sf = np.array([jobs[job_id].scale_factor if job_id in jobs else 0
                   for job_id in T.job_ids], dtype=np.intp)
    first, last = sf[T.ends].T
    mixed = (first != last) & (first > 0) & (last > 0)
    if mixed.any():
        r = int(mixed.argmax())
        raise MixedPairError(f"pair {T.rows[r]} mixes scale factors "
                             f"{first[r]} and {last[r]}")
    return np.maximum(first, 1)


def effective_throughput(job_id: int, X: AllocationMatrix,
                         T: ThroughputMatrix) -> float:
    """Time-weighted average steps/second of a job under allocation X."""
    if X.T is not T and (X.rows != T.rows or X.configs != T.configs):
        raise MatrixShapeError("allocation and throughput matrices do not align")
    first, last = (T.ends == T.job_index(job_id)).T
    mine = first | last
    rates = np.where(first[mine, None], T.thr[mine, :, 0], T.thr[mine, :, 1])
    return float(inorder_sum((rates * X.values[mine]).ravel()))


def equal_shares(cluster: ClusterSpec) -> np.ndarray:
    """Each configuration's share of the cluster: num_workers_j /
    total_workers per type, split evenly between a placement-aware type's
    consolidated and unconsolidated configurations."""
    type_of = np.array([cfg.type_id for cfg in cluster.configurations])
    workers = np.array([cluster.types[t].num_workers for t in type_of])
    return workers / cluster.total_workers / np.bincount(type_of)[type_of]


def equal_share_allocation(T: ThroughputMatrix) -> AllocationMatrix:
    """Every singleton row receives its `equal_shares`, so each row sums to
    one and no feasible placement is left unrepresented."""
    values = np.zeros((T.num_rows, T.num_configs))
    values[~T.is_pair] = equal_shares(T.cluster)
    return AllocationMatrix(T, values)


def isolated_allocation(T: ThroughputMatrix, n: int) -> AllocationMatrix:
    """1/n of the equal share: each of n users gets a 1/n time slice."""
    if n < 1:
        raise ValueError("n must be >= 1")
    X = equal_share_allocation(T)
    X.values /= n
    return X


def prune_combinations(T: ThroughputMatrix) -> ThroughputMatrix:
    """Drop pair rows whose summed normalized throughput never beats
    `PAIR_KEEP_THRESHOLD` on any configuration.

    The normalized sum on a configuration is each member's pair throughput
    divided by that member's own singleton throughput there (members whose
    singleton rate is zero add nothing); a pair is worth keeping only if it
    outperforms time-slicing the two jobs (sum > 1).
    """
    pairs = T.is_pair.nonzero()[0]
    ends = T.ends[pairs]
    # Each job's singleton row (rows are distinct), -1 where it has none.
    singles = (~T.is_pair).nonzero()[0]
    single_of = np.full(len(T.job_ids), -1, dtype=np.intp)
    single_of[T.ends[singles, 0]] = singles
    iso_rows = single_of[ends]
    if (iso_rows < 0).any():
        missing = T.job_ids[ends[iso_rows < 0][0]]
        raise UnknownJobError(f"pair member {missing} has no singleton row")
    iso = T.thr[:, :, 0][iso_rows].transpose(0, 2, 1)
    norm = np.divide(T.thr[pairs], iso, out=np.zeros_like(iso), where=iso > 0)
    norm_sum = np.where(T.feasible[pairs], norm[..., 0] + norm[..., 1], 0.0)
    keep = ~T.is_pair
    keep[pairs] = (norm_sum > PAIR_KEEP_THRESHOLD).any(axis=1)
    return T.take(keep)
