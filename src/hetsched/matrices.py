"""Throughput and allocation matrices plus the effective-throughput
computation every policy consumes.

Rows are job combinations (singletons, optionally pairs when space sharing),
columns are resource configurations.  A `ThroughputMatrix` holds its cells
as arrays, built once:

- ``thr[r, c, i]``: member i's steps/second in row r on configuration c,
  members in ``rows[r].members`` order; 0.0 where the cell is infeasible
  and in slot 1 of a singleton row.
- ``feasible[r, c]``: whether combination r can run on configuration c.
- ``coeffs[k, r * C + c]``: job ``job_ids[k]``'s own rate in every cell,
  cells in row-major order, zero where the job is absent or the cell
  infeasible; ``job_index`` maps a job id to k.  A job's effective
  throughput under X is the sum of ``coeffs[k] * X.ravel()``.
- ``member_of[k, r]``: whether job ``job_ids[k]`` is a member of row r.
- ``ends[r]``: the ``job_ids`` positions of row r's first and last member
  (the same for a singleton).

The nested-cell form, ``cells[r][c]`` a tuple of per-member rates or None
where infeasible, is parsed only by `ThroughputMatrix.from_cells` (which
`from_json` uses); the `entries` property renders the arrays back into it.
"""

from __future__ import annotations

import json

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
        self._row_index = {combo: r for r, combo in enumerate(self.rows)}
        if len(self._row_index) != len(self.rows):
            raise ValueError("duplicate combination rows")
        R, C = len(self.rows), len(self.configs)
        thr = np.asarray(thr, dtype=float)
        feasible = np.array(feasible, dtype=bool)
        if thr.shape != (R, C, 2) or feasible.shape != (R, C):
            raise MatrixShapeError(
                f"throughput arrays {thr.shape} and {feasible.shape} do not "
                f"match {R} rows x {C} configurations")
        self.is_pair = np.array([combo.is_pair for combo in self.rows], dtype=bool)
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

        self.job_ids = list(dict.fromkeys(m for combo in self.rows
                                          for m in combo.members))
        self._job_index = {job_id: k for k, job_id in enumerate(self.job_ids)}
        first = np.array([self._job_index[combo.members[0]] for combo in self.rows],
                         dtype=np.intp)
        last = np.array([self._job_index[combo.members[-1]] for combo in self.rows],
                        dtype=np.intp)
        self.ends = np.stack([first, last], axis=1)
        r = np.arange(R)
        self.member_of = np.zeros((len(self.job_ids), R), dtype=bool)
        self.member_of[first, r] = True
        self.member_of[last, r] = True
        coeffs = np.zeros((len(self.job_ids), R, C))
        coeffs[first, r] = self.thr[:, :, 0]
        coeffs[last[self.is_pair], r[self.is_pair]] = self.thr[self.is_pair, :, 1]
        self.coeffs = coeffs.reshape(len(self.job_ids), R * C)
        # Policies share views of these arrays; none may write to them.
        for a in (self.thr, self.feasible, self.coeffs, self.member_of, self.ends):
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

    def row_index(self, combo: JobCombination) -> int:
        try:
            return self._row_index[combo]
        except KeyError:
            raise UnknownJobError(f"no row for combination {combo}") from None

    def singleton_row(self, job_id: int) -> int:
        return self.row_index(JobCombination.of(job_id))

    def job_index(self, job_id: int) -> int:
        """The job's row in `coeffs` and `member_of`."""
        try:
            return self._job_index[job_id]
        except KeyError:
            raise UnknownJobError(f"job {job_id} not present in matrix") from None

    def max_throughput(self, job_id: int) -> float:
        """Largest throughput the job attains in any feasible cell."""
        return float(self.coeffs[self.job_index(job_id)].max())

    def with_rows(self, rows) -> "ThroughputMatrix":
        idx = [self.row_index(combo) for combo in rows]
        return ThroughputMatrix(self.cluster, rows, self.thr[idx],
                                self.feasible[idx])

    def to_json(self, extra: dict | None = None) -> dict:
        doc = self.cluster.to_json()
        doc["rows"] = []
        for combo, row in zip(self.rows, self.entries):
            thr = {}
            for cfg, cell in zip(self.configs, row):
                thr[cfg.key(self.cluster)] = None if cell is None else list(cell)
            doc["rows"].append({"members": list(combo.members), "throughputs": thr})
        if extra:
            doc.update(extra)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ThroughputMatrix":
        cluster = ClusterSpec.from_json(doc)
        keys = [cfg.key(cluster) for cfg in cluster.configurations]
        rows = [JobCombination(tuple(rdoc["members"])) for rdoc in doc["rows"]]
        cells = [[rdoc["throughputs"].get(key) for key in keys]
                 for rdoc in doc["rows"]]
        return cls.from_cells(cluster, rows, cells)

    @classmethod
    def load(cls, path) -> "ThroughputMatrix":
        with open(path) as f:
            return cls.from_json(json.load(f))

    def save(self, path, extra: dict | None = None):
        with open(path, "w") as f:
            json.dump(self.to_json(extra), f, indent=2, sort_keys=True)
            f.write("\n")


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

    @classmethod
    def zeros(cls, T: ThroughputMatrix) -> "AllocationMatrix":
        return cls(T, np.zeros((T.num_rows, T.num_configs)))

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
        over = inorder_sum(T.member_of * self.values.sum(axis=1)) > 1 + EPS
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
    return float(inorder_sum(T.coeffs[T.job_index(job_id)] * X.values.ravel()))


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
    single = {combo.members[0]: r for r, combo in enumerate(T.rows)
              if not combo.is_pair}
    try:
        iso_rows = np.array([[single[m] for m in T.rows[r].members]
                             for r in pairs], dtype=np.intp).reshape(-1, 2)
    except KeyError as e:
        raise UnknownJobError(f"pair member {e.args[0]} has no singleton row") from None
    iso = T.thr[:, :, 0][iso_rows].transpose(0, 2, 1)
    norm = np.divide(T.thr[pairs], iso, out=np.zeros_like(iso), where=iso > 0)
    norm_sum = np.where(T.feasible[pairs], norm[..., 0] + norm[..., 1], 0.0)
    keep = ~T.is_pair
    keep[pairs] = (norm_sum > PAIR_KEEP_THRESHOLD).any(axis=1)
    return T.with_rows([combo for combo, k in zip(T.rows, keep) if k])
