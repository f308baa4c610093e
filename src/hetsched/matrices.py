"""Throughput and allocation matrices plus the effective-throughput
computation every policy consumes.

Rows are job combinations (singletons, optionally pairs when space sharing),
columns are resource configurations.  A throughput entry holds one value per
combination member, in member order; ``None`` marks a configuration the
combination cannot run on at all.
"""

from __future__ import annotations

import json

import numpy as np

from .cluster import ClusterSpec
from .jobs import JobCombination

EPS = 1e-6


class MatrixShapeError(ValueError):
    """Row/column indexing of two matrices does not line up."""


class UnknownJobError(KeyError):
    pass


class ThroughputMatrix:
    def __init__(self, cluster: ClusterSpec, rows, entries):
        """entries[r][c] is a tuple of per-member steps/second, or None when
        the combination cannot run on that configuration."""
        self.cluster = cluster
        self.configs = cluster.configurations
        self.rows = tuple(rows)
        self._row_index = {combo: r for r, combo in enumerate(self.rows)}
        if len(self._row_index) != len(self.rows):
            raise ValueError("duplicate combination rows")
        self.entries = []
        for r, combo in enumerate(self.rows):
            row = []
            for c in range(len(self.configs)):
                cell = entries[r][c]
                if cell is None:
                    row.append(None)
                    continue
                vals = tuple(float(v) for v in (cell if isinstance(cell, (tuple, list))
                                                else (cell,)))
                if len(vals) != len(combo.members):
                    raise ValueError(
                        f"row {combo} config {c}: expected {len(combo.members)} "
                        f"throughput values, got {len(vals)}")
                if any(v < 0 for v in vals):
                    raise ValueError(f"row {combo}: negative throughput")
                row.append(vals)
            self.entries.append(row)

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

    def feasible(self, r: int, c: int) -> bool:
        return self.entries[r][c] is not None

    def value(self, r: int, c: int, job_id: int) -> float:
        cell = self.entries[r][c]
        if cell is None:
            return 0.0
        return cell[self.rows[r].member_index(job_id)]

    def job_ids(self):
        seen = []
        for combo in self.rows:
            for m in combo.members:
                if m not in seen:
                    seen.append(m)
        return seen

    def combos_containing(self, job_id: int):
        return [r for r, combo in enumerate(self.rows) if combo.contains(job_id)]

    def singleton_row(self, job_id: int) -> int:
        return self.row_index(JobCombination.of(job_id))

    def job_coefficients(self, job_id: int) -> np.ndarray:
        """Flat (num_rows * num_configs) vector of job `job_id`'s own
        throughput in every cell it participates in; zero elsewhere."""
        if not any(combo.contains(job_id) for combo in self.rows):
            raise UnknownJobError(f"job {job_id} not present in matrix")
        coeffs = np.zeros(self.num_rows * self.num_configs)
        for r in self.combos_containing(job_id):
            for c in range(self.num_configs):
                if self.feasible(r, c):
                    coeffs[r * self.num_configs + c] = self.value(r, c, job_id)
        return coeffs

    def max_throughput(self, job_id: int) -> float:
        """Largest throughput the job attains in any feasible cell."""
        best = 0.0
        for r in self.combos_containing(job_id):
            for c in range(self.num_configs):
                if self.feasible(r, c):
                    best = max(best, self.value(r, c, job_id))
        return best

    def with_rows(self, rows) -> "ThroughputMatrix":
        idx = [self.row_index(combo) for combo in rows]
        return ThroughputMatrix(self.cluster, rows,
                                [self.entries[r] for r in idx])

    def singletons_only(self) -> "ThroughputMatrix":
        return self.with_rows([c for c in self.rows if not c.is_pair])

    def to_json(self, extra: dict | None = None) -> dict:
        doc = self.cluster.to_json()
        doc["rows"] = []
        for r, combo in enumerate(self.rows):
            thr = {}
            for c, cfg in enumerate(self.configs):
                cell = self.entries[r][c]
                thr[cfg.key(self.cluster)] = None if cell is None else list(cell)
            doc["rows"].append({"members": list(combo.members), "throughputs": thr})
        if extra:
            doc.update(extra)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ThroughputMatrix":
        cluster = ClusterSpec.from_json(doc)
        configs = cluster.configurations
        rows = []
        entries = []
        for rdoc in doc["rows"]:
            combo = JobCombination(tuple(rdoc["members"]))
            rows.append(combo)
            row = []
            for cfg in configs:
                cell = rdoc["throughputs"].get(cfg.key(cluster))
                row.append(None if cell is None else tuple(cell))
            entries.append(row)
        return cls(cluster, rows, entries)

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

    def row(self, combo: JobCombination) -> np.ndarray:
        return self.values[self.T.row_index(combo)]

    def job_time_fraction(self, job_id: int) -> float:
        return float(sum(self.values[r].sum() for r in self.T.combos_containing(job_id)))

    def validate(self, jobs: dict, eps: float = EPS):
        """Raise if any allocation-matrix invariant is violated.

        jobs maps job id -> Job (scale factors are needed for the worker
        capacity check).
        """
        if np.any(self.values < -eps) or np.any(self.values > 1 + eps):
            raise ValueError("allocation entries must lie in [0, 1]")
        for r in range(self.T.num_rows):
            for c in range(self.T.num_configs):
                if not self.T.feasible(r, c) and self.values[r, c] > eps:
                    raise ValueError(
                        f"positive allocation on infeasible cell {self.rows[r]},{c}")
        for job_id in self.T.job_ids():
            if self.job_time_fraction(job_id) > 1 + eps:
                raise ValueError(f"job {job_id} total time fraction exceeds 1")
        for c, cfg in enumerate(self.configs):
            used = 0.0
            for r, combo in enumerate(self.rows):
                sf = jobs[combo.members[0]].scale_factor
                used += self.values[r, c] * sf
            cap = self.T.cluster.types[cfg.type_id].num_workers
            if used > cap + eps:
                raise ValueError(f"configuration {cfg.key(self.T.cluster)} oversubscribed")

    def to_json(self) -> dict:
        doc = {"rows": []}
        for r, combo in enumerate(self.rows):
            doc["rows"].append({
                "members": list(combo.members),
                "fractions": {cfg.key(self.T.cluster): self.values[r, c]
                              for c, cfg in enumerate(self.configs)},
            })
        return doc


def effective_throughput(job_id: int, X: AllocationMatrix,
                         T: ThroughputMatrix) -> float:
    """Time-weighted average steps/second of a job under allocation X."""
    if X.T is not T and (X.rows != T.rows or X.configs != T.configs):
        raise MatrixShapeError("allocation and throughput matrices do not align")
    combos = T.combos_containing(job_id)
    if not combos:
        raise UnknownJobError(f"job {job_id} not present in matrix")
    total = 0.0
    for r in combos:
        for c in range(T.num_configs):
            if T.feasible(r, c):
                total += T.value(r, c, job_id) * X.values[r, c]
    return total


def equal_share_allocation(T: ThroughputMatrix) -> AllocationMatrix:
    """Every singleton row receives num_workers_j / total_workers per type.

    When the cluster is placement aware the type's share is split evenly
    between its consolidated and unconsolidated columns so each row still
    sums to one and no feasible placement is left unrepresented.
    """
    cluster = T.cluster
    total = cluster.total_workers
    values = np.zeros((T.num_rows, T.num_configs))
    per_type_cols: dict[int, list] = {}
    for c, cfg in enumerate(T.configs):
        per_type_cols.setdefault(cfg.type_id, []).append(c)
    for r, combo in enumerate(T.rows):
        if combo.is_pair:
            continue
        for t in cluster.types:
            cols = per_type_cols[t.id]
            for c in cols:
                values[r, c] = t.num_workers / total / len(cols)
    return AllocationMatrix(T, values)


def isolated_allocation(T: ThroughputMatrix, n: int) -> AllocationMatrix:
    """1/n of the equal share: each of n users gets a 1/n time slice."""
    if n < 1:
        raise ValueError("n must be >= 1")
    X = equal_share_allocation(T)
    X.values /= n
    return X


def prune_combinations(T: ThroughputMatrix, threshold: float = 1.0) -> ThroughputMatrix:
    """Drop pair rows whose summed normalized throughput never beats
    `threshold` on any configuration.

    The normalized sum on a configuration is each member's pair throughput
    divided by that member's own singleton throughput there; a pair is worth
    keeping only if it outperforms time-slicing the two jobs (sum > 1).
    """
    kept = []
    for r, combo in enumerate(T.rows):
        if not combo.is_pair:
            kept.append(combo)
            continue
        best = 0.0
        for c in range(T.num_configs):
            if not T.feasible(r, c):
                continue
            norm_sum = 0.0
            for job_id in combo.members:
                iso_r = T.singleton_row(job_id)
                iso = T.value(iso_r, c, job_id) if T.feasible(iso_r, c) else 0.0
                if iso > 0:
                    norm_sum += T.value(r, c, job_id) / iso
            best = max(best, norm_sum)
        if best > threshold:
            kept.append(combo)
    return T.with_rows(kept)
