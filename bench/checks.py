"""Checks of the simulator's outputs, made apart from the program.

Every allocation a policy returns is checked against the throughput matrix
it was solved on, with this file's own LP formulations solved by
``scipy.optimize.linprog(method="highs")``; nothing here calls the
program's validation or reads saved outputs.  A check that fails appends a
message to ``Checker.failures``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, vstack

from hetsched.waterfill import DELTA_FRACTION

# Validity slack for allocation entries and budgets, and the relative
# tolerance to which a returned objective must match an LP optimum.
VALID_TOL = 1e-6
OPT_REL_TOL = 1e-6
# The makespan bisection stops within 1e-3 of the optimum.
MAKESPAN_REL_TOL = 1e-3


class Problem:
    """Array view of one solve: the matrix the policy saw, the jobs' state
    at solve time and the returned allocation."""

    def __init__(self, T, jobs, X):
        self.rows = [c.members for c in T.rows]
        self.R, self.C = len(T.rows), len(T.configs)
        self.cluster = T.cluster
        self.type_of = np.array([cfg.type_id for cfg in T.configs])
        self.jobs = jobs  # id -> (remaining_steps, scale_factor, weight)
        self.ids = sorted(jobs)
        self.feasible = np.array([[cell is not None for cell in row]
                                  for row in T.entries], dtype=bool)
        # thr[k] is job ids[k]'s own rate in every cell, zero elsewhere.
        col = {j: k for k, j in enumerate(self.ids)}
        self.thr = np.zeros((len(self.ids), self.R, self.C))
        for r, (members, row) in enumerate(zip(self.rows, T.entries)):
            for c, cell in enumerate(row):
                if cell is not None:
                    for m, v in zip(members, cell):
                        self.thr[col[m], r, c] = v
        self.X = np.asarray(X.values, dtype=float)
        self.row_sf = np.array([jobs[m[0]][1] for m in self.rows], dtype=float)

    def rates(self, x) -> np.ndarray:
        return self.thr.reshape(len(self.ids), -1) @ x.reshape(-1)

    @cached_property
    def validity_rows(self):
        """A_ub, b_ub of the per-job time budget and per-type capacity."""
        n = self.R * self.C
        budget = np.zeros((len(self.ids), n))
        for r, members in enumerate(self.rows):
            for m in members:
                budget[self.ids.index(m), r * self.C:(r + 1) * self.C] = 1.0
        types = self.cluster.types
        cap = np.zeros((len(types), n))
        for r in range(self.R):
            for c in range(self.C):
                cap[self.type_of[c], r * self.C + c] = self.row_sf[r]
        A = np.vstack([budget, cap])
        b = np.concatenate([np.ones(len(self.ids)),
                            [float(t.num_workers) for t in types]])
        return A, b

    def bounds(self):
        return [(0.0, None if f else 0.0) for f in self.feasible.reshape(-1)]

    def best_rate(self) -> np.ndarray:
        return self.thr.reshape(len(self.ids), -1).max(axis=1)


def _max_min(p: Problem, scale: np.ndarray) -> float:
    """max t  s.t.  scale_j * rate_j(x) >= t for every job, x valid."""
    n = p.R * p.C
    A_val, b_val = p.validity_rows
    A_jobs = np.hstack([-(scale[:, None] * p.thr.reshape(len(p.ids), -1)),
                        np.ones((len(p.ids), 1))])
    A = vstack([csr_matrix(A_jobs),
                csr_matrix(np.hstack([A_val, np.zeros((len(A_val), 1))]))])
    b = np.concatenate([np.zeros(len(p.ids)), b_val])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A, b_ub=b, bounds=p.bounds() + [(None, None)],
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference max-min LP failed: {res.message}")
    return -res.fun


class Checker:
    def __init__(self, policy_kind: str, space_sharing: bool):
        self.kind = policy_kind
        self.space_sharing = space_sharing
        self.failures = []
        self.solves_checked = 0

    def fail(self, msg: str):
        """Record a failed check; only the first 20 messages are kept."""
        if len(self.failures) < 20:
            self.failures.append(msg)

    def check_solve(self, jobs: dict, T, result):
        """jobs maps id -> (remaining_steps, scale_factor, weight) at the
        time of the solve; T is the matrix passed to solve_policy."""
        index = self.solves_checked
        self.solves_checked += 1
        X = result.allocation
        expected = [c for c in T.rows if self.space_sharing or not c.is_pair]
        if list(X.rows) != expected:
            self.fail(f"solve {index}: allocation rows differ from the matrix")
            return
        p = Problem(X.T, jobs, X)
        self._check_valid(index, p)
        if self.kind == "las":
            self._check_las(index, p, result.objective)
        elif self.kind == "makespan":
            self._check_makespan(index, p, result.objective)
        elif self.kind == "hier":
            self._check_pareto(index, p)

    def _check_valid(self, i, p: Problem):
        X = p.X
        if X.min() < 0.0 or X.max() > 1.0:
            self.fail(f"solve {i}: allocation entry outside [0, 1]")
        if np.any(X[~p.feasible] > VALID_TOL):
            self.fail(f"solve {i}: time on an infeasible cell")
        A, b = p.validity_rows
        slack = A @ X.reshape(-1) - b
        if np.any(slack > VALID_TOL):
            self.fail(f"solve {i}: time budget or worker capacity exceeded "
                      f"by {slack.max():.3g}")

    def _check_las(self, i, p: Problem, objective: float):
        types = p.cluster.types
        total = sum(t.num_workers for t in types)
        per_type = np.bincount(p.type_of, minlength=len(types))
        share = np.array([types[t].num_workers / total / per_type[t]
                          for t in p.type_of])
        single = np.array([len(m) == 1 for m in p.rows])
        norm = (p.thr[:, single, :] * share).sum(axis=(1, 2))
        sf = np.array([p.jobs[j][1] for j in p.ids], dtype=float)
        w = np.array([p.jobs[j][2] for j in p.ids], dtype=float)
        scale = sf / (w * norm)
        opt = _max_min(p, scale)
        attained = float((scale * p.rates(p.X)).min())
        tol = OPT_REL_TOL * max(abs(opt), 1e-12)
        if abs(objective - opt) > tol:
            self.fail(f"solve {i}: LAS objective {objective!r} != LP optimum "
                      f"{opt!r}")
        if attained < opt - tol:
            self.fail(f"solve {i}: allocation attains {attained!r} < {opt!r}")

    def _check_makespan(self, i, p: Problem, M: float):
        remaining = np.array([p.jobs[j][0] for j in p.ids], dtype=float)
        # 1/M* = max theta s.t. rate_j(x) / remaining_j >= theta; the LP is
        # scaled by a reference horizon so its optimum is of order one.
        horizon = float((remaining / p.best_rate()).max())
        opt_M = horizon / _max_min(p, horizon / remaining)
        covered = p.rates(p.X) * M
        if np.any(covered < remaining * (1.0 - VALID_TOL)):
            self.fail(f"solve {i}: throughput x makespan leaves steps uncovered")
        if M < opt_M * (1.0 - OPT_REL_TOL):
            self.fail(f"solve {i}: makespan {M!r} below the LP optimum {opt_M!r}")
        if M > opt_M * (1.0 + MAKESPAN_REL_TOL):
            self.fail(f"solve {i}: makespan {M!r} exceeds the LP optimum "
                      f"{opt_M!r} by more than {MAKESPAN_REL_TOL}")

    def _check_pareto(self, i, p: Problem):
        """No job can gain more than DELTA_FRACTION of its best rate while
        every job keeps the rate the allocation gives it."""
        rates = p.rates(p.X)
        best = p.best_rate()
        A_val, b_val = p.validity_rows
        thr = p.thr.reshape(len(p.ids), -1)
        # The returned allocation meets its own rates only to the
        # program's solver tolerance, so the floor gives way by far less
        # than DELTA_FRACTION.
        floor = rates - 1e-9 * best
        A = np.vstack([-thr, A_val])
        b = np.concatenate([-floor, b_val])
        for k, j in enumerate(p.ids):
            res = linprog(-thr[k], A_ub=A, b_ub=b, bounds=p.bounds(),
                          method="highs")
            if res.status != 0:
                self.fail(f"solve {i}: Pareto LP for job {j}: {res.message}")
                continue
            gain = -res.fun - rates[k]
            if gain > DELTA_FRACTION * best[k]:
                self.fail(f"solve {i}: job {j} can still gain {gain:.4g} "
                          f"(> {DELTA_FRACTION} x {best[k]:.4g})")

    def check_report(self, t: int, trace, templates: dict, cluster, report,
                     max_rounds: int):
        """Completion within max_rounds and JCT >= steps / best rate."""
        if len(report.records) != len(trace.entries):
            self.fail(f"trace {t}: {len(report.records)} of "
                      f"{len(trace.entries)} jobs completed")
        if report.rounds >= max_rounds:
            self.fail(f"trace {t}: hit max_rounds")
        for rec in report.records:
            e = trace.entries[rec.job_id]
            tmpl = templates[e.template]
            best = 0.0
            for typ in cluster.types:
                if e.scale_factor > typ.num_workers:
                    continue
                base = tmpl.tier_throughputs[min(typ.id, 2)]
                sf = e.scale_factor
                rate = base if sf == 1 else \
                    base * sf * tmpl.consolidated_efficiency ** math.log2(sf)
                best = max(best, rate)
            if rec.jct < e.num_steps / best * (1.0 - 1e-9):
                self.fail(f"trace {t}: job {rec.job_id} finished in "
                          f"{rec.jct:.1f} s, faster than its best rate allows")
