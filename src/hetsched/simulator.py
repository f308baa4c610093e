"""Round-driven cluster simulator.

The clock advances one scheduling round at a time.  Arrivals and completions
are applied at round boundaries; either kind of reset event (or a periodic
timer) triggers a policy re-solve on a snapshot of the active jobs.  The
mechanism realizes the solved allocation round by round, charging a fixed
checkpoint overhead whenever a job's worker set or colocation partner
changes.  Jobs that finish mid-round record their exact completion time but
hold their workers until the round ends.

A placed plan that `mechanism.repeats` certifies is kept while its decision
stands (no re-solve, no periodic cut): later rounds re-sort it by the
current priorities and skip `plan_round`, `place` and the switch
bookkeeping, since no job changes its workers or partner.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cluster import ClusterSpec, Placement
from .estimator import OnlineEstimates, ReferenceSet, fingerprint_and_match
from .jobs import Job, JobCombination
from .matrices import (AllocationMatrix, ThroughputMatrix, equal_shares,
                       inorder_sum, prune_combinations)
from .mechanism import (CompiledAllocation, RoundLedger, compute_priorities,
                        place, plan_round, reorder, repeats, settle_round)
from .policies import PolicyKind, PolicySpec, check_entities, solve_policy
from .traces import JobTemplate, Trace, TraceEntry, colocation_factor

PREEMPTION_OVERHEAD = 5.0  # seconds to restore + checkpoint around a switch
STEADY_STATE_WINDOW = 0.10
# A job arriving within this many seconds after a round boundary starts at it.
ARRIVAL_TOL = 1e-9
# A job within this many steps of its total finishes in the round.
COMPLETION_TOL = 1e-9


@dataclass
class EstimatorConfig:
    reference_names: list
    profile_fraction: float = 0.2


@dataclass
class SimConfig:
    cluster: ClusterSpec
    policy: PolicySpec
    round_duration: float = 360.0
    recompute_every: int | None = None  # rounds; None = on reset events only
    agnostic: bool = False
    estimator: EstimatorConfig | None = None
    seed: int = 0
    max_rounds: int = 500_000
    collect_round_log: bool = False


@dataclass
class JobRecord:
    job_id: int
    template: str
    arrival: float
    completion: float
    num_steps: int
    scale_factor: int
    slo_seconds: float | None
    isolated_duration: float

    @property
    def jct(self) -> float:
        return self.completion - self.arrival

    @property
    def slo_violated(self) -> bool:
        return self.slo_seconds is not None and self.jct > self.slo_seconds

    @property
    def ftf_rho(self) -> float:
        return self.jct / self.isolated_duration if self.isolated_duration > 0 \
            else float("nan")


@dataclass
class MetricsReport:
    records: list
    makespan: float
    total_cost: float
    utilization: float
    rounds: int
    policy_solves: int
    unfinished_jobs: int  # still active or pending when max_rounds stopped the run
    solve_seconds: float  # wall clock; excluded from deterministic outputs

    @property
    def avg_jct(self) -> float:
        return float(np.mean([r.jct for r in self.records])) if self.records else 0.0

    @property
    def avg_steady_jct(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean(steady_state_filter(
            [r.jct for r in sorted(self.records, key=lambda r: r.completion)],
            STEADY_STATE_WINDOW)))

    @property
    def slo_violation_fraction(self) -> float:
        with_slo = [r for r in self.records if r.slo_seconds is not None]
        if not with_slo:
            return 0.0
        return sum(1 for r in with_slo if r.slo_violated) / len(with_slo)


def steady_state_filter(values: list, window: float) -> list:
    """Drop the first and last `window` fraction of completions."""
    if window < 0 or window >= 0.5:
        raise ValueError("window must lie in [0, 0.5)")
    n = len(values)
    k = int(n * window)
    out = values[k: n - k if k else n]
    if not out:
        raise ValueError("steady-state window empties the completion set")
    return out


def _job_of(entry: TraceEntry, job_id: int) -> Job:
    """The job a trace entry describes, with `job_id` its arrival position."""
    return Job(id=job_id, name=entry.template, num_steps=entry.num_steps,
               scale_factor=entry.scale_factor, weight=entry.weight,
               entity_id=entry.entity_id, slo_seconds=entry.slo_seconds,
               arrival_time=entry.arrival_time)


class _ActiveJob:
    def __init__(self, job: Job, template: JobTemplate, rates: np.ndarray):
        self.job = job
        self.template = template
        self.rates = rates  # standalone steps/second per configuration
        self.combo = JobCombination.of(job.id)  # its singleton combination
        self.completion: float | None = None
        self.isolated_duration: float = 0.0
        self.match: int | None = None  # estimator: matched reference index


class Simulation:
    def __init__(self, config: SimConfig, trace: Trace, templates: list):
        if not (math.isfinite(config.round_duration) and config.round_duration > 0):
            raise ValueError("round duration must be a positive number of seconds, "
                             f"not {config.round_duration}")
        if config.recompute_every is not None and config.recompute_every < 1:
            raise ValueError("recompute interval must be at least one round, "
                             f"not {config.recompute_every}")
        if config.seed < 0:
            raise ValueError(f"seed must be non-negative, not {config.seed}")
        est = config.estimator
        if est is not None and len(est.reference_names) < 2:
            raise ValueError("the estimator needs at least two reference templates")
        if est is not None and not 0 <= est.profile_fraction <= 1:
            raise ValueError(f"profile fraction must lie in [0, 1], not "
                             f"{est.profile_fraction}")
        if est is not None and not config.policy.space_sharing:
            raise ValueError("the estimator only sets pair rates; it needs a "
                             "space-sharing (+ss) policy")
        self.cfg = config
        self.trace = trace
        self.templates = {t.name: t for t in templates}
        unknown = sorted({e.template for e in trace.entries} - self.templates.keys())
        if unknown:
            raise ValueError(f"trace names unknown templates: {', '.join(unknown)}")
        # Job ids are positions in arrival order, as `run` assigns them.
        most = max((t.num_workers for t in config.cluster.types), default=0)
        entries = trace.entries
        try:
            order = sorted(range(len(entries)), key=lambda n: entries[n].arrival_time)
        except TypeError:  # an arrival time is no number; `_job_of` names it
            order = range(len(entries))
        jobs = []
        for i, n in enumerate(order):
            try:
                job = _job_of(entries[n], i)
            except ValueError as e:
                raise ValueError(f"trace entry {n + 1}: {e}") from None
            if job.scale_factor > most:
                raise ValueError(f"job {i} requests {job.scale_factor} workers but "
                                 "no accelerator type has that many")
            jobs.append(job)
        self.entities = list(trace.entities)
        if config.policy.kind is PolicyKind.HIERARCHICAL:
            check_entities(jobs, self.entities)
        # coloc[kind_of[a], kind_of[b]] is `colocation_factor(a, b)`, over the
        # templates a run can pair or match.
        self.kind_of, self.coloc = {}, None
        refs = list(est.reference_names) if est is not None else []
        if config.policy.space_sharing or est is not None:
            self.kind_of = {name: k for k, name in enumerate(
                dict.fromkeys([e.template for e in entries] + refs))}
            kinds = [self.templates[name] for name in self.kind_of]
            self.coloc = np.array([[colocation_factor(a, b) for b in kinds]
                                   for a in kinds]).reshape(len(kinds), len(kinds))
        self.refs: ReferenceSet | None = None
        if est is not None:
            ref = [self.kind_of[name] for name in refs]
            self.refs = ReferenceSet(refs, self.coloc[np.ix_(ref, ref)])

    # -- throughput construction ------------------------------------------

    def _rates(self, job: Job, template: JobTemplate) -> np.ndarray:
        """The job's standalone rate on every configuration: its tier's
        consolidated or unconsolidated rate, 0.0 where its scale factor
        exceeds the type's workers."""
        types = self.cfg.cluster.types
        return np.array([
            template.isolated_throughput(
                min(cfg.type_id, 2), job.scale_factor,
                cfg.placement is not Placement.UNCONSOLIDATED)
            if job.scale_factor <= types[cfg.type_id].num_workers else 0.0
            for cfg in self.cfg.cluster.configurations])

    def build_matrix(self, states: list) -> tuple:
        """(T_policy, thr_exec) over `states`, given in job-id order.

        The rows are the singletons in `states` order, then (with space
        sharing) each pair of equal scale factor in `np.triu_indices` order,
        so the matrix's `job_ids` is the states' order and a pair row's
        `ends` index `states`.  The policy matrix holds the pair factors the
        scheduler believes (per direction, an online-observed value, else
        `refs.R` at the matches or else `coloc`) and is pruned on them.
        `thr_exec` is the rate array the jobs run at: T_policy's rows at
        their true `coloc` factors, laid out as `T_policy.thr` (it is that
        array itself without the estimator).
        """
        cluster = self.cfg.cluster
        workers = np.array([cluster.types[cfg.type_id].num_workers
                            for cfg in cluster.configurations])
        sf = np.array([st.job.scale_factor for st in states])
        feasible = (sf[:, None] <= workers).reshape(len(states), len(workers))
        rate = np.array([st.rates for st in states]).reshape(feasible.shape)
        single_thr = np.stack([rate, np.zeros_like(rate)], axis=-1)
        singles = [st.combo for st in states]
        if not self.cfg.policy.space_sharing:
            T = ThroughputMatrix(cluster, singles, single_thr, feasible)
            return T, T.thr

        def factors(table, index, pairs):  # table[a, b], table[b, a] per pair
            a, b = index[pairs].T
            return np.stack([table[a, b], table[b, a]], axis=1)

        def thr(pairs, pair_factors) -> np.ndarray:
            # `rate` is 0.0 where a row is infeasible, as a matrix stores it.
            return np.concatenate([single_thr, rate[pairs].transpose(0, 2, 1)
                                   * pair_factors[:, None, :]])

        i, j = np.triu_indices(len(states), 1)
        same = sf[i] == sf[j]
        pairs = np.stack([i[same], j[same]], axis=1)
        ids = np.array([st.job.id for st in states])
        keys = list(map(tuple, ids[pairs].tolist()))
        # Each pair's combination is made once, while both members are active.
        made = self._pair_rows
        rows = [made.get(k) or JobCombination(k) for k in keys]
        self._pair_rows = dict(zip(keys, rows))
        kind = np.array([self.kind_of[st.template.name] for st in states],
                        dtype=np.intp)
        if self.refs is None:
            believed = factors(self.coloc, kind, pairs)
        else:
            match = np.array([st.match for st in states], dtype=np.intp)
            believed = factors(self.refs.R, match, pairs)
        observed = self.estimates.values
        if observed and keys:
            seen = np.array([[observed.get((a, b)), observed.get((b, a))]
                             for a, b in keys], dtype=float)
            believed = np.where(np.isnan(seen), believed, seen)
        T_policy = prune_combinations(ThroughputMatrix(
            cluster, singles + rows, thr(pairs, believed),
            np.concatenate([feasible, feasible[pairs].all(axis=1)])))
        if self.refs is None:
            return T_policy, T_policy.thr
        kept = T_policy.ends[T_policy.is_pair]
        return T_policy, thr(kept, factors(self.coloc, kind, kept))

    def _spread_agnostic(self, X: AllocationMatrix) -> AllocationMatrix:
        """Rebalance each row's time uniformly over its feasible cells,
        weighted by worker counts.

        An agnostic scheduler has no basis for preferring one accelerator
        type over another; without this, the LP solver's deterministic column
        order would silently hand the baseline near-optimal placements.
        Row totals are preserved and per-type capacity stays satisfied.
        """
        T = X.T
        types = T.cluster.types
        # Feasible columns of the same type as each cell, in the cell's row.
        same_type = T.type_of[:, None] == T.type_of[None, :]
        per_type = T.feasible.astype(int) @ same_type.astype(int)
        workers = np.array([types[t].num_workers for t in T.type_of], dtype=float)
        weights = np.divide(workers, per_type, out=np.zeros(per_type.shape),
                            where=T.feasible)
        total = X.values.sum(axis=1)
        live = total > 0
        values = np.zeros_like(X.values)
        values[live] = (total[live, None] * weights[live]
                        / weights[live].sum(axis=1)[:, None])
        return AllocationMatrix(T, values, X.workers)

    def _agnostic_matrix(self, T: ThroughputMatrix) -> ThroughputMatrix:
        """Rank-1 view for heterogeneity-agnostic baselines: each job's worst
        feasible singleton throughput replicated across all configurations."""
        singles = (~T.is_pair).nonzero()[0]
        worst = np.where(T.feasible[singles], T.thr[singles, :, 0], np.inf).min(axis=1)
        worst[np.isinf(worst)] = 0.0
        worst_of = np.zeros(len(T.job_ids))
        worst_of[T.ends[singles, 0]] = worst
        rates = worst_of[T.ends]
        rates[singles, 1] = 0.0
        return ThroughputMatrix(T.cluster, T.rows,
                                np.broadcast_to(rates[:, None, :], T.thr.shape),
                                T.feasible)

    # -- estimator hooks ---------------------------------------------------

    def _match_references(self, entries: list) -> list:
        """Each entry's matched reference index, entry k being job k.

        In arrival order each job is measured against a random
        `profile_fraction` of the references (at least two), drawn from a
        generator seeded with `cfg.seed`, and its row is completed with seed
        `cfg.seed + k`.  A match depends only on the trace, the seed and the
        references, so all of them are completed in one call before the
        first round.
        """
        rng = np.random.default_rng(self.cfg.seed)
        n = self.refs.size
        budget = max(2, int(math.ceil(self.cfg.estimator.profile_fraction * n)))
        observed = np.zeros((len(entries), n), dtype=bool)
        for k in range(len(entries)):
            observed[k, rng.choice(n, size=min(budget, n), replace=False)] = True
        kinds = np.array([self.kind_of[e.template] for e in entries], dtype=np.intp)
        truth = self.coloc[kinds][:, [self.kind_of[name] for name in self.refs.names]]
        matches, _ = fingerprint_and_match(
            np.where(observed, truth, 0.0), observed, self.refs,
            [self.cfg.seed + k for k in range(len(entries))])
        return matches

    # -- main loop ---------------------------------------------------------

    def run(self) -> MetricsReport:
        cfg = self.cfg
        pending = sorted(self.trace.entries, key=lambda e: (e.arrival_time,))
        self.estimates = OnlineEstimates()
        self._pair_rows: dict = {}  # (id a, id b) -> their pair's combination
        self.round_log: list = []
        matches = None if self.refs is None else self._match_references(pending)
        pending_idx = 0
        active: dict[int, _ActiveJob] = {}
        ledger = RoundLedger(cfg.round_duration)
        records: list[JobRecord] = []
        now = 0.0
        round_idx = 0
        need_resolve = True
        allocation: AllocationMatrix | None = None
        compiled: AllocationMatrix | None = None  # the allocation `decision` holds
        cost_of = [cfg.cluster.types[c.type_id].cost_per_hour
                   for c in cfg.cluster.configurations]
        cost_total = 0.0
        busy_worker_rounds = 0
        solves = 0
        solve_seconds = 0.0
        shares = equal_shares(cfg.cluster)
        # Job id -> (worker ids, partner) of its assignment last round.
        last_round: dict = {}

        def activate(entry, job_id):
            template = self.templates[entry.template]
            job = _job_of(entry, job_id)
            st = _ActiveJob(job, template, self._rates(job, template))
            # Isolated 1/n share of the equal-share mix at arrival time; used
            # only as the denominator of the reported finish-time fairness.
            iso_thr = float(inorder_sum(st.rates * shares)) / (len(active) + 1)
            st.isolated_duration = job.num_steps / iso_thr if iso_thr > 0 else 0.0
            if matches is not None:
                st.match = matches[job_id]
            active[job_id] = st

        total_jobs = len(pending)
        while (pending_idx < total_jobs or active) and round_idx < cfg.max_rounds:
            arrived = False
            while pending_idx < total_jobs and \
                    pending[pending_idx].arrival_time <= now + ARRIVAL_TOL:
                activate(pending[pending_idx], pending_idx)
                pending_idx += 1
                arrived = True
            if arrived:
                need_resolve = True
            if not active:
                # Fast-forward an idle cluster to the next arrival boundary.
                next_arrival = pending[pending_idx].arrival_time
                gap_rounds = max(1, math.ceil((next_arrival - now) / cfg.round_duration))
                now += gap_rounds * cfg.round_duration
                continue

            if cfg.recompute_every is not None:
                # Periodic mode: reset events wait for the next timer tick.
                resolve_now = (round_idx % cfg.recompute_every == 0
                               or allocation is None)
            else:
                resolve_now = need_resolve or allocation is None
            if resolve_now:
                states = [active[k] for k in sorted(active)]
                T_policy, thr_exec = self.build_matrix(states)
                if cfg.agnostic:
                    T_policy = self._agnostic_matrix(T_policy)
                snapshot = []
                for st in states:
                    j = st.job
                    j.elapsed_time = now - j.arrival_time
                    j.isolated_elapsed_time = j.elapsed_time
                    snapshot.append(j)
                t0 = time.perf_counter()
                result = solve_policy(cfg.policy, snapshot, cfg.cluster, T_policy,
                                      entities=self.entities or None)
                solve_seconds += time.perf_counter() - t0
                solves += 1
                if cfg.agnostic:
                    result.allocation = self._spread_agnostic(result.allocation)
                allocation = result.allocation  # over T_policy: no row dropped
                need_resolve = False

            if compiled is not allocation:
                # A new decision, or a periodic cut of one: compile it once,
                # with `thr_exec` as nested lists for the lookups below.
                decision = CompiledAllocation(allocation)
                rates = thr_exec.tolist()
                compiled = allocation
                plan = None

            priorities = compute_priorities(decision, ledger)
            repeat = plan is not None and repeats(plan, decision)
            if repeat:
                reorder(plan, priorities, decision)
            else:
                plan = place(plan_round(priorities, decision, ledger),
                             cfg.cluster)

            completions = []
            this_round = {}
            for a in plan.assignments:
                # A pair shares one worker set, so it counts and pays once.
                busy_worker_rounds += a.workers
                cost_total += (cost_of[a.config_index] * a.workers
                               * cfg.round_duration / 3600.0)
                members = a.combo.members
                cell = rates[a.row][a.config_index]
                for i, m in enumerate(members):
                    st = active[m]
                    partner = members[:i] + members[i + 1:]
                    overhead = 0.0
                    if not repeat:  # a repeated plan switches no job
                        this_round[m] = (tuple(a.worker_ids), partner)
                        if last_round.get(m) != this_round[m]:
                            overhead = PREEMPTION_OVERHEAD
                    effective = max(cfg.round_duration - overhead, 0.0)
                    thr = cell[i]
                    if self.cfg.estimator is not None and a.combo.is_pair:
                        # Online refinement: observe the true colocation rate.
                        iso = st.rates[a.config_index]
                        if iso > 0:
                            self.estimates.observe((m, partner[0]), thr / iso)
                    job = st.job
                    gained = thr * effective
                    if job.steps_done + gained >= job.num_steps - COMPLETION_TOL \
                            and thr > 0:
                        need = job.num_steps - job.steps_done
                        finish = now + overhead + need / thr
                        job.steps_done = job.num_steps
                        st.completion = min(finish, now + cfg.round_duration)
                        completions.append(m)
                    else:
                        job.steps_done += gained
            if not repeat:
                last_round = this_round

            if cfg.collect_round_log:
                self.round_log.append(plan.to_json(allocation.T, round_idx))

            settle_round(plan, ledger, allocation.T)
            now += cfg.round_duration
            round_idx += 1

            if completions:
                for m in completions:
                    st = active.pop(m)
                    records.append(JobRecord(
                        job_id=m, template=st.template.name,
                        arrival=st.job.arrival_time, completion=st.completion,
                        num_steps=st.job.num_steps,
                        scale_factor=st.job.scale_factor,
                        slo_seconds=st.job.slo_seconds,
                        isolated_duration=st.isolated_duration))
                ledger.drop_jobs(completions)
                need_resolve = True
                if cfg.recompute_every is not None and allocation is not None:
                    # Periodic mode keeps the stale allocation but must stop
                    # scheduling departed jobs: drop their rows.
                    T = allocation.T
                    keep = ~np.isin(T.job_ids, completions)[T.ends].any(axis=1)
                    if keep.any():
                        allocation = AllocationMatrix(T.take(keep),
                                                      allocation.values[keep],
                                                      allocation.workers[keep])
                        thr_exec = thr_exec[keep]
                    else:
                        allocation = None

        makespan = max((r.completion for r in records), default=0.0)
        total_worker_rounds = round_idx * cfg.cluster.total_workers
        utilization = busy_worker_rounds / total_worker_rounds \
            if total_worker_rounds else 0.0
        return MetricsReport(records=sorted(records, key=lambda r: r.job_id),
                             makespan=makespan, total_cost=cost_total,
                             utilization=utilization, rounds=round_idx,
                             policy_solves=solves,
                             unfinished_jobs=len(active) + total_jobs - pending_idx,
                             solve_seconds=solve_seconds)
