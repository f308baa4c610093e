import dataclasses
import itertools
import json

import numpy as np
import pytest

import hetsched.simulator as simulator
from hetsched.cluster import make_cluster
from hetsched.jobs import Entity, EntityPolicy
from hetsched.matrices import (ThroughputMatrix, effective_throughput,
                               equal_share_allocation)
from hetsched.policies import EntityError, parse_policy
from hetsched.simulator import (EstimatorConfig, MetricsReport, SimConfig,
                                Simulation,
                                steady_state_filter)
from hetsched.traces import JobTemplate, Trace, TraceEntry
import oracles
from oracles import make_template_catalog


def flat_template(name="flat", thr=1.0):
    return JobTemplate(name=name, tier_throughputs=(thr, thr, thr),
                       consolidated_efficiency=1.0,
                       unconsolidated_efficiency=1.0,
                       coloc_sensitivity=0.5, coloc_aggressiveness=0.5)


def worked_example_templates():
    # The three-job worked example: per-type throughputs (4,1), (3,1), (2,1).
    out = []
    for i, (fast, slow) in enumerate([(4.0, 1.0), (3.0, 1.0), (2.0, 1.0)]):
        out.append(JobTemplate(name=f"ex-{i}", tier_throughputs=(fast, slow, slow),
                               consolidated_efficiency=1.0,
                               unconsolidated_efficiency=1.0,
                               coloc_sensitivity=0.3, coloc_aggressiveness=0.3))
    return out


def summary(rep) -> dict:
    """Every simulated quantity of a report: all but the wall-clock
    `solve_seconds`."""
    return {"jobs_completed": len(rep.records), "avg_jct": rep.avg_jct,
            "avg_steady_jct": rep.avg_steady_jct, "makespan": rep.makespan,
            "total_cost": rep.total_cost, "utilization": rep.utilization,
            "slo_violation_fraction": rep.slo_violation_fraction,
            "rounds": rep.rounds, "policy_solves": rep.policy_solves,
            "unfinished_jobs": rep.unfinished_jobs}


class TestSteadyStateFilter:
    def test_middle_80_of_100(self):
        vals = list(range(100))
        out = steady_state_filter(vals, 0.10)
        assert len(out) == 80
        assert out[0] == 10 and out[-1] == 89

    def test_window_zero_keeps_all(self):
        assert steady_state_filter([1, 2, 3], 0.0) == [1, 2, 3]

    def test_ten_completions_keep_eight(self):
        assert len(steady_state_filter(list(range(10)), 0.10)) == 8

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            steady_state_filter([], 0.10)


class TestSingleJob:
    def test_jct_closed_form(self):
        # steps = 3600 * r on a worker with throughput r: JCT 3600 s up to
        # one round of quantization plus the checkpoint restore overhead.
        r = 2.0
        template = flat_template(thr=r)
        cluster = make_cluster({"gpu": 1})
        trace = Trace([TraceEntry(0.0, "flat", int(3600 * r))], "static", 0)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=0)
        rep = Simulation(cfg, trace, [template]).run()
        assert len(rep.records) == 1
        assert rep.records[0].jct == pytest.approx(3600.0, abs=360.0 + 5.0)
        assert rep.makespan == rep.records[0].completion

    def test_round_limit_reports_unfinished_jobs(self):
        # Two long jobs run and a third has not arrived when the round limit
        # stops the run: all three are reported, none is silently dropped.
        cluster = make_cluster({"gpu": 1})
        trace = Trace([TraceEntry(0.0, "flat", 10 ** 6),
                       TraceEntry(0.0, "flat", 10 ** 6),
                       TraceEntry(10 ** 5, "flat", 10)], "continuous", 0)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=0,
                        max_rounds=3)
        rep = Simulation(cfg, trace, [flat_template()]).run()
        assert rep.rounds == 3 and rep.records == []
        assert rep.unfinished_jobs == 3

    def test_unknown_template_rejected_up_front(self):
        trace = Trace([TraceEntry(0.0, "flat", 10), TraceEntry(0.0, "nope", 10),
                       TraceEntry(0.0, "gone", 10)], "static", 0)
        cfg = SimConfig(cluster=make_cluster({"gpu": 1}),
                        policy=parse_policy("las"), seed=0)
        with pytest.raises(ValueError, match="unknown templates: gone, nope"):
            Simulation(cfg, trace, [flat_template()])

    def test_entry_a_job_would_reject_named_up_front(self):
        trace = Trace([TraceEntry(5.0, "flat", 10),
                       TraceEntry(0.0, "flat", 10, slo_seconds=0.0)], "static", 0)
        cfg = SimConfig(cluster=make_cluster({"gpu": 1}),
                        policy=parse_policy("las"), seed=0)
        with pytest.raises(ValueError, match="trace entry 2: job 0: slo_seconds"):
            Simulation(cfg, trace, [flat_template()])

    def test_negative_seed_rejected_up_front(self):
        cfg = SimConfig(cluster=make_cluster({"gpu": 1}),
                        policy=parse_policy("las"), seed=-1)
        with pytest.raises(ValueError, match="seed must be non-negative, not -1"):
            Simulation(cfg, Trace([TraceEntry(0.0, "flat", 10)], "static", 0),
                       [flat_template()])

    def test_estimator_without_space_sharing_rejected_up_front(self):
        # The estimator only sets pair rates, which a policy without +ss
        # never reads.
        templates = [flat_template(f"flat-{k}") for k in range(2)]
        cfg = SimConfig(cluster=make_cluster({"gpu": 1}),
                        policy=parse_policy("las"), seed=0,
                        estimator=EstimatorConfig(["flat-0", "flat-1"]))
        trace = Trace([TraceEntry(0.0, "flat-0", 10)], "static", 0)
        with pytest.raises(ValueError, match=r"space-sharing \(\+ss\) policy"):
            Simulation(cfg, trace, templates)
        Simulation(dataclasses.replace(cfg, policy=parse_policy("las+ss")),
                   trace, templates)

    def test_hierarchical_policy_needs_listed_entities(self):
        cfg = SimConfig(cluster=make_cluster({"gpu": 1}),
                        policy=parse_policy("hier:fair"), seed=0)
        bare = Trace([TraceEntry(0.0, "flat", 10)], "static", 0)
        with pytest.raises(EntityError, match="none are listed"):
            Simulation(cfg, bare, [flat_template()])
        stray = Trace([TraceEntry(0.0, "flat", 10, entity_id=0),
                       TraceEntry(0.0, "flat", 10, entity_id=3)], "static", 0,
                      [Entity(0, 1.0, EntityPolicy.FAIRNESS)])
        with pytest.raises(EntityError, match=r"jobs \[1\] have none"):
            Simulation(cfg, stray, [flat_template()])

    def test_deterministic_reports(self):
        catalog = make_template_catalog(0)
        cluster = make_cluster({"V100": 2, "P100": 2, "K80": 2})
        from hetsched.traces import generate_trace
        trace = generate_trace("continuous", 15, catalog, seed=9,
                               lambda_rate=1 / 900.0, max_scale_factor=2,
                               duration_mean_minutes=60)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=9)
        rep1 = Simulation(cfg, trace, catalog).run()
        rep2 = Simulation(cfg, trace, catalog).run()
        assert [dataclasses.astuple(a) for a in rep1.records] == \
            [dataclasses.astuple(a) for a in rep2.records]
        assert summary(rep1) == summary(rep2)


class TestAllocationFidelity:
    def test_three_job_fractions_track_solved_allocation(self):
        templates = worked_example_templates()
        cluster = make_cluster({"V100": 1, "K80": 1})
        # Steps large enough that nothing completes within 50 rounds.
        entries = [TraceEntry(0.0, f"ex-{i}", 10 ** 9) for i in range(3)]
        trace = Trace(entries, "static", 0)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=0,
                        max_rounds=50)
        sim = Simulation(cfg, trace, templates)
        rep = sim.run()
        assert rep.rounds == 50
        # Recover the solved allocation and compare to the ledger fractions.
        from hetsched.jobs import Job, JobCombination
        from hetsched.matrices import ThroughputMatrix
        from hetsched.policies import ProblemSpace, max_min_fairness
        jobs = [Job(id=i, num_steps=10 ** 9) for i in range(3)]
        rows = [JobCombination.of(i) for i in range(3)]
        T = ThroughputMatrix.from_cells(cluster, rows,
                                        [[(4.0,), (1.0,)], [(3.0,), (1.0,)], [(2.0,), (1.0,)]])
        X = max_min_fairness(ProblemSpace(jobs, T)).allocation
        # The simulator's own ledger is not exposed; re-run the mechanism to
        # measure received fractions through the run's round log instead.
        cfg2 = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=0,
                         max_rounds=50, collect_round_log=True)
        sim2 = Simulation(cfg2, trace, templates)
        sim2.run()
        received = np.zeros((3, 2))
        for rec in sim2.round_log:
            for a in rec["assignments"]:
                j = a["jobs"][0]
                c = 0 if a["config"] == "V100" else 1
                received[j, c] += 1.0
        received /= 50.0
        assert np.abs(received - X.values).max() <= 0.06

    def test_worker_conservation_every_round(self):
        catalog = make_template_catalog(0)
        cluster = make_cluster({"V100": 2, "P100": 2, "K80": 2})
        from hetsched.traces import generate_trace
        trace = generate_trace("continuous", 12, catalog, seed=3,
                               lambda_rate=1 / 600.0, max_scale_factor=2,
                               duration_mean_minutes=60)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=3,
                        collect_round_log=True)
        sim = Simulation(cfg, trace, catalog)
        sim.run()
        assert sim.round_log, "round log should not be empty"
        for rec in sim.round_log:
            used = {"V100": 0, "P100": 0, "K80": 0}
            seen_jobs = []
            for a in rec["assignments"]:
                tname = a["config"].split("/")[0]
                used[tname] += len(a["workers"])
                seen_jobs.extend(a["jobs"])
            assert used["V100"] <= 2 and used["P100"] <= 2 and used["K80"] <= 2
            assert len(seen_jobs) == len(set(seen_jobs))

    def test_progress_accounting_exact_steps(self):
        template = flat_template(thr=1.0)
        cluster = make_cluster({"gpu": 1})
        trace = Trace([TraceEntry(0.0, "flat", 1000)], "static", 0)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=0)
        rep = Simulation(cfg, trace, [template]).run()
        assert rep.records[0].num_steps == 1000


class TestCostAccounting:
    def test_cost_matches_recomputation_from_round_log(self):
        catalog = make_template_catalog(0)
        costs = {"V100": 3.0, "P100": 1.5, "K80": 0.5}
        cluster = make_cluster({"V100": 2, "P100": 2, "K80": 2}, costs=costs)
        from hetsched.traces import generate_trace
        trace = generate_trace("continuous", 10, catalog, seed=4,
                               lambda_rate=1 / 600.0, max_scale_factor=2,
                               duration_mean_minutes=60)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=4,
                        collect_round_log=True)
        sim = Simulation(cfg, trace, catalog)
        rep = sim.run()
        recomputed = 0.0
        for rec in sim.round_log:
            for a in rec["assignments"]:
                tname = a["config"].split("/")[0]
                recomputed += costs[tname] * len(a["workers"]) * 360.0 / 3600.0
        assert rep.total_cost == pytest.approx(recomputed, rel=1e-9)


class TestBaselines:
    def test_priority_weight_never_hurts_on_paired_seeds(self):
        catalog = make_template_catalog(0)
        cluster = make_cluster({"V100": 2, "P100": 2, "K80": 2})
        from hetsched.traces import generate_trace

        def run(weight):
            jcts = []
            for seed in (1, 2):
                trace = generate_trace("continuous", 16, catalog, seed=seed,
                                       lambda_rate=1 / 450.0, single_worker=True,
                                       duration_mean_minutes=60)
                for i, e in enumerate(trace.entries):
                    if i % 5 == 0:
                        trace.entries[i] = dataclasses.replace(e, weight=weight)
                cfg = SimConfig(cluster=cluster, policy=parse_policy("las"),
                                seed=seed)
                rep = Simulation(cfg, trace, catalog).run()
                marked = [r for r in rep.records if r.job_id % 5 == 0]
                jcts.append(np.mean([r.jct for r in marked]))
            return float(np.mean(jcts))

        assert run(4.0) <= run(1.0) * 1.01

    def test_agnostic_spread_is_uniform(self):
        templates = worked_example_templates()
        cluster = make_cluster({"V100": 1, "K80": 1})
        entries = [TraceEntry(0.0, f"ex-{i}", 10 ** 9) for i in range(3)]
        trace = Trace(entries, "static", 0)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=0,
                        agnostic=True, max_rounds=40, collect_round_log=True)
        sim = Simulation(cfg, trace, templates)
        sim.run()
        counts = np.zeros((3, 2))
        for rec in sim.round_log:
            for a in rec["assignments"]:
                counts[a["jobs"][0], 0 if a["config"] == "V100" else 1] += 1
        # Each job's time splits evenly over the two types under the
        # agnostic view (equal worker counts).
        fractions = counts / counts.sum(axis=1, keepdims=True)
        assert np.abs(fractions - 0.5).max() <= 0.15

    def test_agnostic_policy_matrix_ignores_estimator(self, monkeypatch):
        # The agnostic baseline must see type-uniform rates even when the
        # estimator supplies the pair rates the aware policy would see.
        catalog = make_template_catalog(0)
        cluster = make_cluster({"V100": 2, "P100": 2, "K80": 2})
        from hetsched.traces import generate_trace
        trace = generate_trace("static", 6, catalog, seed=3, single_worker=True,
                               duration_mean_minutes=30)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las+ss"), seed=3,
                        agnostic=True, max_rounds=20,
                        estimator=EstimatorConfig(
                            reference_names=[t.name for t in catalog[:8]]))
        seen = []
        real = simulator.solve_policy

        def spy(spec, jobs, cluster, T, **kwargs):
            seen.append(T)
            return real(spec, jobs, cluster, T, **kwargs)

        monkeypatch.setattr(simulator, "solve_policy", spy)
        Simulation(cfg, trace, catalog).run()
        assert seen
        for T in seen:
            for r in (~T.is_pair).nonzero()[0]:
                rates = T.thr[r, T.feasible[r], 0]
                assert np.all(rates == rates[0]), T.rows[r]


class TestEstimatorIntegration:
    def test_estimated_run_close_to_oracle(self):
        catalog = make_template_catalog(0)
        cluster = make_cluster({"V100": 2, "P100": 2, "K80": 2})
        from hetsched.traces import generate_trace
        trace = generate_trace("continuous", 14, catalog, seed=2,
                               lambda_rate=1 / 700.0, single_worker=True,
                               duration_mean_minutes=60)
        refs = [t.name for t in catalog[:8]]
        base = SimConfig(cluster=cluster, policy=parse_policy("las+ss"), seed=2)
        oracle = Simulation(base, trace, catalog).run()
        est_cfg = dataclasses.replace(
            base, estimator=EstimatorConfig(reference_names=refs,
                                            profile_fraction=0.2))
        est = Simulation(est_cfg, trace, catalog).run()
        assert est.avg_jct == pytest.approx(oracle.avg_jct, rel=0.15)

    def estimator_run(self, jobs=14):
        catalog = make_template_catalog(0)
        from hetsched.traces import generate_trace
        trace = generate_trace("continuous", jobs, catalog, seed=1,
                               lambda_rate=1 / 700.0, single_worker=True,
                               duration_mean_minutes=60)
        cfg = SimConfig(cluster=make_cluster({"V100": 2, "P100": 2, "K80": 2}),
                        policy=parse_policy("las+ss"), seed=1,
                        collect_round_log=True,
                        estimator=EstimatorConfig(
                            reference_names=[t.name for t in catalog[:8]]))
        return Simulation(cfg, trace, catalog)

    def test_second_run_repeats_the_first(self):
        sim = self.estimator_run()
        first = sim.run()
        first_log = list(sim.round_log)
        second = sim.run()
        assert [dataclasses.astuple(r) for r in second.records] == \
            [dataclasses.astuple(r) for r in first.records]
        assert sim.round_log == first_log
        assert summary(second) == summary(first)

    def test_matches_are_per_arrival_fingerprints(self):
        # Each arrival profiled and completed on its own, as a job at a time:
        # picks drawn in arrival order, row k completed with seed `seed + k`.
        from oracles import restart_batched_complete_matrix
        sim = self.estimator_run(jobs=24)
        refs = sim.refs
        entries = sorted(sim.trace.entries, key=lambda e: e.arrival_time)
        rng = np.random.default_rng(sim.cfg.seed)
        want = []
        for k, entry in enumerate(entries):
            picks = rng.choice(refs.size, size=2, replace=False)
            observed = np.zeros(refs.size, dtype=bool)
            observed[picks] = True
            truth = [simulator.colocation_factor(sim.templates[entry.template],
                                                 sim.templates[name])
                     for name in refs.names]
            stacked = np.vstack([refs.R, np.where(observed, truth, 0.0)])
            mask = np.vstack([np.ones_like(refs.R, dtype=bool), observed])
            row = restart_batched_complete_matrix(stacked, mask,
                                                  seed=sim.cfg.seed + k)[-1]
            want.append(int(np.argmin(np.linalg.norm(refs.R - row, axis=1))))
        assert sim._match_references(entries) == want
        assert len(set(want)) > 1

    def test_empty_trace(self):
        sim = self.estimator_run()
        sim.trace = Trace([], "continuous", 0)
        assert sim.run().records == []


class TestIsolatedDuration:
    @pytest.mark.parametrize("counts, aware", [
        ({"V100": 1, "K80": 4}, False),
        ({"V100": 4, "K80": 4}, True),
    ], ids=["one-v100", "placement-aware"])
    def test_matches_equal_share_allocation(self, monkeypatch, counts, aware):
        # The ftf_rho denominator is the job's steps over its effective
        # throughput under the policies' equal-share allocation, split
        # among the jobs active at its arrival.
        template = JobTemplate(name="t", tier_throughputs=(3.0, 2.0, 1.0),
                               consolidated_efficiency=0.9,
                               unconsolidated_efficiency=0.6,
                               coloc_sensitivity=0.5, coloc_aggressiveness=0.5)
        cluster = make_cluster(counts, placement_aware=aware,
                               workers_per_server={"V100": 2, "K80": 2})
        trace = Trace([TraceEntry(0.0, "t", 300, scale_factor=2),
                       TraceEntry(0.0, "t", 400, scale_factor=2)], "static", 0)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=0)
        matrices = []
        real = simulator.solve_policy

        def spy(spec, jobs, cluster, T, **kwargs):
            matrices.append(T)
            return real(spec, jobs, cluster, T, **kwargs)

        monkeypatch.setattr(simulator, "solve_policy", spy)
        rep = Simulation(cfg, trace, [template]).run()
        T = matrices[0]
        X = equal_share_allocation(T)
        for r, n_active in zip(rep.records, (1, 2)):
            iso = effective_throughput(r.job_id, X, T) / n_active
            assert r.isolated_duration == pytest.approx(r.num_steps / iso,
                                                        rel=1e-12)


class TestPlacementAware:
    def test_distributed_jobs_on_placement_aware_cluster(self):
        catalog = make_template_catalog(0)
        cluster = make_cluster({"V100": 8, "K80": 8}, placement_aware=True,
                               workers_per_server={"V100": 4, "K80": 8})
        from hetsched.traces import generate_trace
        trace = generate_trace("static", 6, catalog, seed=5,
                               max_scale_factor=8, duration_mean_minutes=45)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=5,
                        collect_round_log=True)
        sim = Simulation(cfg, trace, catalog)
        rep = sim.run()
        assert len(rep.records) == 6
        configs_seen = {a["config"] for rec in sim.round_log
                        for a in rec["assignments"]}
        assert all("/" in c for c in configs_seen)
        # A 8-worker job on 4-per-server V100s can never be consolidated there.
        for rec in sim.round_log:
            for a in rec["assignments"]:
                if len(a["workers"]) == 8 and a["config"].startswith("V100"):
                    assert not a["consolidated"]


class TestWorkBookkeeping:
    def test_steps_equal_ledger_time_times_rate(self, monkeypatch):
        # With zero switch overhead and no completions, every job's progress
        # must equal the sum over the round log of round_duration * rate.
        templates = worked_example_templates()
        cluster = make_cluster({"V100": 1, "K80": 1})
        entries = [TraceEntry(0.0, f"ex-{i}", 10 ** 9) for i in range(3)]
        trace = Trace(entries, "static", 0)
        cfg = SimConfig(cluster=cluster, policy=parse_policy("las"), seed=0,
                        max_rounds=30, collect_round_log=True)
        monkeypatch.setattr(simulator, "PREEMPTION_OVERHEAD", 0.0)
        jobs = {}
        real = simulator.solve_policy

        def spy(spec, snapshot, *args, **kwargs):
            jobs.update((j.id, j) for j in snapshot)
            return real(spec, snapshot, *args, **kwargs)

        monkeypatch.setattr(simulator, "solve_policy", spy)
        sim = Simulation(cfg, trace, templates)
        sim.run()
        rates = {f"ex-{i}": dict(V100=(4.0, 3.0, 2.0)[i], K80=1.0)
                 for i in range(3)}
        expected = {i: 0.0 for i in range(3)}
        for rec in sim.round_log:
            for a in rec["assignments"]:
                j = a["jobs"][0]
                expected[j] += 360.0 * rates[f"ex-{j}"][a["config"]]
        assert sorted(jobs) == [0, 1, 2]
        for i, job in jobs.items():
            assert job.steps_done == pytest.approx(expected[i], rel=1e-9)


class TestPolicyMatrix:
    @pytest.mark.parametrize("policy", ["las", "makespan"])
    def test_solve_reads_the_simulator_matrix_itself(self, monkeypatch, policy):
        # Simulator matrices hold no pair rows without space sharing, no
        # finished jobs and no cell too small for its row, so solve_policy
        # compiles its ProblemSpace over the very matrix it was given.
        from hetsched.policies import ProblemSpace
        from hetsched.traces import generate_trace

        catalog = make_template_catalog(0)
        trace = generate_trace("continuous", 10, catalog, seed=3,
                               lambda_rate=1 / 600.0, max_scale_factor=4)
        assert {e.scale_factor for e in trace.entries} - {1}
        cfg = SimConfig(cluster=make_cluster({"V100": 4, "P100": 2, "K80": 2}),
                        policy=parse_policy(policy), seed=0, max_rounds=40)
        given, compiled = [], []
        real_solve, real_init = simulator.solve_policy, ProblemSpace.__init__

        def solve_spy(spec, jobs, cluster, T, **kwargs):
            given.append(T)
            return real_solve(spec, jobs, cluster, T, **kwargs)

        def init_spy(self, jobs, T):
            compiled.append(T)
            real_init(self, jobs, T)

        monkeypatch.setattr(simulator, "solve_policy", solve_spy)
        monkeypatch.setattr(ProblemSpace, "__init__", init_spy)
        Simulation(cfg, trace, catalog).run()
        assert len(given) > 1 and len(compiled) == len(given)
        assert all(a is b for a, b in zip(given, compiled))


class TestReferenceMechanism:
    def test_event_driven_space_sharing_run_matches_reference(self, monkeypatch):
        self.check_against_reference(monkeypatch, None)

    def test_periodic_space_sharing_run_matches_reference(self, monkeypatch):
        self.check_against_reference(monkeypatch, 3)

    @staticmethod
    def check_against_reference(monkeypatch, recompute_every):
        # Seeded traces with pair rows of one- and two-worker jobs, three
        # arrivals every 2,700 s on 360 s rounds.  The simulator keeps a
        # certified plan while its decision stands; the reference plans and
        # places every round.  In periodic mode completions between
        # re-solves cut their rows from the decision's matrix, the ledger
        # follows every cut, and arrivals wait for the next tick.  On the
        # smaller cluster some rows split their target over two cells, so a
        # plan can take one cell in every such row and still not repeat.
        catalog = make_template_catalog(0)
        runs = []
        for workers, seed in itertools.product((3, 4), range(6)):
            cluster = make_cluster(
                {"V100": workers, "P100": workers, "K80": workers},
                workers_per_server={"V100": 1, "P100": 2, "K80": 2})
            cfg = SimConfig(cluster=cluster, policy=parse_policy("las+ss"),
                            seed=0, recompute_every=recompute_every,
                            collect_round_log=True)
            rng = np.random.default_rng(seed)
            entries = []
            for k in range(12):
                template = catalog[int(rng.integers(len(catalog)))]
                entries.append(TraceEntry(
                    2700.0 * (k // 3), template.name,
                    int(rng.uniform(1.0, 12.0) * 3600
                        * template.tier_throughputs[2]),
                    scale_factor=1 + k % 2))
            runs.append((cfg, Trace(entries, "continuous", 0)))

        def run(cfg, trace):
            sim = Simulation(cfg, trace, catalog)
            report = sim.run()
            return sim.round_log, report

        compile_, plan_round, reorder = (simulator.CompiledAllocation,
                                         simulator.plan_round, simulator.reorder)
        compiled, planned, reordered = [0], set(), []

        def compile_spy(allocation, jobs):
            compiled[0] += 1
            return compile_(allocation, jobs)

        def plan_spy(priorities, decision, ledger):
            planned.add(ledger.rounds_total)
            return plan_round(priorities, decision, ledger)

        def reorder_spy(plan, priorities, decision):
            before = [a.row for a in plan.assignments]
            reorder(plan, priorities, decision)
            reordered.append(before != [a.row for a in plan.assignments])
            return plan

        repeats = reorders = repeated_arrivals = cuts = 0
        pairs = set()
        for cfg, trace in runs:
            compiled[0] = 0
            planned.clear()
            reordered.clear()
            with monkeypatch.context() as patch:
                patch.setattr(simulator, "CompiledAllocation", compile_spy)
                patch.setattr(simulator, "plan_round", plan_spy)
                patch.setattr(simulator, "reorder", reorder_spy)
                log, report = run(cfg, trace)
            with monkeypatch.context() as patch:
                for name, reference in oracles.reference_mechanism().items():
                    patch.setattr(simulator, name, reference)
                ref_log, ref_report = run(cfg, trace)
            assert log == ref_log and report.records == ref_report.records
            assert repr(summary(report)) == repr(summary(ref_report))
            assert len(report.records) == len(trace.entries)
            repeated = set(range(report.rounds)) - planned
            assert len(repeated) == len(reordered)
            repeats += len(repeated)
            reorders += sum(reordered)
            pairs |= {len(a["workers"]) for rec in log for a in rec["assignments"]
                      if len(a["jobs"]) == 2}
            cuts += compiled[0] - report.policy_solves
            if recompute_every is not None:
                arrivals = {int(np.ceil(e.arrival_time / cfg.round_duration))
                            for e in trace.entries}
                repeated_arrivals += len({r for r in arrivals
                                          if r % recompute_every} & repeated)
        # Pairs of both worker counts ran, many rounds repeated the last
        # plan, and some repeats re-sorted it.
        assert pairs == {1, 2}
        assert repeats >= 120 and reorders >= 6
        if recompute_every is None:
            assert cuts == 0
        else:
            # Completions cut the matrix between re-solves (each cut
            # compiles the allocation again), and arrivals between ticks
            # left the last plan repeating.
            assert cuts >= 30 and repeated_arrivals >= 6


class TestMatrixBuild:
    CASES = {
        # name: (policy, mixed scale factors, SimConfig fields)
        "estimated": ("las+ss", False, {"estimator": True}),
        "oracle": ("las+ss", False, {}),
        "las": ("las", True, {}),
        "mixed": ("las+ss", True, {}),
        "agnostic": ("las+ss", False, {"agnostic": True}),
        "periodic": ("las+ss", True, {"estimator": True, "recompute_every": 3}),
    }

    @staticmethod
    def config(policy, mixed, fields) -> tuple:
        """(SimConfig, trace, catalog) of a 14-job run on six workers; an
        `estimator` field set true matches against eight references."""
        fields = dict(fields)
        catalog = make_template_catalog(0)
        rng = np.random.default_rng(5)
        entries = []
        for k in range(14):
            template = catalog[int(rng.integers(len(catalog)))]
            entries.append(TraceEntry(
                900.0 * (k // 4), template.name,
                int(rng.uniform(1.0, 6.0) * 3600 * template.tier_throughputs[2]),
                scale_factor=1 + k % 2 if mixed else 1))
        if fields.pop("estimator", False):
            fields["estimator"] = EstimatorConfig(
                reference_names=[t.name for t in catalog[:8]])
        cfg = SimConfig(cluster=make_cluster({"V100": 2, "P100": 2, "K80": 2}),
                        policy=parse_policy(policy), seed=1, **fields)
        return cfg, Trace(entries, "continuous", 0), catalog

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_per_pair_reference(self, monkeypatch, case):
        # The policy matrix and the execution rates of every decision equal,
        # byte for byte, the two matrices of the per-pair build with its
        # per-direction factor precedence.
        cfg, trace, catalog = self.config(*self.CASES[case])
        real = Simulation.build_matrix
        overridden = []

        def spy(self, states):
            T, thr_exec = real(self, states)
            want = oracles.reference_build_matrix(self, states)
            assert (thr_exec is T.thr) == (want[0] is want[1])
            for ref in want:
                assert T.rows == ref.rows
                assert T.feasible.tobytes() == ref.feasible.tobytes()
            assert T.thr.tobytes() == want[0].thr.tobytes()
            assert thr_exec.shape == want[1].thr.shape
            assert thr_exec.tobytes() == want[1].thr.tobytes()
            overridden.append(any((a.job.id, b.job.id) in self.estimates.values
                                  for a in states for b in states))
            return T, thr_exec

        monkeypatch.setattr(Simulation, "build_matrix", spy)
        report = Simulation(cfg, trace, catalog).run()
        assert len(report.records) == len(trace.entries) and len(overridden) > 5
        if cfg.estimator is not None:
            # Online observations override some factors, but not all.
            assert any(overridden) and not all(overridden)

    @pytest.mark.parametrize("case, builds", [("estimated", 2), ("oracle", 2),
                                              ("las", 1)])
    def test_one_matrix_per_decision(self, monkeypatch, case, builds):
        # A decision builds the policy matrix and, with space sharing, the
        # all-pairs matrix `prune_combinations` cuts it from.  The
        # estimator's true rates come as an array, with no matrix of their
        # own.
        cfg, trace, catalog = self.config(*self.CASES[case])
        built = []
        init = ThroughputMatrix.__init__

        def spy(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(ThroughputMatrix, "__init__", spy)
        report = Simulation(cfg, trace, catalog).run()
        assert report.policy_solves > 5
        assert len(built) == builds * report.policy_solves

    @pytest.mark.parametrize("fields", [{}, {"agnostic": True},
                                        {"recompute_every": 3}],
                             ids=["plain", "agnostic", "periodic"])
    def test_rounds_run_the_policys_allocation(self, monkeypatch, fields):
        # Each decision compiles the very allocation `solve_policy` returned
        # (spread, on the agnostic variant), over the matrix the policy
        # solved: the decision's policy matrix, or its agnostic view.  A
        # periodic cut compiles that allocation's surviving rows.
        cfg, trace, catalog = self.config("las+ss", True,
                                          {"estimator": True, **fields})
        events = []
        build, solve, compile_ = (Simulation.build_matrix, simulator.solve_policy,
                                  simulator.CompiledAllocation)

        def build_spy(self, states):
            events.append(("build", *build(self, states)))
            return events[-1][1:]

        def solve_spy(spec, jobs, cluster, T, **kwargs):
            events.append(("solve", T, solve(spec, jobs, cluster, T, **kwargs)))
            return events[-1][2]

        def compile_spy(allocation, jobs):
            events.append(("compile", allocation))
            return compile_(allocation, jobs)

        monkeypatch.setattr(Simulation, "build_matrix", build_spy)
        monkeypatch.setattr(simulator, "solve_policy", solve_spy)
        monkeypatch.setattr(simulator, "CompiledAllocation", compile_spy)
        report = Simulation(cfg, trace, catalog).run()
        kinds = [event[0] for event in events]
        assert kinds[:3] == ["build", "solve", "compile"]
        solved = cuts = 0
        for k, event in enumerate(events):
            if event[0] == "solve":
                T_policy, (_, T, result) = events[k - 1][1], event
                if "agnostic" in fields:
                    assert T.rows is T_policy.rows
                    assert np.array_equal(T.feasible, T_policy.feasible)
                else:
                    assert T is T_policy
                assert events[k + 1][1] is result.allocation
                assert result.allocation.T is T
                solved += 1
            elif event[0] == "compile" and kinds[k - 1] != "solve":
                X = event[1]
                assert "recompute_every" in fields and set(X.rows) < set(T.rows)
                kept = [T.row_index(combo) for combo in X.rows]
                assert np.array_equal(X.values, result.allocation.values[kept])
                cuts += 1
        assert solved == report.policy_solves > 5
        assert (cuts > 0) == ("recompute_every" in fields)
