"""The benchmark's tracer (bench/tracing.py) wraps package functions by the
names their callers bind; a refactor that unbinds one of them must fail
here rather than in a traced benchmark run.  Likewise the benchmark's
driver (bench/run.py) and checks (bench/checks.py) call the package by
position and read its attributes, so small copies of two workloads run
through them here."""

import dataclasses
import sys
from collections import Counter
from pathlib import Path

import pytest

import hetsched.lp
import hetsched.simulator
import hetsched.waterfill
from hetsched.cluster import make_cluster
from hetsched.jobs import Entity, EntityPolicy
from hetsched.policies import parse_policy
from hetsched.simulator import EstimatorConfig, SimConfig, Simulation
from hetsched.traces import JobTemplate, Trace, TraceEntry

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def three_templates():
    return [JobTemplate(name=f"t{i}", tier_throughputs=(fast, 1.0, 1.0),
                        consolidated_efficiency=1.0,
                        unconsolidated_efficiency=1.0,
                        coloc_sensitivity=0.3, coloc_aggressiveness=0.3)
            for i, fast in enumerate((4.0, 3.0, 2.0))]


def test_tracer_installs_traces_and_restores():
    bound = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _, _ in tracing.TARGETS]
    templates = three_templates()
    trace = Trace([TraceEntry(0.0, t.name, 2000) for t in templates], "static", 0)
    cfg = SimConfig(cluster=make_cluster({"V100": 1, "K80": 1}),
                    policy=parse_policy("las+ss"), seed=0)
    tracer = tracing.Tracer()
    with tracer.installed():
        for owner, attr, fn in bound:
            assert owner.__dict__[attr] is not fn, attr
        Simulation(cfg, trace, templates).run()
    for owner, attr, fn in bound:
        assert owner.__dict__[attr] is fn, attr
    names = {span[0] for span in tracer.spans}
    assert {"simulator.run", "simulator.build_matrix", "matrices.prune",
            "matrices.throughput_matrix", "matrices.validate",
            "policies.problem_space", "lp.solve_lp",
            "mechanism.compute_priorities"} <= names
    metrics = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert metrics["policies.calls"] > 0 and metrics["lp.calls"] > 0


def test_tracer_sees_water_filling_and_one_compile_per_decision(monkeypatch):
    templates = three_templates()
    entities = [Entity(0, 1.0), Entity(1, 2.0, EntityPolicy.FIFO)]
    entries = [TraceEntry(600.0 * k, t.name, 2000, entity_id=k % 2)
               for k, t in enumerate(templates + templates[:1])]
    trace = Trace(entries, "continuous", 0, entities)
    cfg = SimConfig(cluster=make_cluster({"V100": 1, "K80": 1}),
                    policy=parse_policy("hier:fair"), seed=0)

    def traced_run():
        tracer = tracing.Tracer()
        with tracer.installed():
            Simulation(cfg, trace, templates).run()
        return tracer, Counter(span[0] for span in tracer.spans)

    # The level LP settles every bottleneck check of this trace, so
    # `find_bottlenecks` runs only with its certificate switched off.
    _, certified = traced_run()
    monkeypatch.setattr(hetsched.waterfill, "CERTIFY_BOUND", float("inf"))
    tracer, count = traced_run()
    assert certified["waterfill.find_bottlenecks"] < count["waterfill.find_bottlenecks"]
    assert (certified["waterfill.hierarchical_waterfill"]
            == count["waterfill.hierarchical_waterfill"])
    for name in ("waterfill.hierarchical_waterfill",
                 "waterfill.find_bottlenecks", "waterfill.max_gain"):
        assert count.get(name, 0) > 0, name
    assert count["policies.problem_space"] == count["policies.solve_policy"]
    # One gain LP per bottleneck check, however many jobs are active.
    gain_calls = {}
    for span in tracer.spans:
        if span[0] == "waterfill.max_gain":
            gain_calls[span[3]] = gain_calls.get(span[3], 0) + 1
    for i, span in enumerate(tracer.spans):
        if span[0] == "waterfill.find_bottlenecks":
            assert gain_calls.get(i, 0) <= 1, i


@pytest.mark.parametrize("policy", ["las+ss", "makespan", "cost"])
def test_tracer_lp_sizes_are_those_of_the_largest_lp_solved(policy, monkeypatch):
    # lp.rows_max and lp.vars_max read each traced LP's `constraints` and
    # `num_vars`, so they must stay its row and column counts.
    shapes = []

    class Spy(hetsched.lp._Standardized):
        def __init__(self, lp):
            shapes.append(lp.constraints.shape)
            super().__init__(lp)

    # `solve_lp` standardizes every LP it solves through this name.
    monkeypatch.setattr(hetsched.lp, "_Standardized", Spy)
    templates = three_templates()
    trace = Trace([TraceEntry(600.0 * k, t.name, 2000)
                   for k, t in enumerate(templates)], "continuous", 0)
    cfg = SimConfig(cluster=make_cluster({"V100": 1, "K80": 1}),
                    policy=parse_policy(policy), seed=0)
    tracer = tracing.Tracer()
    with tracer.installed():
        Simulation(cfg, trace, templates).run()
    metrics = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert shapes and metrics["lp.calls"] == len(shapes)
    assert metrics["lp.rows_max"] == max(rows for rows, _ in shapes)
    assert metrics["lp.vars_max"] == max(cols for _, cols in shapes)


def test_tracer_sees_each_mechanism_step_once_per_round(monkeypatch):
    # mechanism.round_ms_p50 groups the mechanism spans into rounds, which
    # start at compute_priorities; it and settle_round run once per
    # simulated round.  plan_round and place run only on rounds that do not
    # repeat the last plan.  The second arrival leaves the cluster idle for
    # a while, and idle time is skipped, not simulated.
    templates = three_templates()
    trace = Trace([TraceEntry(0.0, "t0", 2000), TraceEntry(50000.0, "t1", 2000)],
                  "continuous", 0)
    cfg = SimConfig(cluster=make_cluster({"V100": 1, "K80": 1}),
                    policy=parse_policy("las"), seed=0)
    planned = []
    plan_round = hetsched.simulator.plan_round

    def spy(*args):
        planned.append(args)
        return plan_round(*args)

    monkeypatch.setattr(hetsched.simulator, "plan_round", spy)
    tracer = tracing.Tracer()
    with tracer.installed():
        report = Simulation(cfg, trace, templates).run()
    count = Counter(span[0] for span in tracer.spans)
    assert count["mechanism.compute_priorities"] == report.rounds
    assert count["mechanism.settle_round"] == report.rounds
    assert count["mechanism.plan_round"] == count["mechanism.place"] == len(planned)
    assert 0 < len(planned) < report.rounds


def test_tracer_sees_estimator_matches_inside_the_run():
    templates = three_templates()
    trace = Trace([TraceEntry(900.0 * k, t.name, 2000)
                   for k, t in enumerate(templates * 2)], "continuous", 0)
    cfg = SimConfig(cluster=make_cluster({"V100": 1, "K80": 1}),
                    policy=parse_policy("las+ss"), seed=0,
                    estimator=EstimatorConfig(
                        reference_names=[t.name for t in templates]))
    tracer = tracing.Tracer()
    with tracer.installed():
        Simulation(cfg, trace, templates).run()
    spans = tracer.spans
    matches = [span for span in spans if span[0] == "estimator.match"]
    assert matches
    for span in matches:
        assert spans[span[3]][0] == "simulator.run"
    metrics = tracing.layer_metrics(spans, 0, len(spans))
    assert metrics["estimator.match_calls"] == len(matches)


@pytest.mark.parametrize("name", ["las-reset", "ss-estimated", "hier-wf",
                                  "makespan-static"])
def test_small_bench_workload_simulates_and_passes_its_checks(name):
    wl = dataclasses.replace(workloads.WORKLOADS[name], traces=1, jobs=6)
    templates, trace_list, configs, _ = workloads.set_up(wl, 1)
    timed = bench_run._simulate(bench_run.Pass(), configs, trace_list, templates)
    checker = bench_run._check(wl, configs, trace_list, templates, timed)
    assert checker.failures == []
    assert checker.solves_checked > 0
