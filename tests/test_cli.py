import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hetsched.cli
import hetsched.lp
import hetsched.policies
import hetsched.waterfill
from hetsched.cli import main
from hetsched.cluster import make_cluster
from hetsched.jobs import Entity, Job, JobCombination
from hetsched.matrices import AllocationMatrix, ThroughputMatrix
from hetsched.simulator import SimConfig
from hetsched.traces import Trace, TraceEntry
from oracles import cold_max_gain, cold_screen_feasible, matrix_doc


@pytest.fixture
def runner():
    return CliRunner()


def save_matrix(T, path):
    """Write a throughput matrix file as the CLI reads it."""
    path.write_text(json.dumps(matrix_doc(T), indent=2, sort_keys=True) + "\n")


def load_matrix(path):
    return ThroughputMatrix.from_json(json.loads(path.read_text()))


def write_three_job_instance(tmp_path, costs=None):
    cluster = make_cluster({"V100": 1, "K80": 1}, costs=costs)
    rows = [JobCombination.of(i) for i in range(3)]
    T = ThroughputMatrix.from_cells(cluster, rows,
                                    [[(4.0,), (1.0,)], [(3.0,), (1.0,)], [(2.0,), (1.0,)]])
    thr = tmp_path / "thr.json"
    save_matrix(T, thr)
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([{"id": i, "num_steps": 1000} for i in range(3)]))
    return thr, jobs


class TestGenerateTrace:
    def test_static(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "generate-trace",
                                   "--mode", "static", "--jobs", "100",
                                   "--seed" if False else "--duration-mean-minutes", "60"])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 101  # header + jobs
        for line in lines[1:]:
            assert json.loads(line)["arrival_time"] == 0.0

    def test_continuous_poisson(self, runner, tmp_path):
        res = runner.invoke(main, ["--seed", "1", "--out", str(tmp_path),
                                   "generate-trace", "--mode", "continuous",
                                   "--jobs", "1000", "--lambda", "0.1"])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()[1:]
        arrivals = [json.loads(x)["arrival_time"] for x in lines]
        gaps = np.diff([0.0] + arrivals)
        assert np.mean(gaps) == pytest.approx(10.0, rel=0.1)

    def test_static_with_lambda_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "generate-trace",
                                   "--mode", "static", "--jobs", "10",
                                   "--lambda", "0.1"])
        assert res.exit_code == 2

    def test_missing_jobs_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "generate-trace",
                                   "--mode", "static"])
        assert res.exit_code == 2


SIMULATE = ["simulate", "--policy", "las", "--jobs", "2"]
GENERATE = ["generate-trace", "--mode", "static", "--jobs", "3"]


@pytest.mark.parametrize("args, named", [
    (SIMULATE + ["--lambda", "0.01", "--seeds", "a,b"], "--seeds"),
    (SIMULATE + ["--lambda", "x"], "--lambda"),
    (SIMULATE + ["--lambda", "0"], "positive lambda"),
    (SIMULATE + ["--lambda", "-1"], "positive lambda"),
    (["simulate", "--policy", "las", "--jobs", "3"], "positive lambda"),
    (SIMULATE + ["--mode", "static", "--lambda", "0.01"], "does not take a lambda"),
    (GENERATE + ["--slo-factors", "a"], "--slo-factors"),
    (GENERATE + ["--slo-factors", "2,0"], "SLO factors must be positive"),
    (GENERATE + ["--max-scale-factor", "0"], "scale factor"),
    (GENERATE + ["--duration-mean-minutes", "-5"], "mean duration"),
    (GENERATE + ["--entities", "2", "--entity-policy", "bogus"], "entity policy"),
    (["generate-trace", "--mode", "static", "--jobs", "-2"], "job and entity counts"),
], ids=["seeds", "lambda-text", "lambda-zero", "lambda-negative",
        "continuous-without-lambda", "static-with-lambda", "slo-text",
        "slo-zero", "max-scale-factor", "duration-negative",
        "entity-policy", "jobs-negative"])
def test_bad_option_exit_code(runner, tmp_path, args, named):
    res = runner.invoke(main, ["--out", str(tmp_path), *args])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output and named in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "trace.jsonl").exists()


class TestSolve:
    def test_three_job_worked_example(self, runner, tmp_path):
        thr, jobs = write_three_job_instance(tmp_path)
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "las", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "allocation.json").read_text())
        assert doc["objective"] == pytest.approx(8 / 11, abs=0.01)
        # Allocation round-trips through validation.
        T = load_matrix(thr)
        vals = np.zeros((3, 2))
        for r, row in enumerate(doc["allocation"]["rows"]):
            for c, cfg in enumerate(T.configs):
                vals[r, c] = row["fractions"][cfg.key(T.cluster)]
        X = AllocationMatrix(T, vals)
        X.validate({i: Job(id=i) for i in range(3)})

    def test_makespan_single_job(self, runner, tmp_path):
        cluster = make_cluster({"gpu": 1})
        T = ThroughputMatrix.from_cells(cluster, [JobCombination.of(0)], [[(1.0,)]])
        thr = tmp_path / "thr.json"
        save_matrix(T, thr)
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{"id": 0, "num_steps": 100}]))
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "makespan",
                                   "--throughputs", str(thr), "--jobs", str(jobs)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "allocation.json").read_text())
        assert doc["objective"] == pytest.approx(100.0, rel=1e-9)

    def test_impossible_slo_exit_code(self, runner, tmp_path):
        cluster = make_cluster({"gpu": 1}, costs={"gpu": 1.0})
        T = ThroughputMatrix.from_cells(cluster, [JobCombination.of(0)], [[(1.0,)]])
        thr = tmp_path / "thr.json"
        save_matrix(T, thr)
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{"id": 0, "num_steps": 10_000,
                                     "slo_seconds": 10.0}]))
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "cost_slo",
                                   "--throughputs", str(thr), "--jobs", str(jobs)])
        assert res.exit_code == 3
        assert "0" in res.output

    def test_missing_file_exit_code(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "las",
                                   "--throughputs", str(tmp_path / "nope.json"),
                                   "--jobs", str(tmp_path / "nope2.json")])
        assert res.exit_code == 4

    @pytest.mark.parametrize("policy", ["fifo+wf", "makespan+wf", "ftf+wf",
                                        "hier:fair+wf"])
    def test_water_filling_flag_without_effect_exit_code(self, runner, tmp_path,
                                                         policy):
        thr, jobs = write_three_job_instance(tmp_path)
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", policy, "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 2, res.output
        assert "+wf applies only to las," in res.output

    def test_dump_lp_flag(self, runner, tmp_path):
        thr, jobs = write_three_job_instance(tmp_path)
        for policy, label in (("las", "# LP: 7 variables, 8 constraints"),
                              ("makespan", "# LP: 7 variables, 8 constraints")):
            res = runner.invoke(main, ["--out", str(tmp_path), "--dump-lp",
                                       "solve", "--policy", policy,
                                       "--throughputs", str(thr),
                                       "--jobs", str(jobs)])
            assert res.exit_code == 0, res.output
            assert label in res.output and "maximize" in res.output, policy

    @pytest.mark.parametrize("policy", ["ftf", "cost", "las+wf", "hier:fair"])
    def test_dump_lp_prints_every_policys_lps(self, runner, tmp_path, policy):
        thr, jobs = write_three_job_instance(tmp_path)
        if policy.startswith("hier"):
            jobs.write_text(json.dumps({
                "jobs": [{"id": i, "num_steps": 1000, "entity_id": i % 2}
                         for i in range(3)],
                "entities": [{"id": 0, "policy": "fairness"},
                             {"id": 1, "policy": "fifo"}]}))
        res = runner.invoke(main, ["--out", str(tmp_path), "--dump-lp", "solve",
                                   "--policy", policy, "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 0, res.output
        assert "# LP: " in res.stderr and "subject to" in res.stderr

    def test_dump_lp_prints_one_max_min_lp_per_ftf_iteration(self, runner,
                                                             tmp_path, monkeypatch):
        # Six cells, then lam as x6, maximized and free.
        thr, jobs = write_three_job_instance(tmp_path)
        solved = []
        solve = hetsched.policies.solve_lp
        monkeypatch.setattr(hetsched.policies, "solve_lp",
                            lambda lp: solved.append(lp) or solve(lp))
        res = runner.invoke(main, ["--out", str(tmp_path), "--dump-lp", "solve",
                                   "--policy", "ftf", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 0, res.output
        lps = res.stderr.split("# LP: ")[1:]
        assert len(lps) == len(solved) >= 2
        for text in lps:
            assert "\nmaximize  +1*x6\n" in text and "\n  -inf <= x6 <= inf" in text

    def test_ftf_iteration_limit_exit_code(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(hetsched.policies, "MAX_PARAMETRIC_ITERS", 1)
        thr, jobs = write_three_job_instance(tmp_path)
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "ftf", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 3, res.output
        assert "error:" in res.output and "did not converge in 1 LPs" in res.output
        assert "Traceback" not in res.output

    def test_dump_lp_prints_one_cells_lp_per_cost_iteration(self, runner, tmp_path,
                                                            monkeypatch):
        # Six cells and no other variable: every step maximizes
        # num - ratio * den over the validity rows.
        thr, jobs = write_three_job_instance(tmp_path, {"V100": 3.0, "K80": 0.5})
        solved = []
        solve = hetsched.policies.solve_lp
        monkeypatch.setattr(hetsched.policies, "solve_lp",
                            lambda lp: solved.append(lp) or solve(lp))
        res = runner.invoke(main, ["--out", str(tmp_path), "--dump-lp", "solve",
                                   "--policy", "cost", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 0, res.output
        lps = res.stderr.split("# LP: ")[1:]
        assert len(lps) == len(solved) >= 2
        for text in lps:
            assert text.startswith("6 variables, 5 constraints\n") and "x6" not in text

    def test_cost_iteration_limit_exit_code(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(hetsched.policies, "MAX_PARAMETRIC_ITERS", 1)
        thr, jobs = write_three_job_instance(tmp_path, {"V100": 3.0, "K80": 0.5})
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "cost", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 3, res.output
        assert "error:" in res.output and "did not converge in 1 LPs" in res.output
        assert "Traceback" not in res.output

    def test_cost_slo_pair_instance_is_solved(self, runner, tmp_path):
        # `reference_maximize_ratio` finds no finite ratio here: phase 1
        # calls its Charnes-Cooper LP infeasible though the instance is
        # feasible.  3.674615384615384 is the HiGHS optimum of the same
        # fractional program.
        cluster = make_cluster({"V100": 5, "P100": 2, "K80": 5}, placement_aware=True,
                               costs={"V100": 2.5, "P100": 2.9, "K80": 1.3})
        rows = [JobCombination.of(i) for i in (4, 8, 9, 3)] + [JobCombination.of(4, 9)]
        cells = [
            [(2.477,), (4.241,), (4.634,), (1.036,), (1.337,), (2.158,)],
            [(4.271,), (2.801,), None, None, (3.484,), (1.507,)],
            [None, (2.822,), (1.577,), None, (3.523,), (3.561,)],
            [(1.866,), (0.0,), (3.525,), (3.934,), (0.908,), (0.124,)],
            [(2.814, 1.691), None, None, (0.712, 4.705), (0.875, 3.902),
             (3.781, 0.488)]]
        thr = tmp_path / "thr.json"
        save_matrix(ThroughputMatrix.from_cells(cluster, rows, cells), thr)
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"id": 4, "num_steps": 8590, "slo_seconds": 28000},
            {"id": 8, "num_steps": 7258, "scale_factor": 2},
            {"id": 9, "num_steps": 8901, "slo_seconds": 36600},
            {"id": 3, "num_steps": 5957, "scale_factor": 4}]))
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "cost_slo+ss", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "allocation.json").read_text())
        assert doc["objective"] == pytest.approx(3.674615384615384, rel=1e-9)
        assert doc["violations"] == []

    def test_dump_lp_shows_warm_bottleneck_lps_as_built_cold(self, runner, tmp_path,
                                                            monkeypatch):
        # The tightening LP is the level LP's rows plus a pin row, solved
        # from the level LP's optimum; each iteration prints both LPs.  The
        # gain and screen LPs are rows appended to the tightening LP at its
        # optimum, and --dump-lp prints them as those rows: the same LPs
        # built whole and solved cold print the same text and give the
        # same allocation.
        # Jobs 0 and 1 run only on the K80.  The level LP certifies them but
        # not job 2, whose screen fails, so the gain LPs run too.
        thr, jobs = write_three_job_instance(tmp_path)
        save_matrix(ThroughputMatrix.from_cells(
            make_cluster({"V100": 1, "K80": 1}), [JobCombination.of(i) for i in range(3)],
            [[None, (1.0,)], [None, (1.0,)], [(1.0,), (2.0,)]]), thr)
        jobs.write_text(json.dumps({
            "jobs": [{"id": i, "num_steps": 1000, "entity_id": i % 2}
                     for i in range(3)],
            "entities": [{"id": 0, "policy": "fairness"},
                         {"id": 1, "policy": "fifo"}]}))
        args = ["--out", str(tmp_path), "--dump-lp", "solve", "--policy", "hier",
                "--throughputs", str(thr), "--jobs", str(jobs)]
        fills = []
        fill = hetsched.waterfill._fill
        monkeypatch.setattr(hetsched.waterfill, "_fill",
                            lambda *a: fills.append(fill(*a)) or fills[-1])
        warm = runner.invoke(main, args)
        monkeypatch.setattr(hetsched.waterfill, "max_gain", cold_max_gain)
        monkeypatch.setattr(hetsched.waterfill, "_screen_feasible",
                            cold_screen_feasible)
        cold = runner.invoke(main, args)
        assert warm.exit_code == cold.exit_code == 0, warm.output
        assert warm.stdout == cold.stdout
        assert warm.stderr == cold.stderr
        assert warm.stderr.count("# LP: ") > 4

        # Six cells, then lam as x6.
        lps = [("# LP: " + text).splitlines()
               for text in warm.stderr.split("# LP: ")[1:]]
        levels = [k for k, lp in enumerate(lps) if lp[1] == "maximize  +1*x6"]
        assert len(levels) == len(fills[0].iterations) >= 1
        appended = 0
        for k in levels:
            level, tight = lps[k], lps[k + 1]
            bounds = level.index("bounds")
            rows = bounds - 3
            assert tight[0] == level[0].replace(f"{rows} constraints",
                                                f"{rows + 1} constraints")
            assert tight[1] == "maximize  " + " ".join(f"-1*x{i}" for i in range(6))
            assert tight[2:bounds] == level[2:bounds]
            assert tight[bounds].startswith("  +1*x6 >= ")
            assert tight[bounds + 1:] == level[bounds:]
            # Every gain and screen LP up to the next level LP.
            later = [lps[i] for i in range(k + 2, len(lps))]
            later = later[:next((i for i, lp in enumerate(later)
                                 if lp[1] == "maximize  +1*x6"), len(later))]
            for lp in later:
                assert lp[2:bounds + 1] == tight[2:bounds + 1]
                assert lp.index("bounds") > bounds + 1
                assert lp[lp.index("bounds"):] == tight[bounds + 1:]
            appended += len(later)
        assert appended >= 2

    def test_dump_lp_prints_no_lp_for_sjf(self, runner, tmp_path):
        # SJF reads each job's fastest singleton cell and solves no LP.
        thr, jobs = write_three_job_instance(tmp_path)
        res = runner.invoke(main, ["--out", str(tmp_path), "--dump-lp", "solve",
                                   "--policy", "sjf", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 0, res.output
        assert "# LP: " not in res.stderr and "subject to" not in res.stderr
        assert json.loads(res.stdout)["objective"] == 1000 / 4.0

    def test_iteration_limit_exit_code(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(hetsched.lp, "MAX_ITER_BASE", 0)
        monkeypatch.setattr(hetsched.lp, "MAX_ITER_PER_DIM", 0)
        thr, jobs = write_three_job_instance(tmp_path)
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "las", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 3, res.output
        assert "error:" in res.output and "iteration limit" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("policy", ["ftf", "las"])
    def test_dump_lp_prints_an_lp_whose_phase_one_fails(self, runner, tmp_path,
                                                         monkeypatch, policy):
        # With no pivot budget the first LP's phase 1 (FTF's floors need
        # artificials) or phase 2 (LAS starts at the slack basis) stops the
        # run, and the LP it stopped on is printed once, before it.
        monkeypatch.setattr(hetsched.lp, "MAX_ITER_BASE", 0)
        monkeypatch.setattr(hetsched.lp, "MAX_ITER_PER_DIM", 0)
        res = runner.invoke(main, ["--out", str(tmp_path), "--dump-lp", "simulate",
                                   "--policy", policy, "--jobs", "3",
                                   "--lambda", "0.01"])
        assert res.exit_code == 3, res.output
        assert "iteration limit" in res.output and "Traceback" not in res.output
        assert res.stderr.count("# LP: ") == 1 and "subject to" in res.stderr

    def test_dump_lp_scoped_to_its_invocation(self, runner, tmp_path):
        thr, jobs = write_three_job_instance(tmp_path)
        args = ["--out", str(tmp_path), "solve", "--policy", "las",
                "--throughputs", str(thr), "--jobs", str(jobs)]
        dumped = runner.invoke(main, ["--dump-lp"] + args)
        assert dumped.exit_code == 0 and "maximize" in dumped.output
        plain = runner.invoke(main, args)
        assert plain.exit_code == 0, plain.output
        assert "maximize" not in plain.output

    def test_malformed_json_exit_code(self, runner, tmp_path):
        thr, _ = write_three_job_instance(tmp_path)
        jobs = tmp_path / "bad.json"
        jobs.write_text("[{\"id\": 0,")
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "las", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 4
        assert "bad.json" in res.output

    def test_missing_job_id_exit_code(self, runner, tmp_path):
        thr, _ = write_three_job_instance(tmp_path)
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps({"jobs": [{"num_steps": 10}]}))
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "las", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 2
        assert "'id'" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("jobs_doc, named", [
        ([{"id": "zero"}], "'zero'"),
        ([{"id": None}], "None"),
        ({"jobs": [{"id": 0, "entity_id": 0}],
          "entities": [{"id": 0, "policy": "lottery"}]}, "'lottery'"),
        ([{"id": 0}, {"id": 1.7}, {"id": 2}], "id must be a whole number, not 1.7"),
        ([{"id": True}, {"id": 1}, {"id": 2}], "id must be a whole number, not True"),
        ({"jobs": [{"id": 0, "entity_id": 0}], "entities": [{"id": 0.9}]},
         "id must be a whole number, not 0.9"),
        ({"jobs": [{"id": 0, "entity_id": 0.5}, {"id": 1, "entity_id": 0},
                   {"id": 2, "entity_id": 0}], "entities": [{"id": 0}]},
         "job 0: entity_id must be a whole number, not 0.5"),
        ({"jobs": [{"id": 0, "entity_id": 0}], "entities": [{"id": 0, "weight": True}]},
         "entity 0: weight must be a number, not True"),
        ({"jobs": [{"id": 0, "entity_id": 0}], "entities": [{"id": 0, "weight": "2"}]},
         "entity 0: weight must be a number, not '2'"),
    ], ids=["non-numeric", "null", "unknown-entity-policy", "fractional-id",
            "boolean-id", "fractional-entity-id", "fractional-job-entity-id",
            "boolean-entity-weight", "text-entity-weight"])
    def test_bad_value_exit_code(self, runner, tmp_path, jobs_doc, named):
        thr, _ = write_three_job_instance(tmp_path)
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps(jobs_doc))
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "hier:fair",
                                   "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "Traceback" not in res.output
        assert named in res.output

    @pytest.mark.parametrize("policy, job_field, entity_weight, named", [
        ("las", '"num_steps": 1e400', "1.0", "bad value"),
        ("las", '"id": 1e400', "1.0", "bad value"),
        ("ftf", '"elapsed_time": NaN', "1.0", "elapsed_time must be finite"),
        ("las", '"weight": NaN', "1.0", "weight must be finite"),
        ("las", '"weight": Infinity', "1.0", "weight must be finite"),
        ("las", '"steps_done": NaN', "1.0", "steps_done must be finite"),
        ("las", '"arrival_time": -Infinity', "1.0", "arrival_time must be finite"),
        ("ftf", '"isolated_elapsed_time": NaN', "1.0",
         "isolated_elapsed_time must be finite"),
        ("hier:fair", '"name": ""', "NaN", "weight must be positive and finite"),
        ("hier:fair", '"name": ""', "Infinity", "weight must be positive and finite"),
    ], ids=["huge-num-steps", "huge-id", "nan-elapsed", "nan-weight",
            "inf-weight", "nan-steps-done", "inf-arrival", "nan-isolated",
            "nan-entity-weight", "inf-entity-weight"])
    def test_non_finite_number_exit_code(self, runner, tmp_path, policy,
                                         job_field, entity_weight, named):
        # Written as text: JSON has no NaN, Infinity or out-of-range
        # integers, but Python's reader accepts them.  Job 0's last key wins.
        thr, _ = write_three_job_instance(tmp_path)
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            '{"jobs": [{"id": 0, "num_steps": 1000, "entity_id": 0, %s}, '
            '{"id": 1, "num_steps": 1000, "entity_id": 0}, '
            '{"id": 2, "num_steps": 1000, "entity_id": 0}], '
            '"entities": [{"id": 0, "weight": %s}]}' % (job_field, entity_weight))
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", policy, "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and named in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("job_field, named", [
        ('"num_steps": 2.5', "num_steps must be a whole number >= 1, not 2.5"),
        ('"scale_factor": 1.5', "scale_factor must be a whole number >= 1, not 1.5"),
        ('"weight": true', "weight must be a number, not True"),
        ('"steps_done": "5"', "steps_done must be a number, not '5'"),
    ], ids=["fractional-steps", "fractional-scale", "boolean-weight", "text-steps-done"])
    def test_non_whole_number_exit_code(self, runner, tmp_path, job_field, named):
        thr, jobs = write_three_job_instance(tmp_path)
        jobs.write_text('[{"id": 0, %s}, {"id": 1}, {"id": 2}]' % job_field)
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", "las", "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and named in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("ids, named", [
        ((0,), "missing jobs [1, 2], repeated jobs []"),
        ((0, 0, 2), "missing jobs [1], repeated jobs [0]"),
        ((0, 1, 1, 2), "missing jobs [], repeated jobs [1]"),
        ((0, 1, 2, 7), "missing jobs [], repeated jobs [], jobs without rows [7]"),
    ], ids=["missing", "repeated-and-missing", "repeated", "without-rows"])
    @pytest.mark.parametrize("policy", ["las", "sjf", "ftf", "makespan"])
    def test_jobs_not_matching_matrix_exit_code(self, runner, tmp_path, ids,
                                                named, policy):
        thr, jobs = write_three_job_instance(tmp_path)
        jobs.write_text(json.dumps([{"id": i, "num_steps": 10} for i in ids]))
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", policy, "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and named in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("policy, jobs_doc, named", [
        ("hier:fair", {"jobs": [{"id": i, "num_steps": 10} for i in range(3)],
                       "entities": [{"id": 0}]},
         "jobs [0, 1, 2] have none or an unlisted one"),
        ("hier", {"jobs": [{"id": i, "num_steps": 10, "entity_id": i % 2 * 5}
                           for i in range(3)],
                  "entities": [{"id": 0}]},
         "jobs [1] have none or an unlisted one"),
        ("hier", {"jobs": [{"id": i, "num_steps": 10, "entity_id": 0}
                           for i in range(3)]},
         "needs entities, and none are listed"),
    ], ids=["no-entity-id", "unlisted-entity-id", "no-entities"])
    def test_hierarchical_without_entities_exit_code(self, runner, tmp_path,
                                                     policy, jobs_doc, named):
        thr, jobs = write_three_job_instance(tmp_path)
        jobs.write_text(json.dumps(jobs_doc))
        res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                   "--policy", policy, "--throughputs", str(thr),
                                   "--jobs", str(jobs)])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and named in res.output
        assert "Traceback" not in res.output

    def test_throughputs_not_a_mapping_exit_code(self, runner, tmp_path):
        thr, jobs = write_three_job_instance(tmp_path)
        doc = json.loads(thr.read_text())
        doc["rows"][0]["throughputs"] = [1.0]
        thr.write_text(json.dumps(doc))
        res = runner.invoke(main, ["--out", str(tmp_path), "solve", "--policy", "las",
                                   "--throughputs", str(thr), "--jobs", str(jobs)])
        assert res.exit_code == 2, res.output
        assert "error: bad value" in res.output and "not [1.0]" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_throughput_exit_code(self, runner, tmp_path, value):
        thr, jobs = write_three_job_instance(tmp_path)
        thr.write_text(thr.read_text().replace("4.0", value, 1))
        for policy in ("las", "fifo", "makespan"):
            res = runner.invoke(main, ["--out", str(tmp_path), "solve",
                                       "--policy", policy,
                                       "--throughputs", str(thr),
                                       "--jobs", str(jobs)])
            assert res.exit_code == 2, (policy, res.output)
            assert "error: bad value" in res.output and "must be finite" in res.output
            assert "Traceback" not in res.output


    def solve(self, runner, tmp_path, policy, T, job_docs):
        thr, jobs = tmp_path / "thr.json", tmp_path / "jobs.json"
        save_matrix(T, thr)
        jobs.write_text(json.dumps(job_docs))
        return runner.invoke(main, ["--out", str(tmp_path), "solve",
                                    "--policy", policy, "--throughputs", str(thr),
                                    "--jobs", str(jobs)])

    def test_finished_job_gets_no_rows(self, runner, tmp_path):
        thr, _ = write_three_job_instance(tmp_path)
        job_docs = [{"id": i, "num_steps": 1000} for i in range(3)]
        job_docs[1]["steps_done"] = 1000
        res = self.solve(runner, tmp_path, "las", load_matrix(thr),
                         job_docs)
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "allocation.json").read_text())
        assert [r["members"] for r in doc["allocation"]["rows"]] == [[0], [2]]
        assert doc["effective_throughputs"]["1"] == 0.0
        assert doc["effective_throughputs"]["0"] > 0.0

    def test_mixed_scale_factor_pair_exit_code(self, runner, tmp_path):
        cluster = make_cluster({"gpu": 4})
        rows = [JobCombination.of(0), JobCombination.of(1), JobCombination.of(0, 1)]
        T = ThroughputMatrix.from_cells(cluster, rows,
                                        [[(1.0,)], [(2.0,)], [(0.9, 1.8)]])
        job_docs = [{"id": 0, "num_steps": 10},
                    {"id": 1, "num_steps": 10, "scale_factor": 2}]
        res = self.solve(runner, tmp_path, "las+ss", T, job_docs)
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "pair 0+1" in res.output
        assert "Traceback" not in res.output
        # Without space sharing the pair row is dropped before it is read.
        assert self.solve(runner, tmp_path, "las", T, job_docs).exit_code == 0

    @pytest.mark.parametrize("policy", ["las", "makespan", "throughput"])
    def test_type_too_small_gets_no_time(self, runner, tmp_path, policy):
        # Both 4-worker jobs are marked feasible on the 2-worker K80.
        cluster = make_cluster({"V100": 4, "K80": 2})
        T = ThroughputMatrix.from_cells(
            cluster, [JobCombination.of(0), JobCombination.of(1)],
            [[(4.0,), (1.0,)], [(3.0,), (1.0,)]])
        res = self.solve(runner, tmp_path, policy, T,
                         [{"id": i, "num_steps": 1000, "scale_factor": 4}
                          for i in range(2)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "allocation.json").read_text())
        k80 = [key for key in doc["allocation"]["rows"][0]["fractions"]
               if key.startswith("K80")]
        assert k80 and all(row["fractions"][key] == 0.0
                           for row in doc["allocation"]["rows"] for key in k80)

    @pytest.mark.parametrize("policy", ["ftf", "las", "fifo"])
    def test_job_fitting_no_type_exit_code(self, runner, tmp_path, policy):
        cluster = make_cluster({"gpu": 4})
        T = ThroughputMatrix.from_cells(
            cluster, [JobCombination.of(0), JobCombination.of(1)],
            [[(1.0,)], [(8.0,)]])
        res = self.solve(runner, tmp_path, policy, T,
                         [{"id": 0, "num_steps": 10},
                          {"id": 1, "num_steps": 10, "scale_factor": 8}])
        assert res.exit_code == 3, res.output
        assert "error:" in res.output and "job 1" in res.output
        assert "Traceback" not in res.output


class TestSimulate:
    @pytest.mark.parametrize("content", [None, "not json\n", "{}\n",
                                         '{"header": []}\n'],
                             ids=["missing", "malformed", "no-header", "list-header"])
    def test_bad_trace_exit_code(self, runner, tmp_path, content):
        trace = tmp_path / "trace.jsonl"
        if content is not None:
            trace.write_text(content)
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "las", "--trace", str(trace)])
        assert res.exit_code == 4, res.output
        assert "trace.jsonl" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command", [
        ["generate-trace", "--mode", "static", "--jobs", "3"],
        ["simulate", "--policy", "las", "--mode", "static", "--jobs", "2"],
    ], ids=["generate-trace", "simulate"])
    @pytest.mark.parametrize("content", [None, '{"templates": [5]}'],
                             ids=["missing", "non-object-template"])
    def test_bad_catalog_exit_code(self, runner, tmp_path, command, content):
        catalog = tmp_path / "catalog.json"
        if content is not None:
            catalog.write_text(content)
        res = runner.invoke(main, ["--out", str(tmp_path), *command,
                                   "--catalog", str(catalog)])
        assert res.exit_code == 4, res.output
        assert f"error: {catalog}" in res.output
        assert "Traceback" not in res.output

    def test_water_filling_flag_without_effect_exit_code(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "makespan+wf", "--jobs", "2",
                                   "--lambda", "0.01"])
        assert res.exit_code == 2, res.output

    def test_hierarchical_policy_without_entities_exit_code(self, runner,
                                                            tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "hier:fair", "--jobs", "3",
                                   "--lambda", "0.01"])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "entities" in res.output
        assert "Traceback" not in res.output
        assert list(tmp_path.glob("metrics_*")) == []

    def test_summary_has_mean_and_stddev(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "las", "--jobs", "8",
                                   "--lambda", "0.002", "--seeds", "1,2,3"])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "summary.json").read_text())
        row = doc["rows"][0]
        assert "mean_steady_jct_s" in row and "stddev_steady_jct_s" in row
        assert row["seeds"] == 3
        assert row["unfinished_jobs"] == 0
        assert "warning:" not in res.stderr

    def test_round_limit_warns_and_reports_unfinished(self, runner, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(hetsched.cli, "SimConfig",
                            functools.partial(SimConfig, max_rounds=2))
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "las", "--jobs", "8",
                                   "--mode", "static", "--seeds", "1,2"])
        assert res.exit_code == 0, res.output
        row = json.loads((tmp_path / "summary.json").read_text())["rows"][0]
        assert row["unfinished_jobs"] == 16  # 8 per seed, summed over seeds
        assert "warning: 16 job(s) unfinished" in res.stderr

    def test_iteration_limit_exit_code(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(hetsched.lp, "MAX_ITER_BASE", 0)
        monkeypatch.setattr(hetsched.lp, "MAX_ITER_PER_DIM", 0)
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "las", "--jobs", "3",
                                   "--lambda", "0.01"])
        assert res.exit_code == 3, res.output
        assert "error:" in res.output and "iteration limit" in res.output
        assert "Traceback" not in res.output

    def test_cluster_missing_key_exit_code(self, runner, tmp_path):
        cluster = tmp_path / "cluster.json"
        cluster.write_text(json.dumps({"types": [{"name": "x"}]}))
        res = runner.invoke(main, ["--out", str(tmp_path), "--cluster",
                                   str(cluster), "simulate", "--policy", "las",
                                   "--jobs", "2", "--lambda", "0.01"])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "'num_workers'" in res.output
        assert "Traceback" not in res.output

    def test_cluster_huge_number_exit_code(self, runner, tmp_path):
        cluster = tmp_path / "cluster.json"
        cluster.write_text('{"types": [{"name": "V100", "num_workers": 1e400}]}')
        res = runner.invoke(main, ["--out", str(tmp_path), "--cluster",
                                   str(cluster), "simulate", "--policy", "las",
                                   "--jobs", "2", "--lambda", "0.01"])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "bad value in the cluster spec" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("field, named", [
        ("weight", "weight must be finite"),
        ("arrival_time", "arrival_time must be finite"),
    ])
    def test_non_finite_trace_entry_exit_code(self, runner, tmp_path, field, named):
        trace = tmp_path / "trace.jsonl"
        Trace([TraceEntry(0.0, "model-00", 10),
               dataclasses.replace(TraceEntry(0.0, "model-01", 10),
                                   **{field: float("nan")})],
              "static", 0).save(trace)
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "las", "--trace", str(trace)])
        assert res.exit_code == 2, res.output
        assert f"error: trace entry 2: job 1: {named}" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("field, value, named", [
        ("num_steps", 2.5, "num_steps must be a whole number >= 1, not 2.5"),
        ("num_steps", float("inf"), "num_steps must be a whole number >= 1"),
        ("num_steps", float("nan"), "num_steps must be a whole number >= 1"),
        ("scale_factor", 1.5, "scale_factor must be a whole number >= 1, not 1.5"),
        ("num_steps", "10", "num_steps must be a number, not '10'"),
        ("arrival_time", "5", "arrival_time must be a number, not '5'"),
        ("slo_seconds", "5", "slo_seconds must be a number, not '5'"),
        ("weight", "2", "weight must be a number, not '2'"),
        ("scale_factor", "1", "scale_factor must be a number, not '1'"),
        ("entity_id", [0], "entity_id must be a number, not [0]"),
        ("entity_id", 0.5, "entity_id must be a whole number, not 0.5"),
        ("num_steps", True, "num_steps must be a number, not True"),
        ("scale_factor", True, "scale_factor must be a number, not True"),
    ], ids=["fractional-steps", "infinite-steps", "nan-steps", "fractional-scale",
            "text-steps", "text-arrival", "text-slo", "text-weight", "text-scale",
            "list-entity", "fractional-entity", "boolean-steps", "boolean-scale"])
    def test_non_whole_trace_entry_exit_code(self, runner, tmp_path, field, value,
                                             named):
        # JSON's 1e400 reads as infinity.  Entity ids are read only by the
        # hierarchical policy.
        trace = tmp_path / "trace.jsonl"
        Trace([TraceEntry(0.0, "model-00", 10, entity_id=0),
               dataclasses.replace(TraceEntry(0.0, "model-01", 10), **{field: value})],
              "static", 0, [Entity(0)]).save(trace)
        policy = "hier:fair" if field == "entity_id" else "las"
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", policy, "--trace", str(trace)])
        assert res.exit_code == 2, res.output
        assert f"error: trace entry 2: job 1: {named}" in res.output
        assert "Traceback" not in res.output
        assert list(tmp_path.glob("metrics_*")) == []

    @pytest.mark.parametrize("weight, named", [
        ("true", "weight must be a number, not True"),
        ('"2"', "weight must be a number, not '2'"),
        ("-1", "weight must be positive and finite"),
    ], ids=["boolean", "text", "negative"])
    def test_bad_entity_weight_in_trace_exit_code(self, runner, tmp_path, weight,
                                                  named):
        trace = tmp_path / "trace.jsonl"
        Trace([TraceEntry(0.0, "model-00", 10, entity_id=0)], "static", 0,
              [Entity(0)]).save(trace)
        lines = trace.read_text().splitlines()
        lines[0] = lines[0].replace('"weight": 1.0', f'"weight": {weight}')
        trace.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "hier:fair", "--trace", str(trace)])
        assert res.exit_code == 2, res.output
        assert f"error: {trace}: entity 0: {named}" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("field, value, named", [
        ("policy", "lottery", "entity 0: unknown policy 'lottery'"),
        ("id", 0.5, "entity id must be a whole number, not 0.5"),
    ], ids=["unknown-policy", "fractional-id"])
    def test_bad_entity_in_trace_exit_code(self, runner, tmp_path, field, value,
                                           named):
        # Both are usage errors, as `solve` reports them, naming the value.
        trace = tmp_path / "trace.jsonl"
        Trace([TraceEntry(0.0, "model-00", 10, entity_id=0)], "static", 0,
              [Entity(0)]).save(trace)
        header, *entries = trace.read_text().splitlines()
        doc = json.loads(header)
        doc["header"]["entities"][0][field] = value
        trace.write_text("\n".join([json.dumps(doc), *entries]) + "\n")
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "hier:fair", "--trace", str(trace)])
        assert res.exit_code == 2, res.output
        assert f"error: {trace}: {named}" in res.output
        assert "Traceback" not in res.output

    def test_unknown_template_exit_code(self, runner, tmp_path):
        trace = tmp_path / "trace.jsonl"
        Trace([TraceEntry(0.0, "nope", 10)], "static", 0).save(trace)
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "las", "--trace", str(trace)])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "nope" in res.output
        assert "Traceback" not in res.output

    def test_entry_a_job_would_reject_exit_code(self, runner, tmp_path):
        trace = tmp_path / "trace.jsonl"
        Trace([TraceEntry(0.0, "model-00", 10),
               TraceEntry(0.0, "model-01", 10, slo_seconds=0.0)],
              "static", 0).save(trace)
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "las", "--trace", str(trace)])
        assert res.exit_code == 2, res.output
        assert "error: trace entry 2: job 1: slo_seconds must be positive" \
            in res.output
        assert "Traceback" not in res.output

    def test_oversized_job_exit_code(self, runner, tmp_path):
        cluster = tmp_path / "cluster.json"
        cluster.write_text(json.dumps({"types": [
            {"name": "V100", "num_workers": 4}, {"name": "K80", "num_workers": 6}]}))
        trace = tmp_path / "trace.jsonl"
        Trace([TraceEntry(0.0, "model-00", 10),
               TraceEntry(1.0, "model-01", 10, scale_factor=8)],
              "static", 0).save(trace)
        res = runner.invoke(main, ["--out", str(tmp_path), "--cluster",
                                   str(cluster), "simulate", "--policy",
                                   "makespan", "--trace", str(trace)])
        assert res.exit_code == 2, res.output
        assert "error: job 1 requests 8 workers" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("global_args, sim_args, named", [
        (["--round-duration", "0"], [], "round duration"),
        (["--round-duration", "-5"], [], "round duration"),
        (["--round-duration", "nan"], [], "round duration"),
        ([], ["--recompute-every", "0"], "recompute interval"),
        ([], ["--recompute-every", "-2"], "recompute interval"),
        ([], ["--references", "-1"], "--references must lie in [0, 26]"),
        ([], ["--references", "1"], "at least two reference templates"),
        ([], ["--references", "8", "--profile-fraction", "nan"],
         "profile fraction"),
    ], ids=["duration-zero", "duration-negative", "duration-nan",
            "recompute-zero", "recompute-negative", "references-negative",
            "references-one", "profile-fraction-nan"])
    def test_bad_numeric_option_exit_code(self, runner, tmp_path, global_args,
                                          sim_args, named):
        res = runner.invoke(main, ["--out", str(tmp_path), *global_args,
                                   "simulate", "--policy", "las", "--jobs", "2",
                                   "--lambda", "0.01", *sim_args])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and named in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("args, named", [
        (["--seed", "-3", *SIMULATE, "--lambda", "0.01"], "'--seed'"),
        (["--seed", "-3", *GENERATE], "'--seed'"),
        (["simulate", "--policy", "las+ss", "--trace", "TRACE", "--seeds", "-1",
          "--references", "8"], "error: --seeds takes non-negative seeds, not -1"),
        (SIMULATE + ["--lambda", "0.01", "--seeds", "3,1,3"], "error: --seeds repeats 3"),
        (SIMULATE + ["--lambda", "0.01,0.02,0.010"], "error: --lambda repeats 0.01"),
        (["simulate", "--policy", "las", "--trace", "TRACE", "--jobs", "2"],
         "--jobs sizes generated traces; drop --trace"),
        (["simulate", "--policy", "las", "--trace", "TRACE", "--mode", "continuous"],
         "--mode shapes generated traces; drop --trace"),
        (SIMULATE + ["--lambda", "0.01", "--profile-fraction", "0.5"],
         "--profile-fraction sets the estimator's measurements; add --references"),
        (SIMULATE + ["--lambda", "0.01", "--references", "8"],
         "error: the estimator only sets pair rates"),
    ], ids=["seed-negative", "seed-negative-generate", "seeds-negative",
            "seeds-repeated", "lambda-repeated", "jobs-with-trace",
            "mode-with-trace", "profile-fraction-alone", "references-without-ss"])
    def test_rejected_before_any_run(self, runner, tmp_path, args, named):
        # Each would crash, overwrite an output, or set something no run reads.
        trace = tmp_path / "given.jsonl"
        Trace([TraceEntry(0.0, "model-00", 10), TraceEntry(0.0, "model-01", 10)],
              "static", 0).save(trace)
        args = [str(trace) if a == "TRACE" else a for a in args]
        res = runner.invoke(main, ["--out", str(tmp_path), *args])
        assert res.exit_code == 2, res.output
        assert named in res.output and "Traceback" not in res.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["given.jsonl"]

    def test_baseline_flag_adds_rows(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "las", "--jobs", "6",
                                   "--lambda", "0.002", "--seeds", "1",
                                   "--baseline", "agnostic"])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert {r["variant"] for r in doc["rows"]} == {"aware", "agnostic"}

    def test_lambda_sweep_rows(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "las", "--jobs", "5",
                                   "--lambda", "0.002,0.004", "--seeds", "1"])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert [r["lambda"] for r in doc["rows"]] == [0.002, 0.004]

    def test_manifest_hashes_verify(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "simulate",
                                   "--policy", "las", "--jobs", "5",
                                   "--lambda", "0.002", "--seeds", "1"])
        assert res.exit_code == 0, res.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"]
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest, name

    def test_identical_seeds_byte_identical_metrics(self, runner, tmp_path):
        args = ["simulate", "--policy", "las", "--jobs", "6",
                "--lambda", "0.003", "--seeds", "7"]
        res1 = runner.invoke(main, ["--out", str(tmp_path / "a")] + args)
        res2 = runner.invoke(main, ["--out", str(tmp_path / "b")] + args)
        assert res1.exit_code == 0 and res2.exit_code == 0
        for name in ("metrics_aware_seed7_lam0.003.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestEstimate:
    def test_self_match_and_round_trip(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 0.9, size=6)
        b = rng.uniform(0.1, 0.9, size=6)
        R = np.clip(1 - np.outer(a, b), 0.05, 1.0)
        names = [f"ref-{i}" for i in range(6)]
        refs = tmp_path / "refs.json"
        refs.write_text(json.dumps({"names": names, "matrix": R.tolist()}))
        meas = tmp_path / "meas.json"
        meas.write_text(json.dumps({
            "newjob": {names[0]: R[2][0], names[3]: R[2][3], names[5]: R[2][5]}}))
        res = runner.invoke(main, ["--out", str(tmp_path), "estimate",
                                   "--references", str(refs),
                                   "--measurements", str(meas)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "estimates.json").read_text())
        assert doc["matches"]["newjob"] == "ref-2"
        assert doc["hyperparameters"]["rank"] == 3

    def _estimate(self, runner, tmp_path, refs_doc, meas_doc):
        refs = tmp_path / "refs.json"
        refs.write_text(refs_doc if isinstance(refs_doc, str) else json.dumps(refs_doc))
        meas = tmp_path / "meas.json"
        meas.write_text(json.dumps(meas_doc))
        return runner.invoke(main, ["--out", str(tmp_path), "estimate",
                                    "--references", str(refs),
                                    "--measurements", str(meas)])

    @pytest.mark.parametrize("option", [("--reg", "0"), ("--reg", "nan"),
                                        ("--reg", "inf"), ("--reg", "-1"),
                                        ("--iters", "0"), ("--iters", "-3"),
                                        ("--rank", "0")],
                             ids=["reg-zero", "reg-nan", "reg-inf", "reg-negative",
                                  "iters-zero", "iters-negative", "rank-zero"])
    def test_bad_hyperparameter_exit_code(self, runner, tmp_path, option):
        refs = tmp_path / "refs.json"
        refs.write_text(json.dumps({"names": ["r0", "r1", "r2"],
                                    "matrix": np.full((3, 3), 0.5).tolist()}))
        meas = tmp_path / "meas.json"
        meas.write_text(json.dumps({"newjob": {"r0": 0.4, "r2": 0.6}}))
        res = runner.invoke(main, ["--out", str(tmp_path), "estimate",
                                   "--references", str(refs),
                                   "--measurements", str(meas), *option])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "Traceback" not in res.output
        assert not (tmp_path / "estimates.json").exists()

    def test_malformed_json_exit_code(self, runner, tmp_path):
        res = self._estimate(runner, tmp_path, '{"names": ["r0"', {})
        assert res.exit_code == 4

    @pytest.mark.parametrize("row, named", [
        ('{"r0": "abc", "r1": 0.5, "r2": 0.6}', "r0 must be a finite number, not 'abc'"),
        ('{"r0": 0.4, "r1": null, "r2": 0.6}', "r1 must be a finite number, not None"),
        ('{"r0": 0.4, "r1": true, "r2": 0.6}', "r1 must be a finite number, not True"),
        ('{"r0": 0.4, "r1": 0.5, "r2": 1e400}', "r2 must be a finite number, not inf"),
        ('{"r0": 0.4, "r1": 0.5, "r2": NaN}', "r2 must be a finite number, not nan"),
        ("[0.4, 0.5, 0.6]", "measurements must map reference names to numbers"),
    ], ids=["text", "null", "boolean", "overflow", "nan", "list"])
    def test_bad_measurement_exit_code(self, runner, tmp_path, row, named):
        refs = tmp_path / "refs.json"
        refs.write_text(json.dumps({"names": ["r0", "r1", "r2"],
                                    "matrix": np.full((3, 3), 0.5).tolist()}))
        meas = tmp_path / "meas.json"
        meas.write_text(f'{{"newjob": {row}}}')
        res = runner.invoke(main, ["--out", str(tmp_path), "estimate",
                                   "--references", str(refs),
                                   "--measurements", str(meas)])
        assert res.exit_code == 2, res.output
        assert f"error: newjob: {named}" in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "estimates.json").exists()

    def test_non_finite_reference_throughput_exit_code(self, runner, tmp_path):
        cell = lambda *v: {"g": list(v)}
        refs = {"types": [{"name": "g", "num_workers": 1}],
                "rows": [{"members": [0], "throughputs": cell(1.0)},
                         {"members": [1], "throughputs": cell(1.0)},
                         {"members": [0, 1], "throughputs": cell(0.5, float("nan"))}]}
        res = self._estimate(runner, tmp_path, refs, {"newjob": {"job-0": 0.5}})
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "must be finite" in res.output
        assert "Traceback" not in res.output

    def test_unknown_reference_exit_code(self, runner, tmp_path):
        res = self._estimate(runner, tmp_path,
                             {"names": ["r0", "r1"], "matrix": np.eye(2).tolist()},
                             {"newjob": {"r0": 0.5, "r9": 0.4}})
        assert res.exit_code == 2
        assert "'r9'" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("refs_doc, named", [
        ({"names": 5, "matrix": 1}, "TypeError"),
        ({"types": [{"name": "g", "num_workers": 1}],
          "rows": [{"members": [0], "throughputs": [1.0]}]}, "not [1.0]"),
    ], ids=["non-list-names", "throughputs-not-a-mapping"])
    def test_bad_reference_set_type_exit_code(self, runner, tmp_path, refs_doc, named):
        res = self._estimate(runner, tmp_path, refs_doc, {"newjob": {"r0": 0.5}})
        assert res.exit_code == 2, res.output
        assert "bad reference set" in res.output and named in res.output
        assert "Traceback" not in res.output

    def test_measurements_not_a_mapping_exit_code(self, runner, tmp_path):
        res = self._estimate(runner, tmp_path,
                             {"names": ["r0", "r1"], "matrix": np.eye(2).tolist()}, [5])
        assert res.exit_code == 2, res.output
        assert "measurements must map reference names to numbers" in res.output
        assert "Traceback" not in res.output

    def test_missing_names_exit_code(self, runner, tmp_path):
        res = self._estimate(runner, tmp_path, {"matrix": np.eye(2).tolist()},
                             {"newjob": {"r0": 0.5}})
        assert res.exit_code == 2
        assert "'names'" in res.output

    def test_rows_complete_together_as_each_alone(self, runner, tmp_path):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.1, 0.9, size=8)
        b = rng.uniform(0.1, 0.9, size=8)
        names = [f"ref-{i}" for i in range(8)]
        refs = {"names": names, "matrix": np.clip(1 - np.outer(a, b), 0.05, 1.0).tolist()}
        meas = {}
        for k, count in enumerate((2, 3, 5, 8)):
            picks = sorted(rng.choice(8, size=count, replace=False).tolist())
            meas[f"job-{k}"] = {names[i]: float(rng.uniform(0.1, 1.1)) for i in picks}

        def estimate(out, rows):
            out.mkdir()
            (out / "refs.json").write_text(json.dumps(refs))
            (out / "meas.json").write_text(json.dumps(rows))
            res = runner.invoke(main, ["--seed", "3", "--out", str(out), "estimate",
                                       "--references", str(out / "refs.json"),
                                       "--measurements", str(out / "meas.json")])
            assert res.exit_code == 0, res.output
            return res.output, (out / "estimates.json").read_text()

        stdout, estimates = estimate(tmp_path / "all", meas)
        want = {"matches": {}, "completed_rows": {}}
        for name in meas:
            _, alone = estimate(tmp_path / name, {name: meas[name]})
            doc = json.loads(alone)
            want["hyperparameters"] = doc["hyperparameters"]
            want["matches"].update(doc["matches"])
            want["completed_rows"].update(doc["completed_rows"])
        assert estimates == json.dumps(want, indent=2, sort_keys=True) + "\n"
        assert stdout == json.dumps(want["matches"], indent=2, sort_keys=True) + "\n"
        assert len(set(want["matches"].values())) > 1

    def test_under_observed_row_named_before_any_completion(self, runner, tmp_path,
                                                            monkeypatch):
        import hetsched.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("completed before every row was validated")

        monkeypatch.setattr(cli, "fingerprint_and_match", unreachable)
        res = self._estimate(runner, tmp_path,
                             {"names": ["r0", "r1", "r2"], "matrix": np.eye(3).tolist()},
                             {"a": {"r0": 0.5, "r1": 0.4}, "b": {"r2": 0.5},
                              "c": {"r0": 0.5, "r2": 0.4}})
        assert res.exit_code == 3, res.output
        assert "b: need at least 2" in res.output and "Traceback" not in res.output

    def test_under_observed_row_errors(self, runner, tmp_path):
        names = ["r0", "r1", "r2"]
        refs = tmp_path / "refs.json"
        refs.write_text(json.dumps({"names": names,
                                    "matrix": np.eye(3).tolist()}))
        meas = tmp_path / "meas.json"
        meas.write_text(json.dumps({"newjob": {"r0": 0.5}}))
        res = runner.invoke(main, ["--out", str(tmp_path), "estimate",
                                   "--references", str(refs),
                                   "--measurements", str(meas)])
        assert res.exit_code == 3
