"""hetsched simulator benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload las-reset --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all

Each workload runs in its own single-threaded process.  A run sets up the
workload (timed in fresh interpreters, see setup_probe.py), then simulates
the workload's traces again and again until --seconds have passed, then
simulates them once more with every policy solve checked (checks.py).
With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of traced passes (tracing.py),
and the spans go to bench/out/ as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pinned before numpy is first imported: more BLAS threads burn more CPU for
# the same wall time on a small machine, and they change simulated outcomes.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
NAMES = ("las-reset", "ss-estimated", "hier-wf", "makespan-static")

END_TO_END_UNITS = {"sim_s": "s", "solve_s": "s", "decision_ms_p50": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB", "avg_jct_h": "h",
                    "makespan_h": "h"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _environment() -> dict:
    from importlib.metadata import version

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "pin": {k: os.environ.get(k) for k in BLAS_PIN}}


def _setup_seconds(name: str, seed: int, nominal: float) -> list:
    """Reference-scaled set-up times, one per fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        setup, ref = map(float, out.stdout.split())
        samples.append(setup * nominal / ref)
    return samples


def _peak_rss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """One simulation of every trace of the workload: per trace, the
    Simulation.run wall time and the wall time of each policy solve, and
    the reference time measured before each trace and after the last."""

    def __init__(self):
        self.sim_times = []
        self.solve_times = []  # one list per trace, in solve order
        self.ref_times = []
        self.reports = []

    def scales(self, nominal: float) -> list:
        """Per trace, nominal over the mean of the references around it."""
        r = self.ref_times
        return [nominal / (0.5 * (a + b)) for a, b in zip(r, r[1:])]

    def outcome(self) -> list:
        return [(r.makespan, [(j.job_id, j.completion) for j in r.records])
                for r in self.reports]


def _simulate(p: Pass, configs, trace_list, templates, ref=None,
              on_solve=None) -> Pass:
    """Simulate every trace once into p, timing ref between traces.
    on_solve(jobs, T, result) sees each solve after it is timed, outside
    the solve timer."""
    import hetsched.simulator as simulator
    from hetsched.simulator import Simulation

    inner = simulator.solve_policy

    def timed(spec, jobs, cluster, T, **kwargs):
        state = {j.id: (j.remaining_steps, j.scale_factor, j.weight)
                 for j in jobs} if on_solve else None
        t0 = time.perf_counter()
        try:
            result = inner(spec, jobs, cluster, T, **kwargs)
        finally:
            p.solve_times[-1].append(time.perf_counter() - t0)
        if on_solve:
            on_solve(state, T, result)
        return result

    simulator.solve_policy = timed
    try:
        for cfg, trace in zip(configs, trace_list):
            if ref is not None:
                p.ref_times.append(ref.seconds())
            sim = Simulation(cfg, trace, templates)
            p.solve_times.append([])
            t0 = time.perf_counter()
            report = sim.run()
            p.sim_times.append(time.perf_counter() - t0)
            p.reports.append(report)
        if ref is not None:
            p.ref_times.append(ref.seconds())
    finally:
        simulator.solve_policy = inner
    return p


def _timings(passes: list, nominal: float) -> dict:
    """Reference-scaled timings: per trace (and per solve) the median across
    passes, so a slow stretch during one trace moves only that trace."""
    def med_sum(per_pass):
        return sum(_median(col) for col in zip(*per_pass))

    scales = [p.scales(nominal) for p in passes]
    sims = [[t * f for t, f in zip(p.sim_times, fs)]
            for p, fs in zip(passes, scales)]
    solves = [[[t * f for t in ts] for ts, f in zip(p.solve_times, fs)]
              for p, fs in zip(passes, scales)]
    flat = [[t for ts in per_trace for t in ts] for per_trace in solves]
    return {
        "sim_s": med_sum(sims),
        "solve_s": med_sum([[sum(ts) for ts in per_trace]
                            for per_trace in solves]),
        "decision_ms_p50": 1e3 * _median([_median(col) for col in zip(*flat)]),
    }


def _raw_timings(passes: list) -> dict:
    return {"sim_s": _median([sum(p.sim_times) for p in passes]),
            "solve_s": _median([sum(map(sum, p.solve_times)) for p in passes]),
            "ref_ms": 1e3 * _median([r for p in passes for r in p.ref_times])}


def _check(wl, configs, trace_list, templates, expected: Pass):
    from checks import Checker
    from hetsched.policies import parse_policy

    spec = parse_policy(wl.policy)
    checker = Checker(spec.kind.value, spec.space_sharing)

    p = _simulate(Pass(), configs, trace_list, templates,
                  on_solve=checker.check_solve)
    by_name = {t.name: t for t in templates}
    for k, (cfg, trace, report) in enumerate(zip(configs, trace_list,
                                                 p.reports)):
        checker.check_report(k, trace, by_name, cfg.cluster, report,
                             cfg.max_rounds)
    if p.outcome() != expected.outcome():
        checker.fail("the checked pass scheduled differently from the "
                     "timed passes")
    return checker


def _median(values):
    return float(statistics.median(values))


def run_workload(args) -> int:
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    env = _environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    from reference import NOMINAL_S, Reference
    setup = _setup_seconds(wl.name, args.seed, NOMINAL_S)

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        with tracer.installed():
            templates, trace_list, configs, _ = workloads.set_up(wl, args.seed)
        setup_spans = tracer.mark()
    else:
        templates, trace_list, configs, _ = workloads.set_up(wl, args.seed)

    ref = Reference()
    plain, traced, segments = [], [], []
    start = time.perf_counter()
    try:
        while True:
            plain.append(Pass())
            _simulate(plain[-1], configs, trace_list, templates, ref)
            if tracer is not None:
                lo = tracer.mark()
                traced.append(Pass())
                with tracer.installed():
                    _simulate(traced[-1], configs, trace_list, templates,
                              ref)
                segments.append((lo, tracer.mark()))
            if time.perf_counter() - start >= args.seconds:
                break
    except Exception:  # a solve that raises ends the run
        traceback.print_exc()
        failed = 1
    else:
        failed = 0
    peak_rss = _peak_rss_mib()
    passes = plain + traced
    attempted = sum(len(ts) for p in passes for ts in p.solve_times)
    if failed:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1

    checker = _check(wl, configs, trace_list, templates, plain[0])
    for p in passes[1:]:
        if p.outcome() != plain[0].outcome():
            checker.fail("two passes over the same traces scheduled differently")
    for msg in checker.failures:
        print(f"check failed: {msg}", file=sys.stderr)

    solves = sum(map(len, plain[0].solve_times))
    reports = plain[0].reports
    jcts = [r.jct for rep in reports for r in rep.records]
    print(f"workload {wl.name} seed {args.seed}: {wl.traces} traces x "
          f"{wl.jobs} jobs, {len(plain)} passes, {solves} solves per pass, "
          f"{checker.solves_checked} solves checked, setup samples "
          + " ".join(f"{s:.3f}" for s in setup))
    print("unscaled " + json.dumps(_raw_timings(plain)))
    if tracer is None:
        values = {
            **_timings(plain, NOMINAL_S),
            "setup_s": _median(setup),
            "peak_rss_mb": peak_rss,
            "avg_jct_h": sum(jcts) / len(jcts) / 3600.0,
            "makespan_h": sum(r.makespan for r in reports) / len(reports) / 3600.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        per_pass = [layer_metrics(tracer.spans, lo, hi) for lo, hi in segments]
        setup_layer = layer_metrics(tracer.spans, 0, setup_spans)
        values = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
        for k in values:
            if k.startswith("traces."):
                values[k] = setup_layer[k]
        values["trace.overhead_s"] = (_timings(traced, NOMINAL_S)["sim_s"]
                                      - _timings(plain, NOMINAL_S)["sim_s"])
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in values.items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl",
                           {"workload": wl.name, "seed": args.seed,
                            "env": env, "passes": segments})
    for k, m in metrics.items():
        print(f"  {k:36s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"correct": not checker.failures, "attempted": attempted,
                      "failed": 0, "metrics": metrics}), flush=True)
    return 1 if checker.failures else 0


def _layer_unit(name: str) -> str:
    if "ms_p" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        doc = json.loads(lines[-1])
        correct &= doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        metrics.update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "hetsched" / "__init__.py").is_file():
        print(f"error: no hetsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
