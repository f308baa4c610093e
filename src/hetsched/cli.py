"""Command-line front end: trace generation, one-shot policy solves,
simulation sweeps, and throughput estimation.

Exit codes: 0 success, 2 usage error, 3 infeasible model or solver
failure, 4 I/O error.
All emitted files are listed (with content hashes) in a run manifest;
metrics files contain only simulated quantities so identical seeds produce
byte-identical output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .cluster import ClusterSpec, make_cluster
from .estimator import (DEFAULT_ITERS, DEFAULT_RANK, DEFAULT_REG, MIN_OBSERVED,
                        CompletionError, ReferenceSet, fingerprint_and_match)
from .jobs import Entity, EntityValueError, Job, is_number, is_whole
from .lp import IterationLimitError
from .matrices import MixedPairError, ThroughputMatrix, effective_throughput
from . import lp
from .mechanism import write_round_log
from .policies import (EntityError, JobListError, PolicyError, parse_policy,
                       solve_policy)
from .simulator import STEADY_STATE_WINDOW, EstimatorConfig, SimConfig, Simulation
from .traces import Trace, generate_trace, load_catalog

EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4
# The exit code of each library error that ends a solve; the first
# matching type wins.
ERROR_EXITS = ((EntityError, EXIT_USAGE), (JobListError, EXIT_USAGE),
               (MixedPairError, EXIT_USAGE), (PolicyError, EXIT_INFEASIBLE),
               (IterationLimitError, EXIT_INFEASIBLE))

# The keys a jobs file's jobs and entities may hold besides "id": a job's
# are its field names, and an entity's map to the field each sets.
JOB_KEYS = [f.name for f in fields(Job) if f.name != "id"]
ENTITY_KEYS = {"weight": "weight", "policy": "internal_policy"}

DEFAULT_COSTS = {"V100": 3.0, "P100": 1.5, "K80": 0.5}
DEFAULT_SERVERS = {"V100": 4, "P100": 4, "K80": 8}
# Simulated-scale default and the smaller physical-scale preset (which pairs
# with a 20-minute round).
CLUSTER_PRESETS = {
    "simulated": ({"V100": 36, "P100": 36, "K80": 36}, 360.0),
    "physical": ({"V100": 8, "P100": 16, "K80": 24}, 1200.0),
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


class Manifest:
    def __init__(self, out_dir: Path, command: str, config: dict, seeds):
        self.out_dir = out_dir
        self.doc = {"tool": "hetsched", "version": __version__,
                    "command": command, "config": config,
                    "seeds": list(seeds), "inputs": {}, "outputs": {},
                    "timings_seconds": {}}

    def add_input(self, label: str, path):
        self.doc["inputs"][label] = {"path": str(path), "sha256": _sha256(Path(path))}

    def add_output(self, path: Path):
        self.doc["outputs"][path.name] = _sha256(path)

    def add_timing(self, label: str, seconds: float):
        self.doc["timings_seconds"][label] = seconds

    def write(self) -> Path:
        path = self.out_dir / "manifest.json"
        _dump_json(path, self.doc)
        return path


def _dump_json(path: Path, doc: dict):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _fail(code: int, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _exit_on_error(prefix: str = ""):
    """End the command with the ERROR_EXITS code of a library error raised
    inside, printing `prefix` and its message."""
    try:
        yield
    except tuple(t for t, _ in ERROR_EXITS) as e:
        _fail(next(code for t, code in ERROR_EXITS if isinstance(e, t)), f"{prefix}{e}")


def _json_file(path):
    with open(path) as f:
        return json.load(f)


def _read(path, load=_json_file):
    """Return load(path), by default the file's JSON; an unreadable or
    malformed file exits with EXIT_IO, and an entity in it with a bad value
    with EXIT_USAGE."""
    try:
        return load(path)
    except EntityValueError as e:
        _fail(EXIT_USAGE, f"{path}: {e}")
    except (OSError, ValueError, LookupError, TypeError) as e:
        _fail(EXIT_IO, f"{path}: {e}")


def _id(doc) -> int:
    """The whole-number "id" of a job's JSON object."""
    v = doc["id"]
    if not is_whole(v):
        raise ValueError(f"id must be a whole number, not {v!r}")
    return int(v)


def _numbers(option: str, text: str, convert=float) -> list:
    """An option's comma-separated numbers; a bad one exits with EXIT_USAGE."""
    try:
        return [convert(x) for x in text.split(",")]
    except ValueError:
        _fail(EXIT_USAGE, f"{option} takes comma-separated numbers, not {text!r}")


def _once_each(option: str, names: list):
    """Exit with EXIT_USAGE when two values of a sweep share the name their
    output files carry, since the later run would overwrite the earlier."""
    repeated = [name for k, name in enumerate(names) if name in names[:k]]
    if repeated:
        _fail(EXIT_USAGE, f"{option} repeats {repeated[0]}; each value names "
                          "its own output files")


def _load_cluster(cluster_file, preset_counts) -> ClusterSpec:
    if cluster_file is None:
        return make_cluster(preset_counts, costs=DEFAULT_COSTS,
                            workers_per_server=DEFAULT_SERVERS)
    doc = _read(cluster_file)
    try:
        return ClusterSpec.from_json(doc)
    except KeyError as e:
        _fail(EXIT_USAGE, f"{cluster_file}: missing key {e} in the cluster spec")
    except (TypeError, ValueError, OverflowError) as e:
        _fail(EXIT_USAGE, f"{cluster_file}: bad value in the cluster spec: {e}")


@click.group()
@click.option("--seed", default=0, type=click.IntRange(min=0), show_default=True,
              help="Base RNG seed.")
@click.option("--round-duration", default=None, type=float,
              help="Scheduling round length in seconds (default: preset's).")
@click.option("--cluster", "cluster_file", type=click.Path(), default=None,
              help="Cluster spec JSON (overrides --preset).")
@click.option("--preset", type=click.Choice(sorted(CLUSTER_PRESETS)),
              default="simulated", show_default=True,
              help="Named cluster size / round-duration preset.")
@click.option("--out", "out_dir", type=click.Path(), default="out",
              show_default=True, help="Output directory.")
@click.option("--dump-lp", is_flag=True,
              help="Print every LP before solving it.")
@click.pass_context
def main(ctx, seed, round_duration, cluster_file, preset, out_dir, dump_lp):
    """Heterogeneity-aware cluster scheduling toolkit."""
    ctx.ensure_object(dict)
    preset_counts, preset_round = CLUSTER_PRESETS[preset]
    ctx.obj.update(seed=seed,
                   round_duration=round_duration if round_duration is not None
                   else preset_round,
                   cluster_file=cluster_file, preset_counts=preset_counts,
                   out_dir=Path(out_dir), dump_lp=dump_lp)
    if dump_lp:
        previous = lp.debug_sink
        lp.debug_sink = lambda text: click.echo(text, err=True)
        ctx.call_on_close(lambda: setattr(lp, "debug_sink", previous))


@main.command("generate-trace")
@click.option("--mode", type=click.Choice(["static", "continuous"]), required=True)
@click.option("--jobs", "num_jobs", type=int, required=True)
@click.option("--lambda", "lambda_rate", type=float, default=None,
              help="Poisson arrival rate, jobs/second (continuous mode).")
@click.option("--single-worker", is_flag=True, help="Force scale factor 1.")
@click.option("--max-scale-factor", type=int, default=None)
@click.option("--duration-mean-minutes", type=float, default=10 ** 2.5,
              show_default=True)
@click.option("--slo-factors", default=None,
              help="Comma-separated SLO multiples of job duration, e.g. 1.2,2,10.")
@click.option("--entities", "num_entities", type=int, default=0)
@click.option("--entity-policy", default="fair", show_default=True,
              help="Internal entity policies, slash-separated (fair/fifo).")
@click.option("--catalog", "catalog_file", type=click.Path(), default=None,
              help="Template catalog JSON (defaults to the shipped catalog).")
@click.pass_context
def cmd_generate_trace(ctx, mode, num_jobs, lambda_rate, single_worker,
                       max_scale_factor, duration_mean_minutes, slo_factors,
                       num_entities, entity_policy, catalog_file):
    """Write a workload trace as JSON lines."""
    templates = _read(catalog_file, load_catalog) if catalog_file else load_catalog()
    factors = tuple(_numbers("--slo-factors", slo_factors)) if slo_factors else None
    try:
        trace = generate_trace(mode, num_jobs, templates, seed=ctx.obj["seed"],
                               lambda_rate=lambda_rate, single_worker=single_worker,
                               max_scale_factor=max_scale_factor,
                               slo_factors=factors, num_entities=num_entities,
                               entity_policy=entity_policy,
                               duration_mean_minutes=duration_mean_minutes)
    except ValueError as e:
        _fail(EXIT_USAGE, e)
    out_dir = ctx.obj["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.jsonl"
    trace.save(trace_path)
    manifest = Manifest(out_dir, "generate-trace",
                        {"mode": mode, "jobs": num_jobs, "lambda": lambda_rate,
                         "single_worker": single_worker,
                         "duration_mean_minutes": duration_mean_minutes},
                        [ctx.obj["seed"]])
    if catalog_file:
        manifest.add_input("catalog", catalog_file)
    manifest.add_output(trace_path)
    manifest.write()
    click.echo(f"wrote {trace_path} ({num_jobs} jobs)")


@main.command("solve")
@click.option("--policy", "policy_text", required=True,
              help='Policy string, e.g. "las", "las+ss+wf", "makespan", "hier:fair".')
@click.option("--throughputs", "thr_file", type=click.Path(), required=True,
              help="Throughput matrix JSON.")
@click.option("--jobs", "jobs_file", type=click.Path(), required=True,
              help="Job list JSON.")
@click.pass_context
def cmd_solve(ctx, policy_text, thr_file, jobs_file):
    """Solve a policy once and print the allocation."""
    try:
        spec = parse_policy(policy_text)
    except ValueError as e:
        raise click.UsageError(str(e))
    thr_doc, jobs_doc = _read(thr_file), _read(jobs_file)
    # The jobs file is either a bare list of jobs or, for hierarchical
    # policies, {"jobs": [...], "entities": [{"id", "weight", "policy"}...]}.
    try:
        T = ThroughputMatrix.from_json(thr_doc)
        entities = None
        if isinstance(jobs_doc, dict):
            job_docs = jobs_doc["jobs"]
            entities = [Entity(d["id"], **{field: d[key]
                                           for key, field in ENTITY_KEYS.items() if key in d})
                        for d in jobs_doc.get("entities", [])] or None
        else:
            job_docs = jobs_doc
        # `Job` and `Entity` check their numbers and hold the defaults of
        # the keys a file leaves out, so only the keys given are passed.
        jobs = [Job(id=_id(d), **{key: d[key] for key in JOB_KEYS if key in d})
                for d in job_docs]
    except KeyError as e:
        _fail(EXIT_USAGE, f"missing key {e} in the throughputs or jobs file")
    except (TypeError, ValueError, OverflowError) as e:
        _fail(EXIT_USAGE, f"bad value in the throughputs or jobs file: {e}")
    t0 = time.perf_counter()
    with _exit_on_error():
        result = solve_policy(spec, jobs, T.cluster, T, entities=entities)
    solve_s = time.perf_counter() - t0

    X = result.allocation
    # A finished job has no rows in the solved matrix.
    per_job = {str(j.id): 0.0 if j.finished else effective_throughput(j.id, X, X.T)
               for j in jobs}
    doc = {"policy": spec.label(), "objective": result.objective,
           "allocation": X.to_json(), "effective_throughputs": per_job,
           "violations": result.violations}
    out_dir = ctx.obj["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "allocation.json"
    _dump_json(path, doc)
    manifest = Manifest(out_dir, "solve", {"policy": policy_text}, [ctx.obj["seed"]])
    manifest.add_input("throughputs", thr_file)
    manifest.add_input("jobs", jobs_file)
    manifest.add_output(path)
    manifest.add_timing("solve", solve_s)
    manifest.write()
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


def _metrics_rows(report):
    rows = []
    for r in report.records:
        rows.append({
            "job_id": r.job_id, "template": r.template,
            "arrival_s": f"{r.arrival:.3f}", "completion_s": f"{r.completion:.3f}",
            "jct_s": f"{r.jct:.3f}", "num_steps": r.num_steps,
            "scale_factor": r.scale_factor,
            "slo_s": "" if r.slo_seconds is None else f"{r.slo_seconds:.3f}",
            "slo_violated": int(r.slo_violated),
            "ftf_rho": f"{r.ftf_rho:.6f}",
        })
    return rows


@main.command("simulate")
@click.option("--policy", "policy_text", required=True)
@click.option("--trace", "trace_file", type=click.Path(), default=None)
@click.option("--jobs", "num_jobs", type=int, default=None,
              help="Generate traces of this size instead of reading --trace.")
@click.option("--lambda", "lambdas", default=None,
              help="Comma-separated arrival rates (jobs/s) to sweep.")
@click.option("--mode", type=click.Choice(["static", "continuous"]),
              default="continuous", show_default=True)
@click.option("--seeds", default=None, help="Comma-separated seed list.")
@click.option("--baseline", type=click.Choice(["agnostic"]), default=None,
              help="Also run the heterogeneity-agnostic baseline.")
@click.option("--recompute-every", type=int, default=None,
              help="Re-solve every K rounds instead of on reset events.")
@click.option("--catalog", "catalog_file", type=click.Path(), default=None)
@click.option("--references", type=int, default=0,
              help="Use the throughput estimator with this many reference templates.")
@click.option("--profile-fraction", type=float, default=0.2, show_default=True)
@click.option("--round-log", is_flag=True, help="Write per-round JSONL logs.")
@click.pass_context
def cmd_simulate(ctx, policy_text, trace_file, num_jobs, lambdas, mode, seeds,
                 baseline, recompute_every, catalog_file, references,
                 profile_fraction, round_log):
    """Run the simulator across seeds (and optionally a lambda sweep)."""
    try:
        spec = parse_policy(policy_text)
    except ValueError as e:
        raise click.UsageError(str(e))
    if trace_file is None and num_jobs is None:
        raise click.UsageError("need --trace or --jobs")
    seed_list = _numbers("--seeds", seeds, int) if seeds else [ctx.obj["seed"]]
    if min(seed_list) < 0:
        _fail(EXIT_USAGE, f"--seeds takes non-negative seeds, not {min(seed_list)}")
    _once_each("--seeds", [str(seed) for seed in seed_list])
    lambda_list = _numbers("--lambda", lambdas) if lambdas else [None]
    _once_each("--lambda", [f"{lam:g}" for lam in lambda_list if lam is not None])
    given = {name for name in ("lambdas", "num_jobs", "mode", "profile_fraction")
             if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT}
    if trace_file is not None and "lambdas" in given:
        raise click.UsageError("--lambda sweeps generate traces; drop --trace")
    if trace_file is not None and "num_jobs" in given:
        raise click.UsageError("--jobs sizes generated traces; drop --trace")
    if trace_file is not None and "mode" in given:
        raise click.UsageError("--mode shapes generated traces; drop --trace")
    if not references and "profile_fraction" in given:
        raise click.UsageError("--profile-fraction sets the estimator's "
                               "measurements; add --references")
    given_trace = _read(trace_file, Trace.load) if trace_file else None
    templates = _read(catalog_file, load_catalog) if catalog_file else load_catalog()
    traces = {}
    for lam in lambda_list:
        for seed in seed_list:
            try:
                traces[lam, seed] = given_trace or generate_trace(
                    mode, num_jobs, templates, seed=seed, lambda_rate=lam)
            except ValueError as e:
                _fail(EXIT_USAGE, e)
    if not 0 <= references <= len(templates):
        _fail(EXIT_USAGE, f"--references must lie in [0, {len(templates)}], the "
                          f"catalog's template count, not {references}")
    cluster = _load_cluster(ctx.obj["cluster_file"], ctx.obj["preset_counts"])
    out_dir = ctx.obj["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)

    estimator = None
    if references:
        estimator = EstimatorConfig(
            reference_names=[t.name for t in templates[:references]],
            profile_fraction=profile_fraction)

    manifest = Manifest(out_dir, "simulate",
                        {"policy": policy_text, "baseline": baseline,
                         "mode": mode, "jobs": num_jobs, "lambdas": lambda_list,
                         "recompute_every": recompute_every,
                         "references": references},
                        seed_list)
    if trace_file:
        manifest.add_input("trace", trace_file)
    if catalog_file:
        manifest.add_input("catalog", catalog_file)

    variants = [("aware", False)] + ([("agnostic", True)] if baseline else [])
    summary_rows = []
    for lam in lambda_list:
        for label, agnostic in variants:
            per_seed = []
            for seed in seed_list:
                trace = traces[lam, seed]
                cfg = SimConfig(cluster=cluster, policy=spec,
                                round_duration=ctx.obj["round_duration"],
                                recompute_every=recompute_every,
                                agnostic=agnostic, estimator=estimator,
                                seed=seed, collect_round_log=round_log)
                try:
                    sim = Simulation(cfg, trace, templates)
                except ValueError as e:
                    _fail(EXIT_USAGE, e)
                t0 = time.perf_counter()
                with _exit_on_error(f"seed {seed}: solve failed: "):
                    report = sim.run()
                wall = time.perf_counter() - t0
                tag = f"{label}_seed{seed}" + (f"_lam{lam:g}" if lam else "")
                csv_path = out_dir / f"metrics_{tag}.csv"
                rows = _metrics_rows(report)
                with open(csv_path, "w", newline="") as f:
                    writer = csv.DictWriter(f, fieldnames=list(rows[0].keys())
                                            if rows else ["job_id"])
                    writer.writeheader()
                    writer.writerows(rows)
                manifest.add_output(csv_path)
                manifest.add_timing(tag, wall)
                manifest.add_timing(f"{tag}_policy_solves", report.solve_seconds)
                if round_log:
                    log_path = out_dir / f"rounds_{tag}.jsonl"
                    write_round_log(log_path, sim.round_log)
                    manifest.add_output(log_path)
                per_seed.append(report)
            jcts = [r.avg_steady_jct for r in per_seed]
            unfinished = sum(r.unfinished_jobs for r in per_seed)
            if unfinished:
                click.echo(f"warning: {unfinished} job(s) unfinished when the "
                           f"round limit stopped the {label} run"
                           + (f" at lambda {lam:g}" if lam else ""), err=True)
            summary_rows.append({
                "variant": label,
                "lambda": lam if lam is not None else "",
                "seeds": len(seed_list),
                "mean_steady_jct_s": float(np.mean(jcts)),
                "stddev_steady_jct_s": float(np.std(jcts)),
                "mean_jct_s": float(np.mean([r.avg_jct for r in per_seed])),
                "mean_makespan_s": float(np.mean([r.makespan for r in per_seed])),
                "mean_cost_dollars": float(np.mean([r.total_cost for r in per_seed])),
                "mean_utilization": float(np.mean([r.utilization for r in per_seed])),
                "slo_violation_fraction": float(np.mean(
                    [r.slo_violation_fraction for r in per_seed])),
                "unfinished_jobs": unfinished,
            })
    summary_path = out_dir / "summary.json"
    _dump_json(summary_path, {"rows": summary_rows,
                              "steady_state_window": STEADY_STATE_WINDOW})
    manifest.add_output(summary_path)
    manifest.write()
    click.echo(json.dumps(summary_rows, indent=2, sort_keys=True))


@main.command("estimate")
@click.option("--references", "refs_file", type=click.Path(), required=True,
              help="Reference set: a throughput-matrix JSON with pair rows "
                   "(reference: true) or {names, matrix}.")
@click.option("--measurements", "meas_file", type=click.Path(), required=True,
              help="Partial measurement rows: {name: {ref_name: value, ...}}.")
@click.option("--rank", default=DEFAULT_RANK, show_default=True)
@click.option("--reg", default=DEFAULT_REG, show_default=True)
@click.option("--iters", default=DEFAULT_ITERS, show_default=True)
@click.pass_context
def cmd_estimate(ctx, refs_file, meas_file, rank, reg, iters):
    """Complete partial colocation measurements and match reference jobs."""
    refs_doc, meas_doc = _read(refs_file), _read(meas_file)
    try:
        if "rows" in refs_doc:
            refs = ReferenceSet.from_throughputs(ThroughputMatrix.from_json(refs_doc))
        else:
            refs = ReferenceSet(refs_doc["names"],
                                np.array(refs_doc["matrix"], dtype=float))
    except (KeyError, ValueError, TypeError) as e:
        _fail(EXIT_USAGE, f"{refs_file}: bad reference set ({type(e).__name__}: {e})")
    index = {ref_name: k for k, ref_name in enumerate(refs.names)}
    out = {"hyperparameters": {"rank": rank, "reg": reg, "iters": iters,
                               "seed": ctx.obj["seed"]},
           "matches": {}, "completed_rows": {}}
    if not isinstance(meas_doc, dict):
        _fail(EXIT_USAGE, f"{meas_file}: measurements must map reference names to "
                          f"numbers under each job's name, not {meas_doc!r}")
    names = sorted(meas_doc)
    vecs = np.zeros((len(names), refs.size))
    masks = np.zeros((len(names), refs.size), dtype=bool)
    for row, name in enumerate(names):
        if not isinstance(meas_doc[name], dict):
            _fail(EXIT_USAGE, f"{name}: measurements must map reference names "
                              f"to numbers, not {meas_doc[name]!r}")
        for ref_name, value in meas_doc[name].items():
            if ref_name not in index:
                _fail(EXIT_USAGE, f"{name}: unknown reference {ref_name!r}")
            # NaN, the infinities and ints too large for a float all fail.
            if not (is_number(value) and abs(value) <= sys.float_info.max):
                _fail(EXIT_USAGE, f"{name}: {ref_name} must be a finite number, "
                                  f"not {value!r}")
            k = index[ref_name]
            vecs[row, k] = float(value)
            masks[row, k] = True
        if masks[row].sum() < MIN_OBSERVED:
            _fail(EXIT_INFEASIBLE, f"{name}: need at least {MIN_OBSERVED} "
                                   "observed entries to fingerprint")
    try:
        matches, fingerprints = fingerprint_and_match(
            vecs, masks, refs, [ctx.obj["seed"]] * len(names), rank=rank,
            reg=reg, iters=iters)
    except CompletionError as e:
        _fail(EXIT_INFEASIBLE, str(e))
    except ValueError as e:
        _fail(EXIT_USAGE, str(e))
    for name, match, fingerprint in zip(names, matches, fingerprints):
        out["matches"][name] = refs.names[match]
        out["completed_rows"][name] = [round(v, 6) for v in fingerprint]
    out_dir = ctx.obj["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "estimates.json"
    _dump_json(path, out)
    manifest = Manifest(out_dir, "estimate",
                        {"rank": rank, "reg": reg, "iters": iters},
                        [ctx.obj["seed"]])
    manifest.add_input("references", refs_file)
    manifest.add_input("measurements", meas_file)
    manifest.add_output(path)
    manifest.write()
    click.echo(json.dumps(out["matches"], indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
