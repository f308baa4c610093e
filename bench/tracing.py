"""Spans around the calls into each hetsched layer, and the per-layer
metrics derived from them.

A span is (name, start, end, parent, attrs).  Spans are kept in memory and
written as JSON lines when the run ends.  Wrapping replaces the name each
*calling* module binds (``hetsched.policies.solve_lp`` and
``hetsched.milp.solve_lp`` are wrapped separately), or a method on its
class, and ``Tracer.installed`` puts every original back on exit.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import hetsched.milp
import hetsched.policies
import hetsched.search
import hetsched.simulator
import hetsched.traces
import hetsched.waterfill
from hetsched.matrices import AllocationMatrix, ThroughputMatrix
from hetsched.policies import ProblemSpace
from hetsched.simulator import Simulation

LAYERS = ("traces", "simulator", "matrices", "policies", "lp", "search",
          "milp", "waterfill", "mechanism", "estimator")
# Layers whose generic wall-time / call-count metrics carry the names used
# for the layer's one kind of call.
WALL_NAME = {"lp": "solve_s", "milp": "solve_s", "estimator": "match_s"}
CALLS_NAME = {"estimator": "match_calls"}


def _lp_attrs(args, result):
    lp = args[0]
    return {"vars": lp.num_vars, "rows": len(lp.constraints),
            "optimal": bool(result.optimal)}


def _prune_attrs(args, result):
    return {"pairs_in": sum(c.is_pair for c in args[0].rows),
            "pairs_out": sum(c.is_pair for c in result.rows)}


def _solve_attrs(args, result):
    return {"rows": args[3].num_rows}


def _waterfill_attrs(args, result):
    return {"iterations": len(result.iterations)}


# (owner, attribute, span name, attrs hook).  The owner is the module that
# binds the name at its call sites, or the class that defines the method.
TARGETS = (
    (hetsched.traces, "load_catalog", "traces.load_catalog", None),
    (hetsched.traces, "generate_trace", "traces.generate_trace", None),
    (Simulation, "run", "simulator.run", None),
    (Simulation, "build_matrix", "simulator.build_matrix", None),
    (hetsched.simulator, "prune_combinations", "matrices.prune", _prune_attrs),
    (ThroughputMatrix, "__init__", "matrices.throughput_matrix", None),
    (AllocationMatrix, "validate", "matrices.validate", None),
    (hetsched.policies, "effective_throughput", "matrices.effective_throughput",
     None),
    (hetsched.waterfill, "effective_throughput",
     "matrices.effective_throughput", None),
    (hetsched.simulator, "solve_policy", "policies.solve_policy", _solve_attrs),
    (ProblemSpace, "__init__", "policies.problem_space", None),
    (hetsched.policies, "solve_lp", "lp.solve_lp", _lp_attrs),
    (hetsched.waterfill, "solve_lp", "lp.solve_lp", _lp_attrs),
    (hetsched.milp, "solve_lp", "lp.solve_lp", _lp_attrs),
    (hetsched.search, "solve_lp", "lp.solve_lp", _lp_attrs),
    (hetsched.waterfill, "solve_milp", "milp.solve_milp", None),
    (hetsched.waterfill, "hierarchical_waterfill",
     "waterfill.hierarchical_waterfill", _waterfill_attrs),
    (hetsched.waterfill, "find_bottlenecks", "waterfill.find_bottlenecks", None),
    (hetsched.waterfill, "max_gain", "waterfill.max_gain", None),
    (hetsched.simulator, "compute_priorities", "mechanism.compute_priorities",
     None),
    (hetsched.simulator, "plan_round", "mechanism.plan_round", None),
    (hetsched.simulator, "place", "mechanism.place", None),
    (hetsched.simulator, "settle_round", "mechanism.settle_round", None),
    (hetsched.simulator, "fingerprint_and_match", "estimator.match", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, attrs]
        self._stack = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, result)
            return result

        return traced

    def _wrap_bisect(self, fn):
        """search.bisect, counting the feasibility probes it makes."""
        traced = self.wrap("search.bisect", fn)
        spans = self.spans

        def bisect(feasible, *args, **kwargs):
            probes = [0]

            def probe(value):
                probes[0] += 1
                return feasible(value)

            index = len(spans)
            try:
                return traced(probe, *args, **kwargs)
            finally:
                spans[index][4] = {"probes": probes[0]}

        return bisect

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in TARGETS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, hook))
            fn = hetsched.policies.bisect
            saved.append((hetsched.policies, "bisect", fn))
            hetsched.policies.bisect = self._wrap_bisect(fn)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def mark(self) -> int:
        return len(self.spans)

    def write_jsonl(self, path, meta: dict):
        with open(path, "w") as f:
            f.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                doc = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent}
                if attrs:
                    doc["attrs"] = attrs
                f.write(json.dumps(doc, sort_keys=True) + "\n")


def _pct(values, q):
    """q-th percentile (0-100) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def layer_metrics(spans, lo: int, hi: int) -> dict:
    """Per-layer metrics of spans[lo:hi]; parents index the full list."""
    layer = lambda s: s[0].split(".", 1)[0]
    child_time = {}
    for s in spans[lo:hi]:
        if s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    wall = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name = {}
    for i in range(lo, hi):
        s = spans[i]
        name, dur, parent = s[0], s[2] - s[1], s[3]
        ly = layer(s)
        calls[ly] += 1
        self_time[ly] += dur - child_time.get(i, 0.0)
        if parent < 0 or layer(spans[parent]) != ly:
            wall[ly] += dur
        by_name.setdefault(name, []).append(i)

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    def attrs(name, key):
        return [spans[i][4][key] for i in by_name.get(name, ())
                if spans[i][4] is not None]

    out = {}
    for ly in LAYERS:
        out[f"{ly}.{WALL_NAME.get(ly, 'wall_s')}"] = wall[ly]
        out[f"{ly}.self_s"] = self_time[ly]
        out[f"{ly}.{CALLS_NAME.get(ly, 'calls')}"] = calls[ly]

    out["traces.generate_s"] = total("traces.generate_trace")
    out["simulator.build_matrix_s"] = total("simulator.build_matrix")

    out["matrices.prune_s"] = total("matrices.prune")
    out["matrices.validate_s"] = total("matrices.validate")
    out["matrices.rows_max"] = max(attrs("policies.solve_policy", "rows"),
                                   default=0)
    built = sum(attrs("matrices.prune", "pairs_in"))
    kept = sum(attrs("matrices.prune", "pairs_out"))
    out["matrices.pair_keep_ratio"] = kept / built if built else 0.0

    solve_ms = [1e3 * (spans[i][2] - spans[i][1])
                for i in by_name.get("policies.solve_policy", ())]
    out["policies.problem_space_s"] = total("policies.problem_space")
    out["policies.solve_ms_p90"] = _pct(solve_ms, 90)

    lp_ms = [1e3 * (spans[i][2] - spans[i][1])
             for i in by_name.get("lp.solve_lp", ())]
    out["lp.ms_p50"] = _pct(lp_ms, 50)
    out["lp.vars_max"] = max(attrs("lp.solve_lp", "vars"), default=0)
    out["lp.rows_max"] = max(attrs("lp.solve_lp", "rows"), default=0)
    out["lp.not_optimal_calls"] = sum(not ok for ok in
                                      attrs("lp.solve_lp", "optimal"))

    out["search.bisect_s"] = total("search.bisect")
    out["search.probes"] = sum(attrs("search.bisect", "probes"))

    milp_ids = set(by_name.get("milp.solve_milp", ()))
    out["milp.relaxations"] = sum(1 for i in by_name.get("lp.solve_lp", ())
                                  if spans[i][3] in milp_ids)

    out["waterfill.iterations"] = sum(
        attrs("waterfill.hierarchical_waterfill", "iterations"))
    out["waterfill.find_bottlenecks_s"] = total("waterfill.find_bottlenecks")
    out["waterfill.max_gain_calls"] = len(by_name.get("waterfill.max_gain", ()))

    # One simulated round makes one call of each mechanism function, starting
    # with compute_priorities.
    rounds = []
    for i in range(lo, hi):
        name = spans[i][0]
        if name == "mechanism.compute_priorities":
            rounds.append(0.0)
        if name.startswith("mechanism.") and rounds:
            rounds[-1] += 1e3 * (spans[i][2] - spans[i][1])
    out["mechanism.round_ms_p50"] = _pct(rounds, 50)
    out["mechanism.compute_priorities_s"] = total("mechanism.compute_priorities")
    out["mechanism.plan_round_s"] = total("mechanism.plan_round")
    out["mechanism.place_s"] = total("mechanism.place")
    return out
