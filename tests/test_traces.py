import json
from pathlib import Path

import numpy as np
import pytest

from hetsched.traces import (DURATION_MAX_MINUTES, DURATION_MIN_MINUTES,
                             Trace, catalog_from_json, colocation_factor,
                             generate_trace, load_catalog)
from oracles import make_template_catalog


@pytest.fixture(scope="module")
def catalog():
    return make_template_catalog(0)


def test_catalog_is_deterministic(catalog):
    again = make_template_catalog(0)
    assert catalog == again
    different = make_template_catalog(1)
    assert different != catalog


def test_shipped_catalog_matches_generator(catalog):
    shipped = load_catalog()
    assert shipped == catalog
    assert len(shipped) == 26


def test_catalog_spans_speedup_ratios(catalog):
    ratios = [t.tier_throughputs[0] / t.tier_throughputs[2] for t in catalog]
    assert min(ratios) >= 1.0
    assert max(ratios) <= 10.5
    assert max(ratios) / min(ratios) > 2.0  # genuinely heterogeneous


def test_tiers_ordered_fast_to_slow(catalog):
    for t in catalog:
        assert t.tier_throughputs[0] >= t.tier_throughputs[1] >= t.tier_throughputs[2] > 0


def test_colocation_factors_bounded(catalog):
    for a in catalog:
        for b in catalog:
            f = colocation_factor(a, b)
            assert 0.0 < f <= 1.0


def test_scaling_efficiency(catalog):
    t = catalog[0]
    one = t.isolated_throughput(0, 1, True)
    four_c = t.isolated_throughput(0, 4, True)
    four_u = t.isolated_throughput(0, 4, False)
    assert one < four_c <= 4 * one
    assert four_u < four_c


def catalog_to_json(templates) -> dict:
    return {"templates": [
        {"name": t.name, "tier_throughputs": list(t.tier_throughputs),
         "consolidated_efficiency": t.consolidated_efficiency,
         "unconsolidated_efficiency": t.unconsolidated_efficiency,
         "coloc_sensitivity": t.coloc_sensitivity,
         "coloc_aggressiveness": t.coloc_aggressiveness}
        for t in templates]}


def test_catalog_json_round_trip(catalog, tmp_path):
    doc = catalog_to_json(catalog)
    assert catalog_from_json(json.loads(json.dumps(doc))) == catalog


class TestGenerateTrace:
    def test_poisson_mean_gap(self, catalog):
        lam = 1 / 600.0
        trace = generate_trace("continuous", 10_000, catalog, seed=1,
                               lambda_rate=lam)
        arrivals = [e.arrival_time for e in trace.entries]
        gaps = np.diff([0.0] + arrivals)
        assert np.mean(gaps) == pytest.approx(600.0, rel=0.02)

    def test_static_all_at_zero(self, catalog):
        trace = generate_trace("static", 100, catalog, seed=0)
        assert all(e.arrival_time == 0.0 for e in trace.entries)

    def test_duration_truncation_bounds(self, catalog):
        trace = generate_trace("static", 10_000, catalog, seed=2)
        for e in trace.entries:
            template = next(t for t in catalog if t.name == e.template)
            best = template.isolated_throughput(0, e.scale_factor, True)
            duration_min = e.num_steps / best / 60.0
            assert duration_min >= DURATION_MIN_MINUTES * 0.99
            assert duration_min <= DURATION_MAX_MINUTES * 1.01

    def test_scale_factor_mix(self, catalog):
        trace = generate_trace("static", 20_000, catalog, seed=3)
        counts = {k: 0 for k in (1, 2, 4, 8)}
        for e in trace.entries:
            counts[e.scale_factor] += 1
        n = len(trace.entries)
        assert counts[1] / n == pytest.approx(0.70, abs=0.02)
        assert (counts[2] + counts[4]) / n == pytest.approx(0.25, abs=0.02)
        assert counts[8] / n == pytest.approx(0.05, abs=0.01)

    def test_single_worker_mode(self, catalog):
        trace = generate_trace("static", 500, catalog, seed=4,
                               single_worker=True)
        assert all(e.scale_factor == 1 for e in trace.entries)

    def test_static_rejects_lambda(self, catalog):
        with pytest.raises(ValueError):
            generate_trace("static", 10, catalog, lambda_rate=0.1)
        with pytest.raises(ValueError):
            generate_trace("continuous", 10, catalog)

    @pytest.mark.parametrize("num_jobs, kwargs, named", [
        (10, {"num_entities": 2, "entity_policy": "bogus"}, "entity policy"),
        (10, {"entity_policy": "fair/bogus"}, "entity policy"),
        (10, {"slo_factors": (1.5, 0.0)}, "SLO factors"),
        (10, {"slo_factors": (-2.0,)}, "SLO factors"),
        (10, {"max_scale_factor": 0}, "scale factor"),
        (10, {"duration_mean_minutes": -5.0}, "mean duration"),
        (-2, {}, "job and entity counts"),
        (10, {"num_entities": -1}, "job and entity counts"),
    ], ids=["entity-policy", "entity-policy-list", "slo-zero", "slo-negative",
            "max-scale-factor", "duration", "jobs-negative", "entities-negative"])
    def test_rejects_bad_inputs(self, catalog, num_jobs, kwargs, named):
        with pytest.raises(ValueError, match=named):
            generate_trace("static", num_jobs, catalog, **kwargs)

    def test_slo_factors(self, catalog):
        trace = generate_trace("static", 300, catalog, seed=5,
                               slo_factors=(1.2, 2.0, 10.0))
        assert all(e.slo_seconds is not None for e in trace.entries)

    def test_entities_assigned_round_robin(self, catalog):
        trace = generate_trace("static", 10, catalog, seed=6, num_entities=3,
                               entity_policy="fair/fifo")
        assert [e.entity_id for e in trace.entries] == [i % 3 for i in range(10)]
        assert len(trace.entities) == 3

    def test_trace_file_round_trip(self, catalog, tmp_path):
        trace = generate_trace("continuous", 50, catalog, seed=7,
                               lambda_rate=0.001, num_entities=2)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.mode == trace.mode
        assert loaded.seed == trace.seed
        assert loaded.entries == trace.entries
        assert loaded.entities == trace.entities
