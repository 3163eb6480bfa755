"""Tests of the benchmark itself: inputs, oracles, spans, metric names.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from spans import NullTracer, Tracer, layer_totals, self_times  # noqa: E402


def check_nesting(spans):
    """Problems with the span tree: a child outside its parent's interval,
    or children that together take longer than their parent."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    child_sum = {}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append("span %d (%s) has no valid end" % (s["id"], s["name"]))
            continue
        p = by_id.get(s["parent"])
        if p is None:
            continue
        if s["start"] < p["start"] or s["end"] > p["end"] or s["job"] != p["job"]:
            problems.append("span %d (%s) lies outside parent %d (%s)"
                            % (s["id"], s["name"], p["id"], p["name"]))
        child_sum[p["id"]] = child_sum.get(p["id"], 0.0) + s["end"] - s["start"]
    for pid, total in child_sum.items():
        p = by_id[pid]
        if total > p["end"] - p["start"]:
            problems.append("children of span %d (%s) exceed it" % (pid, p["name"]))
    return problems


def dumps(items):
    return json.dumps(items, sort_keys=True)


@pytest.mark.parametrize("workload", sorted(inputs.ITEMS))
def test_generator_is_deterministic_per_seed(workload):
    make = inputs.ITEMS[workload]
    assert dumps(make(7)) == dumps(make(7))
    assert dumps(make(7)) != dumps(make(8))


def test_sweep_mix_is_fixed_per_block():
    items = inputs.sweep_items(3, blocks=2)
    assert len(items) == 80
    for block in (items[:40], items[40:]):
        kinds = sorted((it["kind"], it["n"], it["dissipative"]) for it in block)
        assert kinds == sorted((it["kind"], it["n"], it["dissipative"])
                               for it in inputs.sweep_items(4, blocks=1))
        assert sum(not it["dissipative"] for it in block) == 6


def test_explicit_leading_coefficients_are_well_scaled():
    rng = np.random.default_rng(5)
    for order, dim, cplx in ((1, 1, True), (2, 2, False), (3, 1, True), (4, 2, False)):
        for _ in range(50):
            entry, _ = inputs._lossless_subsystem(rng, order, dim, cplx)
            p_n = np.asarray(entry["p_matrices"][order], dtype=float)
            if cplx:
                p_n = p_n[..., 0] + 1j * p_n[..., 1]
            assert np.linalg.svd(p_n, compute_uv=False).min() >= 0.2


def _certified_chain():
    rng = np.random.default_rng(0)
    item = inputs.chain_item(rng, 2)
    while "transfer" not in item:
        item = inputs.chain_item(rng, 2)
    item["n"] = 24
    return item


def test_sweep_oracle_accepts_then_rejects_shifted_abscissa():
    item = _certified_chain()
    out, sizes = jobs.sweep_job(NullTracer(), item)
    assert sizes["n_red"] > 0
    assert oracles.sweep_oracle(item, out) == []
    shift = abs(out["rep"].abscissa) + 1e-3      # just past the imaginary axis
    shifted = dict(out, rep=SimpleNamespace(
        eigenvalues=out["rep"].eigenvalues + shift,
        dominant=lambda k: out["rep"].dominant(k) + shift))
    problems = oracles.sweep_oracle(item, shifted)
    assert any("abscissa" in p for p in problems)
    assert any("transfer-matrix" in p for p in problems)


def test_sweep_oracle_rejects_flipped_verdict_and_missing_witness():
    item = _certified_chain()
    out, _ = jobs.sweep_job(NullTracer(), item)
    flipped = dict(item, dissipative=False)
    assert any("by construction" in p for p in oracles.sweep_oracle(flipped, out))

    bad = inputs.chain_item(np.random.default_rng(1), 1, dissipative=False)
    bad["n"] = 24
    out, _ = jobs.sweep_job(NullTracer(), bad)
    assert oracles.sweep_oracle(bad, out) == []
    out["cert"].witness = None
    assert any("witness" in p for p in oracles.sweep_oracle(bad, out))


@pytest.fixture(scope="module")
def scan_result():
    item = {"kind": "mass_damped_string", "n": 24, "verdict": inputs.SCAN_CASES[2][3],
            "doc": inputs.scenario_doc("mass_damped_string", {}),
            "beta_picks": [0.1, 0.5, 0.9]}
    out, _ = jobs.scan_job(NullTracer(), item)
    return item, out


def test_scan_oracle_rejects_flipped_verdict(scan_result):
    item, out = scan_result
    assert oracles.scan_oracle(item, out) == []
    flipped = dict(out, verdict="exponentially stable (surrogate)")
    assert any("verdict" in p for p in oracles.scan_oracle(item, flipped))


def test_scan_oracle_rejects_perturbed_norm(scan_result):
    item, out = scan_result
    scan = copy.copy(out["scan"])
    scan.norms = scan.norms * (1 + 1e-6)
    assert any("direct SVD" in p for p in oracles.scan_oracle(item, dict(out, scan=scan)))


def test_trajectory_oracle_rejects_energy_increase_and_wrong_end():
    item = {"kind": "chain", "n": 24,
            "doc": inputs.scenario_doc("chain_of_strings", {"m": 2})}
    out, sizes = jobs.trajectory_job(NullTracer(), item)
    assert sizes["steps"] >= jobs.STEPS
    assert oracles.trajectory_oracle(item, out) == []

    trace = copy.copy(out["trace"])
    trace.energies = trace.energies.copy()
    trace.energies[len(trace.energies) // 2] *= 1.01
    assert any("rises" in p for p in oracles.trajectory_oracle(item, dict(out, trace=trace)))

    trace = copy.copy(out["trace"])
    trace.energies = trace.energies * (1 - 1e-6)
    assert any("Cayley power" in p for p in oracles.trajectory_oracle(item, dict(out, trace=trace)))


def test_spans_nest_and_children_fit_in_parents():
    tr = Tracer()
    item = _certified_chain()
    for job_id in range(2):
        with tr.job(job_id):
            jobs.sweep_job(tr, item)
    assert check_nesting(tr.spans) == []
    names = {s["name"] for s in tr.spans}
    assert {"job", "discretize.assemble_generator", "analysis.spectrum"} <= names
    for s in tr.spans:
        assert s["job"] in (0, 1)
        assert (s["parent"] is None) == (s["name"] == "job")
    own = self_times(tr.spans)
    assert all(v >= 0 for v in own.values())
    totals = layer_totals(tr.spans)
    assert totals["job"]["calls"] == 2
    children = sum(v["busy_s"] for k, v in totals.items() if k != "job")
    assert children <= totals["job"]["busy_s"]
    assert totals["job"]["self_s"] == pytest.approx(totals["job"]["busy_s"] - children)


def test_nesting_check_finds_a_child_longer_than_its_parent():
    spans = [{"id": 0, "name": "job", "job": 0, "parent": None, "start": 0.0, "end": 1.0},
             {"id": 1, "name": "a", "job": 0, "parent": 0, "start": 0.1, "end": 0.7},
             {"id": 2, "name": "b", "job": 0, "parent": 0, "start": 0.5, "end": 0.95}]
    assert any("exceed" in p for p in check_nesting(spans))
    spans[2]["end"] = 1.5
    assert any("outside parent" in p for p in check_nesting(spans))


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    phase = {"wall_s": 1.0, "peak_rss_mb": 1.0, "cpu_s": 1.0, "cpu_util": 1.0}
    layer = run.per_layer([], [], phase)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    setup = {"setup_s": 1.0, "cold_s": [1.0, 1.0, 1.0]}
    records = [{"s": 0.1, "sizes": {}, "problems": []}]
    e2e, _ = run.end_to_end("sweep", setup, records, phase)
    assert sorted(run.E2E_METRICS) == sorted(m["name"] for m in spec["end_to_end"])
    assert set(run.E2E_METRICS) <= set(e2e)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layer}.items() if k in units)
