"""Tests of the benchmark itself: inputs, correctness gate and tracer.

They reuse the delpezzo1 modules the test process has already imported
(no fresh import), so the patches the tracer installs and removes are the
only thing they do to the package.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from delpezzo1 import cli, curve

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

V, P, L = "verify_generic", "position_degenerate", "lattice_checks"
SEEDED = {V, P}
ALL = {V, P, L}

# Which workload each per-layer metric must record work on (README.md).
PREDICTED_ON = {
    "curve.build_bundle_s": {V},
    "curve.build_v_s": SEEDED,
    "curve.build_w_s": {V},
    "curve.build_q_s": {V},
    "curve.cubic_space_s": {V},
    "curve.sextic_space_s": {V},
    "curve.multiplicity_report_s": {V},
    "curve.perfect_power_dichotomy_s": {V},
    "curve.verify_bundle_self_s": {V},
    "curve.q_terms": {V},
    "curve.q_coeff_bits": {V},
    "curve.w_coeff_bits": {V},
    "linalg.q_kernel_basis_s": {V},
    "linalg.q_kernel_basis_calls": {V},
    "linalg.q_rank_s": {V},
    "linalg.q_rank_calls": {V},
    "linalg.rref_cells": {V},
    "linalg.int_kernel_s": {L},
    "linalg.f2_s": {L},
    "linalg.bareiss_det_s": {V, L},
    "quotient.qr_reduce_s": {V},
    "quotient.qr_reduce_calls": {V},
    "quotient.tri_eval_param_s": {V},
    "tripoly.mul_s": {V},
    "tripoly.mul_calls": {V},
    "position.check_three_collinear_s": SEEDED,
    "position.collinear_fast_calls": {V},
    "position.collinear_deflated_calls": {P},
    "position.check_six_conic_s": SEEDED,
    "position.check_singular_cubic_s": SEEDED,
    "unipoly.root_sum_poly_s": {P},
    "unipoly.root_sum_poly_calls": {P},
    "unipoly.root_sum_max_degree": {P},
    "unipoly.root_sum_coeff_bits": {P},
    "unipoly.exact_div_s": {P},
    "unipoly.exact_div_calls": {P},
    "unipoly.resultant_s": {P},
    "unipoly.gcd_s": SEEDED,
    "unipoly.discriminant_s": {V},
    "galois.certify_galois_s": {V},
    "galois.certified_ratio": {V},
    "finitefield.ddf_degree_multiset_s": {V},
    "finitefield.primes_sampled": {V},
    "finitefield.primes_skipped": {V},
    "lattice.orth_complement_s": {L},
    "lattice.enumerate_short_vectors_s": {L},
    "lattice.short_vectors_found": {L},
    "lattice.f8s_iso_check_s": {L},
    "lattice.picard_model_check_s": {L},
    "lattice.mod2_quadratic_census_s": {L},
    "lattice.linalg_lemma_check_s": {L},
    "serialize.render_s": ALL,
    "serialize.output_bytes": ALL,
    "cli.main_self_s": ALL,
}

# Work each workload is predicted to bypass entirely.
PREDICTED_ZERO = {
    V: {"unipoly.exact_div_calls", "position.collinear_deflated_calls"},
    P: {"curve.sextic_space_s", "position.collinear_fast_calls"},
    L: {"curve.sextic_space_s"},
}


def _small_prefix(name: str) -> list[workloads.Item]:
    items = run.WORKLOADS[name].make_items(workloads.DEFAULT_SEED, curve)
    if name == V:
        return [items[0], items[workloads.VERIFY_PATTERN.index("fraction")]]
    if name == P:
        return items[:1]
    return items


def test_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert set(PREDICTED_ON) | {"trace.overhead_frac"} == {name for name, _ in tracer.PER_LAYER}


def test_inputs_repeat_for_a_seed_and_keep_their_mix():
    first = workloads.verify_items(7, curve)
    assert [i.argv for i in first] == [i.argv for i in workloads.verify_items(7, curve)]
    assert [i.argv for i in first] != [i.argv for i in workloads.verify_items(8, curve)]
    assert len({i.argv for i in first}) == len(first)
    assert first[0].meta["seed"] == workloads.X8_COEFFS
    assert workloads.FIXED_FRACTION_COEFFS in [i.meta["seed"] for i in first]
    kinds = [i.meta["kind"] for i in first]
    assert kinds.count("small") == 2 * len(first) // 3

    items = workloads.position_items(7)
    for (coeffs, roots), item in zip(workloads.FROZEN_POSITION_SEEDS, items):
        assert workloads.poly_from_roots(roots) == coeffs
        assert item.roots == roots
    verdicts = set()
    for item in items:
        assert sum(item.roots) == 0 and len(set(item.roots)) == 8
        assert any(-2 * a in item.roots for a in item.roots)
        verdicts.add(workloads.position_verdict(item.roots))
    assert verdicts == {(False, True), (True, False), (True, True)}


def test_golden_covers_every_default_seed_call():
    golden = workloads.load_golden()
    for workload in run.WORKLOADS.values():
        for item in [workload.warmup, *workload.make_items(workloads.DEFAULT_SEED, curve)]:
            assert item.key in golden


def test_gate_rejects_wrong_outputs():
    golden = workloads.load_golden()
    item = workloads.LATTICE_WARMUP
    code, out, _ = run.call(cli, item.argv)
    assert workloads.check_call(item, code, out, golden) is None
    assert workloads.check_call(item, 1, out, golden) is not None
    assert workloads.check_call(item, code, out.replace("126", "127"), golden) is not None
    assert workloads.check_call(item, code, out.replace("  ", " "), golden) is not None

    item = workloads.POSITION_WARMUP
    code, out, _ = run.call(cli, item.argv)
    assert workloads.check_call(item, code, out, {}) is None
    wrong_roots = workloads.Item(item.argv, (1, -1, 3, 5, 7, 9, -11, -13))
    assert workloads.check_call(wrong_roots, code, out, {}) is not None


def test_tracer_patches_every_import_site_and_restores_them():
    originals = {
        (home, attr): getattr(sys.modules[f"delpezzo1.{home}"], attr)
        for home, attr, _ in tracer.TARGETS
        if "." not in attr
    }
    recorder = tracer.Tracer()
    recorder.install()
    try:
        modules = [m for n, m in sys.modules.items() if n.startswith("delpezzo1")]
        for original in originals.values():
            assert not any(value is original for m in modules for value in vars(m).values())
    finally:
        recorder.uninstall()
    assert cli.main is originals[("cli", "main")]
    assert curve.q_kernel_basis is originals[("linalg", "q_kernel_basis")]


@pytest.mark.parametrize("name", [V, P, L])
def test_traced_metrics_cover_their_workloads(name):
    metrics, attempted, failures, _ = run.traced_run(cli, _small_prefix(name), workloads.load_golden())
    assert failures == []
    assert attempted > 0
    missing = [m for m, where in PREDICTED_ON.items() if name in where and not metrics[m] > 0]
    assert missing == []
    assert {m: metrics[m] for m in PREDICTED_ZERO[name]} == dict.fromkeys(PREDICTED_ZERO[name], 0)
