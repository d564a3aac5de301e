"""Acceptance suite: one test per criterion, printing a pass/fail line each.

All comparisons are exact; time budgets are wall-clock upper bounds for
the operations the criterion names.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import (
    COLLINEAR_BAD,
    CONIC_BAD,
    SLOW_PATH_GOOD,
    X8_COEFFS,
    float_position_oracle,
    position_verdicts,
    random_valid_seed,
)
from delpezzo1.curve import (
    U_FORM,
    build_bundle,
    build_v,
    cubic_space,
    forms_rank,
    genus_of_model,
    multiplicity_report,
    perfect_power_dichotomy,
    sextic_space,
    validate_seed,
)
from delpezzo1.galois import certify_galois
from delpezzo1.lattice import (
    build_hyperbolic,
    enumerate_short_vectors,
    f8s_iso_check,
    linalg_lemma_check,
    mod2_quadratic_census,
    orth_complement,
    picard_model_check,
)
from delpezzo1.linalg import f2_det, frac_is_square
from delpezzo1.position import check_singular_cubic, check_six_conic, check_three_collinear


def report(criterion: int, label: str, ok: bool):
    print(f"ACCEPTANCE {criterion} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({label}) failed"


def sympy_forms(seed_coeffs):
    """Independent symbolic oracle: apply the construction in sympy."""
    import sympy as sp

    t, x, y, z = sp.symbols("t x y z")
    h = sum(int(c) * t**i for i, c in enumerate(seed_coeffs))

    def amap_expr(poly_t):
        out = 0
        for (e,), c in sp.Poly(poly_t, t).terms():
            i, r = divmod(e, 3)
            out += c * x**i * y**r
        return sp.expand(out)

    v = sp.expand(z**3 * amap_expr(sp.expand(t * h)).subs({x: x / z, y: y / z}))
    big_f = amap_expr(sp.expand(h**2))
    p = sp.rem(sp.expand(sp.diff(big_f, x).subs({x: t**3, y: t})), h, t)
    g = amap_expr(p)
    big_h = sp.expand(big_f - (x - y**3) * g)
    w = sp.expand(z**6 * big_h.subs({x: x / z, y: y / z}))
    return {"v": v, "p": p, "G": g, "w": w, "syms": (t, x, y, z)}


def as_terms(expr, x, y, z):
    import sympy as sp

    return {
        e: Fraction(int(sp.Integer(c)))
        for e, c in sp.Poly(expr, x, y, z).terms()
    }


def tri_as_dict(form):
    return dict(form.terms)


def test_criterion_1_worked_pipeline_fixture():
    t0 = time.perf_counter()
    seed = validate_seed(X8_COEFFS)
    bundle = build_bundle(seed)
    elapsed = time.perf_counter() - t0

    oracle = sympy_forms(X8_COEFFS)
    t, x, y, z = oracle["syms"]
    ok = tri_as_dict(bundle.v) == as_terms(oracle["v"], x, y, z)
    ok &= tri_as_dict(bundle.g_cubic) == as_terms(oracle["G"], x, y, z)
    ok &= tri_as_dict(bundle.w) == as_terms(oracle["w"], x, y, z)
    import sympy as sp

    p_oracle = [
        Fraction(int(c)) for c in reversed(sp.Poly(oracle["p"], t).all_coeffs())
    ]
    ok &= list(bundle.p_reduced.coeffs) == p_oracle
    ok &= bundle.w.coeff((0, 0, 6)) == 1
    ok &= elapsed < 1.0
    report(1, "worked pipeline fixture", ok)


def test_criterion_2_linear_system_dimensions():
    t0 = time.perf_counter()
    seeds = [validate_seed(X8_COEFFS)]
    rng = random.Random(20250810)
    while len(seeds) < 11:
        cand = random_valid_seed(rng)
        if all(position_verdicts(cand).values()):
            seeds.append(cand)
    ok = True
    for seed in seeds:
        cubics = cubic_space(seed)
        v = build_v(seed)
        ok &= len(cubics) == 2
        for f in (U_FORM, v):
            ok &= forms_rank(cubics + [f], 3) == forms_rank(cubics, 3)
        # passing means u^2, uv, v^2, w are a basis of the 4-dimensional system
        bundle = build_bundle(seed)
        sextic = sextic_space(seed, bundle.v, bundle.w)
        ok &= sextic.passed and sextic.witness == {"dimension": 4}
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(2, f"linear-system dimensions ({elapsed:.2f}s)", ok)


def test_criterion_3_branch_model_facts():
    t0 = time.perf_counter()
    seed = validate_seed(X8_COEFFS)
    bundle = build_bundle(seed)
    ok = bundle.q_form.total_degree == 9
    order2, order3 = multiplicity_report(bundle)
    ok &= order2.passed
    ok &= order3.witness["order3_gcd"].degree == 0
    ok &= order3.passed
    ok &= genus_of_model(9, [3] * 8) == 4
    ok &= perfect_power_dichotomy(bundle.q_form).witness["verdict"] == "neither"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(3, f"branch-model facts ({elapsed:.2f}s)", ok)


def test_criterion_4_general_position_and_controls():
    t0 = time.perf_counter()
    seed = validate_seed(X8_COEFFS)
    ok = all(position_verdicts(seed).values())
    ok &= check_three_collinear(seed).witness["path"] == "fast"

    bad_triple = position_verdicts(validate_seed(COLLINEAR_BAD))
    ok &= bad_triple == {"collinear": False, "conic": True, "singular_cubic": True}

    bad_pair = position_verdicts(validate_seed(CONIC_BAD))
    ok &= bad_pair == {"collinear": True, "conic": False, "singular_cubic": True}

    degenerate = check_singular_cubic(seed, U_FORM)
    ok &= not degenerate.passed
    ok &= check_six_conic(seed).passed and check_three_collinear(seed).passed

    slow = check_three_collinear(validate_seed(SLOW_PATH_GOOD))
    ok &= slow.passed and slow.witness["path"] == "deflated"
    ok &= slow.witness["degrees"]["distinct_triples"] == 336

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(4, f"general position and controls ({elapsed:.2f}s)", ok)


def test_criterion_5_oracle_cross_validation():
    rng = random.Random(318)
    agreements = 0
    for _ in range(50):
        seed = random_valid_seed(rng)
        if float_position_oracle(seed) == position_verdicts(seed):
            agreements += 1
    report(5, f"floating-oracle agreement {agreements}/50", agreements == 50)


def test_criterion_6_galois_certificates():
    seed = validate_seed(X8_COEFFS)
    cert = certify_galois(seed, 200)
    ok = cert.verdict == "S8-certified"
    ok &= not frac_is_square(seed.h.discriminant())

    cyclotomic = validate_seed([1, 0, 0, 0, 0, 0, 0, 0, 1])
    for bound in (50, 200, 1000, 3000):
        ok &= certify_galois(cyclotomic, bound).verdict == "inconclusive"
    report(6, "Galois certificates", ok)


def test_criterion_7_lattice_suite():
    t0 = time.perf_counter()
    ok = True
    for d, rank, det, count in ((1, 8, 1, 240), (2, 7, 2, 126)):
        lat, omega = build_hyperbolic(d)
        ok &= lat.pair(omega, omega) == d
        comp, basis = orth_complement(lat, omega)
        ok &= comp.rank == rank
        ok &= abs(comp.determinant) == det
        roots = enumerate_short_vectors(comp, -2)
        if d == 1:
            ok &= comp.is_even
            ok &= mod2_quadratic_census(comp, roots).passed
            ok &= picard_model_check(lat, omega).passed
            ok &= f8s_iso_check(lat, omega, basis).passed
        ok &= len(roots) == count
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(7, f"lattice suite ({elapsed:.2f}s)", ok)


def test_criterion_8_independence_lemma_suite():
    # det(J - I) = 1 over F2 proves the lemma for every tuple of even size
    # m; for odd m the all-ones vector is in the kernel, so det is 0
    check = linalg_lemma_check()
    ok = check.passed and check.witness["determinants"] == (1, 1, 1, 1)
    ok &= check.witness["tuple_sizes"] == (2, 4, 6, 8)
    for m in (1, 3, 5, 7, 9):
        ok &= f2_det([((1 << m) - 1) ^ (1 << i) for i in range(m)]) == 0
    report(8, "independence lemma by det(J - I) for m = 2, 4, 6, 8", ok)


def test_criterion_9_determinism():
    poly = ",".join(str(c) for c in X8_COEFFS)

    def run():
        return subprocess.run(
            [sys.executable, "-m", "delpezzo1.cli", "verify", "--poly", poly],
            capture_output=True,
        )

    first, second = run(), run()
    ok = first.returncode == 0 and second.returncode == 0
    ok &= first.stdout == second.stdout and len(first.stdout) > 0
    json.loads(first.stdout)  # well-formed
    report(9, "byte-identical verify runs", ok)
