import dataclasses
import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    COLLINEAR_BAD,
    CONIC_BAD,
    DISTINCT_TRIPLE_BAD,
    FIXED_FRACTION_COEFFS,
    FRACTION_AT_CAP,
    FRACTION_OVER_CAP,
    INT_AT_CAP,
    INT_OVER_CAP,
    SLOW_PATH_GOOD,
    X8_COEFFS,
    random_valid_seed,
    seed_polys,
)
from delpezzo1 import curve
from delpezzo1.curve import (
    SeedError,
    U_FORM,
    _nth_root_form,
    amap,
    build_bundle,
    build_q,
    build_v,
    build_w,
    cubic_space,
    forms_rank,
    genus_of_model,
    multiplicity_report,
    perfect_power_dichotomy,
    sextic_space,
    validate_seed,
    verify_bundle,
)
from delpezzo1.quotient import tri_eval_param
from delpezzo1.serialize import Check
from delpezzo1.tripoly import TriPoly
from delpezzo1.unipoly import CERT_PRIME, UniPoly
from xyz_oracles import (
    apply_ops,
    constraint_rows,
    cubic_space_rank,
    form_value,
    jacobian,
    multiplicity_report_xyz,
    oracle_seeds,
    sextic_space_exact,
    space_through_points,
)


@st.composite
def seed_texts(draw):
    """Nine coefficient strings: decimals, exponents and p/q, some with blanks around."""
    text = st.one_of(
        st.sampled_from(["0.5", "1e3", " 7/3 ", "-2.25", "+4", "1.5E-2", "0"]),
        st.decimals(-100, 100, places=3).map(str),
        st.builds(lambda p, q: f" {p}/{q} ", st.integers(-99, 99), st.integers(1, 99)),
    )
    low = draw(st.lists(text, min_size=7, max_size=7))
    return [*low, "0", "1"]


class TestValidateSeed:
    def test_worked_seed_is_valid(self):
        h = validate_seed(X8_COEFFS)
        assert h.coeff(0) == -1
        assert not hasattr(curve, "SeedPoly")

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            seed_polys().map(lambda h: list(h.coeffs)),
            seed_polys().map(lambda h: [str(c) for c in h.coeffs]),
            seed_texts(),
        )
    )
    def test_returns_the_seed_polynomial(self, coeffs):
        try:
            h = validate_seed(coeffs)
        except SeedError:
            assume(False)
        assert type(h) is UniPoly
        assert h == UniPoly(Fraction(c) for c in coeffs)

    def test_t7_term_rejected(self):
        with pytest.raises(SeedError) as info:
            validate_seed([-1, -1, 0, 0, 0, 0, 0, 1, 1])
        assert info.value.code == "t7-term"

    def test_zero_constant_rejected(self):
        with pytest.raises(SeedError) as info:
            validate_seed([0, 0, -1, 0, 0, 0, 0, 0, 1])
        assert info.value.code == "zero-constant"

    def test_not_monic_rejected(self):
        with pytest.raises(SeedError) as info:
            validate_seed([-1, -1, 0, 0, 0, 0, 0, 0, 2])
        assert info.value.code == "not-monic"

    def test_wrong_degree_rejected(self):
        with pytest.raises(SeedError) as info:
            validate_seed([-1, -1, 0, 0, 0, 0, 0, 0, 0])
        assert info.value.code == "wrong-degree"

    def test_wrong_count_rejected(self):
        with pytest.raises(SeedError) as info:
            validate_seed([-1, -1, 1])
        assert info.value.code == "wrong-count"

    @staticmethod
    def _count_gcds(monkeypatch) -> list:
        calls = []
        original = UniPoly.gcd

        def counted(self, other):
            calls.append(other.degree)
            return original(self, other)

        monkeypatch.setattr(UniPoly, "gcd", counted)
        return calls

    def test_squarefree_certified_mod_p_runs_no_gcd(self, monkeypatch):
        calls = self._count_gcds(monkeypatch)
        for coeffs in (X8_COEFFS, FIXED_FRACTION_COEFFS, COLLINEAR_BAD, INT_AT_CAP, FRACTION_AT_CAP):
            validate_seed(coeffs)
        assert calls == []

    def test_double_root_mod_p_takes_the_exact_gcd(self, monkeypatch):
        # roots 1 and 1 + p meet mod p = 2^31 - 1: h mod p has a double root,
        # so the certificate says nothing, and the exact gcd accepts h
        p = CERT_PRIME
        h = prod((UniPoly([-r, 1]) for r in (1, 1 + p, 2, 3, 4, 5, 6, -(22 + p))), start=UniPoly([1]))
        assert max(abs(c.numerator) for c in h.coeffs).bit_length() == 73
        calls = self._count_gcds(monkeypatch)
        assert validate_seed(list(h.coeffs)) == h
        assert calls == [7]

    def test_square_factor_rejected(self, monkeypatch):
        # h = (t^4-2)^2, and h with roots 1, 1, 2, 3, 4, 5, 6, -22; the
        # certificate mod p says nothing on either, and the exact gcd rejects
        repeated_root = prod((UniPoly([-r, 1]) for r in (1, 1, 2, 3, 4, 5, 6, -22)), start=UniPoly([1]))
        calls = self._count_gcds(monkeypatch)
        for coeffs in ([4, 0, 0, 0, -4, 0, 0, 0, 1], list(repeated_root.coeffs)):
            with pytest.raises(SeedError) as info:
                validate_seed(coeffs)
            assert info.value.code == "not-squarefree"
        assert calls == [7, 7]

    def test_rational_coefficients_accepted(self):
        seed = validate_seed(
            [Fraction(1, 3), Fraction(-1, 2), 0, 0, 0, 0, 0, 0, 1]
        )
        assert seed.coeff(0) == Fraction(1, 3)

    def test_height_cap(self):
        validate_seed(INT_AT_CAP)
        validate_seed(FRACTION_AT_CAP)
        for coeffs in (INT_OVER_CAP, FRACTION_OVER_CAP):
            with pytest.raises(SeedError) as info:
                validate_seed(coeffs)
            assert info.value.code == "too-tall"
            assert str(info.value) == "height 105 bits, at most 104"

    # the benchmark's and the tests' seed ranges: |c| <= 2^100, or p/q with
    # |p|, q <= 10^6; the largest numerators over the largest coprime
    # denominators give the largest lcm
    PRIMES_BELOW_10_6 = (999983, 999979, 999961, 999959, 999953, 999931, 999917)

    @pytest.mark.parametrize(
        "low",
        [
            [2**100] * 7,
            [-(2**100)] * 7,
            [Fraction(-(10**6), q) for q in PRIMES_BELOW_10_6],
            [10**6, *(Fraction(10**6, q) for q in PRIMES_BELOW_10_6[:6])],
        ],
    )
    def test_extreme_benchmark_seeds_fit_under_the_cap(self, low):
        try:
            validate_seed([*low, 0, 1])
        except SeedError as exc:
            assert exc.code != "too-tall"

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(-(2**100), 2**100), min_size=7, max_size=7),
            st.lists(
                st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
                min_size=7,
                max_size=7,
            ),
        )
    )
    def test_benchmark_seed_ranges_fit_under_the_cap(self, low):
        try:
            validate_seed([*low, 0, 1])
        except SeedError as exc:
            assert exc.code != "too-tall"


def _seed_outcome(coeffs):
    """validate_seed's verdict: the seed polynomial, or the SeedError code."""
    try:
        return validate_seed(coeffs)
    except SeedError as exc:
        return exc.code


@st.composite
def decimal_texts(draw):
    """Signed decimal strings m e k, with k on both sides of the pre-check's bound."""
    digits = draw(st.text("0123456789", min_size=1, max_size=12))
    if draw(st.booleans()):
        point = draw(st.integers(0, len(digits)))
        digits = f"{digits[:point]}.{digits[point:]}"
    sign = draw(st.sampled_from(["", "-", "+"]))
    return f"{sign}{digits}{draw(st.sampled_from('eE'))}{draw(st.integers(-120, 120))}"


class TestDecimalExponent:
    """A decimal exponent beyond the height cap is rejected before Fraction expands it."""

    @pytest.mark.parametrize("text", ["1e3000000", "1e-3000000"])
    def test_huge_exponent_rejected_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(SeedError) as info:
            validate_seed([text, 1, 0, 0, 0, 0, 0, 0, 1])
        assert time.perf_counter() - start < 0.01
        assert info.value.code == "too-tall"
        assert str(info.value).startswith("height over 104 bits")

    @pytest.mark.parametrize("text", ["1e31", "100000e-35"])
    def test_exponent_within_the_bound_accepted(self, text):
        assert validate_seed([text, 1, 0, 0, 0, 0, 0, 0, 1]).coeff(0) == Fraction(text)

    def test_zero_mantissa_is_zero(self):
        start = time.perf_counter()
        seed = validate_seed([-1, "0e-3000000", 0, 0, 0, 0, 0, 0, 1])
        assert time.perf_counter() - start < 0.01
        assert seed == UniPoly([-1, 0, 0, 0, 0, 0, 0, 0, 1])
        with pytest.raises(SeedError) as info:
            validate_seed(["0e-3000000", 1, 0, 0, 0, 0, 0, 0, 1])
        assert info.value.code == "zero-constant"

    # the text and its exact value get the same verdict, so the pre-check
    # rejects only seeds that the height cap rejects too
    @settings(max_examples=200, deadline=None)
    @given(decimal_texts(), st.integers(0, 6))
    def test_rejects_only_what_the_height_cap_rejects(self, text, slot):
        low = [-1, 1, 0, 0, 0, 0, 0]
        by_text = _seed_outcome([*low[:slot], text, *low[slot + 1:], 0, 1])
        by_value = _seed_outcome([*low[:slot], Fraction(text), *low[slot + 1:], 0, 1])
        assert by_text == by_value


class TestAmap:
    def test_monomial_rules(self):
        assert amap(UniPoly([0] * 9 + [1])) == TriPoly({(3, 0, 0): 1})
        assert amap(UniPoly([0] * 16 + [1])) == TriPoly({(5, 1, 0): 1})
        assert amap(UniPoly([0] * 8 + [1])) == TriPoly({(2, 2, 0): 1})

    def test_shifted_seed_image(self):
        h = UniPoly(X8_COEFFS)
        th = UniPoly([0, 1]) * h  # t^9 - t^2 - t
        assert amap(th) == TriPoly({(3, 0, 0): 1, (0, 2, 0): -1, (0, 1, 0): -1})

    def test_squared_seed_image(self):
        h = UniPoly(X8_COEFFS)
        assert amap(h * h) == TriPoly(
            {
                (5, 1, 0): 1,
                (3, 0, 0): -2,
                (2, 2, 0): -2,
                (0, 2, 0): 1,
                (0, 1, 0): 2,
                (0, 0, 0): 1,
            }
        )

    def test_section_identity_on_random_inputs(self):
        rng = random.Random(47)
        for _ in range(200):
            g = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 21))])
            image = amap(g)
            assert image.param_eval() == g
            # image(x, y) - g(y) is divisible by x - y^3: substitute x = y^3
            # and check the result collapses to g(y)
            collapsed = UniPoly()
            for (i, j, _), c in image.terms.items():
                collapsed = collapsed + c * UniPoly([0] * (3 * i + j) + [1])
            assert collapsed == g

    def test_degree_rules(self):
        rng = random.Random(53)
        for _ in range(50):
            g = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
            if g.is_zero:
                continue
            assert amap(g).total_degree <= 3
        # degree 16 with no t^15 term: image has an x^5 y term, degree 6
        g16 = UniPoly([rng.randint(-9, 9) for _ in range(15)] + [0, 3])
        img = amap(g16)
        assert img.total_degree == 6 and img.coeff((5, 1, 0)) == 3
        # degree 9 with no t^8 term: image contains x^3
        g9 = UniPoly([1, 2, 3, 4, 5, 6, 7, 8, 0, 2])
        assert amap(g9).coeff((3, 0, 0)) == 2


class TestWorkedPipeline:
    def test_v_form(self, seed_x8):
        assert build_v(seed_x8) == TriPoly(
            {(3, 0, 0): 1, (0, 2, 1): -1, (0, 1, 2): -1}
        )

    def test_w_audit_values(self, seed_x8):
        w, p_reduced = build_w(seed_x8)
        g_cubic = amap(p_reduced)
        assert p_reduced == UniPoly([0, 0, 0, 0, 0, 1, -1])
        assert g_cubic == TriPoly({(2, 0, 0): -1, (1, 2, 0): 1})
        # w in the z = 1 chart is A(h^2) - (x - y^3) G
        x_minus_y3 = TriPoly({(1, 0, 0): 1, (0, 3, 0): -1})
        assert amap(seed_x8 * seed_x8) - x_minus_y3 * g_cubic == TriPoly(
            {
                (5, 1, 0): 1,
                (1, 5, 0): 1,
                (3, 0, 0): -1,
                (2, 2, 0): -3,
                (2, 3, 0): -1,
                (0, 2, 0): 1,
                (0, 1, 0): 2,
                (0, 0, 0): 1,
            }
        )
        assert w == TriPoly(
            {
                (5, 1, 0): 1,
                (1, 5, 0): 1,
                (3, 0, 3): -1,
                (2, 2, 2): -3,
                (2, 3, 1): -1,
                (0, 2, 4): 1,
                (0, 1, 5): 2,
                (0, 0, 6): 1,
            }
        )
        assert w.coeff((0, 0, 6)) == 1

    def test_q_degree_and_base_vanishing(self, seed_x8):
        bundle = build_bundle(seed_x8)
        assert bundle.q_form.total_degree == 9
        assert tri_eval_param(bundle.q_form, seed_x8).is_zero

    def test_degenerate_rows_give_zero(self, seed_x8):
        # a third row that is a function of the first two collapses the
        # Jacobian: gradient of u*v is v grad(u) + u grad(v)
        bundle = build_bundle(seed_x8)
        dependent = build_q(bundle.v, U_FORM * bundle.v)
        assert dependent.is_zero

    def test_full_verification_passes(self, seed_x8):
        checks = verify_bundle(build_bundle(seed_x8))
        assert [c.name for c in checks if not c.passed] == []

    def test_model_degree_check_reports_the_audit_trail(self, seed_x8):
        bundle = build_bundle(seed_x8)
        witness = {"reduced_x_derivative": bundle.p_reduced, "cubic_matcher": amap(bundle.p_reduced)}
        assert curve.model_degree_check(bundle) == Check("model_degree_9", True, witness)
        cubic = dataclasses.replace(bundle, q_form=U_FORM)
        assert curve.model_degree_check(cubic) == Check("model_degree_9", False, witness)


class TestBuildQ:
    """build_q clears denominators before expanding; the Jacobian oracle does not."""

    @settings(max_examples=15, deadline=None)
    @given(seed_polys(kinds=("fraction",)))
    def test_equals_the_unscaled_jacobian_on_fraction_seeds(self, seed):
        assume(any(c.denominator != 1 for c in seed.coeffs))
        v, w = build_v(seed), build_w(seed)[0]
        assert build_q(v, w) == jacobian(U_FORM, v, w)

    @settings(max_examples=10, deadline=None)
    @given(seed_polys(), st.sampled_from([2, Fraction(-1, 3), 2**100 + 277]))
    def test_linear_in_each_row(self, seed, c):
        v, w = build_v(seed), build_w(seed)[0]
        scaled = c * jacobian(U_FORM, v, w)
        assert build_q(c * v, w) == scaled
        assert build_q(v, c * w) == scaled


class TestSeedInvariants:
    def test_construction_identities_on_random_seeds(self):
        rng = random.Random(59)
        seeds = [random_valid_seed(rng) for _ in range(8)]
        seeds.append(validate_seed(FIXED_FRACTION_COEFFS))
        seeds.append(validate_seed([rng.getrandbits(100) - 2**99 for _ in range(7)] + [0, 1]))
        for seed in seeds:
            v = build_v(seed)
            assert v.param_eval() == UniPoly([0, 1]) * seed
            assert v.x_degree == 3
            assert v.coeff((0, 0, 3)) == 0
            w, *_ = build_w(seed)
            assert w.coeff((0, 0, 6)) == seed.coeff(0)**2
            # the value at (0:0:1) that verify_bundle reads as the z^deg coefficient
            for form in [U_FORM, v, w] + cubic_space(seed):
                assert form.coeff((0, 0, form.total_degree)) == form_value(form, 0, 0, 1)
            for s in ("x", "y", "z"):
                assert tri_eval_param(w.derivative(s), seed).is_zero
            assert tri_eval_param(w, seed).is_zero


class TestLinearSystems:
    def test_cubic_space_worked_seed(self, seed_x8):
        basis = cubic_space(seed_x8)
        assert len(basis) == 2
        assert forms_rank(basis + [U_FORM], 3) == forms_rank(basis, 3)
        assert forms_rank(basis + [build_v(seed_x8)], 3) == forms_rank(basis, 3)
        assert all(c.coeff((0, 0, 3)) == 0 for c in basis)

    def test_sextic_space_worked_seed(self, seed_x8):
        bundle = build_bundle(seed_x8)
        forms = _pencil_basis(seed_x8)
        assert sextic_space(seed_x8, bundle.v, bundle.w) == CERTIFIED
        oracle = space_through_points(seed_x8, 6, SEXTIC_OPS)
        assert len(oracle) == 4
        for f in forms:
            assert forms_rank(oracle + [f], 6) == forms_rank(oracle, 6)
        for f in (U_FORM**2, U_FORM * bundle.v, bundle.v**2):
            assert f.coeff((0, 0, 6)) == 0
        assert bundle.w.coeff((0, 0, 6)) != 0

    def test_u_form_identities(self):
        # sextic_space takes these as proved: U_FORM(t^3, t, 1) is the zero
        # polynomial, so u vanishes at every seed's points, and U_FORM has no
        # z^3 term, so u vanishes at (0:0:1)
        assert U_FORM.param_eval().is_zero
        assert U_FORM.coeff((0, 0, 3)) == 0

    def test_u_always_in_cubic_kernel(self):
        rng = random.Random(61)
        for _ in range(3):
            seed = random_valid_seed(rng)
            basis = cubic_space(seed)
            assert forms_rank(basis + [U_FORM], 3) == forms_rank(basis, 3)


class TestCubicSpaceCheck:
    """verify_bundle evaluates v at the points, as U_FORM vanishes there; the oracle takes a rank."""

    @staticmethod
    def _cubic_check(bundle):
        return next(c for c in verify_bundle(bundle) if c.name == "cubic_space_dimension")

    @pytest.mark.parametrize("kind", ["small", "int100", "fraction"])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_matches_the_rank_oracle(self, kind, data):
        seed = data.draw(seed_polys(kinds=(kind,)))
        bundle = build_bundle(seed)
        oracle = cubic_space_rank(seed, U_FORM, bundle.v)
        assert oracle.passed
        assert self._cubic_check(bundle) == oracle

    @pytest.mark.parametrize("coeffs", [X8_COEFFS, FIXED_FRACTION_COEFFS], ids=["x8", "fraction"])
    @pytest.mark.parametrize(
        "wrong, passed",
        [
            (lambda u, v: u, True),
            (lambda u, v: v * 2, True),
            (lambda u, v: v + TriPoly.monomial((0, 0, 3)), False),
        ],
        ids=["v_is_u", "v_doubled", "v_off_the_points"],
    )
    def test_mutated_pencil_matches_the_rank_oracle(self, coeffs, wrong, passed):
        # a v in the span passes, dependent on u or not; one off the points fails
        bundle = build_bundle(validate_seed(coeffs))
        mutated = dataclasses.replace(bundle, v=wrong(U_FORM, bundle.v))
        oracle = cubic_space_rank(mutated.h, U_FORM, mutated.v)
        assert oracle.passed is passed
        assert self._cubic_check(mutated) == oracle


SEXTIC_OPS = ["", "x", "y"]
CERTIFIED = Check("sextic_space_dimension", True, {"dimension": 4})

# h = t^8 + 2t^6 + 5t^5 - t^3 + 3t^2 + 8t + 4: its sextic condition matrix
# has rank 20 mod 2 and mod 3, and 24 over Q
RANK_DROP_COEFFS = [4, 8, 3, -1, 0, 5, 2, 0, 1]
# a coefficient with the prime 2^31 - 1 in its denominator
PRIME_DENOMINATOR_COEFFS = [-1, Fraction(1, CERT_PRIME), 0, 0, 0, 0, 0, 0, 1]


def _count_kernel_calls(monkeypatch) -> list[int]:
    """Record every q_kernel_basis call curve makes, by its row count."""
    calls: list[int] = []
    original = curve.q_kernel_basis

    def counted(rows, ncols):
        calls.append(len(rows))
        return original(rows, ncols)

    monkeypatch.setattr(curve, "q_kernel_basis", counted)
    return calls


def _pencil_basis(seed):
    bundle = build_bundle(seed)
    return [U_FORM**2, U_FORM * bundle.v, bundle.v**2, bundle.w]


def _vw(seed):
    bundle = build_bundle(seed)
    return bundle.v, bundle.w


@st.composite
def degenerate_position_seeds(draw):
    """Octics on eight distinct integer roots summing to 0 with a pair {a, -2a}."""
    a = draw(st.integers(-12, 12).filter(bool))
    others = draw(st.lists(st.integers(-25, 25), min_size=5, max_size=5, unique=True))
    roots = [a, -2 * a, *others, a - sum(others)]
    assume(0 not in roots and len(set(roots)) == 8)
    h = UniPoly([1])
    for r in roots:
        h = h * UniPoly([-r, 1])
    return validate_seed(h.coeffs)


class TestSexticCertificate:
    def test_spans_the_exact_kernel(self):
        rng = random.Random(67)
        seeds = [random_valid_seed(rng) for _ in range(10)]
        seeds.append(validate_seed(FIXED_FRACTION_COEFFS))
        seeds.append(validate_seed([rng.getrandbits(100) - 2**99 for _ in range(7)] + [0, 1]))
        for seed in seeds:
            forms = _pencil_basis(seed)
            assert sextic_space(seed, *_vw(seed)) == CERTIFIED
            oracle = space_through_points(seed, 6, SEXTIC_OPS)
            assert forms_rank(forms, 6) == forms_rank(oracle, 6) == forms_rank(forms + oracle, 6) == 4

    @pytest.mark.parametrize("coeffs", [X8_COEFFS, FIXED_FRACTION_COEFFS], ids=["x8", "fraction"])
    def test_certified_path_computes_no_kernel(self, coeffs, monkeypatch):
        seed = validate_seed(coeffs)
        vw = _vw(seed)
        calls = _count_kernel_calls(monkeypatch)
        assert sextic_space(seed, *vw) == CERTIFIED
        assert calls == []

    def test_prime_in_a_denominator_is_certified(self, monkeypatch):
        seed = validate_seed(PRIME_DENOMINATOR_COEFFS)
        vw = _vw(seed)
        calls = _count_kernel_calls(monkeypatch)
        assert sextic_space(seed, *vw) == CERTIFIED
        assert calls == []

    # one control per premise: each breaks it, and the Check fails with the
    # exact kernel's verdict and dimension, though no kernel is computed
    @pytest.mark.parametrize(
        "wrong",
        [
            lambda v, w: (U_FORM, w),
            lambda v, w: (v, w + TriPoly.monomial((0, 0, 6))),
            lambda v, w: (v, U_FORM * U_FORM),
            lambda v, w: (v + TriPoly.monomial((0, 0, 3)), w),
        ],
        ids=["v_is_u", "w_not_in_system", "w_is_u_squared", "v_off_the_points"],
    )
    def test_broken_premise_fails_like_the_kernel(self, wrong, monkeypatch):
        seed = validate_seed(X8_COEFFS)
        v, w = wrong(*_vw(seed))
        oracle = sextic_space_exact(seed, U_FORM, v, w)
        assert not oracle.passed and oracle.witness == {"dimension": 4}
        calls = _count_kernel_calls(monkeypatch)
        check = sextic_space(seed, v, w)
        assert calls == []
        assert (check.name, check.passed, check.witness) == (
            oracle.name, oracle.passed, oracle.witness
        )

    @pytest.mark.parametrize("coeffs", [X8_COEFFS, FIXED_FRACTION_COEFFS], ids=["x8", "fraction"])
    def test_closed_form_columns_match_tripoly_derivatives(self, coeffs):
        h = validate_seed(coeffs)
        ops = ["", "x", "y", "z", "xx", "xy"]
        for degree in (3, 6):
            rows = constraint_rows(h, degree, ops)
            assert len(rows) == len(ops) * h.degree
            for b, op in enumerate(ops):
                block = rows[b * h.degree:(b + 1) * h.degree]
                for col, e in enumerate(curve._monomials(degree)):
                    expected = tri_eval_param(apply_ops(TriPoly.monomial(e), op), h)
                    assert UniPoly([row[col] for row in block]) == expected, (degree, op, e)

    # the lemma in sextic_space's docstring: restricted to the cuspidal
    # cubic, the cubics through the points have dimension 2 and the sextics
    # singular there dimension 4, on every valid seed, general or not
    @settings(max_examples=12, deadline=None)
    @given(st.one_of(seed_polys(), degenerate_position_seeds()))
    @example(validate_seed(RANK_DROP_COEFFS))
    @example(validate_seed(PRIME_DENOMINATOR_COEFFS))
    @example(validate_seed(COLLINEAR_BAD))
    @example(validate_seed(CONIC_BAD))
    @example(validate_seed(SLOW_PATH_GOOD))
    @example(validate_seed(DISTINCT_TRIPLE_BAD))
    def test_dimensions_by_restriction_to_the_cubic(self, seed):
        v, w = _vw(seed)
        assert len(space_through_points(seed, 3, [""])) == 2
        oracle = sextic_space_exact(seed, U_FORM, v, w)
        assert oracle == CERTIFIED
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_kernel_calls(patch)
            assert sextic_space(seed, v, w) == oracle
        assert calls == []


class TestRootScaling:
    """h -> k^8 h(t/k) maps the points by diag(k^3, k, 1): verify verdicts stay."""

    @pytest.mark.parametrize("k", [2, -1, Fraction(1, 3)], ids=["2", "-1", "1/3"])
    @pytest.mark.parametrize(
        "coeffs",
        [X8_COEFFS, COLLINEAR_BAD, CONIC_BAD, SLOW_PATH_GOOD],
        ids=["x8", "collinear_bad", "conic_bad", "slow_path_good"],
    )
    def test_verify_verdicts_unchanged(self, coeffs, k, monkeypatch):
        seed = validate_seed(coeffs)
        base = verify_bundle(build_bundle(seed))
        calls = _count_kernel_calls(monkeypatch)
        scaled = verify_bundle(build_bundle(validate_seed(seed.scale_roots(k).coeffs)))
        assert [(c.name, c.passed) for c in scaled] == [(c.name, c.passed) for c in base]
        # only the cubic system computes a kernel, on fractional
        # coefficients (k = 1/3) too
        assert calls == [8]


class TestMultiplicity:
    def test_worked_seed(self, seed_x8):
        order2, order3 = multiplicity_report(build_bundle(seed_x8))
        assert (order2.name, order3.name) == ("vanishing_to_order_2", "multiplicity_exactly_3")
        assert order2.passed
        assert order2.witness == {"failed_derivative": None}
        assert order3.witness == {"order3_gcd": UniPoly([1])}
        assert order3.passed

    def test_cube_of_pencil_cubic_has_multiplicity_three(self, seed_x8):
        # u^3 vanishes to order exactly 3: its third-order jet at a smooth
        # point of u is (du)^3, which never dies along the parametrization
        bundle = build_bundle(seed_x8)
        order2, order3 = multiplicity_report(dataclasses.replace(bundle, q_form=U_FORM**3))
        assert order2.passed
        assert order3.passed

    def test_higher_order_vanishing_detected(self, seed_x8):
        # u^3 * v vanishes to order >= 4 at every seed point, so the
        # multiplicity-exactly-3 certificate must refuse it
        bundle = build_bundle(seed_x8)
        fake = dataclasses.replace(bundle, q_form=U_FORM**3 * bundle.v)
        order2, order3 = multiplicity_report(fake)
        assert order2.passed
        assert not order3.passed
        assert order3.witness["order3_gcd"] == bundle.h

    def test_first_failing_derivative_is_named(self, seed_x8):
        # u^2 vanishes doubly but its second x-derivative 2 u_x^2 does not
        bundle = build_bundle(seed_x8)
        order2, order3 = multiplicity_report(dataclasses.replace(bundle, q_form=U_FORM**2))
        assert not order2.passed and not order3.passed
        assert order2.witness == {"failed_derivative": "xx"}

    def test_matches_the_xyz_oracle(self):
        # the x/y partials give the same Checks as every x/y/z partial
        bundles = [build_bundle(seed) for seed in oracle_seeds()]
        x8 = build_bundle(validate_seed(X8_COEFFS))
        for q in (U_FORM**2, U_FORM**3, U_FORM**3 * x8.v):
            bundles.append(dataclasses.replace(x8, q_form=q))
        for bundle in bundles:
            got = [(c.name, c.passed, c.witness) for c in multiplicity_report(bundle)]
            want = [(c.name, c.passed, c.witness) for c in multiplicity_report_xyz(bundle)]
            assert got == want

    def test_checks_do_not_see_a_constant_factor_of_q(self):
        # the partials run on d Q, with d the lcm of Q's denominators; the
        # witnesses (the first failing partial, the monic gcd) must agree on
        # every nonzero multiple of Q, integral or not
        x8 = build_bundle(validate_seed(X8_COEFFS))
        bundles = [x8, build_bundle(validate_seed(FIXED_FRACTION_COEFFS))]
        bundles += [dataclasses.replace(x8, q_form=q) for q in (U_FORM**2, U_FORM**3 * x8.v)]
        for bundle in bundles:
            want = [(c.name, c.passed, c.witness) for c in multiplicity_report(bundle)]
            for c in (2, Fraction(-1, 3), 2**100 + 277):
                scaled = dataclasses.replace(bundle, q_form=bundle.q_form * c)
                assert [(k.name, k.passed, k.witness) for k in multiplicity_report(scaled)] == want


class TestGenus:
    def test_branch_model(self):
        assert genus_of_model(9, [3] * 8) == 4

    def test_smooth_quartic(self):
        assert genus_of_model(4, []) == 3

    def test_nodal_cubic(self):
        assert genus_of_model(3, [2]) == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            genus_of_model(0, [])
        with pytest.raises(ValueError):
            genus_of_model(3, [0])


class TestDichotomy:
    def test_ninth_power_detected(self):
        ell = TriPoly({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        check = perfect_power_dichotomy(3 * ell**9)
        assert not check.passed
        assert check.witness == {"verdict": "ninth-power"}
        assert 3 * _nth_root_form(3 * ell**9, 9) ** 9 == 3 * ell**9

    def test_cube_detected(self):
        base = TriPoly({(3, 0, 0): 1, (0, 2, 1): 1})
        check = perfect_power_dichotomy(base**3)
        assert not check.passed
        assert check.witness == {"verdict": "cube"}
        assert _nth_root_form(base**3, 9) is None
        assert _nth_root_form(base**3, 3) ** 3 == base**3

    def test_scaled_and_shuffled_cube(self):
        base = TriPoly({(2, 1, 0): 2, (1, 1, 1): -1, (0, 0, 3): 5})
        check = perfect_power_dichotomy(Fraction(-7, 4) * base**3)
        assert check.witness == {"verdict": "cube"}

    def test_worked_seed_is_neither(self, seed_x8):
        q = build_bundle(seed_x8).q_form
        check = perfect_power_dichotomy(q)
        assert check.passed
        assert check.witness == {"verdict": "neither"}
        assert _nth_root_form(q, 9) is None and _nth_root_form(q, 3) is None

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            perfect_power_dichotomy(TriPoly({(1, 0, 0): 1}))

    # Q's z^9 coefficient is its value at (0:0:1), where grad u = (1, 0, 0),
    # grad v = (h_2, h_0, 0) and grad w has z-entry 6 h_0^2.  The leading
    # exponent (8, 0, 1) is divisible by neither 3 nor 9, so every seed's
    # model is decided "neither" before any coefficient matching.
    @settings(max_examples=20, deadline=None)
    @given(seed_polys())
    def test_model_leading_term_and_ninth_point_value(self, seed):
        q = build_bundle(seed).q_form
        assert q.leading() == ((8, 0, 1), 6)
        assert q.coeff((0, 0, 9)) == 6 * seed.coeff(0)**3


def test_verify_bundle_flags_degenerate_model(seed_x8):
    bundle = build_bundle(seed_x8)
    checks = verify_bundle(dataclasses.replace(bundle, q_form=U_FORM**2))
    assert "model_degree" in [c.name for c in checks if not c.passed]


@pytest.mark.parametrize(
    "model, failed",
    [(U_FORM**2 * TriPoly.monomial((0, 0, 3)), "xx"), (TriPoly.monomial((9, 0, 0)), "value")],
    ids=["u2_z3", "x9"],
)
def test_sextic_premises_do_not_imply_order_2_for_another_q(seed_x8, model, failed):
    # u, v and w are intact, so the sextic premises hold; Q is a degree-9
    # form other than J(u, v, w), and its own partials decide order 2
    bundle = dataclasses.replace(build_bundle(seed_x8), q_form=model)
    checks = {c.name: c for c in verify_bundle(bundle)}
    assert checks["sextic_space_dimension"].passed
    order2 = checks["vanishing_to_order_2"]
    assert not order2.passed and order2.witness == {"failed_derivative": failed}
    want = multiplicity_report_xyz(bundle)
    assert [checks[c.name] for c in want] == want


def test_verify_bundle_flags_w_outside_the_sextic_system(seed_x8):
    # w + z^6 no longer vanishes at the points, so u^2, uv, v^2 and it are
    # not a basis of the system, still of dimension 4
    bundle = build_bundle(seed_x8)
    broken = dataclasses.replace(bundle, w=bundle.w + TriPoly.monomial((0, 0, 6)))
    checks = {c.name: c for c in verify_bundle(broken)}
    assert not checks["sextic_space_dimension"].passed
    assert checks["sextic_space_dimension"].witness == {"dimension": 4}
    assert not checks["w_vanishes_doubly_on_points"].passed
