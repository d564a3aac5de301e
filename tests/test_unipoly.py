import math
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import COLLINEAR_BAD, CONIC_BAD, FIXED_FRACTION_COEFFS, X8_COEFFS
from delpezzo1 import curve, unipoly
from delpezzo1.cli import main
from delpezzo1.linalg import bareiss_det
from delpezzo1.unipoly import (
    UniPoly,
    binomial_convolution,
    distinct_pair_power_sums,
    distinct_pair_sum_poly,
    distinct_triple_sum_poly,
    from_power_sums,
    power_sums,
    root_denominator,
    root_sum_poly,
)
from xyz_oracles import (
    binomial_convolution_rebuilt,
    from_power_sums_sliced,
    poly_value,
    power_sums_sliced,
)

H8 = UniPoly([-1, -1, 0, 0, 0, 0, 0, 0, 1])  # t^8 - t - 1

small_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=9
).map(UniPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


def split_poly(roots) -> UniPoly:
    acc = UniPoly([1])
    for r in roots:
        acc = acc * UniPoly([-r, 1])
    return acc


def fraction_long_division(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Schoolbook division over Fraction: the oracle for the integer kernel."""
    rem = list(f.coeffs)
    dd = g.degree
    quot = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        q = rem[i] / g.lc
        quot[i - dd] = q
        for j, b in enumerate(g.coeffs):
            rem[i - dd + j] -= q * b
    return UniPoly(quot), UniPoly(rem[:dd])


def fraction_euclid_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    while not g.is_zero:
        f, g = g, fraction_long_division(f, g)[1]
    return f.monic()


def sylvester_resultant(f: UniPoly, g: UniPoly) -> Fraction:
    """Bareiss determinant of the Sylvester matrix: the oracle for the norm determinant.

    Denominators are cleared per polynomial; the matrix has deg f rows of
    g's coefficients and deg g rows of f's, so a constant argument needs
    no special case.
    """
    df = math.lcm(*(c.denominator for c in f.coeffs))
    dg = math.lcm(*(c.denominator for c in g.coeffs))
    fi = [int(c * df) for c in reversed(f.coeffs)]
    gi = [int(c * dg) for c in reversed(g.coeffs)]
    n, m = f.degree, g.degree
    rows = [[0] * i + fi + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + gi + [0] * (n - 1 - i) for i in range(n)]
    return Fraction(bareiss_det(rows), df**m * dg**n)


# coefficients of the three seed kinds: small, 100-bit, and p/q up to 10^6
coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)
dividends = st.lists(coefficients, max_size=14).map(UniPoly)
divisors = st.lists(coefficients, min_size=1, max_size=9).map(UniPoly).filter(bool)


class TestArithmetic:
    # f + r shares f's leading terms whenever r is shorter, so f - (f + r)
    # cancels them and must trim the trailing zeros down to -r
    @given(dividends, dividends)
    @example(UniPoly([1, 2, 3]), UniPoly([4]))
    @example(UniPoly([1, 2]), UniPoly([0, 0, 0, 5]))
    @settings(max_examples=100, deadline=None)
    def test_difference_is_sum_with_negation(self, f, r):
        for g in (r, f + r):
            d = f - g
            assert d == f + (-g)
            assert all(type(c) is Fraction for c in d.coeffs)
            assert d.is_zero or d.lc != 0
        assert f - (f + r) == -r


class TestDivrem:
    def test_single_step_long_division(self):
        q, r = UniPoly([0] * 8 + [1]).divrem(H8)
        assert q == UniPoly([1])
        assert r == UniPoly([1, 1])  # t + 1

    def test_degree_below_divisor(self):
        f = UniPoly([3, 1])
        q, r = f.divrem(UniPoly([0, 0, 1]))
        assert q.is_zero and r == f

    def test_reduction_through_t13(self):
        f = UniPoly([0, 0, 0, 0, 0, -4, -6, 0, 0, 0, 0, 0, 0, 5])
        _, r = f.divrem(H8)
        assert r == UniPoly([0, 0, 0, 0, 0, 1, -1])  # -t^6 + t^5

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            UniPoly([1, 1]).divrem(UniPoly())
        with pytest.raises(ZeroDivisionError):
            H8 % UniPoly()
        with pytest.raises(ZeroDivisionError):
            H8.exact_div(UniPoly())

    @given(small_polys, nonzero_polys)
    @settings(max_examples=200, deadline=None)
    def test_recomposition(self, f, g):
        q, r = f.divrem(g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree

    # rational and non-monic divisors, deg f < deg g, tall coefficients;
    # the example's monic divisor t^2 + t/6 - 1/35 has c = 210
    @given(dividends, divisors)
    @example(
        UniPoly([Fraction(1, 4), 0, -5, Fraction(2, 3), 0, 11]),
        UniPoly([Fraction(-3, 5), Fraction(7, 2), 21]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_long_division(self, f, g):
        assert f.divrem(g) == fraction_long_division(f, g)
        assert f % g == fraction_long_division(f, g)[1]

    @given(dividends, divisors)
    @settings(max_examples=100, deadline=None)
    def test_exact_remainder(self, q, g):
        assert (q * g).divrem(g) == (q, UniPoly())
        assert (q * g).exact_div(g) == q

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            H8.exact_div(UniPoly([-1, 1]))
        with pytest.raises(ArithmeticError):
            UniPoly([1, 0, 1]).exact_div(UniPoly([0, 2]))


class TestGcd:
    def test_common_linear_factor(self):
        assert UniPoly([-1, 0, 1]).gcd(UniPoly([-1, 1])) == UniPoly([-1, 1])

    def test_squarefree_seed(self):
        assert H8.gcd(H8.derivative()) == UniPoly([1])

    def test_gcd_with_zero_is_monic(self):
        assert UniPoly([2, 4]).gcd(UniPoly()) == UniPoly([Fraction(1, 2), 1])

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            UniPoly().gcd(UniPoly())

    @given(dividends, divisors)
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_euclid(self, f, g):
        common = g.monic() if g.degree else UniPoly([1, 1])
        assert (f * common).gcd(g * common) == fraction_euclid_gcd(f * common, g * common)
        assert f.gcd(g) == fraction_euclid_gcd(f, g)


FALLBACK_COEFFS = [  # roots 1, 1 + p, 16, 25, 19, 13, 5, -80 - p for p = 2^31 - 1
    -2278172976910826471424000, 3262468218463381668199760, -1135198836998863034596437,
    161621154147402497519384, -11077270223764790345069, 364323208858209246296,
    -4611686188078599935, 0, 1,
]


def _count_divisions(monkeypatch) -> list:
    calls = []
    original = UniPoly.divrem

    def counted(self, divisor):
        calls.append(divisor.degree)
        return original(self, divisor)

    monkeypatch.setattr(UniPoly, "divrem", counted)
    return calls


class TestGcdCertificate:
    def test_certified_path_runs_no_euclid(self, monkeypatch):
        calls = _count_divisions(monkeypatch)
        h = curve.validate_seed(FIXED_FRACTION_COEFFS)
        assert h.gcd(h.derivative()) == UniPoly([1])
        assert H8.gcd(H8.reflect()) == UniPoly([1])
        assert calls == []

    @pytest.mark.parametrize(
        ("f", "g", "expected"),
        [
            # p divides a denominator
            (
                split_poly([Fraction(1, unipoly.CERT_PRIME), 2]),
                split_poly([Fraction(1, unipoly.CERT_PRIME), -5]),
                UniPoly([Fraction(-1, unipoly.CERT_PRIME), 1]),
            ),
            # the leading coefficient of g vanishes mod p: g is 1 mod p, yet
            # f = t g shares the root -1/p with it
            (
                UniPoly([0, 1, unipoly.CERT_PRIME]),
                UniPoly([1, unipoly.CERT_PRIME]),
                UniPoly([Fraction(1, unipoly.CERT_PRIME), 1]),
            ),
            # a root shared only mod p
            (split_poly([1, 3]), split_poly([1 + unipoly.CERT_PRIME]), UniPoly([1])),
        ],
        ids=["denominator", "leading_coefficient", "root_only_mod_p"],
    )
    def test_fallback_cases(self, f, g, expected, monkeypatch):
        assert not unipoly._coprime_mod_p(f, g)
        calls = _count_divisions(monkeypatch)
        assert f.gcd(g) == expected == fraction_euclid_gcd(f, g)
        assert calls

    def test_squarefree_seed_split_mod_p_takes_the_exact_gcd(self, monkeypatch):
        # roots 1 and 1 + p meet mod p, so h mod p is not squarefree
        h = UniPoly(FALLBACK_COEFFS)
        assert not unipoly._coprime_mod_p(h, h.derivative())
        calls = _count_divisions(monkeypatch)
        assert curve.validate_seed(FALLBACK_COEFFS) == h
        assert calls

    @pytest.mark.parametrize("p", [2, 3])
    def test_small_primes_give_the_same_gcds(self, p, monkeypatch):
        rng = random.Random(p)
        pairs = []
        for coeffs in (X8_COEFFS, FIXED_FRACTION_COEFFS, COLLINEAR_BAD, CONIC_BAD, FALLBACK_COEFFS):
            h = UniPoly(coeffs)
            pairs += [(h, h.derivative()), (h, h.reflect())]
        for _ in range(40):
            common = split_poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 2))])
            pairs.append((
                common * UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 5))] + [rng.choice([1, 2, 3, 6])]),
                common * UniPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(4)] + [1]),
            ))
        monkeypatch.setattr(unipoly, "CERT_PRIME", p)
        for f, g in pairs:
            assert f.gcd(g) == fraction_euclid_gcd(f, g)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "coeffs",
        [X8_COEFFS, FIXED_FRACTION_COEFFS, COLLINEAR_BAD, CONIC_BAD],
        ids=["x8", "fraction", "collinear_bad", "conic_bad"],
    )
    def test_small_primes_give_the_same_bytes(self, coeffs, p, monkeypatch, capsys):
        argv = ["verify", "--poly", ",".join(map(str, coeffs))]
        base_code = main(argv)
        base = capsys.readouterr().out
        monkeypatch.setattr(unipoly, "CERT_PRIME", p)
        assert main(argv) == base_code
        assert capsys.readouterr().out == base


class TestResultant:
    def test_worked_quadratic(self):
        assert UniPoly([-1, 0, 1]).resultant(UniPoly([-2, 1])) == 3

    def test_constant_second_argument(self):
        f = UniPoly([1, 2, 0, 7])
        assert f.resultant(UniPoly([5])) == 125

    def test_shared_factor_gives_zero(self):
        f = UniPoly([-1, 1]) * UniPoly([3, 1])
        g = UniPoly([-1, 1]) * UniPoly([5, 1])
        assert f.resultant(g) == 0

    def test_product_formula_on_split_inputs(self):
        rng = random.Random(11)
        for _ in range(25):
            roots = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
            lead = rng.choice([1, 2, -3])
            f = lead * split_poly(roots)
            g = UniPoly([rng.randint(-5, 5) for _ in range(rng.randint(2, 5))])
            if g.is_zero:
                continue
            expected = Fraction(lead) ** g.degree
            for r in roots:
                expected *= poly_value(g, r)
            assert f.resultant(g) == expected

    def test_zero_iff_gcd_nonconstant(self):
        rng = random.Random(5)
        for _ in range(60):
            f = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 6))])
            g = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 6))])
            if f.is_zero or g.is_zero:
                continue
            if f.degree == 0 or g.degree == 0:
                continue
            vanishes = f.resultant(g) == 0
            assert vanishes == (f.gcd(g).degree >= 1)

    def test_large_degree_path_matches_sympy(self):
        import sympy as sp

        t = sp.Symbol("t")
        rng = random.Random(3)
        big = UniPoly([rng.randint(-9, 9) for _ in range(30)] + [1])
        val = H8.resultant(big)
        f_s = sum(int(c) * t**i for i, c in enumerate(H8.coeffs))
        g_s = sum(
            sp.Rational(c.numerator, c.denominator) * t**i
            for i, c in enumerate(big.coeffs)
        )
        assert val == sp.Rational(sp.resultant(f_s, g_s, t))
        assert big.resultant(H8) == sp.Rational(sp.resultant(g_s, f_s, t))

    def test_zero_argument_rejected(self):
        with pytest.raises(ValueError):
            H8.resultant(UniPoly())

    # rational non-monic arguments in both degree orders, constants included
    @given(divisors, st.lists(coefficients, min_size=1, max_size=14).map(UniPoly).filter(bool))
    @example(UniPoly([5]), UniPoly([Fraction(-2, 3)]))
    @example(UniPoly([Fraction(3, 4)]), H8)
    @example(H8, UniPoly([Fraction(3, 4)]))
    @example(UniPoly([Fraction(1, 6), Fraction(-5, 12), 0, 7]), UniPoly([Fraction(2, 9), -3]))
    @settings(max_examples=300, deadline=None)
    def test_matches_sylvester_oracle_and_antisymmetry(self, f, g):
        value = f.resultant(g)
        assert value == sylvester_resultant(f, g)
        assert value == (-1) ** (f.degree * g.degree) * g.resultant(f)

    @given(divisors, divisors, coefficients)
    @settings(max_examples=100, deadline=None)
    def test_shared_root_gives_zero(self, f, g, root):
        factor = UniPoly([-root, 1])
        assert (f * factor).resultant(g * factor) == 0
        assert (g * factor).resultant(f * factor) == 0


class TestDiscriminant:
    def test_quadratic_closed_form(self):
        rng = random.Random(2)
        for _ in range(20):
            b, c = rng.randint(-9, 9), rng.randint(-9, 9)
            assert UniPoly([c, b, 1]).discriminant() == b * b - 4 * c

    def test_repeated_root(self):
        assert (UniPoly([-1, 1]) * UniPoly([-1, 1])).discriminant() == 0

    def test_seed_value_is_nonsquare(self):
        from delpezzo1.linalg import frac_is_square

        d = H8.discriminant()
        assert d == -17600759
        assert not frac_is_square(d)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            UniPoly([1, 1]).discriminant()


class TestScaleRoots:
    def test_doubling(self):
        assert UniPoly([-1, 0, 1]).scale_roots(2) == UniPoly([-4, 0, 1])

    def test_identity(self):
        assert H8.scale_roots(1) == H8

    def test_seed_by_three(self):
        assert H8.scale_roots(3) == UniPoly([-(3**8), -(3**7), 0, 0, 0, 0, 0, 0, 1])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            H8.scale_roots(0)

    def test_substitution_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            h = UniPoly([rng.randint(-5, 5) for _ in range(6)] + [1])
            k = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled = h.scale_roots(k)
            # scaled(k*t) must equal k^deg * h(t)
            lhs = UniPoly(
                [c * k**i for i, c in enumerate(scaled.coeffs)]
            )
            rhs = k**h.degree * h
            assert lhs == rhs


class TestPowerSums:
    def test_known_roots(self):
        f = split_poly([2, 3])
        assert power_sums(f, 3) == [2, 5, 13, 35]

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(15):
            roots = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
            f = split_poly(roots)
            ps = power_sums(f, f.degree)
            assert from_power_sums(ps) == f
        for _ in range(15):
            # rational roots: the integer kernel sees them scaled by D
            roots = [Fraction(rng.randint(-9, 9), rng.choice([2, 3, 7, 30])) for _ in range(4)]
            f = split_poly(roots)
            d = root_denominator(f)
            ps = power_sums(f.scale_roots(d), f.degree)
            assert from_power_sums(ps).scale_roots(Fraction(1, d)) == f
            assert root_sum_poly(f, UniPoly([0, 1])) == f

    def test_rational_monic_form_rejected(self):
        with pytest.raises(ValueError):
            power_sums(UniPoly([Fraction(1, 2), 0, 1]), 3)

    def test_inexact_newton_division_raises(self):
        # p = (2, 1, 0) at degree 2 forces e2 = (p1^2 - p2) / 2 = 1/2
        with pytest.raises(ArithmeticError):
            from_power_sums([2, 1, 0])


big_ints = st.integers(min_value=-(2**200), max_value=2**200)
# the length drawn first, so that long lists are as likely as short ones
big_int_lists = st.integers(1, 70).flatmap(lambda n: st.lists(big_ints, min_size=n, max_size=n))


def _newton_outcome(fn, ps):
    try:
        return fn(ps)
    except ArithmeticError as exc:
        return ("ArithmeticError", str(exc))


@st.composite
def newton_inputs(draw):
    """Power sums of a monic integer polynomial, one of them perturbed, or any ints."""
    kind = draw(st.sampled_from(["exact", "perturbed", "arbitrary"]))
    if kind == "arbitrary":
        return draw(big_int_lists)
    n = draw(st.integers(1, 30))
    coeffs = draw(st.lists(st.integers(-(2**20), 2**20), min_size=n, max_size=n))
    ps = power_sums_sliced(UniPoly([*coeffs, 1]), len(coeffs))
    if kind == "perturbed":
        k = draw(st.integers(0, len(ps) - 1))
        ps[k] += draw(st.integers(1, 6))
    return ps


class TestKernelOracles:
    """The cached, symmetric and slice-free kernels against the rebuilt and sliced loops."""

    @settings(max_examples=60, deadline=None)
    @given(big_int_lists)
    def test_self_convolution(self, ps):
        expected = binomial_convolution_rebuilt(ps, ps)
        assert binomial_convolution(ps, ps) == expected
        assert binomial_convolution(ps, list(ps)) == expected

    @settings(max_examples=60, deadline=None)
    @given(big_int_lists, st.randoms(use_true_random=False))
    def test_convolution_of_two_sequences(self, pf, rng):
        pg = [rng.randint(-(2**200), 2**200) for _ in pf]
        assert binomial_convolution(pf, pg) == binomial_convolution_rebuilt(pf, pg)

    @settings(max_examples=60, deadline=None)
    @given(big_int_lists, st.sampled_from([-2, -1, 0, 1, 5]))
    @example([3], -1)
    @example([0, -1], 0)
    def test_power_sums(self, coeffs, offset):
        # count below, equal to and above the degree n = len(coeffs)
        f = UniPoly([*coeffs, 1])
        count = max(0, f.degree + offset)
        assert power_sums(f, count) == power_sums_sliced(f, count)

    @settings(max_examples=100, deadline=None)
    @given(newton_inputs())
    @example([2, 1, 0])
    @example([1])
    def test_from_power_sums_raises_where_the_oracle_does(self, ps):
        assert _newton_outcome(from_power_sums, ps) == _newton_outcome(from_power_sums_sliced, ps)

    def test_rows_are_pascals_triangle(self):
        rows = unipoly._binomial_rows(12)
        assert rows == tuple(tuple(math.comb(k, i) for i in range(k + 1)) for k in range(12))
        assert unipoly._binomial_rows(0) == ()
        assert binomial_convolution([], []) == []

    def test_import_builds_no_rows(self):
        # no import-time work: the cache fills inside the first call
        code = (
            "import delpezzo1.unipoly as u\n"
            "print(u._binomial_rows.cache_info().currsize)\n"
            "rows = u._binomial_rows(4)\n"
            "print(type(rows).__name__, sorted({type(r).__name__ for r in rows}), rows[-1])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0", "tuple ['tuple'] (1, 3, 3, 1)"]


class TestRootSumPoly:
    def test_power_sums_match_brute_force(self):
        rng = random.Random(19)
        for _ in range(10):
            rf = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
            rg = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
            count = rng.randint(0, 12)
            brute = [sum((a + b) ** k for a in rf for b in rg) for k in range(count + 1)]
            pf, pg = power_sums(split_poly(rf), count), power_sums(split_poly(rg), count)
            assert binomial_convolution(pf, pg) == brute

    def test_split_inputs(self):
        f = split_poly([1, 2])
        g = split_poly([3, 5])
        assert root_sum_poly(f, g) == split_poly([4, 6, 5, 7])

    def test_multiplicity_counted(self):
        f = split_poly([1, 1])
        g = split_poly([0, 2])
        assert root_sum_poly(f, g) == split_poly([1, 1, 3, 3])

    def test_matches_resultant_definition(self):
        # Res_t(f(t), g(s0 - t)) = lc(f)^m lc(g)^n rs(s0), n = deg f, m = deg g
        rng = random.Random(17)

        def rational():
            return Fraction(rng.randint(-30, 30), rng.choice([1, 4, 6, 10, 14, 45, 63, 210]))

        monic = [
            (
                UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]),
                UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]),
            )
            for _ in range(10)
        ]
        rational_pairs = [
            (
                UniPoly([rational() for _ in range(rng.randint(1, 4))] + [Fraction(-3, 7)]),
                UniPoly([rational() for _ in range(rng.randint(1, 4))] + [Fraction(10, 9)]),
            )
            for _ in range(10)
        ]
        for f, g in monic + rational_pairs:
            rs = root_sum_poly(f, g)
            assert rs.degree == f.degree * g.degree
            for s0 in (0, 1, -2, Fraction(5, 6)):
                shifted, power = UniPoly(), UniPoly([1])
                for c in g.coeffs:
                    shifted = shifted + c * power
                    power = power * UniPoly([s0, -1])
                expected = f.resultant(shifted)
                assert poly_value(rs, s0) * f.lc**g.degree * g.lc**f.degree == expected


int_roots = st.lists(st.integers(-40, 40), min_size=1, max_size=8)
rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 7, 12, 30]))
rational_roots = st.lists(rationals, min_size=1, max_size=8)


class TestDistinctPairSumPoly:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(int_roots, rational_roots))
    def test_matches_product_over_distinct_pairs(self, roots):
        # pairs are taken by position, so repeated roots count once per pair of copies
        brute = split_poly([a + b for i, a in enumerate(roots) for b in roots[i + 1 :]])
        assert distinct_pair_sum_poly(split_poly(roots)) == brute

    def test_degree_and_rational_leading_coefficient(self):
        f = Fraction(-3, 7) * split_poly([1, Fraction(1, 2), -4])
        assert distinct_pair_sum_poly(f) == split_poly([Fraction(3, 2), -3, Fraction(-7, 2)])
        assert distinct_pair_sum_poly(H8).degree == 28

    def test_odd_halving_numerator_raises(self):
        # root power sums (2, 0) with fabricated ordered pair sums (2, 1):
        # (1 - 2 * 0) / 2 is not an integer
        with pytest.raises(ArithmeticError):
            distinct_pair_power_sums([2, 1], [2, 0])
        ps = power_sums(split_poly([3, -5]), 1)
        assert distinct_pair_power_sums(binomial_convolution(ps, ps), ps) == [1, -2]


class TestDistinctTripleSumPoly:
    # the product of (t - (a+b+c)) over the C(8, 3) = 56 triples, expanded in Fractions
    ROOT_SETS = {
        "integer": [1, -3, 5, 8, 13, -21, 34, -6],
        "rational, D > 1": [Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 6), -11, Fraction(3, 7), 4, Fraction(-9, 14)],
        "pair {a, -2a}": [3, -6, 1, 10, 17, -23, 29, 41],
        "rational pair {a, -2a}": [Fraction(2, 5), Fraction(-4, 5), 1, 6, Fraction(-7, 3), 11, Fraction(13, 2), -19],
        "zero-sum triple": [2, 5, -7, 11, 19, -30, 43, 57],
    }

    @pytest.mark.parametrize("roots", ROOT_SETS.values(), ids=list(ROOT_SETS))
    def test_matches_product_over_distinct_triples(self, roots):
        brute = split_poly([a + b + c for a, b, c in combinations(roots, 3)])
        g = distinct_triple_sum_poly(split_poly(roots))
        assert g == brute
        assert g.degree == 56
        assert (g.coeff(0) == 0) == any(a + b + c == 0 for a, b, c in combinations(roots, 3))

    def test_root_sets_cover_the_cases(self):
        sets = self.ROOT_SETS
        assert root_denominator(split_poly(sets["rational, D > 1"])) > 1
        assert root_denominator(split_poly(sets["rational pair {a, -2a}"])) > 1
        for name in ("pair {a, -2a}", "rational pair {a, -2a}"):
            assert any(-2 * a in sets[name] for a in sets[name]), name
        for name in ("integer", "rational, D > 1"):
            assert not any(-2 * a in sets[name] for a in sets[name]), name

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(int_roots, rational_roots), st.sampled_from([1, -2, Fraction(3, 7)]))
    def test_repeated_roots_count_by_position(self, roots, lead):
        brute = split_poly([a + b + c for a, b, c in combinations(roots, 3)])
        assert distinct_triple_sum_poly(split_poly(roots) * lead) == brute

    # distinct_triple_sum_poly reads the power sums of h3 = f.scale_roots(3),
    # whose roots are the 3a, as 3^k p_k
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(st.integers(-40, 40), rationals), min_size=1, max_size=8))
    def test_power_sums_of_the_tripled_roots(self, coeffs):
        f = UniPoly(coeffs + [1])
        f_d = f.scale_roots(root_denominator(f))
        ps = power_sums(f_d, 56)
        assert [3**k * p for k, p in enumerate(ps)] == power_sums(f_d.scale_roots(3), 56)


def test_operations_are_deterministic():
    a = H8.resultant(UniPoly([3, 1, 4, 1, 5, 9, 2, 6]))
    b = H8.resultant(UniPoly([3, 1, 4, 1, 5, 9, 2, 6]))
    assert a == b
    assert repr(root_sum_poly(H8, H8)) == repr(root_sum_poly(H8, H8))
