from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seed_polys
from delpezzo1.curve import amap, build_bundle
from delpezzo1.tripoly import TriPoly
from delpezzo1.unipoly import UniPoly

U = TriPoly({(1, 0, 2): 1, (0, 3, 0): -1})  # x z^2 - y^3


def test_zero_coefficients_never_stored():
    p = TriPoly({(1, 0, 0): 1}) - TriPoly({(1, 0, 0): 1})
    assert p.is_zero and p.terms == {}


def test_derivative():
    assert U.derivative("y") == TriPoly({(0, 2, 0): -3})
    assert U.derivative("x") == TriPoly({(0, 0, 2): 1})
    assert U.derivative("z") == TriPoly({(1, 0, 1): 2})


def test_homogenize_matches_cusp_cubic():
    affine = TriPoly({(1, 0, 0): 1, (0, 3, 0): -1})  # x - y^3
    assert affine.homogenize(3) == U


def test_homogenize_rejects_low_degree():
    with pytest.raises(ValueError):
        TriPoly({(1, 0, 0): 1, (0, 3, 0): -1}).homogenize(2)


def test_homogenize_rejects_z_terms():
    with pytest.raises(ValueError):
        U.homogenize(6)


def test_param_eval_kills_cusp_cubic():
    assert U.param_eval().is_zero


def test_param_eval_plain():
    p = TriPoly({(2, 1, 0): 3, (0, 0, 3): -2})  # 3 x^2 y - 2 z^3
    assert p.param_eval() == UniPoly([-2, 0, 0, 0, 0, 0, 0, 3])


def test_grlex_order_is_canonical():
    p = TriPoly({(0, 0, 2): 1, (1, 1, 0): 2, (0, 2, 0): 3, (2, 0, 0): 4})
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2)]
    assert p.leading() == ((2, 0, 0), Fraction(4))


def test_arithmetic_and_powers():
    v = TriPoly({(3, 0, 0): 1, (0, 2, 1): -1, (0, 1, 2): -1})
    prod = U * v
    assert prod.total_degree == 6
    assert (U + v) - v == U
    assert U**2 == U * U
    assert (2 * U).coeff((1, 0, 2)) == 2


def test_x_degree():
    v = TriPoly({(3, 0, 0): 1, (0, 2, 1): -1})
    assert v.x_degree == 3
    assert U.x_degree == 1


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        TriPoly({(-1, 0, 0): 1})
    with pytest.raises(ValueError):
        TriPoly({(1, 0): 1})


def assert_normal(form: TriPoly):
    """Every stored coefficient is a nonzero int or Fraction, never a float, and an int when integral."""
    for c in form.terms.values():
        assert type(c) in (int, Fraction) and c != 0
        assert (type(c) is int) == (c.denominator == 1)
    assert type(form.coeff((0, 0, 0))) is Fraction
    if form:
        assert type(form.leading()[1]) is Fraction


class TestDerivedFormsStayNormal:
    """Sums, differences, scalar multiples, products, partials and homogenized forms."""

    @settings(max_examples=15, deadline=None)
    @given(seed_polys(), st.sampled_from([2, -1, Fraction(-3, 7)]))
    def test_bundle_forms(self, seed, c):
        bundle = build_bundle(seed)
        forms = [U, bundle.v, bundle.w, bundle.q_form]
        forms += [f.derivative(s) for f in forms for s in "xyz"]
        forms += [amap(UniPoly([0, 1]) * seed).homogenize(3), amap(seed * seed).homogenize(6)]
        for a in forms:
            assert_normal(a)
            assert_normal(c * a)
            assert_normal(a * c)
            assert (a - a).is_zero
        for a, b in combinations(forms, 2):
            assert_normal(a + b)
            assert_normal(a - b)
            assert a - b == a + (-b)
            assert (a + b) - b == a

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * 3),
            st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)),
            max_size=8,
        ),
        st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3), max_size=8),
    )
    def test_cancelling_terms_are_dropped(self, a_terms, b_terms):
        # b shares a's exponents often, so sums and differences cancel terms
        a, b = TriPoly(a_terms), TriPoly(b_terms)
        for form in (a, b, a + b, a - b, b - a, a * b, -a):
            assert_normal(form)
        assert a - b == a + (-b)
        assert (a + b) - b == a
