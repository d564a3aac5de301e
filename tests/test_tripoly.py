from fractions import Fraction

import pytest

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
