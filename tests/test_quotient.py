import random

from delpezzo1.quotient import common_factor, qr_reduce, tri_eval_param
from delpezzo1.tripoly import TriPoly
from delpezzo1.unipoly import UniPoly

H8 = UniPoly([-1, -1, 0, 0, 0, 0, 0, 0, 1])


def test_reduce_worked_value():
    f = UniPoly([0, 0, 0, 0, 0, -4, -6, 0, 0, 0, 0, 0, 0, 5])
    assert qr_reduce(f, H8) == UniPoly([0, 0, 0, 0, 0, 1, -1])


def test_reduce_fixes_low_degree():
    f = UniPoly([1, 2, 3, 4, 5, 6, 7, 8])
    assert qr_reduce(f, H8) == f


def test_reduce_kills_multiples():
    g = UniPoly([3, 0, -2, 1])
    assert qr_reduce(H8 * g, H8).is_zero


def test_difference_divisible_by_modulus():
    rng = random.Random(23)
    for _ in range(20):
        f = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 20))])
        r = qr_reduce(f, H8)
        _, rem = (f - r).divrem(H8)
        assert rem.is_zero


def test_ring_homomorphism_properties():
    rng = random.Random(29)
    for _ in range(30):
        f = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 15))])
        g = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 15))])
        red = lambda p: qr_reduce(p, H8)
        assert red(f * g) == red(red(f) * red(g))
        assert red(f + g) == red(f) + red(g)


def test_tri_eval_param_cusp_identity():
    u = TriPoly({(1, 0, 2): 1, (0, 3, 0): -1})
    assert tri_eval_param(u, H8).is_zero
    assert tri_eval_param(u, UniPoly([5, 0, 1])).is_zero  # any modulus


class TestCommonFactor:
    def test_no_nonzero_polynomial_leaves_h(self):
        assert common_factor(H8, [UniPoly(), UniPoly()]) == H8
        assert common_factor(H8, []) == H8

    def test_monic_common_roots_skipping_zeros(self):
        h = UniPoly([-6, 11, -6, 1])  # roots 1, 2, 3
        polys = [UniPoly([10, -15, 5]), UniPoly(), UniPoly([-14, 5, 1])]  # 5(t-1)(t-2), 0, (t-2)(t+7)
        assert common_factor(h, polys) == UniPoly([-2, 1])

    def test_stops_reading_at_degree_zero(self):
        def polys():
            yield H8 * UniPoly([1, 1])
            yield UniPoly([1, 1])  # H8(-1) = 1, so the gcd becomes 1 here
            raise AssertionError("read past a gcd of degree 0")

        assert common_factor(H8, polys()) == UniPoly([1])
