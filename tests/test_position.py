import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    COLLINEAR_BAD,
    CONIC_BAD,
    DISTINCT_TRIPLE_BAD,
    SLOW_PATH_GOOD,
    X8_COEFFS,
    float_position_oracle,
    position_verdicts,
    random_valid_seed,
    seed_polys,
)
from delpezzo1.curve import U_FORM, build_v, validate_seed
from delpezzo1.position import (
    check_singular_cubic,
    check_six_conic,
    check_three_collinear,
    position_checks,
)
from delpezzo1.quotient import common_factor, tri_eval_param
from delpezzo1.tripoly import TriPoly
from xyz_oracles import check_singular_cubic_xyz, oracle_seeds
from delpezzo1.unipoly import UniPoly, distinct_pair_sum_poly, root_sum_poly


class TestCollinear:
    def test_worked_seed_fast_path(self, seed_x8):
        check = check_three_collinear(seed_x8)
        assert check.passed
        assert check.witness["path"] == "fast"
        assert check.witness["triple_product"] != 0

    def test_seeded_zero_sum_triple_fails(self):
        seed = validate_seed(COLLINEAR_BAD)
        check = check_three_collinear(seed)
        assert not check.passed
        assert check.witness["path"] == "deflated"
        assert check.witness["distinct_triple_product"] == 0

    def test_degenerate_triple_forces_slow_path_but_passes(self):
        seed = validate_seed(SLOW_PATH_GOOD)
        check = check_three_collinear(seed)
        assert check.passed
        assert check.witness["path"] == "deflated"
        assert check.witness["distinct_triple_product"] != 0

    def test_deflation_bookkeeping_degrees(self):
        seed = validate_seed(SLOW_PATH_GOOD)
        degrees = check_three_collinear(seed).witness["degrees"]
        assert degrees == {
            "triple_sums": 512,
            "degenerate_pairs": 64,
            "triple_roots": 8,
            "distinct_triples": 336,
        }

    def test_deflated_value_against_brute_force(self):
        # SLOW_PATH_GOOD splits over Z, so the product of -(a+b+c) over
        # all 336 ordered triples of distinct roots is computable directly
        roots = [1, -2, 4, 11, 23, -7, -13, -17]
        seed = validate_seed(SLOW_PATH_GOOD)
        brute = 1
        for a in roots:
            for b in roots:
                for c in roots:
                    if a != b and b != c and a != c:
                        brute *= -(a + b + c)
        check = check_three_collinear(seed)
        assert check.witness["distinct_triple_product"] == brute

    def test_distinct_zero_triple_is_caught_by_the_pair_factor(self):
        h = validate_seed(DISTINCT_TRIPLE_BAD)
        assert h.resultant(h.scale_roots(-2)) != 0
        assert h.resultant(distinct_pair_sum_poly(h).reflect()) == 0
        check = check_three_collinear(validate_seed(DISTINCT_TRIPLE_BAD))
        assert not check.passed
        assert check.witness["path"] == "deflated"
        assert check.witness["distinct_triple_product"] == 0


class TestFastPathFactorization:
    """T(0) = Res(h, h.scale_roots(-2)) * Res(h, P2(-t))^2 against the degree-64 form."""

    @settings(max_examples=30, deadline=None)
    @given(seed_polys())
    def test_triple_product_matches_ordered_pair_sums(self, h):
        expected = h.resultant(root_sum_poly(h, h).reflect())
        check = check_three_collinear(h)
        if check.witness["path"] == "fast":
            assert check.witness["triple_product"] == expected
        else:
            assert expected == 0


@st.composite
def degenerate_root_sets(draw):
    """Eight distinct nonzero integers summing to zero, with a pair {a, -2a}."""
    a = draw(st.integers(-12, 12).filter(bool))
    others = st.integers(-30, 30).filter(bool)
    rest = draw(st.lists(others, min_size=5, max_size=5, unique=True))
    roots = [a, -2 * a, *rest]
    roots.append(-sum(roots))
    assume(0 not in roots and len(set(roots)) == 8)
    return roots


class TestDeflatedProperty:
    @settings(max_examples=20, deadline=None)
    @given(degenerate_root_sets())
    def test_matches_brute_force_over_distinct_triples(self, roots):
        h = prod(UniPoly([-r, 1]) for r in roots)
        check = check_three_collinear(validate_seed(h.coeffs))
        sums = [a + b + c for a, b, c in combinations(roots, 3)]
        assert check.witness["path"] == "deflated"
        assert check.passed == all(sums)
        assert check.witness["distinct_triple_product"] == prod(sums) ** 6
        assert check.witness["degrees"] == {
            "triple_sums": 512,
            "degenerate_pairs": 64,
            "triple_roots": 8,
            "distinct_triples": 336,
        }


class TestRootScaling:
    """h -> k^8 h(t/k) maps the points by diag(k^3, k, 1): verdicts stay."""

    @pytest.mark.parametrize("k", [2, -1, Fraction(1, 3)], ids=["2", "-1", "1/3"])
    @pytest.mark.parametrize(
        "coeffs",
        [X8_COEFFS, COLLINEAR_BAD, CONIC_BAD, SLOW_PATH_GOOD],
        ids=["x8", "collinear_bad", "conic_bad", "slow_path_good"],
    )
    def test_verdicts_and_witness_scaling(self, coeffs, k):
        seed = validate_seed(coeffs)
        scaled_seed = validate_seed(seed.scale_roots(k).coeffs)
        base = position_checks(seed, build_v(seed))
        scaled = position_checks(scaled_seed, build_v(scaled_seed))
        assert [c.passed for c in scaled] == [c.passed for c in base]
        before, after = base[0].witness, scaled[0].witness
        assert after["path"] == before["path"]
        if before["path"] == "fast":
            assert after["triple_product"] == k**512 * before["triple_product"]
        else:
            assert after["distinct_triple_product"] == k**336 * before["distinct_triple_product"]


class TestConic:
    def test_worked_seed(self, seed_x8):
        assert check_six_conic(seed_x8).passed

    def test_seeded_plus_minus_pair_fails(self):
        seed = validate_seed(CONIC_BAD)
        check = check_six_conic(seed)
        assert not check.passed
        # the witness factor is (t - 2)(t + 2), from the paired roots 2 and -2
        assert check.witness["paired_root_factor"] == UniPoly([-4, 0, 1])

    def test_even_polynomial_fails(self):
        seed = validate_seed([4, 0, -5, 0, 1, 0, 0, 0, 1])
        # h(t) = t^8 + t^4 - 5 t^2 + 4 pairs every root with its negative
        check = check_six_conic(seed)
        assert not check.passed
        assert check.witness["paired_root_factor"].degree == 8


class TestSingularCubic:
    def test_worked_seed(self, seed_x8):
        assert check_singular_cubic(seed_x8, build_v(seed_x8)).passed

    def test_gradient_row_of_cusp_cubic(self, seed_x8):
        h = seed_x8
        row = [tri_eval_param(U_FORM.derivative(s), h) for s in ("x", "y", "z")]
        assert row[0] == UniPoly([1])
        assert row[1] == UniPoly([0, 0, -3])
        assert row[2] == UniPoly([0, 0, 0, 2])

    def test_degenerate_pencil_fails(self, seed_x8):
        check = check_singular_cubic(seed_x8, U_FORM)
        assert not check.passed
        assert check.witness["dependent_gradient_factor"] == seed_x8

    def test_matches_the_three_minor_oracle(self):
        # one x/y minor gives the same Check as all three x/y/z minors
        for seed in oracle_seeds():
            cubic = build_v(seed)
            for v in (cubic, U_FORM, cubic * 2, cubic + U_FORM):
                got, want = check_singular_cubic(seed, v), check_singular_cubic_xyz(seed, v)
                assert (got.name, got.passed, got.witness) == (want.name, want.passed, want.witness)

    @settings(max_examples=25, deadline=None)
    @given(seed_polys(), st.lists(st.integers(-5, 5), min_size=10, max_size=10))
    def test_parametric_derivative_is_the_gradient_minor(self, h, coeffs):
        # d/dt v(t^3, t, 1) = u_x v_y - u_y v_x at the points, for any cubic v
        mons = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]
        v = TriPoly(dict(zip(mons, coeffs)))
        ux, uy = (tri_eval_param(U_FORM.derivative(s), h) for s in "xy")
        vx, vy = (tri_eval_param(v.derivative(s), h) for s in "xy")
        g = common_factor(h, [(ux * vy - uy * vx) % h])
        assert check_singular_cubic(h, v).witness == {"dependent_gradient_factor": g}


class TestNegativeControlsAreIsolated:
    def test_collinear_control_fails_only_collinearity(self):
        report = position_verdicts(validate_seed(COLLINEAR_BAD))
        assert report == {"collinear": False, "conic": True, "singular_cubic": True}

    def test_conic_control_fails_only_conic(self):
        report = position_verdicts(validate_seed(CONIC_BAD))
        assert report == {"collinear": True, "conic": False, "singular_cubic": True}

    def test_slow_path_seed_passes_everything(self):
        assert all(position_verdicts(validate_seed(SLOW_PATH_GOOD)).values())


class TestFloatingOracleAgreement:
    def test_worked_seed(self, seed_x8):
        oracle = float_position_oracle(seed_x8)
        assert oracle == {"collinear": True, "conic": True, "singular_cubic": True}

    def test_controls_agree(self):
        for coeffs in (COLLINEAR_BAD, CONIC_BAD, SLOW_PATH_GOOD):
            seed = validate_seed(coeffs)
            assert float_position_oracle(seed) == position_verdicts(seed)

    def test_random_seeds_agree(self):
        rng = random.Random(20240817)
        for _ in range(12):
            seed = random_valid_seed(rng)
            assert float_position_oracle(seed) == position_verdicts(seed), seed
