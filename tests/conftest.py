"""Shared fixtures: the worked seed, frozen control seeds, random seed helpers.

Control seeds are frozen from explicit root sets so each one violates
exactly one general-position condition (or none, while still forcing the
deflated collinearity path):

* COLLINEAR_BAD   roots 1, 2, -3, 4, 5, 6, -7, -8   (1 + 2 - 3 = 0)
* CONIC_BAD       roots 2, -2, 1, 5, 24, -4, -11, -15   (2 + -2 = 0)
* SLOW_PATH_GOOD  roots 1, -2, 4, 11, 23, -7, -13, -17  (2*1 + -2 = 0 only)
* DISTINCT_TRIPLE_BAD  roots -10, -7, -5, -4, -2, 6, 9, 13  (-4 + -2 + 6 = 0,
  no pair {a, -2a}: the fast path's first factor is nonzero, its second zero)
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from delpezzo1.curve import SeedError, validate_seed
from delpezzo1.unipoly import UniPoly

X8_COEFFS = [-1, -1, 0, 0, 0, 0, 0, 0, 1]

COLLINEAR_BAD = [-40320, 61104, -15508, -8340, 3009, 156, -102, 0, 1]
CONIC_BAD = [316800, -264240, -145924, 78300, 18609, -3060, -486, 0, 1]
SLOW_PATH_GOOD = [3131128, -1896786, -1542811, 239940, 71151, -2034, -589, 0, 1]
DISTINCT_TRIPLE_BAD = [-1965600, -1647480, -268852, 64734, 16371, -534, -240, 0, 1]

# the fractional seed the benchmark's verify workload always includes
FIXED_FRACTION_COEFFS = ["1/6", "-5/12", "7/10", "3/4", "-3/5", "1/15", "2/3", "0", "1"]

# Seeds at validate_seed's height cap of 104 bits, and one bit over it: an
# integer seed, and five coprime denominators near 2^30 (of the p/q shapes
# tried, the one whose witnesses grow fastest per bit of height).
INT_AT_CAP = [-(2**103 + 1), 2**103 + 3, -(2**103 + 5), 2**103 + 7, -(2**103 + 9), 2**103 + 11, -(2**103 + 13), 0, 1]
INT_OVER_CAP = [-(2**104 + 1), *INT_AT_CAP[1:]]
FRACTION_AT_CAP = ["1/2147483654", "1/1073741831", "-1/1073741839", "1/1073741843", "-1/1073741851", "1", "-1", "0", "1"]
FRACTION_OVER_CAP = ["1/4294967308", *FRACTION_AT_CAP[1:]]


@pytest.fixture
def seed_x8() -> UniPoly:
    return validate_seed(X8_COEFFS)


def random_valid_seed(rng: random.Random, bound: int = 9) -> UniPoly:
    """Random normalized octic with small integer coefficients."""
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(7)] + [0, 1]
        if coeffs[0] == 0:
            continue
        try:
            return validate_seed(coeffs)
        except SeedError:
            continue


@st.composite
def seed_polys(draw, kinds=("small", "int100", "fraction")):
    """Normalized octics like the benchmark's: small, 100-bit or p/q up to 10^6."""
    strategies = {
        "small": st.integers(-9, 9),
        "int100": st.integers(-(2**100), 2**100),
        "fraction": st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    }
    coefficient = draw(st.sampled_from([strategies[k] for k in kinds]))
    coeffs = draw(st.lists(coefficient, min_size=7, max_size=7))
    assume(coeffs[0] != 0)
    try:
        return validate_seed([*coeffs, 0, 1])
    except SeedError:
        assume(False)


def mp_roots(h: UniPoly):
    """All complex roots to 60 digits (untrusted oracle helper)."""
    from mpmath import mp, mpf, polyroots

    mp.dps = 60
    desc = [
        mpf(c.numerator) / mpf(c.denominator)
        for c in reversed(h.coeffs)
    ]
    return polyroots(desc, maxsteps=200, extraprec=400)


# comparisons are certified by a dead band: any oracle magnitude inside
# (CLEAR_ZERO, CLEAR_NONZERO) means 60 digits did not separate the case
CLEAR_ZERO = 1e-40
CLEAR_NONZERO = 1e-20


def _certified_nonzero(values) -> bool:
    mags = [abs(v) for v in values]
    for m in mags:
        if CLEAR_ZERO < m < CLEAR_NONZERO:
            raise AssertionError(f"oracle magnitude {m} is not certified")
    return all(m >= CLEAR_NONZERO for m in mags)


def float_position_oracle(h: UniPoly) -> dict[str, bool]:
    """Numeric general-position decision from 60-digit roots."""
    from itertools import combinations

    from delpezzo1.curve import build_v

    roots = mp_roots(h)
    triple = _certified_nonzero(
        [a + b + c for a, b, c in combinations(roots, 3)]
    )
    pair = _certified_nonzero([a + b for a, b in combinations(roots, 2)])

    v = build_v(h)
    partials = [v.derivative(s).param_eval() for s in ("x", "y", "z")]

    def evaluate(poly, alpha):
        from mpmath import mpf

        acc = 0
        for c in reversed(poly.coeffs):
            acc = acc * alpha + mpf(c.numerator) / mpf(c.denominator)
        return acc

    rank_vals = []
    for alpha in roots:
        ux, uy, uz = 1, -3 * alpha**2, 2 * alpha**3
        vx, vy, vz = (evaluate(p, alpha) for p in partials)
        minors = [ux * vy - uy * vx, ux * vz - uz * vx, uy * vz - uz * vy]
        rank_vals.append(max(abs(m) for m in minors))
    cubic = _certified_nonzero(rank_vals)
    return {"collinear": triple, "conic": pair, "singular_cubic": cubic}


def position_verdicts(h: UniPoly) -> dict[str, bool]:
    """The exact general-position verdicts, keyed like float_position_oracle."""
    from delpezzo1.curve import build_v
    from delpezzo1.position import position_checks

    keys = ("collinear", "conic", "singular_cubic")
    return {key: check.passed for key, check in zip(keys, position_checks(h, build_v(h)))}
