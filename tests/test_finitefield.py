import random
from fractions import Fraction
from itertools import product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo1.finitefield import (
    PrimeSkip,
    ddf_degree_multiset,
    fp_divrem,
    fp_gcd,
    fp_mulmod,
    fp_xpowmod,
    poly_mod_p,
    primes_up_to,
)
from delpezzo1.unipoly import UniPoly
from conftest import FIXED_FRACTION_COEFFS, random_valid_seed
from xyz_oracles import oracle_seeds


def brute_factor_degrees(h: UniPoly, p: int) -> tuple[int, ...]:
    """Trial division by every monic polynomial of increasing degree.

    Valid for squarefree inputs: a degree-d divisor surviving after all
    smaller degrees were stripped is necessarily irreducible.
    """
    f = poly_mod_p(h, p)
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    degs = []
    d = 1
    while len(f) - 1 > 0:
        if 2 * d > len(f) - 1:
            degs.append(len(f) - 1)
            break
        for tail in product(range(p), repeat=d):
            quotient, rem = fp_divrem(f, list(tail) + [1], p)
            if not rem:
                f = quotient
                degs.append(d)
                if 2 * d > len(f) - 1 > 0:
                    break
        d += 1
    return tuple(sorted(degs))


# The loops that fp_divrem and fp_mulmod replaced, kept as oracles: they
# reduce mod p after every step and take reduced inputs.


def _reduce(a, p):
    out = [c % p for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def _add(*polys):
    return [sum(col) for col in zip_longest(*polys, fillvalue=0)]


def _neg(a):
    return [-c for c in a]


def rem_oracle(a, b, p):
    a = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q = c * inv % p
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - q * b[j]) % p
    return _reduce(a[:db], p)


def divexact_oracle(a, b, p):
    a = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            qi = c * inv % p
            q[i - db] = qi
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - qi * b[j]) % p
    if _reduce(a, p):
        raise ArithmeticError("inexact division over F_p")
    return _reduce(q, p)


def mul_oracle(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _reduce(out, p)


PRIMES = (2, 3, 499, 2**31 - 1)


@st.composite
def division_inputs(draw):
    """(a, b, p): entries negative or far outside [0, p), lc(b) a unit mod p."""
    p = draw(st.sampled_from(PRIMES))
    entries = st.integers(-3 * p * p, 3 * p * p)
    a = draw(st.lists(entries, max_size=12))
    b = draw(st.lists(entries, max_size=6))
    lead = draw(entries.filter(lambda c: c % p))
    return a, b + [lead], p


@settings(max_examples=300, deadline=None)
@given(division_inputs())
def test_divrem_matches_the_reducing_loops(case):
    a, b, p = case
    q, r = fp_divrem(a, b, p)
    assert all(0 <= c < p for c in q + r)
    assert (not q or q[-1]) and (not r or r[-1])
    assert len(r) < len(b)
    assert _reduce(_add(mul_oracle(q, b, p), r, _neg(a)), p) == []
    ar, br = _reduce(a, p), _reduce(b, p)
    assert r == rem_oracle(ar, br, p)
    assert q == divexact_oracle(_reduce(_add(ar, _neg(r)), p), br, p)


@settings(max_examples=200, deadline=None)
@given(division_inputs(), st.data())
def test_mulmod_is_the_remainder_of_the_product(case, data):
    _, mod, p = case
    elems = st.lists(st.integers(0, p - 1), max_size=2 * len(mod))
    a, b = data.draw(elems), data.draw(elems)
    assert fp_mulmod(a, b, mod, p) == rem_oracle(mul_oracle(a, b, p), _reduce(mod, p), p)


def test_xpowmod_matches_repeated_multiplication():
    # modulo x^8 + c the powers of x reach the constant -c, which must still
    # be squared; the other moduli are random, of degree 1, 3 and 8, not monic
    rng = random.Random(23)
    cases = [([c % p] + [0] * 7 + [1], p) for p in (2, 3, 5, 17, 499) for c in (1, -1, 2)]
    cases += [
        ([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)], p)
        for p in (2, 7, 499)
        for deg in (1, 3, 8)
    ]
    for mod, p in cases:
        power = [1]
        for e in range(1, 70):
            power = fp_mulmod(power, [0, 1], mod, p)
            assert fp_xpowmod(e, mod, p) == power, (mod, p, e)


def test_divrem_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        fp_divrem([1, 2], [], 5)


def test_cycle_types_are_invariant_under_root_scaling():
    # at a prime p not dividing k, the roots of h.scale_roots(k) mod p are k
    # times those of h, so the factor degrees (or the reason to skip) agree
    primes = primes_up_to(200)
    seeds = oracle_seeds()
    cases = 0
    for h in seeds:
        for k in (Fraction(2), Fraction(-3), Fraction(1, 5), Fraction(-7, 2)):
            scaled = h.scale_roots(k)
            for p in primes:
                if k.numerator % p == 0 or k.denominator % p == 0:
                    continue
                assert _parts_or_skip(scaled, p) == _parts_or_skip(h, p), (h, k, p)
                cases += 1
    assert cases == len(seeds) * (4 * len(primes) - 5)


def _parts_or_skip(h, p):
    try:
        return ddf_degree_multiset(h, p)
    except PrimeSkip as skip:
        return str(skip)


def test_split_quadratic_mod_5():
    assert ddf_degree_multiset(UniPoly([1, 0, 1]), 5) == (1, 1)


def test_inert_quadratic_mod_3():
    assert ddf_degree_multiset(UniPoly([1, 0, 1]), 3) == (2,)


def test_parts_sum_to_degree():
    h = UniPoly([-1, -1, 0, 0, 0, 0, 0, 0, 1])
    for p in (3, 5, 7, 11, 13, 17):
        try:
            parts = ddf_degree_multiset(h, p)
        except PrimeSkip:
            continue
        assert sum(parts) == 8


def test_bad_primes_are_skip_signals():
    with pytest.raises(PrimeSkip):
        ddf_degree_multiset(UniPoly([-1, 1]) * UniPoly([-1, 1]), 5)
    # denominator collision
    from fractions import Fraction

    with pytest.raises(PrimeSkip):
        ddf_degree_multiset(UniPoly([Fraction(1, 5), 0, 1]), 5)


def test_agreement_with_trial_division():
    rng = random.Random(41)
    cases = [(p, 6) for p in (2, 3, 5, 7)] + [(11, 2), (13, 2)]
    checked = 0
    for p, count in cases:
        done = 0
        while done < count:
            deg = rng.randint(2, 8)
            h = UniPoly([rng.randint(0, p - 1) for _ in range(deg)] + [1])
            try:
                parts = ddf_degree_multiset(h, p)
            except PrimeSkip:
                continue
            assert parts == brute_factor_degrees(h, p), (h, p)
            done += 1
            checked += 1
    assert checked == sum(c for _, c in cases)


def test_non_monic_agreement_with_trial_division():
    # h mod p is the modulus as it stands, never made monic: a leading
    # coefficient other than 1 mod p must give the degrees of h / lc(h)
    rng = random.Random(43)
    cases = [(p, 6) for p in (3, 5, 7)] + [(11, 2), (13, 2)]
    checked = 0
    for p, count in cases:
        done = 0
        while done < count:
            deg = rng.randint(2, 8)
            lead = rng.choice([c for c in range(-3 * p, 3 * p) if c % p not in (0, 1)])
            h = UniPoly([rng.randint(-3 * p, 3 * p) for _ in range(deg)] + [lead])
            try:
                parts = ddf_degree_multiset(h, p)
            except PrimeSkip:
                continue
            assert parts == brute_factor_degrees(h, p), (h, p)
            assert ddf_degree_multiset(h * Fraction(1, lead), p) == parts
            done += 1
            checked += 1
    assert checked == sum(c for _, c in cases)


def _irreducible(deg: int, p: int, rng: random.Random) -> UniPoly:
    """A random monic irreducible of degree 2 or 3 over F_p: one without a root."""
    while True:
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        if all(sum(c * r**i for i, c in enumerate(f)) % p for r in range(p)):
            return UniPoly(f)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_several_splits_of_a_known_factorization(p):
    # three linear factors, an irreducible quadratic and cubic: f splits at
    # stage 1 and again at stage 2, and the cubic is what is left; the
    # integer lift has a leading coefficient other than 1 mod p
    rng = random.Random(p)
    for _ in range(5):
        roots = rng.sample(range(p), 3)
        h = UniPoly([rng.choice([2, 3, -1])])
        for r in roots:
            h = h * UniPoly([-r, 1])
        h = h * _irreducible(2, p, rng) * _irreducible(3, p, rng)
        lifted = UniPoly([int(c) + p * rng.randint(-5, 5) for c in h.coeffs[:-1]] + [h.lc])
        assert ddf_degree_multiset(lifted, p) == (1, 1, 1, 2, 3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 5, 499, 2**31 - 1)), st.data())
def test_gcd_divides_both_and_has_sympys_degree(p, data):
    import sympy as sp

    polys = st.lists(st.integers(0, p - 1), max_size=6).map(lambda a: _reduce(a, p))
    common, a, b = (data.draw(polys) for _ in range(3))
    a, b = mul_oracle(common, a, p), mul_oracle(common, b, p)
    g = fp_gcd(a, b, p)
    if not a and not b:
        assert g == []
        return
    assert g and g[-1] and all(0 <= c < p for c in g)
    assert fp_divrem(a, g, p)[1] == [] and fp_divrem(b, g, p)[1] == []
    t = sp.Symbol("t")
    expected = sp.gcd(sp.Poly(a[::-1] or [0], t, modulus=p), sp.Poly(b[::-1] or [0], t, modulus=p))
    assert len(g) - 1 == expected.degree()


def _sympy_parts_or_skip(h, p):
    """Factor degrees of h mod p by sympy, or "skip" where the DDF must skip p."""
    import sympy as sp

    try:
        f = poly_mod_p(h, p)
    except PrimeSkip:
        return "skip"
    if len(f) - 1 != h.degree:
        return "skip"
    _, factors = sp.Poly(f[::-1], sp.Symbol("t"), modulus=p).factor_list()
    if any(mult > 1 for _, mult in factors):
        return "skip"
    return tuple(sorted(fac.degree() for fac, _ in factors))


_rng = random.Random(59)
DDF_POLYS = {
    # a power of x is a constant mod f
    "x^8+1": UniPoly([1, 0, 0, 0, 0, 0, 0, 0, 1]),
    "x^8-1": UniPoly([-1, 0, 0, 0, 0, 0, 0, 0, 1]),
    "x^8+2": UniPoly([2, 0, 0, 0, 0, 0, 0, 0, 1]),
    "x^8+16": UniPoly([16, 0, 0, 0, 0, 0, 0, 0, 1]),
    "X8": UniPoly([-1, -1, 0, 0, 0, 0, 0, 0, 1]),
    # a rational root, as in every seed the Galois sampler leaves inconclusive
    "root -1": UniPoly([-9, 3, -1, -9, 3, 1, 1, 0, 1]),
    "root 2": UniPoly([-2, 1]) * UniPoly([3, -1, 0, 4, 1, -5, 2, 1]),
    "small": random_valid_seed(_rng),
    "100-bit": UniPoly([_rng.getrandbits(100) - 2**99 for _ in range(7)] + [0, 1]),
    "p/q": UniPoly([Fraction(_rng.randint(-(10**6), 10**6), _rng.randint(1, 10**6)) for _ in range(7)] + [0, 1]),
    "p/q fixed": UniPoly([Fraction(c) for c in FIXED_FRACTION_COEFFS]),
}


@pytest.mark.parametrize("h", DDF_POLYS.values(), ids=list(DDF_POLYS))
def test_agreement_with_sympy_at_every_prime_to_500(h):
    for p in primes_up_to(500):
        try:
            got = ddf_degree_multiset(h, p)
        except PrimeSkip:
            got = "skip"
        assert got == _sympy_parts_or_skip(h, p), (h, p)


def test_prime_sieve():
    assert primes_up_to(29) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [primes_up_to(n) for n in range(4)] == [[], [], [2], [2, 3]]
    by_trial_division = [n for n in range(2, 2000) if all(n % d for d in range(2, n))]
    assert primes_up_to(1999) == by_trial_division
    assert len(primes_up_to(10_000)) == 1229


def test_factor_degrees_are_a_sorted_tuple():
    # the result is a plain tuple in ascending order, the shape the Galois
    # witness prints; t^2 + t + 1 is irreducible mod 5
    h = UniPoly([1, 1, 1]) * UniPoly([-2, 1])
    assert ddf_degree_multiset(h, 5) == (1, 2)
    for h in DDF_POLYS.values():
        for p in primes_up_to(60):
            try:
                parts = ddf_degree_multiset(h, p)
            except PrimeSkip:
                continue
            assert type(parts) is tuple and list(parts) == sorted(parts), (h, p)
