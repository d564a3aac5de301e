import random
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest

from conftest import (
    COLLINEAR_BAD,
    CONIC_BAD,
    SLOW_PATH_GOOD,
    X8_COEFFS,
    position_verdicts,
    random_valid_seed,
)
from delpezzo1.curve import validate_seed
from delpezzo1.finitefield import ddf_degree_multiset
from delpezzo1.galois import (
    A8_CERTIFIED,
    INCONCLUSIVE,
    S8_CERTIFIED,
    GaloisCertificate,
    certify_galois,
    galois_check,
)


def test_worked_seed_is_s8_certified(seed_x8):
    cert = certify_galois(seed_x8, 200)
    assert cert.verdict == S8_CERTIFIED
    assert cert.transitivity_prime is not None
    assert cert.five_cycle_prime is not None
    assert not cert.discriminant_is_square
    assert cert.discriminant == -17600759


def test_witness_primes_have_the_claimed_types(seed_x8):
    cert = certify_galois(seed_x8, 200)
    by_prime = {ct["prime"]: ct["parts"] for ct in cert.sampled_cycle_types}
    assert by_prime[cert.transitivity_prime] == (8,)
    assert 5 in by_prime[cert.five_cycle_prime]


def test_sampled_primes_ascend(seed_x8):
    cert = certify_galois(seed_x8, 200)
    primes = [ct["prime"] for ct in cert.sampled_cycle_types]
    assert primes == sorted(primes)


def test_cyclotomic_style_seed_stays_inconclusive():
    seed = validate_seed([1, 0, 0, 0, 0, 0, 0, 0, 1])  # t^8 + 1
    for bound in (50, 200, 1000):
        cert = certify_galois(seed, bound)
        assert cert.verdict == INCONCLUSIVE
        # the group has exponent 4: no type may ever contain 5 or 8
        for ct in cert.sampled_cycle_types:
            assert 5 not in ct["parts"]
            assert ct["parts"] != (8,)


def test_reducible_seed_stays_inconclusive():
    seed = validate_seed([6, 0, 0, 0, -5, 0, 0, 0, 1])  # (t^4-2)(t^4-3)
    cert = certify_galois(seed, 500)
    assert cert.verdict == INCONCLUSIVE
    assert cert.transitivity_prime is None
    for ct in cert.sampled_cycle_types:
        assert ct["parts"] != (8,)


def test_certificate_stays_one_sided_on_square_discriminant():
    # t^8 - 16t + 28 is irreducible with square discriminant, but its
    # group hides both witnesses below 500; the certificate must decline
    # rather than guess, and a square discriminant must never yield S8
    seed = validate_seed([28, -16, 0, 0, 0, 0, 0, 0, 1])
    cert = certify_galois(seed, 500)
    assert cert.discriminant_is_square
    assert cert.verdict in (A8_CERTIFIED, INCONCLUSIVE)
    assert cert.verdict != S8_CERTIFIED


def test_verdict_requires_both_witnesses(seed_x8):
    cert = certify_galois(seed_x8, 200)
    assert cert.certified
    assert cert.transitivity_prime is not None and cert.five_cycle_prime is not None
    low = certify_galois(seed_x8, 2)
    if not low.certified:
        assert low.transitivity_prime is None or low.five_cycle_prime is None


def test_certified_seeds_pass_position_checks():
    # 3-transitivity guarantees general position, so a certificate plus a
    # failed position check would expose an implementation bug
    rng = random.Random(71)
    certified = 0
    for _ in range(12):
        seed = random_valid_seed(rng)
        cert = certify_galois(seed, 120)
        if cert.certified:
            certified += 1
            assert all(position_verdicts(seed).values())
    assert certified >= 6  # random octics are usually S8


def test_low_prime_bound_rejected(seed_x8):
    with pytest.raises(ValueError):
        certify_galois(seed_x8, 1)


def test_discriminant_sign_matches_sympy(seed_x8):
    import sympy as sp

    t = sp.Symbol("t")
    expr = sum(int(c) * t**i for i, c in enumerate(seed_x8.coeffs))
    assert sp.discriminant(expr, t) == -17600759


@pytest.mark.parametrize("k", [2, -1, Fraction(1, 3)], ids=["2", "-1", "1/3"])
@pytest.mark.parametrize(
    "coeffs",
    [X8_COEFFS, COLLINEAR_BAD, CONIC_BAD, SLOW_PATH_GOOD],
    ids=["x8", "collinear_bad", "conic_bad", "slow_path_good"],
)
def test_root_scaling(coeffs, k):
    # h -> k^8 h(t/k) scales every root by k: each of the 28 squared root
    # differences gains k^2, and the group (hence an S8/A8 verdict) stays
    seed = validate_seed(coeffs)
    base = certify_galois(seed, 500)
    scaled = certify_galois(validate_seed(seed.scale_roots(k).coeffs), 500)
    assert scaled.discriminant == k**56 * base.discriminant
    assert scaled.discriminant_is_square == base.discriminant_is_square
    if base.certified and scaled.certified:
        assert scaled.verdict == base.verdict


def _values(node):
    """Every value nested in dicts, lists and tuples, containers included."""
    yield node
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from _values(item)


@pytest.mark.parametrize(
    "coeffs, certified",
    [(X8_COEFFS, True), ([1, 0, 0, 0, 0, 0, 0, 0, 1], False)],
    ids=["x8", "x8_plus_1"],
)
def test_galois_check_reports_the_certificate_in_plain_values(coeffs, certified):
    seed = validate_seed(coeffs)
    cert = certify_galois(seed, 200)
    check = galois_check(seed, 200)
    assert check.name == "galois_certified"
    assert check.passed == cert.certified == certified
    assert set(check.witness) == {f.name for f in fields(GaloisCertificate)}
    assert not any(is_dataclass(value) for value in _values(check.witness))
    assert check.witness["verdict"] == cert.verdict
    assert check.witness["discriminant"] == cert.discriminant
    assert check.witness["sampled_cycle_types"] == cert.sampled_cycle_types
    for ct in cert.sampled_cycle_types:
        assert set(ct) == {"prime", "parts"}
        assert ct["parts"] == ddf_degree_multiset(seed, ct["prime"])
