"""One-sided Galois-group certificates from Frobenius cycle types.

Factor degree multisets of the seed modulo good primes are cycle types of
Frobenius elements of the Galois group acting on the roots.  Two sampled
facts certify that the group contains the alternating group on 8 letters:

* a type {8} shows the seed is irreducible, hence the action transitive;
* a type containing a part 5 yields a genuine 5-cycle (raise the element
  to the lcm of its other parts, which is coprime to 5), and at degree 8
  a transitive group with a 5-cycle is primitive, so Jordan's criterion
  applies.

The discriminant then separates the two possibilities: a square means the
group sits inside the alternating group.  The certificate is sound but
never complete; running out of primes yields "inconclusive", not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .finitefield import PrimeSkip, ddf_degree_multiset, primes_up_to
from .linalg import frac_is_square
from .serialize import Check
from .unipoly import UniPoly

S8_CERTIFIED = "S8-certified"
A8_CERTIFIED = "A8-certified"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GaloisCertificate:
    verdict: str
    transitivity_prime: int | None
    five_cycle_prime: int | None
    discriminant_is_square: bool
    discriminant: Fraction
    sampled_cycle_types: tuple[dict, ...]  # {"prime": p, "parts": factor degrees mod p}

    @property
    def certified(self) -> bool:
        return self.verdict != INCONCLUSIVE


def certify_galois(h: UniPoly, prime_bound: int) -> GaloisCertificate:
    """Sample ascending primes up to the bound and certify if possible.

    Stops as soon as both witnesses are found; primes where the seed is
    not squarefree are skipped, never used.
    """
    if prime_bound < 2:
        raise ValueError("prime bound must be at least 2")
    disc = h.discriminant()
    square = frac_is_square(disc)
    transitivity: int | None = None
    five_cycle: int | None = None
    sampled: list[dict] = []
    for p in primes_up_to(prime_bound):
        try:
            parts = ddf_degree_multiset(h, p)
        except PrimeSkip:
            continue
        sampled.append({"prime": p, "parts": parts})
        if transitivity is None and parts == (8,):
            transitivity = p
        if five_cycle is None and 5 in parts:
            five_cycle = p
        if transitivity is not None and five_cycle is not None:
            break
    if transitivity is not None and five_cycle is not None:
        verdict = A8_CERTIFIED if square else S8_CERTIFIED
    else:
        verdict = INCONCLUSIVE
    return GaloisCertificate(
        verdict=verdict,
        transitivity_prime=transitivity,
        five_cycle_prime=five_cycle,
        discriminant_is_square=square,
        discriminant=disc,
        sampled_cycle_types=tuple(sampled),
    )


def galois_check(h: UniPoly, prime_bound: int) -> Check:
    """The certificate as the `galois_certified` check, its witness in plain values."""
    cert = certify_galois(h, prime_bound)
    witness = {f.name: getattr(cert, f.name) for f in fields(cert)}
    return Check("galois_certified", cert.certified, witness)
