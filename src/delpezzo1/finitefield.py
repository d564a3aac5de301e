"""Dense polynomial arithmetic over F_p and distinct-degree factorization.

Only the degree multiset of the irreducible factors is ever needed (it is
the cycle type of a Frobenius element), so equal-degree splitting is
deliberately left out: at stage d the factor count is deg/d.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .unipoly import UniPoly

FpPoly = list[int]  # ascending coefficients in [0, p)


class PrimeSkip(Exception):
    """The prime is unusable for this polynomial; sample another one."""


def _trim(f: FpPoly) -> FpPoly:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mod_p(f: UniPoly, p: int) -> FpPoly:
    """Reduce rational coefficients mod p; skip-signals on bad denominators."""
    out = []
    for c in f.coeffs:
        den = c.denominator % p
        if den == 0:
            raise PrimeSkip(f"denominator divisible by {p}")
        out.append(c.numerator * pow(den, -1, p) % p)
    return _trim(out)


def fp_divrem(a: FpPoly, b: FpPoly, p: int) -> tuple[FpPoly, FpPoly]:
    """Quotient and remainder of a by b over F_p, reduced lazily.

    a may hold any ints.  Each quotient digit is reduced mod p, the lower
    coefficients stay plain ints while the digits are subtracted, and the
    remainder is reduced once at the end.
    """
    if not b:
        raise ZeroDivisionError
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        qi = q[i - db] = a[i] * inv % p
        if qi:
            for j in range(db):
                a[i - db + j] -= qi * b[j]
    return _trim(q), _trim([c % p for c in a[:db]])


def fp_mulmod(a: FpPoly, b: FpPoly, mod: FpPoly, p: int) -> FpPoly:
    """a * b mod (mod, p): the plain integer product, reduced once."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return fp_divrem(out, mod, p)[1]


def fp_gcd(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    """A gcd of a and b over F_p: the last nonzero remainder, not made monic."""
    while b:
        a, b = b, fp_divrem(a, b, p)[1]
    return a


def fp_deriv(a: FpPoly, p: int) -> FpPoly:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def fp_xpowmod(e: int, mod: FpPoly, p: int) -> FpPoly:
    """x^e mod (mod, p) for e >= 1, by left-to-right squaring from x.

    Every bit of e after the leading one squares the running power, and a
    set bit then multiplies it by x: a shift and one reduction step.
    """
    r = fp_divrem([0, 1], mod, p)[1]
    for bit in bin(e)[3:]:
        r = fp_mulmod(r, r, mod, p)
        if bit == "1":
            r = fp_divrem([0] + r, mod, p)[1]
    return r


def _frobenius(a: FpPoly, rows: list[FpPoly], p: int) -> FpPoly:
    """a(x)^p = a(x^p) = sum a_i rows[i] mod f, for rows[i] = x^(ip) mod f."""
    out = [0] * len(rows)
    for c, row in zip(a, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return _trim([c % p for c in out])


def ddf_degree_multiset(h: UniPoly, p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of h mod p, sorted ascending.

    Runs distinct-degree factorization: at stage d, gcd(f, x^(p^d) - x)
    collects every irreducible factor of degree dividing d; after the
    smaller stages are stripped, that gcd is exactly the degree-d part.
    Skip-signals when p divides the leading coefficient or h mod p is not
    squarefree.

    x^p mod hp, for hp = h mod p, is computed once.  Over F_p, a(x)^p =
    a(x^p): the p-th power is a ring map fixing the coefficients.  So with
    a = x^(p^(d-1)) mod hp, stage d needs x^(p^d) = a(x)^p = sum a_i x^(ip)
    mod hp, a combination of the rows x^(ip) mod hp, built lazily at stage 2.
    Every residue stays modulo hp however far f has split: f divides hp, so
    gcd(f, r) = gcd(f, x^(p^d) - x) for any r = x^(p^d) - x mod hp.
    """
    hp = poly_mod_p(h, p)
    if len(hp) - 1 != h.degree:
        raise PrimeSkip(f"leading coefficient vanishes mod {p}")
    if len(fp_gcd(hp, fp_deriv(hp, p), p)) != 1:
        raise PrimeSkip(f"not squarefree mod {p}")
    f = hp
    parts: list[int] = []
    rows = [[1], fp_xpowmod(p, hp, p)]  # rows[i] = x^(ip) mod hp, i < deg hp
    xq = rows[1]
    d = 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            parts.append(len(f) - 1)
            break
        if d > 1:
            while len(rows) < len(hp) - 1:
                rows.append(fp_mulmod(rows[-1], rows[1], hp, p))
            xq = _frobenius(xq, rows, p)
        diff = _trim([(c - (1 if i == 1 else 0)) % p for i, c in enumerate(xq + [0, 0])])
        g = fp_gcd(f, diff, p)
        if len(g) > 1:
            parts.extend([d] * ((len(g) - 1) // d))
            f, r = fp_divrem(f, g, p)
            if r:
                raise ArithmeticError("inexact division over F_p")
    parts.sort()
    if sum(parts) != h.degree:
        raise ArithmeticError(f"factor degrees {tuple(parts)} do not add up to {h.degree}")
    return tuple(parts)


def primes_up_to(bound: int) -> list[int]:
    """The primes p <= bound, ascending, by the sieve of Eratosthenes (bound >= 0)."""
    sieve = bytearray([1]) * (bound + 1)
    for n in range(2, isqrt(bound) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(sieve[n * n::n]))
    return [n for n in range(2, bound + 1) if sieve[n]]
