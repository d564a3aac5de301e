"""Dense univariate polynomials over exact rationals.

Coefficients are :class:`fractions.Fraction` values stored ascending by
degree with no trailing zeros, so structural equality is polynomial
equality and the zero polynomial is the empty tuple.  Everything here is
immutable and deterministic; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from operator import add, mul
from typing import Iterable, Sequence

from .finitefield import PrimeSkip, fp_gcd, poly_mod_p
from .linalg import bareiss_det

Scalar = int | Fraction

# The prime of the one-sided mod-p gcd coprimality certificate: large, so
# that a spurious common root modulo it is rare.
CERT_PRIME = 2**31 - 1


def as_fraction(c) -> Fraction:
    """c itself if it is a Fraction, else Fraction(c).

    type(c) is tested, not isinstance: an int then skips the abstract-base
    check that isinstance pays, and a Fraction subclass becomes an equal
    Fraction.
    """
    return c if type(c) is Fraction else Fraction(c)


class UniPoly:
    """Immutable dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar | str] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> UniPoly:
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other) -> UniPoly:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return UniPoly([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __sub__(self, other) -> UniPoly:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return UniPoly([a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __mul__(self, other) -> UniPoly:
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.is_zero:
            return "UniPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            term = "t" if i == 1 else f"t^{i}" if i else ""
            if i and abs(c) == 1:
                cs = "-" if c < 0 else ""
            else:
                cs = str(c) + ("*" if i else "")
            parts.append(cs + term)
        return "UniPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"

    # -- calculus and reparametrizations -------------------------------

    def derivative(self) -> UniPoly:
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> UniPoly:
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        if self.lc == 1:
            return self
        inv = 1 / self.lc
        return UniPoly([c * inv for c in self.coeffs])

    def reflect(self) -> UniPoly:
        """Return f(-t)."""
        return UniPoly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    def scale_roots(self, k: Scalar) -> UniPoly:
        """Return k^deg * f(t/k): the polynomial whose roots are k times ours."""
        k = as_fraction(k)
        if k == 0:
            raise ValueError("scale_roots requires a nonzero factor")
        if k == 1:
            return self
        n = self.degree
        return UniPoly([c * k ** (n - i) for i, c in enumerate(self.coeffs)])

    # -- Euclidean structure -------------------------------------------

    def divrem(self, divisor: UniPoly) -> tuple[UniPoly, UniPoly]:
        """Quotient and remainder with deg r < deg divisor, on Python ints.

        The divisor is made monic and denominators are cleared once:
        F = d*self and G = c*divisor/lc, with d and c the lcms of the
        denominators of self and of the monic divisor (c = 1 for an integer
        monic divisor such as every integer seed).  The loop is integer
        pseudo-division, c^k F = Q G + R with k = deg F - deg G + 1: each
        step scales the partial remainder by c, which it skips when c = 1,
        and the quotient digit found at t^j stands for Q_j = q_j c^j.  So
        self = Q / (c^(k-1) d lc) * divisor + R / (c^k d), and each output
        coefficient is built as one Fraction.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dd = divisor.degree
        if self.degree < dd:
            return UniPoly(), self
        lc = divisor.lc
        g, c = _clear_denominators(divisor.monic().coeffs)
        rem, d = _clear_denominators(self.coeffs)
        low = g[:-1]
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            q = rem[i]
            if c != 1:
                rem[:i] = [r * c for r in rem[:i]]
            if q:
                quot[i - dd] = q
                for j, b in enumerate(low, i - dd):
                    rem[j] -= q * b
        k = len(quot)
        rem_den = c**k * d
        return (
            UniPoly([
                Fraction(q * lc.denominator, c ** (k - 1 - j) * d * lc.numerator)
                for j, q in enumerate(quot)
            ]),
            UniPoly([Fraction(r, rem_den) for r in rem[:dd]]),
        )

    def __mod__(self, other: UniPoly) -> UniPoly:
        return self.divrem(other)[1]

    def exact_div(self, divisor: UniPoly) -> UniPoly:
        q, r = self.divrem(divisor)
        if not r.is_zero:
            raise ArithmeticError("division was expected to be exact")
        return q

    def gcd(self, other: UniPoly) -> UniPoly:
        """Monic greatest common divisor.

        A coprime pair certified modulo CERT_PRIME (_coprime_mod_p) gets the
        constant 1 at once; any other pair runs the exact Euclidean
        algorithm.
        """
        a, b = self, other
        if a.is_zero and b.is_zero:
            raise ValueError("gcd(0, 0) is undefined")
        if _coprime_mod_p(a, b):
            return UniPoly([1])
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    # -- resultants -----------------------------------------------------

    def resultant(self, other: UniPoly) -> Fraction:
        """Res_t(self, other), as one deg(self)^3 determinant on Python ints.

        With n = deg f and m = deg g for f = self, g = other,
        Res(f, g) = lc(f)^m * prod g(a) over the roots a of f, and
        g(a) = r(a) for r = g mod f.  That product is the norm of r: the
        determinant of multiplication by r on Q[t]/(f), whose columns are
        t^j r mod f.  They are built on ints: F = c*f/lc(f) with c the lcm
        of the denominators of f/lc(f) (c = 1 for an integer monic f), the
        first column is d*r with d the lcm of r's denominators, and each
        next column is c*t*col - top*F, top being col's t^(n-1) coefficient.
        Column j is then c^j d t^j r mod f, so the n x n Bareiss determinant
        of the columns (taken as rows: the transpose has the same
        determinant) carries the factor c^(n(n-1)/2) d^n, divided out
        exactly.  The cost is the one reduction g mod f and that determinant.
        """
        if self.is_zero or other.is_zero:
            raise ValueError("resultant requires nonzero polynomials")
        n, m, lc = self.degree, other.degree, self.lc
        if n == 0:
            return lc**m
        f_int, c = _clear_denominators(self.monic().coeffs)
        col, d = _clear_denominators((other % self).coeffs)
        col += [0] * (n - len(col))
        cols = [col]
        for _ in range(n - 1):
            top = col[-1]
            col = [c * a - top * b for a, b in zip([0] + col[:-1], f_int)]
            cols.append(col)
        return lc**m * Fraction(bareiss_det(cols), c ** (n * (n - 1) // 2) * d**n)

    def discriminant(self) -> Fraction:
        """Standard discriminant (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
        n = self.degree
        if n < 2:
            raise ValueError("discriminant needs degree >= 2")
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        return sign * self.resultant(self.derivative()) / self.lc


def _coprime_mod_p(f: UniPoly, g: UniPoly) -> bool:
    """True only if f and g are coprime over Q, decided modulo p = CERT_PRIME.

    When p divides no denominator and neither degree drops mod p, the
    Sylvester matrix of the reductions is that of f and g reduced mod p,
    so Res(f mod p, g mod p) = Res(f, g) mod p.  A gcd of 1 over F_p makes
    that nonzero, so Res(f, g) != 0 and f, g share no root.  The test is
    one-sided: False says nothing, and the caller runs the exact Euclid.
    """
    p = CERT_PRIME
    try:
        fp, gp = poly_mod_p(f, p), poly_mod_p(g, p)
    except PrimeSkip:
        return False
    return len(fp) == len(f.coeffs) and len(gp) == len(g.coeffs) and len(fp_gcd(fp, gp, p)) == 1


def _clear_denominators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the common denominator lcm, and that lcm."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (lcm // c.denominator) for c in coeffs], lcm


# -- power sums and composed sums, on Python ints ----------------------


def root_denominator(f: UniPoly) -> int:
    """Lcm D of the coefficient denominators of monic f (1 for integers).

    The monic form of f.scale_roots(D) then has integer coefficients: its
    t^(n-i) coefficient is a_i * D^i, and D is a multiple of a_i's denominator.
    """
    return math.lcm(*(c.denominator for c in f.monic().coeffs))


def _exact_quotient(num: int, k: int) -> int:
    q, r = divmod(num, k)
    if r:
        raise ArithmeticError(f"power sums of no monic integer polynomial: inexact division by {k}")
    return q


def power_sums(f: UniPoly, count: int) -> list[int]:
    """Power sums p_0..p_count of the roots of f (with multiplicity), as ints.

    The monic form of f must have integer coefficients, else ValueError.
    The root-sum polynomials bring a rational f there by scaling its roots
    by D = root_denominator(f).
    Newton's identities then need no division; p_0 = deg f.
    """
    if f.is_zero:
        raise ValueError("power sums of the zero polynomial")
    fm = f.monic()
    if any(c.denominator != 1 for c in fm.coeffs):
        raise ValueError("the integer power-sum kernel needs a monic integer polynomial")
    a = [c.numerator for c in reversed(fm.coeffs)]  # a[i]: coefficient of t^(n-i)
    n = fm.degree
    low = a[1:]
    ps = [n]
    for k in range(1, count + 1):
        # zip stops at min(k, n) terms; for k <= n the last is a_k p_0 = n a_k
        s = sum(map(mul, low, reversed(ps)))
        if k <= n:
            s += (k - n) * a[k]
        ps.append(-s)
    return ps


def from_power_sums(ps: Sequence[int]) -> UniPoly:
    """Monic integer polynomial with root power sums ps = p_0..p_n, of degree n.

    Newton's recurrence k a_k = -(a_0 p_k + ... + a_(k-1) p_1) on ints.
    Every division by k is checked: a nonzero remainder means ps belong
    to no monic integer polynomial, and raises ArithmeticError.  A caller
    that scaled roots by D scales the result back by 1/D.
    """
    a = [1]
    tail = ps[1:]
    for k in range(1, len(ps)):
        a.append(_exact_quotient(-sum(map(mul, tail, reversed(a))), k))
    return UniPoly(reversed(a))


@cache
def _binomial_rows(count: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..count-1 of Pascal's triangle, built on the first call for count."""
    rows = [(1,)]
    for _ in range(count - 1):
        row = rows[-1]
        rows.append((1, *map(add, row, row[1:]), 1))
    return tuple(rows[:count])


def binomial_convolution(pf: Sequence[int], pg: Sequence[int]) -> list[int]:
    """Power sums of a+b over ordered pairs, from p_0..p_count of the a and of the b.

    p_k = sum_i C(k, i) pf_i pg_(k-i), the expansion of sum (a+b)^k over
    all pairs; pf and pg have the same length.  Needs no division.  The
    binomial coefficients come from _binomial_rows, cached per length.
    When pf is pg (a self-convolution) the terms i and k-i are equal, so
    each such pair is summed once and doubled, and the middle term
    C(k, k/2) pf_(k/2)^2 of an even k is added once.
    """
    rows = _binomial_rows(len(pf))
    if pf is not pg:
        return [sum(map(mul, map(mul, row, pf), reversed(pg[: k + 1]))) for k, row in enumerate(rows)]
    sums: list[int] = []
    for k, row in enumerate(rows):
        half = (k + 1) // 2  # the i < k - i
        s = sum(map(mul, map(mul, row, pf), reversed(pf[k - half + 1 : k + 1]))) << 1
        if k % 2 == 0:
            s += row[half] * pf[half] ** 2
        sums.append(s)
    return sums


def root_sum_poly(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic polynomial whose roots are a+b over ordered root pairs of (f, g).

    Equals Res_t(f(t), g(s-t)) up to the leading-coefficient factors that a
    monic normalization removes: pair sums are counted with multiplicity,
    so the degree is deg f * deg g.  Computed through power sums, which
    keeps the arithmetic one-dimensional instead of eliminating a 2-variable
    resultant.  Rational coefficients are allowed: both roots are scaled
    once by the common D = lcm(root_denominator(f), root_denominator(g)),
    the integer kernel runs on the scaled pair, and the result is scaled
    back by 1/D.  A division that is not exact raises ArithmeticError.
    """
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise ValueError("root_sum_poly needs positive degrees")
    d = math.lcm(root_denominator(f), root_denominator(g))
    pf = power_sums(f.scale_roots(d), n * m)
    sums = binomial_convolution(pf, power_sums(g.scale_roots(d), n * m))
    return from_power_sums(sums).scale_roots(Fraction(1, d))


def distinct_pair_power_sums(pairs: Sequence[int], ps: Sequence[int]) -> list[int]:
    """Power sums of a+b over unordered pairs of distinct roots, as ints.

    pairs = binomial_convolution(ps, ps) runs over all ordered pairs of
    roots; dropping the pairs (a, a) leaves each distinct pair twice, so
    the k-th sum is (pairs_k - 2^k ps_k) / 2.  The halving is checked like
    the divisions in from_power_sums and raises ArithmeticError on an odd
    numerator, which a true convolution never gives.
    """
    return [_exact_quotient(s - (p << k), 2) for k, (s, p) in enumerate(zip(pairs, ps))]


def distinct_pair_sum_poly(f: UniPoly) -> UniPoly:
    """Monic polynomial whose roots are a+b over the C(n, 2) pairs of distinct roots of f.

    The pairs are unordered and taken by position, so a repeated root of
    f contributes its doubled value once per pair of copies.  Built like
    root_sum_poly, with roots scaled once by D = root_denominator(f);
    since the power sums are needed only up to k = C(n, 2), this is far
    cheaper than root_sum_poly(f, f), whose degree is n^2.
    """
    n = f.degree
    count = n * (n - 1) // 2
    d = root_denominator(f)
    ps = power_sums(f.scale_roots(d), count)
    sums = distinct_pair_power_sums(binomial_convolution(ps, ps), ps)
    return from_power_sums(sums).scale_roots(Fraction(1, d))


def distinct_triple_sum_poly(f: UniPoly) -> UniPoly:
    """Monic polynomial whose roots are a+b+c over the C(n, 3) triples of distinct roots of f.

    Let T(s) run over the sums a+b+c of all n^3 ordered root triples,
    E(s) over the n^2 sums 2a + c and h3(s) over the n sums 3a.  Ordered
    triples partition as

        T = g^6 * (E / h3)^3 * h3,

    where g is the polynomial returned here: each unordered triple of
    distinct roots appears in six orders, each of the three "two equal"
    patterns contributes E/h3 and the "all equal" pattern contributes h3.
    T itself is never built; on the root power sums p_k the partition reads

        p_k(T) = 6 p_k(g) + 3 p_k(E/h3) + p_k(h3),

    p_k(h3) = 3^k p_k, and p_k(T) is the binomial convolution p (x) (p (x) p)
    of the root power sums of f with themselves, so g follows from its power
    sums up to k = C(n, 3) (the composed-sum method of Bostan, Flajolet, Salvy
    and Schost).  E = root_sum_poly(f.scale_roots(2), f), and E/h3 is an exact
    division, which raises ArithmeticError if h3 does not divide E.

    The arithmetic runs on Python ints: the roots of f are scaled by
    D = root_denominator(f), so the monic form of every polynomial above
    has integer coefficients, the division by 6 is checked like those in
    from_power_sums, and the result is scaled back by 1/D.  Repeated roots
    are taken by position, as in distinct_pair_sum_poly.
    """
    count = math.comb(f.degree, 3)
    d = root_denominator(f)
    f_d = f.scale_roots(d)
    h3 = f_d.scale_roots(3)
    ps = power_sums(f_d, count)
    ordered = binomial_convolution(ps, binomial_convolution(ps, ps))
    two_equal = power_sums(root_sum_poly(f_d.scale_roots(2), f_d).exact_div(h3), count)
    all_equal = [3**k * p for k, p in enumerate(ps)]
    sums = [_exact_quotient(t - 3 * e - a, 6) for t, e, a in zip(ordered, two_equal, all_equal)]
    return from_power_sums(sums).scale_roots(Fraction(1, d))
