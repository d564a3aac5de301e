"""Sparse trivariate forms in x, y, z with a fixed graded-lex term order.

Terms live in a dict keyed by exponent triples (i, j, k); zero
coefficients are never stored.  A coefficient is stored as an int when
its denominator is 1 and as a Fraction otherwise, so forms over the
integers multiply with int arithmetic; coeff() and leading() return a
Fraction either way.  The canonical order is graded lexicographic with
x > y > z, descending, and every serialization or iteration follows it
so output is reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Mapping

from .unipoly import UniPoly, Scalar, as_fraction

Exponent = tuple[int, int, int]

_VAR_INDEX = {"x": 0, "y": 1, "z": 2}


def _integral(d: dict[Exponent, Scalar]) -> dict[Exponent, Scalar]:
    """Store every integral Fraction value of d as an int, in place."""
    for e, c in d.items():
        if type(c) is Fraction and c.denominator == 1:
            d[e] = c.numerator
    return d


def grlex_key(e: Exponent) -> tuple[int, int, int, int]:
    return (e[0] + e[1] + e[2], e[0], e[1], e[2])


class TriPoly:
    """Immutable sparse polynomial in x, y, z over the rationals.

    Each stored coefficient is a nonzero int, or a Fraction whose
    denominator is not 1.  __init__ is the checked constructor; derived
    forms are wrapped by _of.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Scalar] = {}):
        d: dict[Exponent, Scalar] = {}
        for e, c in terms.items():
            if not (isinstance(e, tuple) and len(e) == 3 and all(isinstance(k, int) and k >= 0 for k in e)):
                raise ValueError(f"exponent {e!r} is not a triple of non-negative ints")
            c = as_fraction(c)
            if c:
                d[e] = c.numerator if c.denominator == 1 else c
        self.terms = d

    @classmethod
    def _of(cls, terms: dict[Exponent, Scalar]) -> TriPoly:
        """Wrap a dict of nonzero, normalized coefficients without checking it."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def monomial(cls, e: Exponent, c: Scalar = 1) -> TriPoly:
        return cls({e: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        """Total degree, with deg 0 = -1."""
        return max((i + j + k for (i, j, k) in self.terms), default=-1)

    @property
    def x_degree(self) -> int:
        return max((i for (i, _, _) in self.terms), default=-1)

    def coeff(self, e: Exponent) -> Fraction:
        return as_fraction(self.terms.get(tuple(e), 0))

    def sorted_terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in descending graded-lex order, leading term first."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[Exponent, Fraction]:
        if not self.terms:
            raise ValueError("zero form has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, as_fraction(self.terms[e])

    def __eq__(self, other) -> bool:
        if isinstance(other, TriPoly):
            return self.terms == other.terms
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> TriPoly:
        return TriPoly._of({e: -c for e, c in self.terms.items()})

    def _merge(self, other, op) -> TriPoly:
        """self op other for op = add or sub, term by term."""
        if not isinstance(other, TriPoly):
            return NotImplemented
        d = dict(self.terms)
        for e, c in other.terms.items():
            s = op(d.get(e, 0), c)
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            if s:
                d[e] = s
            else:
                del d[e]
        return TriPoly._of(d)

    def __add__(self, other) -> TriPoly:
        return self._merge(other, add)

    def __sub__(self, other) -> TriPoly:
        return self._merge(other, sub)

    def __mul__(self, other) -> TriPoly:
        if isinstance(other, (int, Fraction)):
            if not other:
                return TriPoly._of({})
            return TriPoly._of(_integral({e: c * other for e, c in self.terms.items()}))
        if not isinstance(other, TriPoly):
            return NotImplemented
        d: dict[Exponent, Scalar] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2, k1 + k2)
                s = d.get(e, 0) + c1 * c2
                if s:
                    d[e] = s
                else:
                    del d[e]
        return TriPoly._of(_integral(d))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> TriPoly:
        if n < 0:
            raise ValueError("negative power of a form")
        result = TriPoly.monomial((0, 0, 0))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __repr__(self) -> str:
        if self.is_zero:
            return "TriPoly(0)"
        parts = []
        for (i, j, k), c in self.sorted_terms():
            mono = "".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in (("x", i), ("y", j), ("z", k))
                if e
            )
            if mono and abs(c) == 1:
                cs = "-" if c < 0 else ""
            else:
                cs = str(c) + ("*" if mono else "")
            parts.append(cs + mono)
        return "TriPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"

    # -- calculus and substitutions -------------------------------------

    def derivative(self, var: str) -> TriPoly:
        idx = _VAR_INDEX[var]
        d: dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            ne = list(e)
            ne[idx] -= 1
            d[tuple(ne)] = c * e[idx]
        return TriPoly._of(_integral(d))

    def homogenize(self, degree: int) -> TriPoly:
        """Pad a form in x, y with z powers up to the requested degree."""
        if any(k != 0 for (_, _, k) in self.terms):
            raise ValueError("homogenize expects a form in x and y only")
        if self.total_degree > degree:
            raise ValueError(
                f"cannot homogenize degree {self.total_degree} up to {degree}"
            )
        return TriPoly._of({(i, j, degree - i - j): c for (i, j, _), c in self.terms.items()})

    def param_eval(self) -> UniPoly:
        """Substitute (x, y, z) = (t^3, t, 1) and return the result in t."""
        if not self.terms:
            return UniPoly()
        coeffs = [0] * (max(3 * i + j for (i, j, _) in self.terms) + 1)
        for (i, j, _), c in self.terms.items():
            coeffs[3 * i + j] += c
        return UniPoly(coeffs)
