"""Sparse trivariate forms in x, y, z with a fixed graded-lex term order.

Terms live in a dict keyed by exponent triples (i, j, k); zero
coefficients are never stored.  The canonical order is graded
lexicographic with x > y > z, descending, and every serialization or
iteration follows it so output is reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .unipoly import UniPoly, Scalar, _frac

Exponent = tuple[int, int, int]

_VAR_INDEX = {"x": 0, "y": 1, "z": 2}


def grlex_key(e: Exponent) -> tuple[int, int, int, int]:
    return (e[0] + e[1] + e[2], e[0], e[1], e[2])


class TriPoly:
    """Immutable sparse polynomial in x, y, z over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Scalar] | Iterable[tuple[Exponent, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d: dict[Exponent, Fraction] = {}
        for e, c in items:
            e = (int(e[0]), int(e[1]), int(e[2]))
            if min(e) < 0:
                raise ValueError(f"negative exponent {e}")
            c = _frac(c)
            if c == 0:
                continue
            d[e] = d.get(e, Fraction(0)) + c
            if d[e] == 0:
                del d[e]
        self.terms = d

    @classmethod
    def constant(cls, c: Scalar) -> TriPoly:
        return cls({(0, 0, 0): c})

    @classmethod
    def monomial(cls, e: Exponent, c: Scalar = 1) -> TriPoly:
        return cls({e: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        """Total degree, with deg 0 = -1."""
        if not self.terms:
            return -1
        return max(i + j + k for (i, j, k) in self.terms)

    @property
    def x_degree(self) -> int:
        if not self.terms:
            return -1
        return max(i for (i, _, _) in self.terms)

    def coeff(self, e: Exponent) -> Fraction:
        return self.terms.get(tuple(e), Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded-lex order, leading term first."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[Exponent, Fraction]:
        if not self.terms:
            raise ValueError("zero form has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def __eq__(self, other) -> bool:
        if isinstance(other, TriPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == TriPoly.constant(other).terms
        return NotImplemented

    __hash__ = None  # mutable dict inside; compare by value only

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> TriPoly:
        return TriPoly({e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> TriPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        for e, c in other.terms.items():
            s = d.get(e, Fraction(0)) + c
            if s == 0:
                d.pop(e, None)
            else:
                d[e] = s
        out = TriPoly()
        out.terms = d
        return out

    __radd__ = __add__

    def __sub__(self, other) -> TriPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> TriPoly:
        return (-self) + other

    def __mul__(self, other) -> TriPoly:
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return TriPoly()
            return TriPoly({e: cc * c for e, cc in self.terms.items()})
        if not isinstance(other, TriPoly):
            return NotImplemented
        d: dict[Exponent, Fraction] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2, k1 + k2)
                s = d.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    d.pop(e, None)
                else:
                    d[e] = s
        out = TriPoly()
        out.terms = d
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> TriPoly:
        if n < 0:
            raise ValueError("negative power of a form")
        result = TriPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    @staticmethod
    def _coerce(other):
        if isinstance(other, TriPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return TriPoly.constant(other)
        return NotImplemented

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
        d: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            ne = list(e)
            ne[idx] -= 1
            d[tuple(ne)] = c * e[idx]
        out = TriPoly()
        out.terms = d
        return out

    def homogenize(self, degree: int) -> TriPoly:
        """Pad a form in x, y with z powers up to the requested degree."""
        if any(k != 0 for (_, _, k) in self.terms):
            raise ValueError("homogenize expects a form in x and y only")
        if self.total_degree > degree:
            raise ValueError(
                f"cannot homogenize degree {self.total_degree} up to {degree}"
            )
        return TriPoly({(i, j, degree - i - j): c for (i, j, _), c in self.terms.items()})

    def param_eval(self) -> UniPoly:
        """Substitute (x, y, z) = (t^3, t, 1) and return the result in t."""
        if not self.terms:
            return UniPoly()
        coeffs = [Fraction(0)] * (max(3 * i + j for (i, j, _) in self.terms) + 1)
        for (i, j, _), c in self.terms.items():
            coeffs[3 * i + j] += c
        return UniPoly(coeffs)
