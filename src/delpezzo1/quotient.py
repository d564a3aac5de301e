"""Reduction modulo the seed polynomial h, and evaluation at (t^3, t, 1).

Reducing modulo h evaluates a statement "at every root of h" in a single
exact computation: the canonical remainder of a polynomial is zero
exactly when the polynomial vanishes at all roots of a squarefree h.
"""

from __future__ import annotations

from typing import Iterable

from .tripoly import TriPoly
from .unipoly import UniPoly


def qr_reduce(f: UniPoly, h: UniPoly) -> UniPoly:
    """Canonical representative of f in Q[t]/(h); f minus it is divisible by h."""
    return f % h


def tri_eval_param(form: TriPoly, h: UniPoly) -> UniPoly:
    """Evaluate a form at (t^3, t, 1) and reduce modulo h.

    The result is zero exactly when the form vanishes at every point
    (a^3 : a : 1) with h(a) = 0.
    """
    return qr_reduce(form.param_eval(), h)


def common_factor(h: UniPoly, polys: Iterable[UniPoly]) -> UniPoly:
    """The gcd of h with every nonzero polynomial in polys; h if there is none.

    Its roots are the roots of h at which every one of polys vanishes.
    polys is read lazily and no further once the gcd has degree 0.
    """
    g = h
    for f in polys:
        if not f.is_zero:
            g = g.gcd(f)
            if g.degree == 0:
                break
    return g
