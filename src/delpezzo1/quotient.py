"""Reduction modulo the seed polynomial h, and evaluation at (t^3, t, 1).

Reducing modulo h evaluates a statement "at every root of h" in a single
exact computation: the canonical remainder of a polynomial is zero
exactly when the polynomial vanishes at all roots of a squarefree h.
"""

from __future__ import annotations

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
