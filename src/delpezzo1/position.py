"""Exact general-position tests for the eight points (a^3 : a : 1).

All three classical conditions reduce to statements about the roots of
the seed polynomial because the points sit on the cuspidal cubic
x z^2 = y^3 with its degree-3 group law on parameters:

* three points are collinear  iff their three parameters sum to zero,
* six points lie on a conic   iff their six parameters sum to zero,
  which (the eight roots summing to zero) happens iff the remaining two
  parameters sum to zero,
* a cubic through all eight points singular at one of them exists iff
  the gradients of the cubic pencil generators become proportional at
  some root.

Every decision is taken in exact arithmetic; no root is ever computed.
"""

from __future__ import annotations

from .quotient import common_factor
from .serialize import Check
from .tripoly import TriPoly
from .unipoly import UniPoly, distinct_pair_sum_poly, distinct_triple_sum_poly


def check_three_collinear(h: UniPoly) -> Check:
    """No three distinct roots of the seed sum to zero.

    Let T(s) run over the sums a+b+c of all 512 ordered root triples.
    Splitting the pairs (b, c) by whether b = c, and pairing each
    distinct (b, c) with (c, b), gives for the monic seed h

        T(0) = Res(h(t), h.scale_roots(-2)) * Res(h(t), P2(-t))^2,

    where the first factor is the product of a + 2b over the 64 ordered
    root pairs (it equals Res(h(t), h(-2t)), the product of 2a + b) and
    P2 is the monic degree-28 polynomial of the sums b+c over the C(8, 2)
    distinct unordered pairs (distinct_pair_sum_poly).  Each resultant is
    one 8 x 8 norm determinant in Q[t]/(h) (UniPoly.resultant), after
    reducing P2(-t) modulo h for the second.  The first factor vanishes
    exactly when two roots form a pair {a, -2a} (a = b would need 3a = 0,
    and h(0) != 0): the only way a triple with a repeated root,
    (a, a, -2a), sums to zero.  So it is taken first, and P2 is built only
    when it is nonzero; a seed with such a pair goes to the deflated branch
    without building any composed-sum polynomial in the fast path.  If
    T(0) != 0 no triple at all sums to zero and we are done.  Otherwise
    some triple WITH REPEATS may be responsible, so the degenerate patterns
    are set aside: the deflated branch takes g = distinct_triple_sum_poly(h),
    the monic degree-56 polynomial of the C(8, 3) sums of distinct
    unordered triples, whose docstring splits T into g^6 and the repeated
    patterns.  The test is g(0) != 0.  The witness reports
    T_distinct(0) = g(0)^6 and the degrees of T, of E (the sums 2a + c),
    of h3 (the sums 3a) and of T_distinct: n^3, n^2, n and 6 deg g for
    n = deg h.
    """
    doubled = h.resultant(h.scale_roots(-2))
    if doubled != 0:
        distinct_pairs = h.resultant(distinct_pair_sum_poly(h).reflect())
        if distinct_pairs != 0:
            return Check(
                "no_three_collinear",
                True,
                {"path": "fast", "triple_product": doubled * distinct_pairs**2},
            )
    n = h.degree
    distinct = distinct_triple_sum_poly(h)
    degrees = {
        "triple_sums": n**3,
        "degenerate_pairs": n**2,
        "triple_roots": n,
        "distinct_triples": 6 * distinct.degree,
    }
    value = distinct.coeff(0) ** 6
    return Check(
        "no_three_collinear",
        value != 0,
        {"path": "deflated", "distinct_triple_product": value, "degrees": degrees},
    )


def check_six_conic(h: UniPoly) -> Check:
    """No six points on a conic: no two roots of the seed sum to zero.

    Because the t^7 coefficient vanishes, all eight roots sum to zero, so
    six parameters sum to zero exactly when the other two do; that pairs
    a root a with -a, i.e. makes gcd(h(t), h(-t)) nonconstant.
    """
    g = common_factor(h, [h.reflect()])
    return Check("no_six_on_conic", g.degree == 0, {"paired_root_factor": g})


def check_singular_cubic(h: UniPoly, v: TriPoly) -> Check:
    """No cubic through all eight points is singular at one of them.

    Every cubic through the points lies in the pencil spanned by
    u = xz^2 - y^3 and the companion cubic v (curve.build_v of the seed),
    so a bad cubic exists iff the gradients of u and v are linearly
    dependent at some point P.  Both vanish at P, so by Euler's relation
    both gradients are orthogonal to P, whose z is 1; such a vector is
    fixed by its x and y entries, so the gradients are dependent iff the
    one x/y minor u_x v_y - u_y v_x shares a root with h.  At (t^3, t, 1)
    u_x = z^2 is 1 and u_y = -3y^2 is -3t^2, so by the chain rule the minor
    is v_y + 3t^2 v_x = d/dt v(t^3, t, 1).  Passing u itself as v is the
    rank-1 negative control.
    """
    g = common_factor(h, [v.param_eval().derivative() % h])
    return Check(
        "no_singular_cubic_through_point", g.degree == 0, {"dependent_gradient_factor": g}
    )


def position_checks(h: UniPoly, v: TriPoly) -> list[Check]:
    """The three general-position checks; v is the seed's companion cubic (build_v)."""
    return [check_three_collinear(h), check_six_conic(h), check_singular_cubic(h, v)]
