"""Construction of the degree-9 plane branch-curve model from an octic seed.

Given a normalized degree-8 polynomial h, the eight points
(a^3 : a : 1) over the roots a of h all lie on the cuspidal cubic
x z^2 = y^3.  This module builds, entirely in exact arithmetic:

* the pencil of cubics through those points (u = xz^2 - y^3 and a
  companion cubic v read off from t*h(t)),
* a sextic w vanishing doubly at every point but not at (0:0:1),
* the degree-9 Jacobian determinant Q of (u, v, w), whose zero locus is
  the plane model of the branch curve,

and then machine-checks the finite facts about them: dimensions of the
cubic and sextic linear systems, vanishing orders, the multiplicity-3
statement, the genus count, and the perfect-power dichotomy that rules
out the only reducible shapes a degree-9 model with these symmetries
could have.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .linalg import q_kernel_basis, q_rank
from .quotient import common_factor, tri_eval_param
from .serialize import Check
from .tripoly import Exponent, TriPoly, grlex_key
from .unipoly import Scalar, UniPoly

# The cuspidal cubic through every seed point, fixed once and for all.
U_FORM = TriPoly({(1, 0, 2): 1, (0, 3, 0): -1})

_VARS = ("x", "y", "z")
MAX_SEED_HEIGHT = 104  # bits; see validate_seed


class SeedError(ValueError):
    """Seed validation failure with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class SeedPoly:
    """A validated octic: monic, degree 8, no t^7 term, h(0) != 0, squarefree."""

    h: UniPoly

    @property
    def h0(self) -> Fraction:
        return self.h.coeff(0)


def validate_seed(coeffs: Sequence[Scalar | str]) -> SeedPoly:
    """Build a SeedPoly from ascending coefficients, or raise SeedError.

    Irreducibility is deliberately not required here; it is certified
    separately (and only one-sidedly) by the Galois machinery.

    A seed higher than MAX_SEED_HEIGHT bits is rejected ("too-tall"): its
    widest witness, the fast-path triple_product, grows by about 131 bits
    per bit of height and would pass Python's 4300-digit limit on
    int-to-string conversion.  The height is the largest difference of
    numerator and denominator bit lengths among the coefficients, plus
    (2 * the largest denominator's + 3 * the lcm's bit length) // 5: the
    largest bit length for an integer seed.  |c| <= 2^100, or p/q with
    |p|, q <= 10^6, keeps it at most 101.  A decimal exponent is checked
    before Fraction expands it (_decimal_exponent_checked).
    """
    try:
        h = UniPoly(map(_decimal_exponent_checked, coeffs))
    except SeedError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise SeedError("unparseable", f"bad coefficient: {exc}") from exc
    if len(coeffs) != 9:
        raise SeedError("wrong-count", f"expected 9 coefficients, got {len(coeffs)}")
    if h.degree != 8:
        raise SeedError("wrong-degree", f"degree {h.degree}, expected 8")
    if h.lc != 1:
        raise SeedError("not-monic", f"leading coefficient {h.lc}, expected 1")
    if h.coeff(7) != 0:
        raise SeedError("t7-term", f"t^7 coefficient {h.coeff(7)}, expected 0")
    if h.coeff(0) == 0:
        raise SeedError("zero-constant", "constant term vanishes")
    dens = [c.denominator for c in h.coeffs]
    height = max(abs(c.numerator).bit_length() - c.denominator.bit_length() for c in h.coeffs)
    height += (2 * max(dens).bit_length() + 3 * lcm(*dens).bit_length()) // 5
    if height > MAX_SEED_HEIGHT:
        raise SeedError("too-tall", f"height {height} bits, at most {MAX_SEED_HEIGHT}")
    if h.gcd(h.derivative()).degree != 0:
        raise SeedError("not-squarefree", "gcd(h, h') is nonconstant")
    return SeedPoly(h)


def _decimal_exponent_checked(c: Scalar | str) -> Scalar | str:
    """c, unless it is a decimal string m e k with |k| > len(c) + 32.

    Such a c is 0 if m is, and too tall otherwise: the digits of m cancel at
    most len(c) powers of 10, which leaves a numerator or a denominator above
    10^32 > 2^106, while an accepted c is a ratio of ints below 2^104.  Blanks
    around c are not counted in len(c).
    """
    k = isinstance(c, str) and ("e" in c or "E" in c) and re.search(r"[eE]([-+]?\d+(_\d+)*)\s*\Z", c)
    if not k or abs(int(k[1])) <= len(c.strip()) + 32:
        return c
    try:
        mantissa = Fraction(c[: k.start()] + "e0")
    except ValueError:
        return c  # Fraction(c) rejects the same text before it reads k
    if mantissa:
        raise SeedError("too-tall", f"height over {MAX_SEED_HEIGHT} bits: decimal exponent {k[1]}")
    return 0


def amap(g: UniPoly) -> TriPoly:
    """Substitution section along the cusp curve: t^(3i+r) -> x^i y^r.

    The image A(g) satisfies A(g)(t^3, t) = g(t), and A(g)(x, y) - g(y)
    is divisible by x - y^3.
    """
    return TriPoly({(*divmod(n, 3), 0): c for n, c in enumerate(g.coeffs)})


def build_v(seed: SeedPoly) -> TriPoly:
    """The companion cubic: homogenization of A(t*h(t)) to degree 3."""
    th = UniPoly([0, 1]) * seed.h
    return amap(th).homogenize(3)


@dataclass(frozen=True)
class CurveBundle:
    """Constructed forms plus the intermediate data worth auditing."""

    seed: SeedPoly
    v: TriPoly
    w: TriPoly
    q_form: TriPoly
    g_cubic: TriPoly   # degree <= 3 matcher for the x-derivative along the cusp
    p_reduced: UniPoly  # canonical remainder of F_x(t^3, t) modulo h


def build_w(seed: SeedPoly) -> tuple[TriPoly, TriPoly, UniPoly]:
    """Construct the double-vanishing sextic w with its audit trail.

    Returns (w, G, p) where F = A(h^2), p = F_x(t^3, t) reduced modulo h,
    G = A(p) and w is F - (x - y^3) G homogenized to degree 6.  By
    construction w and its first partials all vanish at every seed point,
    while w(0, 0, 1) = h(0)^2 != 0.
    """
    h = seed.h
    f_sextic = amap(h * h)
    fx = f_sextic.derivative("x")
    p_reduced = tri_eval_param(fx, h)
    g_cubic = amap(p_reduced)
    x_minus_y3 = TriPoly({(1, 0, 0): 1, (0, 3, 0): -1})
    w = (f_sextic - x_minus_y3 * g_cubic).homogenize(6)
    return w, g_cubic, p_reduced


def build_q(v: TriPoly, w: TriPoly) -> TriPoly:
    """Jacobian determinant of (U_FORM, v, w), rows in that order.

    The determinant is linear in each row, so it is computed as
    J(U_FORM, d v, e w) / (d e), with d and e the lcm of the coefficient
    denominators of v and of w.  U_FORM is integral, so every product then
    runs on ints.
    """
    d = lcm(*(c.denominator for c in v.terms.values()))
    e = lcm(*(c.denominator for c in w.terms.values()))
    if d * e != 1:
        v, w = v * d, w * e
    ux, uy, uz = (U_FORM.derivative(s) for s in _VARS)
    vx, vy, vz = (v.derivative(s) for s in _VARS)
    wx, wy, wz = (w.derivative(s) for s in _VARS)
    q = (
        ux * (vy * wz - vz * wy)
        - uy * (vx * wz - vz * wx)
        + uz * (vx * wy - vy * wx)
    )
    return q if d * e == 1 else q * Fraction(1, d * e)


def build_bundle(seed: SeedPoly) -> CurveBundle:
    v = build_v(seed)
    w, g_cubic, p_reduced = build_w(seed)
    return CurveBundle(seed, v, w, build_q(v, w), g_cubic, p_reduced)


def model_degree_check(bundle: CurveBundle) -> Check:
    """The construct report's check: Q has degree 9, witnessed by w's audit trail."""
    witness = {"reduced_x_derivative": bundle.p_reduced, "cubic_matcher": bundle.g_cubic}
    return Check("model_degree_9", bundle.q_form.total_degree == 9, witness)


# -- linear systems through the seed points ------------------------------


def _monomials(degree: int) -> list[Exponent]:
    """All exponent triples of the given total degree, descending grlex."""
    mons = [
        (i, j, degree - i - j)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    ]
    return sorted(mons, key=grlex_key, reverse=True)


def _xy_ops(order: int) -> list[str]:
    """The x/y derivative words of order <= order: "", x, y, xx, xy, yy, xxx, ...

    Euler's relation x F_x + y F_y + z F_z = deg(F) F, at z = 1, writes
    one more z-derivative of a partial F through F, F_x and F_y.  So at
    the seed points, where z = 1, these words vanish iff every partial of
    order <= order does.  A word's parent, word[:-1], comes before it.
    """
    return ["x" * (k - j) + "y" * j for k in range(order + 1) for j in range(k + 1)]


def _xy_partials(form: TriPoly, order: int) -> list[TriPoly]:
    """The partials of form along _xy_ops(order), each derived once from its parent."""
    partials = {"": form}
    for op in _xy_ops(order)[1:]:
        partials[op] = partials[op[:-1]].derivative(op[-1])
    return list(partials.values())


def cubic_space(seed: SeedPoly) -> list[TriPoly]:
    """Basis of cubic forms vanishing at all eight seed points.

    Row d, column e of the 8 x 10 system is the t^d coefficient of
    monomial e at (t^3, t, 1) mod h.
    """
    mons = _monomials(3)
    cols = [tri_eval_param(TriPoly.monomial(m), seed.h).coeffs for m in mons]
    rows = [[col[d] if d < len(col) else 0 for col in cols] for d in range(seed.h.degree)]
    return [TriPoly(dict(zip(mons, vec))) for vec in q_kernel_basis(rows, len(mons))]


def _vanishes_doubly(form: TriPoly, h: UniPoly) -> bool:
    """Form, x- and y-partial vanish at the points; by Euler so does the z-partial."""
    return all(tri_eval_param(f, h).is_zero for f in _xy_partials(form, 1))


def sextic_space(seed: SeedPoly, v: TriPoly, w: TriPoly) -> Check:
    """Check that u^2, uv, v^2, w are a basis of the doubly-vanishing sextics.

    The system has dimension 4 for every SeedPoly, by restriction to the
    cuspidal cubic.  It uses validate_seed's invariants: h is monic of degree
    8 with no t^7 term, h(0) != 0 and h is squarefree, so the points are g(a)
    for g(t) = (t^3, t, 1) at eight distinct roots a.  Divide a form F of
    degree d by U_FORM in y: F = U_FORM G + R with R free of y^3.  As
    x^i y^j z^k goes to t^(3i+j), R -> R(g) is injective onto the polynomials
    of degree <= 3d without t^(3d-1), and F(0:0:1) = R(0:0:1) = R(g)(0).  At
    g(a) the cubic is smooth and grad F = G grad U_FORM + grad R; given
    R(g(a)) = 0 both gradients are orthogonal to g(a) (Euler), and grad U_FORM
    also to g'(a), independent of g(a).  So F is singular there iff R(g) has a
    double root at a and G(g(a)) takes one value fixed by R.  Cubics through
    the points: R(g) = h (s0 + s1 t), whose t^8 coefficient s0 + s1 h_7 = s0
    is 0, so U_FORM and A(t h) span them, both 0 at (0:0:1); being 2 of 10
    dimensions, they let the cubics take any values at the points.  Singular
    sextics: R(g) = h^2 (s0 + s1 t + s2 t^2), whose t^17 coefficient
    s1 + 2 h_7 s2 = s1 is 0, and for each R the G are a 2-dimensional affine
    family: dimension 2 + 2 = 4, and the forms 0 at (0:0:1) are s0 = 0.

    So only what can fail is computed.  u = U_FORM vanishes at the points and
    at (0:0:1) by identity: U_FORM(t^3, t, 1) = t^3 - t^3 is the zero
    polynomial, and U_FORM has no z^3 term.  v is checked to vanish there too,
    w doubly at the points and not at (0:0:1), and u, v to be independent.
    Then u^2, uv, v^2 vanish doubly (product rule) and are independent (a
    relation factors into linear ones), and w is off their span (a form of
    degree d takes its z^d coefficient at (0:0:1)).  Conversely in a basis v^2
    vanishes at the points, so v does, independent of u and so 0 at (0:0:1),
    and w is off the hyperplane s0 = 0 the squares span: a failed premise is
    the exact kernel's verdict too, with the same dimension.
    """
    h = seed.h
    basis = (
        tri_eval_param(v, h).is_zero
        and _vanishes_doubly(w, h)
        and forms_rank([U_FORM, v], 3) == 2
        and v.coeff((0, 0, 3)) == 0
        and w.coeff((0, 0, 6)) != 0
    )
    return Check("sextic_space_dimension", basis, {"dimension": 4})


def forms_rank(forms: list[TriPoly], degree: int) -> int:
    """Dimension over Q of the span of forms of the given degree."""
    mons = _monomials(degree)
    return q_rank([[f.coeff(e) for e in mons] for f in forms])


# -- multiplicity, genus, dichotomy --------------------------------------


def multiplicity_report(bundle: CurveBundle) -> list[Check]:
    """Check that every seed point is a triple point of the model.

    The x/y partials of order <= 2 (_xy_ops) must reduce to zero modulo h
    after the (t^3, t, 1) substitution; the first that does not is named,
    as a z-partial fails only after an earlier x/y one.  The multiplicity
    is then exactly 3 iff the gcd of h with the x/y partials of order <= 3
    is 1.  For degree >= 3 that is the gcd with all order-3 partials, as
    by Euler a form of positive degree vanishes where its first partials
    do.  Returns vanishing_to_order_2 and multiplicity_exactly_3.

    Both witnesses, the first failing partial and the monic gcd, are the
    same for any nonzero multiple of Q, so the partials are taken of d Q,
    with d the lcm of Q's coefficient denominators: they run on ints.
    """
    h = bundle.seed.h
    q = bundle.q_form
    d = lcm(*(c.denominator for c in q.terms.values()))
    partials = _xy_partials(q if d == 1 else q * d, 3)
    low = [tri_eval_param(f, h) for f in partials[:6]]
    failed = next((op or "value" for op, r in zip(_xy_ops(2), low) if not r.is_zero), None)
    ok2 = failed is None
    # gcd(h, A and B) = gcd(gcd(h, A), B); B is reduced only while it can matter
    g = common_factor(common_factor(h, low), (tri_eval_param(f, h) for f in partials[6:]))
    return [
        Check("vanishing_to_order_2", ok2, {"failed_derivative": failed}),
        Check("multiplicity_exactly_3", ok2 and g.degree == 0, {"order3_gcd": g}),
    ]


def genus_of_model(degree: int, multiplicities: Sequence[int]) -> int:
    """Arithmetic genus of a plane curve minus its ordinary singular points."""
    if degree < 1 or any(m < 1 for m in multiplicities):
        raise ValueError("degree and multiplicities must be positive")
    g = (degree - 1) * (degree - 2) // 2
    for m in multiplicities:
        g -= m * (m - 1) // 2
    return g


def _nth_root_form(q: TriPoly, n: int) -> TriPoly | None:
    """Solve q = lc * r^n for a form r with unit leading coefficient.

    Coefficients of r are matched one monomial at a time in descending
    graded-lex order; any candidate is verified by exact expansion, so a
    returned root is always genuine and None means no root exists over
    the rationals (hence, after normalizing the leading coefficient, over
    any extension field either).
    """
    lead_e, lead_c = q.leading()
    if any(v % n for v in lead_e):
        return None
    root_lead = tuple(v // n for v in lead_e)
    deg = sum(root_lead)
    candidates = [e for e in _monomials(deg) if grlex_key(e) < grlex_key(root_lead)]
    root = TriPoly.monomial(root_lead)
    for e in candidates:
        target_e = tuple(
            (n - 1) * root_lead[i] + e[i] for i in range(3)
        )
        current = (root ** n).coeff(target_e)
        mismatch = q.coeff(target_e) / lead_c - current
        coeff = mismatch / n
        if coeff != 0:
            root = root + TriPoly.monomial(e, coeff)
    if root ** n * lead_c == q:
        return root
    return None


def perfect_power_dichotomy(q: TriPoly) -> Check:
    """Decide whether the degree-9 model is a 9th power or a perfect cube.

    "Neither" is the expected outcome and the only passing verdict;
    together with the genus argument it certifies that the model is
    irreducible over the algebraic closure.  On every valid seed the
    leading term is 6 x^8 z, so the leading-exponent test in _nth_root_form
    decides every CLI input; its matching loop serves other degree-9 forms.
    """
    if q.total_degree != 9:
        raise ValueError("dichotomy applies to degree-9 forms")
    if _nth_root_form(q, 9) is not None:
        verdict = "ninth-power"
    elif _nth_root_form(q, 3) is not None:
        verdict = "cube"
    else:
        verdict = "neither"
    return Check("perfect_power_dichotomy", verdict == "neither", {"verdict": verdict})


# -- full verification report ---------------------------------------------


def verify_bundle(bundle: CurveBundle) -> list[Check]:
    """Run every finite check on a constructed bundle, in a fixed order."""
    seed = bundle.seed
    h = seed.h
    v, w = bundle.v, bundle.w
    checks: list[Check] = []

    ident = v.param_eval() - UniPoly([0, 1]) * h
    checks.append(Check("v_parametric_identity", ident.is_zero, {"residual_degree": ident.degree}))
    checks.append(Check("v_x_degree", v.x_degree == 3, {"x_degree": v.x_degree}))

    # its premises include v vanishing at the points and at (0:0:1), as u does
    sextic = sextic_space(seed, v, w)
    # the kernel is exactly the cubics that vanish at the points
    cubics = cubic_space(seed)
    uv_vanish = sextic.passed or tri_eval_param(v, h).is_zero
    cubic_ok = len(cubics) == 2 and uv_vanish
    ninth_cubic = all(c.coeff((0, 0, 3)) == 0 for c in cubics)
    checks.append(Check("cubic_space_dimension", cubic_ok, {"dimension": len(cubics)}))
    checks.append(Check("cubic_space_ninth_point", ninth_cubic, {}))
    checks.append(sextic)
    w_ninth = w.coeff((0, 0, 6))
    checks.append(Check(
        "w_ninth_point_value",
        w_ninth == seed.h0 ** 2 and w_ninth != 0,
        {"value": w_ninth, "expected": seed.h0 ** 2},
    ))
    # u^2, uv and v^2 vanish at (0:0:1) iff v does, as u = U_FORM does
    sq_vanish = sextic.passed or v.coeff((0, 0, 3)) == 0
    checks.append(Check("pencil_squares_vanish_at_ninth_point", sq_vanish, {}))
    # a basis of the system vanishes doubly at the points, w with it
    w_vanish = sextic.passed or _vanishes_doubly(w, h)
    checks.append(Check("w_vanishes_doubly_on_points", w_vanish, {}))

    qdeg = bundle.q_form.total_degree
    checks.append(Check("model_degree", qdeg == 9, {"degree": qdeg}))

    order2, order3 = multiplicity_report(bundle)
    checks += [order2, order3]
    if qdeg == 9 and order3.passed:
        genus = genus_of_model(9, [3] * 8)
        checks.append(Check("genus", genus == 4, {"genus": genus}))
        checks.append(perfect_power_dichotomy(bundle.q_form))
    else:
        checks.append(Check("genus", False, {"reason": "model degenerate"}))
        checks.append(Check("perfect_power_dichotomy", False, {"reason": "model degenerate"}))

    return checks
