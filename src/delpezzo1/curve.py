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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .finitefield import PrimeSkip, fp_rem, poly_mod_p
from .linalg import fp_rank, q_kernel_basis, q_rank
from .quotient import qr_reduce, tri_eval_param
from .serialize import Check
from .tripoly import Exponent, TriPoly, grlex_key
from .unipoly import Scalar, UniPoly

# The cuspidal cubic through every seed point, fixed once and for all.
U_FORM = TriPoly({(1, 0, 2): 1, (0, 3, 0): -1})

_VARS = ("x", "y", "z")

# The prime of the sextic certificate: large, so that a rank drop is rare.
CERT_PRIME = 2**31 - 1


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
    """
    if len(coeffs) != 9:
        raise SeedError("wrong-count", f"expected 9 coefficients, got {len(coeffs)}")
    try:
        h = UniPoly(coeffs)
    except (ValueError, ZeroDivisionError) as exc:
        raise SeedError("unparseable", f"bad coefficient: {exc}") from exc
    if h.degree != 8:
        raise SeedError("wrong-degree", f"degree {h.degree}, expected 8")
    if h.lc != 1:
        raise SeedError("not-monic", f"leading coefficient {h.lc}, expected 1")
    if h.coeff(7) != 0:
        raise SeedError("t7-term", f"t^7 coefficient {h.coeff(7)}, expected 0")
    if h.coeff(0) == 0:
        raise SeedError("zero-constant", "constant term vanishes")
    if h.gcd(h.derivative()).degree != 0:
        raise SeedError("not-squarefree", "gcd(h, h') is nonconstant")
    return SeedPoly(h)


def amap(g: UniPoly) -> TriPoly:
    """Substitution section along the cusp curve: t^(3i+r) -> x^i y^r.

    The image A(g) satisfies A(g)(t^3, t) = g(t), and A(g)(x, y) - g(y)
    is divisible by x - y^3.
    """
    terms: dict[Exponent, Fraction] = {}
    for e, c in enumerate(g.coeffs):
        if c == 0:
            continue
        i, r = divmod(e, 3)
        terms[(i, r, 0)] = c
    return TriPoly(terms)


def build_v(seed: SeedPoly) -> TriPoly:
    """The companion cubic: homogenization of A(t*h(t)) to degree 3."""
    th = UniPoly([0, 1]) * seed.h
    return amap(th).homogenize(3)


@dataclass(frozen=True)
class CurveBundle:
    """Constructed forms plus the intermediate data worth auditing."""

    seed: SeedPoly
    u: TriPoly
    v: TriPoly
    w: TriPoly
    q_form: TriPoly
    f_sextic: TriPoly  # bivariate image of h^2 under the substitution section
    g_cubic: TriPoly   # degree <= 3 matcher for the x-derivative along the cusp
    h_affine: TriPoly  # w in the z = 1 chart
    p_reduced: UniPoly  # canonical remainder of F_x(t^3, t) modulo h


def build_w(seed: SeedPoly) -> tuple[TriPoly, TriPoly, TriPoly, TriPoly, UniPoly]:
    """Construct the double-vanishing sextic w with its audit trail.

    Returns (w, F, G, H, p) where F = A(h^2), p = F_x(t^3, t) reduced
    modulo h, G = A(p), H = F - (x - y^3) G and w is H homogenized to
    degree 6.  By construction w and its first partials all vanish at
    every seed point, while w(0, 0, 1) = h(0)^2 != 0.
    """
    h = seed.h
    f_sextic = amap(h * h)
    fx = f_sextic.derivative("x")
    p_reduced = qr_reduce(fx.param_eval(), h)
    g_cubic = amap(p_reduced)
    x_minus_y3 = TriPoly({(1, 0, 0): 1, (0, 3, 0): -1})
    h_affine = f_sextic - x_minus_y3 * g_cubic
    w = h_affine.homogenize(6)
    return w, f_sextic, g_cubic, h_affine, p_reduced


def build_q(u: TriPoly, v: TriPoly, w: TriPoly) -> TriPoly:
    """Jacobian determinant of (u, v, w), rows in that order."""
    ux, uy, uz = (u.derivative(s) for s in _VARS)
    vx, vy, vz = (v.derivative(s) for s in _VARS)
    wx, wy, wz = (w.derivative(s) for s in _VARS)
    return (
        ux * (vy * wz - vz * wy)
        - uy * (vx * wz - vz * wx)
        + uz * (vx * wy - vy * wx)
    )


def build_bundle(seed: SeedPoly) -> CurveBundle:
    u = U_FORM
    v = build_v(seed)
    w, f_sextic, g_cubic, h_affine, p_reduced = build_w(seed)
    q_form = build_q(u, v, w)
    return CurveBundle(seed, u, v, w, q_form, f_sextic, g_cubic, h_affine, p_reduced)


# -- linear systems through the seed points ------------------------------


def _monomials(degree: int) -> list[Exponent]:
    """All exponent triples of the given total degree, descending grlex."""
    mons = [
        (i, j, degree - i - j)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    ]
    return sorted(mons, key=grlex_key, reverse=True)


def _apply_ops(form: TriPoly, ops: str) -> TriPoly:
    for s in ops:
        form = form.derivative(s)
    return form


def _constraint_rows(h: UniPoly, degree: int, ops: list[str]) -> list[list[Fraction]]:
    """One block of deg(h) rows per op: column e is op(monomial e) at (t^3, t, 1) mod h."""
    mons = _monomials(degree)
    rows = []
    for op in ops:
        block = [[Fraction(0)] * len(mons) for _ in range(h.degree)]
        for col, e in enumerate(mons):
            derived = _apply_ops(TriPoly.monomial(e), op)
            rep = qr_reduce(derived.param_eval(), h)
            for d in range(rep.degree + 1):
                block[d][col] = rep.coeff(d)
        rows.extend(block)
    return rows


def _space_through_points(seed: SeedPoly, degree: int, ops: list[str]) -> list[TriPoly]:
    mons = _monomials(degree)
    kernel = q_kernel_basis(_constraint_rows(seed.h, degree, ops), len(mons))
    return [TriPoly({e: c for e, c in zip(mons, vec) if c != 0}) for vec in kernel]


def cubic_space(seed: SeedPoly) -> list[TriPoly]:
    """Basis of cubic forms vanishing at all eight seed points."""
    return _space_through_points(seed, 3, [""])


def _fp_constraint_rows(h: UniPoly, degree: int, ops: list[str], p: int) -> list[list[int]]:
    """The matrix of _constraint_rows reduced mod p, built over F_p.

    Column e of block op is c * (t^n mod h) when the op-derivative of the
    monomial e is c x^i y^j z^k with n = 3i + j.  Raises PrimeSkip when p
    divides a denominator of h.
    """
    hp = poly_mod_p(h, p)
    powers = [fp_rem([0] * n + [1], hp, p) for n in range(3 * degree + 1)]
    mons = _monomials(degree)
    rows = []
    for op in ops:
        block = [[0] * len(mons) for _ in range(h.degree)]
        for col, e in enumerate(mons):
            for (i, j, _), c in _apply_ops(TriPoly.monomial(e), op).terms.items():
                for d, r in enumerate(powers[3 * i + j]):
                    block[d][col] = int(c) * r % p
        rows.extend(block)
    return rows


def sextic_space(seed: SeedPoly) -> list[TriPoly]:
    """Basis of sextics vanishing with first x- and y-derivatives at the points.

    The z-derivative condition is implied by the Euler relation, so only
    two derivative blocks are imposed beyond plain vanishing: 24 linear
    conditions on the 28 sextic monomials.

    The common path certifies the basis u^2, uv, v^2, w instead of
    computing a kernel.  The condition matrix has rational entries whose
    denominators divide powers of those of h, so when the prime CERT_PRIME
    divides none of them the matrix reduces mod p and its rank over Q is
    at least its rank over F_p (a nonzero minor mod p is nonzero).  F_p
    rank 24 therefore bounds the Q-dimension by 28 - 24 = 4; the four
    forms lying in the system exactly (reduction modulo h over Q) and
    being independent over Q then make it exactly 4, with them as a basis.
    The certificate is one-sided: if p divides a denominator of h, the
    F_p rank is below 24, a form fails a condition or the forms are
    dependent, the exact kernel over Q is computed instead.
    """
    h, p, ops = seed.h, CERT_PRIME, ["", "x", "y"]
    try:
        rows = _fp_constraint_rows(h, 6, ops, p)
    except PrimeSkip:
        rows = []
    if fp_rank(rows, p) == 24:
        v = build_v(seed)
        forms = [U_FORM * U_FORM, U_FORM * v, v * v, build_w(seed)[0]]
        in_system = all(
            tri_eval_param(_apply_ops(f, op), h).is_zero for f in forms for op in ops
        )
        if in_system and forms_rank(forms, 6) == 4:
            return forms
    return _space_through_points(seed, 6, ops)


def forms_rank(forms: list[TriPoly], degree: int) -> int:
    """Dimension over Q of the span of forms of the given degree."""
    mons = _monomials(degree)
    return q_rank([[f.coeff(e) for e in mons] for f in forms])


# -- multiplicity, genus, dichotomy --------------------------------------


@dataclass(frozen=True)
class MultiplicityReport:
    """Vanishing orders of the model at the seed points, all of them at once."""

    vanishing_to_order_2: bool
    failed_derivative: str | None
    order3_gcd: UniPoly
    multiplicity_exactly_3: bool


def multiplicity_report(bundle: CurveBundle) -> MultiplicityReport:
    """Check that every seed point is a triple point of the model.

    All partials of order <= 2 must reduce to zero modulo h after the
    (t^3, t, 1) substitution; the point multiplicity is then exactly 3
    iff h shares no root with the full set of order-3 partials, i.e. the
    gcd of h with their representatives is 1.
    """
    h = bundle.seed.h
    q = bundle.q_form
    failed = None
    ok2 = True
    for order in range(3):
        for combo in itertools.combinations_with_replacement(_VARS, order):
            rep = tri_eval_param(_apply_ops(q, "".join(combo)), h)
            if not rep.is_zero:
                ok2 = False
                failed = "".join(combo) or "value"
                break
        if not ok2:
            break
    g = h
    for combo in itertools.combinations_with_replacement(_VARS, 3):
        rep = tri_eval_param(_apply_ops(q, "".join(combo)), h)
        if not rep.is_zero:
            g = g.gcd(rep)
            if g.degree == 0:
                break
    exact = ok2 and g.degree == 0
    return MultiplicityReport(ok2, failed, g if g.degree > 0 else UniPoly([1]), exact)


def genus_of_model(degree: int, multiplicities: Sequence[int]) -> int:
    """Arithmetic genus of a plane curve minus its ordinary singular points."""
    if degree < 1 or any(m < 1 for m in multiplicities):
        raise ValueError("degree and multiplicities must be positive")
    g = (degree - 1) * (degree - 2) // 2
    for m in multiplicities:
        g -= m * (m - 1) // 2
    return g


@dataclass(frozen=True)
class DichotomyReport:
    """Outcome of testing Q = c * linear^9 and Q = c * cubic^3 exactly."""

    is_ninth_power: bool
    linear_factor: TriPoly | None
    is_cube: bool
    cube_root: TriPoly | None

    @property
    def verdict(self) -> str:
        if self.is_ninth_power:
            return "ninth-power"
        if self.is_cube:
            return "cube"
        return "neither"


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


def perfect_power_dichotomy(q: TriPoly) -> DichotomyReport:
    """Decide whether the degree-9 model is a 9th power or a perfect cube.

    "Neither" is the expected outcome; together with the genus argument it
    certifies that the model is irreducible over the algebraic closure.
    """
    if q.total_degree != 9:
        raise ValueError("dichotomy applies to degree-9 forms")
    linear = _nth_root_form(q, 9)
    cube = _nth_root_form(q, 3)
    return DichotomyReport(linear is not None, linear, cube is not None, cube)


# -- full verification report ---------------------------------------------


def verify_bundle(bundle: CurveBundle) -> list[Check]:
    """Run every finite check on a constructed bundle, in a fixed order."""
    seed = bundle.seed
    h = seed.h
    checks: list[Check] = []

    ident = bundle.v.param_eval() - UniPoly([0, 1]) * h
    checks.append(Check("v_parametric_identity", ident.is_zero, {"residual_degree": ident.degree}))
    checks.append(Check("v_x_degree", bundle.v.x_degree == 3, {"x_degree": bundle.v.x_degree}))

    # a kernel basis is independent, so equal ranks put u and v in its span
    cubics = cubic_space(seed)
    cubic_ok = len(cubics) == 2 and forms_rank(cubics + [bundle.u, bundle.v], 3) == 2
    ninth_cubic = all(c.eval(0, 0, 1) == 0 for c in cubics)
    checks.append(Check("cubic_space_dimension", cubic_ok, {"dimension": len(cubics)}))
    checks.append(Check("cubic_space_ninth_point", ninth_cubic, {}))

    sextics = sextic_space(seed)
    expected = [bundle.u * bundle.u, bundle.u * bundle.v, bundle.v * bundle.v, bundle.w]
    sextic_ok = (
        len(sextics) == 4
        and forms_rank(expected, 6) == 4
        and forms_rank(sextics + expected, 6) == 4
    )
    checks.append(Check("sextic_space_dimension", sextic_ok, {"dimension": len(sextics)}))
    w_ninth = bundle.w.eval(0, 0, 1)
    checks.append(Check(
        "w_ninth_point_value",
        w_ninth == seed.h0 ** 2 and w_ninth != 0,
        {"value": w_ninth, "expected": seed.h0 ** 2},
    ))
    sq_vanish = all(f.eval(0, 0, 1) == 0 for f in expected[:3])
    checks.append(Check("pencil_squares_vanish_at_ninth_point", sq_vanish, {}))

    w_vanish = all(
        tri_eval_param(_apply_ops(bundle.w, op), h).is_zero
        for op in ("", "x", "y", "z")
    )
    checks.append(Check("w_vanishes_doubly_on_points", w_vanish, {}))

    qdeg = bundle.q_form.total_degree
    checks.append(Check("model_degree", qdeg == 9, {"degree": qdeg}))

    mult = multiplicity_report(bundle)
    checks.append(Check(
        "vanishing_to_order_2",
        mult.vanishing_to_order_2,
        {"failed_derivative": mult.failed_derivative},
    ))
    checks.append(Check(
        "multiplicity_exactly_3", mult.multiplicity_exactly_3, {"order3_gcd": mult.order3_gcd}
    ))

    if qdeg == 9 and mult.multiplicity_exactly_3:
        genus = genus_of_model(9, [3] * 8)
        checks.append(Check("genus", genus == 4, {"genus": genus}))
        dich = perfect_power_dichotomy(bundle.q_form)
        checks.append(Check(
            "perfect_power_dichotomy", dich.verdict == "neither", {"verdict": dich.verdict}
        ))
    else:
        checks.append(Check("genus", False, {"reason": "model degenerate"}))
        checks.append(Check("perfect_power_dichotomy", False, {"reason": "model degenerate"}))

    return checks
