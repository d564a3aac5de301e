"""Brute-force oracles for the checks that Euler's relation shortens.

The library takes only x/y partials at the seed points and one x/y
gradient minor.  These oracles take every partial in x, y and z and all
three gradient minors, so a test can assert that both give the same
Checks.  The linear-system oracle solves the conditions at the points
exactly over Q, where the library proves the sextic dimension instead;
it imposes the z-partial on the sextic system explicitly.  The cubic
oracle puts u and v in the span of the kernel by a rank over Q, where the
library only evaluates them at the points.
The evaluation oracles give the value of a polynomial or a form at a point,
which the library itself never needs.  The Jacobian oracle expands the
determinant on the forms as given, without clearing denominators first.
The rendering oracles copy a payload to JSON values first and then call
json.dumps, where the library writes the raw values in one walk.
The lattice oracles search the whole space for short vectors, x and -x
alike, summing each level's centre afresh at every node, and take the
mod-2 census from a table of integer norms on all classes; the library
searches half the space with running centres and builds q from the
polarization identity on its mod-2 Gram rows.
The power-sum oracles rebuild each row of Pascal's triangle inside the
convolution loop and slice their inputs at every Newton step; the library
reads cached rows, sums a self-convolution by symmetry and zips whole
sequences.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import isqrt, lcm, perm
from operator import mul
from typing import Sequence

from conftest import FIXED_FRACTION_COEFFS, X8_COEFFS, random_valid_seed
from delpezzo1.curve import (
    U_FORM,
    CurveBundle,
    _monomials,
    cubic_space,
    forms_rank,
    validate_seed,
)
from delpezzo1.lattice import IntLattice
from delpezzo1.linalg import q_kernel_basis
from delpezzo1.quotient import common_factor, qr_reduce, tri_eval_param
from delpezzo1.serialize import Check
from delpezzo1.tripoly import TriPoly
from delpezzo1.unipoly import UniPoly, _exact_quotient

VARS = ("x", "y", "z")


def poly_value(f: UniPoly, value) -> Fraction:
    """f(value) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * value + c
    return acc


def form_value(form: TriPoly, x, y, z) -> Fraction:
    """form(x, y, z), term by term."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    return sum((c * x**i * y**j * z**k for (i, j, k), c in form.terms.items()), Fraction(0))


def jacobian(u: TriPoly, v: TriPoly, w: TriPoly) -> TriPoly:
    """Jacobian determinant of (u, v, w) by cofactor expansion along the first row."""
    (ux, uy, uz), (vx, vy, vz), (wx, wy, wz) = ([f.derivative(s) for s in VARS] for f in (u, v, w))
    return ux * (vy * wz - vz * wy) - uy * (vx * wz - vz * wx) + uz * (vx * wy - vy * wx)


def apply_ops(form: TriPoly, ops: str) -> TriPoly:
    for s in ops:
        form = form.derivative(s)
    return form


def oracle_seeds() -> list[UniPoly]:
    """Ten random small seeds, X8, the fraction seed and a 100-bit seed."""
    rng = random.Random(71)
    seeds = [random_valid_seed(rng) for _ in range(10)]
    seeds += [validate_seed(X8_COEFFS), validate_seed(FIXED_FRACTION_COEFFS)]
    seeds.append(validate_seed([rng.getrandbits(100) - 2**99 for _ in range(7)] + [0, 1]))
    return seeds


def multiplicity_report_xyz(bundle: CurveBundle) -> list[Check]:
    """Every x/y/z partial of order <= 2 in turn, then the gcd over all order-3 ones."""
    h = bundle.h
    q = bundle.q_form
    ops = (
        "".join(combo)
        for order in range(3)
        for combo in itertools.combinations_with_replacement(VARS, order)
    )
    nonzero = (op or "value" for op in ops if not tri_eval_param(apply_ops(q, op), h).is_zero)
    failed = next(nonzero, None)
    ok2 = failed is None
    g = common_factor(h, (
        tri_eval_param(apply_ops(q, "".join(combo)), h)
        for combo in itertools.combinations_with_replacement(VARS, 3)
    ))
    return [
        Check("vanishing_to_order_2", ok2, {"failed_derivative": failed}),
        Check("multiplicity_exactly_3", ok2 and g.degree == 0, {"order3_gcd": g}),
    ]


def check_singular_cubic_xyz(h: UniPoly, v: TriPoly) -> Check:
    """The gcd of h with all three 2x2 minors of the x/y/z gradient rows of u and v."""
    row_u = [tri_eval_param(U_FORM.derivative(s), h) for s in VARS]
    row_v = [tri_eval_param(v.derivative(s), h) for s in VARS]
    minors = (
        (row_u[a] * row_v[b] - row_u[b] * row_v[a]) % h
        for a, b in ((0, 1), (0, 2), (1, 2))
    )
    g = common_factor(h, minors)
    return Check(
        "no_singular_cubic_through_point", g.degree == 0, {"dependent_gradient_factor": g}
    )


def constraint_rows(h: UniPoly, degree: int, ops: Sequence[str]) -> list[list[Fraction]]:
    """One block of deg h rows per op: op applied to each monomial at (t^3, t, 1) mod h.

    Column e of block op holds the coefficients of that remainder.  In
    closed form, an op with a x's, b y's and c z's takes x^i y^j z^k to
    perm(i, a) perm(j, b) perm(k, c) t^n with n = 3(i - a) + (j - b).
    """
    mons = _monomials(degree)
    powers = [qr_reduce(UniPoly([0] * n + [1]), h).coeffs for n in range(3 * degree + 1)]
    rows = []
    for op in ops:
        a, b, c = (op.count(s) for s in VARS)
        block = [[0] * len(mons) for _ in range(h.degree)]
        for col, (i, j, k) in enumerate(mons):
            coeff = perm(i, a) * perm(j, b) * perm(k, c)
            if coeff:
                for d, r in enumerate(powers[3 * (i - a) + (j - b)]):
                    block[d][col] = coeff * r
        rows.extend(block)
    return rows


def space_through_points(h: UniPoly, degree: int, ops: Sequence[str]) -> list[TriPoly]:
    """The exact kernel over Q: a basis of the forms whose ops all vanish at the points."""
    mons = _monomials(degree)
    kernel = q_kernel_basis(constraint_rows(h, degree, ops), len(mons))
    return [TriPoly(dict(zip(mons, vec))) for vec in kernel]


def sextic_space_exact(h: UniPoly, u: TriPoly, v: TriPoly, w: TriPoly) -> Check:
    """The exact kernel of the value, x-, y- and z-conditions, and u^2, uv, v^2, w against it."""
    kernel = space_through_points(h, 6, ["", "x", "y", "z"])
    forms = [u * u, u * v, v * v, w]
    basis = len(kernel) == 4 and forms_rank(forms, 6) == 4 and forms_rank(kernel + forms, 6) == 4
    return Check("sextic_space_dimension", basis, {"dimension": len(kernel)})


def cubic_space_rank(h: UniPoly, u: TriPoly, v: TriPoly) -> Check:
    """The cubic kernel's dimension, and u, v in its span: equal ranks with and without them."""
    cubics = cubic_space(h)
    ok = len(cubics) == 2 and forms_rank(cubics + [u, v], 3) == 2
    return Check("cubic_space_dimension", ok, {"dimension": len(cubics)})


def jsonable(value):
    """JSON-ready copy of a payload of dicts, lists, tuples, ints, strings and None.

    Fractions become decimal strings, a UniPoly its ascending coefficient
    strings ([] for zero), a TriPoly its monomial list
    [{"e": [i, j, k], "c": "coeff"}, ...], leading term first; any other
    type raises TypeError.
    """
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, UniPoly):
        return [str(c) for c in value.coeffs]
    if isinstance(value, TriPoly):
        return [{"e": list(e), "c": str(c)} for e, c in value.sorted_terms()]
    if value is None or isinstance(value, (int, str)):
        return value
    raise TypeError(f"no JSON form for {type(value).__name__}")


def canonical_json_two_step(payload: dict) -> str:
    """The canonical JSON through a jsonable copy and json.dumps(indent=2)."""
    return json.dumps(jsonable(payload), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _flatten_two_step(prefix: str, value, out: list[str]):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten_two_step(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, list):
        out.append(f"{prefix} = {json.dumps(value, sort_keys=True)}")
    else:
        out.append(f"{prefix} = {json.dumps(value)}")


def text_two_step(payload: dict) -> str:
    """The text rendering of a jsonable copy, its leaves through json.dumps."""
    lines: list[str] = []
    _flatten_two_step("", jsonable(payload), lines)
    return "\n".join(lines) + "\n"


def enumerate_short_vectors_full(lat: IntLattice, norm: int) -> list[tuple[int, ...]]:
    """Fincke-Pohst over the whole space: every x_i in its bounds, the centre summed per node.

    The same Bareiss levels and integer isqrt bounds as the library; the
    zero vector is skipped at the leaf.
    """
    n = lat.rank
    a = [[-c for c in row] for row in lat.gram]
    minors = [1]
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            raise ValueError("lattice is not negative definite")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // minors[k]
        minors.append(pivot)
    target = -norm
    if target < 0:
        return []
    dens = [minors[i] * minors[i + 1] for i in range(n)]
    scale = lcm(*dens)
    levels = [(minors[i + 1], scale // den, a[i][i + 1 :]) for i, den in enumerate(dens)]
    found: list[tuple[int, ...]] = []
    _descend_full(levels, n - 1, target * scale, [0] * n, found)
    return sorted(found)


def _descend_full(levels: list, i: int, rem: int, x: list[int], found: list) -> None:
    den, w, coef = levels[i]
    cnum = sum(c * xj for c, xj in zip(coef, x[i + 1 :]))
    bound = isqrt(rem // w)
    for xi in range(-((bound + cnum) // den), (bound - cnum) // den + 1):
        x[i] = xi
        s = xi * den + cnum
        rest = rem - w * s * s
        if i == 0:
            if rest == 0 and any(x):
                found.append(tuple(x))
        else:
            _descend_full(levels, i - 1, rest, x, found)
    x[i] = 0


def _mask(v: Sequence[int]) -> int:
    return sum((c & 1) << i for i, c in enumerate(v))


def mod2_quadratic_census_norms(lat: IntLattice, roots: list) -> Check:
    """The mod-2 census from a table of integer norms on every class.

    norm(m) = norm(m - e_i) + g_ii + 2 sum_(j in m - e_i) g_ij for i the
    lowest bit of m; q(m) is norm(m)/2 mod 2, and the first odd norm in
    mask order raises ArithmeticError.
    """
    n = lat.rank
    g = lat.gram
    norms = [0] * (1 << n)
    qvals = [0] * (1 << n)
    for mask in range(1, 1 << n):
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        row = g[i]
        norm = norms[rest] + row[i] + 2 * sum(row[j] for j in range(i + 1, n) if rest >> j & 1)
        if norm % 2:
            raise ArithmeticError(f"odd norm {norm}: q is defined on even lattices only")
        norms[mask] = norm
        qvals[mask] = (norm // 2) & 1
    q1 = sum(qvals)
    q0 = (1 << n) - 1 - q1

    root_masks = sorted({_mask(r) for r in roots})
    roots_q1 = all(qvals[m] == 1 for m in root_masks)
    # odd[m] has bit j set when (e_j, m) is odd, the XOR of the mod-2 Gram
    # rows over the bits of m
    rows2 = [_mask(row) for row in g]
    odd = {}
    for m in root_masks:
        acc = 0
        for i in range(n):
            if m >> i & 1:
                acc ^= rows2[i]
        odd[m] = acc
    preserve = all(qvals[m] == 1 or not odd[m] for m in root_masks)
    return Check(
        "mod2_census",
        (q1, q0, len(roots), len(root_masks)) == (120, 135, 240, 120) and roots_q1 and preserve,
        {
            "nonzero_q1": q1,
            "nonzero_q0": q0,
            "root_count": len(roots),
            "root_class_count": len(root_masks),
            "root_classes_all_q1": roots_q1,
            "reflections_preserve_q": preserve,
        },
    )


def binomial_convolution_rebuilt(pf: Sequence[int], pg: Sequence[int]) -> list[int]:
    """sum_i C(k, i) pf_i pg_(k-i) for each k, with every Pascal row rebuilt from the last."""
    sums: list[int] = []
    binom_row = [1]
    for p in range(len(pf)):
        sums.append(sum(map(mul, map(mul, binom_row, pf), reversed(pg[: p + 1]))))
        binom_row = [1] + [binom_row[j] + binom_row[j + 1] for j in range(p)] + [1]
    return sums


def power_sums_sliced(f: UniPoly, count: int) -> list[int]:
    """Newton's identities for p_0..p_count of monic integer f, slicing a and ps at each step."""
    fm = f.monic()
    a = [c.numerator for c in reversed(fm.coeffs)]
    n = fm.degree
    ps = [n]
    for k in range(1, count + 1):
        m = min(k - 1, n)
        s = sum(map(mul, a[1 : m + 1], reversed(ps[k - m : k])))
        if k <= n:
            s += k * a[k]
        ps.append(-s)
    return ps


def from_power_sums_sliced(ps: Sequence[int]) -> UniPoly:
    """Newton's recurrence k a_k = -(a_0 p_k + ... + a_(k-1) p_1), slicing ps at each step."""
    a = [1]
    for k in range(1, len(ps)):
        a.append(_exact_quotient(-sum(map(mul, a, reversed(ps[1 : k + 1]))), k))
    return UniPoly(reversed(a))
