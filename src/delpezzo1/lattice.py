"""Integer lattices, their mod-2 reductions, and the checks built on them.

Covers the rank-(10-d) odd hyperbolic lattice with its distinguished
vector omega = -3 e_0 + e_1 + ... + e_{9-d}, the orthogonal complement
(the E8 or E7 root lattice with reversed sign), short-vector enumeration
on linalg's Bareiss elimination of the Gram matrix with integer isqrt
bounds, and four checks returned as
:class:`~delpezzo1.serialize.Check` values: the mod-2 identification of
the complement with F2^8, the blow-up model of the rank-9 Picard lattice,
the mod-2 quadratic-form census, and the independence lemma for tuples
pairing to 1.  Each settles its mod-2 facts by proof rather than search:
the identification by F2 ranks of the computed complement's reduced basis,
root reflections preserve q by the polarization identity, and the lemma
holds for a tuple size m because (J - I)^2 = I over F2 for even m, so one
determinant of J - I covers every tuple of that size.

Repeated pairings against a fixed vector v go through its functional
G v, formed once: a Gram matrix of k vectors costs k products G v and
k^2 dot products.  The short-vector search visits one of each pair
x, -x and carries each level's centre as a running sum; the census
builds q on all classes from the polarization identity alone, with no
integer norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, neg
from typing import Sequence

from .linalg import bareiss, bareiss_det, f2_det, f2_rank, int_functional_kernel
from .serialize import Check

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IntLattice:
    gram: Matrix

    def __post_init__(self):
        if any(len(r) != self.rank for r in self.gram):
            raise ValueError("gram shape mismatch")
        if any(self.gram[i][j] != self.gram[j][i] for i in range(self.rank) for j in range(i)):
            raise ValueError("gram not symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pair(self, x: Vector, y: Vector) -> int:
        return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, self.gram) if xi)

    def functional(self, v: Vector) -> Vector:
        """The coefficients G v of the functional x -> (v, x)."""
        return tuple(sum(map(mul, row, v)) for row in self.gram)

    def gram_of(self, vs: Sequence[Vector]) -> Matrix:
        """The Gram matrix of the given vectors, each G v formed once."""
        gvs = [self.functional(v) for v in vs]
        return tuple(tuple(sum(map(mul, a, gb)) for gb in gvs) for a in vs)

    @property
    def determinant(self) -> int:
        return bareiss_det([list(r) for r in self.gram])

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))


@dataclass(frozen=True)
class MarkedLattice:
    """Hyperbolic lattice together with its distinguished vector."""

    lattice: IntLattice
    omega: Vector


def build_hyperbolic(d: int) -> MarkedLattice:
    """I^{1,9-d} with omega = -3 e_0 + e_1 + ... + e_{9-d}; (omega, omega) = d."""
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    n = 10 - d
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n))
        for i in range(n)
    )
    omega = tuple([-3] + [1] * (n - 1))
    return MarkedLattice(IntLattice(gram), omega)


@dataclass(frozen=True)
class Sublattice:
    """Orthogonal complement with its Gram matrix and ambient basis."""

    lattice: IntLattice
    ambient_basis: tuple[Vector, ...]


def orth_complement(lat: IntLattice, v: Vector) -> Sublattice:
    """Integer kernel of pairing-with-v, with the induced Gram matrix."""
    if math.gcd(*v) != 1:
        raise ValueError("vector must be primitive")
    w = lat.functional(v)
    if sum(map(mul, v, w)) == 0:
        raise ValueError("vector must have nonzero self-pairing")
    g = math.gcd(*w)
    basis = int_functional_kernel([c // g for c in w])
    vecs = tuple(tuple(b) for b in basis)
    return Sublattice(IntLattice(lat.gram_of(vecs)), vecs)


# -- short vectors ---------------------------------------------------------


def enumerate_short_vectors(lat: IntLattice, norm: int) -> list[Vector]:
    """All vectors of the given self-pairing in a negative definite lattice.

    Fincke-Pohst depth-first search on Python ints.  linalg.bareiss of
    A = -Gram leaves row i as U_i; with no swap U_i[i] is the leading
    minor Delta_(i+1) of A, and with Delta_0 = 1

        Q(x) = -(x, x) = sum_i (U_i . x)^2 / (Delta_i Delta_(i+1)).

    A swap, a None or a pivot <= 0 raises ValueError, before any search
    and for every norm.  By Sylvester's criterion that is exactly when the
    lattice is not negative definite: the first swap or None comes where a
    leading minor is 0, and without one the pivots are the minors.  Scaled by
    M = lcm_i Delta_i Delta_(i+1), level i is s_i = U_i . x with the
    integer weight M / (Delta_i Delta_(i+1)), so the bound on s_i is an
    isqrt; no floating point enters any comparison.

    x and -x have the same norm, so the search fixes the sign of the last
    nonzero coordinate: for each top index t it takes x_t >= 1 with every
    higher coordinate 0, descends through the levels below t, and the
    negatives of what it finds complete the list.  The zero vector is
    never reached.  The centre U_i[i+1:] . x[i+1:] of level i is carried
    as a running sum: fixing x_j adds U_k[j] x_j to the centre of every
    level k < j, so no node sums over the coordinates above it.
    """
    u, swaps = bareiss([[-c for c in row] for row in lat.gram]) or ([], 1)
    minors = [1] + [row[i] for i, row in enumerate(u)]
    if swaps or min(minors) <= 0:
        raise ValueError("lattice is not negative definite")
    if norm > 0:
        return []
    dens = [a * b for a, b in zip(minors, minors[1:])]
    scale = math.lcm(*dens)
    # level j: the pivot, the weight, and the column U_0[j], ..., U_(j-1)[j]
    levels = [
        (minors[j + 1], scale // den, tuple(u[k][j] for k in range(j)))
        for j, den in enumerate(dens)
    ]
    rem = -norm * scale
    x = [0] * lat.rank
    found: list[Vector] = []
    for top, (den, w, col) in enumerate(levels):
        for xt in range(1, math.isqrt(rem // w) // den + 1):
            x[top] = xt
            s = xt * den
            _descend(levels, top - 1, rem - w * s * s, [c * xt for c in col], x, found)
        x[top] = 0
    found += [tuple(map(neg, v)) for v in found]
    return sorted(found)


def _descend(
    levels: list, i: int, rem: int, centres: list[int], x: list[int], found: list[Vector]
) -> None:
    """Try every x_i that keeps the scaled norm of x[i:] within rem, then recurse.

    `centres[k]` is the centre sum_(j > k) U_k[j] x_j of each level k <= i;
    the call at level i - 1 gets them with U_k[i] x_i added.  A
    module-level function rather than a closure: a self-referencing
    closure is a reference cycle that keeps every found vector alive until
    the cyclic garbage collector runs.
    """
    if i < 0:
        if rem == 0:
            found.append(tuple(x))
        return
    den, w, col = levels[i]
    cnum = centres[i]
    bound = math.isqrt(rem // w)
    for xi in range(-((bound + cnum) // den), (bound - cnum) // den + 1):
        x[i] = xi
        s = xi * den + cnum
        rest = rem - w * s * s
        if i == 0:
            if rest == 0:
                found.append(tuple(x))
        else:
            _descend(levels, i - 1, rest, [c + u * xi for c, u in zip(centres, col)], x, found)
    x[i] = 0


# -- the independence lemma -------------------------------------------------


def linalg_lemma_check() -> Check:
    """Prove the independence lemma by one F2 determinant per tuple size.

    The lemma: for even m, vectors z_1, ..., z_m over F2 with
    (z_i, z_i) = 0 and (z_i, z_j) = 1 for i != j are linearly independent,
    and no nonzero combination of them pairs to 0 with every z_j.  Pairing
    a combination sum a_i z_i with each z_j gives (J - I) a, J the all-ones
    m x m matrix, so a relation sum a_i z_i = 0 forces (J - I) a = 0, and
    both properties say that (J - I) a = 0 only for a = 0.  Over F2,
    (J - I)^2 = mJ - 2J + I, which is I for even m, so det(J - I) = 1
    settles both for every tuple of that size in every dimension.  The
    identity holds for every even m; the check evaluates m = 2, 4, 6 and 8,
    the even sizes of independent tuples that fit in F2^8.
    """
    sizes = (2, 4, 6, 8)
    dets = tuple(f2_det([((1 << m) - 1) ^ (1 << i) for i in range(m)]) for m in sizes)
    return Check(
        "independence_lemma",
        all(det == 1 for det in dets),
        {"tuple_sizes": sizes, "determinants": dets},
    )


# -- named verification bundles ---------------------------------------------


def _masks(vs: Sequence[Vector]) -> list[int]:
    """The mod-2 reductions of integer vectors, coordinate i at bit i.

    Built a column at a time: one pass over the vectors per coordinate.
    """
    masks = [0] * len(vs)
    for i, col in enumerate(zip(*vs)):
        bit = 1 << i
        masks = [m | bit if c & 1 else m for m, c in zip(masks, col)]
    return masks


def f8s_iso_check(marked: MarkedLattice, comp: Sublattice) -> Check:
    """Check the mod-2 identification of the omega-complement with F2^8.

    `marked` is I^{1,8} with omega and `comp` its computed complement.  The
    reduced basis of `comp` must have rank 8 and pair evenly with omega,
    so it spans the mod-2 orthogonal of omega; dropping coordinate 0 must
    map that span onto F2^8.  The swap (1 2) and the 8-cycle (1 ... 8)
    generate S8 acting on e_1, ..., e_8; both fix coordinate 0, so dropping
    it commutes with them, and the identification is equivariant when the
    span is stable under both (adding the permuted basis keeps the rank)
    and both fix omega.  The form it transports, the mod-2 Gram rows of
    the lifts e_0 + e_i of the standard basis, must have ones off the
    diagonal and zeros on it: the form the independence lemma takes.
    """
    lat, omega, basis = marked.lattice, marked.omega, comp.ambient_basis
    masks = _masks(basis)
    dim = f2_rank(masks)
    g_omega = lat.functional(omega)
    omega_even = all(sum(map(mul, b, g_omega)) % 2 == 0 for b in basis)
    bijective = f2_rank([m >> 1 for m in masks]) == 8

    n = lat.rank
    swap = (0, 2, 1, *range(3, n))
    cycle = (0, *range(2, n), 1)
    stable = [
        f2_rank(masks + _masks([tuple(b[t] for t in tau) for b in basis])) == dim
        for tau in (swap, cycle)
    ]
    fixed = all(tuple(omega[t] for t in tau) == omega for tau in (swap, cycle))

    lifts = [tuple(int(k in (0, i)) for k in range(n)) for i in range(1, n)]
    form = tuple(_masks(lat.gram_of(lifts)))
    return Check(
        "mod2_identification",
        dim == 8 and omega_even and bijective and all(stable) and fixed
        and form == tuple(0xFF ^ (1 << i) for i in range(8)),
        {
            "complement_dimension": dim,
            "omega_pairing_even": omega_even,
            "bijective": bijective,
            "equivariant_swap": stable[0],
            "equivariant_cycle": stable[1],
            "all_ones_fixed": fixed,
            "induced_form_rows": form,
        },
    )


def picard_model_check(marked: MarkedLattice) -> Check:
    """Gram identities in the blow-up model of the rank-9 Picard lattice.

    `marked` is build_hyperbolic(1): basis f_0, l_1, ..., l_8 with
    f_0^2 = 1 and l_b^2 = -1, and omega the canonical class
    K = -3 f_0 + sum l_b.  The vectors v_i = l_i + K pair to -2 on the
    diagonal and -1 off it, and their mod-2 images are linearly independent
    with a nonsingular all-ones-off-diagonal pairing matrix.  Every
    identity on the v_i is read from their one Gram matrix.
    """
    lat, k = marked.lattice, marked.omega
    n = lat.rank - 1
    vs = []
    for i in range(1, lat.rank):
        v = list(k)
        v[i] += 1
        vs.append(tuple(v))
    gram = lat.gram_of(vs)
    kk = lat.pair(k, k)
    diag = tuple(gram[i][i] for i in range(n))
    off_ok = all(gram[i][j] == -1 for i in range(n) for j in range(n) if i != j)
    independent = f2_rank(_masks(vs)) == n
    det = f2_det(_masks(gram))
    return Check(
        "picard_gram",
        kk == 1 and all(v == -2 for v in diag) and off_ok and independent and det == 1,
        {
            "canonical_self_pairing": kk,
            "diag_pairings": diag,
            "off_diag_pairings_ok": off_ok,
            "mod2_independent": independent,
            "mod2_gram_det": det,
        },
    )


def mod2_quadratic_census(lat: IntLattice, roots: list[Vector]) -> Check:
    """Census of q(x) = (x, x)/2 mod 2 on the even complement lattice.

    `lat` is the rank-8 complement and `roots` its norm -2 vectors.
    Counts the values of q on all 255 nonzero mod-2 classes, identifies
    the classes hit by the 240 roots, and checks that every root
    reflection descends to a q-preserving map.  On an even lattice
    norm(x + m) = norm(x) + norm(m) + 2 (x, m), so q is well defined on
    classes and q(x + m) = q(x) + q(m) + (x, m) mod 2.  That identity alone
    builds q: with q(0) = 0 and q(e_i) = (e_i, e_i)/2 mod 2, the classes
    below bit i extend to those with bit i set by
    q(m + e_i) = q(m) + q(e_i) + (e_i, m), and (e_i, m) mod 2 is the
    parity of the mod-2 Gram row of e_i restricted to m.  Mod 2 the
    reflection in a root of class m adds m to every x with (x, m) odd,
    so it preserves q exactly when q(m) = 1 or no class pairs oddly
    with m.  Raises ArithmeticError if `lat` has a vector of odd norm,
    which an integer lattice has exactly when some (e_i, e_i) is odd.
    """
    n = lat.rank
    g = lat.gram
    for i, row in enumerate(g):
        if row[i] % 2:
            raise ArithmeticError(f"odd norm {row[i]}: q is defined on even lattices only")

    rows2 = _masks(g)
    qvals = [0]
    for i, row in enumerate(rows2):
        qi = g[i][i] >> 1 & 1
        qvals += [q ^ qi ^ ((row & m).bit_count() & 1) for m, q in enumerate(qvals)]
    q1 = sum(qvals)
    q0 = (1 << n) - 1 - q1

    root_masks = set(_masks(roots))
    roots_q1 = all(qvals[m] == 1 for m in root_masks)
    # a class m with q(m) = 0 pairs evenly with every class when each
    # mod-2 Gram row meets it in an even number of bits
    preserve = all(
        qvals[m] == 1 or not any((row & m).bit_count() & 1 for row in rows2)
        for m in root_masks
    )

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


def lattice_checks(d: int) -> list[Check]:
    """The checks the `lattice` subcommand reports, in report order.

    The complement of omega is even of rank 9 - d, with |det| = (omega,
    omega) = d and 240 (E8) or 126 (E7) roots.  For d = 1 the four mod-2
    checks follow, reported with at most the witness fields named here.
    """
    marked = build_hyperbolic(d)
    comp = orth_complement(marked.lattice, marked.omega)
    roots = enumerate_short_vectors(comp.lattice, -2)
    pairing = marked.lattice.pair(marked.omega, marked.omega)
    det = comp.lattice.determinant
    checks = [
        Check("omega_self_pairing", pairing == d, {"omega_self_pairing": pairing}),
        Check("complement_rank", comp.lattice.rank == 9 - d, {}),
        Check("complement_determinant", abs(det) == d, {"complement_determinant": det}),
        Check("complement_even", comp.lattice.is_even, {}),
        Check("root_count", len(roots) == (240 if d == 1 else 126), {"root_count": len(roots)}),
    ]
    if d == 1:
        pic = picard_model_check(marked)
        census = mod2_quadratic_census(comp.lattice, roots)
        counts = {"census_q1": census.witness["nonzero_q1"], "census_q0": census.witness["nonzero_q0"]}
        checks += [
            Check("mod2_identification", f8s_iso_check(marked, comp).passed, {}),
            Check("picard_gram", pic.passed, {"picard_diag": pic.witness["diag_pairings"]}),
            Check("mod2_census", census.passed, counts),
            Check("independence_lemma_small", linalg_lemma_check().passed, {}),
        ]
    return checks
