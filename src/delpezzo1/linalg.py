"""Exact linear algebra over Q, Z and F2, plus integer square testing.

Small and deterministic by construction: pivoting rules are fixed, so
repeated runs produce identical bases.
"""

from __future__ import annotations

import math
from fractions import Fraction


def int_is_square(n: int) -> bool:
    """True iff n is a perfect square (negative numbers never are)."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def frac_is_square(q: Fraction) -> bool:
    return int_is_square(q.numerator) and int_is_square(q.denominator)


def bareiss(rows: list[list[int]]) -> tuple[list[list[int]], int] | None:
    """Fraction-free elimination of a square integer matrix: (U, swaps), or None if singular.

    The upper triangle of U is the eliminated matrix, its diagonal the
    pivots.  A zero pivot swaps in the first lower row nonzero in its
    column, counted in swaps.  With no swap pivot k is the leading minor
    Delta_(k+1); the last pivot times (-1)^swaps is the determinant.
    """
    m = [row[:] for row in rows]
    swaps, prev = 0, 1
    for k in range(len(m)):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, len(m)) if m[i][k] != 0), None)
            if i is None:
                return None
            m[k], m[i] = m[i], m[k]
            swaps += 1
        pivot, row_k = m[k][k], m[k]
        for row in m[k + 1 :]:
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - row[k] * row_k[j]) // prev
        prev = pivot
    return m, swaps


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix: its last Bareiss pivot, signed by the swaps."""
    elim = bareiss(rows)
    if elim is None:
        return 0
    u, swaps = elim
    return (-1) ** swaps * u[-1][-1] if u else 1


def q_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rref, pivot columns)."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def q_kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right kernel of the matrix, over Q.

    One basis vector per free column, with a 1 in that column; ordered by
    ascending free column index.
    """
    rref, pivots = q_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis


def q_rank(rows: list[list[Fraction]]) -> int:
    return len(q_rref(rows)[1])


def int_functional_kernel(w: list[int]) -> list[list[int]]:
    """Basis of {x in Z^n : sum w_i x_i = 0} via unimodular column reduction.

    Requires gcd(w) = 1 so the kernel is a direct summand of full rank n-1.
    """
    n = len(w)
    if math.gcd(*w) != 1:
        raise ValueError("functional is not primitive")
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    vals = list(w)
    while True:
        nz = [i for i in range(n) if vals[i] != 0]
        if len(nz) == 1:
            break
        nz.sort(key=lambda i: (abs(vals[i]), i))
        i0, i1 = nz[0], nz[1]
        q = vals[i1] // vals[i0]
        vals[i1] -= q * vals[i0]
        cols[i1] = [a - q * b for a, b in zip(cols[i1], cols[i0])]
    pivot = next(i for i in range(n) if vals[i] != 0)
    return [cols[i] for i in range(n) if i != pivot]


# -- F2 vectors as bit masks -----------------------------------------


def f2_rank(vectors: list[int]) -> int:
    """Rank over F2 of bitmask-encoded vectors."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            if h in basis:
                v ^= basis[h]
            else:
                basis[h] = v
                break
    return len(basis)


def f2_det(rows: list[int]) -> int:
    """Determinant over F2 of a square bitmask matrix: 1 exactly when it has rank len(rows)."""
    return int(f2_rank(rows) == len(rows))
