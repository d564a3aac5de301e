import math
import random
from itertools import permutations
from fractions import Fraction

import pytest

from delpezzo1.linalg import (
    bareiss,
    bareiss_det,
    f2_det,
    f2_rank,
    frac_is_square,
    int_functional_kernel,
    int_is_square,
    q_kernel_basis,
    q_rank,
    q_rref,
)


def test_int_is_square():
    assert int_is_square(144)
    assert int_is_square(0)
    assert not int_is_square(-4)
    assert not int_is_square(2**64 + 1)
    assert int_is_square((3**41) ** 2)


def test_frac_is_square():
    assert frac_is_square(Fraction(9, 4))
    assert not frac_is_square(Fraction(9, 5))
    assert not frac_is_square(Fraction(-1, 4))


def test_bareiss_det():
    assert bareiss_det([[2, 0], [0, 3]]) == 6
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    assert bareiss_det(m) == 3 * (25 - 54) - 1 * (5 - 18) + 4 * (6 - 10)
    assert bareiss_det([]) == 1


def _leibniz_det(rows):
    n = len(rows)
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        * math.prod(rows[i][p[i]] for i in range(n))
        for p in permutations(range(n))
    )


def test_bareiss_counts_swaps():
    # the 3-cycle permutation matrix swaps at columns 0 and 1: det = +1
    u, swaps = bareiss([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert swaps == 2 and [u[k][k] for k in range(3)] == [1, 1, 1]
    assert bareiss([[0, 1], [1, 0]])[1] == 1
    assert bareiss([[2, 1], [1, 3]])[1] == 0
    assert bareiss([]) == ([], 0)


@pytest.mark.parametrize(
    "rows",
    [
        [[0]],
        [[1, 2], [2, 4]],
        [[0, 1], [0, 2]],
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 1, 0], [0, 2, 0]],
    ],
)
def test_bareiss_singular_is_none(rows):
    assert bareiss(rows) is None
    assert bareiss_det(rows) == 0


def test_bareiss_pivots_without_a_swap_are_the_leading_minors():
    rng = random.Random(47)
    unswapped = 0
    for n in range(1, 6):
        for _ in range(80):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(rows) == _leibniz_det(rows)
            elim = bareiss(rows)
            if elim is None or elim[1]:
                continue
            unswapped += 1
            u = elim[0]
            assert [u[k][k] for k in range(n)] == [
                _leibniz_det([row[: k + 1] for row in rows[: k + 1]]) for k in range(n)
            ]
    assert unswapped > 200


def test_q_kernel_basis():
    rows = [[Fraction(1), Fraction(1), Fraction(0)]]
    basis = q_kernel_basis(rows, 3)
    assert basis == [
        (Fraction(-1), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]
    assert q_rank(rows) == 1
    # no rows: the whole space, and rank 0
    assert q_kernel_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert all(type(x) is Fraction for x in sum(q_kernel_basis([], 3), ()))
    assert q_rank([]) == 0


def test_int_rows_give_no_float():
    # an int pivot meeting / alone would give a float
    rows = [[2, 1, 0], [4, 3, 1], [6, 4, 1]]
    rref, pivots = q_rref(rows)
    basis = q_kernel_basis([[2, 1, 0]], 3)
    assert pivots == [0, 1] and q_rank(rows) == 2
    assert basis == [(Fraction(-1, 2), 1, 0), (0, 0, 1)]
    assert all(type(x) in (int, Fraction) for x in [*sum(rref, []), *sum(basis, ())])


def test_int_functional_kernel():
    basis = int_functional_kernel([3, 5, 7])
    assert len(basis) == 2
    for v in basis:
        assert 3 * v[0] + 5 * v[1] + 7 * v[2] == 0
    # full-rank sublattice: determinant of Gram under the standard form
    gram = [[sum(a * b for a, b in zip(u, w)) for w in basis] for u in basis]
    assert bareiss_det(gram) == 3 * 3 + 5 * 5 + 7 * 7  # index formula for w^perp


def test_int_functional_kernel_requires_primitive():
    with pytest.raises(ValueError):
        int_functional_kernel([2, 4, 6])


def test_f2_rank_and_det():
    assert f2_rank([0b11, 0b01, 0b10]) == 2
    assert f2_rank([]) == 0
    assert f2_det([]) == 1 == bareiss_det([])
    assert f2_det([0b01, 0b10]) == 1
    assert f2_det([0b11, 0b11]) == 0
    # all-ones-off-diagonal matrix on 8 bits is invertible
    rows = [(0xFF ^ (1 << i)) for i in range(8)]
    assert f2_det(rows) == 1
    rng = random.Random(83)
    for n in range(1, 6):
        for _ in range(60):
            rows = [rng.getrandbits(n) for _ in range(n)]
            assert f2_det(rows) == _leibniz_det_mod2(rows, n)


def _leibniz_det_mod2(rows, n):
    # over F2 every sign is 1: count the permutations whose entries are all 1
    return sum(all(rows[i] >> p[i] & 1 for i in range(n)) for p in permutations(range(n))) & 1
