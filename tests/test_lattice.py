import math
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo1.lattice import (
    IntLattice,
    MarkedLattice,
    Sublattice,
    build_hyperbolic,
    enumerate_short_vectors,
    f8s_iso_check,
    lattice_checks,
    linalg_lemma_check,
    mod2_quadratic_census,
    orth_complement,
    picard_model_check,
)
from delpezzo1.linalg import bareiss, bareiss_det, f2_det, f2_rank
from xyz_oracles import enumerate_short_vectors_full, mod2_quadratic_census_norms


def _sym_gram(n, cells):
    """Symmetric Gram matrix read from the upper triangle of an n x n cell list."""
    return tuple(tuple(cells[min(i, j) * n + max(i, j)] for j in range(n)) for i in range(n))


def _definite_gram(b):
    """G = -(B^T B + I): every eigenvalue at most -1."""
    n = len(b)
    return tuple(
        tuple(-sum(b[k][i] * b[k][j] for k in range(n)) - (i == j) for j in range(n))
        for i in range(n)
    )


class TestIntLattice:
    @pytest.mark.parametrize(
        "gram",
        [((-2, 1), (1,)), ((-2, 1, 0), (1, -2, 0)), ((-2, 1), (1, -2), (0, 0))],
        ids=["ragged", "wide", "tall"],
    )
    def test_gram_that_is_not_square_rejected(self, gram):
        with pytest.raises(ValueError, match="shape"):
            IntLattice(gram)

    def test_gram_that_is_not_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            IntLattice(((-2, 1), (0, -2)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n),
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple),
                    max_size=5,
                ),
            ).map(lambda case: (n, *case))
        )
    )
    def test_gram_of_matches_pairwise(self, case):
        # each G v formed once gives the same matrix as a pair per entry
        n, cells, vs = case
        lat = IntLattice(_sym_gram(n, cells))
        assert lat.gram_of(vs) == tuple(tuple(lat.pair(a, b) for b in vs) for a in vs)
        for v in vs:
            assert lat.functional(v) == tuple(
                lat.pair(v, tuple(int(i == j) for i in range(n))) for j in range(n)
            )


class TestHyperbolic:
    def test_omega_self_pairing(self):
        for d in (1, 2):
            marked = build_hyperbolic(d)
            assert marked.lattice.rank == 10 - d
            assert marked.lattice.pair(marked.omega, marked.omega) == d

    def test_basis_orthogonality(self):
        lat = build_hyperbolic(1).lattice
        e = lambda i: tuple(int(k == i) for k in range(9))
        assert lat.pair(e(0), e(0)) == 1
        for i in range(1, 9):
            assert lat.pair(e(i), e(i)) == -1
            assert lat.pair(e(0), e(i)) == 0

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            build_hyperbolic(3)


class TestComplement:
    def test_e8_shape(self):
        marked = build_hyperbolic(1)
        comp = orth_complement(marked.lattice, marked.omega)
        assert comp.lattice.rank == 8
        assert comp.lattice.is_even
        assert abs(comp.lattice.determinant) == 1
        for b in comp.ambient_basis:
            assert marked.lattice.pair(b, marked.omega) == 0

    def test_e7_shape(self):
        marked = build_hyperbolic(2)
        comp = orth_complement(marked.lattice, marked.omega)
        assert comp.lattice.rank == 7
        assert abs(comp.lattice.determinant) == 2

    def test_nonprimitive_rejected(self):
        lat = build_hyperbolic(1).lattice
        with pytest.raises(ValueError):
            orth_complement(lat, tuple([2] * 9))

    def test_null_vector_rejected(self):
        lat = build_hyperbolic(1).lattice
        null = tuple([1, 1] + [0] * 7)  # e0 + e1 has self-pairing 0
        with pytest.raises(ValueError):
            orth_complement(lat, null)


class TestShortVectors:
    def test_root_counts(self):
        for d, expected in ((1, 240), (2, 126)):
            marked = build_hyperbolic(d)
            comp = orth_complement(marked.lattice, marked.omega)
            roots = enumerate_short_vectors(comp.lattice, -2)
            assert len(roots) == expected
            assert all(comp.lattice.pair(r, r) == -2 for r in roots)
            assert roots == sorted(roots)

    def test_odd_norm_absent_on_even_lattice(self):
        marked = build_hyperbolic(1)
        comp = orth_complement(marked.lattice, marked.omega)
        assert enumerate_short_vectors(comp.lattice, -1) == []

    def test_zero_norm_is_empty(self):
        marked = build_hyperbolic(1)
        comp = orth_complement(marked.lattice, marked.omega)
        assert enumerate_short_vectors(comp.lattice, 0) == []

    def test_positive_norm_is_empty(self):
        marked = build_hyperbolic(1)
        comp = orth_complement(marked.lattice, marked.omega)
        assert enumerate_short_vectors(comp.lattice, 2) == []

    def test_indefinite_rejected(self):
        lat = build_hyperbolic(1).lattice
        with pytest.raises(ValueError):
            enumerate_short_vectors(lat, -2)

    @pytest.mark.parametrize("gram", [((-1, -1), (-1, -1)), ((-1, -2), (-2, -1))])
    @pytest.mark.parametrize("norm", [-2, 2])
    def test_later_leading_minor_rejected(self, gram, norm):
        # the first pivot is positive; the second leading minor is 0 or -3
        with pytest.raises(ValueError, match="not negative definite"):
            enumerate_short_vectors(IntLattice(gram), norm)

    @pytest.mark.parametrize("norm", [-2, 2])
    def test_indefinite_with_swapped_positive_pivots_rejected(self, norm):
        # -G = diag(H, H), H = [[0, 1], [1, 0]]: two swaps leave every pivot
        # and the determinant positive, so only the swap shows indefiniteness
        h = ((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0))
        assert bareiss([[-c for c in row] for row in h])[1] == 2
        assert bareiss_det([[-c for c in row] for row in h]) == 1
        with pytest.raises(ValueError, match="not negative definite"):
            enumerate_short_vectors(IntLattice(h), norm)

    def test_antipodal_closure(self):
        marked = build_hyperbolic(1)
        comp = orth_complement(marked.lattice, marked.omega)
        roots = set(enumerate_short_vectors(comp.lattice, -2))
        assert all(tuple(-c for c in r) in roots for r in roots)

    def test_root_pairing_distribution(self):
        # structural signature of the rank-8 root system: from any fixed
        # root, 56 roots pair to -1, 56 to +1, 126 to 0, plus the
        # antipode at +2; validates Gram and enumeration together
        marked = build_hyperbolic(1)
        comp = orth_complement(marked.lattice, marked.omega)
        lat = comp.lattice
        roots = enumerate_short_vectors(lat, -2)
        fixed = roots[0]
        counts = {}
        for s in roots:
            val = lat.pair(fixed, s)
            counts[val] = counts.get(val, 0) + 1
        assert counts == {-2: 1, -1: 56, 0: 126, 1: 56, 2: 1}

    @pytest.mark.parametrize(
        "d, counts", ((1, (240, 2160, 6720)), (2, (126, 756, 2072)))
    )
    def test_theta_series_coefficients(self, d, counts):
        # the first three theta-series coefficients of E8 and E7
        marked = build_hyperbolic(d)
        lat = orth_complement(marked.lattice, marked.omega).lattice
        for norm, expected in zip((-2, -4, -6), counts):
            vectors = enumerate_short_vectors(lat, norm)
            assert len(vectors) == expected
            assert all(type(c) is int for v in vectors for c in v)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
        st.integers(0, 6),
    )
    def test_matches_brute_force(self, b, big_n):
        # G = -(B^T B + I) has every eigenvalue at most -1, so a vector of
        # norm -N lies in the box |x_i| <= isqrt(N)
        n = len(b)
        lat = IntLattice(_definite_gram(b))
        box = range(-math.isqrt(big_n), math.isqrt(big_n) + 1)
        expected = sorted(
            x for x in product(box, repeat=n) if any(x) and lat.pair(x, x) == -big_n
        )
        found = enumerate_short_vectors(lat, -big_n)
        assert found == expected
        assert all(type(c) is int for v in found for c in v)

    @staticmethod
    def _assert_matches_full_search(lat, norm):
        found = enumerate_short_vectors(lat, norm)
        assert found == enumerate_short_vectors_full(lat, norm)
        assert all(type(c) is int for v in found for c in v)
        assert set(found) == {tuple(-c for c in v) for v in found}

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
        st.integers(1, 8),
    )
    def test_half_space_matches_full_search(self, b, big_n):
        # one of each pair x, -x with running centres against the search
        # over the whole space with each centre summed afresh
        self._assert_matches_full_search(IntLattice(_definite_gram(b)), -big_n)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("norm", [-2, -4, -6])
    def test_half_space_matches_full_search_on_the_complements(self, d, norm):
        marked = build_hyperbolic(d)
        self._assert_matches_full_search(orth_complement(marked.lattice, marked.omega).lattice, norm)


def _d1():
    marked = build_hyperbolic(1)
    return marked, orth_complement(marked.lattice, marked.omega)


def _with_basis(lat, basis):
    """A Sublattice of `lat` spanned by `basis`, with its induced Gram matrix."""
    gram = tuple(tuple(lat.pair(a, b) for b in basis) for a in basis)
    return Sublattice(IntLattice(gram), tuple(basis))


class TestF8S:
    def test_full_report(self):
        check = f8s_iso_check(*_d1())
        rep = check.witness
        assert rep["complement_dimension"] == 8
        assert rep["omega_pairing_even"]
        assert rep["bijective"]
        assert rep["equivariant_swap"] and rep["equivariant_cycle"]
        assert rep["all_ones_fixed"]
        assert check.passed

    def test_induced_form_is_ones_off_diagonal(self):
        rep = f8s_iso_check(*_d1()).witness
        for i, row in enumerate(rep["induced_form_rows"]):
            assert row == (0xFF ^ (1 << i))

    def test_d2_complement_fails(self):
        # E7 has rank 7: its reduction cannot fill F2^8, though it is S7-stable
        marked = build_hyperbolic(2)
        check = f8s_iso_check(marked, orth_complement(marked.lattice, marked.omega))
        rep = check.witness
        assert rep["complement_dimension"] == 7
        assert not rep["bijective"]
        assert rep["equivariant_swap"] and rep["equivariant_cycle"]
        assert not check.passed

    def test_doubled_basis_vector_fails(self):
        # 2 b_3 reduces to 0; e_1 + e_4 leaves the span, which the cycle moves
        marked, comp = _d1()
        basis = list(comp.ambient_basis)
        basis[3] = tuple(2 * c for c in basis[3])
        check = f8s_iso_check(marked, _with_basis(marked.lattice, basis))
        rep = check.witness
        assert rep["complement_dimension"] == 7
        assert not rep["bijective"]
        assert rep["equivariant_swap"] and not rep["equivariant_cycle"]
        assert not check.passed

    def test_basis_vector_pairing_oddly_with_omega_fails(self):
        # b + omega pairs to (omega, omega) = 1 with omega; the span still
        # has rank 8 and is S8-stable, so only the evenness test catches it
        marked, comp = _d1()
        lat, omega = marked.lattice, marked.omega
        basis = list(comp.ambient_basis)
        basis[0] = tuple(b + w for b, w in zip(basis[0], omega))
        check = f8s_iso_check(marked, _with_basis(lat, basis))
        assert check.witness["complement_dimension"] == 8
        assert not check.witness["omega_pairing_even"]
        assert not check.passed

    def test_transported_form_off_the_lemma_fails(self):
        # (e_1, e_1) = (e_2, e_2) = 0 and (e_1, e_2) = 1 change G by a matrix
        # whose rows pair evenly with omega: rank, evenness, equivariance and
        # omega hold, but the lifts e_0 + e_1, e_0 + e_2 now pair to 1 with
        # themselves and to 0 with each other
        marked, comp = _d1()
        gram = [list(row) for row in marked.lattice.gram]
        gram[1][1] = gram[2][2] = 0
        gram[1][2] = gram[2][1] = 1
        lat = IntLattice(tuple(map(tuple, gram)))
        check = f8s_iso_check(MarkedLattice(lat, marked.omega), comp)
        rep = check.witness
        assert rep["complement_dimension"] == 8 and rep["bijective"]
        assert rep["omega_pairing_even"] and rep["all_ones_fixed"]
        assert rep["equivariant_swap"] and rep["equivariant_cycle"]
        assert rep["induced_form_rows"][:2] == (0xFF ^ (1 << 1), 0xFF ^ (1 << 0))
        assert not check.passed

    def test_omega_moved_by_the_swap_fails(self):
        # -3 e_0 + 3 e_1 + e_2 + ... + e_8 has omega's reduction but is not S8-fixed
        marked, comp = _d1()
        omega = (-3, 3) + marked.omega[2:]
        check = f8s_iso_check(MarkedLattice(marked.lattice, omega), comp)
        assert check.witness["omega_pairing_even"]
        assert not check.witness["all_ones_fixed"]
        assert not check.passed


class TestPicard:
    def test_gram_identities(self):
        check = picard_model_check(build_hyperbolic(1))
        rep = check.witness
        assert rep["canonical_self_pairing"] == 1
        assert rep["diag_pairings"] == (-2,) * 8
        assert rep["off_diag_pairings_ok"]
        assert rep["mod2_independent"]
        assert rep["mod2_gram_det"] == 1
        assert check.passed

    def test_mod2_tuple_satisfies_lemma(self):
        # the eight reduced vectors l_i + K pair to 0 on the diagonal and 1
        # off it mod 2, so the lemma's m = 8 determinant is their mod-2 Gram
        # determinant, and they are independent
        marked = build_hyperbolic(1)
        lat, k = marked.lattice, marked.omega
        vs = [tuple(c + (j == i) for j, c in enumerate(k)) for i in range(1, 9)]
        assert all(lat.pair(a, b) & 1 == (a != b) for a in vs for b in vs)
        assert f2_rank([_reduce(v) for v in vs]) == 8
        lemma = linalg_lemma_check().witness
        m8 = lemma["determinants"][lemma["tuple_sizes"].index(8)]
        assert picard_model_check(marked).witness["mod2_gram_det"] == m8 == 1


def _lift(mask, n):
    return tuple(mask >> i & 1 for i in range(n))


def _reduce(v):
    return sum((c & 1) << i for i, c in enumerate(v))


def _even_gram(n, cells):
    """Symmetric Gram matrix with an even diagonal, not necessarily definite."""
    return tuple(
        tuple(
            2 * cells[i * n + i] if i == j else cells[min(i, j) * n + max(i, j)]
            for j in range(n)
        )
        for i in range(n)
    )


def _reflections_preserve_q_by_search(lat, roots):
    # the census verdict by search: reflecting in a root of class m adds m
    # to every class x with (x, m) odd, and each such x must keep q
    n = lat.rank
    q = [(lat.pair(v, v) // 2) & 1 for v in (_lift(x, n) for x in range(1 << n))]
    return all(
        q[x ^ m] == q[x]
        for m in {_reduce(r) for r in roots}
        for x in range(1 << n)
        if lat.pair(_lift(x, n), _lift(m, n)) & 1
    )


def _e8_with_roots():
    marked = build_hyperbolic(1)
    comp = orth_complement(marked.lattice, marked.omega)
    return comp.lattice, enumerate_short_vectors(comp.lattice, -2)


class TestCensus:
    def test_counts_and_reflections(self):
        lat, roots = _e8_with_roots()
        check = mod2_quadratic_census(lat, roots)
        rep = check.witness
        assert rep["nonzero_q1"] == 120
        assert rep["nonzero_q0"] == 135
        assert rep["nonzero_q1"] + rep["nonzero_q0"] == 255
        assert rep["root_count"] == 240
        assert rep["root_class_count"] == 120
        assert rep["root_classes_all_q1"]
        assert rep["reflections_preserve_q"]
        assert check.passed

    def test_sum_of_orthogonal_roots_is_caught(self):
        # r1 + r2 has norm -4, so q = 0 on its class, and reflecting in it
        # adds that class to every x pairing oddly with it, changing q(x)
        lat, roots = _e8_with_roots()
        r1 = roots[0]
        r2 = next(r for r in roots if lat.pair(r1, r) == 0)
        extra = tuple(a + b for a, b in zip(r1, r2))
        assert lat.pair(extra, extra) == -4
        check = mod2_quadratic_census(lat, roots + [extra])
        assert not check.witness["root_classes_all_q1"]
        assert not check.witness["reflections_preserve_q"]
        assert not check.passed

    def test_reflection_mod_2_depends_only_on_the_root_class(self):
        # e_i + (e_i, r) r mod 2 is e_i + m when (e_i, m) is odd, for m the
        # 0/1 lift of the class of r, and e_i otherwise
        lat, roots = _e8_with_roots()
        n = lat.rank

        def lift(mask):
            return tuple(mask >> i & 1 for i in range(n))

        def reduce(v):
            return sum((c & 1) << i for i, c in enumerate(v))

        for r in roots:
            m = reduce(r)
            for i in range(n):
                e = lift(1 << i)
                image = tuple(a + lat.pair(e, r) * b for a, b in zip(e, r))
                per_class = (1 << i) ^ m if lat.pair(e, lift(m)) & 1 else 1 << i
                assert reduce(image) == per_class

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n).map(
                lambda cells: (n, cells)
            )
        )
    )
    def test_counts_match_direct_norms(self, shape):
        n, cells = shape
        lat = IntLattice(_even_gram(n, cells))
        q = [(lat.pair(v, v) // 2) & 1 for v in (_lift(m, n) for m in range(1, 1 << n))]
        rep = mod2_quadratic_census(lat, []).witness
        assert rep["nonzero_q1"] == sum(q)
        assert rep["nonzero_q0"] == len(q) - sum(q)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n),
                st.lists(
                    st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple),
                    max_size=4,
                ),
            )
        )
    )
    def test_reflection_verdict_matches_search(self, case):
        # the polarization verdict against a search over every class
        n, cells, roots = case
        lat = IntLattice(_even_gram(n, cells))
        rep = mod2_quadratic_census(lat, roots).witness
        assert rep["reflections_preserve_q"] == _reflections_preserve_q_by_search(lat, roots)

    def test_only_defined_for_even_lattices(self):
        odd = IntLattice(((-1,),))
        with pytest.raises(ArithmeticError):
            mod2_quadratic_census(odd, [])

    def test_odd_norm_error_names_the_first_odd_diagonal_entry(self):
        with pytest.raises(ArithmeticError, match="odd norm -3"):
            mod2_quadratic_census(IntLattice(((-2, 0), (0, -3))), [])
        with pytest.raises(ArithmeticError, match="odd norm 5"):
            mod2_quadratic_census(IntLattice(((-2, 1, 0), (1, 5, 0), (0, 0, -1))), [])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n),
                st.lists(
                    st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple),
                    max_size=6,
                ),
            )
        )
    )
    def test_polarization_matches_norm_table(self, case):
        # the whole Check, from q by the polarization recurrence and from
        # a table of integer norms on every class
        n, cells, roots = case
        lat = IntLattice(_even_gram(n, cells))
        assert mod2_quadratic_census(lat, roots) == mod2_quadratic_census_norms(lat, roots)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n).map(
                lambda cells: (n, cells)
            )
        )
    )
    def test_odd_norm_error_matches_norm_table(self, shape):
        # on any symmetric Gram matrix: the same error, or the same Check
        n, cells = shape
        lat = IntLattice(_sym_gram(n, cells))
        outcomes = []
        for census in (mod2_quadratic_census, mod2_quadratic_census_norms):
            try:
                outcomes.append(census(lat, []))
            except ArithmeticError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_polarization_identity_on_all_pairs(self):
        # q(x + y) = q(x) + q(y) + (x, y) mod 2, checked on every pair
        marked = build_hyperbolic(1)
        comp = orth_complement(marked.lattice, marked.omega)
        lat = comp.lattice
        n = lat.rank

        def lift(mask):
            return tuple(mask >> i & 1 for i in range(n))

        q = [(lat.pair(v, v) // 2) & 1 for v in map(lift, range(1 << n))]
        for a in range(1 << n):
            va = lift(a)
            for b in range(a, 1 << n):
                vb = lift(b)
                assert q[a ^ b] == (q[a] + q[b] + lat.pair(va, vb)) & 1


def _j_minus_i(m):
    return [((1 << m) - 1) ^ (1 << i) for i in range(m)]


def _lemma_tuples(dim, m):
    """Every m-tuple of the standard F2^dim pairing to 0 on and 1 off the diagonal."""
    candidates = [v for v in range(1, 1 << dim) if v.bit_count() % 2 == 0]
    return [
        tup
        for tup in combinations(candidates, m)
        if all((a & b).bit_count() & 1 for a, b in combinations(tup, 2))
    ]


class TestIndependenceLemma:
    def test_check_passes(self):
        check = linalg_lemma_check()
        assert check.passed
        assert check.witness == {"tuple_sizes": (2, 4, 6, 8), "determinants": (1, 1, 1, 1)}

    def test_odd_sizes_are_singular(self):
        # (J - I) 1 = (m - 1) 1 = 0 over F2 when m is odd
        for m in (1, 3, 5, 7, 9):
            ones = (1 << m) - 1
            assert all((row & ones).bit_count() % 2 == 0 for row in _j_minus_i(m))
            assert f2_det(_j_minus_i(m)) == 0

    def test_square_is_identity_for_even_sizes(self):
        for m in (2, 4, 6, 8):
            rows = _j_minus_i(m)
            square = []
            for row in rows:
                acc = 0
                for j in range(m):
                    if row >> j & 1:
                        acc ^= rows[j]
                square.append(acc)
            assert square == [1 << i for i in range(m)]

    def test_exhaustive_small_tuples_are_independent(self):
        # the lemma's claim by search: independent, and no nonzero
        # combination pairs to 0 with every member
        counts = {}
        for dim, m in ((1, 2), (2, 2), (3, 2), (4, 2), (6, 4)):
            tuples = _lemma_tuples(dim, m)
            counts[dim, m] = len(tuples)
            for tup in tuples:
                assert f2_rank(list(tup)) == m
                for a in range(1, 1 << m):
                    z = 0
                    for i in range(m):
                        if a >> i & 1:
                            z ^= tup[i]
                    assert any((z & zj).bit_count() & 1 for zj in tup)
        assert counts == {(1, 2): 0, (2, 2): 0, (3, 2): 3, (4, 2): 12, (6, 4): 480}


class TestLatticeReport:
    SHARED = [
        "omega_self_pairing",
        "complement_rank",
        "complement_determinant",
        "complement_even",
        "root_count",
    ]
    MOD2 = ["mod2_identification", "picard_gram", "mod2_census", "independence_lemma_small"]

    def test_names_in_report_order(self):
        assert [c.name for c in lattice_checks(1)] == self.SHARED + self.MOD2
        assert [c.name for c in lattice_checks(2)] == self.SHARED

    @pytest.mark.parametrize("d, det, roots", [(1, 1, 240), (2, 2, 126)])
    def test_all_pass_with_their_witnesses(self, d, det, roots):
        checks = lattice_checks(d)
        assert all(c.passed for c in checks)
        witness = {k: v for c in checks for k, v in c.witness.items()}
        assert witness["omega_self_pairing"] == d
        assert abs(witness["complement_determinant"]) == det
        assert witness["root_count"] == roots

    def test_mod2_witnesses_come_from_the_detailed_checks(self):
        by_name = {c.name: c.witness for c in lattice_checks(1)}
        marked = build_hyperbolic(1)
        assert by_name["picard_gram"] == {
            "picard_diag": picard_model_check(marked).witness["diag_pairings"]
        }
        assert by_name["mod2_census"] == {"census_q1": 120, "census_q0": 135}
        assert by_name["mod2_identification"] == by_name["independence_lemma_small"] == {}
