"""Pencil assembly and the exact PSD certificate."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_bounds.lform import LFormTable, eulerian_lform_table
from eulerian_bounds.pencil import (
    SymmetricRationalMatrix,
    build_pencil,
    diagonal_pencil,
    eulerian_diagonal_pencil,
    eulerian_pencil,
    psd_certificate,
)


def M(rows):
    return SymmetricRationalMatrix.from_rows(rows)


def exact_det(rows) -> Fraction:
    # Gaussian elimination over the rationals, with row swaps.
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot], det = a[pivot], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [v - f * w for v, w in zip(a[i], a[k])]
    return det


@st.composite
def symmetric_integer_matrices(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    ints = st.integers(min_value=-3, max_value=3)
    if draw(st.booleans()):
        # A sum of few integer squares: PSD and often singular.
        rows = draw(st.lists(st.lists(ints, min_size=size, max_size=size), max_size=3))
        return [[sum(r[i] * r[j] for r in rows) for j in range(size)] for i in range(size)]
    upper = {(i, j): draw(ints) for i in range(size) for j in range(i, size)}
    return [[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)]


class TestMatrixType:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="not symmetric"):
            M([[1, 2], [3, 4]])

    def test_square_enforced(self):
        with pytest.raises(ValueError, match="not square"):
            SymmetricRationalMatrix(((Fraction(1), Fraction(2)),))

    def test_add_scale_form(self):
        a = M([[1, 2], [2, 5]])
        b = M([[0, 1], [1, 1]])
        assert (a + b).entries == M([[1, 3], [3, 6]]).entries
        assert a.scale(Fraction(1, 2)).entry(1, 1) == Fraction(5, 2)
        assert a.quadratic_form([1, -1]) == 1 - 4 + 5


class TestBuildPencil:
    def test_n1_eulerian(self):
        p = eulerian_pencil(1)
        ones = M([[1, 1], [1, 1]]).entries
        assert p.a0.entries == ones
        assert p.ai[0].entries == ones

    def test_corner_is_degree(self):
        for n in (1, 3, 6):
            assert eulerian_pencil(n).a0.entry(0, 0) == n

    def test_n2_a0(self):
        assert eulerian_pencil(2).a0.entries == M(
            [[2, 1, 3], [1, 1, 2], [3, 2, 9]]
        ).entries

    def test_mold_consistency(self):
        # Entries depend only on the product monomial: A_i[0][j] is
        # L(x_i x_j), which is also A_0[i][j].
        p = eulerian_pencil(4)
        for i in range(1, 5):
            for j in range(1, 5):
                assert p.ai[i - 1].entry(0, j) == p.a0.entry(i, j)

    def test_incomplete_table(self):
        table = eulerian_lform_table(2)
        broken = LFormTable(
            n=2, values={k: v for k, v in table.values.items() if k != (1, 2)}
        )
        with pytest.raises(KeyError, match="incomplete L-form table"):
            build_pencil(broken)


class TestDiagonal:
    def test_n1_sum_is_a1(self):
        p = eulerian_pencil(1)
        assert diagonal_pencil(p).a_sum.entries == p.ai[0].entries

    def test_n2_entrywise_sum(self):
        p = eulerian_pencil(2)
        expect = p.ai[0] + p.ai[1]
        assert diagonal_pencil(p).a_sum.entries == expect.entries

    def test_at_zero_is_a0(self):
        dp = eulerian_diagonal_pencil(3)
        assert dp.at(0).entries == dp.a0.entries

    def test_at_evaluates_affinely(self):
        dp = eulerian_diagonal_pencil(2)
        x = Fraction(-1, 3)
        manual = dp.a0 + dp.a_sum.scale(x)
        assert dp.at(x).entries == manual.entries


class TestPsdCertificate:
    def test_identity(self):
        assert psd_certificate(M([[1, 0], [0, 1]])).is_psd

    def test_indefinite_with_witness(self):
        res = psd_certificate(M([[0, 1], [1, 0]]))
        assert not res.is_psd
        assert res.witness_value < 0

    def test_zero_row_is_fine(self):
        assert psd_certificate(M([[0, 0], [0, 1]])).is_psd
        assert psd_certificate(M([[1, 0], [0, 0]])).is_psd

    def test_zero_pivot_with_coupling(self):
        res = psd_certificate(M([[0, 1], [1, 1]]))
        assert not res.is_psd

    def test_negative_diagonal(self):
        res = psd_certificate(M([[2, 0], [0, -1]]))
        assert not res.is_psd

    def test_psd_needs_schur_elimination(self):
        # [[1, 2], [2, 4]] is rank-1 PSD; [[1, 2], [2, 3]] is not.
        assert psd_certificate(M([[1, 2], [2, 4]])).is_psd
        assert not psd_certificate(M([[1, 2], [2, 3]])).is_psd

    @pytest.mark.parametrize("n", range(1, 15))
    def test_eulerian_a0_psd(self, n):
        assert psd_certificate(eulerian_diagonal_pencil(n).a0).is_psd

    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_gram_matrices_accepted(self, rows):
        # B^T B is PSD for any rational B.
        gram = [
            [
                Fraction(sum(rows[k][i] * rows[k][j] for k in range(len(rows))))
                for j in range(3)
            ]
            for i in range(3)
        ]
        assert psd_certificate(M(gram)).is_psd

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=6, max_size=6)
    )
    @settings(max_examples=120, deadline=None)
    def test_witness_soundness(self, entries):
        a, b, c, d, e, f = entries
        mat = M([[a, b, c], [b, d, e], [c, e, f]])
        res = psd_certificate(mat)
        if not res.is_psd:
            # The refutation must be exact, not approximate.
            assert mat.quadratic_form(res.witness) < 0
            assert mat.quadratic_form(res.witness) == res.witness_value
        else:
            # PSD answers must survive every +-1 probe.
            for v in itertools.product((-1, 0, 1), repeat=3):
                assert mat.quadratic_form(v) >= 0

    @given(symmetric_integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_principal_minors(self, rows):
        # A symmetric matrix is PSD exactly when every principal minor is >= 0.
        size = len(rows)
        minors_ok = all(
            exact_det([[rows[i][j] for j in idx] for i in idx]) >= 0
            for r in range(1, size + 1)
            for idx in itertools.combinations(range(size), r)
        )
        assert psd_certificate(M(rows)).is_psd == minors_ok
