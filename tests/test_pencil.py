"""Pencil assembly and the exact PSD certificate."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_bounds import pencil
from eulerian_bounds.lform import LFormTable, eulerian_lform_table
from eulerian_bounds.pencil import (
    SymmetricRationalMatrix,
    build_pencil,
    diagonal_pencil,
    eulerian_diagonal_pencil,
    eulerian_pencil,
    psd_certificate,
)
from eulerian_bounds.spectra import _det, psd_interval_left

from fraction_elimination import fraction_row_basis, ldlt_psd_certificate


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


INTS = st.integers(min_value=-3, max_value=3)
# Non-integer rationals: the kernel clears their denominators first.
RATIONALS = st.builds(Fraction, INTS, st.integers(min_value=2, max_value=7))


@st.composite
def symmetric_matrices(draw, values=INTS):
    size = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        # A sum of few squares: PSD and often singular.
        rows = draw(
            st.lists(st.lists(values, min_size=size, max_size=size), max_size=3)
        )
        return [[sum(r[i] * r[j] for r in rows) for j in range(size)] for i in range(size)]
    upper = {(i, j): draw(values) for i in range(size) for j in range(i, size)}
    return [[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)]


def principal_minors_nonnegative(rows) -> bool:
    # A symmetric matrix is PSD exactly when every principal minor is >= 0.
    size = len(rows)
    return all(
        exact_det([[rows[i][j] for j in idx] for i in idx]) >= 0
        for r in range(1, size + 1)
        for idx in itertools.combinations(range(size), r)
    )


@st.composite
def square_integer_matrices(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(INTS, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    if size > 1 and draw(st.booleans()):
        # A zero leading column entry forces a row swap.
        rows[0][0] = 0
    if size > 1 and draw(st.booleans()):
        # A repeated row makes the matrix singular.
        rows[-1] = list(rows[0])
    return rows


@st.composite
def tall_integer_matrices(draw):
    # 2s x s matrices, often rank deficient: products of 2s x r and r x s.
    s = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=0, max_value=s))
    left = draw(st.lists(st.lists(INTS, min_size=r, max_size=r),
                         min_size=2 * s, max_size=2 * s))
    right = draw(st.lists(st.lists(INTS, min_size=s, max_size=s),
                          min_size=r, max_size=r))
    if not r:
        return [[0] * s for _ in left]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


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

    @given(symmetric_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_principal_minors(self, rows):
        assert psd_certificate(M(rows)).is_psd == principal_minors_nonnegative(rows)

    @given(symmetric_matrices(RATIONALS))
    @settings(max_examples=150, deadline=None)
    def test_rational_entries_match_principal_minors(self, rows):
        res = psd_certificate(M(rows))
        assert res.is_psd == principal_minors_nonnegative(rows)
        if not res.is_psd:
            value = M(rows).quadratic_form(res.witness)
            assert value < 0 and value == res.witness_value

    @pytest.mark.parametrize("n", range(2, 15))
    def test_matches_ldlt_oracle_on_eulerian_pencils(self, n):
        dp = eulerian_diagonal_pencil(n)
        x_min = psd_interval_left(dp, 128)
        for x, psd in ((0, True), (x_min.lo, False), (x_min.hi, True)):
            mat = dp.at(x)
            res, oracle = psd_certificate(mat), ldlt_psd_certificate(mat)
            assert res.is_psd == oracle.is_psd == psd
            if not psd:
                assert mat.quadratic_form(res.witness) == res.witness_value < 0


class TestEliminationKernel:
    @given(square_integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_determinant_matches_exact_det(self, rows):
        assert _det(rows) == exact_det(rows)

    @given(tall_integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rank_and_row_basis(self, rows):
        pivots = list(pencil._bareiss(rows))
        oracle = fraction_row_basis(rows)
        assert len(pivots) == len(oracle)
        basis = [row for _, _, row in pivots]
        # Echelon, and inside the row space of the input.
        for col, _, row in pivots:
            assert row[col] and not any(row[:col])
        assert len(fraction_row_basis(rows + basis)) == len(oracle)

    def test_pivot_rows_come_from_the_input_in_order(self):
        # Column 0 is zero in row 0, so row 1 pivots there and row 0 in
        # column 1; row 2 is twice row 0, so column 2 gets no pivot.
        rows = [[0, 2, 1], [3, 1, 0], [0, 4, 2]]
        assert [(col, i) for col, i, _ in pencil._bareiss(rows)] == [(0, 1), (1, 0)]
        assert _det(rows) == 0
        assert _det(rows[:2] + [[0, 0, 1]]) == -6
