"""Pencil assembly and the exact PSD certificate."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eulerian_bounds import pencil, spectra
from eulerian_bounds.bounds import GuessVector
from eulerian_bounds.lform import (
    LFormTable,
    Truncation3,
    eulerian_lform_table,
    lform_from_truncation,
    monomials_up_to_3,
)
from eulerian_bounds.pencil import (
    DiagonalPencil,
    SymmetricRationalMatrix,
    build_pencil,
    eulerian_diagonal_pencil,
    eulerian_pencil,
    psd_certificate,
)
from eulerian_bounds.spectra import _bareiss_det, _det, _null_vector, psd_interval_left

from bareiss_certificate import bareiss_psd_certificate

from fraction_elimination import (
    fraction_quadratic_form,
    fraction_row_basis,
    ldlt_psd_certificate,
    pencil_at,
)
from polynomials import quadratic_at
from summed_pencil import diagonal_pencil, linearized_DN, molded_pencil, summed_diagonal_pencil


def M(rows):
    return SymmetricRationalMatrix(tuple(tuple(Fraction(v) for v in row) for row in rows))


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


@st.composite
def banded_integer_matrices(draw, symmetric=False):
    """Integer matrices zero outside a band |i - j| <= b, b < size, often
    with zero and repeated entries so that pivots vanish or fall off the
    diagonal; with ``symmetric`` square, else with up to two extra rows."""
    size = draw(st.integers(min_value=1, max_value=8))
    b = draw(st.integers(min_value=0, max_value=size - 1))
    extra = 0 if symmetric else draw(st.integers(min_value=0, max_value=2))
    value = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    rows = [[draw(value) if abs(i - j) <= b else 0 for j in range(size)]
            for i in range(size + extra)]
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
    return rows


def upper_band(rows) -> list[list[int]]:
    """The upper band rows [a_ii, ..., a_i,i+b] of a symmetric matrix, b its
    half-bandwidth."""
    b = max((j - i for i, row in enumerate(rows) for j, v in enumerate(row) if v), default=0)
    return [row[i:i + b + 1] for i, row in enumerate(rows)]


class TestIntegerRows:
    @given(st.lists(st.lists(INTS | RATIONALS, min_size=1, max_size=4), min_size=1, max_size=4),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_clears_int_fraction_and_mixed_rows(self, rows, as_tuples):
        # The lcm route is the oracle: every input, all-int or not, comes
        # back as the same int values over the same lcm, in fresh lists.
        given_rows = tuple(map(tuple, rows)) if as_tuples else rows
        before = [list(row) for row in rows]
        out, lcm = pencil._integer_rows(given_rows)
        assert lcm == math.lcm(*(Fraction(v).denominator for row in rows for v in row))
        assert out == [[v * lcm for v in row] for row in rows]
        assert all(type(v) is int for row in out for v in row)
        for row in out:
            row.append(1)
        assert [list(row) for row in given_rows] == before


class TestMatrixType:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match=r"matrix not symmetric at \(1, 0\)"):
            M([[1, 2], [3, 4]])

    def test_square_enforced(self):
        with pytest.raises(ValueError, match="matrix is not square"):
            SymmetricRationalMatrix(((Fraction(1), Fraction(2)),))

    def test_pencil_sizes_must_agree(self):
        # A 2x2 A0 with a 3x3 A_sum is refused here, not deep in an elimination.
        with pytest.raises(ValueError, match="a0 and a_sum differ in size: 2 != 3"):
            DiagonalPencil(M([[1, 0], [0, 1]]), M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


# Rationals with zero entries and denominators up to 2^64, as at x_min.lo.
WIDE_RATIONALS = st.just(Fraction(0)) | st.fractions(-8, 8, max_denominator=2**64)


@st.composite
def matrices_and_vectors(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    upper = {(i, j): draw(WIDE_RATIONALS) for i in range(size) for j in range(i, size)}
    rows = [[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)]
    return M(rows), draw(st.lists(WIDE_RATIONALS, min_size=size, max_size=size))


class TestQuadraticForm:
    # The dense guess-quadratic oracle clears the tail and each matrix once and
    # reads each coefficient off one integer sum; the Fraction double loop
    # checks it on any symmetric matrix.
    @given(matrices_and_vectors())
    @example((M([[1, 2], [2, 3]]), [Fraction(1, 2), -1]))
    @example((M([[Fraction(1, 3), Fraction(2, 5)], [Fraction(2, 5), Fraction(-7, 6)]]),
              [Fraction(1, 2), Fraction(-5, 21)]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_oracle(self, mv):
        m, v = mv
        corner, *row = m.entries[0]
        tail = tuple(Fraction(t) for t in v[1:])
        vector = GuessVector(kind="custom", n=m.size - 1, entries=(None,) + tail)
        for q in linearized_DN(DiagonalPencil(m, m), vector):
            assert q.c2 == corner
            assert q.c1 == 2 * sum(a * t for a, t in zip(row, tail))
            assert q.c0 == fraction_quadratic_form(m, (0,) + tail)
            assert quadratic_at(q, v[0]) == fraction_quadratic_form(m, v)


@st.composite
def truncations(draw):
    # Generic degree-3 truncations: any subset of the monomials, with
    # integer or non-integer rational coefficients.
    n = draw(st.integers(min_value=1, max_value=5))
    coeffs = {}
    for mono in monomials_up_to_3(n):
        if mono and draw(st.booleans()):
            coeffs[mono] = Fraction(draw(st.one_of(INTS, RATIONALS)))
    return Truncation3(n=n, degree=draw(st.integers(1, 9)), coeffs=coeffs)


class TestBuildPencil:
    def test_n1_eulerian(self):
        p = eulerian_pencil(1)
        ones = M([[1, 1], [1, 1]]).entries
        assert p.a0.entries == ones
        assert p.ai[0].entries == ones

    def test_corner_is_degree(self):
        for n in (1, 3, 6):
            assert eulerian_pencil(n).a0.entries[0][0] == n

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
                assert p.ai[i - 1].entries[0][j] == p.a0.entries[i][j]

    def test_incomplete_table(self):
        # A missing key is named in the table's own message.
        table = eulerian_lform_table(2)
        for missing in [(), (2,), (1, 2), (2, 2), (1, 1, 2), (1, 2, 2), (2, 2, 2)]:
            broken = LFormTable(
                n=2, values={k: v for k, v in table.values.items() if k != missing}
            )
            message = f"incomplete L-form table: missing {missing}"
            with pytest.raises(KeyError, match=re.escape(message)):
                build_pencil(broken)

    @pytest.mark.parametrize("n", [*range(1, 13), 20])
    def test_eulerian_matches_the_molded_oracle(self, n):
        table = eulerian_lform_table(n)
        assert build_pencil(table) == molded_pencil(table)

    @given(truncations())
    @settings(max_examples=80, deadline=None)
    def test_truncation_tables_match_the_molded_oracle(self, t):
        table = lform_from_truncation(t)
        assert build_pencil(table) == molded_pencil(table)


class TestDiagonal:
    def test_n1_sum_is_a1(self):
        p = eulerian_pencil(1)
        assert summed_diagonal_pencil(p).a_sum.entries == p.ai[0].entries
        assert diagonal_pencil(eulerian_lform_table(1)).a_sum.entries == p.ai[0].entries

    def test_n2_entrywise_sum(self):
        p = eulerian_pencil(2)
        expect = tuple(tuple(a + b for a, b in zip(r1, r2))
                       for r1, r2 in zip(p.ai[0].entries, p.ai[1].entries))
        assert summed_diagonal_pencil(p).a_sum.entries == expect
        assert diagonal_pencil(eulerian_lform_table(2)).a_sum.entries == expect

    @given(truncations())
    @settings(max_examples=80, deadline=None)
    def test_molds_the_sum_of_the_coefficient_matrices(self, t):
        table = lform_from_truncation(t)
        assert diagonal_pencil(table) == summed_diagonal_pencil(build_pencil(table))

    @pytest.mark.parametrize("n", range(1, 25))
    def test_eulerian_matches_the_summed_pencil(self, n):
        expect = summed_diagonal_pencil(eulerian_pencil(n))
        assert eulerian_diagonal_pencil(n) == expect
        assert diagonal_pencil(eulerian_lform_table(n)) == expect

    @pytest.mark.parametrize("n", range(1, 65))
    def test_closed_form_matches_the_table_sum(self, n):
        dp = eulerian_diagonal_pencil(n)
        assert dp == diagonal_pencil(eulerian_lform_table(n))
        for m in (dp.a0, dp.a_sum):
            assert all(type(v) is int for row in m.entries for v in row)
            assert all(m.entries[r][c] == m.entries[c][r]
                       for r in range(n + 1) for c in range(r))

    @pytest.mark.parametrize("n", [0, -1, -5])
    def test_closed_form_rejects_n_below_1(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            eulerian_diagonal_pencil(n)

    @pytest.mark.parametrize(
        "missing", [(), (2,), (1, 2), (2, 2), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    )
    def test_incomplete_table(self, missing):
        table = eulerian_lform_table(2)
        broken = LFormTable(
            n=2, values={k: v for k, v in table.values.items() if k != missing}
        )
        message = f"incomplete L-form table: missing {missing}"
        with pytest.raises(KeyError, match=re.escape(message)):
            diagonal_pencil(broken)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_eulerian_table_and_pencil_hold_ints(self, n):
        # Python ints, not Fractions equal to integers: the Eulerian data
        # stays integral from the closed forms to the diagonal pencil.
        assert all(type(v) is int for v in eulerian_lform_table(n).values.values())
        dp = eulerian_diagonal_pencil(n)
        assert all(
            type(v) is int for m in (dp.a0, dp.a_sum) for row in m.entries for v in row
        )


class TestPsdCertificate:
    def test_identity(self):
        assert psd_certificate(M([[1, 0], [0, 1]])).is_psd

    def test_indefinite_with_witness(self):
        res = psd_certificate(M([[0, 1], [1, 0]]))
        assert not res.is_psd
        assert res.witness_value < 0

    def test_witness_failing_verification_is_refused(self, monkeypatch):
        # A quadratic form that reads 0 on the witness does not refute PSD.
        monkeypatch.setattr(pencil, "_integer_form", lambda rows, w: 0)
        with pytest.raises(ArithmeticError, match="PSD witness failed exact verification"):
            psd_certificate(M([[0, 1], [1, 0]]))

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
            # The refutation must be exact, not approximate, and in integers.
            assert all(type(c) is int for c in res.witness)
            assert fraction_quadratic_form(mat, res.witness) == res.witness_value < 0
        else:
            # PSD answers must survive every +-1 probe.
            for v in itertools.product((-1, 0, 1), repeat=3):
                assert fraction_quadratic_form(mat, v) >= 0

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
            assert all(type(c) is int for c in res.witness)
            value = fraction_quadratic_form(M(rows), res.witness)
            assert value < 0 and value == res.witness_value

    @given(symmetric_matrices(RATIONALS), st.fractions(-4, 4, max_denominator=2**64))
    @settings(max_examples=100, deadline=None)
    def test_witness_value_is_the_quadratic_form(self, rows, x):
        # The integer witness check gives the Fraction form's exact value,
        # also at shifts with 64-bit denominators, as at a pencil's x_min.lo.
        m = M([[v + x * (i == j) for j, v in enumerate(row)] for i, row in enumerate(rows)])
        res = psd_certificate(m)
        assume(not res.is_psd)
        assert all(type(c) is int for c in res.witness)
        assert res.witness_value == fraction_quadratic_form(m, res.witness) < 0

    @pytest.mark.parametrize("n", range(2, 15))
    def test_matches_ldlt_oracle_on_eulerian_pencils(self, n):
        dp = eulerian_diagonal_pencil(n)
        x_min = psd_interval_left(dp, 128)
        for x, psd in ((0, True), (x_min.lo, False), (x_min.hi, True)):
            mat = pencil_at(dp, x)
            res, oracle = psd_certificate(mat), ldlt_psd_certificate(mat)
            assert res.is_psd == oracle.is_psd == psd
            if not psd:
                assert all(type(c) is int for c in res.witness)
                assert fraction_quadratic_form(mat, res.witness) == res.witness_value < 0


class TestEliminationKernel:
    @given(square_integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_determinant_matches_exact_det(self, rows):
        assert _bareiss_det(rows) == exact_det(rows)

    @given(st.one_of(symmetric_matrices(), banded_integer_matrices(symmetric=True)))
    @example([[0, 1], [1, 0]])  # a vanishing leading minor: the row-exchanging fallback
    @example([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    @settings(max_examples=300, deadline=None)
    def test_symmetric_determinant_matches_exact_det(self, rows):
        assert _det(upper_band(rows)) == exact_det(rows)

    def test_leading_minor_vanishing_at_every_x(self, monkeypatch):
        # A0 = diag(0, 1), A_sum = [[0, 1], [1, 0]]: det(A0 + x A_sum) = -x^2,
        # its 1x1 leading minor 0 at every x, so each value takes the fallback.
        dp = DiagonalPencil(M([[0, 0], [0, 1]]), M([[0, 1], [1, 0]]))
        band = [[0, 0], [1], [0, 1], [0]]
        fallbacks = []
        real = spectra._bareiss_det
        monkeypatch.setattr(spectra, "_bareiss_det", lambda a: fallbacks.append(a) or real(a))
        assert [_det(spectra._pencil_rows(band, x, 1)) for x in range(4)] == [0, -1, -4, -9]
        assert spectra._det_polynomial(band, 0) == [-1, 0, 0] and len(fallbacks) == 5
        x_min = psd_interval_left(dp, 64)
        assert x_min.hi == 0 and x_min.lo < 0

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

    @given(st.one_of(symmetric_matrices(), symmetric_matrices(RATIONALS)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_null_vector_is_an_exact_integer_kernel(self, rows, data):
        # Bordering M by M c and c^T M c gives T M T^T for T = [I; c^T]:
        # symmetric and singular, with (c, -1) in its kernel.
        c = data.draw(st.lists(INTS | RATIONALS, min_size=len(rows), max_size=len(rows)))
        mc = [sum(a * b for a, b in zip(row, c)) for row in rows]
        m = [row + [x] for row, x in zip(rows, mc)] + [mc + [sum(a * b for a, b in zip(mc, c))]]
        v = _null_vector(pencil._integer_rows(m)[0])
        assert all(type(e) is int for e in v) and any(v)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)

    @given(banded_integer_matrices())
    @example([[0, 1, 0], [1, 0, 1], [0, 1, 0]])  # zero pivots, a pivot below the diagonal
    @example([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2], [0, 0, 0, 1]])
    @settings(max_examples=300, deadline=None)
    def test_band_window_matches_the_dense_loop(self, rows):
        # The row-exchanging determinant of banded, often singular input.
        if len(rows) == len(rows[0]):
            assert _bareiss_det(rows) == exact_det(rows)

    @given(banded_integer_matrices(symmetric=True))
    @example([[0, 1, 0], [1, 0, 1], [0, 1, 0]])  # a zero diagonal coupled below it
    @example([[1, 2, 0], [2, 1, 3], [0, 3, 1]])  # a negative pivot
    @settings(max_examples=300, deadline=None)
    def test_band_window_keeps_the_witness(self, rows):
        # The PSD decision, witness and value of the row-exchanging certificate.
        ours = psd_certificate(M(rows))
        assert ours == bareiss_psd_certificate(M(rows))
        assert ours.is_psd == principal_minors_nonnegative(rows)

    def test_pivot_rows_come_from_the_input_in_order(self):
        # Column 0 is zero in row 0, so row 1 pivots there and row 0 in
        # column 1; row 2 is twice row 0, so column 2 gets no pivot.
        rows = [[0, 2, 1], [3, 1, 0], [0, 4, 2]]
        assert [(col, i) for col, i, _ in pencil._bareiss(rows)] == [(0, 1), (1, 0)]
        assert _bareiss_det(rows) == 0
        assert _bareiss_det(rows[:2] + [[0, 0, 1]]) == -6
