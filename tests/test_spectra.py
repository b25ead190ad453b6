"""Certified PSD endpoints, boundary kernel vectors, extreme roots."""

import math
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.rootisolation import dup_count_real_roots, dup_isolate_real_roots_sqf
from sympy.polys.sqfreetools import dup_sqf_list, dup_sqf_part

from eulerian_bounds import pencil, spectra
from eulerian_bounds.enclosure import AlgebraicBound
from eulerian_bounds.eulerian import univariate_eulerian
from eulerian_bounds.pencil import (
    DiagonalPencil,
    SymmetricRationalMatrix,
    _integer_rows,
    eulerian_diagonal_pencil,
    psd_certificate,
)
from eulerian_bounds.spectra import (
    boundary_kernel_vector,
    extreme_roots,
    psd_interval_left,
)

from bareiss_certificate import bareiss_psd_certificate
from dense_kernel import dense_kernel_vector
from fraction_elimination import congruence_restriction, fraction_quadratic_form, pencil_at
from intervals import contains, encloses, is_certainly_negative, possibly_leq, rsub, width
from polynomials import bisection_refine_root, polynomialize
from summed_pencil import univariate_diagonal
from surds import sqrt_enclosure


def diag_pencil(a0_rows, sum_rows) -> DiagonalPencil:
    return DiagonalPencil(*(
        SymmetricRationalMatrix(tuple(tuple(Fraction(v) for v in row) for row in rows))
        for rows in (a0_rows, sum_rows)
    ))


def overlaps(a, b) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


def is_psd_at(p: DiagonalPencil, x) -> bool:
    return psd_certificate(pencil_at(p, x)).is_psd


def bisection_x_min(p: DiagonalPencil, prec: int) -> AlgebraicBound:
    """Independent oracle: bisect with an exact PSD decision at every step.

    Keeps the pencil not PSD at lo and PSD at hi; doubling the bracket
    past -2^64 without leaving the PSD region counts as unbounded.
    """
    if not is_psd_at(p, 0):
        raise ValueError("A0 is not PSD")
    hi, lo = Fraction(0), Fraction(-1)
    while is_psd_at(p, lo):
        hi, lo = lo, 2 * lo
        if lo < -(2**64):
            raise ValueError("unbounded below")
    while hi - lo > Fraction(1, 2**prec):
        mid = (lo + hi) / 2
        if is_psd_at(p, mid):
            hi = mid
        else:
            lo = mid
    return AlgebraicBound(lo, hi)


def certified_boundary(p: DiagonalPencil, enc: AlgebraicBound) -> bool:
    return is_psd_at(p, enc.hi) and not is_psd_at(p, enc.lo)


def transpose_product(a, b):
    return [[sum(a[k][i] * b[k][j] for k in range(len(a))) for j in range(len(b[0]))]
            for i in range(len(a[0]))]


@st.composite
def psd_pencils(draw) -> DiagonalPencil:
    """Integer pencils of size <= 4 with A0 = G^T G PSD, often singular.

    A congruence by a square C that may be singular gives the two
    matrices a common kernel.
    """
    s = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=s, max_size=s)
    g = draw(st.lists(row, min_size=1, max_size=s))
    a0 = transpose_product(g, g)
    upper = draw(st.lists(st.integers(-4, 4), min_size=s * s, max_size=s * s))
    a_sum = [[upper[min(i, j) * s + max(i, j)] for j in range(s)] for i in range(s)]
    if draw(st.booleans()):
        c = draw(st.lists(row, min_size=s, max_size=s))
        a0 = transpose_product(c, transpose_product(a0, c))
        a_sum = transpose_product(c, transpose_product(a_sum, c))
    return diag_pencil(a0, a_sum)


@st.composite
def mixed_kernel_pencils(draw) -> DiagonalPencil:
    """psd_pencils bordered by one or two zero rows and columns, then mixed
    as U^T (.) U by a unimodular U, a product of column operations
    col_j += c col_i: their common kernel U^-1 (0, ..., 0, *) is in general
    not a coordinate subspace."""
    dp, z = draw(psd_pencils()), draw(st.integers(1, 2))
    size = dp.size + z
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(size)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        for row in u:
            row[j] += c * row[i]
    mixed = []
    for m in (dp.a0, dp.a_sum):
        bordered = [list(row) + [0] * z for row in m.entries] + [[0] * size] * z
        mixed.append(transpose_product(u, transpose_product(bordered, u)))
    return diag_pencil(*mixed)


def det_polynomial(band):
    """spectra._det_polynomial with det(A0) from _det, not from a PSD test."""
    return spectra._det_polynomial(band, spectra._det(band[: len(band) // 2]))


def boundary_route(dp: DiagonalPencil, prec: int):
    """psd_boundary, with the witness at its lo, and boundary_kernel_vector;
    or the ValueError refusing dp."""
    try:
        return spectra.psd_boundary(dp, prec), boundary_kernel_vector(dp, prec)
    except ValueError as exc:
        return str(exc)


@st.composite
def rescaled_pencils(draw) -> DiagonalPencil:
    """Eulerian pencils for n <= 10 or psd_pencils, as A0 a + x A_sum b for
    positive rationals a and b with denominators up to 12."""
    dp = draw(st.one_of(st.integers(1, 10).map(eulerian_diagonal_pencil), psd_pencils()))
    a, b = (Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12))) for _ in "ab")
    return diag_pencil([[a * v for v in row] for row in dp.a0.entries],
                       [[b * v for v in row] for row in dp.a_sum.entries])


class TestPsdIntervalLeft:
    def test_diagonal_toy(self):
        enc = psd_interval_left(diag_pencil([[1, 0], [0, 1]], [[1, 0], [0, 2]]), 64)
        assert contains(enc, Fraction(-1, 2))
        assert width(enc) <= Fraction(1, 2**64)

    def test_n1_eulerian(self):
        enc = psd_interval_left(eulerian_diagonal_pencil(1), 96)
        assert contains(enc, -1)

    def test_n2_matches_true_root(self):
        enc = psd_interval_left(eulerian_diagonal_pencil(2), 128)
        target = sqrt_enclosure(3, 140) - 2
        assert overlaps(enc, target)

    @pytest.mark.parametrize("n", (3, 5, 7, 9, 11, 13, 15))
    def test_containment_against_rightmost_root(self, n):
        # Even n up to 16 are exercised by the acceptance chain; the odd
        # ones complete the containment invariant.
        enc = psd_interval_left(eulerian_diagonal_pencil(n), 96)
        _, q_right = extreme_roots(univariate_eulerian(n), 96)
        assert possibly_leq(enc, q_right)

    def test_min_precision(self):
        with pytest.raises(ValueError, match="prec must be >= 16"):
            psd_interval_left(eulerian_diagonal_pencil(1), 8)

    def test_a0_must_be_psd(self):
        with pytest.raises(ValueError, match="A0 is not PSD"):
            psd_interval_left(diag_pencil([[-1, 0], [0, 1]], [[1, 0], [0, 1]]), 32)

    def test_unbounded_below(self):
        with pytest.raises(ValueError, match="unbounded below"):
            psd_interval_left(diag_pencil([[1, 0], [0, 1]], [[0, 0], [0, 0]]), 32)

    def test_enclosures_nest_when_prec_doubles(self):
        dp = eulerian_diagonal_pencil(5)
        wide = psd_interval_left(dp, 64)
        tight = psd_interval_left(dp, 128)
        assert encloses(wide, tight)

    def test_enclosure_not_psd_at_hi_is_refused(self, monkeypatch):
        # A cell moved 1 left of x_min is not PSD at either end.
        real = spectra._refine_root
        monkeypatch.setattr(spectra, "_refine_root", lambda *a, **k: real(*a, **k) - 1)
        with pytest.raises(ArithmeticError, match="x_min enclosure is not PSD at hi"):
            psd_interval_left(eulerian_diagonal_pencil(4), 64)

    def test_n1_identically_zero_determinant(self):
        # A0 = A_sum = [[1, 1], [1, 1]]: det(A0 + x A_sum) vanishes for
        # every x, and the common kernel (1, -1) has to be split off.
        dp = eulerian_diagonal_pencil(1)
        assert all(pencil_at(dp, x).entries == ((1 + x, 1 + x), (1 + x, 1 + x)) for x in (0, 3))
        enc = psd_interval_left(dp, 64)
        assert enc == AlgebraicBound(-1 - Fraction(1, 2**64), Fraction(-1))
        assert certified_boundary(dp, enc)

    def test_exact_dyadic_root_keeps_a_non_psd_lo(self):
        dp = diag_pencil([[1, 0], [0, 1]], [[1, 0], [0, 2]])
        for prec in (16, 64):
            enc = psd_interval_left(dp, prec)
            assert enc.hi == Fraction(-1, 2) and 0 < width(enc) <= Fraction(1, 2**prec)
            assert certified_boundary(dp, enc)

    def test_psd_set_is_a_single_point(self):
        # PSD only at x = 0: det = -x^2, a double root at the origin.
        dp = diag_pencil([[1, 0], [0, 0]], [[0, 1], [1, 0]])
        enc = psd_interval_left(dp, 32)
        assert enc.hi == 0 and certified_boundary(dp, enc)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_lo_not_psd_hi_psd(self, n):
        dp = eulerian_diagonal_pencil(n)
        enc = psd_interval_left(dp, 128)
        assert width(enc) <= Fraction(1, 2**128)
        assert certified_boundary(dp, enc)

    @pytest.mark.parametrize("n", (2, 7))
    def test_matches_bisection_oracle(self, n):
        dp = eulerian_diagonal_pencil(n)
        assert overlaps(psd_interval_left(dp, 96), bisection_x_min(dp, 96))

    @settings(max_examples=150, deadline=None)
    @given(psd_pencils())
    def test_property_matches_bisection_oracle(self, dp):
        try:
            oracle = bisection_x_min(dp, 32)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                psd_interval_left(dp, 32)
            return
        enc = psd_interval_left(dp, 32)
        assert overlaps(enc, oracle)
        assert width(enc) <= Fraction(1, 2**32)
        assert certified_boundary(dp, enc)


def svd_kernel_cosine(dp: DiagonalPencil, kv) -> mpmath.mpf:
    """|cos| of the angle between kv and the SVD's smallest singular vector.

    Independent oracle: the SVD runs at the midpoint of a boundary
    enclosure of width 2**-(4 prec + 64), far finer than kv's own.
    """
    prec = kv.prec
    with mpmath.workprec(2 * prec + 32):
        m = pencil_at(dp, psd_interval_left(dp, 4 * prec + 64).midpoint)
        a = mpmath.matrix([[mpmath.mpf(e.numerator) / e.denominator for e in row]
                           for row in m.entries])
        _, sigma, vt = mpmath.svd_r(a)
        k = min(range(dp.size), key=lambda i: abs(sigma[i]))
        oracle = [vt[k, j] for j in range(dp.size)]
        v = [mpmath.mpf(e.numerator) / e.denominator for e in kv.entries]
        return abs(mpmath.fdot(v, oracle)) / (mpmath.norm(v) * mpmath.norm(oracle))


class TestRangeRestriction:
    """The principal block on the pivot columns of [A0; A_sum] against the
    congruence B M B^T that takes off the common kernel."""

    @staticmethod
    def assert_positive_multiple(f, g):
        f, g = spectra._strip(f), spectra._strip(g)  # both [] if identically 0
        assert len(f) == len(g) and (not f or f[0] * g[0] > 0)
        assert [a * g[0] for a in f] == [b * f[0] for b in g]

    @given(mixed_kernel_pencils(), st.sampled_from((32, 64)))
    @example(diag_pencil([[1, 0, 1], [0, 2, 0], [1, 0, 1]], [[1, 0, 1], [0, 1, 0], [1, 0, 1]]), 32)
    @settings(max_examples=60, deadline=None)
    def test_principal_block_matches_the_congruence(self, dp, prec):
        rows, _ = _integer_rows(dp.a0.entries + dp.a_sum.entries)
        block, oracle = spectra._range_restriction(rows), congruence_restriction(rows)
        assert len(block) == len(oracle) < len(rows)
        self.assert_positive_multiple(det_polynomial(spectra._upper_band(block)),
                                      det_polynomial(spectra._upper_band(oracle)))
        ours = boundary_route(dp, prec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_range_restriction", congruence_restriction)
            theirs = boundary_route(dp, prec)
        if isinstance(ours, str):
            assert ours == theirs
            return
        (x, det, kernel_dim, witness), kv = ours
        (x_o, det_o, kernel_dim_o, witness_o), kv_o = theirs
        assert (x, kernel_dim, witness, kv) == (x_o, kernel_dim_o, witness_o, kv_o)
        assert kernel_dim == len(rows) // 2 - len(block) // 2
        self.assert_positive_multiple(det, det_o)

    def test_kernel_off_the_coordinate_axes(self):
        # diag(1, 2, 0) and diag(1, 1, 0) mixed by col_2 += col_0: the common
        # kernel is (-1, 0, 1), and the pivot columns {0, 1} still complement it.
        dp = diag_pencil([[1, 0, 1], [0, 2, 0], [1, 0, 1]], [[1, 0, 1], [0, 1, 0], [1, 0, 1]])
        rows, _ = _integer_rows(dp.a0.entries + dp.a_sum.entries)
        assert spectra._range_restriction(rows) == [[1, 0], [0, 2], [1, 0], [0, 1]]
        kv = boundary_kernel_vector(dp, 64)
        assert kv.entries == (-1, 0, 1) and kv.degenerate and kv.residual == 0
        assert contains(psd_interval_left(dp, 64), -1)


class TestKernelVector:
    def test_n1_degenerate(self):
        dp = eulerian_diagonal_pencil(1)
        kv = boundary_kernel_vector(dp, 128)
        assert kv.degenerate
        assert sum(e * e for e in kv.entries) > 0

    @pytest.mark.parametrize("prec", (-3, 0, 8, 15))
    @pytest.mark.parametrize("n", (1, 3))
    def test_min_precision(self, n, prec):
        # Refused up front with psd_boundary's message, whatever the pencil.
        with pytest.raises(ValueError, match="prec must be >= 16"):
            boundary_kernel_vector(eulerian_diagonal_pencil(n), prec)

    def test_n10_structure(self):
        dp = eulerian_diagonal_pencil(10)
        kv = boundary_kernel_vector(dp, 128)
        assert not kv.degenerate
        assert kv.normalization == "last-entry"
        entries = [float(e) for e in kv.entries]
        assert entries[-1] == pytest.approx(1.0)
        # Tail stabilizes toward 1, head dives negative.
        assert all(0.7 <= e <= 1.3 for e in entries[6:])
        assert entries[1] < -1

    @pytest.mark.parametrize("prec", (32, 128))
    def test_corank_one_from_n2(self, prec):
        # The determinant root at x_min is simple for n = 2..16, so the
        # flag must not depend on n or prec.
        flags = [
            boundary_kernel_vector(eulerian_diagonal_pencil(n), prec).degenerate
            for n in range(1, 17)
        ]
        assert flags == [True] + [False] * 15

    def test_enclosure_without_determinant_root_is_refused(self, monkeypatch):
        # A squarefree part x + 1, whose root lies far left of x_min,
        # leaves no root in the cell.
        dp = eulerian_diagonal_pencil(4)
        rows, _ = _integer_rows(dp.a0.entries + dp.a_sum.entries)
        boundary = spectra.psd_boundary(dp, 64)
        monkeypatch.setattr(spectra, "_squarefree", lambda d: [1, 1])
        with pytest.raises(ArithmeticError, match="no determinant root in the x_min enclosure"):
            spectra._boundary_degenerate(rows, *boundary[:3])

    @given(
        st.dictionaries(
            st.one_of(
                st.builds(lambda k, j: Fraction(-k, 2**j), st.integers(1, 64), st.integers(0, 4)),
                st.fractions(-20, Fraction(-1, 12), max_denominator=12),
            ),
            st.integers(1, 3), min_size=1, max_size=4,
        ),
        st.sampled_from((4, 6, 10)),
        st.booleans(),
        st.sampled_from((1, -1, 2, -3)),
    )
    @example({Fraction(-47, 48): 1}, 4, True, 1)  # its cell (-1, -15/16] starts on the root -1
    @example({Fraction(-3, 2): 2, Fraction(-47, 32): 1}, 4, False, -1)  # a repeated root at lo
    @example({Fraction(-1, 16): 2, Fraction(-1, 12): 1}, 4, False, 1)  # a repeated root at hi
    @settings(max_examples=150, deadline=None)
    def test_repeated_root_predicate_matches_sympy(self, roots, prec, neighbours, lead):
        # For f = lead prod (x - r)^k, the flag at the cell of each root r
        # reads whether a root in the cell (lo, hi] has k > 1 (sympy's
        # squarefree multiplicities) with no common kernel, and always reads
        # true with one.  Each cell is refined on the interval between r's
        # neighbours, so a neighbour in r's grid cell is the cell's lo, left
        # out, or its hi, counted; ``neighbours`` adds the grid point left of
        # each root as a double root.
        if neighbours:
            roots = {Fraction(math.floor(r * 2**prec), 2**prec): 2 for r in roots} | roots
        f, sqf = [lead], [1]
        for r, k in roots.items():
            sqf = poly_mul(sqf, [r.denominator, -r.numerator])
            for _ in range(k):
                f = poly_mul(f, [r.denominator, -r.numerator])
        _, factors = dup_sqf_list([ZZ(c) for c in f], ZZ)
        ordered = sorted(roots)
        for i, r in enumerate(ordered):
            lo = ordered[i - 1] if i else 2 * r
            hi = ordered[i + 1] if i + 1 < len(ordered) else r / 2
            cell = spectra._refine_root(sqf, lo, hi, prec, exact=False)
            assert cell.lo < r <= cell.hi
            ks = [k for s in ordered if cell.lo < s <= cell.hi
                  for g, k in factors if spectra._sign_at([int(c) for c in g], s) == 0]
            assert spectra._boundary_degenerate([], cell, f, 0) == (max(ks) > 1)
            assert spectra._boundary_degenerate([], cell, f, 1)

    def test_double_root_is_degenerate(self):
        # det(I + x I) = (1 + x)^2: corank 2 at x_min = -1.
        kv = boundary_kernel_vector(diag_pencil([[1, 0], [0, 1]], [[1, 0], [0, 1]]), 64)
        assert kv.degenerate

    def test_simple_root_with_common_kernel(self):
        # Common kernel e_3 plus a simple root at -1: corank 2.
        dp = diag_pencil([[1, 0, 0], [0, 2, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert boundary_kernel_vector(dp, 64).degenerate
        dp = diag_pencil([[1, 0], [0, 2]], [[1, 0], [0, 1]])
        assert not boundary_kernel_vector(dp, 64).degenerate

    def test_point_psd_set_reads_corank_of_a0(self):
        # PSD only at 0, where det = -x^2 has a double root but A0 has corank 1.
        dp = diag_pencil([[1, 0], [0, 0]], [[0, 1], [1, 0]])
        assert not boundary_kernel_vector(dp, 64).degenerate

    @pytest.mark.parametrize("prec", (64, 128))
    def test_kernel_orthogonal_to_all_ones(self, prec):
        # x_min = -1 with kernel (1, -1), orthogonal to (1, 1): a solve with
        # a fixed all-ones right-hand side misses it and trips the guard.
        kv = boundary_kernel_vector(diag_pencil([[1, 0], [0, 1]], [[0, -1], [-1, 0]]), prec)
        assert kv.residual <= Fraction(1, 2 ** (prec // 2))
        sign = 1 if kv.entries[-1] > 0 else -1
        tol = Fraction(1, 2 ** (prec // 4))
        assert all(abs(sign * e - t) <= tol for e, t in zip(kv.entries, (-1, 1)))

    @pytest.mark.parametrize(
        "big, prec", [(2**20, 32), (2**20 + 1, 32), (2**32 + 1, 32), (2**40 + 1, 64)]
    )
    def test_small_last_entry_tightens_the_enclosure(self, big, prec):
        # Kernel near (-big, 1): the witness's residual is about the width
        # times big, past the target at the first enclosure for all but
        # the first case, so the enclosure is tightened until it is met.
        dp = diag_pencil([[1, 1], [1, big]], [[1, 0], [0, 1]])
        kv = boundary_kernel_vector(dp, prec)
        assert kv.normalization == "sup"
        assert kv.residual <= Fraction(1, 2 ** (prec // 2))
        assert svd_kernel_cosine(dp, kv) >= 1 - mpmath.mpf(2) ** -(prec // 4)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_eulerian_matches_svd(self, n):
        kv = boundary_kernel_vector(eulerian_diagonal_pencil(n), 128)
        assert svd_kernel_cosine(eulerian_diagonal_pencil(n), kv) >= 1 - mpmath.mpf(2) ** -32

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.integers(2, 10).map(eulerian_diagonal_pencil), psd_pencils()),
        st.sampled_from((32, 64, 128)),
    )
    def test_property_matches_svd(self, dp, prec):
        try:
            boundary = spectra.psd_boundary(dp, prec)
        except ValueError:
            assume(False)
        rows, _ = _integer_rows(dp.a0.entries + dp.a_sum.entries)
        assume(not spectra._boundary_degenerate(rows, *boundary[:3]))
        kv = boundary_kernel_vector(dp, prec)
        assert svd_kernel_cosine(dp, kv) >= 1 - mpmath.mpf(2) ** -(prec // 4)

    @pytest.mark.parametrize(
        "dp, kernel",
        [
            (eulerian_diagonal_pencil(1), (-1, 1)),
            (diag_pencil([[1, 0, 0], [0, 2, 0], [0, 0, 0]],
                         [[1, 0, 0], [0, 1, 0], [0, 0, 0]]), (0, 0, 1)),
        ],
    )
    def test_singular_midpoint_takes_the_exact_kernel(self, monkeypatch, dp, kernel):
        # A common kernel makes the midpoint matrix singular, and the null
        # vector comes from the exact elimination of its integer rows.
        calls = []
        real = spectra._null_vector

        def spy(m):
            calls.append((m, real(m)))
            return calls[-1][1]

        monkeypatch.setattr(spectra, "_null_vector", spy)
        kv = boundary_kernel_vector(dp, 64)
        [(m, w)] = calls
        assert all(type(c) is int for row in m for c in row)
        assert all(type(c) is int for c in w)
        assert all(sum(a * b for a, b in zip(row, w)) == 0 for row in m)
        assert kv.residual == 0 and kv.entries == kernel

    def test_nonsingular_matrix_has_no_exact_kernel(self, monkeypatch):
        # A boundary reported with a common kernel where there is none: the
        # midpoint matrix is nonsingular, so no exact null vector exists.
        real = spectra.psd_boundary

        def common_kernel(p, prec):
            x, det, _, witness = real(p, prec)
            return x, det, 1, witness

        monkeypatch.setattr(spectra, "psd_boundary", common_kernel)
        with pytest.raises(ArithmeticError, match="numerically singular boundary matrix is nonsingular"):
            boundary_kernel_vector(eulerian_diagonal_pencil(4), 64)

    def test_residual_contract(self):
        dp = eulerian_diagonal_pencil(6)
        kv = boundary_kernel_vector(dp, 96)
        assert kv.residual <= Fraction(1, 2**48)

    @settings(max_examples=60, deadline=None)
    @given(rescaled_pencils(), st.sampled_from((32, 64, 128)))
    def test_residual_rounds_the_exact_one_up(self, dp, prec):
        # The stored residual is the least multiple of 2**(-2 prec) not below
        # ||M v|| / ||v||, computed exactly at the midpoint M that was checked;
        # rescaled pencils give M denominators beyond the midpoint's.
        boundaries = []
        real = spectra.psd_boundary

        def recording(p, bits):
            boundaries.append(real(p, bits))
            return boundaries[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "psd_boundary", recording)
            try:
                kv = boundary_kernel_vector(dp, prec)
            except ValueError:
                assume(False)
        m = pencil_at(dp, boundaries[-1][0].midpoint)
        mv = [sum(e * c for e, c in zip(row, kv.entries)) for row in m.entries]
        exact = sum(y * y for y in mv) / sum(c * c for c in kv.entries)
        step = Fraction(1, 4**prec)
        assert kv.residual**2 >= exact
        assert kv.residual % step == 0
        assert kv.residual == 0 or (kv.residual - step) ** 2 < exact
        assert kv.residual <= Fraction(1, 2 ** (prec // 2))

    @pytest.mark.parametrize("prec, sup_from", [(17, 12), (32, 17), (64, 17), (128, 17)])
    def test_eigvec_flags(self, prec, sup_from):
        # The flags of ``eigvec --n-max 16``: only n = 1 is degenerate, and
        # at prec 17 the final entries from n = 12 on are negligible.
        flags = [
            (kv.normalization, kv.degenerate)
            for kv in (boundary_kernel_vector(eulerian_diagonal_pencil(n), prec)
                       for n in range(1, 17))
        ]
        assert flags == [("last-entry", True)] + [
            ("last-entry" if n < sup_from else "sup", False) for n in range(2, 17)
        ]

    def test_wide_enclosure_gets_refined(self, monkeypatch):
        # At low prec 2**-prec is too wide for the residual target, so the
        # boundary is enclosed at the finer width that target needs.
        dp = eulerian_diagonal_pencil(10)
        precs = []
        real = spectra.psd_boundary

        def recording(p, prec):
            precs.append(prec)
            return real(p, prec)

        monkeypatch.setattr(spectra, "psd_boundary", recording)
        kv = boundary_kernel_vector(dp, 32)
        assert len(precs) == 1 and precs[0] > 32
        assert kv.residual <= Fraction(1, 2**16)

    def test_determinant_built_once(self, monkeypatch):
        # The enclosure and the degenerate flag share one determinant.
        calls = []
        real = spectra._det_polynomial
        monkeypatch.setattr(
            spectra, "_det_polynomial", lambda *a: calls.append(a) or real(*a)
        )
        for n in (6, 8):
            boundary_kernel_vector(eulerian_diagonal_pencil(n), 64)
        assert len(calls) == 2

    def test_non_boundary_enclosure_rejected(self, monkeypatch):
        # An enclosure away from the boundary trips the residual guard.
        dp = eulerian_diagonal_pencil(4)
        real = spectra.psd_boundary

        def shifted(p, prec):
            x, det, kernel_dim, witness = real(p, prec)
            return x - Fraction(1, 2), det, kernel_dim, witness

        monkeypatch.setattr(spectra, "psd_boundary", shifted)
        with pytest.raises(ArithmeticError, match=r"kernel residual .* exceeds 2\^-32"):
            boundary_kernel_vector(dp, 64)


def congruence_factor(s: int) -> list[list[int]]:
    """T = T1 T2 T3 as an explicit s x s integer matrix: column j of T1 is
    e_j - 2 e_(j-1), of T2 2 e_j - 3 e_(j-1), for j >= 2, and of T3
    e_j - e_(j-1) for j >= 1; every other column is e_j."""
    def factor(p, q, start):
        return [[(q if i == j else -p if i == j - 1 else 0) if j >= start else int(i == j)
                 for j in range(s)] for i in range(s)]
    t = [[int(i == j) for j in range(s)] for i in range(s)]
    for f in (factor(2, 1, 2), factor(3, 2, 2), factor(1, 1, 1)):
        t = [[sum(t[i][k] * f[k][j] for k in range(s)) for j in range(s)] for i in range(s)]
    return t


def half_bandwidth(m) -> int:
    return max((abs(i - j) for i, row in enumerate(m) for j, v in enumerate(row) if v), default=0)


def walked(dp: DiagonalPencil, prec: int):
    """psd_boundary with the count route closed: every f takes the walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_rightmost_interval", lambda f: None)
        return spectra.psd_boundary(dp, prec)


class TestBandedPencil:
    """x_min from one count on the banded congruent copy of the pencil."""

    @pytest.mark.parametrize("n", range(1, 65))
    def test_eulerian_congruent_pencil_is_banded(self, n):
        # The band is evidence, not a theorem: checked exactly, entry by
        # entry, against T^T M T with T written out.
        rows, _ = _integer_rows(eulerian_diagonal_pencil(n).a0.entries
                                + eulerian_diagonal_pencil(n).a_sum.entries)
        s, band = n + 1, spectra._banded(rows)
        t = congruence_factor(s)
        for half, m in zip((band[:s], band[s:]), (rows[:s], rows[s:])):
            assert half == transpose_product(t, transpose_product(m, t))
            assert (half_bandwidth(half) == 3) if n >= 5 else (half_bandwidth(half) <= 3)

    @staticmethod
    def assert_count_matches_the_walk(dp, prec, clipped=False):
        """The same dyadic cell, kernel dimension and witness on both routes,
        and a determinant that is a positive multiple of the pencil's own.
        With ``clipped`` the cells may differ where one is clipped to its
        isolating interval (or ends at an exact root), and then only their
        grid cell must agree."""
        try:
            walk = walked(dp, prec)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                spectra.psd_boundary(dp, prec)
            return
        x, det, kernel_dim, witness = spectra.psd_boundary(dp, prec)
        assert kernel_dim == walk[2] and det == walk[1]
        if clipped and x != walk[0]:
            assert math.ceil(x.hi * 2**prec) == math.ceil(walk[0].hi * 2**prec)
            assert min(width(x), width(walk[0])) < Fraction(1, 2**prec)
        else:
            assert (x, witness) == (walk[0], walk[3])
        rows, _ = _integer_rows(dp.a0.entries + dp.a_sum.entries)
        own = det_polynomial(
            spectra._upper_band(rows if not kernel_dim else spectra._range_restriction(rows)))
        TestRangeRestriction.assert_positive_multiple(det, own)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_eulerian_count_route_matches_the_walk(self, n):
        self.assert_count_matches_the_walk(eulerian_diagonal_pencil(n), 128)

    @given(st.one_of(psd_pencils(), mixed_kernel_pencils()), st.sampled_from((16, 64)))
    @settings(max_examples=150, deadline=None)
    def test_generic_count_route_matches_the_walk(self, dp, prec):
        self.assert_count_matches_the_walk(dp, prec, clipped=True)

    @pytest.mark.parametrize("n", range(4, 21))
    def test_eulerian_input_takes_one_search(self, monkeypatch, n):
        # A simple rightmost determinant root: neither the squarefree part
        # nor the bisection isolating every root runs.
        calls = {"_rightmost_interval": [], "_squarefree": [], "_positive_roots": []}
        for name, seen in calls.items():
            real = getattr(spectra, name)
            monkeypatch.setattr(spectra, name, lambda *a, real=real, seen=seen: seen.append(real(*a)) or seen[-1])
        spectra.psd_boundary(eulerian_diagonal_pencil(n), 128)
        assert len(calls["_rightmost_interval"]) == 1 and calls["_rightmost_interval"][0]
        assert calls["_squarefree"] == calls["_positive_roots"] == []

    def test_simple_root_psd_at_lo_is_refused(self, monkeypatch):
        # A cell moved right of x_min is PSD at lo, which a simple rightmost
        # root of the determinant rules out: no second root is walked to.
        real = spectra._refine_root
        monkeypatch.setattr(spectra, "_refine_root", lambda *a, **k: real(*a, **k) + Fraction(1, 2**40))
        with pytest.raises(ArithmeticError, match="a simple rightmost determinant root is PSD at lo"):
            psd_interval_left(eulerian_diagonal_pencil(4), 64)


class TestBandedDecisions:
    """Every PSD test of psd_interval_left and boundary_kernel_vector runs on
    the band, inside psd_boundary: the kernel vector maps its witness back."""

    @staticmethod
    def assert_every_test_on_the_band(dp, prec):
        rows, _ = _integer_rows(dp.a0.entries + dp.a_sum.entries)
        band, log = spectra._upper_band(spectra._banded(rows)), []
        real_boundary, real_test = spectra.psd_boundary, spectra._band_psd_at
        real_elimination = spectra._psd_upper

        def band_test(m, x):
            log.append(("band", m))
            return real_test(m, x)

        def elimination(*args):  # every PSD test, on the band or not
            log.append(("elimination", None))
            return real_elimination(*args)

        def boundary(p, bits):
            start = len(log)
            try:
                return real_boundary(p, bits)
            finally:  # each elimination a band test on this band, collapsed to one entry
                inside = log[start:]
                assert inside and inside == [("band", band), ("elimination", None)] * (len(inside) // 2)
                log[start:] = ["boundary"]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_band_psd_at", band_test)
            for module in (spectra, pencil):  # pencil's for psd_certificate
                mp.setattr(module, "_psd_upper", elimination)
            mp.setattr(spectra, "psd_boundary", boundary)
            try:
                psd_interval_left(dp, prec)
            except ValueError:
                return
            boundary_kernel_vector(dp, prec)
        assert log and set(log) == {"boundary"}

    @pytest.mark.parametrize("n", range(1, 25))
    def test_eulerian(self, n):
        self.assert_every_test_on_the_band(eulerian_diagonal_pencil(n), 64)

    @given(st.one_of(psd_pencils(), mixed_kernel_pencils()), st.sampled_from((16, 64)))
    @settings(max_examples=100, deadline=None)
    def test_generic(self, dp, prec):
        self.assert_every_test_on_the_band(dp, prec)

    @pytest.mark.parametrize("n", (4, 11))
    def test_a0_is_eliminated_once(self, monkeypatch, n):
        # det(A0), the determinant's value at 0, comes from the PSD test at 0:
        # _det runs only at x = 1..s.
        rows, _ = _integer_rows(eulerian_diagonal_pencil(n).a0.entries
                                + eulerian_diagonal_pencil(n).a_sum.entries)
        band, seen, real = spectra._upper_band(spectra._banded(rows)), [], spectra._det
        monkeypatch.setattr(spectra, "_det", lambda m: seen.append(m) or real(m))
        spectra.psd_boundary(eulerian_diagonal_pencil(n), 64)
        assert seen == [spectra._pencil_rows(band, k, 1) for k in range(1, n + 2)]


class TestIntegerPsdInput:
    @settings(max_examples=150, deadline=None)
    @given(rescaled_pencils(), st.integers(1, 200), st.data())
    def test_matches_the_fraction_matrix(self, dp, bits, data):
        # q A0 + p A_sum for x = p / q has the PSD status of A0 + x A_sum.
        b = data.draw(st.integers(1, 2**bits))
        x = Fraction(data.draw(st.integers(-b, b)), b)
        rows, _ = _integer_rows(dp.a0.entries + dp.a_sum.entries)
        assert spectra._is_psd_at(rows, x).is_psd == psd_certificate(pencil_at(dp, x)).is_psd

    def test_no_fraction_matrix_is_built(self, monkeypatch):
        # x_min and the kernel vector are certified on integer rows q A0 +
        # p A_sum alone: no matrix record, let alone the rational A0 + x A_sum.
        built = []
        real = SymmetricRationalMatrix.__post_init__

        def spy(self):
            built.append(self.entries)
            real(self)

        # The univariate pencil holds Fractions, the Eulerian one ints.
        pencils = univariate_diagonal(6), eulerian_diagonal_pencil(8)
        monkeypatch.setattr(SymmetricRationalMatrix, "__post_init__", spy)
        for dp in pencils:
            # Both return only after their exact PSD tests at lo and hi.
            assert psd_interval_left(dp, 128).hi < 0
            assert boundary_kernel_vector(dp, 64).residual <= Fraction(1, 2**32)
        assert built == []


@st.composite
def dense_symmetric_matrices(draw) -> SymmetricRationalMatrix:
    """Integer symmetric matrices of size <= 7: a Gram matrix G^T G (PSD,
    often singular), or free upper entries, often zero."""
    s = draw(st.integers(1, 7))
    value = st.one_of(st.sampled_from((0, 0, 1, -1, 2, -3)), st.integers(-(2**40), 2**40))
    if draw(st.booleans()):
        g = draw(st.lists(st.lists(value, min_size=s, max_size=s), min_size=1, max_size=s))
        return SymmetricRationalMatrix(tuple(map(tuple, transpose_product(g, g))))
    upper = {(i, j): draw(value) for i in range(s) for j in range(i, s)}
    return SymmetricRationalMatrix(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(s))
                                         for i in range(s)))


class TestSymmetricElimination:
    """The PSD decision, witness and value of the symmetric elimination on
    upper band rows equal those of the row-exchanging Bareiss certificate."""

    @given(st.one_of(psd_pencils(), mixed_kernel_pencils()),
           st.one_of(st.integers(-3, 3).map(Fraction), st.fractions(-4, 4, max_denominator=64)))
    @settings(max_examples=200, deadline=None)
    def test_pencils_at_a_point(self, dp, x):
        m = pencil_at(dp, x)
        assert psd_certificate(m) == bareiss_psd_certificate(m)
        # The band-level test of psd_boundary, on the banded congruent copy.
        banded = spectra._banded(_integer_rows(dp.a0.entries + dp.a_sum.entries)[0])
        at = spectra._pencil_rows(banded, x.numerator, x.denominator)
        ours, _ = spectra._band_psd_at(spectra._upper_band(banded), x)
        assert ours == bareiss_psd_certificate(SymmetricRationalMatrix(at))

    @given(dense_symmetric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_dense_symmetric_matrices(self, m):
        assert psd_certificate(m) == bareiss_psd_certificate(m)


def failing_pivot(m: SymmetricRationalMatrix) -> tuple[int, bool]:
    """The dense elimination's first pivot that is not positive, in a nonzero
    row, and whether a zero row was skipped before it."""
    upper, _ = _integer_rows([row[i:] for i, row in enumerate(m.entries)])
    skipped = False
    for col, rows in pencil._ldl(upper):
        if rows[col][0] <= 0 and any(rows[col]):
            return rows[col][0], skipped
        skipped = skipped or not any(rows[col])
    raise AssertionError("no failing pivot")


def positive_multiple(v, w) -> bool:
    return (all(a * d == b * c for a, b in zip(v, w) for c, d in zip(v, w))
            and sum(a * b for a, b in zip(v, w)) > 0)


def zero_pencil_at_0(m: SymmetricRationalMatrix) -> tuple[DiagonalPencil, Fraction]:
    """(m + x 0, 0): the pencil whose test at 0 is a PSD test of m."""
    return DiagonalPencil(m, SymmetricRationalMatrix(((0,) * m.size,) * m.size)), Fraction(0)


class TestBandWitness:
    """T w, for the witness w of the banded test, refutes PSD on the pencil's
    own rows; after a negative pivot it is the dense witness times a positive
    factor (T is upper triangular, so both eliminations fail at one block)."""

    @given(st.integers(1, 9), st.lists(st.integers(-(2**20), 2**20), min_size=9, max_size=9))
    def test_unband_is_t_times_w(self, s, w):
        t = congruence_factor(s)
        assert spectra._unband(w[:s]) == [sum(t[i][j] * w[j] for j in range(s)) for i in range(s)]

    @staticmethod
    def assert_maps_to_the_dense_witness(dp: DiagonalPencil, x: Fraction):
        band = spectra._upper_band(spectra._banded(_integer_rows(dp.a0.entries + dp.a_sum.entries)[0]))
        ours, m = spectra._band_psd_at(band, x)[0], pencil_at(dp, x)
        dense = psd_certificate(m)
        assert bool(ours) == bool(dense)
        if ours:
            return
        v = spectra._unband(ours.witness)
        assert fraction_quadratic_form(m, v) < 0
        pivot, skipped = failing_pivot(m)
        if pivot < 0 and not skipped:
            assert positive_multiple(v, dense.witness)

    @given(st.one_of(psd_pencils(), mixed_kernel_pencils()),
           st.one_of(st.integers(-3, 3).map(Fraction), st.fractions(-4, 4, max_denominator=64)))
    @settings(max_examples=200, deadline=None)
    def test_pencils_at_a_point(self, dp, x):
        self.assert_maps_to_the_dense_witness(dp, x)

    @given(dense_symmetric_matrices())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_integer_matrices(self, m):
        self.assert_maps_to_the_dense_witness(*zero_pencil_at_0(m))

    @pytest.mark.parametrize("n", [*range(1, 25), 28, 32, 36, 40])
    def test_eulerian_matches_the_dense_route(self, n):
        # The same vector, flags and residual as the dense witness at lo gives.
        dp = eulerian_diagonal_pencil(n)
        assert boundary_kernel_vector(dp, 128) == dense_kernel_vector(dp, 128)

    def test_a_witness_not_mapped_back_is_refused(self, monkeypatch):
        # w itself, a vector of the banded copy, does not refute PSD on the
        # pencil's own rows at n = 4.
        monkeypatch.setattr(spectra, "_unband", list)
        with pytest.raises(ArithmeticError, match="mapped witness T w does not refute PSD at lo"):
            boundary_kernel_vector(eulerian_diagonal_pencil(4), 64)


class TestExtremeRoots:
    def test_a1_double_point(self):
        left, right = extreme_roots(univariate_eulerian(1), 128)
        assert contains(left, -1) and contains(right, -1)

    def test_a2_quadratic_formula(self):
        left, right = extreme_roots(univariate_eulerian(2), 128)
        s3 = sqrt_enclosure(3, 140)
        assert overlaps(left, rsub(-2, s3))
        assert overlaps(right, s3 - 2)

    def test_a3_factored_form(self):
        # A_3 = (1+x)(1+10x+x^2); extremes are -5 -+ 2 sqrt(6), and the
        # interior rational root -1 must not be mistaken for an extreme.
        left, right = extreme_roots(univariate_eulerian(3), 128)
        s6 = sqrt_enclosure(6, 140)
        assert overlaps(left, rsub(-5, 2 * s6))
        assert overlaps(right, 2 * s6 - 5)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_palindromic_reciprocity(self, n):
        left, right = extreme_roots(univariate_eulerian(n), 128)
        product = left * right
        assert contains(product, 1) or abs(product.midpoint - 1) < Fraction(
            1, 2**100
        )

    def test_enclosure_width(self):
        left, right = extreme_roots(univariate_eulerian(9), 128)
        assert width(left) <= Fraction(1, 2**128)
        assert width(right) <= Fraction(1, 2**128)

    def test_enclosures_nest_when_prec_doubles(self):
        wide = extreme_roots(univariate_eulerian(9), 64)
        tight = extreme_roots(univariate_eulerian(9), 128)
        assert encloses(wide[0], tight[0])
        assert encloses(wide[1], tight[1])

    def test_rejects_complex_roots(self):
        with pytest.raises(ValueError, match="not real-rooted"):
            extreme_roots(polynomialize([1, 1, 1]), 64)

    def test_complex_pair_between_the_extreme_roots_passes_the_count(self):
        # (x + 8)(8x + 1)(x^2 + x + 1): the count isolates the extreme real
        # roots, on the grid, whatever lies between them; real-rootedness is
        # checked only where the count fails.
        left, right = extreme_roots(polynomialize([8, 73, 81, 73, 8]), 64)
        assert (left, right) == (AlgebraicBound.exact(-8), AlgebraicBound.exact(Fraction(-1, 8)))

    def test_count_of_three_bisects_toward_the_rightmost_root(self):
        # (x + 2)(2x + 1)(x^2 + x + 1): the complex pair and -1/2 make the
        # count at a = -1 read 3; the search bisects to a = -5/8, where it
        # reads 1, and isolates -1/2 in (-5/8, -1/4) without the fallback.
        f = [2, 7, 9, 7, 2]
        assert spectra._rightmost_interval(f) == (Fraction(-5, 8), Fraction(-1, 4))
        left, right = extreme_roots(polynomialize(f), 64)
        assert (left, right) == (AlgebraicBound.exact(-2), AlgebraicBound.exact(Fraction(-1, 2)))

    @pytest.mark.parametrize("coeffs, leftmost, counts", [
        ([36, 51, 16, 1], -12, 2),  # (x + 1)(x + 3)(x + 12): a second count on the reversed f
        ([30, 43, 14, 1], -10, 2),  # (x + 1)(x + 3)(x + 10): the rightmost root is a = -1 itself
        ([2, 5, 4, 1], -2, 1),  # (x + 1)^2 (x + 2): the rightmost root is repeated
    ])
    def test_non_palindromic_input_takes_two_counts(self, monkeypatch, coeffs, leftmost, counts):
        # The leftmost root is the reciprocal of the reversed polynomial's
        # rightmost; a count that fails leaves both to the squarefree part
        # and the isolation of every root.
        calls = {"_rightmost_interval": [], "_squarefree": []}
        for name, seen in calls.items():
            real = getattr(spectra, name)
            monkeypatch.setattr(spectra, name, lambda f, real=real, seen=seen: seen.append(real(f)) or seen[-1])
        left, right = extreme_roots(polynomialize(coeffs), 64)
        assert (left, right) == (AlgebraicBound.exact(leftmost), AlgebraicBound.exact(-1))
        assert len(calls["_rightmost_interval"]) == counts
        assert len(calls["_squarefree"]) == (counts == 1)

    def test_inexact_division_is_refused(self, monkeypatch):
        # A gcd that does not divide (x + 1)^2 (x + 2), which fails the count.
        monkeypatch.setattr(spectra, "_gcd", lambda f, g, p=0: [1, 7])
        with pytest.raises(ArithmeticError, match="inexact polynomial division"):
            extreme_roots(polynomialize([2, 5, 4, 1]), 64)

    def test_cell_clipped_to_a_neighbouring_root_passes_the_self_check(self):
        # (1024x + 1025)(2000x + 2001)^2 (x + 2): the repeated rightmost root
        # fails the count; the bisection of the squarefree part meets the
        # root -1025/1024 as a midpoint and puts -2001/2000 in (-1025/1024, -1).
        # Its cell at prec 8, (-257/256, -1], is clipped to that neighbour,
        # off the grid and where f is 0; the re-check deflates it.
        f = poly_mul(poly_mul([1024, 1025], [1, 2]), poly_mul([2000, 2001], [2000, 2001]))
        assert spectra._isolate(f)[1][1:] == [(Fraction(-1025, 1024),) * 2,
                                              (Fraction(-1025, 1024), Fraction(-1))]
        left, right = extreme_roots(polynomialize(f[::-1]), 8)
        assert left == AlgebraicBound.exact(-2)
        assert right == AlgebraicBound(Fraction(-1025, 1024), Fraction(-1))

    def test_count_without_a_sign_change_falls_back(self):
        # (x - 1)(x + 1)^3: the one root above a = -1 is 1, so a count there
        # reads one, and only the sign change on (a, b) would refuse it; its
        # coefficients change sign, so no count is made, and the isolation
        # route runs and finds the positive root.
        with pytest.raises(ValueError, match="not all negative"):
            extreme_roots(polynomialize([-1, -2, 0, 2, 1]), 64)

    def test_rejects_positive_roots(self):
        with pytest.raises(ValueError, match="roots are not all negative$"):
            extreme_roots(polynomialize([-2, 1, 1]), 64)

    def test_rejects_a_root_at_zero(self):
        with pytest.raises(ValueError, match="roots are not all negative: 0 is a root"):
            extreme_roots(polynomialize([0, 1, 1]), 64)

    def test_rejects_constants(self):
        with pytest.raises(ValueError, match="constant polynomial has no roots"):
            extreme_roots(polynomialize([5]), 64)

    def test_self_check_rejects_enclosure_without_sign_change(self, monkeypatch):
        real = spectra._refine_root
        monkeypatch.setattr(
            spectra, "_refine_root", lambda *args: real(*args) - Fraction(1, 4)
        )
        with pytest.raises(ArithmeticError, match=r"root enclosure \[.*\] has no sign change"):
            extreme_roots(univariate_eulerian(4), 64)

    @pytest.mark.parametrize("n", [20, 32])
    def test_leftmost_root_starts_from_the_rightmost_cell(self, monkeypatch, n):
        # The rightmost root 1/r* is refined first; r* then starts from the
        # reciprocal of its cell, about r*^2 2^-prec wide, not from its
        # isolating interval, about 2^n wide, where it took 31-33 exact
        # evaluations.  Each end's sign is taken once.
        evaluations, per_call = [], []
        real_value, real_refine = spectra._value, spectra._refine_root
        def refine(*args):
            start = len(evaluations)
            cell = real_refine(*args)
            per_call.append((args[1], len(evaluations) - start))
            return cell
        monkeypatch.setattr(spectra, "_value", lambda *a: evaluations.append(1) or real_value(*a))
        monkeypatch.setattr(spectra, "_refine_root", refine)
        extreme_roots(univariate_eulerian(n), 128)
        (right_start, _), (left_start, left_count) = per_call
        assert right_start > -1 > left_start and left_count <= 7

    def test_eulerian_route_evaluates_at_grid_integers(self, monkeypatch):
        # Over A_1..A_32 at prec 128 the route makes 686 exact evaluations:
        # an on-grid end's value is the loop's f(a) or f(b).  Each one in
        # _refine_root and in the re-check is at an integer of the 2^-prec
        # grid, and _rightmost_interval's sign at its b = -q / 2^k is read
        # at the integer -q, off coefficients scaled by powers of 2^k.
        calls = []
        real = spectra._value

        def value(desc, point):
            frame = sys._getframe(1)
            if frame.f_code.co_name in ("_sign_at", "_end_values"):
                frame = frame.f_back
            calls.append((frame.f_code.co_name, point.denominator == 1))
            return real(desc, point)

        monkeypatch.setattr(spectra, "_value", value)
        for n in range(1, 33):
            extreme_roots(univariate_eulerian(n), 128)
        assert len(calls) <= 690
        assert {name for name, _ in calls} == {"_refine_root", "extreme_roots", "_rightmost_interval"}
        assert {name for name, integer in calls if not integer} == set()

    def test_palindromic_input_is_isolated_below_1_only(self, monkeypatch):
        # A_n is palindromic, so one Descartes count, one Taylor shift,
        # isolates its rightmost root, and the reciprocal interval its
        # leftmost; no other root is isolated.
        calls = []
        real = spectra._shift1
        monkeypatch.setattr(spectra, "_shift1", lambda f: calls.append(1) or real(f))
        for n in (32, 200):
            calls.clear()
            extreme_roots(univariate_eulerian(n), 128)
            assert len(calls) <= 1  # 194 to isolate every root of A_32
        monkeypatch.undo()
        for n in range(4, 41):
            assert_extremes_match_the_isolate_route(univariate_eulerian(n), 128)

    @pytest.mark.parametrize("coeffs, message", [
        ([1, 1, 1], "not real-rooted"),
        ([1, 0, 0, 0, 1], "not real-rooted"),  # x^4 + 1: Q = z^2 - 2
        ([1, 3, 4, 3, 1], "not real-rooted"),  # (x + 1)^2 (x^2 + x + 1): -1 repeated
        ([1, 2, 2, 1], "not real-rooted"),  # (x + 1)(x^2 + x + 1)
        ([2, -5, 2], "not all negative"),  # (x - 2)(2x - 1)
        ([6, -5, -38, -5, 6], "not all negative"),  # (x + 2)(2x + 1)(x - 3)(3x - 1)
        ([2, 1, -6, 1, 2], "not all negative"),  # (x - 1)^2 (x + 2)(2x + 1): G squarefree
    ])
    def test_palindromic_input_failing_the_count_falls_back(self, coeffs, message):
        assert coeffs == coeffs[::-1]
        with pytest.raises(ValueError, match=message):
            extreme_roots(polynomialize(coeffs), 64)

    @pytest.mark.parametrize("n, prec", [(20, 16), (32, 32), (100, 64)])
    def test_rightmost_root_is_certainly_negative(self, n, prec):
        # Its interval (1/q, 1/p) ends below 0, so at low prec or large n,
        # where the root is within 2^-prec of 0, the cell still ends below 0.
        _, right = extreme_roots(univariate_eulerian(n), prec)
        assert right.hi < 0 and is_certainly_negative(right)
        assert width(right) <= Fraction(1, 2**prec)

    @pytest.mark.parametrize("c", [1, 2])
    def test_rightmost_cell_may_end_at_zero(self, c):
        # (x^2 + 200000 x + c)^2: its repeated irrational rightmost root, near
        # -c/200000, fails the count and lies within 2^-16 of 0, so its cell
        # is clipped to the isolating interval (-1, 0) and ends at 0.  At
        # c = 1 the input is palindromic: that cell bounds the leftmost root,
        # its reciprocal, from above only.
        def value(x):
            return x * x + 200000 * x + c

        q = [c, 200000, 1]
        left, right = extreme_roots(polynomialize(poly_mul(q, q)), 16)
        assert right.hi == 0 and value(right.lo) < 0 < value(right.hi)
        assert value(left.lo) > 0 > value(left.hi)

    def test_repeated_roots_squarefree_part(self):
        # (1+x)^2 (2+x): all roots negative, one repeated.
        p = polynomialize([2, 5, 4, 1])
        left, right = extreme_roots(p, 96)
        assert contains(left, -2)
        assert contains(right, -1)


def assert_extremes_match_the_isolate_route(p, prec):
    """``extreme_roots`` of a negative-rooted palindromic p against the
    cells ``_refine_root`` gives on the extreme intervals of ``_isolate``.

    Both are the dyadic cell of the same root, each clipped to its own
    isolating interval: the count's (a, b) and its reciprocal
    (1/b, 1/a).  An exact point of the oracle must lie in the new cell.
    An input failing the count (its rightmost root repeated, or at a)
    takes the oracle's route, so its cells are the oracle's.
    """
    desc = [int(c) for c in reversed(p.coeffs)]
    sqf, intervals = spectra._isolate(desc)
    right = spectra._rightmost_interval(spectra._primitive(desc))
    cells = extreme_roots(p, prec)
    assert len(intervals) == len(sqf) - 1
    extremes = intervals[0], intervals[-1]
    if right is None:
        assert cells == tuple(spectra._refine_root(sqf, lo, hi, prec) for lo, hi in extremes)
        return
    for (lo, hi), (a, b), cell in zip(extremes, ((1 / right[1], 1 / right[0]), right), cells):
        assert a <= b < 0
        assert cell == spectra._refine_root(sqf, a, b, prec)
        oracle = spectra._refine_root(sqf, lo, hi, prec)
        if oracle.lo == oracle.hi:
            assert cell.lo <= oracle.lo <= cell.hi
            continue
        k = math.floor(oracle.lo * 2**prec)  # the oracle's cell, clipped or not
        dyadic = Fraction(k, 2**prec), Fraction(k + 1, 2**prec)
        assert cell == AlgebraicBound(max(a, dyadic[0]), min(b, dyadic[1]))


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@st.composite
def polynomials_with_known_roots(draw, negative_palindromic=False):
    """An integer polynomial (descending) and its distinct real roots.

    Rational roots of multiplicity 1-3, some complex pairs
    x^2 + b x + c with b^2 < 4c, and sometimes a root at 0.  In the
    reciprocal mode the roots are closed under r -> 1/r, so the polynomial
    is palindromic up to sign: pairs r, 1/r and roots +-1 of multiplicity
    1-3, complex pairs x^2 + b x + 1 with |b| <= 1, and no root at 0.
    ``negative_palindromic`` forces that mode with negative roots only and
    no complex pair: a real-rooted polynomial with f = reverse f.
    """
    roots = draw(st.lists(st.fractions(-40, 40, max_denominator=12), max_size=5, unique=True))
    reciprocal = negative_palindromic or draw(st.booleans())
    if negative_palindromic:
        roots = list({-abs(r) for r in roots if r})
    if reciprocal:
        roots = list({s for r in roots if r for s in (r, 1 / r)})
    elif draw(st.booleans()) and 0 not in roots:
        roots.append(Fraction(0))
    f = [draw(st.sampled_from([1, -1, 2, -3, 5]))]
    for r in roots:
        if reciprocal and abs(r) < 1:  # taken with 1/r
            continue
        for _ in range(draw(st.integers(1, 3))):
            f = poly_mul(f, [r.denominator, -r.numerator])
            if reciprocal and abs(r) > 1:
                f = poly_mul(f, [r.numerator, -r.denominator])
    for _ in range(draw(st.integers(0, 0 if negative_palindromic else 2))):
        b = draw(st.integers(-1, 1) if reciprocal else st.integers(-5, 5))
        c = 1 if reciprocal else draw(st.integers(b * b // 4 + 1, b * b // 4 + 20))
        f = poly_mul(f, [1, b, c])
    if len(f) == 1:
        f, roots = poly_mul(f, [1, 1]), [Fraction(-1)]
    return f, sorted(roots)


@st.composite
def isolating_intervals(draw):
    """A squarefree integer polynomial and an interval isolating one root.

    The polynomial has known rational roots, or is a product of
    irreducible x^2 - c with irrational roots.  Half the time the
    isolating interval is cut j/7 of the way across, at a point off
    every dyadic grid, and the part holding the root is kept.
    """
    if draw(st.booleans()):
        f, _ = draw(polynomials_with_known_roots())
    else:
        cs = st.integers(2, 400).filter(lambda c: math.isqrt(c) ** 2 != c)
        f = [draw(st.sampled_from([1, -1, 3]))]
        for c in draw(st.lists(cs, min_size=1, max_size=3, unique=True)):
            f = poly_mul(f, [1, 0, -c])
    sqf, intervals = spectra._isolate(f)
    assume(intervals)
    lo, hi = draw(st.sampled_from(intervals))
    if lo < hi and draw(st.booleans()):
        q = lo + (hi - lo) * Fraction(draw(st.integers(1, 6)), 7)
        # The sign just right of lo: f's own, or f''s at a neighbour root.
        right_of_lo = (spectra._sign_at(sqf, lo)
                       or spectra._sign_at(spectra._derivative(sqf), lo))
        sign = spectra._sign_at(sqf, q)
        if sign == 0:
            lo = hi = q
        elif sign == right_of_lo:
            lo = q
        else:
            hi = q
    return sqf, lo, hi


@st.composite
def grid_ended_intervals(draw):
    """A real-rooted integer polynomial, a prec and an interval (lo, hi)
    holding one simple root of it, each end a neighbouring root (deflated by
    the refinement), a point of the 2^-prec grid or a point off it.

    The roots are distinct rationals, some dyadic, so that the target root
    too may lie on the grid; every other root has multiplicity 1 or 2.
    """
    prec = draw(st.integers(8, 160))
    dyadic = st.builds(lambda k, j: Fraction(k, 2**j), st.integers(-300, 300), st.integers(0, 10))
    rational = st.one_of(dyadic, st.fractions(-40, 40, max_denominator=12))
    roots = sorted(draw(st.lists(rational, min_size=1, max_size=5, unique=True)))
    i = draw(st.integers(0, len(roots) - 1))
    f = [draw(st.sampled_from([1, -1, 3]))]
    for j, r in enumerate(roots):
        for _ in range(1 if j == i else draw(st.integers(1, 2))):
            f = poly_mul(f, [r.denominator, -r.numerator])
    r = roots[i]

    def end(neighbour, side):
        kind = draw(st.sampled_from(["root", "grid", "off"]))
        if neighbour is None:  # no root beyond: the end is in (r - 8, r) or (r, r + 8)
            neighbour = r + side * draw(st.integers(1, 8))
        elif kind == "root":
            return neighbour
        below, above = sorted((neighbour * 2**prec, r * 2**prec))
        ks = range(math.floor(below) + 1, math.ceil(above))
        if kind == "grid" and ks:
            return Fraction(draw(st.integers(ks.start, ks.stop - 1)), 2**prec)
        return neighbour + (r - neighbour) * Fraction(draw(st.integers(1, 6)), 7)

    lo = end(roots[i - 1] if i else None, -1)
    hi = end(roots[i + 1] if i + 1 < len(roots) else None, 1)
    return f, lo, hi, prec


class TestIsolationAgainstSympy:
    """The integer isolation and squarefree routines against sympy's."""

    @given(polynomials_with_known_roots(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_isolate(self, poly, nonpositive):
        f, roots = poly
        if nonpositive:
            roots = [r for r in roots if r <= 0]
        sqf, intervals = spectra._isolate(f, nonpositive)
        oracle_sqf = dup_sqf_part([ZZ(c) for c in f], ZZ)
        assert sqf == [int(c) for c in oracle_sqf]
        oracle = dup_isolate_real_roots_sqf(
            oracle_sqf, ZZ, sup=0 if nonpositive else None, fast=True
        )
        assert len(intervals) == len(oracle) == len(roots)
        for (_, b), (a, _) in zip(intervals, intervals[1:]):
            assert b <= a  # left to right, open parts disjoint
        for (a, b), r in zip(intervals, roots):
            assert a <= b
            assert [s for s in roots if a <= s <= b and (a == b or a < s < b)] == [r]

    @given(polynomials_with_known_roots())
    @settings(max_examples=100, deadline=None)
    def test_squarefree_decomposition(self, poly):
        # The primitive squarefree part is the product of sympy's squarefree
        # factors, whatever their multiplicities.
        f, _ = poly
        _, oracle = dup_sqf_list([ZZ(c) for c in f], ZZ)
        expected = [1]
        for g, _ in oracle:
            expected = poly_mul(expected, [int(c) for c in g])
        assert spectra._squarefree(f) == spectra._primitive(expected)

    def test_modular_fast_path_falls_back_on_repeated_roots(self):
        # -2 (x - 1)^2 (x + 2) is not squarefree mod any prime: the gcd over
        # Z takes the repeated factor out.
        assert spectra._squarefree([-2, 0, 6, -4]) == [1, 1, -2]

    @pytest.mark.parametrize("n", [24, 40, 64])
    def test_eulerian_roots_past_the_cli_cap(self, n):
        p = univariate_eulerian(n)
        desc = [int(c) for c in reversed(p.coeffs)]
        sqf, intervals = spectra._isolate(desc)
        assert sqf == desc and len(intervals) == n  # squarefree, all real
        assert len(dup_isolate_real_roots_sqf([ZZ(c) for c in desc], ZZ, fast=True)) == n
        left, right = extreme_roots(p, 128)  # runs the sign-change self-check
        assert left.hi < intervals[1][0] and right.lo > intervals[-2][1]
        assert spectra._sign_at(desc, left.lo) * spectra._sign_at(desc, left.hi) < 0
        assert spectra._sign_at(desc, right.lo) * spectra._sign_at(desc, right.hi) < 0
        assert abs((left * right).midpoint - 1) < Fraction(1, 2**64)


class TestDyadicRefinement:
    """_refine_root returns the dyadic cell of its root at each precision."""

    @given(polynomials_with_known_roots(), st.integers(8, 96))
    @settings(max_examples=150, deadline=None)
    def test_refine_root_returns_the_dyadic_cell(self, poly, prec):
        # k = ceil(r 2^p) - 1 names the cell (k, k+1] / 2^p holding r; the
        # enclosure is that cell clipped to the isolating interval, so it
        # nests in the cell at p - 1.  A root on the grid is a point with
        # ``exact`` and the hi end of its cell without; an isolated exact
        # root (lo == hi) keeps a lo below it without ``exact``.
        f, roots = poly
        sqf, intervals = spectra._isolate(f)
        for (lo, hi), r in zip(intervals, roots):
            cells = []
            for p in (prec - 1, prec):
                k = math.ceil(r * 2**p) - 1
                cell = spectra._refine_root(sqf, lo, hi, p, exact=False)
                if lo == hi:
                    assert cell == AlgebraicBound(Fraction(k, 2**p), r)
                else:
                    assert cell == AlgebraicBound(
                        max(lo, Fraction(k, 2**p)), min(hi, Fraction(k + 1, 2**p))
                    )
                cells.append(cell)
            assert encloses(cells[0], cells[1])
            on_grid = lo == hi or (r * 2**prec).denominator == 1
            point = spectra._refine_root(sqf, lo, hi, prec, exact=True)
            assert point == (AlgebraicBound.exact(r) if on_grid else cells[1])
            if on_grid:
                assert cells[1].hi == r

    @pytest.mark.parametrize("lo, hi", [(0, 1), (-3, -2), (-1, -1 + Fraction(1, 3))])
    def test_interval_without_a_sign_change_is_refused(self, lo, hi):
        # x + 1 keeps one sign on (0, 1) and on (-3, -2); on (-1, -2/3) the
        # root at lo is deflated, which leaves no sign change either.
        with pytest.raises(ValueError, match="interval endpoints do not bracket a sign change"):
            spectra._refine_root([1, 1], Fraction(lo), Fraction(hi), 16)

    def test_refine_root_clips_the_cell_to_the_interval(self):
        # The root 1/3 lies in the cell (85, 86] / 2^8, which starts left of lo.
        lo = Fraction(1, 3) - Fraction(1, 1000)
        cell = spectra._refine_root([3, -1], lo, Fraction(1, 2), 8)
        assert cell == AlgebraicBound(lo, Fraction(86, 256))

    @given(isolating_intervals(), st.integers(8, 512), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_refine_root_matches_the_bisection_oracle(self, case, prec, exact):
        sqf, lo, hi = case
        assert spectra._refine_root(sqf, lo, hi, prec, exact) == bisection_refine_root(
            sqf, lo, hi, prec, exact
        )

    @pytest.mark.parametrize("n", [20, 32])
    def test_eulerian_extreme_roots_match_the_oracle_at_prec_1024(self, n):
        desc = [int(c) for c in reversed(univariate_eulerian(n).coeffs)]
        sqf, intervals = spectra._isolate(desc)
        for lo, hi in (intervals[0], intervals[-1]):
            assert spectra._refine_root(sqf, lo, hi, 1024) == bisection_refine_root(
                sqf, lo, hi, 1024
            )

    @given(grid_ended_intervals(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_grid_end_signs_match_the_bisection_oracle(self, case, exact):
        # The end signs are read on the polynomial scaled by 2^prec, at grid
        # integers or off the grid, and a neighbouring root at an end is
        # deflated there; the oracle deflates and signs the unscaled one.
        f, lo, hi, prec = case
        assert spectra._refine_root(f, lo, hi, prec, exact) == bisection_refine_root(
            f, lo, hi, prec, exact
        )

    def test_refinement_converges_quadratically(self, monkeypatch):
        # Both extreme roots of A_20 at prec 1024 take about 70 exact
        # evaluations, deflation tests and self-checks included; one bit per
        # step would take more than 2000.
        calls = []
        real = spectra._value
        monkeypatch.setattr(spectra, "_value", lambda *a: calls.append(1) or real(*a))
        left, right = extreme_roots(univariate_eulerian(20), 1024)
        assert width(left) <= Fraction(1, 2**1024) and width(right) <= Fraction(1, 2**1024)
        assert len(calls) <= 140

    @pytest.mark.parametrize("prec, most", [(128, 32), (1024, 38)])
    def test_wide_interval_starts_fast(self, monkeypatch, prec, most):
        # The leftmost root of A_20 (about -2.09e6) lies alone in
        # (-4198852, -4548), where the secant sticks to the steep right end.
        # A midpoint probe after each miss that leaves the step factor at 4
        # takes 31 and 37 exact evaluations (deflation tests included);
        # secant steps alone took 34 and 40.
        desc = [int(c) for c in reversed(univariate_eulerian(20).coeffs)]
        lo, hi = Fraction(-4198852), Fraction(-4548)
        # sympy counts one root in [lo, hi] and none left of lo: the leftmost.
        zz = [ZZ(c) for c in desc]
        assert dup_count_real_roots(zz, ZZ, inf=QQ(lo), sup=QQ(hi)) == 1
        assert dup_count_real_roots(zz, ZZ, sup=QQ(lo)) == 0
        calls = []
        real = spectra._value
        monkeypatch.setattr(spectra, "_value", lambda *a: calls.append(1) or real(*a))
        cell = spectra._refine_root(desc, lo, hi, prec)
        assert len(calls) <= most
        assert cell == bisection_refine_root(desc, lo, hi, prec)


@st.composite
def reciprocal_products(draw) -> list[int]:
    """A palindromic integer polynomial (descending) with every root
    negative: the product of (x + a)(a x + 1) over distinct rationals
    a > 1, sometimes times x + 1.  Some a are dyadic or reciprocals of
    dyadics, so that -a or -1/a falls on the 2^-prec grid."""
    dyadic = st.builds(lambda k, j: Fraction(k, 2**j), st.integers(1, 200), st.integers(0, 6))
    a = st.one_of(dyadic, st.fractions(1, 60, max_denominator=12))
    f = [1, 1] if draw(st.booleans()) else [1]
    for r in {max(r, 1 / r) for r in draw(st.lists(a, min_size=1, max_size=5))} - {1}:
        f = poly_mul(f, poly_mul([r.denominator, r.numerator], [r.numerator, r.denominator]))
    return f if len(f) > 2 else poly_mul(f, [2, 5, 2])


class TestHalfDegreeRoute:
    """Extremes from one Descartes count, against the isolation of every root."""

    @pytest.mark.parametrize("n", [4, 9, 16, 32])
    def test_eulerian_input_takes_one_count(self, monkeypatch, n):
        # One count isolates the rightmost root, and A_n, a palindrome, needs
        # no second one; neither the squarefree part nor the bisection
        # isolating every root runs.
        calls = {"_rightmost_interval": [], "_squarefree": [], "_positive_roots": []}
        for name, seen in calls.items():
            real = getattr(spectra, name)
            monkeypatch.setattr(spectra, name, lambda f, real=real, seen=seen: seen.append(real(f)) or seen[-1])
        extreme_roots(univariate_eulerian(n), 128)
        assert len(calls["_rightmost_interval"]) == 1 and calls["_rightmost_interval"][0]
        assert calls["_squarefree"] == calls["_positive_roots"] == []

    @pytest.mark.parametrize("f", [
        [1, 0, 0, 0, 1],  # x^4 + 1: f(-x) has no sign variation, so no root is real
        [1, 1, 8],  # x^2 + x + 8: the first bracket (-16, -4) lies below floor = -2
    ])
    def test_no_real_root_to_search_takes_no_count(self, monkeypatch, f):
        # Kioustelidis' bound for f(-x) puts every real root of f above floor,
        # and b only moves left: neither input is given a Taylor shift.
        shifts = []
        monkeypatch.setattr(spectra, "_shift1", lambda g, real=spectra._shift1: shifts.append(g) or real(g))
        assert spectra._rightmost_interval(f) is None and shifts == []

    def test_repeated_rightmost_root_stops_at_a_narrow_bracket(self, monkeypatch):
        # A repeated rightmost root never counts 1: the counts bisect towards
        # it until (a, b) is narrower than |b| 2^-32, 33 counts from the first.
        a20 = [int(c) for c in univariate_eulerian(20).coeffs]
        shifts = []
        monkeypatch.setattr(spectra, "_shift1", lambda g, real=spectra._shift1: shifts.append(g) or real(g))
        for f in ([1, 3, 4, 3, 1], poly_mul(a20, a20)):  # (x^2 + x + 1)(x + 1)^2 and A_20^2
            shifts.clear()
            assert spectra._rightmost_interval(f) is None and len(shifts) == 33

    @pytest.mark.parametrize("prec", [16, 128])
    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_non_squarefree_palindromic_input_falls_back(self, monkeypatch, n, prec):
        # A_n^2 and (x + 1)^2 A_n are palindromic but not squarefree, and
        # share the enclosures of their squarefree part.  A_n^2 repeats its
        # rightmost root, so its count fails and the fallback takes the
        # input's squarefree part; (x + 1)^2 A_n keeps its extreme
        # roots simple and passes the count on the input itself.
        a = [int(c) for c in reversed(univariate_eulerian(n).coeffs)]
        sqf_x1 = a if n % 2 else poly_mul([1, 1], a)  # A_n(-1) = 0 for odd n
        for squared, f, sqf in ((True, poly_mul(a, a), a), (False, poly_mul([1, 2, 1], a), sqf_x1)):
            assert f == f[::-1]
            seen = []
            real = spectra._squarefree
            monkeypatch.setattr(spectra, "_squarefree", lambda g: seen.append(g) or real(g))
            cells = extreme_roots(polynomialize(f[::-1]), prec)
            monkeypatch.undo()
            assert (f in seen) == squared  # the fallback took the input's squarefree part
            assert cells == extreme_roots(polynomialize(sqf[::-1]), prec)

    @given(st.lists(st.fractions(Fraction(1, 16), 50, max_denominator=16), min_size=1, max_size=6))
    @example([Fraction(1), Fraction(3), Fraction(12)])
    @example([Fraction(1), Fraction(3), Fraction(10)])  # the rightmost root at a: a point
    @example([Fraction(1), Fraction(1, 2)])  # the first a, -1, is the other root: bisected past
    @settings(max_examples=200, deadline=None)
    def test_count_isolates_the_rightmost_root_alone(self, rs):
        # For f = prod (x + r), r > 0, the interval the count gives holds
        # exactly one of f's roots, as _isolate counts them, and it is the
        # rightmost, -min(rs); a point interval is that root.  Only a
        # repeated rightmost root leaves the count without an interval.
        f = [1]
        for r in rs:
            f = poly_mul(f, [r.denominator, r.numerator])
        ends = spectra._rightmost_interval(f)
        if ends is None:
            assert rs.count(min(rs)) > 1
            return
        a, b = ends
        roots = sorted({-r for r in rs})
        assert len(spectra._isolate(f)[1]) == len(roots)
        assert [r for r in roots if a <= r <= b] == [roots[-1]] and b < 0

    @given(st.one_of(
        polynomials_with_known_roots(negative_palindromic=True).map(lambda case: case[0][::-1]),
        st.integers(2, 64).map(lambda n: univariate_eulerian(n).coeffs),
    ), st.integers(8, 160))
    @example([69960, 4630337, 76754930, 4630337, 69960], 8)  # a cell clipped to a neighbour root
    @settings(max_examples=120, deadline=None)
    def test_half_degree_route_matches_the_isolate_route(self, coeffs, prec):
        assert_extremes_match_the_isolate_route(polynomialize(coeffs), prec)

    @given(reciprocal_products(), st.integers(8, 160))
    @example([2, 5, 2], 16)  # (2x + 1)(x + 2): both extreme roots on the grid
    @example([24, 73, 24], 16)  # (3x + 8)(8x + 3): only the rightmost, -3/8
    @example([6, 19, 19, 6], 16)  # (x + 1)(2x + 3)(3x + 2): only the leftmost, -3/2
    @settings(max_examples=150, deadline=None)
    def test_reciprocal_start_matches_the_isolate_route(self, desc, prec):
        assert_extremes_match_the_isolate_route(polynomialize(desc[::-1]), prec)
