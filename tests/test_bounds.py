"""Linearized bounds: vectors, quadratics, optimal y, and diagnostics."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerian_bounds import bounds as bounds_mod
from eulerian_bounds import spectra
from eulerian_bounds.bounds import (
    BoundReport,
    GuessVector,
    QuadraticInY,
    bound_report,
    bound_reports,
    eulerian_guess_quadratics,
    guess_vector,
    optimize_y_numeric,
    paper_y,
    ratio_diagnostic,
    univariate_bound,
)
from eulerian_bounds.enclosure import AlgebraicBound
from eulerian_bounds.eulerian import univariate_eulerian
from eulerian_bounds.pencil import (
    DiagonalPencil,
    SymmetricRationalMatrix,
    eulerian_diagonal_pencil,
)
from eulerian_bounds.spectra import extreme_roots, psd_interval_left

from closed_forms import closed_form_DN
from fraction_elimination import fraction_quadratic_form
from intervals import (
    contains,
    dyadic_intervals,
    encloses,
    is_certainly_negative,
    possibly_leq,
    rsub,
    width,
)
from polynomials import quadratic_at
from summed_pencil import linearized_DN, univariate_diagonal, univariate_un
from surds import quadratic_root_enclosure, sqrt_enclosure

SAMPLED_Y = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]


def overlaps(a, b) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


def spy(monkeypatch, name: str) -> list:
    """The argument tuples of every call to ``bounds.<name>`` in this test."""
    calls, real = [], getattr(bounds_mod, name)
    monkeypatch.setattr(bounds_mod, name, lambda *a: calls.append(a) or real(*a))
    return calls


class TestGuessVector:
    def test_old_n4(self):
        v = guess_vector("old", 4)
        assert v.entries[0] is None
        assert v.entries[1:] == (Fraction(1),) + (Fraction(-1),) * 3

    def test_new_m5(self):
        v = guess_vector("new", 10)
        expect = (
            Fraction(-4),
            Fraction(-2),
            Fraction(-1),
            Fraction(0),
            Fraction(1, 2),
        ) + (Fraction(1),) * 5
        assert v.entries[1:] == expect

    def test_new_m2_empty_head(self):
        v = guess_vector("new", 4)
        assert v.entries[1:] == (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1))

    def test_new_odd_rejected(self):
        with pytest.raises(ValueError, match="new vector defined for even n >= 4"):
            guess_vector("new", 7)

    def test_old_needs_n_at_least_1(self):
        with pytest.raises(ValueError, match="old vector needs n >= 1"):
            guess_vector("old", 0)
        with pytest.raises(ValueError, match="unknown vector kind 'x'"):
            guess_vector("x", 4)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"vector length must be n \+ 1"):
            GuessVector(kind="old", n=3, entries=(None, Fraction(1)))
        with pytest.raises(ValueError, match=r"the first entry, and only it, must be the free y \(None\)"):
            GuessVector(kind="custom", n=1, entries=(Fraction(1), None))
        with pytest.raises(ValueError, match="the first entry, and only it"):
            GuessVector(kind="custom", n=1, entries=(Fraction(1), Fraction(1)))


class TestLinearizedDN:
    def test_concrete_identity_pencil(self):
        dp = DiagonalPencil(
            a0=SymmetricRationalMatrix(((1, 0), (0, 1))),
            a_sum=SymmetricRationalMatrix(((1, 0), (0, 1))),
        )
        v = GuessVector(kind="custom", n=1, entries=(None, Fraction(0)))
        d, nq = linearized_DN(dp, v)
        assert (d.c2, d.c1, d.c0) == (1, 0, 0)
        assert quadratic_at(d, 1) == 1
        assert quadratic_at(nq, 1) == 1

    def test_n1_all_ones_vector(self):
        d, nq = eulerian_guess_quadratics(1, "old")
        assert quadratic_at(d, 1) == 4 and quadratic_at(nq, 1) == 4
        assert -quadratic_at(d, 1) / quadratic_at(nq, 1) == -1
        assert d == nq  # N/D does not depend on y: bound_reports takes y = 0

    def test_symbolic_coefficients(self):
        d, nq = eulerian_guess_quadratics(2, "old")
        assert (d.c2, d.c1, d.c0) == (2, -4, 6)
        assert (nq.c2, nq.c1, nq.c0) == (4, -16, 20)

    def test_length_mismatch(self):
        v = guess_vector("old", 3)
        with pytest.raises(ValueError, match="vector length 4 does not match pencil size 3"):
            linearized_DN(eulerian_diagonal_pencil(2), v)

    # eulerian_guess_quadratics reads D and N off the closed-form entries in
    # O(n) running sums; the dense quadratic forms of the pencil are the oracle.

    @pytest.mark.parametrize("n", range(1, 65))
    def test_old_family_matches_the_dense_oracle(self, n):
        oracle = linearized_DN(eulerian_diagonal_pencil(n), guess_vector("old", n))
        assert eulerian_guess_quadratics(n, "old") == oracle

    @pytest.mark.parametrize("n", range(4, 65, 2))
    def test_new_family_matches_the_dense_oracle(self, n):
        oracle = linearized_DN(eulerian_diagonal_pencil(n), guess_vector("new", n))
        assert eulerian_guess_quadratics(n, "new") == oracle

    @given(st.integers(1, 24).flatmap(lambda n: st.lists(
        st.integers(-(10**12), 10**12) | st.fractions(-(2**40), 2**40, max_denominator=2**30),
        min_size=n, max_size=n)))
    @example([0])
    @example([Fraction(-1, 3), 0, Fraction(5, 7)])
    @settings(max_examples=150, deadline=None)
    def test_closed_form_sums_match_the_dense_oracle_for_any_tail(self, tail):
        n, tail = len(tail), tuple(Fraction(t) for t in tail)
        vector = GuessVector(kind="custom", n=n, entries=(None,) + tail)
        oracle = linearized_DN(eulerian_diagonal_pencil(n), vector)
        assert bounds_mod._eulerian_DN(tail) == oracle


# Coefficients of every sign, zero included: integers, rationals and dyadics.
COEFFICIENTS = (
    st.just(0)
    | st.integers(-(10**30), 10**30)
    | st.fractions(-(2**70), 2**70, max_denominator=2**64)
    | dyadic_intervals(st.just("point")).map(lambda b: b.lo)
)


def operator_at(q: QuadraticInY, y: AlgebraicBound) -> AlgebraicBound:
    """c2 [y]^2 + c1 [y] + c0 by the interval operators, a Fraction per step."""
    return q.c2 * (y * y) + q.c1 * y + AlgebraicBound.exact(q.c0)


class TestQuadraticAt:
    @given(COEFFICIENTS, COEFFICIENTS, COEFFICIENTS, dyadic_intervals())
    # Across 0, [y] [y] is [lo hi, max(lo^2, hi^2)], not the range of y^2.
    @example(1, -2, 1, AlgebraicBound(Fraction(-1), Fraction(1, 2)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_operator_extension(self, c2, c1, c0, y):
        q = QuadraticInY(c2, c1, c0)
        assert q.at(y) == operator_at(q, y)


class TestClosedFormAgreement:
    def test_printed_old_d_instance(self):
        d, _ = closed_form_DN("old", 4, 0)
        assert d == 488

    def test_new_m2_cross_check(self):
        d_closed, n_closed = closed_form_DN("new", 4, 0)
        dq, nq = eulerian_guess_quadratics(4, "new")
        assert d_closed == quadratic_at(dq, 0)
        assert n_closed == quadratic_at(nq, 0)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_old_agreement_probe(self, n):
        dq, nq = eulerian_guess_quadratics(n, "old")
        for y in SAMPLED_Y:
            d_closed, n_closed = closed_form_DN("old", n, y)
            assert d_closed == quadratic_at(dq, y), (n, y)
            assert n_closed == quadratic_at(nq, y), (n, y)

    @pytest.mark.parametrize("n", range(4, 65, 2))
    def test_new_agreement_probe(self, n):
        dq, nq = eulerian_guess_quadratics(n, "new")
        for y in SAMPLED_Y:
            d_closed, n_closed = closed_form_DN("new", n, y)
            assert d_closed == quadratic_at(dq, y), (n, y)
            assert n_closed == quadratic_at(nq, y), (n, y)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            closed_form_DN("other", 4, 0)
        with pytest.raises(ValueError, match="even"):
            closed_form_DN("new", 5, 0)


class TestOptimalY:
    def test_old_n2_is_one_minus_sqrt_two(self):
        y = paper_y(2, "old", 128)
        target = rsub(1, sqrt_enclosure(2, 140))
        assert overlaps(y, target)

    def test_new_is_opposite_of_old(self):
        for n in (4, 8, 12):
            y_old = paper_y(n, "old", 128)
            y_new = paper_y(n, "new", 128)
            assert overlaps(y_new, -y_old)

    def test_stationarity(self):
        # N'D - N D' evaluated over the returned enclosure straddles 0.
        for n in (3, 6, 9):
            dq, nq = eulerian_guess_quadratics(n, "old")
            y = paper_y(n, "old", 128)
            a = nq.c2 * dq.c1 - nq.c1 * dq.c2
            b = 2 * (nq.c2 * dq.c0 - nq.c0 * dq.c2)
            c = nq.c1 * dq.c0 - nq.c0 * dq.c1
            crit = a * (y * y) + b * y + AlgebraicBound.exact(c)
            assert contains(crit, 0)

    def test_cubic_terms_cancel_symbolically(self):
        # The y^3 coefficient of N'D - ND' is 2 n2 d2 - 2 d2 n2 = 0 for
        # every quadratic pair, so the critical equation is a quadratic.
        dq, nq = eulerian_guess_quadratics(7, "old")
        assert 2 * nq.c2 * dq.c2 - 2 * dq.c2 * nq.c2 == 0

    def test_degenerate_n1(self):
        with pytest.raises(ZeroDivisionError, match="degenerate"):
            paper_y(1, "old", 64)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_new_family_needs_even_n_at_least_4(self, n):
        # The new vector's y exists only where the vector does.
        with pytest.raises(ValueError, match="new vector defined for even n >= 4"):
            paper_y(n, "new", 64)

    # Each guard below refuses corrupt quadratics handed over in place of
    # the vector's D(y) and N(y), given as (D, N) coefficients (c2, c1, c0).

    @staticmethod
    def corrupt(monkeypatch, quads):
        monkeypatch.setattr(bounds_mod, "eulerian_guess_quadratics", lambda n, kind: quads)

    def test_critical_coefficients_computed_once_per_pair(self, monkeypatch):
        # The paper root of both kinds reads the old family's coefficients
        # once; the numeric optimum reads each kind's own once.
        calls = spy(monkeypatch, "_critical_coefficients")
        bound_reports(10, ("old", "new"), "paper", 64)
        assert calls == [(10, "old")]
        calls.clear()
        bound_reports(10, ("old", "new"), "numeric-optimal", 64)
        assert calls == [(10, "old"), (10, "new")]

    def test_negative_discriminant_is_refused(self, monkeypatch):
        # Interlacing roots (1, 3 against 0, 2) make the resultant of N and D,
        # a quarter of the discriminant of N'D - ND', negative.
        quads = QuadraticInY(1, -4, 3), QuadraticInY(1, -2, 0)
        self.corrupt(monkeypatch, quads)
        with pytest.raises(ArithmeticError, match="negative discriminant -12 for n=4 kind=old"):
            paper_y(4, "old", 64)

    def test_no_admissible_critical_point_is_refused(self, monkeypatch):
        # D and N are not both positive at either critical point.
        quads = QuadraticInY(1, -3, -1), QuadraticInY(1, 3, 1)
        self.corrupt(monkeypatch, quads)
        with pytest.raises(ArithmeticError, match="no admissible critical point for n=4 kind=old"):
            optimize_y_numeric(4, "old", 64)

    def test_supremum_at_infinity_is_refused(self, monkeypatch):
        # The admissible critical point's N/D stays below the limit N.c2/D.c2 = 1.
        quads = QuadraticInY(1, -3, -3), QuadraticInY(1, -1, -1)
        self.corrupt(monkeypatch, quads)
        with pytest.raises(ArithmeticError, match="ratio supremum escapes to infinity"):
            optimize_y_numeric(4, "old", 64)

    def test_growth_magnitude(self):
        # |y| tracks 3^(n+1) / (2^(n+1) n); the sign settles positive for
        # n >= 4 (the new family then takes the negative opposite).
        ratios = {}
        for n in (8, 12, 16):
            y = paper_y(n, "old", 96)
            target = Fraction(3 ** (n + 1), 2 ** (n + 1) * n)
            ratios[n] = abs(y.midpoint) / target
            assert y.midpoint > 0
        assert abs(ratios[16] - 1) < abs(ratios[8] - 1)
        assert abs(ratios[16] - 1) < Fraction(1, 10)


@st.composite
def integer_quadratics(draw) -> tuple[int, int, int]:
    """a y^2 + b y + c, a != 0, with real roots: any, a double root, or a
    perfect-square discriminant (rational roots p1/q1, p2/q2)."""
    shape = draw(st.sampled_from(["any", "double", "square"]))
    ints = st.integers(-10**6, 10**6)
    if shape == "any":
        a, b, c = draw(ints.filter(bool)), draw(ints), draw(ints)
        if b * b < 4 * a * c:
            c = -c
        return a, b, c
    s = draw(st.integers(-50, 50).filter(bool))
    q1, q2 = draw(st.integers(1, 10**3)), draw(st.integers(1, 10**3))
    p1 = draw(st.integers(-10**3, 10**3))
    q2, p2 = (q1, p1) if shape == "double" else (q2, draw(st.integers(-10**3, 10**3)))
    return s * q1 * q2, -s * (p1 * q2 + p2 * q1), s * p1 * p2


def critical_cells(a, b, c, prec: int, count: int = 2) -> list[AlgebraicBound]:
    """The first ``count`` roots of a y^2 + b y + c as the callers of
    ``_vertex_split`` take them: each isolating interval refined to its cell."""
    f, intervals = bounds_mod._vertex_split(a, b, c)
    return [spectra._refine_root(f, lo, hi, prec) for lo, hi in intervals[:count]]


class TestCriticalPoints:
    @settings(max_examples=200, deadline=None)
    @given(integer_quadratics(), st.integers(2, 200))
    def test_cells_match_the_surd_oracle(self, quadratic, prec):
        # First the root where the quadratic falls, the oracle's "-" branch,
        # then the other one: each a cell of width <= 2^-prec that nests in
        # its own cell at prec - 1.
        a, b, c = quadratic
        cells = critical_cells(a, b, c, prec)
        coarser = critical_cells(a, b, c, prec - 1)
        assert len(cells) == len(coarser) == (1 if b * b == 4 * a * c else 2)
        for cell, wider, branch in zip(cells, coarser, "-+"):
            assert overlaps(cell, quadratic_root_enclosure(a, b, c, branch, prec + 8))
            assert width(cell) <= Fraction(1, 2**prec)
            assert encloses(wider, cell)

    # The vertex split against the isolation route it replaced: _refine_root
    # on the Descartes bisection intervals of _isolate, in the same order.
    @settings(max_examples=200, deadline=None)
    @given(integer_quadratics().filter(lambda q: q[1] * q[1] > 4 * q[0] * q[2]),
           st.integers(16, 200), st.sampled_from([1, 2]))
    # Both roots in one 2^-16 cell: each route clips it at its own interval ends.
    @example((1000999, 2001, 1), 16, 2)
    @example((-1000999, -2001, -1), 24, 2)
    @example((3, -4, 1), 16, 2)  # the root 1 is a bisection midpoint: _isolate's point (1, 1)
    def test_vertex_split_matches_the_isolate_route(self, quadratic, prec, count):
        a, b, c = quadratic
        sqf, intervals = spectra._isolate([a, b, c])
        expect = [spectra._refine_root(sqf, lo, hi, prec)
                  for lo, hi in intervals[::1 if a > 0 else -1][:count]]
        cells = critical_cells(a, b, c, prec, count)
        assert len(cells) == len(expect) == count
        for cell, old in zip(cells, expect):
            if old.lo == old.hi or cell.lo == cell.hi:  # an exact rational root
                assert contains(cell, old.lo) and contains(old, cell.lo)
            elif cell != old:
                # The same dyadic cell [k, k+1] / 2^prec of the root, clipped
                # to an isolating interval whose end falls inside it.
                grid = [math.ceil(e.hi * 2**prec) - 1 for e in (cell, old)]
                assert grid[0] == grid[1]
                assert min(width(cell), width(old)) < Fraction(1, 2**prec)
                assert grid[0] <= cell.lo * 2**prec and cell.hi * 2**prec <= grid[0] + 1

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("a, b, c, root", [
        (4, -4, 1, Fraction(1, 2)),
        (-9, 6, -1, Fraction(1, 3)),  # not dyadic: _isolate gives (0, 2), a cell, not the point
        (Fraction(1, 4), 1, 1, Fraction(-2)),
    ])
    def test_double_root_is_the_exact_vertex(self, a, b, c, root, count):
        assert bounds_mod._vertex_split(a, b, c)[1] == [(root, root)]
        assert critical_cells(a, b, c, 64, count) == [AlgebraicBound.exact(root)]

    @pytest.mark.parametrize("n", range(2, 29))
    def test_paper_y_is_the_minus_branch(self, n):
        a, b, c = bounds_mod._critical_coefficients(n, "old")
        y = paper_y(n, "old", 96)
        assert overlaps(y, quadratic_root_enclosure(a, b, c, "-", 104))
        assert width(y) <= Fraction(1, 2**96)

    @pytest.mark.parametrize("n, kind", [(5, "old"), (8, "new")])
    def test_paper_y_refines_only_the_root_it_returns(self, monkeypatch, n, kind):
        cells = []
        real = spectra._refine_root
        monkeypatch.setattr(bounds_mod, "_refine_root",
                            lambda *a: cells.append(real(*a)) or cells[-1])
        y = paper_y(n, kind, 64)
        assert len(cells) == 1 and y in (cells[0], -cells[0])

    @pytest.mark.parametrize("policy", ["paper", "numeric-optimal"])
    def test_y_is_refined_by_the_one_primitive(self, monkeypatch, policy):
        assert bounds_mod._refine_root is spectra._refine_root
        cells = []
        real = spectra._refine_root
        monkeypatch.setattr(bounds_mod, "_refine_root",
                            lambda *a, **k: cells.append(real(*a, **k)) or cells[-1])
        for n, kind in ((5, "old"), (8, "new")):
            assert bound_report(n, kind, policy, prec=64).y in (cells + [-c for c in cells])


class TestUnivariateBound:
    def test_n1_degenerate_pencil(self):
        assert contains(univariate_bound(1, 96), 1)
        assert contains(psd_interval_left(univariate_diagonal(1), 96), -1)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_endpoint_is_the_larger_determinant_root(self, n):
        # The 2x2 determinant (L1 + x Lx)(Lx2 + x Lx3) - (Lx + x Lx2)^2 is
        # a quadratic whose larger root is the endpoint, enclosed as a surd
        # (at n = 1 it vanishes identically; see the test above).
        dp = univariate_diagonal(n)
        (l1, lx), (_, lx2) = dp.a0.entries
        lx3 = dp.a_sum.entries[1][1]
        c2, c1, c0 = lx * lx3 - lx2 * lx2, l1 * lx3 - lx * lx2, l1 * lx2 - lx * lx
        larger = quadratic_root_enclosure(c2, c1, c0, "+" if c2 > 0 else "-", 160)
        assert overlaps(psd_interval_left(dp, 128), larger)
        assert overlaps(univariate_bound(n, 128), (-larger).reciprocal())

    @pytest.mark.parametrize("prec", [16, 64, 128, 300])
    def test_matches_the_x_min_route(self, prec):
        # The same cell as psd_boundary on the molded 2x2 pencil, n = 1..64.
        for n in range(1, 65):
            assert univariate_bound(n, prec) == univariate_un(n, prec), n

    def test_split_at_the_vertex_without_a_count_search(self, monkeypatch):
        # un(n) takes the vertex split of the y's: no Descartes count search
        # and no isolation of every root, which the x_min route on the same
        # 2x2 pencil does reach.
        calls = []
        for name in ("_rightmost_interval", "_isolate"):
            real = getattr(spectra, name)
            monkeypatch.setattr(spectra, name,
                                lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
        assert not {"_rightmost_interval", "_isolate", "_strip"} & set(vars(bounds_mod))
        for n in range(1, 65):
            univariate_bound(n, 64)
        assert calls == []
        psd_interval_left(univariate_diagonal(5), 64)
        assert calls

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_1(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            univariate_bound(n)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_a_wrong_cell_fails_the_psd_tests(self, monkeypatch, side):
        # The cell next to the endpoint's, left (not PSD at either end) or
        # right (PSD at both), is refused.
        real = spectra._refine_root

        def neighbour(*args, **kwargs):
            cell = real(*args, **kwargs)
            step = side * (cell.hi - cell.lo)
            return AlgebraicBound(cell.lo + step, cell.hi + step)

        monkeypatch.setattr(bounds_mod, "_refine_root", neighbour)
        with pytest.raises(ArithmeticError, match=r"un\(5\) endpoint cell .* fails its PSD"):
            univariate_bound(5, 64)

    def test_n2_exact_radical(self):
        un = univariate_bound(2, 128)
        s3 = sqrt_enclosure(3, 150)
        assert overlaps(un, 2 + s3)
        assert overlaps(psd_interval_left(univariate_diagonal(2), 128), s3 - 2)

    def test_growth_normalization_stabilizes(self):
        norm = {
            n: float(univariate_bound(n, 96)) / 2 ** (n + 1) for n in range(10, 21)
        }
        r_early = norm[11] / norm[10]
        r_late = norm[20] / norm[19]
        assert abs(r_late - 1) < 0.01
        assert abs(r_late - 1) < abs(r_early - 1)


class TestBoundReport:
    def test_n2_old_chain(self):
        r = bound_report(2, "old", prec=128)
        x_min = psd_interval_left(eulerian_diagonal_pencil(2), 128)
        _, q_right = extreme_roots(univariate_eulerian(2), 128)
        assert possibly_leq(r.lin_bound, x_min)
        assert possibly_leq(x_min, q_right)
        assert is_certainly_negative(q_right)
        assert overlaps(r.mult, 2 + sqrt_enclosure(2, 140))

    def test_n10_new_positivity(self):
        r = bound_report(10, "new", prec=128)
        assert r.d_value.is_certainly_positive()
        assert r.n_value.is_certainly_positive()

    def test_new_beats_old_at_large_even_n(self):
        for n in (10, 12, 14, 16, 18, 20):
            old = bound_report(n, "old", prec=128)
            new = bound_report(n, "new", prec=128)
            assert old.difference.is_certainly_positive()
            assert (new.difference - old.difference).is_certainly_positive()

    def test_both_kinds_share_one_paper_root(self, monkeypatch):
        # The new family's y is the old one's cell negated, refined once.
        calls = spy(monkeypatch, "_critical_coefficients")
        old, new = (r.y for r in bound_reports(10, ("old", "new"), "paper", 64))
        assert new == -old and len(calls) == 1

    @pytest.mark.parametrize("prec", [16, 64, 128])
    @pytest.mark.parametrize("policy", ["paper", "numeric-optimal"])
    def test_reports_of_one_n_match_the_single_reports(self, policy, prec):
        for n in range(1, 15):
            kinds = ("old", "new") if n >= 4 and n % 2 == 0 else ("old",)
            expect = [bound_report(n, kind, policy, prec) for kind in kinds]
            assert bound_reports(n, kinds, policy, prec) == expect, n

    def test_only_the_guess_quadratics_are_memoized(self):
        # un(n) and the paper root are shared within one bound_reports call,
        # so no result keyed by prec outlives it.
        memoized = [name for name, obj in vars(bounds_mod).items()
                    if hasattr(obj, "cache_info") and obj.__module__ == bounds_mod.__name__]
        assert memoized == ["eulerian_guess_quadratics"]

    def test_numeric_optimal_y_is_guarded_once(self):
        # Both policies enclose the same old-family y at the same width.
        for n in range(2, 13):
            optimal = bound_report(n, "old", "numeric-optimal", prec=64)
            assert optimal.y == bound_report(n, "old", "paper", prec=64).y, n

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="unknown y policy 'given'"):
            bound_report(4, "old", y_policy="given")
        with pytest.raises(ValueError, match="even"):
            bound_report(5, "new")
        with pytest.raises(ValueError, match="unknown vector kind 'weird'"):
            bound_report(4, "weird")
        with pytest.raises(ValueError, match="unknown vector kind 'x'"):
            paper_y(4, "x")


def operator_report(r: BoundReport) -> BoundReport:
    """``r`` rebuilt on its own y and un(n) with Fraction and operator
    arithmetic: the guess quadratics by the Fraction double loop, D(y) and
    N(y) by ``operator_at``, and each quotient as the product with the
    divisor's reciprocal interval."""
    p, v = eulerian_diagonal_pencil(r.n), guess_vector(r.kind, r.n)
    tail = v.entries[1:]

    def value(m: SymmetricRationalMatrix) -> AlgebraicBound:
        corner, *row = m.entries[0]
        cross = sum((Fraction(a) * t for a, t in zip(row, tail)), Fraction(0))
        q = QuadraticInY(Fraction(corner), 2 * cross, fraction_quadratic_form(m, (0,) + tail))
        return operator_at(q, r.y)

    d, n = value(p.a0), value(p.a_sum)
    mult = n * d.reciprocal()
    return BoundReport(n=r.n, kind=r.kind, y_policy=r.y_policy, prec=r.prec, y=r.y,
                       d_value=d, n_value=n, lin_bound=-(d * n.reciprocal()), mult=mult,
                       un=r.un, difference=mult - r.un)


class TestIntegerReports:
    # Reports are computed on integers over one denominator per step; every
    # field must stay the exact enclosure of the operator arithmetic.
    @pytest.mark.parametrize("prec", (16, 128))
    @pytest.mark.parametrize("policy", ("paper", "numeric-optimal"))
    def test_every_field_matches_the_operator_arithmetic(self, policy, prec):
        for n in range(1, 25):
            for kind in ("old", "new") if n >= 4 and n % 2 == 0 else ("old",):
                r = bound_report(n, kind, policy, prec)
                rebuilt = operator_report(r)
                for field in BoundReport._fields:
                    assert getattr(r, field) == getattr(rebuilt, field), (n, kind, field)


class TestOptimizeY:
    def test_old_matches_lemma_branch(self):
        for n in (4, 9, 14):
            y_star, bound_star = optimize_y_numeric(n, "old", 192)
            y_paper = paper_y(n, "old", 192)
            assert abs(y_star.midpoint - y_paper.midpoint) <= Fraction(1, 2**100)
            dq, nq = eulerian_guess_quadratics(n, "old")
            paper_bound = nq.at(y_paper) / dq.at(y_paper)
            assert not bound_star.certainly_lt(paper_bound)

    def test_new_dominates_paper_choice(self):
        for n in (8, 10, 12):
            _, bound_star = optimize_y_numeric(n, "new", 192)
            y_paper = paper_y(n, "new", 192)
            dq, nq = eulerian_guess_quadratics(n, "new")
            paper_bound = nq.at(y_paper) / dq.at(y_paper)
            assert not bound_star.certainly_lt(paper_bound)
            assert (bound_star - paper_bound).hi > 0

    def test_degenerate(self):
        with pytest.raises(ZeroDivisionError):
            optimize_y_numeric(1, "old", 64)


class TestRatioDiagnostic:
    def test_exact_geometric(self):
        seq = [(k, 5 * 0.5**k) for k in range(3, 9)]
        diag = ratio_diagnostic(seq, 0.5, 5)
        assert all(r == pytest.approx(0.5) for _, r in diag.ratios)
        assert all(d == pytest.approx(0.0) for _, d in diag.relative_deviations)
        assert all(t == pytest.approx(1.0) for _, t in diag.normalization_track)
        assert not diag.flagged

    def test_sign_change_flagged(self):
        diag = ratio_diagnostic(enumerate([1.0, 2.0, 4.0, -1.0, -2.0]), 2.0, 1.0)
        assert diag.flagged
        # The ratio across the sign change is not reported.
        assert all(i != 3 for i, _ in diag.ratios)

    def test_zero_entries_break_runs(self):
        diag = ratio_diagnostic(enumerate([1.0, 2.0, 4.0, 0.0, 8.0]), 2.0, 1.0)
        assert diag.flagged

    def test_too_short(self):
        with pytest.raises(ValueError):
            ratio_diagnostic(enumerate([1.0, 2.0]), 2.0, 1.0)
        with pytest.raises(ValueError, match="same-sign"):
            ratio_diagnostic(enumerate([1.0, -1.0, 1.0, -1.0]), 2.0, 1.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(-5, 40),
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, math.inf, -math.inf])
                | st.floats(allow_nan=False),
            ),
            max_size=10,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_contract_on_random_sequences(self, seq):
        # The contract in a second form: windows of entries that are all
        # positive or all negative, and whole-sequence zero and sign tests.
        def same_sign(window):
            return all(v > 0 for v in window) or all(v < 0 for v in window)

        values = [v for _, v in seq]
        trend = [
            (seq[k + 1][0], values[k + 1] / values[k])
            for k in range(len(seq) - 1)
            if same_sign(values[k:k + 2])
        ]
        if not any(same_sign(values[k:k + 3]) for k in range(len(seq) - 2)):
            with pytest.raises(ValueError, match="need at least 3"):
                ratio_diagnostic(seq, 0.75, 0.5)
            return
        diag = ratio_diagnostic(seq, 0.75, 0.5)
        both_signs = any(v > 0 for v in values) and any(v < 0 for v in values)
        assert diag.flagged == (0 in values or both_signs)
        assert repr(diag.ratios) == repr(tuple(trend))


@pytest.mark.parametrize(
    "call, prec",
    [
        (lambda prec: extreme_roots(univariate_eulerian(6), prec), -1),
        (lambda prec: paper_y(4, "old", prec), -1),
        (lambda prec: bound_report(4, "old", prec=prec), -100),
        (lambda prec: univariate_bound(4, prec), -100),
        (lambda prec: optimize_y_numeric(4, "old", prec), -100),
        (lambda prec: bound_report(4, "old", prec=prec), -1),
        (lambda prec: bound_report(4, "old", "numeric-optimal", prec), -1),
        (lambda prec: univariate_bound(4, prec), -1),
        (lambda prec: optimize_y_numeric(4, "old", prec), -1),
        (lambda prec: univariate_bound(5, prec), -40),
    ],
    ids=["extreme_roots", "paper_y", "bound_report", "univariate_bound", "optimize_y_numeric",
         "bound_report-1", "bound_report_numeric-1", "univariate_bound-1",
         "optimize_y_numeric-1", "univariate_bound-40"],
)
def test_negative_prec_is_refused(call, prec):
    # Every cell comes from spectra._refine_root, which names prec in its
    # refusal instead of failing on a negative shift; univariate_bound and
    # optimize_y_numeric add guard bits first, so they refuse the caller's
    # prec themselves.
    with pytest.raises(ValueError, match=r"prec must be >= 0, got -\d+$") as refused:
        call(prec)
    assert str(refused.value) == f"prec must be >= 0, got {prec}"
