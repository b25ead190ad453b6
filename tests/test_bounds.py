"""Linearized bounds: vectors, quadratics, optimal y, and diagnostics."""

from fractions import Fraction

import pytest

from eulerian_bounds import bounds as bounds_mod
from eulerian_bounds.bounds import (
    GuessVector,
    QuadraticInY,
    bound_report,
    eulerian_guess_quadratics,
    guess_vector,
    linearized_DN,
    optimal_y,
    optimize_y_numeric,
    paper_y,
    ratio_diagnostic,
    univariate_bound,
    univariate_pencil_endpoint,
)
from eulerian_bounds.enclosure import AlgebraicBound, sqrt_enclosure
from eulerian_bounds.pencil import (
    DiagonalPencil,
    SymmetricRationalMatrix,
    eulerian_diagonal_pencil,
)

from closed_forms import closed_form_DN

SAMPLED_Y = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]


def overlaps(a, b) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


class TestGuessVector:
    def test_old_n4(self):
        v = guess_vector("old", 4)
        assert v.symbolic
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
        with pytest.raises(ValueError, match="even n"):
            guess_vector("new", 7)

    def test_concrete_y(self):
        v = guess_vector("old", 3, y=Fraction(2, 3))
        assert not v.symbolic
        assert v.with_y(99)[0] == Fraction(2, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            GuessVector(kind="old", n=3, entries=(None, Fraction(1)))
        with pytest.raises(ValueError, match="first entry"):
            GuessVector(kind="custom", n=1, entries=(Fraction(1), None))


class TestLinearizedDN:
    def test_concrete_identity_pencil(self):
        dp = DiagonalPencil(
            a0=SymmetricRationalMatrix.from_rows([[1, 0], [0, 1]]),
            a_sum=SymmetricRationalMatrix.from_rows([[1, 0], [0, 1]]),
        )
        v = GuessVector(kind="custom", n=1, entries=(Fraction(1), Fraction(0)))
        d, nq = linearized_DN(dp, v)
        assert (d.c2, d.c1, d.c0) == (0, 0, 1)
        assert nq.c0 == 1

    def test_n1_all_ones_vector(self):
        v = GuessVector(kind="custom", n=1, entries=(Fraction(1), Fraction(1)))
        d, nq = linearized_DN(eulerian_diagonal_pencil(1), v)
        assert d.c0 == 4 and nq.c0 == 4
        assert -d.c0 / nq.c0 == -1

    def test_symbolic_coefficients(self):
        d, nq = eulerian_guess_quadratics(2, "old")
        assert (d.c2, d.c1, d.c0) == (2, -4, 6)
        assert (nq.c2, nq.c1, nq.c0) == (4, -16, 20)

    def test_length_mismatch(self):
        v = guess_vector("old", 3)
        with pytest.raises(ValueError, match="length"):
            linearized_DN(eulerian_diagonal_pencil(2), v)


class TestClosedFormAgreement:
    def test_printed_old_d_instance(self):
        d, _ = closed_form_DN("old", 4, 0)
        assert d == 488

    def test_new_m2_cross_check(self):
        d_closed, n_closed = closed_form_DN("new", 4, 0)
        dq, nq = eulerian_guess_quadratics(4, "new")
        assert d_closed == dq(0)
        assert n_closed == nq(0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_old_agreement_probe(self, n):
        dq, nq = eulerian_guess_quadratics(n, "old")
        for y in SAMPLED_Y:
            d_closed, n_closed = closed_form_DN("old", n, y)
            assert d_closed == dq(y), (n, y)
            assert n_closed == nq(y), (n, y)

    @pytest.mark.parametrize("n", range(4, 13, 2))
    def test_new_agreement_probe(self, n):
        dq, nq = eulerian_guess_quadratics(n, "new")
        for y in SAMPLED_Y:
            d_closed, n_closed = closed_form_DN("new", n, y)
            assert d_closed == dq(y), (n, y)
            assert n_closed == nq(y), (n, y)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            closed_form_DN("other", 4, 0)
        with pytest.raises(ValueError, match="even"):
            closed_form_DN("new", 5, 0)


class TestOptimalY:
    def test_old_n2_is_one_minus_sqrt_two(self):
        y = paper_y(2, "old", 128)
        target = 1 - sqrt_enclosure(2, 140)
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
            y = optimal_y("old", n, dq, nq, 128)
            a = nq.c2 * dq.c1 - nq.c1 * dq.c2
            b = 2 * (nq.c2 * dq.c0 - nq.c0 * dq.c2)
            c = nq.c1 * dq.c0 - nq.c0 * dq.c1
            crit = a * (y * y) + b * y + AlgebraicBound.exact(c)
            assert crit.contains(0)

    def test_cubic_terms_cancel_symbolically(self):
        # The y^3 coefficient of N'D - ND' is 2 n2 d2 - 2 d2 n2 = 0 for
        # every quadratic pair, so the critical equation is a quadratic.
        dq, nq = eulerian_guess_quadratics(7, "old")
        assert 2 * nq.c2 * dq.c2 - 2 * dq.c2 * nq.c2 == 0

    def test_degenerate_n1(self):
        dq, nq = eulerian_guess_quadratics(1, "old")
        with pytest.raises(ZeroDivisionError, match="degenerate"):
            optimal_y("old", 1, dq, nq, 64)

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


class TestUnivariateBound:
    def test_n1_degenerate_pencil(self):
        assert univariate_bound(1, 96).contains(1)
        assert univariate_pencil_endpoint(1, 96).contains(-1)

    def test_endpoint_enclosure_must_not_be_psd_at_lo(self, monkeypatch):
        # Halving the negative enclosure moves it right, into the PSD
        # interval: PSD at hi still holds, so only the lo test catches it.
        real = bounds_mod.quadratic_root_enclosure
        monkeypatch.setattr(
            bounds_mod, "quadratic_root_enclosure", lambda *a: real(*a) * Fraction(1, 2)
        )
        with pytest.raises(ArithmeticError, match="PSD at lo"):
            univariate_pencil_endpoint(4, 64)

    def test_n2_exact_radical(self):
        un = univariate_bound(2, 128)
        s3 = sqrt_enclosure(3, 150)
        assert overlaps(un, 2 + s3)
        assert overlaps(univariate_pencil_endpoint(2, 128), s3 - 2)

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
        assert r.lin_bound.possibly_leq(r.x_min)
        assert r.x_min.possibly_leq(r.q_right)
        assert r.q_right.is_certainly_negative()
        assert overlaps(r.mult, 2 + sqrt_enclosure(2, 140))

    def test_n10_new_positivity(self):
        r = bound_report(10, "new", prec=128, with_endpoint=False, with_roots=False)
        assert r.d_value.is_certainly_positive()
        assert r.n_value.is_certainly_positive()
        assert r.x_min is None and r.q_left is None

    def test_new_beats_old_at_large_even_n(self):
        for n in (10, 12, 14, 16, 18, 20):
            old = bound_report(n, "old", prec=128, with_endpoint=False, with_roots=False)
            new = bound_report(n, "new", prec=128, with_endpoint=False, with_roots=False)
            assert old.difference.is_certainly_positive()
            assert (new.difference - old.difference).is_certainly_positive()

    def test_given_y_policy(self):
        r = bound_report(4, "old", y_policy="given", given_y=Fraction(1, 2), prec=64,
                         with_endpoint=False, with_roots=False)
        dq, nq = eulerian_guess_quadratics(4, "old")
        assert r.d_value.contains(dq(Fraction(1, 2)))
        assert r.n_value.contains(nq(Fraction(1, 2)))

    def test_numeric_optimal_y_is_guarded_once(self):
        # Both policies enclose the same old-family y at the same width.
        for n in range(2, 13):
            lite = dict(prec=64, with_endpoint=False, with_roots=False)
            optimal = bound_report(n, "old", "numeric-optimal", **lite)
            assert optimal.y == bound_report(n, "old", "paper", **lite).y, n

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="given_y"):
            bound_report(4, "old", y_policy="given")
        with pytest.raises(ValueError, match="even"):
            bound_report(5, "new")
        with pytest.raises(ValueError, match="kind"):
            bound_report(4, "weird")


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

    def test_plain_values_are_indexed(self):
        diag = ratio_diagnostic([1.0, 2.0, 4.0, 8.0], 2.0)
        assert diag.entries[0] == (0, 1.0)
        assert [i for i, _ in diag.ratios] == [1, 2, 3]

    def test_sign_change_flagged(self):
        diag = ratio_diagnostic([1.0, 2.0, 4.0, -1.0, -2.0], 2.0)
        assert diag.flagged
        # The ratio across the sign change is not reported.
        assert all(i != 3 for i, _ in diag.ratios)

    def test_zero_entries_break_runs(self):
        diag = ratio_diagnostic([1.0, 2.0, 4.0, 0.0, 8.0], 2.0)
        assert diag.flagged

    def test_too_short(self):
        with pytest.raises(ValueError):
            ratio_diagnostic([1.0, 2.0], 2.0)
        with pytest.raises(ValueError, match="same-sign"):
            ratio_diagnostic([1.0, -1.0, 1.0, -1.0], 2.0)
