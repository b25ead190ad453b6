"""Exact combinatorics: recurrences, descent tops, and the counting routes."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_bounds.eulerian import (
    _descent_top_mask_counts,
    closed_form_R,
    count_exact_bruteforce,
    count_formula,
    univariate_eulerian,
)

from enumeration import (
    complement_count_by_subsets,
    descent_top_counts,
    descent_top_set,
    enumerated_descent_top_counts,
    is_permutation,
)
from polynomials import multivariate_eulerian, polynomialize


def descent_count_histogram(n: int) -> list[int]:
    # Independent oracle for Eulerian numbers: histogram the number of
    # descents over all permutations of [n+1].
    hist = [0] * (n + 1)
    for perm in itertools.permutations(range(1, n + 2)):
        descents = sum(1 for i in range(n) if perm[i] > perm[i + 1])
        hist[descents] += 1
    return hist


class TestPolynomialize:
    def test_pascal_row(self):
        p = polynomialize([1, 2, 1])
        assert p.coeffs == (Fraction(1), Fraction(2), Fraction(1))

    def test_constant(self):
        assert polynomialize([7]).coeffs == (Fraction(7),)
        assert polynomialize([7]).degree == 0

    def test_matches_eulerian_row(self):
        assert polynomialize([1, 4, 1]) == univariate_eulerian(2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            polynomialize([])


class TestUnivariateEulerian:
    def test_base(self):
        assert univariate_eulerian(0).coeffs == (Fraction(1),)

    def test_two_steps_by_hand(self):
        # A_1 = 2x A_0 + (1-x)(x A_0)' = x + 1
        # A_2 = 3x A_1 + (1-x)(x A_1)' = 3x(1+x) + (1-x)(1+2x) = 1+4x+x^2
        assert univariate_eulerian(1).coeffs == (Fraction(1), Fraction(1))
        assert univariate_eulerian(2).coeffs == (Fraction(1), Fraction(4), Fraction(1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_descent_histogram(self, n):
        assert [int(c) for c in univariate_eulerian(n).coeffs] == (
            descent_count_histogram(n)
        )

    def test_row_four(self):
        # Frozen from the descent histogram over S_5.
        assert [int(c) for c in univariate_eulerian(4).coeffs] == [1, 26, 66, 26, 1]

    @pytest.mark.parametrize("n", range(13))
    def test_palindromic_and_sum(self, n):
        p = univariate_eulerian(n)
        assert p.coeffs == p.coeffs[::-1]
        assert sum(p.coeffs) == math.factorial(n + 1)

    def test_deep_n_from_a_cold_cache(self):
        # A cold cache must not make the build recurse n levels deep.
        univariate_eulerian.cache_clear()
        p = univariate_eulerian(600)
        assert p.degree == 600
        assert p.coeffs == p.coeffs[::-1]
        assert sum(p.coeffs) == math.factorial(601)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            univariate_eulerian(-1)

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_any_order_of_n_gives_the_explicit_sum(self, ns):
        # A_n continues from the largest row built so far, whatever order the
        # n come in: each one, from a cold cache, is the explicit Eulerian sum
        # <n+1, k> = sum_j (-1)^j C(n+2, j) (k+1-j)^(n+1), in ints.
        for n in ns:
            univariate_eulerian.cache_clear()
            coeffs = univariate_eulerian(n).coeffs
            assert all(type(c) is int for c in coeffs)
            assert list(coeffs) == [
                sum((-1) ** j * math.comb(n + 2, j) * (k + 1 - j) ** (n + 1) for j in range(k + 1))
                for k in range(n + 1)
            ]


class TestMultivariateEulerian:
    def test_n1(self):
        p = multivariate_eulerian(1)
        assert p.coeffs == {0: 1, 1: 1}

    def test_n2_by_hand(self):
        # One recursion step: (x2+y2)(x1+y1) + 2 x2 y2, then y := 1.
        p = multivariate_eulerian(2)
        assert p.coefficient(()) == 1
        assert p.coefficient([1]) == 1
        assert p.coefficient([2]) == 3
        assert p.coefficient([1, 2]) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_diagonal_identity(self, n):
        assert multivariate_eulerian(n).diagonal() == univariate_eulerian(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_level_sums_are_eulerian_numbers(self, n):
        assert multivariate_eulerian(n).level_sums() == tuple(
            int(c) for c in univariate_eulerian(n).coeffs
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_singleton_calibration(self, n):
        p = multivariate_eulerian(n)
        for i in range(1, n + 1):
            assert p.coefficient([i]) == 2**i - 1

    def test_pair_coefficients_count_descent_top_pairs(self):
        for n in range(2, 9):
            p = multivariate_eulerian(n)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                # Variable k tags descent-top value k+1.
                assert p.coefficient([i, j]) == count_exact_bruteforce(
                    n, {i + 1, j + 1}
                )

    @pytest.mark.parametrize("n", range(3, 9))
    def test_triple_coefficients_count_descent_top_triples(self, n):
        p = multivariate_eulerian(n)
        for combo in itertools.combinations(range(1, n + 1), 3):
            assert p.coefficient(combo) == count_exact_bruteforce(
                n, {i + 1 for i in combo}
            ), combo

    def test_bad_variable_index(self):
        with pytest.raises(ValueError):
            multivariate_eulerian(2).coefficient([3])


class TestDescentTops:
    def test_identity_has_none(self):
        assert descent_top_set((1, 2, 3)) == frozenset()

    def test_reversal(self):
        assert descent_top_set((3, 2, 1)) == {2, 3}

    def test_single_descent(self):
        assert descent_top_set((2, 3, 1)) == {3}

    def test_not_a_permutation(self):
        assert not is_permutation((1, 1, 3))
        with pytest.raises(ValueError):
            descent_top_set((1, 1, 3))

    @given(st.permutations(list(range(1, 8))))
    def test_one_is_never_a_top(self, perm):
        assert 1 not in descent_top_set(tuple(perm))


class TestCounting:
    def test_empty_set_counts_identity(self):
        assert count_exact_bruteforce(2, ()) == 1

    def test_s3_instances(self):
        assert count_exact_bruteforce(2, {3}) == 3
        assert count_exact_bruteforce(2, {2, 3}) == 1

    def test_too_large(self):
        with pytest.raises(ValueError, match="enumeration too large"):
            count_exact_bruteforce(10, {3})

    def test_invalid_tops(self):
        with pytest.raises(ValueError, match=r"descent tops must lie in \{2, \.\.\., 3\}, got \(1,\)"):
            count_exact_bruteforce(2, {1})
        with pytest.raises(ValueError, match=r"descent tops must lie in \{2, \.\.\., 3\}, got \(5,\)"):
            count_formula(2, {5})

    @pytest.mark.parametrize("n", range(1, 9))
    def test_partition_identity(self, n):
        counts = descent_top_counts(n)
        assert sum(counts.values()) == math.factorial(n + 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_transfer_matches_enumeration(self, n):
        assert descent_top_counts(n) == enumerated_descent_top_counts(n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_transfer_level_sums_are_eulerian_numbers(self, n):
        # Beyond the enumeration range: a permutation has as many descent
        # tops as descents, so grouping the counts by |T| gives A_n.
        counts = _descent_top_mask_counts(n)
        levels = [0] * (n + 1)
        for mask, c in counts.items():
            assert mask & 0b11 == 0 and mask >> (n + 2) == 0
            levels[mask.bit_count()] += c
        assert levels == [int(c) for c in univariate_eulerian(n).coeffs]
        assert sum(counts.values()) == math.factorial(n + 1)

    @pytest.mark.parametrize("n", [10, 14])
    def test_transfer_matches_deletion_beyond_cap(self, n):
        counts = _descent_top_mask_counts(n)
        for size in range(4):
            for combo in itertools.combinations(range(2, n + 2), size):
                mask = sum(1 << v for v in combo)
                assert counts.get(mask, 0) == count_formula(n, combo, "deletion"), combo

    def test_singleton_formula(self):
        for n in range(2, 7):
            for x in range(2, n + 2):
                assert count_formula(n, {x}, "complement") == 2 ** (x - 1) - 1

    def test_known_pair(self):
        assert count_formula(2, {2, 3}, "complement") == 1
        assert count_formula(2, {2, 3}, "deletion") == 1

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            count_formula(2, {3}, "guess")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_triple_agreement_small(self, n):
        values = range(2, n + 2)
        for size in range(0, min(3, n) + 1):
            for combo in itertools.combinations(values, size):
                brute = count_exact_bruteforce(n, combo)
                assert count_formula(n, combo, "complement") == brute
                assert count_formula(n, combo, "deletion") == brute
                if size:
                    assert closed_form_R(combo) == brute

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(min_value=2, max_value=n + 1), max_size=n),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_formulas_match_brute_force(self, case):
        n, tops = case
        brute = count_exact_bruteforce(n, tops)
        assert count_formula(n, tops, "complement") == brute
        assert count_formula(n, tops, "deletion") == brute

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complement_program_matches_the_subset_sum(self, n):
        for size in range(n + 1):
            for combo in itertools.combinations(range(2, n + 2), size):
                assert count_formula(n, combo) == complement_count_by_subsets(n + 1, combo)

    @given(
        st.integers(min_value=1, max_value=24).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(min_value=2, max_value=n + 1), max_size=min(n, 10)),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_complement_matches_deletion(self, case):
        # Past the enumeration cap the two formulas check each other.
        n, tops = case
        assert count_formula(n, tops, "complement") == count_formula(n, tops, "deletion")

    def test_n_stability(self):
        # The count depends only on the value set, not on the ambient group.
        for x_set in ({3}, {2, 4}, {2, 4, 5}):
            reference = closed_form_R(x_set)
            for n in range(max(x_set) - 1, 8):
                assert count_exact_bruteforce(n, x_set) == reference


class TestClosedForm:
    def test_instances(self):
        assert closed_form_R({2}) == 1
        assert closed_form_R({3}) == 3

    def test_triple_instance_vs_bruteforce(self):
        assert closed_form_R({2, 4, 5}) == 7
        assert count_exact_bruteforce(4, {2, 4, 5}) == 7

    def test_no_closed_form(self):
        with pytest.raises(ValueError, match="no closed form"):
            closed_form_R({2, 3, 4, 5})
        with pytest.raises(ValueError):
            closed_form_R(set())
        with pytest.raises(ValueError, match="descent tops must be >= 2"):
            closed_form_R({1})
