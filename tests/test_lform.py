"""L-form values: generic truncation route vs closed forms vs power sums.

The independent oracle: for p = prod_k (1 + <v_k, x>) the L-form value
on a monomial x^alpha is the power sum sum_k v_k^alpha over the root
vectors.  This pins down every identity in the truncation route without
reference to the Eulerian family.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian_bounds.lform import (
    LFormTable,
    Truncation3,
    eulerian_lform,
    eulerian_lform_table,
    lform_from_truncation,
    monomials_up_to_3,
)

from polynomials import multivariate_eulerian, truncation_from_multi_affine


def product_truncation(vectors: list[tuple[int, ...]], n: int) -> Truncation3:
    """Degree-3 truncation of prod_k (1 + <v_k, x>), expanded exactly."""
    coeffs: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for vec in vectors:
        new = dict(coeffs)
        for mono, c in coeffs.items():
            if len(mono) == 3:
                continue
            for i, vi in enumerate(vec, start=1):
                if vi:
                    key = tuple(sorted(mono + (i,)))
                    new[key] = new.get(key, Fraction(0)) + c * vi
        coeffs = new
    coeffs.pop(())
    return Truncation3(n=n, degree=len(vectors), coeffs=coeffs)


def power_sums(vectors: list[tuple[int, ...]], n: int) -> LFormTable:
    values = {(): Fraction(len(vectors))}
    for mono in monomials_up_to_3(n):
        if mono:
            values[mono] = Fraction(
                sum(
                    # v^alpha with alpha read off the index multiset
                    _prod(vec[i - 1] for i in mono)
                    for vec in vectors
                )
            )
    return LFormTable(n=n, values=values)


def _prod(items) -> int:
    out = 1
    for x in items:
        out *= x
    return out


class TestTruncationRoute:
    def test_all_zero_truncation(self):
        t = Truncation3(n=3, degree=7, coeffs={})
        table = lform_from_truncation(t)
        assert table(()) == 7
        for mono in monomials_up_to_3(3):
            if mono:
                assert table(mono) == 0

    def test_single_variable_one_plus_x(self):
        t = Truncation3(n=1, degree=1, coeffs={(1,): Fraction(1)})
        table = lform_from_truncation(t)
        assert table((1,)) == 1
        assert table((1, 1)) == 1
        assert table((1, 1, 1)) == 1

    def test_pair_value_from_eulerian_two(self):
        t = truncation_from_multi_affine(multivariate_eulerian(2))
        assert t.a(1) == 1 and t.a(2) == 3 and t.a(1, 2) == 1
        table = lform_from_truncation(t)
        assert table((1, 2)) == Fraction(2)

    def test_missing_value_raises(self):
        table = LFormTable(n=2, values={(): Fraction(2)})
        with pytest.raises(KeyError, match="incomplete L-form table"):
            table((1,))

    @pytest.mark.parametrize(
        "vectors,n",
        [
            ([(1,)], 1),
            ([(2,), (3,)], 1),
            ([(1, 0), (0, 1)], 2),
            ([(1, 2), (3, 1), (-1, 1)], 2),
            ([(1, 2, 3), (1, 1, 1), (0, 2, -1), (5, 0, 1)], 3),
        ],
    )
    def test_power_sum_oracle_fixed(self, vectors, n):
        table = lform_from_truncation(product_truncation(vectors, n))
        oracle = power_sums(vectors, n)
        for mono in monomials_up_to_3(n):
            assert table(mono) == oracle(mono), mono

    @given(
        st.lists(
            st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3).filter(
                lambda v: any(v)
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_power_sum_oracle_random(self, vectors):
        table = lform_from_truncation(product_truncation(vectors, 3))
        oracle = power_sums(vectors, 3)
        for mono in monomials_up_to_3(3):
            assert table(mono) == oracle(mono), mono


class TestCountTruncation:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_multivariate_lifting(self, n):
        lifted = truncation_from_multi_affine(multivariate_eulerian(n))
        assert Truncation3.eulerian(n) == lifted

    @pytest.mark.parametrize("n", (11, 12, 20))
    def test_table_matches_closed_forms_past_the_lifting(self, n):
        generic = lform_from_truncation(Truncation3.eulerian(n))
        assert generic.values == eulerian_lform_table(n).values

    @pytest.mark.parametrize("n", range(1, 9))
    def test_integral_counts_stay_int(self, n):
        # Counts are integers, and so are L(1) and every degree <= 2 value
        # derived from them; only x_i x_j x_k is halved by the generic route.
        t = Truncation3.eulerian(n)
        assert all(type(c) is int for c in t.coeffs.values())
        table = lform_from_truncation(t)
        for mono, value in table.values.items():
            if len(mono) <= 2:
                assert type(value) is int, mono

    @pytest.mark.parametrize("n", (0, -1))
    def test_nonpositive_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            Truncation3.eulerian(n)


class TestEulerianClosedForms:
    def test_unit_monomial(self):
        assert eulerian_lform(5, ()) == 5

    def test_pair_instance(self):
        assert eulerian_lform(5, (1, 2)) == 2**3 - 2 * 3

    def test_square_instance(self):
        assert eulerian_lform(5, (2, 2)) == (2**2 - 1) ** 2

    def test_invalid_monomials(self):
        with pytest.raises(ValueError, match=r"monomial \(4,\) has indices outside \[1, 3\]"):
            eulerian_lform(3, (4,))
        with pytest.raises(ValueError, match="monomial degree 4 > 3"):
            eulerian_lform(3, (1, 1, 2, 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_oracle_equivalence_small(self, n):
        generic = lform_from_truncation(
            truncation_from_multi_affine(multivariate_eulerian(n))
        )
        closed = eulerian_lform_table(n)
        for mono in monomials_up_to_3(n):
            assert closed(mono) == generic(mono), mono

    @pytest.mark.parametrize("n", range(1, 9))
    def test_denominator_structure(self, n):
        # The generic route halves every x_i x_j x_k value, yet on the
        # Eulerian truncation each value it gives is an integer.
        table = lform_from_truncation(Truncation3.eulerian(n))
        for mono, value in table.values.items():
            assert Fraction(value).denominator == 1, mono

    def test_unordered_input_normalized(self):
        assert eulerian_lform(4, (3, 1)) == eulerian_lform(4, (1, 3))

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_table_equals_the_checked_closed_forms(self, n):
        # The table fills from the unchecked core; eulerian_lform checks its
        # input first, and both must give the same value on every monomial.
        table = eulerian_lform_table(n)
        assert list(table.values) == list(monomials_up_to_3(n))
        for mono, value in table.values.items():
            assert value == eulerian_lform(n, mono), mono
            assert eulerian_lform(n, mono[::-1]) == value, mono

    @pytest.mark.parametrize(
        "n, mono, message",
        [(3, (1, 1, 2, 3), "monomial degree 4 > 3"),
         (3, (4,), r"monomial \(4,\) has indices outside \[1, 3\]"),
         (3, (2, 0), r"monomial \(0, 2\) has indices outside \[1, 3\]")],
    )
    def test_checks_keep_their_messages(self, n, mono, message):
        with pytest.raises(ValueError, match=message):
            eulerian_lform(n, mono)
