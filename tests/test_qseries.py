from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from qgrass.partitions import (
    k_conjugate,
    partitions_in_box,
    strict_partitions_in_triangle,
    vacant_partitions,
)
from qgrass.qseries import (
    QPoly,
    _q_column,
    gen_sum,
    grass_hilbert_series,
    grass_subalgebra_formula,
    lg_hilbert_series,
    lg_subalgebra_formula,
    q_binomial,
    q_binomial_double_prime,
    q_binomial_prime,
)

Q = QPoly.q_power
ONES_0_TO_9 = QPoly.from_coeffs([1] * 10)


# --- QPoly arithmetic -------------------------------------------------------


def test_qpoly_basics():
    p = QPoly.from_coeffs([1, 2, 0, -3])
    assert p.coeffs() == [1, 2, 0, -3]
    assert p.degree == 3
    assert p.coeff(2) == 0
    assert p.json_coeffs() == ["1", "2", "0", "-3"]
    assert sum(p.coeffs()) == 0
    assert QPoly.zero().degree == -1
    assert QPoly.zero().coeffs() == []
    assert str(QPoly.zero()) == "0"


def test_qpoly_ring_ops():
    one, q = QPoly.one(), Q(1)
    assert (one + q) * (one + q) == QPoly.from_coeffs([1, 2, 1])
    assert (one - one).is_zero
    assert 2 * q == q + q
    assert q * 0 == QPoly.zero()
    with pytest.raises(ValueError):
        QPoly({-1: 1})


@pytest.mark.parametrize(
    "coeffs",
    [{0: Fraction(7, 2)}, {0: Fraction(4, 1)}, {2.7: 3}, {2.0: 3}, {0: 3.0}, {1: 0.0}, {0: True}],
    ids=["fraction", "whole-fraction", "float-exponent", "whole-float-exponent", "float", "float-zero", "bool"],
)
def test_qpoly_refuses_non_int_values(coeffs):
    # rounding 7/2 to 3 or q^2.7 to q^2 would break exactness silently
    with pytest.raises(TypeError):
        QPoly(coeffs)


# --- Gaussian binomials ------------------------------------------------------


def test_q_binomial_golden():
    assert q_binomial(6, 3) == QPoly.from_coeffs([1, 1, 2, 3, 3, 3, 3, 2, 1, 1])
    for n in range(6):
        assert q_binomial(n, 0) == QPoly.one()
    assert q_binomial(3, 5).is_zero
    assert q_binomial(3, -1).is_zero
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


def test_q_binomial_counts_partitions_in_a_box():
    # independent oracle: enumerate pairs (a, b) with 2 >= a >= b >= 0 directly
    counts = [0] * 5
    for a in range(3):
        for b in range(a + 1):
            counts[a + b] += 1
    assert q_binomial(4, 2) == QPoly.from_coeffs(counts)
    assert counts == [1, 1, 2, 1, 1]


def _pascal(top):
    """Reference Gaussian binomials: table[a][b] is the coefficient list of
    [a, b]_q, from the Pascal recurrence [a, b] = [a-1, b-1] + q^b [a-1, b]."""
    table = [[[1]]]
    for a in range(1, top + 1):
        row = [[1]]
        for b in range(1, a + 1):
            c = table[a - 1][b - 1] + [0] * (b * (a - b) + 1 - len(table[a - 1][b - 1]))
            if b < a:
                for e, x in enumerate(table[a - 1][b], b):
                    c[e] += x
            row.append(c)
        table.append(row)
    return table


PASCAL = _pascal(30)


def test_q_binomial_matches_the_pascal_table():
    for a in range(31):
        for b in range(a + 1):
            assert q_binomial(a, b) == QPoly.from_coeffs(PASCAL[a][b]), (a, b)


def test_q_column_walks_the_pascal_table():
    for b in range(31):
        assert list(_q_column(b, 30)) == [PASCAL[r][b] for r in range(b, 31)], b


def test_q_binomial_pascal_recurrence():
    for a in range(1, 31):
        assert q_binomial(a, 0) == q_binomial(a, a) == QPoly.one()
        for b in range(1, a):
            assert q_binomial(a, b) == q_binomial(a - 1, b - 1) + QPoly.q_power(b) * q_binomial(a - 1, b)


@given(st.integers(0, 12), st.integers(-2, 14))
def test_q_binomial_symmetry_and_q1(a, b):
    assert q_binomial(a, b) == q_binomial(a, a - b)
    assert sum(q_binomial(a, b).coeffs()) == (comb(a, b) if 0 <= b <= a else 0)


# --- the two primed analogues --------------------------------------------------


def test_q_binomial_prime_examples():
    assert q_binomial_prime(3, 1, 3) == QPoly({0: 1, 3: 1, 6: 1})
    assert q_binomial_prime(3, 2, 3) == QPoly({0: 1, 2: 1, 3: 1})
    for ell in range(1, 5):
        for k in range(ell, 6):
            assert q_binomial_prime(ell, ell, k) == QPoly.one()
    with pytest.raises(ValueError):
        q_binomial_prime(3, 0, 3)
    with pytest.raises(ValueError):
        q_binomial_prime(3, 4, 5)
    with pytest.raises(ValueError):
        q_binomial_prime(3, 3, 2)


def test_primed_q_binomials_match_their_defining_sums():
    def pascal(a, b):
        return QPoly.from_coeffs(PASCAL[a][b])

    for ell in range(1, 13):
        for k in range(1, 13):
            for i in range(1, min(ell, k) + 1):
                terms = [Q(j * (k - i + 1)) * pascal(i + j - 1, j) for j in range(ell - i + 1)]
                assert q_binomial_prime(ell, i, k) == sum(terms, QPoly.zero()), (ell, i, k)
    for n in range(1, 13):
        for i in range(1, n + 1):
            terms = [Q(comb(j + 1, 2)) * pascal(i + j, i) for j in range(n - i + 1)]
            assert q_binomial_double_prime(n, i) == Q(i) * sum(terms, QPoly.zero()), (n, i)


def test_q_binomial_prime_at_one_is_binomial():
    for ell in range(1, 7):
        for k in range(1, 7):
            for i in range(1, min(ell, k) + 1):
                assert sum(q_binomial_prime(ell, i, k).coeffs()) == comb(ell, i)


def test_q_binomial_double_prime_examples():
    assert q_binomial_double_prime(1, 1) == Q(1)
    assert q_binomial_double_prime(3, 1) == QPoly.from_coeffs([0, 1, 1, 1, 1, 1, 1])
    assert q_binomial_double_prime(3, 3) == Q(3)
    with pytest.raises(ValueError):
        q_binomial_double_prime(3, 0)
    with pytest.raises(ValueError):
        q_binomial_double_prime(3, 4)


def test_q_binomial_double_prime_at_one_is_binomial():
    for n in range(1, 9):
        for i in range(1, n + 1):
            assert sum(q_binomial_double_prime(n, i).coeffs()) == comb(n + 1, i + 1)


# --- closed-form Hilbert series ---------------------------------------------------


def test_grass_formula_examples():
    assert grass_subalgebra_formula(3, 3, 0) == QPoly.one()
    assert grass_subalgebra_formula(3, 3, 3) == q_binomial(6, 3)
    assert grass_subalgebra_formula(3, 3, 2) == QPoly.from_coeffs(
        [1, 1, 2, 2, 3, 3, 3, 2, 1, 1]
    )
    with pytest.raises(ValueError):
        grass_subalgebra_formula(3, 3, 4)


def test_grass_formula_full_case_matches_hilbert_series():
    for ell in range(1, 9):
        for k in range(1, 9):
            assert grass_subalgebra_formula(ell, k, min(ell, k)) == grass_hilbert_series(ell, k)


def test_lg_formula_examples():
    assert lg_subalgebra_formula(3, 1) == QPoly.from_coeffs([1] * 7)
    for n in range(2, 7):
        assert lg_subalgebra_formula(n, 2) == lg_subalgebra_formula(n, 1)
    assert lg_subalgebra_formula(3, 3) == lg_hilbert_series(3)
    with pytest.raises(ValueError):
        lg_subalgebra_formula(3, 0)
    with pytest.raises(ValueError):
        lg_subalgebra_formula(3, 4)


def test_lg_formula_full_case_matches_hilbert_series():
    for n in range(1, 31):
        assert lg_subalgebra_formula(n, n) == lg_hilbert_series(n)


def test_hilbert_series_examples():
    assert grass_hilbert_series(3, 3) == q_binomial(6, 3)
    assert lg_hilbert_series(2) == QPoly.from_coeffs([1, 1, 1, 1])
    assert lg_hilbert_series(0) == QPoly.one()


# --- generating sums ---------------------------------------------------------------


def test_gen_sum_examples():
    assert gen_sum(partitions_in_box(3, 3)) == q_binomial(6, 3)
    assert gen_sum(vacant_partitions(3, 3, 2)) == QPoly.from_coeffs([0, 0, 1, 1, 2, 2, 2, 1])
    for n in range(0, 9):
        assert gen_sum(strict_partitions_in_triangle(n)) == lg_hilbert_series(n)


def test_vacant_term_displays():
    assert gen_sum(vacant_partitions(3, 3, 1)) == ONES_0_TO_9 - QPoly.one()
    assert gen_sum(vacant_partitions(3, 3, 3)) == Q(3)


def test_summand_identity_both_interpretations():
    # formula summand = i-vacant sum = first-part-i sum of k-conjugates
    for ell in range(1, 5):
        for k in range(1, 5):
            for i in range(1, min(ell, k) + 1):
                formula = Q(i) * q_binomial(k, i) * q_binomial_prime(ell, i, k)
                assert gen_sum(vacant_partitions(ell, k, i)) == formula
                family = [
                    k_conjugate(lam, k)
                    for lam in partitions_in_box(ell, k)
                    if lam and k_conjugate(lam, k).first == i
                ]
                assert gen_sum(family) == formula
