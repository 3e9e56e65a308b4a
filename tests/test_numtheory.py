"""Integer-side oracles: divisor sums, representation counts, sign tables."""

import pytest

from qidx.numtheory import (
    CHI1,
    CHI2,
    CHI3,
    lattice_rep_sum,
    predicted_rep_count,
    rep_count,
    signed_divisor_sum,
    signed_theta_quotient,
    theta_product_series,
    verify_rep_range,
)


def brute_divisor_sum(n):
    # independent oracle: direct loop over all divisors
    signs = {1: 1, 2: 1, 4: 1, 3: -1, 5: -1, 6: -1, 0: 0}
    return sum(
        signs[d % 7] * (-1) ** (n // d) for d in range(1, n + 1) if n % d == 0
    )


def test_divisor_sum_examples():
    assert signed_divisor_sum(1) == -1
    assert signed_divisor_sum(8) == 2
    assert signed_divisor_sum(11) == -2


def test_divisor_sum_against_brute_force():
    for n in range(1, 400):
        assert signed_divisor_sum(n) == brute_divisor_sum(n), n


def test_rep_count_examples():
    assert rep_count(8) == 1  # (1, 1)
    assert rep_count(1) == 0
    assert rep_count(11) == 1  # (1, 2)


def test_rep_count_include_zero():
    # pairs with a zero component are never counted
    assert rep_count(1) == 0  # (0, 1) has a = 0
    assert rep_count(7) == 0  # (1, 0) has b = 0


def test_rep_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        rep_count(0)


def test_prediction_examples():
    assert predicted_rep_count(1) == 0
    assert predicted_rep_count(8) == 1
    assert predicted_rep_count(11) == 1


def test_prediction_is_integral_up_to_1000():
    for n in range(1, 1001):
        predicted_rep_count(n)  # NonIntegerResultError would fail the test


def test_chi_examples():
    assert CHI1[2] == -1
    assert CHI3[4] == 1
    assert CHI2[0] == 0


def test_chi_tables_shape():
    for table in (CHI1, CHI2, CHI3):
        assert len(table) == 13
        assert table[0] == 0
        assert all(v in (-1, 0, 1) for v in table)
        assert sum(1 for v in table if v == 1) == 6
        assert sum(1 for v in table if v == -1) == 6


def test_chi3_complete_multiplicativity():
    # chi3 is the quadratic-residue pattern mod 13 and genuinely multiplies;
    # chi1/chi2 are sign layouts of the twelve-term Lambert combination and
    # are NOT multiplicative (chi1(2)^2 = 1 but chi1(4) = -1), so the
    # meaningful cross-table sanity checks are the product and parity laws.
    for m in range(13):
        for n in range(13):
            assert CHI3[m * n % 13] == CHI3[m] * CHI3[n]


def test_chi_table_relations():
    assert all(CHI1[n] * CHI2[n] == CHI3[n] for n in range(13))
    for n in range(1, 13):
        assert CHI1[(13 - n) % 13] == -CHI1[n]
        assert CHI2[(13 - n) % 13] == -CHI2[n]
        assert CHI3[(13 - n) % 13] == CHI3[n]


def test_verify_range_examples():
    assert verify_rep_range(1).ok
    report = verify_rep_range(50)
    assert report.mismatches == []


def test_lattice_sum_at_seven():
    # only (a, b) = (+-1, 0): two solutions, each with sign (-1)^1
    assert lattice_rep_sum(7) == -2
    assert theta_product_series(10).coeff(7) == -2


def test_theta_cross_check_range():
    report = verify_rep_range(5, theta_order=60)
    assert report.theta_mismatches == []


def test_quotient_matches_theta_product():
    order = 80
    quot = signed_theta_quotient(order)
    prod = theta_product_series(order)
    ok, first = quot.eq_upto(prod, order)
    assert ok, first
    for n in range(order + 1):
        assert quot.coeff(n) == lattice_rep_sum(n)
