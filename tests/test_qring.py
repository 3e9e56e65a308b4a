"""Tests for truncated Laurent-series arithmetic: windows, products, inversion."""

import random
from fractions import Fraction

import pytest

from qidx.constructors import SpecMonomial, poch_inf
from qidx.errors import NonUnitLeadingError, OrderExceededError
from qidx.exactalg import LaurentPoly, VAR_A, VAR_B
from qidx.qring import QSeries, format_series


def series(pairs, order):
    """Build a QSeries from {exponent: coefficient} for readable tests."""
    if not pairs:
        return QSeries.zero(order)
    lo = min(pairs)
    coeffs = [pairs.get(e, 0) for e in range(lo, order + 1)]
    return QSeries.make(lo, coeffs, order)


def naive_mul(xp, yp, order):
    """Dict-based reference product, ignoring windows (inputs exact)."""
    out = {}
    for ex, cx in xp.items():
        for ey, cy in yp.items():
            if ex + ey <= order:
                out[ex + ey] = out.get(ex + ey, 0) + cx * cy
    return {e: c for e, c in out.items() if c}


def test_window_trimming_and_zero():
    s = series({2: 0, 3: 1}, 6)
    assert s.offset == 3 and s.order == 6
    z = series({}, 5)
    assert z.is_zero() and z.offset == 6 and z.coeffs == []
    assert QSeries.make(0, [0, 0, 0], 2).is_zero()


def test_add_order_rule():
    x = series({0: 1, 1: -1}, 5)
    y = series({1: 1}, 5)
    s = x + y
    assert s.order == 5
    assert s.coeff(0) == 1 and s.coeff(1) == 0
    # differing orders truncate to the minimum
    a = series({0: 1}, 3)
    b = series({0: 1}, 7)
    assert (a + b).order == 3
    # x + 0 keeps x's coefficients
    z = QSeries.zero(5)
    t = x + z
    ok, _ = t.eq_upto(x, 5)
    assert ok


def test_mul_examples():
    one_plus = series({0: 1, 1: 1}, 6)
    one_minus = series({0: 1, 1: -1}, 6)
    p = one_plus * one_minus
    assert p.coeff(0) == 1 and p.coeff(1) == 0 and p.coeff(2) == -1
    qinv = series({-1: 1}, 4)
    q1 = series({1: 1}, 4)
    u = qinv * q1
    assert u.offset == 0 and u.coeff(0) == 1
    # x * 1 == x
    one = QSeries.const(1, 6)
    w = one_plus * one
    ok, _ = w.eq_upto(one_plus, 6)
    assert ok


def test_mul_order_rule():
    # order = min(x.order + y.offset, y.order + x.offset)
    x = QSeries.make(2, [1, 1, 1], 4)
    y = QSeries.make(-1, [1, 0, 2, 1], 2)
    p = x * y
    assert p.offset == 1
    assert p.order == min(4 + -1, 2 + 2)


def test_mul_matches_naive_reference():
    rng = random.Random(5150)
    for _ in range(300):
        xp = {rng.randint(-4, 8): rng.randint(-9, 9) for _ in range(rng.randint(0, 8))}
        yp = {rng.randint(-4, 8): rng.randint(-9, 9) for _ in range(rng.randint(0, 8))}
        if rng.random() < 0.3:
            for d in (xp, yp):
                for k in list(d):
                    if rng.random() < 0.3:
                        d[k] = Fraction(d[k], rng.choice([2, 3, 4]))
        hi = 16
        x = series(xp, hi)
        y = series(yp, hi)
        p = x * y
        ref = naive_mul(xp, yp, p.order)
        for e in range(p.offset, p.order + 1):
            assert p.coeff(e) == ref.get(e, 0), (xp, yp, e)


def test_ring_axioms_to_common_order():
    rng = random.Random(777)
    for _ in range(200):
        xs = []
        for _ in range(3):
            pairs = {rng.randint(0, 6): rng.randint(-5, 5) for _ in range(rng.randint(1, 6))}
            xs.append(series(pairs, 14))
        x, y, z = xs
        lhs = (x * y) * z
        rhs = x * (y * z)
        k = min(lhs.order, rhs.order)
        ok, _ = lhs.eq_upto(rhs, k)
        assert ok
        d1 = x * (y + z)
        d2 = x * y + x * z
        k = min(d1.order, d2.order)
        ok, _ = d1.eq_upto(d2, k)
        assert ok


def test_inv_geometric():
    x = series({0: 1, 1: -1}, 8)
    r = x.inv()
    assert r.order == 8
    for e in range(0, 9):
        assert r.coeff(e) == 1
    one = QSeries.const(1, 10)
    ok, _ = one.inv().eq_upto(one, 10)
    assert ok


def test_inv_offset_and_order():
    # inverting c*q^v * (unit series) lands at offset -v, order x.order - 2v
    x = QSeries.make(3, [2, 1, 0, 5], 6)
    r = x.inv()
    assert r.offset == -3
    assert r.order == 6 - 2 * 3
    p = x * r
    ok, _ = p.eq_upto(QSeries.const(1, p.order), p.order)
    assert ok


def test_inv_randomized_contract():
    """x * inv(x) == 1 to the result order, 500 randomized unit-leading series."""
    rng = random.Random(31337)
    for i in range(500):
        off = rng.randint(-3, 4)
        n = rng.randint(1, 12)
        lead = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
        coeffs = [lead] + [rng.randint(-4, 4) for _ in range(n - 1)]
        if rng.random() < 0.2:
            coeffs = [
                Fraction(c, rng.choice([2, 3])) if rng.random() < 0.3 else c
                for c in coeffs
            ]
            if not coeffs[0]:
                coeffs[0] = 1
        x = QSeries.make(off, coeffs, off + n - 1)
        r = x.inv()
        p = x * r
        ok, why = p.eq_upto(QSeries.const(1, p.order), p.order)
        assert ok, (i, why)


def test_inv_errors():
    with pytest.raises(NonUnitLeadingError, match=r"no nonzero coefficient through q\^5$"):
        QSeries.zero(5).inv()
    # symbolic two-term leading coefficient is not invertible
    lead = LaurentPoly.const(1) - LaurentPoly.var(VAR_B)
    x = QSeries.make(0, [lead, 1, 1], 2)
    with pytest.raises(NonUnitLeadingError):
        x.inv()


def test_symbolic_inv_with_unit_leading():
    ta = LaurentPoly.var(VAR_A)
    x = QSeries.make(0, [ta, 1, LaurentPoly.var(VAR_B)], 2)
    r = x.inv()
    p = x * r
    ok, _ = p.eq_upto(QSeries.const(1, p.order), p.order)
    assert ok


def test_coeff_access():
    x = series({1: 1, 2: -1}, 5)
    assert x.coeff(2) == -1
    assert x.coeff(-3) == 0
    with pytest.raises(OrderExceededError):
        x.coeff(6)


def test_eq_upto_reporting():
    x = series({0: 1, 1: 1}, 5)
    y = series({0: 1, 1: 1, 3: 1}, 5)
    ok, _ = x.eq_upto(y, 2)
    assert ok
    ok, m = x.eq_upto(y, 3)
    assert not ok and m == (3, 0, 1)
    with pytest.raises(OrderExceededError):
        x.eq_upto(y, 6)


def test_eq_upto_compares_aligned_windows():
    ta = LaurentPoly.var(VAR_A)
    x = series({-2: 3, 0: Fraction(1, 2), 4: ta}, 8)
    # equal series, one of them known further, and a zero series with itself
    assert x.eq_upto(series({-2: 3, 0: Fraction(1, 2), 4: ta}, 12), 8) == (True, None)
    assert QSeries.zero(5).eq_upto(QSeries.zero(7), 5) == (True, None)
    # different offsets: the lower one's first term is the mismatch, either way
    # round, and a zero series is zero at every exponent of the other
    y = series({1: 2, 3: 5}, 8)
    assert x.eq_upto(y, 8) == (False, (-2, 3, 0))
    assert y.eq_upto(x, 8) == (False, (-2, 0, 3))
    assert QSeries.zero(8).eq_upto(y, 8) == (False, (1, 0, 2))
    # a mismatch inside the window, past a run of equal terms
    z = series({-2: 3, 0: Fraction(1, 2), 4: 2 * ta}, 8)
    assert x.eq_upto(z, 3) == (True, None)
    assert x.eq_upto(z, 8) == (False, (4, ta, 2 * ta))
    # k below both offsets compares nothing
    assert y.eq_upto(series({2: 1}, 8), 0) == (True, None)
    assert y.eq_upto(QSeries.zero(3), -5) == (True, None)
    with pytest.raises(OrderExceededError):
        x.eq_upto(z, 9)


def test_truncate_monotone():
    rng = random.Random(12)
    for _ in range(100):
        pairs = {rng.randint(-2, 9): rng.randint(-6, 6) for _ in range(rng.randint(1, 7))}
        x = series(pairs, 12)
        y = series(pairs, 20).truncate(12)
        ok, _ = x.eq_upto(y, 12)
        assert ok
        low = x.truncate(4)
        assert low.order == 4
        for e in range(low.offset, 5):
            assert low.coeff(e) == x.coeff(e)


def test_symbolic_product_mixes_scalars_and_polys():
    ta = LaurentPoly.var(VAR_A)
    x = QSeries.make(0, [1, ta, Fraction(1, 2)], 2)
    y = QSeries.make(0, [1, -ta, 2], 2)
    p = x * y
    assert p.coeff(0) == 1
    assert p.coeff(1) == 0
    assert p.coeff(2) == Fraction(5, 2) - ta * ta
    # a series of scalars combines with one of tau-coefficients
    sp, tp = {0: 1, 1: 2}, {0: 1, 1: ta, 3: ta ** -1}
    s, t = series(sp, 3), series(tp, 3)
    ok, where = s.eq_upto(t, 3)
    assert not ok and where == (1, 2, ta)
    assert [(s + t).coeff(e) for e in range(4)] == [2, ta + 2, 0, ta ** -1]
    for p in (s * t, t * s):
        assert dict(p.nonzero_items()) == naive_mul(sp, tp, p.order)
    assert (s * QSeries.const(1, 3)).coeffs == s.coeffs


def test_scale_shift_pow():
    x = series({0: 1, 1: 1}, 6)
    s = x.scale(Fraction(1, 2))
    assert s.coeff(0) == Fraction(1, 2)
    sh = x.shifted(3)
    assert sh.offset == 3 and sh.order == 9 and sh.coeff(3) == 1
    sq = x**2
    assert sq.coeff(0) == 1 and sq.coeff(1) == 2 and sq.coeff(2) == 1
    neg = x**-1
    assert neg.coeff(0) == 1 and neg.coeff(1) == -1 and neg.coeff(2) == 1


def test_pow_keeps_the_window_of_a_shifted_series():
    # x = q*(q;q)_inf is known through q^17; a power must know as much as the
    # repeated product does, not stop where a const(1) start would cut it
    x = QSeries.monomial(1, 1, 17) * poch_inf(SpecMonomial.signed(1, 1), 1, 17)
    assert (x.offset, x.order) == (1, 17)
    for k in (-3, -2, -1, 1, 2, 3):
        base = x if k > 0 else x.inv()
        product = base
        for _ in range(abs(k) - 1):
            product = product * base
        power = x**k
        assert (power.offset, power.order) == (product.offset, product.order)
        assert power.coeffs == product.coeffs
    assert (x**-3).order == 13


def test_a_window_drops_its_leading_zeros_when_built():
    # x = 0 + q through q^1 is stored as q alone, so a product knows the
    # same window however it is associated
    x = QSeries(0, [0, 1], 1)
    assert (x.offset, x.coeffs, x.order) == (1, [1], 1)
    assert (x * x).order == 2
    chain = ((x * x) * x) * x
    power = x**4
    assert (power.offset, power.coeffs, power.order) == (chain.offset, chain.coeffs, chain.order)
    assert power.order == 4


def test_euler_and_subst_on_series():
    ta = LaurentPoly.var(VAR_A)
    x = QSeries.make(0, [1, ta * 2 + 1, ta**3], 2)
    e = x.euler(VAR_A)
    assert e.coeff(0) == 0
    assert e.coeff(1) == ta * 2
    assert e.coeff(2) == ta**3 * 3
    s = x.subst_unit(VAR_A, -1)
    assert s.coeffs == [1, -1, -1] and all(type(c) is int for c in s.coeffs)


def test_format_series():
    assert format_series(series({0: 1, 1: -2, 4: 2}, 5)) == "1 - 2*q + 2*q^4 + O(q^6)"
    assert format_series(QSeries.zero(3)) == "0 + O(q^4)"
    assert format_series(series({-2: 1, 0: Fraction(1, 2)}, 2)) == "q^-2 + 1/2 + O(q^3)"
    ta = LaurentPoly.var(VAR_A)
    x = QSeries.make(0, [1, ta - 1], 1)
    assert format_series(x) == "1 + (-1 + ta)*q + O(q^2)"
    assert format_series(series({1: 1}, 4)) == "q + O(q^5)"
    assert format_series(series({0: -3}, 0)) == "-3 + O(q^1)"
