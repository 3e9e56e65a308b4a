import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from naive_product import naive_poch

from qidx import constructors
from qidx.constructors import (
    _Acc,
    AffineWeight,
    SpecMonomial,
    Unit,
    W_ONE,
    W_R,
    char_lambert,
    generalized_lambert,
    jk_partial_a,
    jk_product_form,
    jordan_kronecker,
    l_func,
    n_weighted_sum,
    pf_sum,
    phi_minus,
    poch_fin,
    poch_inf,
    recip_series,
    term_series,
    theta_sum,
    times_spec_monomial,
)
from qidx.errors import (
    ConstraintViolationError,
    DivergentTailError,
    NegativeOrderArgumentError,
    PoleError,
    SymbolicNonUnitError,
)
from qidx.exactalg import LaurentPoly
from qidx.qring import QSeries


def sm(sign, e):
    return SpecMonomial.signed(sign, e)


def sym(var, e):
    return SpecMonomial.symbolic(var, e)


def series_dict(qs, upto=None):
    upto = qs.order if upto is None else upto
    return {e: c for e, c in qs.nonzero_items() if e <= upto}


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


# ---------------------------------------------------------------------------
# term_series / recip_series
# ---------------------------------------------------------------------------


def test_term_series_geometric():
    t = term_series(sm(1, 1), 1, 6)
    assert series_dict(t) == {k: 1 for k in range(1, 7)}


def test_term_series_squared_weights():
    t = term_series(sm(1, 1), 2, 6)
    assert series_dict(t) == {k: k for k in range(1, 7)}


def test_term_series_flipped():
    t = term_series(sm(1, -2), 1, 7)
    assert series_dict(t) == {0: -1, 2: -1, 4: -1, 6: -1}
    t2 = term_series(sm(1, -3), 2, 10)
    assert series_dict(t2) == {3: 1, 6: 2, 9: 3}


def test_term_series_boundary_constants():
    assert series_dict(term_series(sm(-1, 0), 1, 5)) == {0: Fraction(-1, 2)}
    assert series_dict(term_series(sm(-1, 0), 2, 5)) == {0: Fraction(-1, 4)}


def test_term_series_pole_errors():
    with pytest.raises(PoleError):
        term_series(sm(1, 0), 1, 5)
    with pytest.raises(SymbolicNonUnitError):
        term_series(sym(0, 0), 1, 5)


def test_recip_relation_randomized():
    # 1/(1-v)^2 == 1 + v/(1-v) + v/(1-v)^2, including flipped and
    # boundary (-1) arguments
    rng = random.Random("recip-relation")
    cases = 0
    while cases < 500:
        e = rng.randint(-6, 6)
        sign = rng.choice([1, -1])
        if e == 0 and sign == 1:
            continue
        symbolic = e != 0 and rng.random() < 0.3
        v = sym(rng.randrange(4), e) if symbolic else sm(sign, e)
        order = rng.randint(0, 25)
        lhs = recip_series(v, 2, order)
        rhs = QSeries.const(1, order) + term_series(v, 1, order) + term_series(v, 2, order)
        ok, bad = lhs.eq_upto(rhs, order)
        assert ok, (v, bad)
        inv_check = recip_series(v, 1, order) - term_series(v, 1, order)
        assert series_dict(inv_check) == {0: 1} if order >= 0 else True
        cases += 1


def test_recip_series_against_true_inverse():
    rng = random.Random("recip-inverse")
    for _ in range(120):
        e = rng.choice([1, 2, 3])
        sign = rng.choice([1, -1])
        order = rng.randint(4, 20)
        s = rng.choice([1, 2])
        om = poch_fin(sm(sign, e), 1, 1, order)
        prod = recip_series(sm(sign, e), s, order) * om ** s
        assert series_dict(prod, order) == {0: 1}


def acc_one_minus(x, order):
    """1 - u*q^e written term by term through the sum accumulator."""
    acc = _Acc(order)
    acc.add(0, 1)
    acc.add(x.qexp, -x.unit.sign, x.unit.mono)
    return acc.series()


def exact_window(qs):
    return qs.offset, qs.order, [
        (type(c), list(c.terms.items()) if isinstance(c, LaurentPoly) else c)
        for c in qs.coeffs
    ]


@pytest.mark.parametrize("order", [-2, 0, 1, 3, 5])
@pytest.mark.parametrize("e", [-3, -1, 0, 1, 3, 4, 5, 6, 9])
def test_one_minus_matches_the_accumulator_build(order, e):
    # 1 - x is the one-factor product poch_fin(x, 1, m, order), which needs
    # ord(x) >= 0; e = 0 gives the constants 1 - (+1) = 0 and 1 - (-1) = 2
    # and, for a tau-unit, the coefficient 1 - tau; e > order leaves the
    # term outside the window
    units = [
        Unit(1), Unit(-1), Unit(1, (0, 0, 1, 0)), Unit(1, (0, 1, 0, 0)), Unit(-1, (1, 0, 0, 0))
    ]
    for unit in units:
        x = SpecMonomial(unit, e)
        if e < 0:
            with pytest.raises(NegativeOrderArgumentError):
                poch_fin(x, 1, 1, order)
            continue
        # the term dicts are compared in insertion order, too
        assert exact_window(poch_fin(x, 1, 1, order)) == exact_window(acc_one_minus(x, order))


def test_one_minus_constant_terms():
    assert poch_fin(sm(1, 0), 1, 1, 3).is_zero()
    assert poch_fin(sm(-1, 0), 1, 1, 3).coeffs == [2, 0, 0, 0]
    assert poch_fin(sm(-1, 5), 1, 1, 3).coeffs == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------


def test_poch_inf_pentagonal_window():
    p = poch_inf(sm(1, 1), 1, 7)
    assert series_dict(p) == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1}


def test_poch_inf_negative_sign():
    p = poch_inf(sm(-1, 1), 1, 3)
    assert series_dict(p) == {0: 1, 1: 1, 2: 1, 3: 2}


def test_poch_inf_unit_plus_one_vanishes():
    assert poch_inf(sm(1, 0), 1, 8).is_zero()
    assert poch_inf(sm(1, 0), 5, 8).is_zero()


def test_poch_inf_rejects_negative_order_argument():
    with pytest.raises(NegativeOrderArgumentError):
        poch_inf(sm(1, -1), 1, 5)


def test_poch_fin_basics():
    assert series_dict(poch_fin(sm(1, 2), 0, 1, 6)) == {0: 1}
    assert series_dict(poch_fin(sm(1, 1), 2, 1, 6)) == {0: 1, 1: -1, 2: -1, 3: 1}
    assert series_dict(poch_fin(sm(-1, 0), 1, 1, 6)) == {0: 2}


def test_poch_splitting_identity():
    # (x)_inf = (x)_n * (x q^{mn})_inf
    rng = random.Random("poch-split")
    for _ in range(60):
        m = rng.randint(1, 4)
        e = rng.randint(0, 3)
        sign = -1 if e == 0 else rng.choice([1, -1])
        n = rng.randint(0, 4)
        order = rng.randint(5, 25)
        x = sm(sign, e)
        whole = poch_inf(x, m, order)
        split = poch_fin(x, n, m, order) * poch_inf(x.times_qpow(m * n), m, order)
        ok, bad = whole.eq_upto(split, order)
        assert ok, bad


def test_poch_functional_equation_randomized():
    rng = random.Random("poch-feq")
    for _ in range(200):
        m = rng.randint(1, 5)
        e = rng.randint(0, 4)
        symbolic = rng.random() < 0.25
        if symbolic:
            x = sym(rng.randrange(4), e)
        else:
            x = sm(-1 if e == 0 else rng.choice([1, -1]), e)
        order = rng.randint(3, 30)
        lhs = poch_inf(x, m, order)
        rhs = poch_fin(x, 1, m, order) * poch_inf(x.times_qpow(m), m, order)
        ok, bad = lhs.eq_upto(rhs, order)
        assert ok, (x, m, bad)


def exact_values(qs):
    """The window and every coefficient with its exact type and terms."""
    return qs.offset, qs.order, [
        (type(c), dict(c.terms) if isinstance(c, LaurentPoly) else c) for c in qs.coeffs
    ]


poch_units = st.one_of(
    st.builds(Unit, st.sampled_from([1, -1])),
    # a tau-unit over one to four variables, exponents of either sign
    st.builds(Unit, st.sampled_from([1, -1]), st.tuples(*[st.integers(-3, 3)] * 4).filter(any)),
)


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(poch_units, st.integers(0, 12), st.integers(1, 13), st.integers(-1, 300),
       st.one_of(st.none(), st.integers(0, 330)))
def test_packed_factors_match_the_naive_product(unit, e, m, order, n):
    # n = None is the cached infinite product; a finite n may be 0 or reach
    # past the window, and u = -1 at e = 0 doubles every coefficient
    x = SpecMonomial(unit, e)
    inside = len(range(e, order + 1, m))
    factors = inside if n is None else min(n, inside)
    # the naive product costs about factors * order^2 / 2 coefficient products
    assume(factors * (order + 2) ** 2 * (8 if unit.symbolic else 1) <= 2_000_000)
    got = poch_inf(x, m, order) if n is None else poch_fin(x, n, m, order)
    before = exact_values(got)
    assert before == exact_values(naive_poch(x, order + 1 if n is None else n, m, order))
    if n is None:
        # the cached series is shared: products and sums of it leave it as it was
        [got * got, got + got, got - got.shifted(1), got.scale(Fraction(1, 3))]
        assert poch_inf(x, m, order) is got
        assert exact_values(got) == before


def distinct_partitions(order):
    """q(k) for k <= order, counted as partitions into odd parts (Euler)."""
    c = [1] + [0] * order
    for part in range(1, order + 1, 2):
        for k in range(part, order + 1):
            c[k] += c[k - part]
    return c


@pytest.mark.parametrize("order", [24, 64, 543, 544])
def test_packed_factors_at_the_width_edges(order):
    # base 1: at orders 24 and 64 the coefficients 2 q(k) of (-1; q)_inf
    # fill the top byte of the digit width; from order 544 the digits are
    # 9 bytes wide, past the 8-byte words of the packed conversion
    q = distinct_partitions(order)
    assert poch_inf(sm(-1, 0), 1, order).coeffs == [2 * c for c in q]
    assert poch_inf(sm(-1, 1), 1, order).coeffs == q
    # Euler's pentagonal theorem for (q; q)_inf
    pentagonal = {}
    for j in range(-order, order + 1):
        k = j * (3 * j - 1) // 2
        if k <= order:
            pentagonal[k] = (-1) ** j
    assert series_dict(poch_inf(sm(1, 1), 1, order)) == pentagonal
    # (ta q; q)_inf: the coefficient of ta^j q^k is (-1)^j times the number
    # of partitions of k - j(j+1)/2 into parts of at most j
    want = [{} for _ in range(order + 1)]
    bounded, j = [1] + [0] * order, 0
    while j * (j + 1) // 2 <= order:
        low = j * (j + 1) // 2
        for k in range(low, order + 1):
            if bounded[k - low]:
                want[k][(j, 0, 0, 0)] = (-1) ** j * bounded[k - low]
        j += 1
        for k in range(j, order + 1):
            bounded[k] += bounded[k - j]
    got = poch_inf(sym(0, 1), 1, order).coeffs
    assert [c.terms if isinstance(c, LaurentPoly) else {(0, 0, 0, 0): c} for c in got] == want


# ---------------------------------------------------------------------------
# theta_sum and the triple product
# ---------------------------------------------------------------------------


def test_theta_symbolic_window():
    th = theta = theta_sum(sym(0, 0), 1, 3)
    tau = LaurentPoly.var(0)
    tau_inv = LaurentPoly.monomial((-1, 0, 0, 0))
    assert theta.coeff(0) == LaurentPoly.const(1) - tau
    assert theta.coeff(1) == tau * tau - tau_inv
    assert theta.coeff(2) == 0
    assert th.coeff(3) == tau_inv * tau_inv - tau * tau * tau


def test_theta_signed_values():
    assert series_dict(theta_sum(sm(-1, 1), 1, 6)) == {0: 2, 1: 2, 3: 2, 6: 2}
    assert theta_sum(sm(1, 1), 1, 12).is_zero()


def test_jacobi_triple_product_symbolic():
    order = 30
    z = sym(0, 0)
    lhs = (
        poch_inf(sm(1, 1), 1, order)
        * poch_inf(z, 1, order)
        * poch_inf(z.inv().times_qpow(1), 1, order)
    )
    ok, bad = lhs.eq_upto(theta_sum(z, 1, order), order)
    assert ok, bad


def test_jacobi_triple_product_signed_randomized():
    rng = random.Random("jtp-signed")
    for _ in range(60):
        m = rng.randint(1, 5)
        e = rng.randint(0, m)
        sign = rng.choice([1, -1])
        z = sm(sign, e)
        order = rng.randint(10, 60)
        lhs = (
            poch_inf(sm(1, m), m, order)
            * poch_inf(z, m, order)
            * poch_inf(z.inv().times_qpow(m), m, order)
        )
        ok, bad = lhs.eq_upto(theta_sum(z, m, order), order)
        assert ok, (z, m, bad)


# ---------------------------------------------------------------------------
# pf_sum
# ---------------------------------------------------------------------------


def test_pf_sum_symbolic_window():
    pf = pf_sum(sym(0, 0), 1, 1)
    tau = LaurentPoly.var(0)
    tau_inv = LaurentPoly.monomial((-1, 0, 0, 0))
    assert pf.coeff(0) == 1
    assert pf.coeff(1) == tau + tau_inv - LaurentPoly.const(2)


def test_pf_sum_spot_values_at_minus_one():
    raw = pf_sum(sm(-1, 0), 1, 6, cleared=False)
    assert raw.coeff(0) == Fraction(1, 2)
    cleared = pf_sum(sm(-1, 0), 1, 6)
    scaled = raw.scale(2)
    ok, bad = cleared.eq_upto(scaled, 6)
    assert ok, bad


def test_pf_sum_at_plus_one_is_one():
    assert series_dict(pf_sum(sm(1, 0), 1, 10)) == {0: 1}


def test_pf_identity_contract():
    rng = random.Random("pf-contract")
    for _ in range(25):
        m = rng.randint(1, 4)
        e = rng.randint(0, m)
        sign = -1 if e % m == 0 else rng.choice([1, -1])
        z = sm(sign, e)
        order = rng.randint(10, 40)
        lhs = poch_inf(sm(1, m), m, order) ** 2
        rhs = (
            pf_sum(z, m, order)
            * poch_inf(z.times_qpow(m), m, order)
            * poch_inf(z.inv().times_qpow(m), m, order)
        )
        ok, bad = lhs.eq_upto(rhs, order)
        assert ok, (z, m, bad)
    z = sym(0, 0)
    order = 25
    lhs = poch_inf(sm(1, 1), 1, order) ** 2
    rhs = (
        pf_sum(z, 1, order)
        * poch_inf(z.times_qpow(1), 1, order)
        * poch_inf(z.inv().times_qpow(1), 1, order)
    )
    ok, bad = lhs.eq_upto(rhs, order)
    assert ok, bad


# ---------------------------------------------------------------------------
# bilateral f-family
# ---------------------------------------------------------------------------


def test_jordan_kronecker_window_example():
    f = jordan_kronecker(sm(1, 1), sm(1, 2), 5, 3)
    assert series_dict(f) == {0: 1, 1: 1, 2: 1, 3: 1}


def test_jordan_kronecker_rejects_bad_first_argument():
    with pytest.raises(ConstraintViolationError):
        jordan_kronecker(sm(1, 3), sm(1, 1), 3, 10)
    with pytest.raises(ConstraintViolationError):
        jordan_kronecker(sm(1, 0), sm(1, 1), 3, 10)


def test_jordan_kronecker_pole_guard():
    with pytest.raises(PoleError):
        jordan_kronecker(sm(1, 1), sm(1, 5), 5, 10)
    jordan_kronecker(sm(1, 1), sm(-1, 5), 5, 10)


def test_jk_product_form_example_and_cross_check():
    p = jk_product_form(sm(1, 1), sm(1, 2), 5, 3)
    assert series_dict(p) == {0: 1, 1: 1, 2: 1, 3: 1}
    a, b = sm(-1, 1), sm(-1, 2)
    lhs = jordan_kronecker(a, b, 7, 100)
    rhs = jk_product_form(a, b, 7, 100)
    ok, bad = lhs.eq_upto(rhs, 100)
    assert ok, bad


def typed_window(qs):
    """The window and every coefficient with its type and its terms' types,
    in an order that does not depend on how the terms were summed."""
    return qs.offset, qs.order, [
        (type(c), sorted((m, type(v), v) for m, v in c.terms.items()))
        if isinstance(c, LaurentPoly) else (type(c), c)
        for c in qs.coeffs
    ]


def test_jk_product_form_matches_the_product_by_the_inverse():
    # num / den divides tau-units by long division and signed units through
    # Newton's inverse; both must give num * den.inv() in window, value and
    # type, over a seeded grid of 2.8's domain: 0 < ord(a), ord(b) < m,
    # ord(a) + ord(b) <= m, and unit(ab) != +1 at ord(a) + ord(b) = m
    rng = random.Random("jk-product-form-division")
    for _ in range(24):
        m = rng.randint(5, 13)
        ea = rng.randint(1, m - 1)
        eb = rng.randint(1, m - ea)
        order = rng.randint(0, 90)
        sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
        # tau-units in two symbols, now and then in the same one
        va, vb = rng.sample(range(4), 2) if rng.random() < 0.8 else [rng.randrange(4)] * 2
        pairs = [(SpecMonomial.symbolic(va, ea, sa), SpecMonomial.symbolic(vb, eb, sb))]
        if ea + eb < m or sa * sb == -1:
            pairs.append((sm(sa, ea), sm(sb, eb)))
        for a, b in pairs:
            ab = a.mul(b)
            num = poch_inf(sm(1, m), m, order) ** 2 * constructors.poch_pair(ab, m, order)
            den = constructors.poch_pair(a, m, order) * constructors.poch_pair(b, m, order)
            got = jk_product_form(a, b, m, order)
            assert typed_window(got) == typed_window(num * den.inv()), (a, b, m, order)


def test_jk_product_form_pole_rejection():
    with pytest.raises(ConstraintViolationError):
        jk_product_form(sm(1, 1), sm(1, 4), 5, 10)
    # the same exponents pass when the unit product is not +1
    jk_product_form(sm(-1, 1), sm(1, 4), 5, 10)


def test_jk_symmetry_randomized():
    rng = random.Random("jk-symmetry")
    for _ in range(60):
        m = rng.randint(3, 9)
        alpha = rng.randint(1, m - 1)
        beta = rng.randint(1, m - 1)
        symbolic = rng.random() < 0.3
        if symbolic:
            a, b = sym(0, alpha), sym(1, beta)
        else:
            a, b = sm(rng.choice([1, -1]), alpha), sm(rng.choice([1, -1]), beta)
        order = rng.randint(10, 50)
        lhs = jordan_kronecker(a, b, m, order)
        rhs = jordan_kronecker(b, a, m, order)
        ok, bad = lhs.eq_upto(rhs, order)
        assert ok, (a, b, m, bad)


def test_jk_functional_equation_randomized():
    # f(a,b) = -b^{-1} f(q^m a^{-1}, b^{-1})
    rng = random.Random("jk-feq")
    for _ in range(60):
        m = rng.randint(3, 9)
        alpha = rng.randint(1, m - 1)
        beta = rng.randint(1, m - 1)
        symbolic = rng.random() < 0.3
        if symbolic:
            a, b = sym(0, alpha), sym(1, beta)
        else:
            a, b = sm(rng.choice([1, -1]), alpha), sm(rng.choice([1, -1]), beta)
        order = rng.randint(10, 45)
        lhs = jordan_kronecker(a, b, m, order)
        inner = jordan_kronecker(a.inv().times_qpow(m), b.inv(), m, order + beta)
        rhs = times_spec_monomial(inner, b.inv()).scale(-1)
        ok, bad = lhs.eq_upto(rhs, order)
        assert ok, (a, b, m, bad)


def test_jk_shift_randomized():
    # a^k f(a, b q^{mk}) = f(a,b) for k in {1, 2}
    rng = random.Random("jk-shift")
    for _ in range(60):
        m = rng.randint(3, 9)
        alpha = rng.randint(1, m - 1)
        beta = rng.randint(1, m - 1)
        symbolic = rng.random() < 0.3
        if symbolic:
            a, b = sym(0, alpha), sym(1, beta)
        else:
            a, b = sm(rng.choice([1, -1]), alpha), sm(rng.choice([1, -1]), beta)
        order = rng.randint(10, 45)
        k = rng.choice([1, 2])
        base = jordan_kronecker(a, b, m, order)
        shifted = jordan_kronecker(a, b.times_qpow(m * k), m, order)
        lhs = times_spec_monomial(shifted, a.pow(k))
        ok, bad = lhs.eq_upto(base, order)
        assert ok, (a, b, m, k, bad)


def test_jk_three_part_form_randomized():
    # f(a,b)(1-a)(1-b) = (1-ab) + (1-a)(1-b) { S1 - S2 } with
    # S1 = sum_{n>=1} b a^n q^{mn}/(1-b q^{mn}),
    # S2 = sum_{n>=1} b^-1 a^-n q^{mn}/(1-b^-1 q^{mn})
    rng = random.Random("jk-three-part")
    for _ in range(40):
        m = rng.randint(3, 9)
        alpha = rng.randint(1, m - 1)
        beta = rng.randint(1, m - 1)
        symbolic = rng.random() < 0.3
        if symbolic:
            a, b = sym(0, alpha), sym(1, beta)
        else:
            a, b = sm(rng.choice([1, -1]), alpha), sm(rng.choice([1, -1]), beta)
        order = rng.randint(10, 40)
        inner = order + m
        oma = poch_fin(a, 1, m, inner)
        omb = poch_fin(b, 1, m, inner)
        lhs = jordan_kronecker(a, b, m, inner) * oma * omb
        s1 = generalized_lambert(a, b, 1, W_ONE, 1, m, inner)
        s2 = generalized_lambert(a.inv(), b.inv(), 1, W_ONE, 1, m, inner)
        rhs = poch_fin(a.mul(b), 1, m, inner) + oma * omb * (s1 - s2)
        ok, bad = lhs.eq_upto(rhs, order)
        assert ok, (a, b, m, bad)


def test_jk_partial_a_window_example():
    fa = jk_partial_a(sm(1, 1), sm(1, 2), 5, 3)
    assert series_dict(fa) == {0: 1, 1: 3, 2: 3, 3: 4}


def test_jk_partial_a_rejects_order_zero():
    with pytest.raises(ConstraintViolationError):
        jk_partial_a(sm(-1, 0), sm(1, 1), 5, 5)


def test_n_weighted_window_example():
    s = n_weighted_sum(sm(1, 1), sm(1, 3), 5, 3)
    assert series_dict(s) == {1: 2, 2: 2, 3: 4}


def test_n_weighted_matches_scaled_partial():
    a, x = sm(1, 1), sm(1, 3)
    lhs = n_weighted_sum(a, x, 5, 50)
    rhs = times_spec_monomial(jk_partial_a(a, x, 5, 50), a)
    ok, bad = lhs.eq_upto(rhs, 50)
    assert ok, bad


def test_derivative_consistency_symbolic():
    # tau_a d/d tau_a of f(a,b) == n-weighted sum == a * f_a(a,b)
    rng = random.Random("euler-deriv")
    for _ in range(20):
        m = rng.randint(3, 7)
        alpha = rng.randint(1, m - 1)
        beta = rng.randint(1, m - 1)
        a, b = sym(0, alpha), sym(1, beta)
        order = rng.randint(10, 40)
        f = jordan_kronecker(a, b, m, order)
        lhs = f.euler(0)
        mid = n_weighted_sum(a, b, m, order)
        rhs = times_spec_monomial(jk_partial_a(a, b, m, order), a)
        ok, bad = lhs.eq_upto(mid, order)
        assert ok, (a, b, m, bad)
        ok, bad = mid.eq_upto(rhs, order)
        assert ok, (a, b, m, bad)


# ---------------------------------------------------------------------------
# Lambert sums
# ---------------------------------------------------------------------------


def test_glam_divisor_count_example():
    g = generalized_lambert(SpecMonomial.one(), sm(1, 1), 1, W_ONE, 0, 1, 30)
    assert series_dict(g) == {n: divisor_count(n) for n in range(1, 31)}


def test_glam_divisor_sigma_example():
    g = generalized_lambert(SpecMonomial.one(), sm(1, 0), 1, W_R, 1, 1, 30)
    assert series_dict(g) == {n: sigma(n) for n in range(1, 31)}


def test_glam_symbolic_lowest_term():
    M = SpecMonomial(Unit(1, (0, 1, 1, 0)), 3)
    g = generalized_lambert(M, sm(1, 0), 1, W_R, 1, 5, 9)
    assert g.coeff(8) == LaurentPoly.monomial((0, 1, 1, 0))
    assert all(c == 0 for e, c in g.nonzero_items() if e < 8)


def test_glam_divergent_tail():
    with pytest.raises(DivergentTailError):
        generalized_lambert(sm(1, -5), sm(1, 1), 1, W_ONE, 0, 5, 20)


def test_windows_past_the_loop_limit_fail_before_writing(monkeypatch):
    # under a short walk limit every Lambert-type window either closes in
    # time or is refused before its sum writes a term: the early check
    # counts the steps to where the window closes, not just to its turn.
    # Each accumulator a build makes is kept, so a refusal can be seen to
    # leave both its dense list and its symbolic dict empty.
    monkeypatch.setattr(constructors, "_LOOP_LIMIT", 12)
    made = []

    class KeptAcc(_Acc):
        __slots__ = ()

        def __init__(self, order):
            super().__init__(order)
            made.append(self)

    monkeypatch.setattr(constructors, "_Acc", KeptAcc)
    builds = {
        "l": lambda e: l_func(sm(-1, e), 5, 5),
        "glam": lambda e: generalized_lambert(SpecMonomial.one(), sm(-1, -e), 1, W_ONE, 1, 3, 4),
        "f": lambda e: jordan_kronecker(sm(1, 1), sm(-1, -e), 5, 5),
        "f-tau": lambda e: jordan_kronecker(SpecMonomial.symbolic(0, 1), sm(-1, -e), 5, 5),
        "pf": lambda e: pf_sum(sm(-1, e), 2, 5),
    }
    for name, build in builds.items():
        outcomes = set()
        for e in range(1, 80):
            made.clear()
            try:
                build(e)
                written = any(acc.num or acc.sym for acc in made)
                outcomes.add("written" if written else "built")
            except DivergentTailError:
                assert not any(acc.num or acc.sym for acc in made), (name, e)
                outcomes.add("refused")
        # some builds write terms, so the kept accumulators do see writes
        assert {"written", "refused"} <= outcomes, (name, outcomes)


def test_glam_pole_detection():
    with pytest.raises(PoleError):
        generalized_lambert(SpecMonomial.one(), sm(1, 0), 1, W_ONE, 0, 1, 10)
    # weight zero at the pole index silences it
    generalized_lambert(SpecMonomial.one(), sm(1, 0), 1, W_R, 0, 1, 10)


def test_l_func_example():
    l = l_func(sm(1, 2), 5, 4)
    assert series_dict(l) == {2: 1, 3: -1, 4: 1}


def test_l_func_boundary_negative_unit():
    # the two sums telescope: the r=1 flip constant -1/2 of the second sum
    # is all that survives, so l(-q^m) == 1/2 exactly
    l = l_func(sm(-1, 5), 5, 40)
    assert series_dict(l) == {0: Fraction(1, 2)}


def test_l_func_pole_and_constraint_errors():
    with pytest.raises(PoleError):
        l_func(sm(1, 5), 5, 10)
    with pytest.raises(ConstraintViolationError):
        l_func(sm(-1, 0), 5, 10)


def test_l_func_reflection():
    # swapping the two one-sided sums: l(b^-1 q^m) == -l(b)
    rng = random.Random("l-reflect")
    for _ in range(40):
        m = rng.randint(3, 9)
        beta = rng.randint(1, m - 1)
        symbolic = rng.random() < 0.3
        b = sym(1, beta) if symbolic else sm(rng.choice([1, -1]), beta)
        order = rng.randint(8, 30)
        total = l_func(b, m, order) + l_func(b.inv().times_qpow(m), m, order)
        assert total.is_zero(), (b, m)


def test_char_lambert_examples():
    chi1 = (0, 1, -1, 1, -1, -1, -1, 1, 1, 1, -1, 1, -1)
    chi3 = (0, 1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, 1)
    g1 = char_lambert(chi1, 1, 3)
    assert series_dict(g1) == {1: 1, 3: 2}
    g3 = char_lambert(chi3, 2, 3)
    assert series_dict(g3) == {1: 1, 2: 1, 3: 4}
    assert char_lambert((0,) * 13, 1, 10).is_zero()


def test_char_lambert_matches_direct_sum():
    chi2 = (0, 1, 1, 1, -1, 1, 1, -1, -1, 1, -1, -1, -1)
    order = 40
    g = char_lambert(chi2, 1, order)
    acc = {}
    for n in range(1, order + 1):
        for k in range(n, order + 1, n):
            acc[k] = acc.get(k, 0) + chi2[n % 13]
    assert series_dict(g) == {e: c for e, c in acc.items() if c}


def test_phi_minus_values():
    assert series_dict(phi_minus(1, 9)) == {0: 1, 1: -2, 4: 2, 9: -2}
    assert series_dict(phi_minus(7, 7)) == {0: 1, 7: -2}
    assert series_dict(phi_minus(1, 0)) == {0: 1}


def test_phi_identity_cross_multiplied():
    # (q^m; q^m) == phi_minus(m) * (-q^m; q^m)
    for m, order in ((1, 60), (2, 40), (7, 60)):
        lhs = poch_inf(sm(1, m), m, order)
        rhs = phi_minus(m, order) * poch_inf(sm(-1, m), m, order)
        ok, bad = lhs.eq_upto(rhs, order)
        assert ok, (m, bad)


def test_poch_inf_cache_is_bounded_and_its_series_stay_intact():
    from qidx.constructors import _poch_inf_cached

    assert _poch_inf_cached.cache_info().maxsize is not None
    x = sm(-1, 1)
    p = poch_inf(x, 3, 40)
    snapshot = list(p.coeffs)
    other = theta_sum(sm(1, 1), 3, 40)
    derived = [
        p + other,
        other + p,
        p - other,
        p * other,
        other * p,
        p * p,
        poch_fin(sm(1, 2), 1, 3, 40) * p,
        p.shifted(2) + p,
        p.truncate(10) + other,
        p.scale(Fraction(1, 2)) + p,
    ]
    assert all(not qs.is_zero() for qs in derived)
    assert p.coeffs == snapshot
    assert poch_inf(x, 3, 40) is p
    assert _poch_inf_cached.__wrapped__(x, 3, 40).coeffs == snapshot


# ---------------------------------------------------------------------------
# window stability
# ---------------------------------------------------------------------------


def test_window_doubling_stability():
    # a sum built to 2 * order + m and cut back to order is the sum built to
    # order: every index past a window's close lies wholly above it
    rng = random.Random("window-doubling")
    for _ in range(60):
        m = rng.randint(3, 9)
        alpha = rng.randint(1, m - 1)
        beta = rng.randint(1, m - 1)
        order = rng.randint(10, 40)
        sign_a = rng.choice([1, -1])
        sign_b = rng.choice([1, -1])
        a, b = sm(sign_a, alpha), sm(sign_b, beta)
        builds = [
            lambda k: theta_sum(a, m, k),
            lambda k: pf_sum(a, m, k),
            lambda k: jordan_kronecker(a, b, m, k),
            lambda k: jk_partial_a(a, b, m, k),
            lambda k: n_weighted_sum(a, b, m, k),
            lambda k: generalized_lambert(a, b, 2, W_R, 0, m, k),
            lambda k: l_func(b, m, k),
        ]
        for build in builds:
            small, big = build(order), build(2 * order + m).truncate(order)
            assert (big.offset, big.order, big.coeffs) == (
                small.offset, small.order, small.coeffs
            ), (a, b, m)
