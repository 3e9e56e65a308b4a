"""Differential tests: the windowed sums built by direct coefficient
accumulation against the naive per-term references in ``naive_sums``, and
the canonical form of every series the trusted ``QSeries()`` constructor
builds.
"""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import naive_sums
from qidx import constructors as cons
from qidx.constructors import AffineWeight, SpecMonomial, W_ONE, W_R
from qidx.errors import (
    ConstraintViolationError,
    NonUnitLeadingError,
    PoleError,
    QidxError,
)
from qidx.exactalg import LaurentPoly
from qidx.qring import QSeries

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def outcome(fn, *args, **kwargs):
    """The series as (offset, order, exact coefficients), or the error type."""
    try:
        qs = fn(*args, **kwargs)
    except (QidxError, ValueError) as exc:
        return type(exc)
    return qs.offset, qs.order, [(type(c), c) for c in qs.coeffs]


def assert_canonical(qs):
    assert len(qs.coeffs) == qs.order - qs.offset + 1 or not qs.coeffs
    if qs.coeffs:
        assert qs.coeffs[0], "leading zero"
    for c in qs.coeffs:
        assert not (isinstance(c, Fraction) and c.denominator == 1), c
        if isinstance(c, LaurentPoly):
            assert c.constant_value() is None, c
            assert all(
                not (isinstance(v, Fraction) and v.denominator == 1) and v != 0
                for v in c.terms.values()
            ), c


def check_same(new_fn, naive_fn, *args, **kwargs):
    got = outcome(new_fn, *args, **kwargs)
    assert got == outcome(naive_fn, *args, **kwargs)
    if not isinstance(got, type):
        assert_canonical(new_fn(*args, **kwargs))


# ---------------------------------------------------------------------------
# strategies


@st.composite
def units(draw):
    """A sign or a signed symbolic unit, as a function of the q-order."""
    sign = draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        var = draw(st.integers(0, 3))
        return lambda e: SpecMonomial.symbolic(var, e, sign)
    return lambda e: SpecMonomial.signed(sign, e)


@st.composite
def windows(draw):
    """A base scale, a truncation order and a pad: the indices the naive
    reference walks past each close, which must not move its result."""
    m = draw(st.integers(2, 9))
    order = draw(st.integers(0, 70))
    pad = draw(st.integers(0, 4))
    return m, order, pad


weights = st.builds(
    AffineWeight,
    st.sampled_from([0, 1, -2, Fraction(1, 2)]),
    st.sampled_from([0, 1, Fraction(-3, 2)]),
)


# ---------------------------------------------------------------------------
# sums against the naive reference


@SETTINGS
@given(windows(), units(), st.integers(-6, 8), st.booleans())
def test_theta_and_pf_match_naive(win, unit, e, cleared):
    m, order, pad = win
    z = unit(e)
    check_same(cons.theta_sum, partial(naive_sums.theta_sum, pad=pad), z, m, order)
    if z.unit.symbolic:
        z = SpecMonomial(z.unit, 0)
    z = SpecMonomial(z.unit, abs(z.qexp))
    check_same(cons.pf_sum, partial(naive_sums.pf_sum, pad=pad), z, m, order, cleared)


@SETTINGS
@given(windows(), units(), units(), st.data())
def test_bilateral_sums_match_naive(win, ua, ub, data):
    m, order, pad = win
    a = ua(data.draw(st.integers(1, m - 1)))
    b = ub(data.draw(st.integers(-2 * m, 2 * m)))
    check_same(cons.jordan_kronecker, partial(naive_sums.jordan_kronecker, pad=pad), a, b, m, order)
    if 0 < b.qexp < m:
        check_same(cons.jk_partial_a, partial(naive_sums.jk_partial_a, pad=pad), a, b, m, order)
        check_same(cons.jk_partial_a, partial(naive_sums.jk_partial_a, pad=pad), b, a, m, order)
    x = SpecMonomial(b.unit, abs(b.qexp) or m)
    check_same(cons.n_weighted_sum, partial(naive_sums.n_weighted_sum, pad=pad), a, x, m, order)


@SETTINGS
@given(
    windows(),
    units(),
    units(),
    st.integers(-2, 6),
    st.integers(-12, 12),
    st.sampled_from([1, 2]),
    weights,
    st.sampled_from([0, 1]),
)
def test_generalized_lambert_matches_naive(win, um, ux, mu, xi, s, W, r0):
    m, order, pad = win
    M, x = um(max(mu, 1 - m)), ux(xi)
    args = (M, x, s, W, r0, m, order)
    check_same(cons.generalized_lambert, partial(naive_sums.generalized_lambert, pad=pad), *args)


@st.composite
def lambert_terms(draw):
    """One lambert_sum term (c, M, x, s, W, r0); about one in six is out of
    range in s, r0 or the slope ord(M) + m."""
    c = draw(st.sampled_from([1, 1, -1, 2, -3, 0, Fraction(1, 2), Fraction(-3, 4)]))
    M = draw(units())(draw(st.sampled_from([-1, 0, 1, 2, 5] * 3 + [-12])))
    x = draw(units())(draw(st.integers(-12, 12)))
    s = draw(st.sampled_from([1, 2] * 12 + [3]))
    r0 = draw(st.sampled_from([0, 1] * 12 + [2]))
    return c, M, x, s, draw(weights), r0


def naive_lambert_sum(terms, m, order, pad):
    """Each term's naive generalized_lambert times c, added in term order."""
    if m < 1:
        raise ConstraintViolationError("base scale must be a positive integer")
    total = QSeries.zero(order)
    for c, M, x, s, W, r0 in terms:
        g = naive_sums.generalized_lambert(M, x, s, W, r0, m, order, pad)
        total = total + g.scale(c)
    return total


@SETTINGS
@given(
    st.integers(1, 9),
    st.integers(0, 60),
    st.integers(0, 3),
    st.lists(lambert_terms(), min_size=1, max_size=4),
)
# a zero coefficient still walks its term's window, tau-unit included
@example(
    m=2, order=1, pad=0,
    terms=[(0, SpecMonomial.signed(1, -1), SpecMonomial.symbolic(0, 0), 1, W_ONE, 1)],
)
def test_lambert_sum_matches_naive_term_sum(m, order, pad, terms):
    check_same(cons.lambert_sum, partial(naive_lambert_sum, pad=pad), terms, m, order)


# ---------------------------------------------------------------------------
# the integer walker at its edges: signed units, a g = 0 index, pad, r0


signs = st.sampled_from([1, -1])
fraction_weights = st.builds(
    AffineWeight,
    st.sampled_from([0, 1, Fraction(1, 2), Fraction(-2, 3)]),
    st.sampled_from([1, Fraction(-3, 2), Fraction(1, 3)]),
)


@SETTINGS
@given(
    st.integers(1, 7),
    st.integers(0, 40),
    st.integers(0, 3),
    signs,
    signs,
    st.integers(-1, 3),
    st.integers(0, 3),
    st.sampled_from([1, 2]),
    fraction_weights,
    st.sampled_from([0, 1]),
)
# r = j = 2 has g = 0 with unit -1 (the constant -1/4), after two indices
# with g < 0; s = 2 under the ratio -1 of M, with a Fraction weight
@example(
    m=3, order=30, pad=0, sM=-1, sx=-1, mu=1, j=2, s=2,
    W=AffineWeight(Fraction(1, 2), 1), r0=0,
)
@example(
    m=2, order=25, pad=3, sM=-1, sx=-1, mu=0, j=1, s=1,
    W=AffineWeight(1, Fraction(-3, 2)), r0=1,
)
def test_signed_lambert_window_edges_match_naive(m, order, pad, sM, sx, mu, j, s, W, r0):
    # x = sx q^(-m j): r = j has g = 0, a pole unless sx = -1 or W(j) = 0
    M = SpecMonomial.signed(sM, max(mu, 1 - m))
    x = SpecMonomial.signed(sx, -m * j)
    args = (M, x, s, W, r0, m, order)
    check_same(cons.generalized_lambert, partial(naive_sums.generalized_lambert, pad=pad), *args)
    terms = [(Fraction(-3, 2), M, x, s, W, r0), (2, M, SpecMonomial.signed(-sx, 1 - m * j), s, W, r0)]
    check_same(cons.lambert_sum, partial(naive_lambert_sum, pad=pad), terms, m, order)


@SETTINGS
@given(
    st.integers(2, 9), st.integers(0, 50), st.integers(0, 3), signs, signs,
    st.integers(1, 8), st.integers(-3, 3),
)
# g = 0 at n = -j: j = 2 puts it on the backward walk, j = -1 on the forward one
@example(m=4, order=40, pad=0, sa=-1, sb=-1, ea=1, j=2)
@example(m=3, order=40, pad=3, sa=1, sb=-1, ea=2, j=-1)
def test_signed_bilateral_window_edges_match_naive(m, order, pad, sa, sb, ea, j):
    ea = 1 + (ea - 1) % (m - 1)
    a = SpecMonomial.signed(sa, ea)
    b = SpecMonomial.signed(sb, m * j)
    check_same(cons.jordan_kronecker, partial(naive_sums.jordan_kronecker, pad=pad), a, b, m, order)
    x = SpecMonomial.signed(sb, m * abs(j) or m)
    check_same(cons.n_weighted_sum, partial(naive_sums.n_weighted_sum, pad=pad), a, x, m, order)
    # s = 2: the ratio of b q^m is the sign of b
    c = SpecMonomial.signed(sb, m - ea)
    check_same(cons.jk_partial_a, partial(naive_sums.jk_partial_a, pad=pad), a, c, m, order)


@SETTINGS
@given(st.integers(1, 7), st.integers(-1, 40), st.integers(0, 3), signs, st.integers(0, 3),
       st.integers(0, 6), st.booleans())
# e = m j: n = -j has g = 0, at n = 0 (skipped when cleared) or on the backward walk
@example(m=3, order=30, pad=0, sz=-1, j=0, de=0, cleared=False)
@example(m=3, order=30, pad=2, sz=-1, j=2, de=0, cleared=True)
def test_signed_pf_window_edges_match_naive(m, order, pad, sz, j, de, cleared):
    z = SpecMonomial.signed(sz, m * j + de)
    check_same(cons.pf_sum, partial(naive_sums.pf_sum, pad=pad), z, m, order, cleared)


def test_signed_windows_without_a_zero_index_take_the_integer_path(monkeypatch):
    # every unit a sign and no index with ord(v) = 0: no term may go
    # through the per-coefficient path, so the tests above drive the slices
    def refuse(*args):
        raise AssertionError("a signed window wrote a term through add_term")

    monkeypatch.setattr(cons._Acc, "add_term", refuse)
    q = SpecMonomial.signed
    half = AffineWeight(Fraction(1, 2), 1)
    # each case's last number is the pad of the naive reference
    cases = [
        (cons.generalized_lambert, naive_sums.generalized_lambert,
         (q(-1, 1), q(-1, -7), 2, half, 0, 3, 40), 2),
        (cons.generalized_lambert, naive_sums.generalized_lambert,
         (q(1, -1), q(-1, 2), 1, W_R, 1, 4, 40), 0),
        (cons.jordan_kronecker, naive_sums.jordan_kronecker, (q(-1, 2), q(1, -7), 5, 40), 3),
        (cons.jk_partial_a, naive_sums.jk_partial_a, (q(1, 1), q(-1, 3), 5, 40), 1),
        (cons.n_weighted_sum, naive_sums.n_weighted_sum, (q(-1, 3), q(-1, 4), 5, 40), 2),
        (cons.pf_sum, naive_sums.pf_sum, (q(-1, 2), 3, 40, True), 1),
        (cons.pf_sum, naive_sums.pf_sum, (q(1, 4), 3, 40, False), 0),
    ]
    for new_fn, naive_fn, args, pad in cases:
        got = new_fn(*args)
        assert not got.is_zero()
        assert outcome(new_fn, *args) == outcome(naive_fn, *args, pad=pad), new_fn.__name__


def test_lambert_sum_reports_the_first_invalid_term():
    one, x = SpecMonomial.one(), SpecMonomial.signed(1, 1)
    pole = (1, one, SpecMonomial.signed(1, -5), 1, W_ONE, 0)
    cube = (1, one, x, 3, W_ONE, 0)
    good = (2, one, x, 2, W_R, 1)
    assert outcome(cons.lambert_sum, [good, pole, cube], 5, 20) is PoleError
    assert outcome(cons.lambert_sum, [good, cube, pole], 5, 20) is ConstraintViolationError
    assert outcome(cons.lambert_sum, [], 0, 20) is ConstraintViolationError


@SETTINGS
@given(units(), st.integers(-9, 9), st.sampled_from([1, 2]), st.integers(0, 40))
# a tau-unit whose expansion runs through the window, and one of which only
# the j = 0 term of 1/(1-v) lies inside it
@example(unit=lambda e: SpecMonomial.symbolic(0, e), g=1, s=1, order=20)
@example(unit=lambda e: SpecMonomial.symbolic(1, e), g=30, s=1, order=20)
def test_expansions_match_naive(unit, g, s, order):
    v = unit(g)
    check_same(cons.term_series, naive_sums.term_series, v, s, order)
    check_same(cons.recip_series, naive_sums.recip_series, v, s, order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 13), st.integers(-1, 90))
def test_phi_minus_matches_a_direct_sum(m, order):
    # the sum over every integer n of (-1)^n q^{m n^2}, written into a dict
    want = {}
    n = 0
    while m * n * n <= order:
        for k in {n, -n}:
            want[m * k * k] = want.get(m * k * k, 0) + (-1 if k % 2 else 1)
        n += 1
    coeffs = [want.get(e, 0) for e in range(order + 1)]
    expected = QSeries.make(0, coeffs, order)
    check_same(cons.phi_minus, lambda *args: expected, m, order)


def test_pf_sum_keeps_a_negative_order():
    # The per-term reference loses order here (a vanishing (1 - z) factor
    # multiplies an empty term window); the accumulator keeps the request.
    qs = cons.pf_sum(SpecMonomial.signed(1, 0), 3, -2)
    assert qs.is_zero() and qs.order == -2


def test_glam_rejects_a_third_power():
    with pytest.raises(ConstraintViolationError):
        cons.generalized_lambert(
            SpecMonomial.one(), SpecMonomial.signed(1, 1), 3, W_ONE, 0, 1, 10
        )


# ---------------------------------------------------------------------------
# canonical form of the arithmetic built through QSeries()


_MONOS = [(0, 0, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0)]

scalars = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])


@st.composite
def coefficients(draw, symbolic):
    if symbolic and draw(st.booleans()):
        terms = {mono: draw(scalars) for mono in draw(st.sets(st.sampled_from(_MONOS)))}
        return LaurentPoly(terms)
    return draw(scalars)


@st.composite
def series(draw, symbolic):
    offset = draw(st.integers(-3, 5))
    order = draw(st.integers(offset - 1, offset + 14))
    coeffs = [draw(coefficients(symbolic)) for _ in range(order - offset + 1)]
    return QSeries.make(offset, coeffs, order)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_raw_built_ops_are_canonical(symbolic, data):
    x = data.draw(series(symbolic))
    y = data.draw(series(symbolic))
    c = data.draw(coefficients(symbolic))
    built = [x + y, x - y, y - x, x + x, x - x, x * y, y * x, x * x, x.scale(c)]
    built += [QSeries.const(c, x.order), QSeries.monomial(c, x.offset, x.order)]
    try:
        built.append(x.inv())
    except NonUnitLeadingError:
        pass
    for qs in built:
        assert_canonical(qs)
    # the same values as coefficient-wise arithmetic checked through make
    total = x + y
    for e in range(min(x.offset, y.offset), total.order + 1):
        assert total.coeff(e) == x.coeff(e) + y.coeff(e)


def test_raw_ops_canonicalize_cancellation():
    half = QSeries.make(0, [Fraction(1, 2), Fraction(1, 2), 1, 0, 2], 4)
    doubled = half + half
    assert doubled.coeffs == [1, 1, 2, 0, 4]
    assert all(type(c) is int for c in doubled.coeffs)
    ta = LaurentPoly.var(0)
    sym = QSeries.make(0, [ta, ta, 1, ta], 3)
    inv = QSeries.make(0, [ta ** -1, 0, 0, 0], 3)
    prod = sym * inv  # sparse path: tau_a * tau_a^-1 = 1
    assert prod.coeffs[0] == 1 and type(prod.coeffs[0]) is int
    assert (sym - sym).is_zero()


# ---------------------------------------------------------------------------
# the order-extension invariant at high order


@settings(max_examples=6, deadline=None)
@given(
    st.integers(3, 13),
    st.integers(400, 520),
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
    st.data(),
)
def test_window_doubling_at_high_order(m, order, sa, sb, data):
    # built to 2 * order + m and cut back to order, each sum is the one built
    # to order, in window and exact coefficients
    a = SpecMonomial.signed(sa, data.draw(st.integers(1, m - 1)))
    b = SpecMonomial.signed(sb, data.draw(st.integers(1, m - 1)))
    builds = [
        lambda k: cons.theta_sum(a, m, k),
        lambda k: cons.pf_sum(a, m, k),
        lambda k: cons.jordan_kronecker(a, b, m, k),
        lambda k: cons.jk_partial_a(a, b, m, k),
        lambda k: cons.n_weighted_sum(a, b, m, k),
        lambda k: cons.generalized_lambert(a, b, 2, W_R, 0, m, k),
    ]
    for build in builds:
        got = outcome(lambda k: build(k).truncate(order), 2 * order + m)
        assert not isinstance(got, type) and got == outcome(build, order), (a, b, m, got)
