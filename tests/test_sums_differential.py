"""Differential tests: the windowed sums built by direct coefficient
accumulation against the naive per-term references in ``naive_sums``, and
the canonical form of every series the trusted ``QSeries._raw`` path builds.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import naive_sums
from qidx import constructors as cons
from qidx.constructors import AffineWeight, SpecMonomial, W_ONE, W_R
from qidx.errors import (
    ConstraintViolationError,
    NonUnitLeadingError,
    PoleError,
    QidxError,
    RingMismatchError,
)
from qidx.exactalg import LaurentPoly
from qidx.qring import QSeries, RATIONAL, SYMBOLIC

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
    """A base scale, a truncation order, a pad and a ring choice."""
    m = draw(st.integers(2, 9))
    order = draw(st.integers(0, 70))
    pad = draw(st.integers(0, 4))
    ring = draw(st.sampled_from([None, None, RATIONAL, SYMBOLIC]))
    return m, order, pad, ring


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
    m, order, pad, ring = win
    z = unit(e)
    check_same(cons.theta_sum, naive_sums.theta_sum, z, m, order, ring, pad)
    if z.unit.symbolic:
        z = SpecMonomial(z.unit, 0)
    z = SpecMonomial(z.unit, abs(z.qexp))
    check_same(cons.pf_sum, naive_sums.pf_sum, z, m, order, cleared, ring, pad)


@SETTINGS
@given(windows(), units(), units(), st.data())
def test_bilateral_sums_match_naive(win, ua, ub, data):
    m, order, pad, ring = win
    a = ua(data.draw(st.integers(1, m - 1)))
    b = ub(data.draw(st.integers(-2 * m, 2 * m)))
    check_same(cons.jordan_kronecker, naive_sums.jordan_kronecker, a, b, m, order, ring, pad)
    if 0 < b.qexp < m:
        check_same(cons.jk_partial_a, naive_sums.jk_partial_a, a, b, m, order, ring, pad)
        check_same(cons.jk_partial_a, naive_sums.jk_partial_a, b, a, m, order, ring, pad)
    x = SpecMonomial(b.unit, abs(b.qexp) or m)
    check_same(cons.n_weighted_sum, naive_sums.n_weighted_sum, a, x, m, order, ring, pad)


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
    m, order, pad, ring = win
    M, x = um(max(mu, 1 - m)), ux(xi)
    args = (M, x, s, W, r0, m, order, ring, pad)
    check_same(cons.generalized_lambert, naive_sums.generalized_lambert, *args)


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


def naive_lambert_sum(terms, m, order, ring, pad):
    """Each term's naive generalized_lambert times c, added in term order."""
    if m < 1:
        raise ConstraintViolationError("base scale must be a positive integer")
    ring = ring or cons.infer_ring(*(y for t in terms for y in t[1:3]))
    total = QSeries.zero(ring, order)
    for c, M, x, s, W, r0 in terms:
        g = naive_sums.generalized_lambert(M, x, s, W, r0, m, order, ring, pad)
        total = total + g.scale(c)
    return total


@SETTINGS
@given(
    st.integers(1, 9),
    st.integers(0, 60),
    st.integers(0, 3),
    st.sampled_from([None, None, RATIONAL, SYMBOLIC]),
    st.lists(lambert_terms(), min_size=1, max_size=4),
)
def test_lambert_sum_matches_naive_term_sum(m, order, pad, ring, terms):
    check_same(cons.lambert_sum, naive_lambert_sum, terms, m, order, ring, pad)


def test_lambert_sum_reports_the_first_invalid_term():
    one, x = SpecMonomial.one(), SpecMonomial.signed(1, 1)
    pole = (1, one, SpecMonomial.signed(1, -5), 1, W_ONE, 0)
    cube = (1, one, x, 3, W_ONE, 0)
    good = (2, one, x, 2, W_R, 1)
    assert outcome(cons.lambert_sum, [good, pole, cube], 5, 20) is PoleError
    assert outcome(cons.lambert_sum, [good, cube, pole], 5, 20) is ConstraintViolationError
    assert outcome(cons.lambert_sum, [], 0, 20) is ConstraintViolationError


@SETTINGS
@given(units(), st.integers(-9, 9), st.sampled_from([1, 2]), st.integers(0, 40), st.booleans())
def test_expansions_match_naive(unit, g, s, order, symbolic_ring):
    v = unit(g)
    ring = SYMBOLIC if symbolic_ring else None
    check_same(cons.term_series, naive_sums.term_series, v, s, order, ring)
    check_same(cons.recip_series, naive_sums.recip_series, v, s, order, ring)


def test_symbolic_unit_in_rational_ring_is_a_ring_mismatch():
    a, b = SpecMonomial.symbolic(0, 1), SpecMonomial.signed(-1, 2)
    for fn in (cons.jordan_kronecker, naive_sums.jordan_kronecker):
        assert outcome(fn, a, b, 5, 20, RATIONAL) is RingMismatchError
    for fn in (cons.recip_series, naive_sums.recip_series):
        assert outcome(fn, a, 1, 20, RATIONAL) is RingMismatchError
        # only the j = 0 entry lies inside the window: nothing symbolic is built
        assert outcome(fn, SpecMonomial.symbolic(1, 30), 1, 20, RATIONAL)[0] == 0


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
# canonical form of the _raw-built arithmetic


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
    ring = SYMBOLIC if symbolic else RATIONAL
    offset = draw(st.integers(-3, 5))
    order = draw(st.integers(offset - 1, offset + 14))
    coeffs = [draw(coefficients(symbolic)) for _ in range(order - offset + 1)]
    return QSeries.make(ring, offset, coeffs, order)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_raw_built_ops_are_canonical(symbolic, data):
    x = data.draw(series(symbolic))
    y = data.draw(series(symbolic))
    c = data.draw(coefficients(symbolic))
    built = [x + y, x - y, y - x, x + x, x - x, x * y, y * x, x * x, x.scale(c)]
    built += [QSeries.const(x.ring, c, x.order), QSeries.monomial(x.ring, c, x.offset, x.order)]
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
    half = QSeries.make(RATIONAL, 0, [Fraction(1, 2), Fraction(1, 2), 1, 0, 2], 4)
    doubled = half + half
    assert doubled.coeffs == [1, 1, 2, 0, 4]
    assert all(type(c) is int for c in doubled.coeffs)
    ta = LaurentPoly.var(0)
    sym = QSeries.make(SYMBOLIC, 0, [ta, ta, 1, ta], 3)
    inv = QSeries.make(SYMBOLIC, 0, [ta ** -1, 0, 0, 0], 3)
    prod = sym * inv  # sparse path: tau_a * tau_a^-1 = 1
    assert prod.coeffs[0] == 1 and type(prod.coeffs[0]) is int
    assert (sym - sym).is_zero()


# ---------------------------------------------------------------------------
# the pad-doubling invariant at high order


@settings(max_examples=6, deadline=None)
@given(
    st.integers(3, 13),
    st.integers(400, 520),
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
    st.data(),
)
def test_window_doubling_at_high_order(m, order, sa, sb, data):
    a = SpecMonomial.signed(sa, data.draw(st.integers(1, m - 1)))
    b = SpecMonomial.signed(sb, data.draw(st.integers(1, m - 1)))
    pairs = [
        (cons.theta_sum(a, m, order), cons.theta_sum(a, m, order, pad=24)),
        (cons.pf_sum(a, m, order), cons.pf_sum(a, m, order, pad=24)),
        (cons.jordan_kronecker(a, b, m, order), cons.jordan_kronecker(a, b, m, order, pad=28)),
        (cons.jk_partial_a(a, b, m, order), cons.jk_partial_a(a, b, m, order, pad=28)),
        (cons.n_weighted_sum(a, b, m, order), cons.n_weighted_sum(a, b, m, order, pad=28)),
        (
            cons.generalized_lambert(a, b, 2, W_R, 0, m, order),
            cons.generalized_lambert(a, b, 2, W_R, 0, m, order, pad=28),
        ),
    ]
    for lhs, rhs in pairs:
        assert lhs.order == rhs.order == order
        ok, bad = lhs.eq_upto(rhs, order)
        assert ok, (a, b, m, bad)
