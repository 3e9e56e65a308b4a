"""Differential tests: the two ``QSeries.__mul__`` kernels (sparse term
product, packed scalar product), the Pochhammer products and the Newton
inverse against the naive per-coefficient product and inverse in
``naive_product``, and a check that no series operation mutates its
operands."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from naive_product import naive_inv, naive_mul
from qidx.constructors import SpecMonomial, Unit, poch_fin, poch_inf
from qidx.exactalg import MONO_ONE, LaurentPoly
from qidx.qring import QSeries, _pack, _packed_product, _term_product, _unpack

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def exact(qs):
    """The window and every coefficient with its exact type, tau-terms too."""
    coeffs = []
    for c in qs.coeffs:
        if isinstance(c, LaurentPoly):
            c = sorted((mono, type(v), v) for mono, v in c.terms.items())
        coeffs.append((type(c), c))
    return qs.offset, qs.order, coeffs


def snapshot(qs):
    """A deep copy of a series' coefficient storage, to detect mutation."""
    return [dict(c.terms) if isinstance(c, LaurentPoly) else c for c in qs.coeffs]


def check_product(x, y):
    before = (snapshot(x), snapshot(y))
    want = exact(naive_mul(x, y))
    assert exact(x * y) == want
    assert exact(y * x) == want
    assert (snapshot(x), snapshot(y)) == before


# ---------------------------------------------------------------------------
# strategies

# digits at the edge of one, two, three and eight packed bytes, and big values
_EDGES = [2**7 - 1, 2**15 - 1, 2**23 - 1, 2**63 - 1, 2**64 + 1]

scalars = st.one_of(
    st.sampled_from([1, -1, 2, -3]),
    st.integers(-(2**70), 2**70),
    st.sampled_from(_EDGES + [-e for e in _EDGES]),
    st.builds(
        Fraction, st.integers(-50, 50).filter(bool), st.sampled_from([2, 3, 4, 6, 9, 35])
    ),
)

monomials = st.tuples(*[st.integers(-3, 3)] * 4)


@st.composite
def coefficients(draw, symbolic):
    kind = draw(st.sampled_from(["zero", "scalar", "poly"] if symbolic else ["zero", "scalar"]))
    if kind == "zero":
        return 0
    if kind == "scalar":
        return draw(scalars)
    return LaurentPoly(draw(st.dictionaries(monomials, scalars, min_size=1, max_size=4)))


@st.composite
def series(draw, symbolic, max_len=24):
    offset = draw(st.integers(-4, 6))
    n = draw(st.integers(0, max_len))
    coeffs = [draw(coefficients(symbolic)) for _ in range(n)]
    return QSeries.make(offset, coeffs, offset + n - 1)


# ---------------------------------------------------------------------------
# the kernels against the naive product


@SETTINGS
@given(st.booleans(), st.data())
def test_product_matches_naive(symbolic, data):
    # independent offsets and lengths: the product window is cut short of the
    # longer operand, and the two sides have different denominators
    x = data.draw(series(symbolic))
    y = data.draw(series(symbolic))
    check_product(x, y)


@SETTINGS
@given(st.data())
def test_symbolic_times_scalar_rows_match_naive(data):
    # a series of scalars times one that may hold tau-coefficients: the
    # product goes to the term kernel only if either side carries a
    # tau-monomial
    x = data.draw(series(True))
    y = data.draw(series(False))
    check_product(x, y)


# halves and thirds, so products with the short side's 2, 3 and 6 and sums
# of two such products cancel to integers
fractional = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([2, 3]))
short_coefficients = st.one_of(
    st.sampled_from([1, -1, 2, -3, 6, Fraction(3, 2), Fraction(-2, 3)]),
    st.integers(-(2**70), 2**70).filter(bool),
    fractional,
)


@st.composite
def short_and_dense(draw):
    """A series with exactly one or two nonzero terms at any indices of its
    window, and a dense series whose window is sometimes shorter than the
    short side's last index."""
    length = draw(st.integers(1, 30))
    coeffs = [0] * length
    for i in draw(st.sets(st.integers(0, length - 1), min_size=1, max_size=2)):
        coeffs[i] = draw(short_coefficients)
    offset = draw(st.integers(-4, 6))
    # QSeries() keeps the integral Fractions that QSeries.make would make ints
    short = QSeries(offset, coeffs, offset + length - 1)
    n = draw(st.one_of(st.integers(1, 8), st.integers(20, 60)))
    values = st.one_of(scalars, fractional) if draw(st.booleans()) else scalars
    dense_coeffs = draw(st.lists(values, min_size=n, max_size=n))
    dense_offset = draw(st.integers(-4, 6))
    dense = QSeries.make(dense_offset, dense_coeffs, dense_offset + n - 1)
    return short, dense


@SETTINGS
@given(short_and_dense())
def test_short_side_product_matches_naive(pair):
    short, dense = pair
    check_product(short, dense)
    product = short * dense
    assert product.coeffs is not dense.coeffs and product.coeffs is not short.coeffs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([*range(1, 11), 16]), st.data())
def test_pack_round_trips_edge_digits(nbytes, data):
    # widths up to 8 bytes go through int64 words, wider ones digit by digit
    top = 2 ** (8 * nbytes - 1) - 1
    digit = st.one_of(st.sampled_from([top, -top, 0, 1, -1]), st.integers(-top, top))
    arr = data.draw(st.lists(digit, min_size=1, max_size=40))
    packed = _pack(arr, nbytes)
    assert packed == sum(a * 256 ** (nbytes * i) for i, a in enumerate(arr))
    assert _unpack(packed, len(arr), nbytes) == arr


@pytest.mark.parametrize(
    "n, m",
    # n*m is 2**(8k-1) - 1, the largest digit k bytes hold, or 2**(8k-1),
    # the smallest one that needs another byte; k = 7 and 8 meet the edge
    # between int64 words cut short, whole words and digit-by-digit bytes
    [
        (127, 1), (128, 1), (7, 4681), (8, 4096), (47, 178481), (64, 131072),
        (23, (2**55 - 1) // 23), (32, 2**50), (49, (2**63 - 1) // 49), (64, 2**57),
    ],
)
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_product_digit_at_the_width_edge(n, m, sign):
    x = QSeries.make(0, [sign * m] * n, n - 1)
    y = QSeries.make(0, [1] * n, n - 1)
    assert (x * y).coeffs[-1] == sign * n * m
    check_product(x, y)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), st.integers(2, 5), st.data())
def test_squares_and_powers_match_naive(symbolic, k, data):
    # x * x hands the kernel one coefficient list twice, which the packed
    # kernel packs once and squares; x ** k squares on its way, and with
    # leading zeros trimmed it knows the window of the plain repeated product
    x = data.draw(series(symbolic, max_len=16))
    before = snapshot(x)
    assert exact(x * x) == exact(naive_mul(x, x))
    power = x
    for _ in range(k - 1):
        power = naive_mul(power, x)
    assert exact(x**k) == exact(power)
    assert snapshot(x) == before


def test_packed_product_accepts_every_qseries_window():
    # the part of x inside the product window is all zero, so the width must
    # come from y's digits as well as from the product's; a series trims
    # such zeros, so only a direct call hands them to the kernel
    assert _packed_product([0, 0, 0, 1, 1, 1], [128, 1, 1], 3) == [0, 0, 0]
    x = QSeries(0, [0, 0, 0, 1, 1, 1], 5)
    check_product(x, QSeries.make(0, [128, 1, 1], 2))
    # an integral Fraction is not an int digit: it must be scaled too
    x = QSeries(0, [Fraction(2, 2), 3, 1], 2)
    check_product(x, QSeries.make(0, [5, 7, 1, 2], 3))


def test_term_product_accepts_every_qseries_window():
    # the part of y inside the product window is all zero, which only a
    # direct call can hand to the kernel
    td = LaurentPoly.var(3)
    assert _term_product([td**2], [0, td, 0], 1) == [0]
    y = QSeries(-1, [0, td, 0], 1)
    check_product(QSeries.make(2, [td**2], 2), y)
    check_product(y, y)


def test_full_cancellation_in_a_column():
    ta = LaurentPoly.var(0)
    # scalar, packed: (1 + q + q^2 + ...)(1 - q + q^5) cancels at q^1..q^4
    x = QSeries.make(0, [1] * 6, 5)
    y = QSeries.make(0, [1, -1, 0, 0, 0, 1], 5)
    assert (x * y).coeffs[:5] == [1, 0, 0, 0, 0]
    check_product(x, y)
    # symbolic: (ta + ta*q + ...)(1/ta - q/ta + ...) cancels at q^1
    x = QSeries.make(0, [ta, ta, Fraction(1, 2)], 2)
    y = QSeries.make(0, [ta ** -1, -(ta ** -1), 1], 2)
    prod = x * y
    assert prod.coeffs[:2] == [1, 0] and type(prod.coeffs[0]) is int
    check_product(x, y)


def test_products_leave_cached_pochhammer_series_intact():
    for unit in (SpecMonomial.signed(-1, 1), SpecMonomial.symbolic(0, 1)):
        p = poch_inf(unit, 3, 30)
        before = snapshot(p)
        p * p * poch_inf(unit, 3, 30)
        assert snapshot(poch_inf(unit, 3, 30)) == before == snapshot(p)


# ---------------------------------------------------------------------------
# Pochhammer products against a factor-by-factor reference


def naive_factors(x, m, n, order):
    """The product of the first n factors (1 - x q^{m i}), each made with
    ``QSeries.make`` and multiplied in with ``naive_mul``."""
    result = QSeries.const(1, order)
    for i in range(n):
        e = x.qexp + m * i
        if e > order:
            break
        coeffs = [1] + [0] * order
        coeffs[e] = coeffs[e] - x.unit.value()
        result = naive_mul(result, QSeries.make(0, coeffs, order))
    return result


# tau-units as the registry builds them: one symbol, its inverse (the second
# factor of poch_pair) or a product of several, such as a*b
tau_monomials = st.one_of(
    st.builds(lambda v, k: tuple(k if i == v else 0 for i in range(4)),
              st.integers(0, 3), st.sampled_from([1, -1])),
    st.tuples(*[st.sampled_from([-1, 0, 1])] * 4).filter(any),
)


@st.composite
def poch_arguments(draw):
    """An argument u*q^e with e >= 0 (half of them with a tau-unit u), a
    base 1..13 and an order, one in six of them 41..120 and a few below 0."""
    sign = draw(st.sampled_from([1, -1]))
    e = draw(st.integers(0, 8))
    mono = draw(tau_monomials) if draw(st.booleans()) else MONO_ONE
    order = draw(st.integers(41, 120) if draw(st.integers(0, 5)) == 5 else st.integers(-2, 40))
    return SpecMonomial(Unit(sign, mono), e), draw(st.integers(1, 13)), order


@settings(max_examples=200, deadline=None)
@given(poch_arguments(), st.integers(0, 12))
def test_pochhammer_products_match_factor_by_factor(args, n):
    x, m, order = args
    # the factors past q^order are 1 there: order + 1 of them cover every base
    assert exact(poch_inf(x, m, order)) == exact(naive_factors(x, m, order + 1, order))
    assert exact(poch_fin(x, n, m, order)) == exact(naive_factors(x, m, n, order))


# ---------------------------------------------------------------------------
# no operation mutates its operands


small = st.sampled_from([0, 1, -1, 2, Fraction(-1, 3)])
leads = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
# a tau-monomial in one variable, so that the coefficients of the inverse of
# a long window stay a few dozen terms wide
one_variable = st.builds(
    LaurentPoly.monomial, st.sampled_from([(1, 0, 0, 0), (-1, 0, 0, 0)]), small
)


@st.composite
def unit_leading(draw, symbolic):
    """A series whose lowest coefficient is invertible: +-1, 2, 1/2, -3/2
    or, if ``symbolic``, maybe a +-tau-monomial, then a window of 1-8 or
    20-60 terms that may start with zeros.  Its coefficients stay small,
    since an inverse's coefficients swell."""
    lead = draw(leads)
    n = draw(st.one_of(st.integers(1, 8), st.integers(20, 60)))
    coefficient = small
    if symbolic:
        if draw(st.booleans()):
            lead = LaurentPoly.monomial(draw(monomials), draw(st.sampled_from([1, -1])))
        if n <= 8:
            coefficient = st.one_of(small, st.builds(LaurentPoly.monomial, monomials, small))
        else:
            coefficient = st.one_of(small, small, one_variable)
    gap = draw(st.integers(0, n - 1))
    tail = draw(st.lists(coefficient, min_size=n - 1 - gap, max_size=n - 1 - gap))
    offset = draw(st.integers(-4, 6))
    return QSeries.make(offset, [lead] + [0] * gap + tail, offset + n - 1)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), st.integers(1, 3), st.data())
def test_inverse_and_negative_powers_match_naive(symbolic, k, data):
    # Newton's steps reach the packed kernel and, with tau-monomials, the
    # term product
    x = data.draw(unit_leading(symbolic))
    before = snapshot(x)
    inverse = naive_inv(x)
    assert exact(x.inv()) == exact(inverse)
    power = inverse
    for _ in range(k - 1):
        power = naive_mul(power, inverse)
    assert exact(x ** -k) == exact(power)
    assert snapshot(x) == before


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), st.data())
def test_series_operations_leave_their_operands_intact(symbolic, data):
    x = data.draw(series(symbolic))
    y = data.draw(series(symbolic))
    u = data.draw(unit_leading(symbolic))
    c = data.draw(scalars)
    k = data.draw(st.integers(-6, 30))
    power = data.draw(st.integers(0, 3))
    operations = [
        lambda: x + y,
        lambda: x - y,
        lambda: -x,
        lambda: x.scale(c),
        lambda: x.shifted(k),
        lambda: x.truncate(k),
        lambda: u.inv(),
        lambda: x ** power,
        lambda: u ** -power,
        lambda: x.eq_upto(y, min(x.order, y.order)),
    ]
    before = [snapshot(s) for s in (x, y, u)]
    for op in operations:
        op()
        assert [snapshot(s) for s in (x, y, u)] == before
