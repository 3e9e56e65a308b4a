"""Differential tests: the two chain kernels behind ``QSeries.__mul__``
and ``qring.product`` (sparse term chain, its square step, packed scalar
chain), the Pochhammer products and the one-pass pair (sign and tau units),
the Newton inverse and series division against the naive per-coefficient
product and inverse in ``naive_product``, and a check that no series
operation mutates its operands."""

import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from naive_product import naive_inv, naive_mul, naive_poch
from qidx import qring
from qidx.constructors import SpecMonomial, Unit, poch_fin, poch_inf, poch_pair
from qidx.errors import ConstraintViolationError, NegativeOrderArgumentError, NonUnitLeadingError
from qidx.exactalg import MONO_ONE, LaurentPoly, coerce, inverse
from qidx.qring import QSeries, _pack, _scalar_chain, _term_chain, _unpack

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def exact_coeffs(coeffs):
    """Every coefficient with its exact type, tau-terms too."""
    out = []
    for c in coeffs:
        if isinstance(c, LaurentPoly):
            c = sorted((mono, type(v), v) for mono, v in c.terms.items())
        out.append((type(c), c))
    return out


def exact(qs):
    """The window and every coefficient with its exact type, tau-terms too."""
    return qs.offset, qs.order, exact_coeffs(qs.coeffs)


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


def alternated(x):
    """x with every odd-index coefficient negated: the odd columns of x
    times this series cancel to 0."""
    return QSeries.make(x.offset, [-c if i % 2 else c for i, c in enumerate(x.coeffs)], x.order)


@st.composite
def chains(draw):
    """1-5 factors, each of scalars and Fractions or also of tau-polynomials,
    at offsets -4..6, some of them empty; now and then one factor is another
    one alternated, so that columns of the chain cancel to 0, or that other
    one itself, which the scalar kernel squares when it is the first two."""
    count = draw(st.integers(1, 5))
    factors = [draw(series(draw(st.booleans()), max_len=10)) for _ in range(count)]
    if count > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(count)))[:2]
        factors[j] = draw(st.sampled_from([alternated, lambda f: f]))(factors[i])
    return factors


@SETTINGS
@given(chains())
def test_product_of_a_chain_matches_the_naive_fold(factors):
    # with a tau-coefficient anywhere, one chain kernel multiplies every
    # factor; the result has the window and storage types of the plain fold
    before = [snapshot(f) for f in factors]
    calls, real = [], qring._term_chain
    qring._term_chain = lambda windows, n: calls.append(len(windows)) or real(windows, n)
    try:
        got = exact(qring.product(*factors))
    finally:
        qring._term_chain = real
    if all(f.coeffs for f in factors):
        tau = any(type(c) is LaurentPoly for f in factors for c in f.coeffs)
        assert calls == ([len(factors)] if tau else [])
    assert got == exact(reduce(naive_mul, factors))
    assert got == exact(reduce(operator.mul, factors))
    assert [snapshot(f) for f in factors] == before


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
    assert _scalar_chain([x.coeffs, y.coeffs], n)[-1] == sign * n * m
    check_product(x, y)
    # as the first step of a chain of three, and as a square
    for chain in ([x.coeffs, y.coeffs, y.coeffs], [x.coeffs, x.coeffs]):
        assert _scalar_chain(chain, n) == naive_window_chain(chain, n)


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
    assert _scalar_chain([[0, 0, 0, 1, 1, 1], [128, 1, 1]], 3) == [0, 0, 0]
    x = QSeries(0, [0, 0, 0, 1, 1, 1], 5)
    check_product(x, QSeries.make(0, [128, 1, 1], 2))
    # an integral Fraction is not an int digit: it must be scaled too
    x = QSeries(0, [Fraction(2, 2), 3, 1], 2)
    check_product(x, QSeries.make(0, [5, 7, 1, 2], 3))


def naive_window_chain(windows, out_len):
    """The first out_len coefficients of the product of windows at q^0, by
    ``reduce`` over ``naive_mul``; each window is padded with zeros to a
    length that the product window does not pass."""
    n = max(out_len, *map(len, windows))
    prod = reduce(naive_mul, (QSeries(0, w + [0] * (n - len(w)), n - 1) for w in windows))
    return [prod.coeff(k) for k in range(out_len)]


# Fractions over denominators that differ between windows, and digits at the
# edges of the packed widths
chain_scalars = st.one_of(
    st.integers(-9, 9),
    st.sampled_from(_EDGES + [-e for e in _EDGES]),
    st.builds(Fraction, st.integers(-50, 50), st.sampled_from([2, 3, 4, 5, 7, 9, 35])),
).map(coerce)


@st.composite
def scalar_chains(draw):
    """2-5 scalar windows of 1-12 coefficients and a product window no
    longer than the shortest; one window in five is all zero inside the
    product window, and now and then a window comes twice as one list,
    which the kernel squares when it is the first two."""
    count = draw(st.integers(2, 5))
    windows = [draw(st.lists(chain_scalars, min_size=1, max_size=12)) for _ in range(count)]
    out_len = draw(st.integers(1, min(map(len, windows))))
    if draw(st.integers(0, 4)) == 0:
        w = windows[draw(st.integers(0, count - 1))]
        w[:out_len] = [0] * out_len
    if draw(st.booleans()):
        i, j = sorted(draw(st.permutations(range(count)))[:2])
        windows[j] = windows[i]
    return windows, out_len


@SETTINGS
@given(scalar_chains())
def test_scalar_chain_matches_the_naive_fold(chain):
    windows, out_len = chain
    before = [list(w) for w in windows]
    got = _scalar_chain(windows, out_len)
    assert exact_coeffs(got) == exact_coeffs(naive_window_chain(windows, out_len))
    assert_storage_form(got)
    assert [list(w) for w in windows] == before


def test_term_chain_accepts_every_qseries_window():
    # the part of y inside the product window is all zero, which only a
    # direct call can hand to the kernel
    td = LaurentPoly.var(3)
    assert _term_chain([[td**2], [0, td, 0]], 1) == [0]
    y = QSeries(-1, [0, td, 0], 1)
    check_product(QSeries.make(2, [td**2], 2), y)
    check_product(y, y)


# ---------------------------------------------------------------------------
# the term kernel called directly, against the naive product


def naive_window_product(x, y, out_len):
    """The first out_len coefficients of the product of two windows, from
    ``naive_mul`` of the two as series at q^0, both padded with zeros to a
    length that the product window does not pass."""
    n = max(len(x), len(y), out_len)
    prod = naive_mul(*(QSeries(0, w + [0] * (n - len(w)), n - 1) for w in (x, y)))
    return [prod.coeff(k) for k in range(out_len)]


def assert_storage_form(window):
    """Every coefficient is a nonzero-term LaurentPoly that is not constant,
    an int, or a Fraction that is not integral."""
    for c in window:
        if isinstance(c, LaurentPoly):
            assert c.constant_value() is None, c
            for v in c.terms.values():
                assert v and (type(v) is int or (type(v) is Fraction and v.denominator > 1))
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def check_term_chain(x, y, out_len):
    got = _term_chain([x, y], out_len)
    assert len(got) == out_len
    assert_storage_form(got)
    assert exact_coeffs(got) == exact_coeffs(naive_window_product(x, y, out_len))
    # the kernel walks the side with fewer terms outside: both orders agree
    assert exact_coeffs(_term_chain([y, x], out_len)) == exact_coeffs(got)
    return got


integers = st.sampled_from([1, -1, 2, -3, 5]) | st.integers(-(2**40), 2**40).filter(bool)
proper_fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 4, 6])).filter(
    lambda f: f.denominator > 1
)
# every variable reaches negative exponents
negative_monomials = st.tuples(*[st.integers(-4, 2)] * 4)


@st.composite
def term_windows(draw, length, fraction):
    """A window of ``length`` coefficients in storage form: zeros, scalars
    and polynomials of up to four terms; with ``fraction``, at least one
    coefficient is a Fraction that is not integral."""
    values = st.one_of(integers, proper_fractions) if fraction else integers
    coefficient = st.one_of(
        st.just(0),
        values,
        st.dictionaries(negative_monomials, values, min_size=1, max_size=4).map(
            lambda terms: coerce(LaurentPoly(terms))
        ),
    )
    window = draw(st.lists(coefficient, min_size=length, max_size=length))
    if fraction:
        window[draw(st.integers(0, length - 1))] = draw(proper_fractions)
    return window


@pytest.mark.parametrize("fraction_sides", [(False, False), (True, False), (True, True)])
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_term_kernel_matches_a_naive_convolution(fraction_sides, data):
    # one side long and the other short, in either order, and a product
    # window that may be shorter than either side or longer than both
    long_len = data.draw(st.integers(6, 30))
    short_len = data.draw(st.integers(1, 3))
    x = data.draw(term_windows(long_len, fraction_sides[0]))
    y = data.draw(term_windows(short_len, fraction_sides[1]))
    if data.draw(st.booleans()):
        x, y = y, x
    out_len = data.draw(st.integers(1, long_len + short_len + 2))
    check_term_chain(x, y, out_len)


def check_term_square(x, out_len):
    """[x, x] (one window object) takes the square path of the pair loop,
    [x, list(x)] the plain one: both match the naive product."""
    got = _term_chain([x, x], out_len)
    assert_storage_form(got)
    want = exact_coeffs(naive_window_product(x, x, out_len))
    assert exact_coeffs(got) == exact_coeffs(_term_chain([x, list(x)], out_len)) == want
    return got


@pytest.mark.parametrize("fraction", [False, True])
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_term_square_matches_the_plain_product(fraction, data):
    # out_len odd or even, down to 1, and past the window; the diagonal of
    # a term at index i falls inside only if 2i < out_len
    length = data.draw(st.integers(1, 14))
    x = data.draw(term_windows(length, fraction))
    check_term_square(x, data.draw(st.integers(1, 2 * length + 1)))
    # a square as the first step of a longer chain
    y = data.draw(term_windows(data.draw(st.integers(1, 6)), False))
    out_len = data.draw(st.integers(1, length))
    assert exact_coeffs(_term_chain([x, x, y], out_len)) == exact_coeffs(
        naive_window_chain([x, x, y], out_len)
    )
    # through the dispatch, and cubed by square-and-multiply
    offset = data.draw(st.integers(-3, 3))
    s = QSeries(offset, x, offset + length - 1)
    assert exact(qring.product(s, s)) == exact(naive_mul(s, s))
    assert exact(s**3) == exact(naive_mul(naive_mul(s, s), s))


@pytest.mark.parametrize("out_len", [1, 2, 3, 4, 5])
def test_term_square_skips_diagonals_past_the_window(out_len):
    # terms at indices 0, 2 and 3, two of them in one column: at out_len 3,
    # 4 and 5 a term lies inside the window while its square lies outside
    t, u = LaurentPoly.monomial((1, 0, 0, 0)), LaurentPoly.monomial((0, -2, 1, 0), 3)
    x = [t, 0, t + u, Fraction(-1, 2) * u, 0]
    check_term_square(x, out_len)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 8), st.data())
def test_term_kernel_of_an_all_zero_window_is_zero(nx, ny, out_len, data):
    x = [0] * nx
    if nx >= out_len and data.draw(st.booleans()):
        # a nonzero term past the product window
        x.append(LaurentPoly.var(data.draw(st.integers(0, 3)), -2))
    y = data.draw(term_windows(ny, data.draw(st.booleans())) | st.just([0] * ny))
    assert check_term_chain(x, y, out_len) == [0] * out_len


unit_coefficients = st.builds(
    LaurentPoly.monomial, negative_monomials, st.sampled_from([1, -1, 2, Fraction(1, 3)])
).map(coerce)
scalars_or_zero = integers | proper_fractions | st.just(0)
polys = st.dictionaries(
    negative_monomials, integers | proper_fractions, min_size=1, max_size=3
).map(lambda terms: coerce(LaurentPoly(terms)))


@settings(max_examples=150, deadline=None)
@given(unit_coefficients, polys, polys, scalars_or_zero, st.integers(2, 4))
def test_term_kernel_columns_cancel_to_zero_and_to_a_bare_scalar(p, q, r, k, out_len):
    # (p + q t)(p - q t) has 0 at t^1, and (p + q t)(r + s t) with
    # s = (k - q r) / p has the scalar k there
    zero = check_term_chain([p, q], [p, -q], out_len)[1]
    assert zero == 0 and type(zero) is int
    s = coerce((k - q * r) * inverse(p))
    column = check_term_chain([p, q], [r, s], out_len)[1]
    assert column == k and type(column) is type(coerce(k))


def test_term_kernel_with_negative_exponents_in_every_variable():
    inv = [LaurentPoly.var(v, -3) for v in range(4)]
    x = [inv[0] * inv[1], Fraction(1, 2), inv[2] + inv[3], 0, inv[0] * inv[3]]
    y = [LaurentPoly.var(1, 2) + 1, inv[2] * inv[2]]
    got = check_term_chain(x, y, 5)
    assert got[0].terms == {(-3, -1, 0, 0): 1, (-3, -3, 0, 0): 1}
    assert check_term_chain(x, y, 2)[1] == got[1]


def test_term_kernel_scales_an_integral_fraction_to_an_int():
    # no canonical window holds an integral Fraction, so only a direct call
    # hands one to the kernel; it is scaled to an int like any coefficient
    # (skipping the scaling when the common denominator is 1 gives Fraction(6, 1))
    ta2 = LaurentPoly._raw({(1, 0, 0, 0): Fraction(2, 1)})
    got = _term_chain([[ta2], [Fraction(3, 1)]], 1)
    assert type(got[0]) is LaurentPoly and got[0].terms == {(1, 0, 0, 0): 6}
    assert_storage_form(got)
    got = _term_chain([[Fraction(2, 1), ta2], [Fraction(3, 1)]], 2)
    assert type(got[0]) is int and got[0] == 6 and got[1].terms == {(1, 0, 0, 0): 6}
    assert_storage_form(got)


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
    assert exact(poch_inf(x, m, order)) == exact(naive_poch(x, order + 1, m, order))
    assert exact(poch_fin(x, n, m, order)) == exact(naive_poch(x, n, m, order))


def pair_by_product(x, m, order):
    """(x; q^m)_inf * (x^-1 q^m; q^m)_inf as two products and one ``*``."""
    return poch_inf(x, m, order) * poch_inf(x.inv().times_qpow(m), m, order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 13), st.sampled_from([1, -1]), st.integers(-1, 200))
def test_signed_pair_matches_the_product_of_its_factors(m, sign, order):
    # every e in 0..m takes the fused pass over both progressions; u = +1 at
    # e = 0 and at e = m puts the factor 1 - q^0 in the pair
    for e in range(m + 1):
        x = SpecMonomial.signed(sign, e)
        got = poch_pair(x, m, order)
        assert exact(got) == exact(pair_by_product(x, m, order))
        if sign == 1 and e in (0, m):
            assert got.is_zero() and (got.offset, got.order) == (order + 1, order)


@pytest.mark.parametrize("sign, e", [(-1, 0), (-1, 1), (1, 1)])
def test_signed_pair_at_a_large_order_fits_its_digits(sign, e):
    # at base 1 the coefficients of (-1; q)(-q; q) = 2 (-q; q)^2 grow like
    # exp(pi*sqrt(2*order/3)), past the bound of one progression
    x = SpecMonomial.signed(sign, e)
    assert exact(poch_pair(x, 1, 1500)) == exact(pair_by_product(x, 1, 1500))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "e, m, error",
    [(-1, 3, NegativeOrderArgumentError), (4, 3, NegativeOrderArgumentError),
     (0, 0, ConstraintViolationError), (1, -2, ConstraintViolationError)],
)
def test_signed_pair_outside_its_range_raises_as_the_product(sign, e, m, error):
    x = SpecMonomial.signed(sign, e)
    with pytest.raises(error):
        pair_by_product(x, m, 10)
    with pytest.raises(error):
        poch_pair(x, m, 10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 13), st.sampled_from([1, -1]), tau_monomials,
       st.integers(-1, 60) | st.integers(61, 200))
def test_tau_pair_matches_the_product_of_its_factors(m, sign, mono, order):
    # every e in 0..m takes one packed pass over both progressions, mono^j at
    # digit k*S + n2 + j; e = m goes through the pair's symmetry to e = 0
    for e in range(m + 1):
        x = SpecMonomial(Unit(sign, mono), e)
        assert exact(poch_pair(x, m, order)) == exact(pair_by_product(x, m, order))


@pytest.mark.parametrize("mono", [(1, 0, 0, 0), (0, -1, 0, 0), (1, -1, 1, 0)])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("m, e, order", [(4, 2, 17), (1, 0, 5), (1, 1, 5), (2, 1, 6)])
def test_tau_pair_keeps_its_guard_digit_out_of_the_window(m, e, order, mono, sign):
    # an x^-1 factor shifts the bits below q^order's slot into that slot's
    # top digit; without a guard digit there, these read a wrong coefficient
    x = SpecMonomial(Unit(sign, mono), e)
    assert exact(poch_pair(x, m, order)) == exact(pair_by_product(x, m, order))


def test_tau_pair_at_a_large_order_fits_its_digits():
    x = SpecMonomial.symbolic(0, 1)
    assert exact(poch_pair(x, 1, 400)) == exact(pair_by_product(x, 1, 400))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "e, m, error",
    [(-1, 3, NegativeOrderArgumentError), (4, 3, NegativeOrderArgumentError),
     (0, 0, ConstraintViolationError), (1, -2, ConstraintViolationError)],
)
def test_tau_pair_outside_its_range_raises_as_the_product(sign, e, m, error):
    x = SpecMonomial.symbolic(1, e, sign)
    with pytest.raises(error):
        pair_by_product(x, m, 10)
    with pytest.raises(error):
        poch_pair(x, m, 10)


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


# ---------------------------------------------------------------------------
# series division against the naive product with the naive inverse


def check_quotient(x, y):
    """x / y has the window, values and storage types of x times the naive
    inverse of y, and leaves both operands as they were."""
    before = (snapshot(x), snapshot(y))
    got = x / y
    assert exact(got) == exact(naive_mul(x, naive_inv(y)))
    assert_storage_form(got.coeffs)
    assert (snapshot(x), snapshot(y)) == before
    return got


def division_window(draw, length, symbolic):
    """``length`` coefficients in storage form: tau-polynomials and scalars
    from ``term_windows`` if ``symbolic``, else scalars and zeros."""
    if not symbolic:
        return draw(st.lists(scalars_or_zero, min_size=length, max_size=length))
    return draw(term_windows(length, length > 0 and draw(st.booleans())))


@st.composite
def dividends(draw, symbolic):
    """A series at offset -3..5 whose window holds 0..10 coefficients, all
    of them zero now and then."""
    offset, n = draw(st.integers(-3, 5)), draw(st.integers(0, 10))
    coeffs = division_window(draw, n, symbolic)
    if draw(st.integers(0, 9)) == 0:
        coeffs = [0] * n
    return QSeries.make(offset, coeffs, offset + n - 1)


@st.composite
def divisors(draw, symbolic):
    """A series at offset -3..5 with 1..8 coefficients whose lowest one is a
    unit: +-1, 2 or a Fraction, times a tau-monomial if ``symbolic``."""
    offset, n = draw(st.integers(-3, 5)), draw(st.integers(1, 8))
    lead = draw(st.sampled_from([1, -1, 2, Fraction(-2, 3), Fraction(1, 5)]))
    if symbolic:
        lead = coerce(LaurentPoly.monomial(draw(negative_monomials), lead))
    coeffs = [lead] + division_window(draw, n - 1, symbolic)
    return QSeries.make(offset, coeffs, offset + n - 1)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), st.booleans(), st.data())
def test_quotient_matches_the_naive_inverse(tau_dividend, tau_divisor, data):
    # a tau-coefficient on either side takes long division, scalars on both
    # sides the Newton inverse; the windows differ in offset and length
    x = data.draw(dividends(tau_dividend))
    y = data.draw(divisors(tau_divisor))
    check_quotient(x, y)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_inverse_of_a_tau_lead_is_the_quotient_of_one(data):
    # a window holding a tau-coefficient inverts by long division, 1 / y in
    # the window of the naive inverse, with its values and storage types
    y = data.draw(divisors(True))
    before = snapshot(y)
    got = y.inv()
    assert exact(got) == exact(naive_inv(y))
    assert exact(got) == exact(QSeries.const(1, y.order - y.offset) / y)
    assert_storage_form(got.coeffs)
    assert snapshot(y) == before


def test_quotient_of_zero_and_of_a_short_dividend():
    ta, tb = LaurentPoly.var(0), LaurentPoly.var(1)
    y = QSeries.make(-2, [2 * ta, tb, 0, ta**-1 + 3, Fraction(1, 2), tb * tb], 3)
    # zero through q^4: known through q^6, as after multiplying by 1/y
    zero = check_quotient(QSeries.zero(4), y)
    assert zero.is_zero() and zero.order == 6
    # a dividend of two terms stops the quotient after two
    short = check_quotient(QSeries.make(1, [tb, -1], 2), y)
    assert (short.offset, short.order) == (3, 4)
    # a scalar over a tau-lead: 3 / (2 ta) is (3/2) ta^-1
    one = check_quotient(QSeries.make(0, [3], 0), y).coeffs
    assert one == [LaurentPoly.monomial((-1, 0, 0, 0), Fraction(3, 2))]


def test_quotient_exponents_grow_with_every_step():
    # 1 / (ta^5 - q tb^-5 td^5): the exponents of the q^k term are k + 1
    # times those of one step, so every code must stay apart at q^40
    ta, tb, td = (LaurentPoly.var(v) for v in (0, 1, 3))
    y = QSeries.make(0, [ta**5, -(tb**-5) * td**5] + [0] * 39, 40)
    got = check_quotient(QSeries.const(1, 40), y)
    assert got.coeffs[40].terms == {(-205, -200, 0, 200): 1}
    # with a third divisor term and a dividend of three
    y = QSeries.make(0, y.coeffs[:3] + [7] + y.coeffs[4:], 40)
    x = QSeries.make(-1, [ta**-3 + 1, 0, tb] + [0] * 40, 41)
    assert len(check_quotient(x, y).coeffs) == 41


def test_quotient_by_a_non_unit_or_zero_divisor_raises():
    ta, tb = LaurentPoly.var(0), LaurentPoly.var(1)
    divisors = [
        QSeries.make(0, [ta + tb, 1], 1),
        QSeries.make(1, [1 + ta, ta], 2),
        QSeries.zero(3),
        QSeries.make(0, [0, 0], 1),
    ]
    for y in divisors:
        for x in (QSeries.make(0, [ta, 1], 1), QSeries.make(-1, [2, 1], 0), QSeries.zero(2)):
            with pytest.raises(NonUnitLeadingError):
                x / y
