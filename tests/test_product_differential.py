"""Differential tests: the three ``QSeries.__mul__`` kernels (sparse term
product, scalar schoolbook loop, packed scalar product) against the naive
per-coefficient product in ``naive_product``."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from naive_product import naive_mul
from qidx.constructors import SpecMonomial, poch_inf
from qidx.exactalg import LaurentPoly
from qidx.qring import RATIONAL, SYMBOLIC, QSeries, _pack, _unpack

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

# digits at the edge of one, two and three packed bytes, and big values
_EDGES = [2**7 - 1, 2**15 - 1, 2**23 - 1, 2**64 + 1]

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
    ring = SYMBOLIC if symbolic else RATIONAL
    offset = draw(st.integers(-4, 6))
    n = draw(st.integers(0, max_len))
    coeffs = [draw(coefficients(symbolic)) for _ in range(n)]
    return QSeries.make(ring, offset, coeffs, offset + n - 1)


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
    # a symbolic ring series whose coefficients are all scalars goes to a
    # scalar kernel unless the other side carries a tau-monomial
    x = data.draw(series(True))
    y = data.draw(series(False))
    y = QSeries.make(SYMBOLIC, y.offset, y.coeffs, y.order)
    check_product(x, y)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_pack_round_trips_edge_digits(nbytes, data):
    top = 2 ** (8 * nbytes - 1) - 1
    digit = st.one_of(st.sampled_from([top, -top, 0, 1, -1]), st.integers(-top, top))
    arr = data.draw(st.lists(digit, min_size=1, max_size=40))
    assert _unpack(_pack(arr, nbytes), len(arr), nbytes) == arr


@pytest.mark.parametrize(
    "n, m",
    # n*m is 2**(8k-1) - 1, the largest digit k bytes hold, or 2**(8k-1),
    # the smallest one that needs another byte
    [(127, 1), (128, 1), (7, 4681), (8, 4096), (47, 178481), (64, 131072)],
)
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_product_digit_at_the_width_edge(n, m, sign):
    x = QSeries.make(RATIONAL, 0, [sign * m] * n, n - 1)
    y = QSeries.make(RATIONAL, 0, [1] * n, n - 1)
    assert (x * y).coeffs[-1] == sign * n * m
    check_product(x, y)


def test_full_cancellation_in_a_column():
    ta = LaurentPoly.var(0)
    # scalar, packed: (1 + q + q^2 + ...)(1 - q + q^5) cancels at q^1..q^4
    x = QSeries.make(RATIONAL, 0, [1] * 6, 5)
    y = QSeries.make(RATIONAL, 0, [1, -1, 0, 0, 0, 1], 5)
    assert (x * y).coeffs[:5] == [1, 0, 0, 0, 0]
    check_product(x, y)
    # symbolic: (ta + ta*q + ...)(1/ta - q/ta + ...) cancels at q^1
    x = QSeries.make(SYMBOLIC, 0, [ta, ta, Fraction(1, 2)], 2)
    y = QSeries.make(SYMBOLIC, 0, [ta ** -1, -(ta ** -1), 1], 2)
    prod = x * y
    assert prod.coeffs[:2] == [1, 0] and type(prod.coeffs[0]) is int
    check_product(x, y)


def test_products_leave_cached_pochhammer_series_intact():
    units = ((RATIONAL, SpecMonomial.signed(-1, 1)), (SYMBOLIC, SpecMonomial.symbolic(0, 1)))
    for ring, unit in units:
        p = poch_inf(unit, 3, 30, ring)
        before = snapshot(p)
        p * p * poch_inf(unit, 3, 30, ring)
        assert snapshot(poch_inf(unit, 3, 30, ring)) == before == snapshot(p)
