"""Naive references for the series product, the inverse and Pochhammer
products.

Every coefficient of the product window is the plain sum of
``x.coeff(i) * y.coeff(n - i)`` over the window, and every coefficient of
the inverse comes from the one before it by the convolution recurrence;
both are computed with ``coeff()`` and the coefficients' own ``*`` and ``+``.
A Pochhammer product is the naive product of its two-term factors, one at
a time.  They share no code with the kernels in ``qidx.qring`` or with the
packed factor loop in ``qidx.constructors``, so the differential tests
compare the two.
"""

from __future__ import annotations

from fractions import Fraction

from qidx.qring import QSeries


def naive_mul(x: QSeries, y: QSeries) -> QSeries:
    """x * y over the window [x.offset + y.offset, min(x.order + y.offset,
    y.order + x.offset)], or the zero series when either side is zero."""
    if x.is_zero() or y.is_zero():
        order = x.order + y.offset if x.is_zero() else y.order + x.offset
        return QSeries.zero(order)
    lo = x.offset + y.offset
    order = min(x.order + y.offset, y.order + x.offset)
    coeffs = []
    for n in range(lo, order + 1):
        total = 0
        for i in range(x.offset, n - y.offset + 1):
            total = total + x.coeff(i) * y.coeff(n - i)
        coeffs.append(total)
    return QSeries.make(lo, coeffs, order)


def naive_inv(x: QSeries) -> QSeries:
    """1/x for a series with an invertible lowest coefficient a_0 at q^v:
    b_0 = 1/a_0 and b_k = -(1/a_0) * sum_{i=1..k} a_i b_{k-i}, over the
    window [-v, x.order - 2v]."""
    v = x.offset
    lead = x.coeff(v)
    u = Fraction(1) / lead if isinstance(lead, (int, Fraction)) else lead ** -1
    b = [u]
    for k in range(1, x.order - v + 1):
        total = 0
        for i in range(1, k + 1):
            total = total + x.coeff(v + i) * b[k - i]
        b.append(-(u * total))
    return QSeries.make(-v, b, x.order - 2 * v)


def naive_poch(x, n: int, m: int, order: int) -> QSeries:
    """The product of (1 - x q^(m*i)) for 0 <= i < n through q^order, for
    x = u q^e with e >= 0: ``naive_mul`` of the two-term series
    1 - u q^(e + m*i) into 1, one factor at a time.  Factors above q^order
    are 1 there."""
    out = QSeries.const(1, order)
    u = x.unit.value()
    for i in range(n):
        d = x.qexp + m * i
        if d > order:
            break
        out = naive_mul(out, QSeries.const(1, order) - QSeries.monomial(u, d, order))
    return out
