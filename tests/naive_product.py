"""Naive reference for the series product.

Every coefficient of the product window is the plain sum of
``x.coeff(i) * y.coeff(n - i)`` over the window, computed with the
coefficients' own ``*`` and ``+``.  It shares no code with the kernels in
``qidx.qring``, so the differential tests compare the two.
"""

from __future__ import annotations

from qidx.qring import QSeries


def naive_mul(x: QSeries, y: QSeries) -> QSeries:
    """x * y over the window [x.offset + y.offset, min(x.order + y.offset,
    y.order + x.offset)], or the zero series when either side is zero."""
    if x.is_zero() or y.is_zero():
        order = x.order + y.offset if x.is_zero() else y.order + x.offset
        return QSeries.zero(x.ring, order)
    lo = x.offset + y.offset
    order = min(x.order + y.offset, y.order + x.offset)
    coeffs = []
    for n in range(lo, order + 1):
        total = 0
        for i in range(x.offset, n - y.offset + 1):
            total = total + x.coeff(i) * y.coeff(n - i)
        coeffs.append(total)
    return QSeries.make(x.ring, lo, coeffs, order)
