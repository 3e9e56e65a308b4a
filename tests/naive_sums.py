"""Naive reference versions of the windowed constructor sums.

Each sum builds one dense ``QSeries`` per term through ``QSeries.make`` and
adds the terms with ``+``, walking its window with its own loop.  This is
slow (every term re-coerces a whole window) but simple, and it shares no
code with the accumulator in ``qidx.constructors``, so the differential
tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from qidx.constructors import (
    SpecMonomial,
    _check_f_args,
    _check_pole_guard,
    infer_ring,
)
from qidx.errors import (
    ConstraintViolationError,
    DivergentTailError,
    PoleError,
    SymbolicNonUnitError,
)
from qidx.exactalg import MONO_ONE, LaurentPoly, mono_mul
from qidx.qring import QSeries

LOOP_LIMIT = 200_000


def _dict_to_series(acc, ring, order):
    acc = {e: c for e, c in acc.items() if e <= order and c}
    if not acc:
        return QSeries.zero(ring, order)
    lo = min(acc)
    return QSeries.make(ring, lo, [acc.get(e, 0) for e in range(lo, order + 1)], order)


def _coeff(w, sign, mono):
    return w * sign if mono == MONO_ONE else LaurentPoly.monomial(mono, w * sign)


def _powers(acc, unit, start, step, order, weight):
    """acc[j*step] = weight(j) * unit^j for j >= start while j*step <= order."""
    p = unit.pow(start)
    sign, mono = p.sign, p.mono
    j = start
    while j * step <= order:
        acc[j * step] = _coeff(weight(j), sign, mono)
        j += 1
        sign *= unit.sign
        mono = mono_mul(mono, unit.mono)


def term_series(v, s, order, ring=None):
    """v/(1-v)^s, s in {1, 2}."""
    if s not in (1, 2):
        raise ValueError("s must be 1 or 2")
    ring = ring or infer_ring(v)
    g, u = v.qexp, v.unit
    if g == 0:
        if u.symbolic:
            raise SymbolicNonUnitError(
                f"term {v}/(1-{v})^{s} has a non-Laurent constant coefficient"
            )
        if u.sign == 1:
            raise PoleError(f"term {v}/(1-{v})^{s} hits the pole at 1")
        return QSeries.const(ring, Fraction(-1, 2) if s == 1 else Fraction(-1, 4), order)
    acc = {}
    if g > 0:
        _powers(acc, u, 1, g, order, lambda j: j if s == 2 else 1)
    else:
        if s == 1:
            acc[0] = -1
        _powers(acc, u.inv(), 1, -g, order, lambda j: j if s == 2 else -1)
    return _dict_to_series(acc, ring, order)


def recip_series(v, s, order, ring=None):
    """1/(1-v)^s, s in {1, 2}."""
    if s not in (1, 2):
        raise ValueError("s must be 1 or 2")
    ring = ring or infer_ring(v)
    g, u = v.qexp, v.unit
    if g == 0:
        if u.symbolic:
            raise SymbolicNonUnitError(f"1/(1-{v})^{s} is not Laurent in q")
        if u.sign == 1:
            raise PoleError(f"1/(1-{v})^{s} hits the pole at 1")
        return QSeries.const(ring, Fraction(1, 2**s), order)
    acc = {}
    if g > 0:
        _powers(acc, u, 0, g, order, lambda j: comb(j + s - 1, s - 1))
    else:
        outer = -1 if s == 1 else 1
        _powers(acc, u.inv(), s, -g, order, lambda j: outer * comb(j - 1, s - 1))
    return _dict_to_series(acc, ring, order)


def times_monomial(qs, x, weight=1):
    c = x.unit.value()
    if weight != 1:
        c = c * weight
    return qs.scale(c).shifted(x.qexp)


def _walk(start, step, pad, done, message):
    n, extra, guard = start, pad, 0
    while True:
        if done(n):
            if extra <= 0:
                return
            extra -= 1
        yield n
        n += step
        guard += 1
        if guard > LOOP_LIMIT:
            raise DivergentTailError(message)


def theta_sum(z, m, order, ring=None, pad=0):
    ring = ring or infer_ring(z)

    def expo(n):
        return m * (n * n - n) // 2 + n * z.qexp

    total = QSeries.zero(ring, order)
    for start, step in ((0, 1), (-1, -1)):

        def done(n):
            return expo(n) > order and n != 0 and expo(n) >= expo(n - step)

        for n in _walk(start, step, pad, done, "theta window failed to close"):
            u = z.unit.pow(n)
            sign = u.sign if n % 2 == 0 else -u.sign
            total = total + QSeries.monomial(ring, _coeff(1, sign, u.mono), expo(n), order)
    return total


def pf_sum(z, m, order, cleared=True, ring=None, pad=0):
    ring = ring or infer_ring(z)
    e = z.qexp
    if cleared:
        acc = {0: 1}
        acc[e] = acc.get(e, 0) - z.unit.value()
        one_minus = _dict_to_series(acc, ring, order)
    total = QSeries.zero(ring, order)
    for start, step in ((0, 1), (-1, -1)):

        def done(n):
            g = e + m * n
            base = m * (n * n + n) // 2
            return base + max(-g, 0) > order and g * step > 0

        for n in _walk(start, step, pad, done, "partial-fraction window failed to close"):
            base = m * (n * n + n) // 2
            if cleared and n == 0:
                total = total + QSeries.const(ring, 1, order)
                continue
            r = recip_series(SpecMonomial(z.unit, e + m * n), 1, order - base, ring)
            if cleared:
                r = r * one_minus
            if n % 2:
                r = -r
            total = total + r.shifted(base)
    return total


def jordan_kronecker(a, b, m, order, ring=None, pad=2):
    _check_f_args(a, m, "first argument")
    _check_pole_guard(b, m, "second argument")
    ring = ring or infer_ring(a, b)
    total = QSeries.zero(ring, order)
    for start, step in ((0, 1), (-1, -1)):

        def done(n):
            g = b.qexp + m * n
            return a.qexp * n + max(-g, 0) > order and g * step > 0

        for n in _walk(start, step, pad, done, "bilateral window failed to close"):
            v = SpecMonomial(b.unit, b.qexp + m * n)
            r = recip_series(v, 1, order - a.qexp * n, ring)
            total = total + times_monomial(r, a.pow(n))
    return total


def jk_partial_a(a, b, m, order, ring=None, pad=2):
    _check_f_args(a, m, "first argument")
    _check_f_args(b, m, "second argument")
    ring = ring or infer_ring(a, b)
    total = QSeries.zero(ring, order)
    for start, step in ((0, 1), (-1, -1)):

        def done(n):
            g = a.qexp + m * n
            return (b.qexp + m) * n + max(-2 * g, 0) > order and g * step > 0

        for n in _walk(start, step, pad, done, "bilateral window failed to close"):
            shift = (b.qexp + m) * n
            v = SpecMonomial(a.unit, a.qexp + m * n)
            r = recip_series(v, 2, order - shift, ring)
            total = total + times_monomial(r, SpecMonomial(b.unit.pow(n), shift))
    return total


def n_weighted_sum(a, x, m, order, ring=None, pad=2):
    _check_f_args(a, m, "first argument")
    _check_pole_guard(x, m, "second argument")
    ring = ring or infer_ring(a, x)
    total = QSeries.zero(ring, order)
    for start, step in ((1, 1), (-1, -1)):

        def done(n):
            g = x.qexp + m * n
            return a.qexp * n + max(-g, 0) > order and g * step > 0

        for n in _walk(start, step, pad, done, "bilateral window failed to close"):
            v = SpecMonomial(x.unit, x.qexp + m * n)
            r = recip_series(v, 1, order - a.qexp * n, ring)
            total = total + times_monomial(r, a.pow(n), weight=n)
    return total


def generalized_lambert(M, x, s, W, r0, m, order, ring=None, pad=2):
    if m < 1 or r0 not in (0, 1) or s not in (1, 2):
        raise ConstraintViolationError("argument out of range")
    if M.qexp + m <= 0:
        raise DivergentTailError("term orders do not grow")
    if x.qexp % m == 0 and -x.qexp // m >= r0 and W(-x.qexp // m) != 0:
        # the pole inside the summation range, raised before any term
        term_series(SpecMonomial(x.unit, 0), s, 0)
    ring = ring or infer_ring(M, x)
    total = QSeries.zero(ring, order)

    def done(r):
        g = x.qexp + m * r
        low = g if g > 0 else (0 if s == 1 else -g)
        return M.qexp * r + low > order and g > 0

    for r in _walk(r0, 1, pad, done, "Lambert tail failed to close"):
        w = W(r)
        if w != 0:
            v = SpecMonomial(x.unit, x.qexp + m * r)
            t = term_series(v, s, order - M.qexp * r, ring)
            total = total + times_monomial(t, M.pow(r), weight=w)
    return total
