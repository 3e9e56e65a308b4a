"""Known answers for ``qidx expand``, computed without qidx.

A ``Dense`` value is a truncated Laurent series: exact ``Fraction``/``int``
coefficients for every exponent from ``lo`` through ``order``, nothing below
``lo``, nothing known above ``order``.  Products are schoolbook, inverses are
the textbook recurrence, and the named functions are summed straight from
their defining series.  Windows follow the usual rule: a sum is known
through the smaller order, a product through its valuation plus the smaller
relative precision, an inverse through ``order - 2 * valuation``.

Parameters are signed monomials ``(sign, e)`` meaning ``sign * q^e``; the
base scale ``m`` puts every product and sum in steps of ``q^m``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, isqrt


class OracleError(ValueError):
    """The expression has no finite truncated value (zero divisor, pole)."""


class Dense:
    __slots__ = ("lo", "c", "order")

    def __init__(self, lo: int, coeffs: list, order: int):
        k = 0
        while k < len(coeffs) and coeffs[k] == 0:
            k += 1
        self.lo = lo + k
        self.c = coeffs[k:]
        self.order = order

    @classmethod
    def from_terms(cls, terms: dict, order: int) -> "Dense":
        keep = {e: v for e, v in terms.items() if e <= order and v != 0}
        if not keep:
            return cls(order + 1, [], order)
        lo = min(keep)
        return cls(lo, [keep.get(e, 0) for e in range(lo, order + 1)], order)

    def is_zero(self) -> bool:
        return not self.c

    def terms(self) -> dict:
        return {self.lo + i: v for i, v in enumerate(self.c) if v != 0}

    def __add__(self, other: "Dense") -> "Dense":
        order = min(self.order, other.order)
        acc: dict = {}
        for s in (self, other):
            for e, v in s.terms().items():
                if e <= order:
                    acc[e] = acc.get(e, 0) + v
        return Dense.from_terms(acc, order)

    def __neg__(self) -> "Dense":
        return Dense(self.lo, [-v for v in self.c], self.order)

    def __sub__(self, other: "Dense") -> "Dense":
        return self + (-other)

    def __mul__(self, other: "Dense") -> "Dense":
        if self.is_zero() or other.is_zero():
            raise OracleError("product with a zero series")
        order = min(self.order + other.lo, other.order + self.lo)
        lo = self.lo + other.lo
        out = [0] * (order - lo + 1)
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j in range(min(len(other.c), len(out) - i)):
                b = other.c[j]
                if b != 0:
                    out[i + j] += a * b
        return Dense(lo, out, order)

    def inv(self) -> "Dense":
        if self.is_zero():
            raise OracleError("inverse of a zero series")
        v = self.lo
        a = self.c
        lead = Fraction(1) / a[0]
        if lead.denominator == 1:
            lead = int(lead)
        b = [lead]
        for k in range(1, len(a)):
            s = 0
            for i in range(1, k + 1):
                if a[i] != 0 and b[k - i] != 0:
                    s += a[i] * b[k - i]
            b.append(-s * lead)
        return Dense(-v, b, self.order - 2 * v)

    def power(self, k: int) -> "Dense":
        """``self ** k`` for k != 0, as repeated products of the base or of
        its inverse."""
        base = self if k > 0 else self.inv()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out


# ---------------------------------------------------------------------------
# the named functions, summed from their definitions


def _mono_power(x, k: int):
    """(sign, e) ** k."""
    sign, e = x
    return (sign if k % 2 else 1), e * k


def _lambert_term(sign: int, g: int, s: int, weight, order: int, acc: dict, shift: int):
    """Add weight * v / (1 - v)^s, with v = sign * q^g, shifted by q^shift."""
    if g > 0:
        # sum_{k>=1} C(k+s-2, s-1) v^k
        k = 1
        while shift + k * g <= order:
            e = shift + k * g
            acc[e] = acc.get(e, 0) + weight * comb(k + s - 2, s - 1) * sign**k
            k += 1
    elif g < 0:
        # v/(1-v)^s = (-1)^s v^(1-s) sum_{j>=0} C(j+s-1, s-1) v^-j
        j = 0
        while True:
            p = s - 1 + j  # power of v^-1
            e = shift + p * (-g)
            if e > order:
                break
            c = (-1) ** s * comb(j + s - 1, s - 1) * sign**p
            acc[e] = acc.get(e, 0) + weight * c
            j += 1
    else:
        if sign == 1:
            raise OracleError("Lambert term at the pole v = 1")
        if shift <= order:
            acc[shift] = acc.get(shift, 0) + weight * Fraction(-1, 2**s)


def poch(x, m: int, order: int) -> Dense:
    """prod_{i>=0} (1 - x q^{m i})."""
    sign, e = x
    c = [0] * (order + 1)
    c[0] = 1
    i = 0
    while e + m * i <= order:
        g = e + m * i
        if g == 0:
            c = [v - sign * v for v in c]
        else:
            for n in range(order, g - 1, -1):
                c[n] -= sign * c[n - g]
        i += 1
    return Dense(0, c, order)


def theta(z, m: int, order: int) -> Dense:
    """sum_n (-1)^n z^n q^{m (n^2 - n) / 2}."""
    sign, e = z
    reach = isqrt(2 * (order + abs(e) * abs(e) + 1)) + 2 * abs(e) + 4
    acc: dict = {}
    for n in range(-reach, reach + 1):
        ex = m * (n * n - n) // 2 + n * e
        if ex <= order:
            acc[ex] = acc.get(ex, 0) + (-1) ** (n % 2) * sign ** (n % 2)
    return Dense.from_terms(acc, order)


def phi(m: int, order: int) -> Dense:
    """sum_n (-1)^n q^{m n^2}."""
    acc = {0: 1}
    n = 1
    while m * n * n <= order:
        acc[m * n * n] = 2 * (-1) ** n
        n += 1
    return Dense.from_terms(acc, order)


def glam(M, x, u: int, v: int, s: int, r0: int, m: int, order: int) -> Dense:
    """sum_{r>=r0} (u r + v) M^r x q^{m r} / (1 - x q^{m r})^s."""
    mu = M[1]
    if mu + m <= 0:
        raise OracleError("Lambert sum does not converge")
    acc: dict = {}
    r = r0
    while True:
        g = x[1] + m * r
        if g > 0 and (mu + m) * r + x[1] > order:
            break
        w = u * r + v
        if w != 0:
            msign, mexp = _mono_power(M, r)
            _lambert_term(x[0], g, s, w * msign, order, acc, mexp)
        r += 1
    return Dense.from_terms(acc, order)


def lfunc(b, m: int, order: int) -> Dense:
    """l(b) = sum_{r>=0} b q^{mr}/(1 - b q^{mr}) - sum_{r>=1} b^-1 q^{mr}/(1 - b^-1 q^{mr})."""
    binv = (b[0], -b[1])
    return glam((1, 0), b, 0, 1, 1, 0, m, order) - glam((1, 0), binv, 0, 1, 1, 1, m, order)


# ---------------------------------------------------------------------------
# expression trees
#
# A node is a tuple: ("poch", x), ("theta", z), ("phi",), ("l", b),
# ("glam", M, x, u, v, s, r0), ("add", l, r), ("sub", l, r), ("mul", l, r),
# ("pow", node, k).  Monomial arguments are parameter names bound by the
# spec.


def evaluate(node, params: dict, m: int, order: int) -> Dense:
    op = node[0]
    if op == "poch":
        return poch(params[node[1]], m, order)
    if op == "theta":
        return theta(params[node[1]], m, order)
    if op == "phi":
        return phi(m, order)
    if op == "l":
        return lfunc(params[node[1]], m, order)
    if op == "glam":
        _, M, x, u, v, s, r0 = node
        return glam(params[M], params[x], u, v, s, r0, m, order)
    if op in ("add", "sub", "mul"):
        left = evaluate(node[1], params, m, order)
        right = evaluate(node[2], params, m, order)
        if op == "add":
            return left + right
        if op == "sub":
            return left - right
        return left * right
    if op == "pow":
        return evaluate(node[1], params, m, order).power(node[2])
    raise ValueError(f"unknown node {op!r}")


def render(node) -> str:
    """The expression in qidx's input syntax."""
    op = node[0]
    if op in ("poch", "theta", "l"):
        return f"{op}({node[1]})"
    if op == "phi":
        return "phi()"
    if op == "glam":
        return "glam({}, {}, {}, {}, {}, {})".format(*node[1:])
    if op in ("add", "sub"):
        sym = "+" if op == "add" else "-"
        return f"{render(node[1])} {sym} ({render(node[2])})"
    if op == "mul":
        return f"({render(node[1])})*({render(node[2])})"
    if op == "pow":
        return f"({render(node[1])})^{node[2]}"
    raise ValueError(f"unknown node {op!r}")


# ---------------------------------------------------------------------------
# reading qidx's printed series

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?q(?:\^(-?\d+))?$|^(\d+(?:/\d+)?)$")
_TAIL = re.compile(r"^(.*) \+ O\(q\^(-?\d+)\)$")


def parse_printed(text: str):
    """Parse ``c0 + c1*q + ... + O(q^N)`` into ({exponent: coeff}, N - 1)."""
    m = _TAIL.match(text.strip())
    if m is None:
        raise ValueError(f"no O(q^N) tail in {text[:60]!r}")
    body, order = m.group(1), int(m.group(2)) - 1
    terms: dict = {}
    if body == "0":
        return terms, order
    pieces = re.split(r" ([+-]) ", body)
    signs = ["+"] + pieces[1::2]
    for sign, piece in zip(signs, pieces[0::2]):
        if piece.startswith("-"):
            sign, piece = ("-" if sign == "+" else "+"), piece[1:]
        t = _TERM.match(piece)
        if t is None:
            raise ValueError(f"unreadable term {piece!r}")
        if t.group(3) is not None:
            e, c = 0, Fraction(t.group(3))
        else:
            e = int(t.group(2)) if t.group(2) is not None else 1
            c = Fraction(t.group(1)) if t.group(1) is not None else Fraction(1)
        if e in terms:
            raise ValueError(f"exponent {e} printed twice")
        terms[e] = -c if sign == "-" else c
    return terms, order


def compare_printed(text: str, expected: Dense):
    """None if the printed series equals ``expected`` coefficient for
    coefficient and has the same order; otherwise a short reason."""
    try:
        got, order = parse_printed(text)
    except ValueError as exc:
        return f"unparseable output: {exc}"
    if order != expected.order:
        return f"printed order {order}, expected {expected.order}"
    want = expected.terms()
    for e in sorted(set(got) | set(want)):
        if got.get(e, 0) != want.get(e, 0):
            return f"coefficient of q^{e}: printed {got.get(e, 0)}, expected {want.get(e, 0)}"
    return None
