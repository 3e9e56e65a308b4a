"""Truncated Laurent series in q with an explicit knowledge window.

A QSeries stores exact coefficients for every exponent in [offset, order]
(both inclusive).  Exponents below the offset are exactly zero; exponents
above the order are unknown.  ``offset <= order + 1`` always holds, with the
empty window encoding the zero series known through ``order``.

Coefficients live in one ring: Laurent polynomials over the rationals in
the four unit symbols, so a series of scalars and one of tau-coefficients
combine freely.  Every window is canonical: its coefficients are in the
storage form that ``exactalg`` defines and builds (``canon``, ``coerce``,
``column``, ``inverse``), and its leading zeros are trimmed when the series
is built.

Multiplication has one dispatch, ``product(*series)`` (x * y is a chain of
two), which picks one of two exact chain kernels from what the windows hold:

  * a tau-monomial coefficient in any factor: ``_term_chain``, the one tau
    kernel, multiplies the chain by sparse term accumulation: symbolic
    windows are sparse in q and in tau, so each pair of nonzero terms whose
    q exponents land in the window is multiplied once, the side with fewer
    terms walked outside.
    Each factor is coded once: q index i and tau exponents e_v make the key
    i + n*sum_v e_v*S_v, n the window length, S_v = prod_{u<v} (2*B_u + 1),
    B_v the sum over the factors of their largest |e_v|.  No partial product
    passes B_v: the balanced digits never carry, and only the result is decoded;
  * scalar coefficients: ``_scalar_chain``, its scalar twin, by Kronecker
    substitution.  Each window is scaled to ints once; each step packs the
    product so far and the next window into one big integer each, in
    byte-aligned signed digits as wide as that step needs, and multiplies
    once (x * x packs once and squares); the result is divided once.
    Packing and unpacking are linear-time byte conversions, which for digits
    of up to 8 bytes run in C: little-endian int64 words from ``struct``,
    strided slice copies and byte tables, with no digit touched in Python.

Division x / y has the window and values of x * y.inv().  With a
tau-coefficient on either side it is sparse long division, whose cost
follows the terms of the quotient, not those of a dense inverse, and the
inverse of a window with a tau-coefficient is the quotient 1 / a.  A scalar
window is inverted by Newton's iteration b <- b*(2 - a*b), which doubles the
number of known coefficients of 1/a with each step through the packed
kernel, and scalar windows divide through that inverse.
Pochhammer factors (1 - u q^d) do not come here: the constructors apply
them to one packed int of their own and read it back through ``_unpack``.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import mul

from .errors import NonUnitLeadingError, OrderExceededError
from .exactalg import MONO_ONE, LaurentPoly, canon, coerce, column, inverse


# ---------------------------------------------------------------------------
# product kernels (the module docstring says which one a product uses)
# ---------------------------------------------------------------------------


def _integral(x: list) -> tuple[list[int], int]:
    """A scalar window scaled to ints by its common denominator, and that
    denominator; any Fraction, even an integral one, is converted."""
    if Fraction not in map(type, x):
        return x, 1
    den = math.lcm(*{c.denominator for c in x if type(c) is Fraction})
    return [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in x], den


def _bias(count: int, nbytes: int) -> int:
    """The int whose ``count`` base-256**nbytes digits are all 2**(8*nbytes-1)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


# per byte value: that byte with its top bit flipped, and the sign-fill byte
# (0x00 or 0xff) of a two's-complement top byte
_FLIP = bytes(range(128, 256)) + bytes(range(128))
_SIGN_FILL = bytes(128) + b"\xff" * 128


def _pack(arr: list[int], nbytes: int) -> int:
    """sum(arr[i] * 256**(nbytes*i)) for digits |arr[i]| < 2**(8*nbytes-1).

    Each digit is biased by 2**(8*nbytes-1) to be non-negative, so the
    digits' bytes join into one int; one subtraction takes the bias off
    again.  Up to 8 bytes no digit is touched in Python: ``struct`` gives
    every digit as a little-endian int64 word on any host, strided slice
    copies cut each word to ``nbytes`` bytes, and one ``translate`` flips
    the top bit of each digit's top byte, which adds the bias.  Wider
    digits are converted one at a time.
    """
    if nbytes > 8:
        half = 1 << (8 * nbytes - 1)
        raw = b"".join((a + half).to_bytes(nbytes, "little") for a in arr)
    else:
        words = struct.pack("<%dq" % len(arr), *arr)
        raw = bytearray(nbytes * len(arr))
        for k in range(nbytes - 1):
            raw[k::nbytes] = words[k::8]
        raw[nbytes - 1 :: nbytes] = words[nbytes - 1 :: 8].translate(_FLIP)
    return int.from_bytes(raw, "little") - _bias(len(arr), nbytes)


def _unpack(v: int, count: int, nbytes: int) -> list[int]:
    """The lowest ``count`` signed base-256**nbytes digits of ``v``, each of
    which must satisfy |digit| < 2**(8*nbytes-1).

    The biased digits' bytes come out of one conversion.  Up to 8 bytes
    they are undone as ``_pack`` made them: each digit's top bit is
    flipped back, its bytes are copied into a little-endian int64 word and
    sign-filled from a byte table, and ``struct`` reads the words.
    """
    size = nbytes * count
    raw = ((v + _bias(count, nbytes)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    if nbytes > 8:
        half = 1 << (8 * nbytes - 1)
        return [
            int.from_bytes(raw[k : k + nbytes], "little") - half
            for k in range(0, size, nbytes)
        ]
    words = bytearray(8 * count)
    for k in range(nbytes - 1):
        words[k::8] = raw[k::nbytes]
    top = raw[nbytes - 1 :: nbytes].translate(_FLIP)
    words[nbytes - 1 :: 8] = top
    fill = top.translate(_SIGN_FILL)
    for k in range(nbytes, 8):
        words[k::8] = fill
    return list(struct.unpack("<%dq" % count, words))


def _scalar_chain(windows: list, out_len: int) -> list:
    """The first out_len coefficients of the product of one or more scalar
    windows (see the module docstring); a square is packed once, since
    CPython squares an int faster than it multiplies two."""
    run, den = _integral(windows[0][:out_len])
    for step, w in enumerate(windows[1:]):
        square = step == 0 and w is windows[0]
        y, d = (run, den) if square else _integral(w[:out_len])
        den *= d
        mx = max(map(abs, run))
        my = mx if square else max(map(abs, y))
        # each digit of the inputs and of the product must fit its width
        nbytes = (max(out_len * mx * my, mx, my).bit_length() + 8) // 8
        px = _pack(run, nbytes)
        run = _unpack(px * px if square else px * _pack(y, nbytes), out_len, nbytes)
    if den == 1:
        return run
    return [canon(Fraction(d, den)) if d else 0 for d in run]


def _bucketed(pairs, n: int) -> tuple[list[int], list[int], list]:
    """The indices that hold a term, the count of terms below each index and
    the terms in index order, of coded terms (key, c) at q index key % n."""
    cols = [[] for _ in range(n)]
    for k, c in pairs:
        if c:
            cols[k % n].append((k, c))
    indices = [i for i, col in enumerate(cols) if col]
    return indices, list(accumulate(map(len, cols), initial=0)), [t for col in cols for t in col]


def _term_chain(windows: list, out_len: int) -> list:
    """The first out_len coefficients of the product of one or more windows
    under one coding (see the module docstring).  Each factor is scaled to
    ints by its common denominator, and the result divided once."""
    factors = [[(i, c.terms if type(c) is LaurentPoly else {MONO_ONE: c})
                for i, c in enumerate(w[:out_len]) if c] for w in windows]
    if not all(factors):
        return [0] * out_len  # a window whose leading zeros fill the product window
    monos = [{mono for _, terms in cols for mono in terms} for cols in factors]
    bounds = [sum(max(abs(mono[v]) for mono in ms) for ms in monos) for v in range(4)]
    radices = [2 * b + 1 for b in bounds]
    strides = list(accumulate(radices[:-1], mul, initial=1))
    coded, den = [], 1
    for cols, ms in zip(factors, monos):
        coeffs, d = _integral([c for _, terms in cols for c in terms.values()])
        den *= d
        code = {mono: out_len * sum(map(mul, mono, strides)) for mono in ms}
        coded.append(list(zip([i + code[mono] for i, terms in cols for mono in terms], coeffs)))
    running = coded[0]
    for factor in coded[1:]:
        sides = _bucketed(running, out_len), _bucketed(factor, out_len)
        (cx, ex, kx), (_, ey, ky) = sorted(sides, key=lambda side: len(side[2]))
        acc = {}
        get = acc.get
        for i in cx:
            # the long side is in index order: stop where i + j leaves the window
            inner = ky[: ey[out_len - i]]
            for k1, c1 in kx[ex[i] : ex[i + 1]]:
                for k2, c2 in inner:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        running = acc.items()
    # with every digit shifted up by its bound, divmod peels them off
    shift = out_len * sum(map(mul, bounds, strides))
    (r0, r1, r2, _), (b0, b1, b2, b3) = radices, bounds
    decoded = {}
    out = [{} for _ in range(out_len)]
    for k, c in running:
        if not c:
            continue
        k, i = divmod(k + shift, out_len)
        mono = decoded.get(k)
        if mono is None:
            rest, e0 = divmod(k, r0)
            rest, e1 = divmod(rest, r1)
            e3, e2 = divmod(rest, r2)
            mono = decoded[k] = (e0 - b0, e1 - b1, e2 - b2, e3 - b3)
        if den > 1:
            c = canon(Fraction(c, den))
        out[i][mono] = c
    return [column(col) for col in out]


def _term_quotient(x: list, y: list, out_len: int) -> list:
    """x / y through out_len terms, y[0] a unit, by sparse long division:
    out[k] = (x[k] - sum_{j>=1} y[j] * out[k-j]) * inv, with inv = 1/y[0]
    coded as a third window.  Codes sum(e_i * R**i) add as monomials multiply;
    no exponent met passes E = (2*out_len + 2)*b, b the largest in x and y."""
    sides = [[(i, c.terms if type(c) is LaurentPoly else {MONO_ONE: c})
              for i, c in enumerate(w[:out_len]) if c] for w in (x, y, [inverse(y[0])])]
    E = (2 * out_len + 2) * max(abs(e) for cols in sides for _, t in cols for m in t for e in m)
    R = 2 * E + 1
    strides = (1, R, R * R, R**3)
    xs, ys, inv = ({i: [(sum(map(mul, mono, strides)), c) for mono, c in t.items()]
                    for i, t in cols} for cols in sides)
    ys, ((ikey, ic),), out = list(ys.items())[1:], inv[0], []
    for k in range(out_len):
        acc = dict(xs.get(k, ()))
        get = acc.get
        for j, ty in ys:
            if j > k:
                break
            for k2, c2 in out[k - j]:
                for k1, c1 in ty:
                    acc[k1 + k2] = get(k1 + k2, 0) - c1 * c2
        out.append([(key + ikey, c * ic) for key, c in acc.items() if c])
    shift = E * sum(strides)
    return [column({tuple((key + shift) // s % R - E for s in strides): canon(c)
                     for key, c in col}) for col in out]


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------


class QSeries:
    """Truncated Laurent series with exact scalar or tau-Laurent coefficients."""

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs: list, order: int):
        # Internal: caller guarantees a matching window of canonical
        # coefficients (prefer make/zero/const/monomial); leading zeros are
        # trimmed, so a series' offset is that of its lowest nonzero term.
        k = 0
        while k < len(coeffs) and not coeffs[k]:
            k += 1
        if k:
            coeffs = coeffs[k:]
            offset += k
        self.offset = offset
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def make(cls, offset: int, coeffs: list, order: int) -> "QSeries":
        """Canonical constructor: validates the window, trims leading zeros."""
        if len(coeffs) != order - offset + 1:
            raise ValueError(
                f"window [{offset},{order}] needs {order - offset + 1} "
                f"coefficients, got {len(coeffs)}"
            )
        return cls(offset, [coerce(c) for c in coeffs], order)

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order + 1, [], order)

    @classmethod
    def const(cls, c, order: int) -> "QSeries":
        if order < 0:
            return cls.zero(order)
        return cls(0, [coerce(c)] + [0] * order, order)

    @classmethod
    def monomial(cls, c, exp: int, order: int) -> "QSeries":
        if exp > order:
            return cls.zero(order)
        return cls(exp, [coerce(c)] + [0] * (order - exp), order)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int):
        """The exact coefficient of q^n; OrderExceededError above the order."""
        if n > self.order:
            raise OrderExceededError(
                f"coefficient of q^{n} requested but series is only known "
                f"through q^{self.order}"
            )
        if n < self.offset:
            return 0
        return self.coeffs[n - self.offset]

    def nonzero_items(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.offset + i, c

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        lo = min(self.offset, other.offset)
        if lo > order:
            return QSeries.zero(order)
        out = [0] * (order - lo + 1)
        n = order - self.offset + 1
        if n > 0:
            out[self.offset - lo : self.offset - lo + n] = self.coeffs[:n]
        n = order - other.offset + 1
        for i, c in enumerate(other.coeffs[: max(n, 0)], other.offset - lo):
            if c:
                prev = out[i]
                if prev:
                    c = prev + c
                    if type(c) is not int:
                        c = canon(c)
                out[i] = c
        return QSeries(lo, out, order)

    def __neg__(self):
        return QSeries(self.offset, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        if not self.coeffs:
            return QSeries.zero(self.order + other.offset)
        if not other.coeffs:
            return QSeries.zero(other.order + self.offset)
        return product(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self * other.inv() in window and value (see the module docstring)."""
        if not isinstance(other, QSeries):
            return NotImplemented
        x, y = self.coeffs, other.coeffs
        if not x or not y or LaurentPoly not in map(type, x + y):
            return self * other.inv()
        n = min(len(x), len(y))
        return QSeries(0, _term_quotient(x, y, n), n - 1).shifted(self.offset - other.offset)

    def scale(self, c):
        """Multiply every coefficient by a scalar or unit polynomial."""
        c = coerce(c)
        if c == 0:
            return QSeries.zero(self.order)
        if c == 1:
            return self
        return QSeries(self.offset, [canon(c * cc) for cc in self.coeffs], self.order)

    def shifted(self, k: int) -> "QSeries":
        """Multiply by q^k (shift the window by k)."""
        return QSeries(self.offset + k, self.coeffs, self.order + k)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return QSeries.const(1, self.order)
        # square-and-multiply from the base itself: a product with const(1)
        # would cut the known window of a series whose offset is not 0
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def inv(self) -> "QSeries":
        """Multiplicative inverse; requires an invertible lowest coefficient."""
        if not self.coeffs:
            raise NonUnitLeadingError(
                f"cannot invert a series with no nonzero coefficient through q^{self.order}"
            )
        a = self.coeffs
        if LaurentPoly in map(type, a):
            return QSeries.const(1, self.order - self.offset) / self
        b = QSeries(0, [inverse(a[0])], 0)
        k = 1
        while k < len(a):
            # b is 1/a through q^(k-1); with a*b = 1 - r, the step b + b*r
            # = b*(2 - a*b) leaves an error of r^2, so b's unknown terms
            # through q^(2k-1) may be taken as zero
            k = min(2 * k, len(a))
            b = QSeries(0, b.coeffs + [0] * (k - len(b.coeffs)), k - 1)
            r = QSeries.const(1, k - 1) - QSeries(0, a[:k], k - 1) * b
            b = b + b * r
        return b.shifted(-self.offset)

    # -- comparison ---------------------------------------------------------

    def eq_upto(self, other: "QSeries", k: int):
        """Compare coefficients for all exponents <= k.

        Returns (True, None) or (False, (exponent, own, other)) for the first
        mismatching exponent.  OrderExceededError if k exceeds either order.
        """
        if k > self.order or k > other.order:
            raise OrderExceededError(
                f"comparison up to q^{k} exceeds known orders "
                f"({self.order}, {other.order})"
            )
        # both windows over [lo, k] as lists, compared at once; only a
        # mismatch is searched for term by term
        lo = min(self.offset, other.offset)
        a, b = ([0] * (min(s.offset, k + 1) - lo) + s.coeffs[: max(k + 1 - s.offset, 0)]
                for s in (self, other))
        if a == b:
            return True, None
        i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        return False, (lo + i, a[i], b[i])

    def truncate(self, k: int) -> "QSeries":
        """Forget all coefficients above q^k."""
        if k >= self.order:
            return self
        if k < self.offset:
            return QSeries.zero(k)
        return QSeries(self.offset, self.coeffs[: k - self.offset + 1], k)

    # -- symbolic-coefficient helpers ----------------------------------------

    def euler(self, var: int) -> "QSeries":
        """Apply the Euler operator of one unit symbol to every coefficient."""
        out = []
        for c in self.coeffs:
            if isinstance(c, LaurentPoly):
                out.append(c.euler(var))
            else:
                out.append(0)
        return QSeries.make(self.offset, out, self.order)

    def subst_unit(self, var: int, sign: int) -> "QSeries":
        """Substitute one unit symbol by +-1 in every coefficient."""
        out = []
        for c in self.coeffs:
            if isinstance(c, LaurentPoly):
                out.append(c.subst_unit(var, sign))
            else:
                out.append(c)
        return QSeries.make(self.offset, out, self.order)

    # -- presentation ---------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"QSeries[window {self.offset}..{self.order}]({self})"


def product(*series: QSeries) -> QSeries:
    """reduce(operator.mul, series) in window and values, by one call of
    the chain kernel that the coefficients call for; x * y comes here too.
    Leading coefficients live in an integral domain, so the window runs
    from the sum of the offsets through the shortest window's length."""
    windows = [s.coeffs for s in series]
    if not all(windows):
        return reduce(mul, series)
    offset, out_len = sum(s.offset for s in series), min(map(len, windows))
    tau = any(LaurentPoly in map(type, w) for w in windows)
    out = (_term_chain if tau else _scalar_chain)(windows, out_len)
    return QSeries(offset, out, offset + out_len - 1)


def format_coeff(c) -> tuple[str, bool]:
    """Render one coefficient; returns (body-without-sign, is_negative)."""
    if isinstance(c, LaurentPoly):
        cv = c.constant_value()
        if cv is None:
            return "(" + str(c) + ")", False
        c = cv
    if c < 0:
        return str(-c), True
    return str(c), False


def format_series(qs: QSeries) -> str:
    tail = f"O(q^{qs.order + 1})"
    parts: list[str] = []
    for e, c in qs.nonzero_items():
        body, neg = format_coeff(c)
        if e == 0:
            term = body
        else:
            qpart = "q" if e == 1 else f"q^{e}"
            term = qpart if body == "1" else f"{body}*{qpart}"
        if not parts:
            parts.append("-" + term if neg else term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    if not parts:
        return "0 + " + tail
    return " ".join(parts) + " + " + tail
