"""Tiny expression language for the CLI.

Grammar (whitespace-insensitive):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' ['-'] INT]
    atom   := NUMBER | 'q' | NAME | NAME '(' args ')' | '(' expr ')'

NUMBER and INT are runs of decimal digits (``str.isdecimal``, the digits
``int`` reads).  Offsets in diagnostics are 1-based character positions.
Parameter values, base, and truncation order come from the surrounding
command, not the text.  Spec strings (``a=-q^1,b=~q^2``) are read by the same
parser: its tokens, its ``expect`` and the exponent grammar of ``factor``.

A value is an exact ``Fraction``, a ``SpecMonomial`` u*q^e or a ``QSeries``:
numbers and monomials stay exact while the arithmetic keeps them so.  Series
work grows at least quadratically with the window: far past the orders the
suite checks (a few hundred), one command would run for hours.  So no series
may start below q^-MAX_ORDER, and the commands refuse orders above it.  A
number is refused, unbuilt where it can be, once it has more digits than
``MAX_DIGITS``, past which CPython will not print it, and so is a result
series with such a coefficient.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .constructors import (
    MAX_ORDER,
    AffineWeight,
    SpecMonomial,
    _check_window,
    char_lambert,
    generalized_lambert,
    jk_partial_a,
    jordan_kronecker,
    l_func,
    pf_sum,
    phi_minus,
    poch_fin,
    poch_inf,
    theta_sum,
)
from .errors import (
    ArityError,
    ConstraintViolationError,
    ExprSyntaxError,
    NonUnitLeadingError,
    UnboundParameterError,
    UnknownFunctionError,
)
from .exactalg import LaurentPoly
from .identities import _PARAM_VARS, symbolic_param
from .numtheory import CHI1, CHI2, CHI3
from .qring import QSeries

# ---------------------------------------------------------------------------
# AST


class _Node:
    """An AST node: equal to a node of its own type with equal fields, and
    hashed alike; the source offset ``pos``, always the last slot, is not
    compared."""

    __slots__ = ()

    def _key(self) -> tuple:
        return (type(self),) + tuple(getattr(self, name) for name in self.__slots__[:-1])

    def __eq__(self, other):
        return isinstance(other, _Node) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Num(_Node):
    __slots__ = ("value", "pos")

    def __init__(self, value: int, pos: int = 0):
        self.value, self.pos = value, pos


class QPow(_Node):
    __slots__ = ("exp", "pos")

    def __init__(self, exp: int, pos: int = 0):
        self.exp, self.pos = exp, pos


class Ref(_Node):
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: int = 0):
        self.name, self.pos = name, pos


class Call(_Node):
    __slots__ = ("func", "args", "pos")

    def __init__(self, func: str, args: Tuple[Node, ...], pos: int = 0):
        self.func, self.args, self.pos = func, args, pos


class Neg(_Node):
    __slots__ = ("arg", "pos")

    def __init__(self, arg: Node, pos: int = 0):
        self.arg, self.pos = arg, pos


class Add(_Node):
    __slots__ = ("left", "right", "pos")

    def __init__(self, left: Node, right: Node, pos: int = 0):
        self.left, self.right, self.pos = left, right, pos


class Sub(_Node):
    __slots__ = ("left", "right", "pos")

    def __init__(self, left: Node, right: Node, pos: int = 0):
        self.left, self.right, self.pos = left, right, pos


class Mul(_Node):
    __slots__ = ("left", "right", "pos")

    def __init__(self, left: Node, right: Node, pos: int = 0):
        self.left, self.right, self.pos = left, right, pos


class Pow(_Node):
    __slots__ = ("base", "exp", "pos")

    def __init__(self, base: Node, exp: int, pos: int = 0):
        self.base, self.exp, self.pos = base, exp, pos


Node = Union[Num, QPow, Ref, Call, Neg, Add, Sub, Mul, Pow]


# ---------------------------------------------------------------------------
# tokenizer


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        # kind is NUMBER, NAME, an operator character or EOF; pos is 0-based
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text: str) -> List[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ExprSyntaxError(f"number longer than {MAX_DIGITS} digits", i + 1)
            out.append(_Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*^(),=~":
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i + 1)
    out.append(_Token("EOF", "", n))
    return out


class _Parser:
    def __init__(self, text: str, context: str = ""):
        self.toks = _tokenize(text)
        self.i = 0
        # appended to the kind in "expected ..." messages
        self.context = context

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}{self.context}, found {t.text or 'end of input'!r}",
                t.pos + 1,
            )
        return self.next()

    # -- grammar ------------------------------------------------------------

    def parse_expr(self) -> Node:
        t = self.peek()
        if t.kind in ("+", "-"):
            self.next()
        node = self.parse_term()
        if t.kind == "-":
            node = Neg(node, t.pos)
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            node = Add(node, rhs, op.pos) if op.kind == "+" else Sub(node, rhs, op.pos)
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind == "*":
            op = self.next()
            node = Mul(node, self.parse_factor(), op.pos)
        return node

    def parse_exponent(self) -> Optional[Tuple[int, int]]:
        """An optional '^' ['-'] INT: the exponent and the INT's position."""
        if self.peek().kind != "^":
            return None
        self.next()
        sign = -1 if self.peek().kind == "-" else 1
        if sign < 0:
            self.next()
        t = self.expect("NUMBER")
        return sign * int(t.text), t.pos

    def parse_factor(self) -> Node:
        node = self.parse_atom()
        power = self.parse_exponent()
        if power is None:
            return node
        k, pos = power
        if isinstance(node, QPow):
            return QPow(node.exp * k, node.pos)
        return Pow(node, k, pos)

    def parse_atom(self) -> Node:
        t = self.peek()
        if t.kind == "NUMBER":
            self.next()
            return Num(int(t.text), t.pos)
        if t.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if t.kind == "NAME":
            self.next()
            if t.text == "q":
                return QPow(1, t.pos)
            if self.peek().kind == "(":
                self.next()
                args: List[Node] = []
                if self.peek().kind != ")":
                    args.append(self.parse_expr())
                    while self.peek().kind == ",":
                        self.next()
                        args.append(self.parse_expr())
                self.expect(")")
                if t.text not in _SIGNATURES:
                    raise UnknownFunctionError(
                        f"unknown function {t.text!r} at offset {t.pos + 1}"
                    )
                return Call(t.text, tuple(args), t.pos)
            return Ref(t.text, t.pos)
        raise ExprSyntaxError(f"expected a value, found {t.text or 'end of input'!r}", t.pos + 1)


def parse_expr(text: str) -> Node:
    p = _Parser(text)
    node = p.parse_expr()
    t = p.peek()
    if t.kind != "EOF":
        raise ExprSyntaxError(f"unexpected trailing input {t.text!r}", t.pos + 1)
    return node


# ---------------------------------------------------------------------------
# printer


def _fmt(node: Node, level: int) -> str:
    # levels: 1 add/sub, 2 mul, 3 pow/neg operand, 4 atom
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, QPow):
        return "q" if node.exp == 1 else f"q^{node.exp}"
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({', '.join(_fmt(a, 1) for a in node.args)})"
    if isinstance(node, Neg):
        s = f"-{_fmt(node.arg, 2)}"
        return f"({s})" if level >= 2 else s
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        s = f"{_fmt(node.left, 1)} {op} {_fmt(node.right, 2)}"
        return f"({s})" if level >= 2 else s
    if isinstance(node, Mul):
        s = f"{_fmt(node.left, 2)}*{_fmt(node.right, 3)}"
        return f"({s})" if level >= 3 else s
    if isinstance(node, Pow):
        return f"{_fmt(node.base, 4)}^{node.exp}"
    raise TypeError(f"not an expression node: {node!r}")


def format_expr(node: Node) -> str:
    return _fmt(node, 1)


# ---------------------------------------------------------------------------
# evaluation

MAX_DIGITS = 4300  # CPython's default limit on printing an int
_TOO_BIG = 10**MAX_DIGITS
_TOO_LONG = "the number at offset {} would have more than %d digits" % MAX_DIGITS
_COEFF_TOO_LONG = "the coefficient of q^{} has more than %d digits" % MAX_DIGITS


def _check_digits(x: Fraction, pos: int) -> Fraction:
    if max(abs(x.numerator), x.denominator) >= _TOO_BIG:
        raise ConstraintViolationError(_TOO_LONG.format(pos))
    return x


def _printable(c) -> bool:
    """Whether every number in a coefficient has at most MAX_DIGITS digits."""
    if type(c) is int:
        return -_TOO_BIG < c < _TOO_BIG
    if type(c) is LaurentPoly:
        return all(map(_printable, c.terms.values()))
    return _printable(c.numerator) and c.denominator < _TOO_BIG


def _series(v, order: int) -> QSeries:
    """A value as a series: a number is a constant, a monomial one term."""
    if isinstance(v, Fraction):
        return QSeries.const(v, order)
    if isinstance(v, SpecMonomial):
        _check_window(v.qexp)
        return QSeries.monomial(v.unit.value(), v.qexp, order)
    return v


def _unit_mono(v) -> Optional[SpecMonomial]:
    """A monomial as itself, the number +-1 as the monomial +-q^0."""
    if isinstance(v, SpecMonomial):
        return v
    if isinstance(v, Fraction) and v in (1, -1):
        return SpecMonomial.signed(int(v), 0)
    return None


def _as_mono(v, what: str) -> SpecMonomial:
    if (mono := _unit_mono(v)) is None:
        raise ArityError(f"{what} must be a signed or symbolic monomial in q")
    return mono


def _as_int(v, what: str) -> int:
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    raise ArityError(f"{what} must be an integer")


def _as_table(v, what: str):
    which = _as_int(v, what)
    if which not in (1, 2, 3):
        raise ArityError("chilam table index must be 1, 2, or 3")
    return (CHI1, CHI2, CHI3)[which - 1]


def _glam(M, x, u, v, s, r0, m, order):
    return generalized_lambert(M, x, s, AffineWeight(u, v), r0, m, order)


def _chilam(table, s, m, order):
    return char_lambert(table, s, order)


# name -> (constructor, then one (converter, label) per argument); the
# constructor gets the converted arguments, then base and order.  It is
# named, not held, so a rebinding of this module's names (as the benchmark's
# tracer makes) reaches every call.
_SIGNATURES = {
    "poch": ("poch_inf", (_as_mono, "poch argument")),
    "pochn": ("poch_fin", (_as_mono, "pochn argument"), (_as_int, "pochn count")),
    "theta": ("theta_sum", (_as_mono, "theta argument")),
    "pf": ("pf_sum", (_as_mono, "pf argument")),
    "f": ("jordan_kronecker", (_as_mono, "first f argument"), (_as_mono, "second f argument")),
    "fa": ("jk_partial_a", (_as_mono, "first fa argument"), (_as_mono, "second fa argument")),
    "l": ("l_func", (_as_mono, "l argument")),
    "glam": (
        "_glam",
        (_as_mono, "glam numerator monomial"),
        (_as_mono, "glam denominator monomial"),
        (_as_int, "glam weight slope"),
        (_as_int, "glam weight offset"),
        (_as_int, "glam denominator power"),
        (_as_int, "glam start index"),
    ),
    "chilam": ("_chilam", (_as_table, "chilam table index"), (_as_int, "chilam power")),
    "phi": ("phi_minus",),
}


_ARITH = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _eval(node: Node, assign, order: int):
    """The value of ``node``: a Fraction or a SpecMonomial while the
    arithmetic keeps it one, otherwise a QSeries through ``order``."""
    if isinstance(node, Num):
        return Fraction(node.value)
    if isinstance(node, QPow):
        return SpecMonomial.signed(1, node.exp)
    if isinstance(node, Ref):
        if node.name not in assign.params:
            raise UnboundParameterError(f"parameter {node.name!r} is not bound by the spec")
        return assign.params[node.name]
    if isinstance(node, Call):
        vals = [_eval(a, assign, order) for a in node.args]
        if node.func not in _SIGNATURES:
            raise UnknownFunctionError(f"unknown function {node.func!r}")
        ctor, *params = _SIGNATURES[node.func]
        if len(vals) != len(params):
            raise ArityError(f"{node.func}() takes {len(params)} argument(s), got {len(vals)}")
        args = [conv(v, what) for v, (conv, what) in zip(vals, params)]
        return globals()[ctor](*args, assign.base, order)
    if isinstance(node, Neg):
        v = _eval(node.arg, assign, order)
        return v.mul(SpecMonomial.signed(-1, 0)) if isinstance(v, SpecMonomial) else -v
    if isinstance(node, Pow):
        v, k = _eval(node.base, assign, order), node.exp
        if isinstance(v, SpecMonomial):
            return v.pow(k)
        if isinstance(v, QSeries):
            if v.coeffs:
                _check_window(k * v.offset)
            return v**k if k else Fraction(1)
        if v == 0 and k < 0:
            raise NonUnitLeadingError(
                f"0 raised to the negative power {k} at offset {node.pos + 1}"
            )
        # v^k's numerator or denominator is at least 2^(|k| * (bits - 1)), so
        # a power too large to print is refused before it is built
        big = max(abs(v.numerator), v.denominator)
        if abs(k) * (big.bit_length() - 1) >= _TOO_BIG.bit_length():
            raise ConstraintViolationError(_TOO_LONG.format(node.pos + 1))
        return _check_digits(v**k, node.pos + 1)
    if type(node) not in _ARITH:
        raise TypeError(f"not an expression node: {node!r}")
    op = _ARITH[type(node)]
    left, right = (_eval(n, assign, order) for n in (node.left, node.right))
    if isinstance(left, Fraction) and isinstance(right, Fraction):
        return _check_digits(op(left, right), node.pos + 1)
    monos = [_unit_mono(v) for v in (left, right)]
    if op is operator.mul and None not in monos:
        return monos[0].mul(monos[1])
    left, right = _series(left, order), _series(right, order)
    if op is operator.mul:
        _check_window(left.offset + right.offset)
    return op(left, right)


def eval_expr(node: Node, assign, order: int) -> QSeries:
    """Evaluate a parsed expression to an exact truncated series, every
    coefficient of which has at most MAX_DIGITS digits."""
    series = _series(_eval(node, assign, order), order)
    coeffs = series.coeffs
    # an all-int window, the usual result, is checked by its extremes alone
    if {int} != set(map(type, coeffs)) or not -_TOO_BIG < min(coeffs) <= max(coeffs) < _TOO_BIG:
        for e, c in enumerate(coeffs, series.offset):
            if not _printable(c):
                raise ConstraintViolationError(_COEFF_TOO_LONG.format(e))
    return series


# ---------------------------------------------------------------------------
# spec strings


def parse_spec_string(text: str) -> Dict[str, SpecMonomial]:
    """Parse "a=-q^1,b=~q^2"-style assignment lists.

    Signed values are [+|-]q^INT (bare q meaning q^1); ~q^INT binds a
    symbolic unit. Returns name -> monomial; empty text gives {}.
    """
    params: Dict[str, SpecMonomial] = {}
    if not text.strip():
        return params
    p = _Parser(text, " in spec string")
    while True:
        name_tok = p.expect("NAME")
        name = name_tok.text
        if name not in _PARAM_VARS:
            raise ExprSyntaxError(
                f"unknown parameter {name!r} (expected one of a, b, c, d, z)",
                name_tok.pos + 1,
            )
        if name in params:
            raise ExprSyntaxError(
                f"parameter {name!r} assigned twice", name_tok.pos + 1
            )
        p.expect("=")
        mark = p.peek().kind
        if mark in ("~", "+", "-"):
            p.next()
        qtok = p.expect("NAME")
        if qtok.text != "q":
            raise ExprSyntaxError(
                f"expected 'q' in spec value, found {qtok.text!r}", qtok.pos + 1
            )
        e, _ = p.parse_exponent() or (1, None)
        if mark == "~":
            params[name] = symbolic_param(name, e)
        else:
            params[name] = SpecMonomial.signed(-1 if mark == "-" else 1, e)
        if p.peek().kind == "EOF":
            return params
        p.expect(",")
