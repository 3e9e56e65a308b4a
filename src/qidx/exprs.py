"""Tiny expression language for the CLI.

Grammar (whitespace-insensitive):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' ['-'] INT]
    atom   := NUMBER | 'q' | NAME | NAME '(' args ')' | '(' expr ')'

Offsets in diagnostics are 1-based character positions. Parameter values,
base, and truncation order come from the surrounding command, not the text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .constructors import (
    AffineWeight,
    SpecMonomial,
    Unit,
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
    ExprSyntaxError,
    NonUnitLeadingError,
    UnboundParameterError,
    UnknownFunctionError,
)
from .identities import _PARAM_VARS, symbolic_param
from .numtheory import CHI1, CHI2, CHI3
from .qring import QSeries

FUNCTIONS = (
    "poch",
    "pochn",
    "theta",
    "pf",
    "f",
    "fa",
    "l",
    "glam",
    "chilam",
    "phi",
)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: int
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class QPow:
    exp: int
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Ref:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: Tuple["Node", ...]
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exp: int
    pos: int = field(default=0, compare=False)


Node = Union[Num, QPow, Ref, Call, Neg, Add, Sub, Mul, Pow]


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER | NAME | op character | EOF
    text: str
    pos: int  # 0-based


def _tokenize(text: str) -> List[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
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
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

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
                f"expected {kind!r}, found {t.text or 'end of input'!r}", t.pos + 1
            )
        return self.next()

    def fail(self, msg: str) -> None:
        t = self.peek()
        raise ExprSyntaxError(msg, t.pos + 1)

    # -- grammar ------------------------------------------------------------

    def parse_expr(self) -> Node:
        t = self.peek()
        negate = False
        if t.kind in ("+", "-"):
            self.next()
            negate = t.kind == "-"
        node = self.parse_term()
        if negate:
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

    def parse_factor(self) -> Node:
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            t = self.expect("NUMBER")
            k = sign * int(t.text)
            if isinstance(node, QPow):
                node = QPow(node.exp * k, node.pos)
            else:
                node = Pow(node, k, t.pos)
        return node

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
                if t.text not in FUNCTIONS:
                    raise UnknownFunctionError(
                        f"unknown function {t.text!r} at offset {t.pos + 1}"
                    )
                return Call(t.text, tuple(args), t.pos)
            return Ref(t.text, t.pos)
        self.fail(f"expected a value, found {t.text or 'end of input'!r}")


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
        inner = _fmt(node.arg, 2)
        s = f"-{inner}"
        return f"({s})" if level >= 2 else s
    if isinstance(node, Add):
        s = f"{_fmt(node.left, 1)} + {_fmt(node.right, 2)}"
        return f"({s})" if level >= 2 else s
    if isinstance(node, Sub):
        s = f"{_fmt(node.left, 1)} - {_fmt(node.right, 2)}"
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

# evaluation values: exact number, monomial specialization, or series
_NUM, _MONO, _SER = "num", "mono", "series"


class _Ctx:
    def __init__(self, assign, order: int):
        self.assign = assign
        self.order = order
        self.ring = assign.ring()

    def series_of(self, kind, val) -> QSeries:
        if kind == _SER:
            return val
        if kind == _NUM:
            return QSeries.const(self.ring, val, self.order)
        if val.qexp > self.order:
            return QSeries.zero(self.ring, self.order)
        return QSeries.monomial(self.ring, val.unit.value(), val.qexp, self.order)


def _as_mono(kind, val, what: str) -> SpecMonomial:
    if kind == _MONO:
        return val
    if kind == _NUM and val in (1, -1):
        return SpecMonomial.signed(int(val), 0)
    raise ArityError(f"{what} must be a signed or symbolic monomial in q")


def _as_int(kind, val, what: str) -> int:
    if kind == _NUM and val == int(val):
        return int(val)
    raise ArityError(f"{what} must be an integer")


def _eval(node: Node, ctx: _Ctx):
    if isinstance(node, Num):
        return _NUM, Fraction(node.value)
    if isinstance(node, QPow):
        return _MONO, SpecMonomial.signed(1, node.exp)
    if isinstance(node, Ref):
        try:
            return _MONO, ctx.assign.params[node.name]
        except KeyError:
            raise UnboundParameterError(
                f"parameter {node.name!r} is not bound by the spec"
            ) from None
    if isinstance(node, Neg):
        kind, val = _eval(node.arg, ctx)
        if kind == _NUM:
            return _NUM, -val
        if kind == _MONO:
            return _MONO, SpecMonomial(val.unit.mul(Unit(-1)), val.qexp)
        return _SER, val.scale(-1)
    if isinstance(node, (Add, Sub)):
        lk, lv = _eval(node.left, ctx)
        rk, rv = _eval(node.right, ctx)
        if lk == _NUM and rk == _NUM:
            return _NUM, lv + rv if isinstance(node, Add) else lv - rv
        ls, rs = ctx.series_of(lk, lv), ctx.series_of(rk, rv)
        return _SER, ls + rs if isinstance(node, Add) else ls - rs
    if isinstance(node, Mul):
        lk, lv = _eval(node.left, ctx)
        rk, rv = _eval(node.right, ctx)
        if lk == _NUM and rk == _NUM:
            return _NUM, lv * rv
        if lk == _MONO and rk == _MONO:
            return _MONO, lv.mul(rv)
        if lk == _NUM and lv in (1, -1) and rk == _MONO:
            return _MONO, SpecMonomial(rv.unit.mul(Unit(int(lv))), rv.qexp)
        if rk == _NUM and rv in (1, -1) and lk == _MONO:
            return _MONO, SpecMonomial(lv.unit.mul(Unit(int(rv))), lv.qexp)
        return _SER, ctx.series_of(lk, lv) * ctx.series_of(rk, rv)
    if isinstance(node, Pow):
        kind, val = _eval(node.base, ctx)
        k = node.exp
        if kind == _NUM:
            if val == 0 and k < 0:
                raise NonUnitLeadingError(
                    f"0 raised to the negative power {k} at offset {node.pos + 1}"
                )
            return _NUM, val**k
        if kind == _MONO:
            return _MONO, val.pow(k)
        if k == 0:
            return _NUM, Fraction(1)
        return _SER, val**k
    if isinstance(node, Call):
        return _SER, _eval_call(node, ctx)
    raise TypeError(f"not an expression node: {node!r}")


def _eval_call(node: Call, ctx: _Ctx) -> QSeries:
    vals = [_eval(a, ctx) for a in node.args]
    name = node.func
    m, order, ring = ctx.assign.base, ctx.order, ctx.ring

    def need(n: int):
        if len(vals) != n:
            raise ArityError(f"{name}() takes {n} argument(s), got {len(vals)}")

    if name == "poch":
        need(1)
        return poch_inf(_as_mono(*vals[0], "poch argument"), m, order, ring=ring)
    if name == "pochn":
        need(2)
        return poch_fin(
            _as_mono(*vals[0], "pochn argument"),
            _as_int(*vals[1], "pochn count"),
            m,
            order,
            ring=ring,
        )
    if name == "theta":
        need(1)
        return theta_sum(_as_mono(*vals[0], "theta argument"), m, order, ring=ring)
    if name == "pf":
        need(1)
        return pf_sum(_as_mono(*vals[0], "pf argument"), m, order, ring=ring)
    if name == "f":
        need(2)
        return jordan_kronecker(
            _as_mono(*vals[0], "first f argument"),
            _as_mono(*vals[1], "second f argument"),
            m,
            order,
            ring=ring,
        )
    if name == "fa":
        need(2)
        return jk_partial_a(
            _as_mono(*vals[0], "first fa argument"),
            _as_mono(*vals[1], "second fa argument"),
            m,
            order,
            ring=ring,
        )
    if name == "l":
        need(1)
        return l_func(_as_mono(*vals[0], "l argument"), m, order, ring=ring)
    if name == "glam":
        need(6)
        weight = AffineWeight(
            _as_int(*vals[2], "glam weight slope"), _as_int(*vals[3], "glam weight offset")
        )
        return generalized_lambert(
            _as_mono(*vals[0], "glam numerator monomial"),
            _as_mono(*vals[1], "glam denominator monomial"),
            _as_int(*vals[4], "glam denominator power"),
            weight,
            _as_int(*vals[5], "glam start index"),
            m,
            order,
            ring=ring,
        )
    if name == "chilam":
        need(2)
        which = _as_int(*vals[0], "chilam table index")
        if which not in (1, 2, 3):
            raise ArityError("chilam table index must be 1, 2, or 3")
        table = (CHI1, CHI2, CHI3)[which - 1]
        return char_lambert(table, _as_int(*vals[1], "chilam power"), order, ring=ring)
    if name == "phi":
        need(0)
        return phi_minus(m, order, ring=ring)
    raise UnknownFunctionError(f"unknown function {name!r}")


def eval_expr(node: Node, assign, order: int) -> QSeries:
    """Evaluate a parsed expression to an exact truncated series."""
    ctx = _Ctx(assign, order)
    kind, val = _eval(node, ctx)
    return ctx.series_of(kind, val)


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
    toks = _tokenize(text)
    i = 0

    def peek():
        return toks[i]

    def take(kind):
        nonlocal i
        t = toks[i]
        if t.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r} in spec string, found {t.text or 'end of input'!r}",
                t.pos + 1,
            )
        i += 1
        return t

    while True:
        name_tok = take("NAME")
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
        take("=")
        t = peek()
        symbolic = False
        sign = 1
        if t.kind == "~":
            take("~")
            symbolic = True
        elif t.kind in ("+", "-"):
            take(t.kind)
            sign = -1 if t.kind == "-" else 1
        qtok = take("NAME")
        if qtok.text != "q":
            raise ExprSyntaxError(
                f"expected 'q' in spec value, found {qtok.text!r}", qtok.pos + 1
            )
        e = 1
        if peek().kind == "^":
            take("^")
            neg = False
            if peek().kind == "-":
                take("-")
                neg = True
            num = take("NUMBER")
            e = -int(num.text) if neg else int(num.text)
        if symbolic:
            params[name] = symbolic_param(name, e)
        else:
            params[name] = SpecMonomial.signed(sign, e)
        if peek().kind == "EOF":
            break
        take(",")
    return params
