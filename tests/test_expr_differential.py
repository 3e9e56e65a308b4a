"""Differential test of the expression evaluator's shortcuts.

``eval_expr`` keeps numbers and monomials exact while it can: number op
number stays a number, monomial times monomial (or times +-1) stays a
monomial, and only the rest becomes a series.  The naive evaluator here
turns every leaf into a ``QSeries`` at the requested order first and does
all arithmetic on series.  Each of its intermediate results is cut back to
the requested order, as ``eval_expr`` does when it turns an exact number or
monomial into a series: a series product of q^2 and q^3 knows q^5 through
order + 2, the exact monomial only through the order once it is a series.

The two must agree on every coefficient the naive side knows, and
``eval_expr`` never knows fewer terms.  The naive side may know fewer, as
q^-1 * q as a series loses one, so it alone may find a window with no
nonzero coefficient to invert; any other error must be raised by both.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qidx.constructors import SpecMonomial, Unit, l_func, poch_inf
from qidx.errors import ArityError, NonUnitLeadingError, QidxError
from qidx.exactalg import MONO_ONE, LaurentPoly
from qidx.exprs import (
    Add, Call, Mul, Neg, Num, Pow, QPow, Ref, Sub, eval_expr, format_expr, parse_expr,
)
from qidx.identities import ParamAssignment, symbolic_param
from qidx.qring import QSeries

# the naive side reads a call argument off a series known this far
ARG_ORDER = 64
CONSTRUCTORS = {"poch": poch_inf, "l": l_func}


def naive_eval(node, assign, order):
    def leaf(mono, at):
        return QSeries.monomial(mono.unit.value(), mono.qexp, at)

    def ev(node, at):
        if isinstance(node, Num):
            return QSeries.const(node.value, at)
        if isinstance(node, QPow):
            return QSeries.monomial(1, node.exp, at)
        if isinstance(node, Ref):
            return leaf(assign.params[node.name], at)
        if isinstance(node, Call):
            args = [monomial_of(ev(a, ARG_ORDER)) for a in node.args]
            out = CONSTRUCTORS[node.func](*args, assign.base, at)
        elif isinstance(node, Neg):
            out = -ev(node.arg, at)
        elif isinstance(node, Add):
            out = ev(node.left, at) + ev(node.right, at)
        elif isinstance(node, Sub):
            out = ev(node.left, at) - ev(node.right, at)
        elif isinstance(node, Mul):
            out = ev(node.left, at) * ev(node.right, at)
        else:
            out = ev(node.base, at) ** node.exp
        return out.truncate(at)

    return ev(node, order)


def monomial_of(qs):
    """The unit monomial a series holds as its one nonzero term."""
    terms = list(qs.nonzero_items())
    if len(terms) == 1:
        e, c = terms[0]
        mono, sign = c.as_unit() if isinstance(c, LaurentPoly) else (MONO_ONE, c)
        if sign in (1, -1):
            return SpecMonomial(Unit(int(sign), mono), e)
    raise ArityError("argument must be a signed or symbolic monomial in q")


# ---------------------------------------------------------------------------
# strategies

NAMES = ("a", "b")


@st.composite
def assignments(draw):
    params = {}
    for name in NAMES:
        e = draw(st.integers(-2, 3))
        kind = draw(st.sampled_from(["+", "-", "~"]))
        if kind == "~":
            params[name] = symbolic_param(name, e)
        else:
            params[name] = SpecMonomial.signed(-1 if kind == "-" else 1, e)
    return ParamAssignment(draw(st.integers(1, 4)), params)


# -1 is a leaf of its own, so that +-1 times a monomial is drawn often
numbers = st.sampled_from([Num(0), Num(1), Neg(Num(1)), Num(2), Num(3)])
signs = st.sampled_from([Num(1), Neg(Num(1))])
qpows = st.builds(QPow, st.integers(-3, 3))
refs = st.builds(Ref, st.sampled_from(NAMES))


def _grow(children, with_sums):
    ops = [
        st.builds(Neg, children),
        st.builds(Mul, children, children),
        st.builds(Pow, children, st.integers(-2, 3)),
    ]
    if with_sums:
        ops += [st.builds(Add, children, children), st.builds(Sub, children, children)]
    return st.one_of(*ops)


# call arguments: products, powers and negations of +-1, q^k and parameters,
# so both evaluators see a monomial wherever one exists
arguments = st.recursive(
    st.one_of(signs, qpows, refs),
    lambda children: _grow(children, False),
    max_leaves=4,
)

calls = st.builds(
    lambda func, arg: Call(func, (arg,)), st.sampled_from(["poch", "l"]), arguments
)

expressions = st.recursive(
    st.one_of(numbers, qpows, refs, calls),
    lambda children: _grow(children, True),
    max_leaves=6,
)


def outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # the error class is what the sides must share
        return None, exc


# one signed and one symbolic parameter, for the pinned shortcut cases
PINNED = ParamAssignment(3, {"a": SpecMonomial.signed(-1, 1), "b": symbolic_param("b", 2)})


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expressions, assignments(), st.integers(6, 16))
@example(parse_expr("(-1)*a + b*(-1) - (a*b)^-2"), PINNED, 8)
@example(parse_expr("(1 + q)^0*q^-1 - (q - q)^0 + (-q^-2)^3"), PINNED, 8)
@example(parse_expr("2^-1*3 - 0^0 + l((-1)*b)*poch(a*(-1))"), PINNED, 8)
def test_eval_expr_shortcuts_match_a_series_only_evaluation(node, assign, order):
    text = format_expr(node)
    fast, fast_err = outcome(lambda: eval_expr(node, assign, order))
    slow, slow_err = outcome(lambda: naive_eval(node, assign, order))
    if slow_err is not None and fast_err is None:
        # the naive side lost the terms eval_expr still holds
        assert isinstance(slow_err, NonUnitLeadingError), (text, slow_err)
        assert "no nonzero coefficient" in str(slow_err), (text, slow_err)
        return
    assert type(fast_err) is type(slow_err), (text, fast_err, slow_err)
    if fast_err is not None:
        assert isinstance(fast_err, QidxError), (text, fast_err)
        return
    assert fast.order >= slow.order, (text, fast.order, slow.order)
    ok, first = fast.eq_upto(slow, slow.order)
    assert ok, (text, first)
