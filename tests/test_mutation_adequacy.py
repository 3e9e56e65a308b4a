"""Mutation adequacy of the identity checks: a check that passes means
something only if a wrong side fails at the same order (mutation analysis:
DeMillo, Lipton & Sayward, "Hints on test data selection", 1978).

Signed tier: every registry id is checked at one seeded signed spec, at
order 100 and base 7 (or the id's fixed base).  Symbolic tier: every id
with parameters among those below is checked at one seeded symbolic-unit
spec, at order 40 and base 7.  Each term (c, M, x, s, W, r0) that its
builder passes to ``identities.lambert_sum`` is mutated in turn: c negated,
s flipped (1 <-> 2), r0 flipped (0 <-> 1).  Every mutant must end in a
mismatch or a domain error, except the equivalent mutants named below.

The terms that ``l_func`` (2.11, 2.12) and ``char_lambert`` (3.9) pass to
``constructors.lambert_sum`` never reach ``identities.lambert_sum``; the
same three mutations are applied to them, at the same seed, orders and base,
by tests of their own.

The printed rows of 3.4 and 3.5 mismatch at q^10 before any mutation, so a
mismatch kills nothing there: one of their mutants is killed when it builds
sides that differ from the unmutated ones through the order.

Each argument x that a builder passes to ``poch_inf``, ``poch_pair`` or
``poch_fin`` (base m) is mutated the same way in both tiers: its unit's
sign flipped, and x replaced by x q^m.  Each constant c that a builder adds
through ``QSeries.const`` is negated, and replaced by c + 1.  None of these
survives at the seeded specs.

Each monomial argument that a builder passes to ``jordan_kronecker``,
``jk_partial_a``, ``n_weighted_sum``, ``theta_sum`` or ``pf_sum`` gets the
same two mutations.  Three signed mutants survive, each equivalent at its
seeded spec (named below); the symbolic tier has no survivor.  A mutant
that makes a builder's side fall short of the order ends in the
OrderExceededError of ``build_sides``, which fails the check as surely as a
domain error, and counts with the refused mutants.

``phi_minus``, which only phi calls, is replaced by two mutants of its theta
sum: z = q^m gets its sign flipped, and is replaced by z q^2m.  The first
ends every signed phi row of the suite in a mismatch; the second starts at
q^-m, so every row falls short of the order and is refused.
"""

import time
from functools import partial

import pytest

from qidx import constructors, identities
from qidx.constructors import SpecMonomial, jordan_kronecker, theta_sum
from qidx.errors import DomainError, OrderExceededError
from qidx.identities import (
    ParamAssignment,
    build_sides,
    check_identity,
    get_descriptor,
    list_identities,
    random_spec,
    run_suite,
)

ORDER = 100
SYMBOLIC_ORDER = 40
BASE = 7
SEED = "mutation-adequacy"

MUTATIONS = {
    "negate c": lambda t: (-t[0],) + t[1:],
    "flip s": lambda t: t[:3] + (3 - t[3],) + t[4:],
    "flip r0": lambda t: t[:5] + (1 - t[5],),
}

# (id, position of the term among the check's lambert_sum terms, mutation)
_ZERO_WEIGHT = "r0 1 -> 0 adds only the r = 0 term, and W(r) = r there is 0"
_ZERO_WEIGHT_2R = "r0 1 -> 0 adds only the r = 0 term, and W(r) = 2r there is 0"
EQUIVALENT = {
    ("1.4", 8, "flip r0"): _ZERO_WEIGHT,
    ("1.4", 9, "flip r0"): _ZERO_WEIGHT,
    ("3.4", 6, "flip r0"): _ZERO_WEIGHT_2R,
    ("3.4", 7, "flip r0"): _ZERO_WEIGHT,
    ("3.5", 6, "flip r0"): _ZERO_WEIGHT_2R,
    ("3.5", 7, "flip r0"): _ZERO_WEIGHT,
    ("3.6", 8, "flip r0"): _ZERO_WEIGHT,
    ("3.6", 9, "flip r0"): _ZERO_WEIGHT,
    ("3.6", 10, "flip r0"): _ZERO_WEIGHT,
    ("3.6", 11, "flip r0"): _ZERO_WEIGHT,
    ("3.7", 6, "flip r0"): _ZERO_WEIGHT,
    ("3.7", 7, "flip r0"): _ZERO_WEIGHT,
}

# symbolic tier (the ids with parameters): the same two terms of 1.4
SYMBOLIC_EQUIVALENT = {key: why for key, why in EQUIVALENT.items() if key[0] == "1.4"}

# symbolic tier: killed, but at q^20 or above, every other mutant dying
# below it.  Flipping s first changes a term M^r v/(1 - v)^s, v = x q^(mr),
# at M^r0 v^2: its lowest exponent plus that of v at r0 (2.3: 17 + 13,
# 2.12: 13 + 7)
LATE = {("2.3", 0, "flip s"): 30, ("2.12", 4, "flip s"): 20}

LAMBERT_IDS = (
    "1.3", "1.4", "1.5", "2.3", "2.9", "2.10", "2.11", "2.12", "2.13",
    "3.1", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8",
)

# the ids whose builders reach constructors.lambert_sum through l_func or
# char_lambert
INNER_IDS = {"2.11", "2.12", "3.9"}

# the printed 3.4 and 3.5 drop the square of their last term's denominator
PRINTED_MISMATCH = {"3.4", "3.5"}
REPAIRS = {("3.4", 10, "flip s"), ("3.5", 10, "flip s")}


class Mutator:
    """Stands in for ``lambert_sum``: counts the terms passed to
    it since ``reset`` and applies ``mutation`` to the one at ``position``."""

    def __init__(self):
        self.real = identities.lambert_sum
        self.reset()

    def reset(self, position=None, mutation=None):
        self.position, self.mutation, self.terms = position, mutation, []

    def __call__(self, terms, m, order):
        terms = list(terms)
        for i, term in enumerate(terms):
            if len(self.terms) == self.position:
                terms[i] = self.mutation(term)
            self.terms.append(term)
        return self.real(terms, m, order)


def same_sides(a, b):
    return all(x.eq_upto(y, ORDER)[0] for x, y in zip(a, b))


@pytest.fixture
def mutator(monkeypatch):
    mut = Mutator()
    monkeypatch.setattr(identities, "lambert_sum", mut)
    return mut


@pytest.fixture
def inner_mutator(monkeypatch):
    """A ``Mutator`` for the terms that ``l_func`` and ``char_lambert`` pass
    to ``constructors.lambert_sum``; ``identities.lambert_sum`` stays real."""
    mut = Mutator()
    monkeypatch.setattr(constructors, "lambert_sum", mut)
    return mut


def inner_mutants(mutator, symbolic, order):
    """Check every id (with parameters, if ``symbolic``) at its seeded spec,
    then once per mutant of each term it passes to ``constructors.lambert_sum``.
    Returns the ids that pass such terms, the mutant count and the survivors."""
    ids, count, survivors = set(), 0, set()
    for row in list_identities():
        ident = row["identity"]
        if symbolic and not row["params"]:
            continue
        assign = random_spec(ident, BASE, SEED, symbolic=symbolic)
        mutator.reset()
        base = check_identity(ident, assign, order)
        if not mutator.terms:
            continue
        assert base.ok, (ident, base.status, base.first_mismatch)
        ids.add(ident)
        for pos in range(len(mutator.terms)):
            for name, mutation in MUTATIONS.items():
                mutator.reset(pos, mutation)
                count += 1
                if check_identity(ident, assign, order).ok:
                    survivors.add((ident, pos, name))
    return ids, count, survivors


def test_every_signed_check_kills_its_l_func_and_char_lambert_mutants(inner_mutator):
    ids, count, survivors = inner_mutants(inner_mutator, False, ORDER)
    assert ids == INNER_IDS
    # 2.11: l(b), l(c), l(bc); 2.12: l(b); each l two terms.  3.9: the
    # nonzero residues of three tables mod 13, twelve terms each
    assert count == 3 * (4 * 2 + 3 * 12)
    assert survivors == set()


def test_every_symbolic_check_kills_its_l_func_mutants(inner_mutator):
    ids, count, survivors = inner_mutants(inner_mutator, True, SYMBOLIC_ORDER)
    assert ids == INNER_IDS - {"3.9"}
    assert count == 3 * 4 * 2
    assert survivors == set()


def test_every_signed_check_kills_its_lambert_term_mutants(mutator):
    t0 = time.perf_counter()
    survivors, repaired, exponents, ids = set(), set(), [], set()
    for row in list_identities():
        ident = row["identity"]
        assign = random_spec(ident, BASE, SEED)
        mutator.reset()
        base = check_identity(ident, assign, ORDER)
        terms = len(mutator.terms)
        if ident in PRINTED_MISMATCH:
            assert base.status == "mismatch" and base.first_mismatch[0] == 10
            mutator.reset()
            base_sides = build_sides(ident, assign, ORDER)
        else:
            assert base.ok, (ident, base.status, base.first_mismatch)
        for pos in range(terms):
            ids.add(ident)
            for name, mutation in MUTATIONS.items():
                mutator.reset(pos, mutation)
                report = check_identity(ident, assign, ORDER)
                if report.status == "mismatch":
                    exponents.append(report.first_mismatch[0])
                if ident in PRINTED_MISMATCH:
                    if report.ok:
                        repaired.add((ident, pos, name))
                    mutator.reset(pos, mutation)
                    try:
                        killed = not same_sides(build_sides(ident, assign, ORDER), base_sides)
                    except DomainError:
                        killed = True
                else:
                    killed = not report.ok
                if not killed:
                    survivors.add((ident, pos, name))
    elapsed = time.perf_counter() - t0

    # the ids whose builders pass terms to identities.lambert_sum; the
    # others build theta, bilateral, product or character sums only
    assert ids == set(LAMBERT_IDS)
    assert survivors == set(EQUIVALENT)
    # restoring the dropped square is the one mutant that makes a printed row hold
    assert repaired == REPAIRS
    assert max(exponents) < 50
    assert elapsed < 5.0, elapsed


def test_every_symbolic_check_kills_its_lambert_term_mutants(mutator):
    survivors, refused, late, ids = set(), set(), {}, set()
    for ident in LAMBERT_IDS:
        if not get_descriptor(ident).params:
            continue
        ids.add(ident)
        assign = random_spec(ident, BASE, SEED, symbolic=True)
        mutator.reset()
        base = check_identity(ident, assign, SYMBOLIC_ORDER)
        assert base.ok, (ident, base.status, base.first_mismatch)
        for pos in range(len(mutator.terms)):
            for name, mutation in MUTATIONS.items():
                mutator.reset(pos, mutation)
                report = check_identity(ident, assign, SYMBOLIC_ORDER)
                if report.ok:
                    survivors.add((ident, pos, name))
                elif report.status != "mismatch":
                    refused.add((ident, pos, name))
                elif report.first_mismatch[0] >= 20:
                    late[ident, pos, name] = report.first_mismatch[0]

    assert ids == set(LAMBERT_IDS) - {"3.1", "3.3", "3.4", "3.5", "3.6", "3.7"}
    assert survivors == set(SYMBOLIC_EQUIVALENT)
    assert late == LATE
    # a domain error comes only from an r0 flip that puts r = 0 on the pole at 1
    assert refused and {name for _, _, name in refused} == {"flip r0"}


@pytest.mark.parametrize("key", sorted(EQUIVALENT))
def test_equivalent_mutants_start_a_zero_weight_term_at_zero(mutator, key):
    ident, pos, name = key
    check_identity(ident, random_spec(ident, BASE, SEED), ORDER)
    c, M, x, s, W, r0 = mutator.terms[pos]
    assert name == "flip r0" and r0 == 1 and W(0) == 0


@pytest.mark.parametrize("key", sorted(SYMBOLIC_EQUIVALENT))
def test_symbolic_equivalent_mutants_start_a_zero_weight_term_at_zero(mutator, key):
    ident, pos, name = key
    check_identity(ident, random_spec(ident, BASE, SEED, symbolic=True), SYMBOLIC_ORDER)
    c, M, x, s, W, r0 = mutator.terms[pos]
    assert name == "flip r0" and r0 == 1 and W(0) == 0


@pytest.mark.parametrize("key", sorted(LATE))
def test_late_symbolic_mutants_flip_s_of_a_term_that_starts_high(mutator, key):
    ident, pos, name = key
    assign = random_spec(ident, BASE, SEED, symbolic=True)
    check_identity(ident, assign, SYMBOLIC_ORDER)
    c, M, x, s, W, r0 = mutator.terms[pos]
    # the term's lowest exponent and that of v at r = r0
    v = x.qexp + BASE * r0
    lowest = M.qexp * r0 + v
    assert name == "flip s" and LATE[key] == lowest + v


# ---------------------------------------------------------------------------
# monomial arguments: Pochhammer products

ARG_MUTATIONS = {
    "flip sign": lambda x, m: x.mul(SpecMonomial.signed(-1, 0)),
    "times q^m": lambda x, m: x.times_qpow(m),
}

# the ids whose builders call poch_inf, poch_pair or poch_fin themselves
POCH_IDS = {"1.1", "1.2", "1.3", "2.3", "2.7", "3.1", "3.3", "phi"}


class ArgMutator:
    """Stands in for the functions ``names`` in ``identities``: records each
    monomial argument x of each call as (name, index, x, m), m the call's
    base, since ``reset`` and applies ``mutation`` to the one at
    ``position``."""

    def __init__(self, monkeypatch, names):
        self.reset()
        for name in names:
            real = getattr(identities, name)
            monkeypatch.setattr(identities, name, partial(self.call, name, real))

    def reset(self, position=None, mutation=None):
        self.position, self.mutation, self.calls = position, mutation, []

    def call(self, name, real, *args):
        args, m = list(args), args[-2]  # each function stood in for ends in (m, order)
        for i, x in enumerate(args):
            if isinstance(x, SpecMonomial):
                if len(self.calls) == self.position:
                    args[i] = self.mutation(x, m)
                self.calls.append((name, i, x, m))
        return real(*args)


@pytest.fixture
def poch_mutator(monkeypatch):
    return ArgMutator(monkeypatch, ("poch_inf", "poch_pair", "poch_fin"))


def call_mutants(mutator, mutations, symbolic, order):
    """Check every id (with parameters, if ``symbolic``) at its seeded spec,
    then once per mutant in ``mutations`` of each value ``mutator`` records
    in its builder's calls (a constant, or a monomial argument).  Returns the
    mutant count, the survivors and the refused mutants, each as (id,
    position, mutation), and each id's records.  A mutant is refused with a
    domain error, or with the OrderExceededError of a side built short of
    the order."""
    count, survivors, refused, calls = 0, set(), set(), {}
    for row in list_identities():
        ident = row["identity"]
        if symbolic and not row["params"]:
            continue
        assign = random_spec(ident, BASE, SEED, symbolic=symbolic)
        mutator.reset()
        base = check_identity(ident, assign, order)
        if not mutator.calls:
            continue
        assert base.ok, (ident, base.status, base.first_mismatch)
        calls[ident] = mutator.calls
        for pos in range(len(calls[ident])):
            for name, mutation in mutations.items():
                mutator.reset(pos, mutation)
                count += 1
                try:
                    report = check_identity(ident, assign, order)
                except OrderExceededError:
                    refused.add((ident, pos, name))
                    continue
                if report.ok:
                    survivors.add((ident, pos, name))
                elif report.status != "mismatch":
                    refused.add((ident, pos, name))
    return count, survivors, refused, calls


def shifted_pairs_of_positive_order(calls):
    """The x -> x q^m mutants of a poch_pair whose x has positive order:
    the pair's second factor (x^-1 q^m; q^m) then takes a negative order."""
    return {
        (ident, pos, "times q^m")
        for ident, rows in calls.items()
        for pos, (name, _, x, m) in enumerate(rows)
        if name == "poch_pair" and x.qexp > 0
    }


def test_every_signed_check_kills_its_pochhammer_mutants(poch_mutator):
    count, survivors, refused, calls = call_mutants(poch_mutator, ARG_MUTATIONS, False, ORDER)
    assert set(calls) == POCH_IDS
    # calls: 1.1 2, 1.2 3, 1.3 8, 2.3 3, 2.7 4, 3.1 4, 3.3 4, phi 2
    assert count == 2 * 30
    assert survivors == set()
    assert refused == shifted_pairs_of_positive_order(calls)


def test_every_symbolic_check_kills_its_pochhammer_mutants(poch_mutator):
    count, survivors, refused, calls = call_mutants(
        poch_mutator, ARG_MUTATIONS, True, SYMBOLIC_ORDER
    )
    assert set(calls) == {ident for ident in POCH_IDS if get_descriptor(ident).params}
    assert count == 2 * 20
    assert survivors == set()
    # 1.1's symbolic z sits at q^0, so its shifted pair is a mismatch
    assert refused == shifted_pairs_of_positive_order(calls)


def test_the_shifted_pair_at_minus_one_is_equivalent(poch_mutator):
    # poch_pair(x q^m) = -x^-1 * poch_pair(x), which is poch_pair(x) at
    # x = -1; the seeded specs do not draw 1.1 at z = -q^0
    assign = ParamAssignment(BASE, {"z": SpecMonomial.signed(-1, 0)})
    check_identity("1.1", assign, ORDER)
    pos = [name for name, *_ in poch_mutator.calls].index("poch_pair")
    poch_mutator.reset(pos, ARG_MUTATIONS["times q^m"])
    assert check_identity("1.1", assign, ORDER).ok
    poch_mutator.reset(pos, ARG_MUTATIONS["flip sign"])
    assert check_identity("1.1", assign, ORDER).status == "mismatch"


# ---------------------------------------------------------------------------
# theta, partial-fraction and bilateral sum arguments

SUM_FUNCTIONS = ("jordan_kronecker", "jk_partial_a", "n_weighted_sum", "theta_sum", "pf_sum")

# the ids whose builders call one of SUM_FUNCTIONS themselves
SUM_IDS = {"1.1", "1.2", "2.1", "2.2", "2.3", "2.5", "2.6", "2.7", "2.8", "2.9", "2.10"}

# the arguments (function, index) whose order must lie strictly between 0
# and m, so that x q^m is refused
INTERIOR_ARGS = {
    ("jordan_kronecker", 0), ("jk_partial_a", 0), ("jk_partial_a", 1), ("n_weighted_sum", 0),
}

# f(a, b q^m) = a^-1 f(a, b) starts ord(a) lower, so a product of it is known
# through ord(a) fewer terms: these builders multiply f(a, b) at the order
# asked (2.3 builds it m terms further), and their side falls short
SHORT_IDS = {"2.7", "2.9", "2.10"}

# signed tier, at the seeded specs: (id, position among the check's sum
# arguments, mutation) -> why the mutant builds the sides the check builds
_F_VANISHES = (
    "f(a, b q^m) = a^-1 f(a, b), and f(a, b) = 0: ord(a) + ord(b) = m with unit(ab) = +1 "
    "(a = q^3, b = q^4, m = 7) puts (q^m/(ab); q^m) = (1; q^m) = 0 in its product form"
)
_SIGN_CANCELS = (
    "f(a, x) - f(a, -x) = 2x f(a q^m, x^2) in base q^(2m), which is 0 when ord(a) + 2 ord(x) "
    "= m mod 2m with unit(a) = +1 (a = q^3 and x = q^2 or q^9, m = 7)"
)
SUM_EQUIVALENT = {
    ("2.3", 1, "times q^m"): _F_VANISHES,
    ("2.5", 1, "flip sign"): _SIGN_CANCELS,
    ("2.5", 3, "flip sign"): _SIGN_CANCELS,
}


@pytest.fixture
def sum_mutator(monkeypatch):
    return ArgMutator(monkeypatch, SUM_FUNCTIONS)


def refused_sum_mutants(calls):
    """The x -> x q^m mutants of an argument whose order must lie in (0, m),
    and of the second argument of an f(a, b) that SHORT_IDS multiply."""
    return {
        (ident, pos, "times q^m")
        for ident, rows in calls.items()
        for pos, (name, i, x, m) in enumerate(rows)
        if (name, i) in INTERIOR_ARGS
        or (ident in SHORT_IDS and (name, i) == ("jordan_kronecker", 1))
    }


def test_every_signed_check_kills_its_sum_argument_mutants(sum_mutator):
    count, survivors, refused, calls = call_mutants(sum_mutator, ARG_MUTATIONS, False, ORDER)
    assert set(calls) == SUM_IDS
    # arguments: 1.1 and 1.2 one each; 2.3, 2.7 and 2.8 two; 2.1, 2.2, 2.5,
    # 2.6 and 2.9 four; 2.10 six
    assert count == 2 * 34
    assert survivors == set(SUM_EQUIVALENT)
    # 1.2's z = -q^7: with its sign flipped the n = -1 term hits the pole at 1
    assert refused == refused_sum_mutants(calls) | {("1.2", 0, "flip sign")}


def test_every_symbolic_check_kills_its_sum_argument_mutants(sum_mutator):
    count, survivors, refused, calls = call_mutants(
        sum_mutator, ARG_MUTATIONS, True, SYMBOLIC_ORDER
    )
    assert set(calls) == SUM_IDS
    assert count == 2 * 34
    assert survivors == set()
    # a symbolic partial-fraction argument must sit at q^0
    assert refused == refused_sum_mutants(calls) | {("1.2", 0, "times q^m")}


@pytest.mark.parametrize("key", sorted(SUM_EQUIVALENT))
def test_equivalent_sum_mutants_leave_f_unchanged(sum_mutator, key):
    ident, pos, name = key
    check_identity(ident, random_spec(ident, BASE, SEED), ORDER)
    (_, _, a, m), (fn, i, x, _) = sum_mutator.calls[pos - 1 : pos + 1]
    assert fn == "jordan_kronecker" and i == 1
    mutant = ARG_MUTATIONS[name](x, m)
    assert same_sides([jordan_kronecker(a, x, m, ORDER)], [jordan_kronecker(a, mutant, m, ORDER)])


# ---------------------------------------------------------------------------
# constants

CONST_MUTATIONS = {
    "negate": lambda c: -c,
    "add 1": lambda c: c + 1,
}

# the ids whose builders add a constant through QSeries.const, and how many
CONST_IDS = {
    "1.3": 1, "1.5": 2, "2.10": 1, "2.13": 2, "3.1": 1, "3.3": 1, "3.7": 2, "3.8": 1, "3.9": 1,
}


class ConstMutator:
    """Stands in for ``QSeries`` in ``identities``, whose builders use it only
    for ``QSeries.const``: records each call's constant since ``reset`` and
    applies ``mutation`` to the one at ``position``."""

    def __init__(self, monkeypatch):
        self.real = identities.QSeries
        self.reset()
        monkeypatch.setattr(identities, "QSeries", self)

    def reset(self, position=None, mutation=None):
        self.position, self.mutation, self.calls = position, mutation, []

    def const(self, c, order):
        hit = len(self.calls) == self.position
        self.calls.append(c)
        return self.real.const(self.mutation(c) if hit else c, order)


@pytest.fixture
def const_mutator(monkeypatch):
    return ConstMutator(monkeypatch)


def test_every_signed_check_kills_its_constant_mutants(const_mutator):
    count, survivors, refused, calls = call_mutants(const_mutator, CONST_MUTATIONS, False, ORDER)
    assert {ident: len(c) for ident, c in calls.items()} == CONST_IDS
    assert count == 2 * sum(CONST_IDS.values())
    assert survivors == refused == set()


def test_every_symbolic_check_kills_its_constant_mutants(const_mutator):
    count, survivors, refused, calls = call_mutants(
        const_mutator, CONST_MUTATIONS, True, SYMBOLIC_ORDER
    )
    with_params = {ident: n for ident, n in CONST_IDS.items() if get_descriptor(ident).params}
    assert {ident: len(c) for ident, c in calls.items()} == with_params
    assert count == 2 * sum(with_params.values())
    assert survivors == refused == set()


# ---------------------------------------------------------------------------
# phi


def theta_at(sign, k):
    """A stand-in for phi_minus(m, order) = theta_sum(q^m, 2m, order) that
    sums at z = sign * q^(k m) instead."""
    return lambda m, order: theta_sum(SpecMonomial.signed(sign, k * m), 2 * m, order)


def test_every_signed_phi_row_kills_its_theta_mutants(monkeypatch):
    rows = run_suite(order=ORDER, idents=["phi"])
    assert [(r.base, r.status) for r in rows] == [(5, "equal"), (1, "equal"), (2, "equal")]

    # phi_minus(m) is theta_sum(q^m) in base q^2m; with z = -q^m it sums
    # q^(m n^2) unsigned, +2 at q^m where phi has -2, and the right side
    # reads 2 + 1 there against the left side's -1
    monkeypatch.setattr(identities, "phi_minus", theta_at(-1, 1))
    for r in rows:
        report = check_identity("phi", ParamAssignment(r.base, {}), ORDER)
        assert (report.status, report.first_mismatch) == ("mismatch", (r.base, "-1", "3"))

    # theta(z q^2m) = -z^-1 theta(z) in base q^2m, so z = q^3m starts at
    # q^-m: the right side is known only through q^(order - m), and
    # build_sides refuses the row before any comparison
    monkeypatch.setattr(identities, "phi_minus", theta_at(1, 3))
    for r in rows:
        with pytest.raises(OrderExceededError, match=f"only through q\\^{ORDER - r.base},"):
            check_identity("phi", ParamAssignment(r.base, {}), ORDER)
