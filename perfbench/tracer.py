"""Span tracer that a benchmark child installs around qidx's public boundaries.

Every wrapped call opens a span with a name, a start, an end and the span
that caused it; all spans of one child carry that child's request id.  Spans
are kept in compact in-memory arrays and written once, when the child ends.
A span's self time is its duration minus the time its child spans cover, and
the time the tracer spends on its own counters is excluded from both.

A call that re-enters the layer it is already in (``QSeries.__sub__``
calling ``__add__``, ``LaurentPoly.__sub__`` calling ``__add__``) is folded
into the outer span, so ``calls`` counts operations as a caller sees them.
"""

from __future__ import annotations

import struct
import sys
import time
from array import array

# Constructor functions that get their own span.
CONSTRUCTORS = (
    "poch_inf",
    "poch_fin",
    "theta_sum",
    "pf_sum",
    "jordan_kronecker",
    "jk_partial_a",
    "n_weighted_sum",
    "generalized_lambert",
    "l_func",
    "char_lambert",
    "jk_product_form",
    "term_series",
    "recip_series",
)

# Record layout of the span file: request id, span id, parent span id
# (-1 for a root), name index, start and end in seconds.
SPAN_RECORD = struct.Struct("<iiiidd")


class Tracer:
    def __init__(self, request_id: int):
        self.request_id = request_id
        self.names: list = []
        self._name_index: dict = {}
        self.parent = array("i")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        # open spans: ids, name indices, covered child time
        self._stack = [-1]
        self._stack_name = [-1]
        self._covered = [0.0]
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counters: dict = {}
        self._poch_seen: set = set()

    # -- span bookkeeping ---------------------------------------------------

    def _index(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return idx

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)``
        updates counters once the span has closed."""
        idx = self._index(name)
        clock = time.perf_counter
        stack, stack_name, covered = self._stack, self._stack_name, self._covered
        parents, names, starts, ends = self.parent, self.name, self.t0, self.t1
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            if stack_name[-1] == idx:
                return fn(*args, **kwargs)
            span = len(starts)
            parents.append(stack[-1])
            names.append(idx)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            stack_name.append(idx)
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack_name.pop()
                inner = covered.pop()
                starts[span] = t0
                ends[span] = t1
                calls[name] += 1
                self_s[name] += (t1 - t0) - inner
                covered[-1] += t1 - t0
            if after is not None:
                t2 = clock()
                after(args, kwargs, result)
                covered[-1] += clock() - t2
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import qidx.cli
        import qidx.constructors as cons
        import qidx.exactalg as ea
        import qidx.exprs as ex
        import qidx.identities as ids
        import qidx.qring as qr

        lp = ea.LaurentPoly
        for attr in ("__mul__", "__rmul__"):
            setattr(lp, attr, self.wrap("exactalg.lp_mul", lp.__dict__[attr]))
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            setattr(lp, attr, self.wrap("exactalg.lp_add", lp.__dict__[attr]))

        qs = qr.QSeries
        make = qs.__dict__["make"].__func__
        qs.make = classmethod(self.wrap("qring.make", make, self._after_make))
        for attr in ("__add__", "__sub__"):
            setattr(qs, attr, self.wrap("qring.add", qs.__dict__[attr]))
        for attr in ("__mul__", "__rmul__"):
            setattr(qs, attr, self.wrap("qring.mul", qs.__dict__[attr], self._after_mul))
        qs.inv = self.wrap("qring.inv", qs.__dict__["inv"])
        qs.__pow__ = self.wrap("qring.pow", qs.__dict__["__pow__"])
        qs.__str__ = self.wrap("qring.format", qs.__dict__["__str__"])

        for fn_name in CONSTRUCTORS:
            after = self._after_poch_inf if fn_name == "poch_inf" else None
            self._rebind(getattr(cons, fn_name), f"constructors.{fn_name}", after)
        self._rebind(ids.check_identity, "identities.check_identity", self._after_check)
        self._rebind(ids.build_sides, "identities.build_sides")
        self._rebind(ids.random_spec, "identities.random_spec")
        for fn_name in ("parse_expr", "eval_expr", "parse_spec_string"):
            self._rebind(getattr(ex, fn_name), f"exprs.{fn_name}")
        self._rebind(qidx.cli.main, "cli.main")

    def _rebind(self, original, name: str, after=None) -> None:
        """Replace ``original`` in every qidx module namespace that holds it,
        including the defining module, whose own calls then pass through."""
        traced = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qidx" or mod_name.startswith("qidx.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = traced

    # -- counters -------------------------------------------------------------

    def _after_make(self, args, kwargs, result) -> None:
        self.count("qring.make.coeffs", len(args[3]))

    def _after_mul(self, args, kwargs, result) -> None:
        x, y = args[0], args[1]
        if not hasattr(y, "coeffs"):
            return
        self.count("qring.mul.out_terms", len(result.coeffs))
        self.count("qring.mul.tau_key_pairs", _tau_keys(x) * _tau_keys(y))

    def _after_poch_inf(self, args, kwargs, result) -> None:
        x, m, order = args[0], args[1], args[2]
        ring = args[3] if len(args) > 3 else kwargs.get("ring")
        symbolic = ring.symbolic if ring is not None else x.unit.symbolic
        key = (x, m, order, symbolic)
        if key in self._poch_seen:
            self.count("constructors.poch_inf.repeats")
        else:
            self._poch_seen.add(key)

    def _after_check(self, args, kwargs, result) -> None:
        status = {"constraint-violation": "constraint"}.get(result.status, result.status)
        self.count(f"identities.verdicts.{status}")

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "names": list(self.names),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "spans": len(self.t0),
        }

    def write_spans(self, path: str) -> None:
        """Append every span of this child to ``path`` in one write."""
        rid, pack = self.request_id, SPAN_RECORD.pack
        blob = b"".join(
            pack(rid, i, self.parent[i], self.name[i], self.t0[i], self.t1[i])
            for i in range(len(self.t0))
        )
        with open(path, "ab") as fh:
            fh.write(blob)


def _tau_keys(qs) -> int:
    """Distinct tau-monomials among a series' coefficients (1 for a nonzero
    series with scalar coefficients only)."""
    keys = set()
    for c in qs.coeffs:
        terms = getattr(c, "terms", None)
        if terms is not None:
            keys.update(terms)
        elif c:
            keys.add((0, 0, 0, 0))
    return len(keys)
