"""Replay the symbolic term products of one workload seed in two checkouts.

Records every ``qidx.qring._term_product`` call that one ``symbolic`` deck
and one 5-trial ``verify-all`` pass of ``perfbench/workloads.py`` make for
the seed, by wrapping the kernel in the parent checkout (the ``poch_inf``
cache is cleared before each request, as a fresh CLI process would have
it).  The two checkouts then replay the calls in turn, each in a fresh
interpreter that times ``PASSES`` passes, for ``ROUNDS`` rounds, so that a
change in the host's speed reaches both; each side reports its fastest
pass of the kernel alone.  Exits 1 if any result differs between the two
in value or type.

Only the parent's calls are recorded, and both sides replay all of them.
So the tool times a change to the kernel itself, not a change that makes
fewer products or moves work out of the kernel (such as a quotient taken
by long division instead of a product with a Newton inverse): the products
such a change no longer makes are still replayed, and its new work is not.

    python3 tools/replay_products.py --parent ../parent --change . --seed 3
"""

from __future__ import annotations

import argparse
import io
import json
import pickle
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

ROUNDS, PASSES = 5, 3


def plain(window):
    """A coefficient window as plain data that keeps every type."""
    return [
        ("poly", sorted((m, type(v).__name__, v) for m, v in c.terms.items()))
        if hasattr(c, "terms") else (type(c).__name__, c)
        for c in window
    ]


def record(checkout: str, seed: str, out: str) -> None:
    sys.path[:0] = [f"{checkout}/src", f"{checkout}/perfbench"]
    from qidx import cli, constructors, qring
    from workloads import build_deck

    calls, real = [], qring._term_product

    def wrapped(x, y, out_len):
        calls.append((plain(x), plain(y), out_len))
        return real(x, y, out_len)

    qring._term_product = wrapped
    for request in build_deck("symbolic", int(seed)) + build_deck("suite", int(seed)):
        constructors._poch_inf_cached.cache_clear()
        with redirect_stdout(io.StringIO()):
            cli.main(request.argv)
    Path(out).write_bytes(pickle.dumps(calls))


def replay(checkout: str, calls_file: str, out: str) -> None:
    sys.path.insert(0, f"{checkout}/src")
    from qidx.exactalg import LaurentPoly
    from qidx.qring import _term_product

    def build(window):
        return [LaurentPoly._raw({m: v for m, _, v in c}) if kind == "poly" else c
                for kind, c in window]

    calls = [(build(x), build(y), n) for x, y, n in pickle.loads(Path(calls_file).read_bytes())]
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter()
        results = [_term_product(x, y, n) for x, y, n in calls]
        best = min(best, time.perf_counter() - t0)
    Path(out).write_bytes(pickle.dumps((best, [plain(r) for r in results])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    best, results = {"parent": [], "change": []}, {}
    with tempfile.TemporaryDirectory() as tmp:
        calls = Path(tmp, "calls")
        for step in [("record", args.parent, args.seed, calls)] + [
            ("replay", getattr(args, side), calls, Path(tmp, side)) for side in best
        ] * ROUNDS:
            # each step in a fresh interpreter, which imports its own checkout's qidx
            subprocess.run([sys.executable, "-I", __file__, *map(str, step)], check=True)
            if step[0] == "replay":
                side = step[3].name
                seconds, results[side] = pickle.loads(step[3].read_bytes())
                best[side].append(seconds)
        count = len(pickle.loads(calls.read_bytes()))
    tp, tc = min(best["parent"]), min(best["change"])
    print(json.dumps({
        "seed": args.seed, "calls": count, "rounds": ROUNDS, "parent_s": round(tp, 4),
        "change_s": round(tc, 4), "ratio": round(tc / tp, 3),
        "identical": results["parent"] == results["change"],
    }))
    return 0 if results["parent"] == results["change"] else 1


if __name__ == "__main__":
    if sys.argv[1:2] in (["record"], ["replay"]):
        (record if sys.argv[1] == "record" else replay)(*sys.argv[2:])
        sys.exit(0)
    sys.exit(main())
