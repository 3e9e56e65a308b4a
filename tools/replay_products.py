"""Replay the symbolic term kernels of one workload seed in two checkouts.

Records every call of the two term kernels, ``qidx.qring._term_chain``
(products of one or more windows) and ``qidx.qring._term_quotient`` (long
division), that one ``symbolic`` deck and one 5-trial ``verify-all`` pass of
``perfbench/workloads.py`` make for the seed, by wrapping both kernels in
the parent checkout (the ``poch_inf`` cache is cleared before each request,
as a fresh CLI process would have it).  Windows of a call that are one
object, such as the two of a square, are rebuilt as one object, so a replay
takes the path the live call took.  The two checkouts then replay the calls
in turn, each in a fresh interpreter that times ``PASSES`` passes of each
kernel, for ``ROUNDS`` rounds, so that a change in the host's speed reaches
both; each side reports its fastest pass of each kernel alone.
Exits 1 if any result of either kernel differs between the two in value or
type.

Only the parent's calls are recorded, and both sides replay all of them.
So the tool times a change to a kernel itself, not a change that makes
fewer kernel calls or moves work from one kernel to the other: the calls
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
KERNELS = ("_term_chain", "_term_quotient")


def plain(window):
    """A coefficient window as plain data that keeps every type."""
    return [
        ("poly", sorted((m, type(v).__name__, v) for m, v in c.terms.items()))
        if hasattr(c, "terms") else (type(c).__name__, c)
        for c in window
    ]


def aliases(windows) -> list:
    """For each window of a call, the position of its first window that is the same object."""
    return [next(j for j, v in enumerate(windows) if v is w) for w in windows]


def kernels(qring) -> dict:
    """Each kernel of a checkout, as it is now, as a call on (windows, out_len)."""
    quotient = qring._term_quotient
    return {"_term_chain": qring._term_chain, "_term_quotient": lambda w, n: quotient(*w, n)}


def record(checkout: str, seed: str, out: str) -> None:
    sys.path[:0] = [f"{checkout}/src", f"{checkout}/perfbench"]
    from qidx import cli, constructors, qring
    from workloads import build_deck

    calls = {name: [] for name in KERNELS}
    real = kernels(qring)

    def chain(windows, out_len):
        calls["_term_chain"].append(([plain(w) for w in windows], aliases(windows), out_len))
        return real["_term_chain"](windows, out_len)

    def quotient(x, y, out_len):
        calls["_term_quotient"].append(([plain(x), plain(y)], aliases([x, y]), out_len))
        return real["_term_quotient"]([x, y], out_len)

    qring._term_quotient = quotient
    qring._term_chain = chain
    for request in build_deck("symbolic", int(seed)) + build_deck("suite", int(seed)):
        constructors._poch_inf_cached.cache_clear()
        with redirect_stdout(io.StringIO()):
            cli.main(request.argv)
    Path(out).write_bytes(pickle.dumps(calls))


def replay(checkout: str, calls_file: str, out: str) -> None:
    sys.path.insert(0, f"{checkout}/src")
    from qidx import qring
    from qidx.exactalg import column

    def build(window):
        return [column({m: v for m, _, v in c}) if kind == "poly" else c for kind, c in window]

    best, results = {}, {}
    for name, recorded in pickle.loads(Path(calls_file).read_bytes()).items():
        kernel = kernels(qring)[name]
        calls = []
        for windows, alias, n in recorded:
            built = [build(w) for w in windows]
            calls.append(([built[j] for j in alias], n))
        best[name] = float("inf")
        for _ in range(PASSES):
            t0 = time.perf_counter()
            out_windows = [kernel(windows, n) for windows, n in calls]
            best[name] = min(best[name], time.perf_counter() - t0)
        results[name] = [plain(r) for r in out_windows]
    Path(out).write_bytes(pickle.dumps((best, results)))


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
                timings, results[side] = pickle.loads(step[3].read_bytes())
                best[side].append(timings)
        counts = {name: len(c) for name, c in pickle.loads(calls.read_bytes()).items()}
    kernels = {}
    for name, count in counts.items():
        tp, tc = (min(run[name] for run in runs) for runs in best.values())
        kernels[name] = {
            "calls": count, "parent_s": round(tp, 4), "change_s": round(tc, 4),
            "ratio": round(tc / tp, 3),
        }
    identical = results["parent"] == results["change"]
    print(json.dumps({
        "seed": args.seed, "rounds": ROUNDS, "kernels": kernels, "identical": identical,
    }))
    return 0 if identical else 1


if __name__ == "__main__":
    if sys.argv[1:2] in (["record"], ["replay"]):
        (record if sys.argv[1] == "record" else replay)(*sys.argv[2:])
        sys.exit(0)
    sys.exit(main())
