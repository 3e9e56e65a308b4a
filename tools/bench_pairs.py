"""Paired benchmark runs of two checkouts, summarised into a BENCH_<n>.json.

For every workload and seed, runs ``perfbench/run.py`` once in each
checkout (the parent and the change), alternating which side goes first,
and appends both result lines to the output file.  After every pair it
rewrites the summary: per workload and metric, each side's median and
quartiles, the ratio of the medians and how many pairs the change won
(ties count for neither side).  For each end-to-end metric it also reads
the bound from the change's ``BENCHMARK.json`` and writes ``within_bound``
(the change's median is no worse than the parent's by more than the bound)
and ``unresolved`` (the parent's interquartile range is wider than the
bound times its median, too wide to tell).  Runs already in the output
file are kept, so a traced pass can be added to an untraced one.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads deep-signed,suite --seeds 41-50 --out BENCH_2.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

def seeds_of(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def line_counts(checkout: Path) -> dict:
    files = sorted((checkout / "src").rglob("*.py"))
    count = {str(f.relative_to(checkout)): len(f.read_text().splitlines()) for f in files}
    return {"src_total": sum(count.values()), "files": count}


def end_to_end(checkout: Path) -> dict:
    """Each end-to-end metric of the benchmark: name -> (better, bound)."""
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarise(runs: list, bounds: dict) -> dict:
    groups: dict = {}
    for r in runs:
        groups.setdefault((r["workload"], r["trace"]), {}).setdefault(r["seed"], {})[r["side"]] = r
    out = {}
    for (workload, trace), by_seed in sorted(groups.items()):
        pairs = [p for p in by_seed.values() if "parent" in p and "change" in p]
        if not pairs:
            continue
        rows = {}
        for name in pairs[0]["parent"]["metrics"]:
            par = [p["parent"]["metrics"][name] for p in pairs]
            chg = [p["change"]["metrics"][name] for p in pairs]
            pq, cq = quartiles(par), quartiles(chg)
            row = {
                "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
                "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
                "median_ratio_change_over_parent": cq[1] / pq[1] if pq[1] else None,
                "change_wins": None,
            }
            if name in bounds:
                better, bound = bounds[name]
                sign = 1 if better == "lower" else -1
                row["change_wins"] = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
                row["bound"] = bound
                row["within_bound"] = sign * (cq[1] - pq[1]) <= bound * pq[1]
                row["unresolved"] = pq[2] - pq[0] > bound * pq[1]
            rows[name] = row
        out[f"{workload} trace={trace}"] = {
            "pairs": len(pairs),
            "seeds": sorted(by_seed),
            "failed": {
                side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")
            },
            "attempted": {
                side: sum(p[side]["attempted"] for p in pairs) for side in ("parent", "change")
            },
            "metrics": rows,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="one seed or a range such as 41-50")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    data["machine"] = {"python": platform.python_version(), "arch": platform.machine()}
    data["lines"] = {"parent": line_counts(args.parent), "change": line_counts(args.change)}
    bounds = end_to_end(args.change)
    sides = {"parent": args.parent, "change": args.change}
    i = 0
    for workload in args.workloads.split(","):
        for seed in seeds_of(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            i += 1
            for side in order:
                run = run_once(sides[side], workload, seed, args.seconds, args.trace)
                run.update(workload=workload, seed=seed, trace=args.trace, side=side)
                data["runs"].append(run)
                print(json.dumps(run), flush=True)
            data["summary"] = summarise(data["runs"], bounds)
            args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
