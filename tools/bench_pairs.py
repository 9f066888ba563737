"""Alternating parent/change runs of the benchmark, and the gain rule.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
`bench/run.py --workload W --seed S --seconds 20 --trace 0` once in each
checkout, from its root and with its own `bench/`; the parent goes first in
odd pairs, the change in even ones.  Each run's end-to-end metrics are
printed as it ends.  Then, per end-to-end metric of `BENCHMARK.json`, the
tool prints each side's median and quartiles, the pairs the change wins
(judged by the metric's `better`; a tie counts for neither side) and
whether the gain rule holds: the change wins at least nine tenths of the
pairs, and its median is better than the parent's by more than the
parent's interquartile range.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 20


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of values, by linear interpolation between order
    statistics (numpy's default percentile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list, change: list, better: str) -> dict:
    """The pair statistics of one metric: parent[i] and change[i] are pair i.

    Returns each side's (q1, median, q3), the pairs the change wins and
    loses (ties count for neither), and `gain`: wins >= 9/10 of the pairs
    and a median gap, in the change's favour, wider than the parent's
    interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (c_q[1] - p_q[1])
    return {"parent": p_q, "change": c_q, "wins": wins, "losses": losses,
            "pairs": len(parent),
            "gain": 10 * wins >= 9 * len(parent) and gap > p_q[2] - p_q[0]}


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """The metrics of one `bench/run.py` run in a checkout: {name: value}."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            got = run_bench(getattr(args, side), args.workload, args.seed)
            runs[side].append(got)
            print(f"pair {i + 1} {side}: " + " ".join(
                f"{m['name']}={got[m['name']]:.6g}" for m in metrics), flush=True)
    for m in metrics:
        name = m["name"]
        s = summarize([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]], m["better"])
        print(f"{name} ({m['unit']}, {m['better']} is better): "
              "parent %.6g [%.6g, %.6g] -> change %.6g [%.6g, %.6g]; "
              % (s["parent"][1], s["parent"][0], s["parent"][2],
                 s["change"][1], s["change"][0], s["change"][2])
              + f"change wins {s['wins']}/{s['pairs']}, loses {s['losses']}; "
              + f"gain rule {'holds' if s['gain'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
