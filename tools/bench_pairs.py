"""Alternating parent/change runs of the benchmark, the gain rule and the
no-regression rule.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N
                                 [--json PATH]

PARENT and CHANGE are two git revisions of this repository.  The tool
copies each with `git archive` into one temporary directory, which it
removes at the end, so that both sides run from copies made the same way
and in the same place: the same files read `full_compare` `peak_rss_mb`
1% higher when one side ran from the repository's working tree.  Each pair
runs `bench/run.py --workload W --seed S --seconds 20 --trace 0` once in
each copy, from its root and with its own `bench/`; the parent goes first
in odd pairs, the change in even ones.  Each run's end-to-end metrics are
printed as it ends.  Then, per end-to-end metric of `BENCHMARK.json`, the
tool prints each side's median and quartiles, the pairs the change wins
(judged by the metric's `better`; a tie counts for neither side) and
whether the gain rule holds: the change wins at least nine tenths of the
pairs, and its median is better than the parent's by more than the
parent's interquartile range.  Next to it stands the no-regression rule,
read with the metric's `bound` as a share of the parent's median:
`regressed` where the change's median is worse than the parent's by more
than that share; else `unresolved` where the parent's interquartile range
is wider than that share and not every change run beats every parent run,
so the runs spread too widely to tell; else `holds`.

With --json PATH the set is also appended to the JSON file PATH (created if
missing) as one entry of its "sets" list: the workload, seed and pair
count, each side's `bench/run.py` meta stamp (of its first run), and per
end-to-end metric its bound, each side's runs, q1, median and q3, the
change's wins and losses, the gain-rule verdict and the no-regression
verdict.  Sets are appended, never replaced,
so a file holds every set run into it.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
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


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """The pair statistics of one metric: parent[i] and change[i] are pair i.

    Returns each side's (q1, median, q3), the pairs the change wins and
    loses (ties count for neither), `gain`: wins >= 9/10 of the pairs
    and a median gap, in the change's favour, wider than the parent's
    interquartile range, and `regression`, the no-regression verdict with
    bound a share of the parent's median (see the module docstring).
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
    share = bound * abs(p_q[1])
    if -gap > share:
        regression = "regressed"
    elif (p_q[2] - p_q[0] > share
          and not min(sign * v for v in change) > max(sign * v for v in parent)):
        regression = "unresolved"
    else:
        regression = "holds"
    return {"parent": p_q, "change": c_q, "wins": wins, "losses": losses,
            "pairs": len(parent),
            "gain": 10 * wins >= 9 * len(parent) and gap > p_q[2] - p_q[0],
            "regression": regression}


def archive(repo: Path, revision: str, dest: Path) -> Path:
    """dest, made to hold the files of revision in the git repository repo
    (`git archive`: tracked files only, no `.git`)."""
    tar = subprocess.run(["git", "archive", "--format=tar", revision], cwd=repo,
                         stdout=subprocess.PIPE, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as files:
        files.extractall(dest, filter="data")
    return dest


def run_bench(checkout: Path, workload: str, seed: int) -> tuple:
    """The metrics of one `bench/run.py` run in a checkout, {name: value},
    and its meta stamp."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = next(json.loads(line[len("# meta "):]) for line in lines
                if line.startswith("# meta "))
    return {name: m["value"] for name, m in result["metrics"].items()}, meta


def record(workload: str, seed: int, metrics: list, runs: dict, metas: dict) -> dict:
    """The JSON entry of one set: metrics are the end-to-end entries of
    `BENCHMARK.json`, runs[side] the metric dicts of a side's runs in pair
    order and metas[side] a side's meta stamp."""
    entry = {"workload": workload, "seed": seed, "pairs": len(runs["parent"]),
             "meta": metas, "metrics": {}}
    for m in metrics:
        values = {side: [r[m["name"]] for r in runs[side]] for side in runs}
        s = summarize(values["parent"], values["change"], m["better"], m["bound"])
        entry["metrics"][m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **{side: {"runs": values[side], "q1": s[side][0], "median": s[side][1],
                      "q3": s[side][2]} for side in ("parent", "change")},
            "wins": s["wins"], "losses": s["losses"], "gain": s["gain"],
            "regression": s["regression"]}
    return entry


def append_set(path: Path, entry: dict) -> None:
    """Append a set's entry to the "sets" list of the JSON file at path."""
    data = json.loads(path.read_text()) if path.exists() else {"sets": []}
    data["sets"].append(entry)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("change", help="git revision of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--json", type=Path, help="append the set to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    metas = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copies = {side: archive(ROOT, getattr(args, side), Path(tmp) / side)
                  for side in runs}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                got, meta = run_bench(copies[side], args.workload, args.seed)
                runs[side].append(got)
                metas.setdefault(side, meta)
                print(f"pair {i + 1} {side}: " + " ".join(
                    f"{m['name']}={got[m['name']]:.6g}" for m in metrics), flush=True)
    for m in metrics:
        name = m["name"]
        s = summarize([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]], m["better"], m["bound"])
        print(f"{name} ({m['unit']}, {m['better']} is better): "
              "parent %.6g [%.6g, %.6g] -> change %.6g [%.6g, %.6g]; "
              % (s["parent"][1], s["parent"][0], s["parent"][2],
                 s["change"][1], s["change"][0], s["change"][2])
              + f"change wins {s['wins']}/{s['pairs']}, loses {s['losses']}; "
              + f"gain rule {'holds' if s['gain'] else 'does not hold'}; "
              + f"no-regression rule (bound {m['bound']:g}): {s['regression']}")
    if args.json:
        append_set(args.json, record(args.workload, args.seed, metrics, runs, metas))
    return 0


if __name__ == "__main__":
    sys.exit(main())
