"""Byte identity of the reference operations' outputs between two checkouts.

    python3 tools/report_identity.py run OUT
    python3 tools/report_identity.py diff A B [--ignore KEY ...]

`run` executes every operation of `bench/workloads.reference_operations()`
(all three workloads, every `trig_random` seed of the pool) through
`regan.cli.run_pipeline`, with the `src/` of the checkout this script lies
in and the BLAS thread variables pinned to 1.  Each operation writes its
report and CSV tables to OUT/<key with "/" replaced by "__">.  It exits 1
if an operation returns a nonzero code.

`diff` compares two such directories.  Every file except report.json must be
equal byte for byte; report.json is compared as JSON without its "timings"
block and without each ignored KEY, a dotted path such as
`results.probes.moments_work`.  It lists every file that differs (and, for a
report, the paths of the differing fields), prints the largest drift
|b - a| / max(1, |a|) over the numeric fields of the reports and of the CSV
tables, and exits 1 on any difference.  The drift is the measure of
`bench/gate.py`, with A as the reference, so a value near zero reads its
absolute change and the tool and the benchmark read the same number.  A
last line counts the string fields that differ apart: the leaves of the
reports and the cells of the CSV tables that are not finite numbers on a
side that has them (verdicts, flags, `decided_by` entries, nulls), so
that a change that should move numbers only by rounding shows "0 string
fields differ" next to its drift.  The two lines before it sum, over each
side's reports and whether ignored or not, the probes stage's integrator
counters (`results.probes.integrator`: rounds, accepted, rejected,
discarded) and every stage's evaluation work (`results.<stage>.moments_work`:
radii, cap_hits, windows, unresolved_windows), so that a change that must
keep every step or every evaluation shows it on one line each.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_MISSING = object()
COUNTERS = ("rounds", "accepted", "rejected", "discarded")
WORK = ("radii", "cap_hits", "windows", "unresolved_windows")
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run(out: Path) -> int:
    # the BLAS pools read these when numpy is first imported
    os.environ.update(dict.fromkeys(PINNED_THREADS, "1"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from regan import cli

    failed = 0
    for op in workloads.reference_operations():
        op_dir = out / op.key.replace("/", "__")
        _, code = cli.run_pipeline(cli.validate_config(op.config), op_dir)
        print(f"{op.key}: exit {code}", flush=True)
        failed += code != 0
    return 1 if failed else 0


def _leaves(obj, path: str = "") -> dict:
    """Every leaf of a JSON tree, keyed by its dotted path."""
    if isinstance(obj, dict) and obj:
        return {k: v for key, value in obj.items()
                for k, v in _leaves(value, f"{path}.{key}" if path else key).items()}
    if isinstance(obj, list) and obj:
        return {k: v for i, value in enumerate(obj)
                for k, v in _leaves(value, f"{path}.{i}").items()}
    return {path: obj}


def _numbers(leaves: dict) -> dict:
    """The finite numbers among the leaves."""
    return {k: float(v) for k, v in leaves.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v)}


def _strings_differing(a: dict, b: dict) -> int:
    """The keys whose value is not a finite number on a side that has them,
    and that differ between the sides (or lie on one side only)."""
    texts = (a.keys() - _numbers(a).keys()) | (b.keys() - _numbers(b).keys())
    return sum(a.get(k, _MISSING) != b.get(k, _MISSING) for k in texts)


def _drop(tree: dict, key: str) -> None:
    *parents, last = key.split(".")
    for part in parents:
        tree = tree.get(part)
        if not isinstance(tree, dict):
            return
    tree.pop(last, None)


def _report(path: Path, ignore, totals: dict) -> dict:
    """The report at path without its timings and the ignored keys, after
    adding its probes integrator counters and each stage's moments_work to
    totals."""
    report = json.loads(path.read_text(encoding="utf-8"))
    results = report.get("results") or {}
    stages = [stage for stage in results.values() if isinstance(stage, dict)]
    integrator = results.get("probes", {}).get("integrator") or {}
    for name in COUNTERS:
        totals[name] += integrator.get(name, 0)
    for name in WORK:
        totals[name] += sum(stage.get("moments_work", {}).get(name, 0)
                            for stage in stages)
    report.pop("timings", None)
    for key in ignore:
        _drop(report, key)
    return report


def _csv_cells(path: Path) -> dict:
    """Every cell of a CSV table, keyed "row.column": a float where it
    parses as a finite number, else its text."""
    out = {}
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        for j, cell in enumerate(line.split(",")):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            out[f"{i}.{j}"] = value if math.isfinite(value) else cell
    return out


def _drift(a: dict, b: dict):
    """(largest drift |b - a| / max(1, |a|), its key) over the keys of a and b."""
    worst, where = 0.0, None
    for key in a.keys() & b.keys():
        drift = abs(b[key] - a[key]) / max(1.0, abs(a[key]))
        if drift > worst:
            worst, where = drift, key
    return worst, where


def diff(a: Path, b: Path, ignore) -> int:
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    differing, strings, worst, where = 0, 0, 0.0, None
    totals_a, totals_b = (dict.fromkeys(COUNTERS + WORK, 0) for _ in "ab")
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            print(f"only in {a if pa.is_file() else b}: {name}")
            differing += 1
            continue
        if name.name == "report.json":
            ra, rb = _report(pa, ignore, totals_a), _report(pb, ignore, totals_b)
            la, lb = _leaves(ra), _leaves(rb)
            if la != lb:
                keys = sorted(k for k in la.keys() | lb.keys()
                              if la.get(k, _MISSING) != lb.get(k, _MISSING))
                print(f"differs: {name}: {', '.join(keys)}")
                differing += 1
            drift, key = _drift(_numbers(la), _numbers(lb))
            strings += _strings_differing(la, lb)
        else:
            if pa.read_bytes() != pb.read_bytes():
                print(f"differs: {name}")
                differing += 1
            drift, key = 0.0, None
            if name.suffix == ".csv":
                ca, cb = _csv_cells(pa), _csv_cells(pb)
                drift, key = _drift(_numbers(ca), _numbers(cb))
                strings += _strings_differing(ca, cb)
        if drift > worst:
            worst, where = drift, f"{name}: {key}"
    print(f"{len(names)} files, {differing} differ; largest drift "
          f"{worst:.3g}" + (f" at {where}" if where else ""))
    for label, keys in (("probes integrator", COUNTERS), ("moments_work", WORK)):
        print(f"{label}, A -> B: " + ", ".join(
            f"{key} {totals_a[key]} -> {totals_b[key]}" for key in keys))
    print(f"{strings} string fields differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run every reference operation into OUT")
    run_p.add_argument("out", type=Path)
    diff_p = sub.add_parser("diff", help="compare two `run` directories")
    diff_p.add_argument("a", type=Path)
    diff_p.add_argument("b", type=Path)
    diff_p.add_argument("--ignore", nargs="*", action="extend", default=[],
                        metavar="KEY",
                        help="dotted report.json path left out of the comparison")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.out)
    return diff(args.a, args.b, args.ignore)


if __name__ == "__main__":
    sys.exit(main())
