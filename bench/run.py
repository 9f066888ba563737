"""Benchmark of the `regan run` pipeline: one command, one workload, one seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`.  One
client drives `regan.cli.run_pipeline` in a closed loop, one config after
the other, with BLAS threads pinned to 1.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced pass
(see README.md).  The last stdout line is the JSON result; the lines above
it are a readable table and the run's environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0


def source_commit(root: Path):
    """The commit of a git checkout at root, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "regan").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _child(args: list, env: dict, cwd: Path) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *args],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, env, root, work) -> tuple[dict, dict]:
    common = [args.workload, str(args.seed)] + (["--smoke"] if args.smoke else [])
    setup = [_child(["setup", *common], env, root)["setup_s"]
             for _ in range(SETUP_SAMPLES + 1)][1:]   # first one warms the disk cache
    run = _child(["pass", *common, str(args.seconds), str(work)], env, root)
    ops = run["ops"]
    failed = sum(op["failed"] for op in ops)
    metrics = {
        "wall_s": (statistics.median([p["wall_s"] for p in run["passes"]]), "s"),
        "pipeline_s": (statistics.median([op["seconds"] for op in ops]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_ratio": (1.0 - failed / len(ops), "ratio"),
        "report_digits": (run["report_digits"], "digits"),
    }
    # the raw forms of ok_ratio and report_digits; they are 0 when all is well
    shown = {"fail_ratio": (failed / len(ops), "ratio"),
             "report_max_dev": (max(op["max_dev"] for op in ops), "rel")}
    notes = {"passes": len(run["passes"]), "pipeline_samples": len(ops),
             "setup_samples": len(setup)}
    return metrics, {"run": run, "notes": notes, "shown": shown}


def per_layer(args, env, root, work) -> tuple[dict, dict]:
    common = [args.workload, str(args.seed)] + (["--smoke"] if args.smoke else [])
    plain = _child(["pass", *common, str(args.seconds), str(work / "untraced"),
                    "--max-passes", "1"], env, root)
    traced = _child(["pass", *common, str(args.seconds), str(work / "traced"),
                     "--trace"], env, root)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    for name, value in traced["probes"].items():
        metrics[name] = (value, "abs")
    traced_wall = traced["passes"][0]["wall_s"]
    plain_wall = plain["passes"][0]["wall_s"]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    run = {"ops": plain["ops"] + traced["ops"], "numpy": traced["numpy"],
           "scipy": traced["scipy"]}
    return metrics, {"run": run, "notes": {"spans_csv": str(work / "traced" / "spans.csv")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs for the self-check; no drift reference")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "regan" / "__init__.py").is_file():
        print("bench: run from the repository root; src/regan is missing",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               **dict.fromkeys(PINNED_THREADS, "1"))
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(args, env, root, work)
    ops = detail["run"]["ops"]
    meta = {"workload": args.workload, "seed": args.seed,
            "trig_seed": workloads.trig_seed(args.seed), "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": detail["run"]["numpy"],
            "scipy": detail["run"]["scipy"], "commit": source_commit(root),
            "src_sha256": source_digest(root),
            "threads": {v: env[v] for v in PINNED_THREADS}, **detail["notes"]}
    result = {
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "ops": ops, **result}, fh, indent=1)

    for op in ops:
        if op["failed"]:
            print(f"# failed {op['key']}: {'; '.join(op['reasons'])}")
    for name, (value, unit) in {**metrics, **detail.get("shown", {})}.items():
        print(f"# {name:38s} {value:>14.6g} {unit}")
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
