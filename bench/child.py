"""Fresh-process parts of a benchmark run; `run.py` starts them.

    child.py setup WORKLOAD SEED [--smoke]
        Times `import regan` plus `validate_config` and
        `family_from_descriptor` for the workload's configs.
    child.py pass WORKLOAD SEED SECONDS WORK_DIR [--trace] [--max-passes N] [--smoke]
        Runs passes over the workload's operations until the next pass
        would end after SECONDS (at least one), gates every report, and
        reports pass times, per-operation outcomes and peak RSS.  With
        --trace it runs one pass under the tracer, removes the wrappers,
        then runs the closed-form accuracy probes.

Each prints one JSON object on its last stdout line.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads


def setup(args) -> dict:
    start = time.perf_counter()
    from regan import cli, coeff

    for op in workloads.operations(args.workload, args.seed, args.smoke):
        coeff.family_from_descriptor(cli.validate_config(op.config).family)
    return {"setup_s": time.perf_counter() - start}


def _warm_up(cli, work: Path) -> None:
    """One small pipeline through every stage, so lazy set-up is not timed."""
    config = cli.validate_config({
        "schema": 1, "family": {"family": "constant"},
        "analyses": list(workloads.ALL_STAGES),
        "probes": {"s_grid": [0.0, 1.0], "t_max": 3.0},
        "criteria": {"n_windows": 16, "prefix_windows": 24}})
    cli.run_pipeline(config, work / "warm-up")


def _one_pass(cli, configs, out_dirs, tracer):
    seconds, codes, stage_s = [], [], dict.fromkeys(workloads.ALL_STAGES, 0.0)
    start = time.perf_counter()
    for index, (config, out_dir) in enumerate(zip(configs, out_dirs)):
        op_start = time.perf_counter()
        frame = None
        if tracer is not None:
            tracer.op = index
            frame = tracer.enter("cli.run_pipeline")
        try:
            report, code = cli.run_pipeline(config, out_dir)
            for stage, secs in report["timings"].items():
                stage_s[stage] += secs
        except Exception:  # noqa: BLE001 - a traceback is a failed operation
            traceback.print_exc()
            code = -1
        finally:
            if frame is not None:
                tracer.exit(frame)
        seconds.append(time.perf_counter() - op_start)
        codes.append(code)
    return time.perf_counter() - start, seconds, codes, stage_s


def run_passes(args) -> dict:
    import numpy
    import scipy
    from regan import cli

    import gate

    work = Path(args.work_dir)
    ops = workloads.operations(args.workload, args.seed, args.smoke)
    configs = [cli.validate_config(op.config) for op in ops]
    out_dirs = [work / op.key.replace("/", "__") for op in ops]
    reference = gate.load_reference()
    _warm_up(cli, work)

    tracer = undo = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
    passes, outcomes = [], []
    begin = time.perf_counter()
    try:
        while True:
            wall, seconds, codes, stage_s = _one_pass(cli, configs, out_dirs, tracer)
            checked = [gate.check_operation(op, code, secs, out_dir, reference)
                       for op, code, secs, out_dir
                       in zip(ops, codes, seconds, out_dirs)]
            gate.check_horizon_flips(checked)
            outcomes.extend(checked)
            passes.append({"wall_s": wall, "stage_s": stage_s})
            elapsed = time.perf_counter() - begin
            if (tracer is not None or len(passes) >= args.max_passes
                    or elapsed + wall > args.seconds):
                break
    finally:
        if undo is not None:
            tracing.uninstall(undo)

    result = {
        "passes": passes,
        "ops": [{"key": o.key, "seconds": o.seconds, "failed": o.failed,
                 "wrong": o.wrong, "reasons": o.reasons, "max_dev": o.max_dev}
                for o in outcomes],
        "report_digits": gate.report_digits(outcomes),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(passes[0]["stage_s"], passes[0]["wall_s"])
        result["layers"]["pdelab.artifact_bytes"] = (
            sum(f.stat().st_size for d in out_dirs if d.is_dir() for f in d.iterdir()),
            "bytes")
        tracer.write_spans(work / "spans.csv", begin)
        import accuracy

        result["probes"] = accuracy.all_probes()
    for out_dir in out_dirs + [work / "warm-up"]:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("setup", "pass"):
        p = sub.add_parser(name)
        p.add_argument("workload", choices=workloads.WORKLOADS)
        p.add_argument("seed", type=int)
        p.add_argument("--smoke", action="store_true")
        if name == "pass":
            p.add_argument("seconds", type=float)
            p.add_argument("work_dir")
            p.add_argument("--trace", action="store_true")
            p.add_argument("--max-passes", type=int, default=1 << 30)
    args = parser.parse_args(argv)
    result = setup(args) if args.command == "setup" else run_passes(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
