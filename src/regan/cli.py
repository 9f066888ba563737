"""Config-driven pipeline: validate -> moments -> probes -> criteria -> pde.

`regan run --config cfg.json --out DIR` executes the requested analyses in
dependency order and writes a JSON report plus CSV witness tables.  The
report is byte-reproducible, apart from its "timings" block, for a fixed
config, version and BLAS thread count.  Exit codes: 0 success, 2 config
error, 3 numeric failure.

A config is a JSON object with a required "family" descriptor (see
`regan families`), an optional "schema" (must be 1) and these ten
settable values; any other key is a config error:

    analyses                 ["validate", "moments", "probes", "criteria"]
                             any nonempty subset of ANALYSES; compare needs pde
    radius_count             20      dyadic radii of validate/moments, 1..1000
    probes.system            "reduced"   or "full" (its conjugated 4x4 block)
    probes.s_grid            [0, 2, 5, 10, 20]   1..64 sorted entries in [0, t_max)
    probes.t_max             30.0    horizon in t = -log r, in (1, 700]
    probes.rtol              1e-10   integrator tolerance, in [1e-12, 1e-3]
    criteria.n_windows       80      dyadic windows, 1..1000
    criteria.prefix_windows  120     windows of the signed prefix tests, 1..1000
    pde.h                    2^-6    mesh width 1.375 / N on [-0.6875, 0.6875]
                                     for an even cell count N in [56, 704]
                                     (2^-6 to 2^-9 among the powers of two)
    pde.boundary             "v_rich_mix"   a key of pdelab.BOUNDARY_LIBRARY

The three counts (radius_count and the two criteria windows) take JSON
integers only, the other numbers integers or floats; a bool or a string
is never a number.  The bounds above are the table BOUNDS, the string
choices CHOICES.  `main` reads at most MAX_CONFIG_BYTES of the config.

The verdict thresholds, the circle quadrature and the pde sizes are the
library's, and no config bends them: each is a module constant next to the
code that reads it, in `dynsys`, `criteria`, `tails`, `moments` and
`pdelab`.

A run builds one `dynsys.DriftTable` per system kind, the reduced 4x4
system and the exact 8x8 one, and its stages share them: the probes read
the table of `probes.system` (the 8x8 one through its block view), the
criteria the reduced table and compare the 8x8 table.  A window that one
stage filled is not evaluated again by a later one.

The probes stage propagates the stability lanes, one per s_grid entry,
and the constancy lane together; `trajectory.csv` holds t and Phi(t, s)
row-major at each sample time of the lane from the smallest s.  The work
is in `results.probes.integrator` (see `dynsys.propagate_lanes`):
`rounds`, the `matrices` calls, one per round in which each unfinished
lane plans its share of steps; the `accepted` and `rejected` steps; the
planned steps that were `discarded`: those after a lane's first rejected
step, or after a step whose proposed next step is shorter than the
planned one; and `est_error`, the largest of these lanes' sums of
per-step max-abs local error estimates.  That sum is a rough size of the
integration error, not a bound on it.

`moments_work` counts the work a stage added to the table it read: the
radii evaluated (`radii`), those whose quadrature stopped at the node cap
(`cap_hits`), the windows filled (`windows`) and those among them whose
interpolant missed the exact matrix at the midpoint, so that they are read
exactly (`unresolved_windows`).  It is in `results.probes` for the table of
the probed system (the exact reduction check of that kind included), in
`results.criteria` for the reduced table and in `results.compare` for the
8x8 table.

`results.pde.solves` holds, for the `field` and the `control` solve, the
GMRES `iterations` and its `residual_history` (see
`pdelab.GridSolution`), next to the max-norm residuals `residual_norm` and
`control_residual_norm` that the solve checks against `pdelab.SOLVER_TOL`.

The report's `verdict` block holds the `headline`, `decided_by` (the ids of
the criteria whose `implied_conclusion` is the headline, empty for
no_guarantee) and the `probe_annotation`.  A field that fails a validate
stage that ran is outside the paper's hypotheses, whatever the criteria
read: its headline is no_guarantee, `decided_by` is ["validation_failed"]
instead, and the annotation notes no criterion gap.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__, coeff, criteria, dynsys, moments, pdelab

ANALYSES = ("validate", "moments", "probes", "criteria", "pde", "compare")

NO_GUARANTEE = "no_guarantee"

# size limits checked up front: past t = 745 (about 1075 dyadic windows)
# e^-t underflows to r = 0, so windows and t_max stay below it, each halving
# of pde.h quadruples the unknowns (123,201 at h = 2^-8), and each s_grid
# entry is one probes lane that holds all its samples (1.8 MB at t_max 700)
MAX_WINDOWS = 1000
MAX_T = 700.0
MIN_H = 2.0**-9
MAX_S_GRID = 64

# `main` reads at most this much of --config, so that a huge file or a
# device such as /dev/zero is refused instead of filling memory
MAX_CONFIG_BYTES = 2**20

# the constancy probe starts its trajectories at t = 1, i.e. r = 1/e
CONSTANCY_T0 = 1.0

# least and most allowed value of each bounded key, for a list of each
# entry; len(KEY) bounds a list's length.  t_max must exceed CONSTANCY_T0.
BOUNDS = {
    "radius_count": (1, MAX_WINDOWS),
    "probes.s_grid": (0.0, math.inf),
    "len(probes.s_grid)": (1, MAX_S_GRID),
    "probes.t_max": (math.nextafter(CONSTANCY_T0, math.inf), MAX_T),
    "probes.rtol": dynsys.RTOL_RANGE,
    "criteria.n_windows": (1, MAX_WINDOWS),
    "criteria.prefix_windows": (1, MAX_WINDOWS),
    "pde.h": (MIN_H, math.inf),
}

CHOICES = {
    "probes.system": ("reduced", "full"),
    "pde.boundary": tuple(sorted(pdelab.BOUNDARY_LIBRARY)),
}


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ProbeConfig:
    system: str = "reduced"
    s_grid: tuple = (0.0, 2.0, 5.0, 10.0, 20.0)
    t_max: float = 30.0
    rtol: float = 1e-10


@dataclass
class CriteriaConfig:
    n_windows: int = 80
    prefix_windows: int = 120


@dataclass
class PdeConfig:
    h: float = 2.0**-6
    boundary: str = "v_rich_mix"


@dataclass
class AnalysisConfig:
    family: dict
    analyses: tuple = ("validate", "moments", "probes", "criteria")
    radius_count: int = 20
    probes: ProbeConfig = dc_field(default_factory=ProbeConfig)
    criteria: CriteriaConfig = dc_field(default_factory=CriteriaConfig)
    pde: PdeConfig = dc_field(default_factory=PdeConfig)


def _apply_section(instance, section, name: str, violations: list):
    if not isinstance(section, dict):
        violations.append(f"{name} must be an object")
        return
    known = set(instance.__dataclass_fields__)
    for key, value in section.items():
        if key not in known:
            violations.append(f"{name}: unknown key {key!r}")
            continue
        current = getattr(instance, key)
        if isinstance(current, tuple):
            if not isinstance(value, list):
                violations.append(f"{name}.{key} must be a list of numbers")
                continue
            try:
                for v in value:
                    coeff.as_number(v)
            except ValueError as exc:
                violations.append(f"{name}.{key} entries {exc}")
                continue
            value = tuple(value)
        elif isinstance(current, str):
            if not isinstance(value, str):
                violations.append(f"{name}.{key} must be a string, got {value!r}")
                continue
        else:
            try:
                value = coeff.as_number(value, type(current))
            except ValueError as exc:
                violations.append(f"{name}.{key} {exc}")
                continue
        setattr(instance, key, value)


def _bound_violations(config) -> list:
    """A message for each key of BOUNDS and CHOICES whose value config breaks."""
    values = {f"{name}.{key}": value for name in ("probes", "criteria", "pde")
              for key, value in vars(getattr(config, name)).items()}
    values["radius_count"] = config.radius_count
    values["len(probes.s_grid)"] = len(config.probes.s_grid)
    out = []
    for key, (least, most) in BOUNDS.items():
        entries = values[key] if isinstance(values[key], tuple) else (values[key],)
        if any(v > most for v in entries):
            out.append(f"{key} must be at most {most!r}")
        elif any(v < least for v in entries):
            out.append(f"{key} must be " + ("positive" if min(entries) <= 0 < least
                                           else f"at least {least!r}"))
    return out + [f"{key} must be one of {list(choices)}"
                  for key, choices in CHOICES.items() if values[key] not in choices]


def validate_config(raw) -> AnalysisConfig:
    """Schema-check a config dict (or JSON text); collect all violations."""
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            # besides malformed JSON: bytes that are not text, an integer past
            # Python's digit limit, or nesting past the recursion limit
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    violations = []
    for key in raw:
        if key not in {"schema", *AnalysisConfig.__dataclass_fields__}:
            violations.append(f"unknown top-level key {key!r}")
    try:
        schema = coeff.as_number(raw.get("schema", 1), int)
    except ValueError:
        schema = None
    if schema != 1:
        violations.append("schema must be 1")
    family = raw.get("family")
    if not isinstance(family, dict):
        violations.append("config needs a 'family' descriptor object")
        family = {"family": "constant"}
    else:
        try:
            coeff.family_from_descriptor(family)
        except ValueError as exc:
            violations.append(f"family: {exc}")

    analyses = raw.get("analyses", ["validate", "moments", "probes", "criteria"])
    if not isinstance(analyses, list) or not analyses:
        violations.append("analyses must be a nonempty list")
        analyses = ["validate"]
    for name in analyses:
        if name not in ANALYSES:
            violations.append(f"unknown analysis {name!r}")
    if "compare" in analyses and "pde" not in analyses:
        violations.append("compare requires pde")

    config = AnalysisConfig(family=family, analyses=tuple(analyses))
    try:
        config.radius_count = coeff.as_number(raw.get("radius_count", 20), int)
    except ValueError as exc:
        violations.append(f"radius_count {exc}")
    _apply_section(config.probes, raw.get("probes", {}), "probes", violations)
    _apply_section(config.criteria, raw.get("criteria", {}), "criteria",
                   violations)
    _apply_section(config.pde, raw.get("pde", {}), "pde", violations)
    violations += _bound_violations(config)
    grid = list(config.probes.s_grid)
    if sorted(grid) != grid:
        violations.append("probes.s_grid must be sorted")
    elif grid and grid[-1] >= config.probes.t_max:
        violations.append("probes.s_grid entries must lie below probes.t_max")
    if config.pde.h >= MIN_H:
        try:
            pdelab.cell_count(config.pde.h)
        except ValueError as exc:
            violations.append(f"pde.h: {exc}")
        else:
            n = pdelab.profile_radii(config.pde.h).size
            if n < pdelab.MIN_PROFILE_RADII:
                violations.append(f"pde.h must leave {pdelab.MIN_PROFILE_RADII} "
                                  f"decomposition radii; {config.pde.h:g} leaves {n}")
    if violations:
        raise ConfigError(violations)
    return config


# ---------------------------------------------------------------------------
# Pipeline stages.
# ---------------------------------------------------------------------------


def _stage_validate(config, field, out_dir):
    report = coeff.validate_field(field, coeff.dyadic_radii(config.radius_count))
    classification = coeff.classify_modulus(field.modulus, criteria.TOL,
                                            n_windows=config.criteria.n_windows)
    return {
        "passes": bool(report.passes),
        "max_violation": report.max_violation,
        "min_discriminant": report.min_discriminant,
        "modulus_nondecreasing": report.modulus_nondecreasing,
        "modulus_vanishes": report.modulus_vanishes,
        "modulus_classification": {
            "dini": classification.dini.as_dict(),
            "square_dini": classification.square_dini.as_dict(),
        },
    }


def _stage_moments(config, field, out_dir):
    radii = coeff.dyadic_radii(config.radius_count)
    path = out_dir / "moments.csv"
    moments.write_moment_csv(path, field, radii)
    return {
        "csv": path.name,
        "max_identity_residual": moments.moment_matrix_residual(field, radii[:10]),
        "identity_radii": [float(r) for r in radii[:10]],
    }


def _drift_tables(field) -> dict:
    """The run's drift tables, one per system kind."""
    return {"reduced": dynsys.DriftTable(dynsys.ReducedSystem(field)),
            "full": dynsys.DriftTable(dynsys.FullSystem(field))}


def _work_since(table, before: dict) -> dict:
    """The `work` a table added since it read `before`."""
    return {key: value - before[key] for key, value in table.work.items()}


def _stage_probes(config, tables, out_dir):
    pc = config.probes
    table = tables[pc.system]
    before = table.work
    # the raw 8x8 system carries a genuine exp(+2t) branch; its stability
    # semantics live on the conjugated neutral block, which reads the table
    system = dynsys.ReducedBlockSystem(table) if pc.system == "full" else table
    # the stability lanes and the constancy lane run in lockstep, and each
    # probe reads its own slice of the results
    stab_lanes = dynsys.stability_lanes(pc.s_grid, pc.t_max)
    const_lanes = dynsys.constancy_lanes(CONSTANCY_T0, pc.t_max)
    results, integrator = dynsys.propagate_lanes(system, stab_lanes + const_lanes,
                                                 pc.rtol)
    n = len(stab_lanes)
    stability = dynsys.classify_stability(stab_lanes, results[:n], pc.t_max)
    constancy = dynsys.classify_constancy(const_lanes, results[n:], pc.t_max)
    # s_grid is sorted, so lane 0 is the one from the smallest s
    (_, ts), (phis, _) = stab_lanes[0], results[0]
    values = np.column_stack([ts, phis.reshape(len(ts), -1)]).ravel().tolist()
    traj_path = out_dir / "trajectory.csv"
    with open(traj_path, "w", encoding="utf-8") as fh:
        d = system.dim
        fh.write("t," + ",".join(f"phi_{i}{j}" for i in range(d) for j in range(d)) + "\n")
        fh.write(("%.17g," * d * d + "%.17g\n") * len(ts) % tuple(values))

    # on the exact systems: the ratio divides by eps(t)^2
    reduction = dynsys.reduction_deviation(tables["full"].system,
                                           tables["reduced"].system,
                                           np.linspace(1.0, pc.t_max, 30))
    return {
        "system": pc.system,
        "uniform_stability": stability.uniform_stability,
        "kappa_max": stability.kappa_max,
        "growth_slope": stability.growth_slope,
        "kappa_samples": [[float(v) for v in row] for row in stability.kappa_samples],
        "asymptotic_constancy": constancy.asymptotic_constancy,
        "deviation_half": constancy.deviation_half,
        "norm_growth": constancy.norm_growth,
        "constancy_samples": [[float(v) for v in row]
                              for row in constancy.constancy_samples],
        "trajectory_csv": traj_path.name,
        "reduction_check": reduction,
        "moments_work": _work_since(table, before),
        "integrator": integrator,
    }


def _stage_criteria(config, system, out_dir):
    before = system.work
    results = criteria.run_all_criteria(system, config.criteria.n_windows,
                                        config.criteria.prefix_windows)
    payload = []
    for res in results:
        csv_path = out_dir / f"criterion_{res.id}.csv"
        _write_witness_csv(csv_path, res.witness)
        payload.append({
            "id": res.id,
            "verdict": res.verdict,
            "implied_conclusion": res.implied_conclusion,
            "flags": list(res.flags),
            "witness_csv_path": csv_path.name,
        })
    return {"criteria": payload,
            "conclusion": criteria.criteria_conclusion(results),
            "moments_work": _work_since(system, before)}


def _write_witness_csv(path, witness: dict):
    numeric = {k: v for k, v in witness.items()
               if isinstance(v, (list, tuple)) and v
               and all(isinstance(x, (int, float)) for x in v)}
    with open(path, "w", encoding="utf-8") as fh:
        if not numeric:
            fh.write("key,value\n")
            for k, v in sorted(witness.items()):
                if isinstance(v, (int, float, str)):
                    fh.write(f"{k},{v}\n")
            return
        keys = sorted(numeric)
        length = max(len(numeric[k]) for k in keys)
        fh.write(",".join(keys) + "\n")
        for i in range(length):
            row = [("%.17g" % numeric[k][i]) if i < len(numeric[k]) else ""
                   for k in keys]
            fh.write(",".join(row) + "\n")


def _stage_pde(config, field, out_dir):
    """The pde payload, and the field's and the control's profiles, which
    the compare stage reads."""
    pc = config.pde
    sol = pdelab.solve_dirichlet(field, pc.h, pc.boundary)
    control = pdelab.solve_dirichlet(coeff.constant_laplacian(), pc.h, pc.boundary)
    radii = pdelab.profile_radii(pc.h)
    prof = pdelab.decompose(pdelab.gradient_field(sol), pc.h, radii)
    prof_control = pdelab.decompose(pdelab.gradient_field(control), pc.h, radii)
    hq = pdelab.hessian_quotients(sol, [2, 4, 8, 16])
    verdicts = pdelab.regularity_diagnostics(prof, field.modulus, prof_control)
    pdelab.write_profile_csv(out_dir / "profile.csv", prof)
    pdelab.write_profile_csv(out_dir / "profile_control.csv", prof_control)
    pdelab.write_solution_csv(out_dir / "solution.csv", sol)
    return {
        "h": pc.h,
        "half_width": pdelab.HALF_WIDTH,
        "boundary": pc.boundary,
        "residual_norm": sol.residual_norm,
        "control_residual_norm": control.residual_norm,
        "solves": {name: {"iterations": len(g.residual_history),
                          "residual_history": g.residual_history}
                   for name, g in (("field", sol), ("control", control))},
        "profile_csv": "profile.csv",
        "control_profile_csv": "profile_control.csv",
        "solution_csv": "solution.csv",
        "verdicts": verdicts,
        "max_projection_residual": float(np.max(prof.projection_residual)),
        "hessian": {"rows": [[float(v) for v in row] for row in hq["rows"]],
                    "cauchy_differences": hq["cauchy_differences"]},
    }, (prof, prof_control)


def _stage_compare(config, system, prof, prof_control):
    before = system.work
    # the control's M is the same at every t, bit for bit: one block table
    # gives it (see ConstantFieldSystem), where a FullSystem would evaluate
    # each of the propagation's radii to the same matrix
    control_sys = dynsys.ConstantFieldSystem(coeff.constant_laplacian())
    table = pdelab.compare_with_dynamics(prof, system, config.probes.rtol)
    control_table = pdelab.compare_with_dynamics(prof_control, control_sys,
                                                 config.probes.rtol)
    floor = max(max(control_table["relative_deviation"]), 1e-14)
    return {
        "radii": table["radii"],
        "relative_deviation": table["relative_deviation"],
        "control_floor": floor,
        "max_relative_deviation": max(table["relative_deviation"]),
        "within_10x_floor": bool(max(table["relative_deviation"]) <= 10.0 * floor),
        "moments_work": _work_since(system, before),
    }


def _verdict_block(results: dict) -> dict:
    """Headline, the criteria that imply it and probe note (see the module
    docstring); a stage whose entry is an error adds nothing."""
    found = results.get("criteria", {})
    mapped = found.get("conclusion", criteria.NONE)
    conclusion = NO_GUARANTEE if mapped == criteria.NONE else mapped
    decided_by = [c["id"] for c in found.get("criteria", [])
                  if c["implied_conclusion"] == conclusion]
    invalid = results.get("validate", {}).get("passes") is False
    if invalid:
        conclusion, decided_by = NO_GUARANTEE, ["validation_failed"]
    probe_note = None
    if "uniform_stability" in results.get("probes", {}):
        stab = results["probes"]["uniform_stability"]
        const = results["probes"]["asymptotic_constancy"]
        probe_note = f"probes: {stab} / {const}"
        if conclusion == NO_GUARANTEE and stab == dynsys.STABLE and not invalid:
            probe_note += " (criterion gap: probes suggest stability beyond the criteria)"
        if conclusion != NO_GUARANTEE and stab == dynsys.UNSTABLE:
            probe_note += " (criterion gap: probe instability contradicts a criterion)"
    return {"headline": conclusion, "decided_by": decided_by,
            "probe_annotation": probe_note}


def run_pipeline(config: AnalysisConfig, out_dir) -> tuple[dict, int]:
    """Execute the configured analyses; write report.json and artifacts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    field = coeff.family_from_descriptor(config.family)
    tables = _drift_tables(field)
    results: dict = {}
    timings: dict = {}
    exit_code = 0
    ordered = [name for name in ANALYSES if name in config.analyses]
    profiles = None
    for name in ordered:
        start = time.perf_counter()
        try:
            if name == "validate":
                results[name] = _stage_validate(config, field, out_dir)
            elif name == "moments":
                results[name] = _stage_moments(config, field, out_dir)
            elif name == "pde":
                results[name], profiles = _stage_pde(config, field, out_dir)
            elif name == "compare":
                results[name] = _stage_compare(config, tables["full"], *profiles)
            elif name == "probes":
                results[name] = _stage_probes(config, tables, out_dir)
            else:
                results[name] = _stage_criteria(config, tables["reduced"], out_dir)
        except Exception as exc:  # noqa: BLE001 - report and stop
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}
            timings[name] = time.perf_counter() - start
            exit_code = 3
            print(f"stage {name} failed: {exc}", file=sys.stderr)
            break
        timings[name] = time.perf_counter() - start

    report = {
        "schema": 1,
        "version": __version__,
        "config": _config_echo(config),
        "results": _json_safe(results),
        "verdict": _verdict_block(results),
        "timings": timings,
    }
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, exit_code


def _json_safe(obj):
    """Strict-JSON copy: non-finite floats become strings, arrays become lists."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _config_echo(config: AnalysisConfig) -> dict:
    echo = asdict(config)
    echo["analyses"] = list(config.analyses)
    echo["probes"]["s_grid"] = list(config.probes.s_grid)
    return echo


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="regan",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a configured analysis pipeline")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--out", required=True, help="output directory")
    sub.add_parser("families", help="list built-in family descriptors")

    args = parser.parse_args(argv)
    if args.command == "families":
        print(json.dumps(coeff.builtin_families(), indent=2, sort_keys=True))
        return 0

    try:
        with open(args.config, "rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)
        if len(data) > MAX_CONFIG_BYTES:
            raise OSError(f"{args.config} is larger than {MAX_CONFIG_BYTES} bytes")
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = validate_config(text)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 2
    _, code = run_pipeline(config, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
