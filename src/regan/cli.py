"""Config-driven pipeline: validate -> moments -> probes -> criteria -> pde.

`regan run --config cfg.json --out DIR` executes the requested analyses in
dependency order and writes a JSON report plus CSV witness tables.  The
report is byte-reproducible for a fixed config and version except for its
"timings" block.  Exit codes: 0 success, 2 config error, 3 numeric failure.
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


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ProbeConfig:
    system: str = "reduced"
    s_grid: tuple = (0.0, 2.0, 5.0, 10.0, 20.0)
    t0: float = 1.0
    t_max: float = 30.0
    rtol: float = 1e-10
    kappa_threshold: float = 1e3
    slope_margin: float = 0.01
    const_tol: float = 0.25
    growth_factor: float = 2.5


@dataclass
class CriteriaConfig:
    tol: float = 0.05
    n_windows: int = 80
    prefix_windows: int = 120
    group: int = 4


@dataclass
class QuadConfig:
    base_nodes: int = 32
    max_nodes: int = 2**14
    rel_tol: float = 1e-13


@dataclass
class PdeConfig:
    h: float = 2.0**-6
    half_width: float = 0.6875
    boundary: str = "v_rich_mix"
    p: float = 4.0
    solver_tol: float = 1e-10
    nodes_per_circle: int = 256
    radii_per_octave: int = 4


@dataclass
class AnalysisConfig:
    family: dict
    analyses: tuple = ("validate", "moments", "probes", "criteria")
    radius_count: int = 20
    probes: ProbeConfig = dc_field(default_factory=ProbeConfig)
    criteria: CriteriaConfig = dc_field(default_factory=CriteriaConfig)
    quadrature: QuadConfig = dc_field(default_factory=QuadConfig)
    pde: PdeConfig = dc_field(default_factory=PdeConfig)

    def quad_settings(self) -> moments.QuadratureSettings:
        return moments.QuadratureSettings(self.quadrature.base_nodes,
                                          self.quadrature.max_nodes,
                                          self.quadrature.rel_tol)


def _apply_section(instance, section, name: str, violations: list,
                   positive: tuple = ()):
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
            if not isinstance(value, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
                violations.append(f"{name}.{key} must be a list of numbers")
                continue
            value = tuple(value)
        else:
            try:
                value = type(current)(value)
            except (TypeError, ValueError):
                violations.append(f"{name}.{key} must be of type "
                                  f"{type(current).__name__}, got {value!r}")
                continue
        setattr(instance, key, value)
    for key in positive:
        if getattr(instance, key) <= 0:
            violations.append(f"{name}.{key} must be positive")


def validate_config(raw) -> AnalysisConfig:
    """Schema-check a config dict (or JSON text); collect all violations."""
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    violations = []
    known_top = {"schema", "family", "analyses", "radius_count",
                 "probes", "criteria", "quadrature", "pde"}
    for key in raw:
        if key not in known_top:
            violations.append(f"unknown top-level key {key!r}")
    if raw.get("schema", 1) != 1:
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
        config.radius_count = int(raw.get("radius_count", 20))
    except (TypeError, ValueError):
        violations.append(f"radius_count must be an integer, "
                          f"got {raw['radius_count']!r}")
    if config.radius_count < 1:
        violations.append("radius_count must be positive")
    _apply_section(config.probes, raw.get("probes", {}), "probes", violations,
                   positive=("t_max", "rtol", "kappa_threshold", "slope_margin",
                             "const_tol", "growth_factor"))
    if config.probes.system not in ("reduced", "full"):
        violations.append("probes.system must be 'reduced' or 'full'")
    _apply_section(config.criteria, raw.get("criteria", {}), "criteria",
                   violations, positive=("tol", "n_windows", "prefix_windows"))
    _apply_section(config.quadrature, raw.get("quadrature", {}), "quadrature",
                   violations, positive=("base_nodes", "max_nodes", "rel_tol"))
    _apply_section(config.pde, raw.get("pde", {}), "pde", violations,
                   positive=("h", "half_width", "p", "solver_tol"))
    grid = list(config.probes.s_grid)
    if not grid or sorted(grid) != grid:
        violations.append("probes.s_grid must be nonempty and sorted")
    elif grid[-1] >= config.probes.t_max:
        violations.append("probes.s_grid entries must lie below probes.t_max")
    if config.pde.boundary not in pdelab.BOUNDARY_LIBRARY:
        violations.append(f"pde.boundary must be one of "
                          f"{sorted(pdelab.BOUNDARY_LIBRARY)}")
    if violations:
        raise ConfigError(violations)
    return config


# ---------------------------------------------------------------------------
# Pipeline stages.
# ---------------------------------------------------------------------------


def _stage_validate(config, field, out_dir):
    report = coeff.validate_field(field, coeff.dyadic_radii(config.radius_count))
    classification = coeff.classify_modulus(field.modulus, config.criteria.tol,
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
    quad = config.quad_settings()
    path = out_dir / "moments.csv"
    moments.write_moment_csv(path, field, radii, quad)
    residuals = [moments.moment_matrix_residual(field, float(r), quad)
                 for r in radii[:10]]
    return {
        "csv": path.name,
        "max_identity_residual": max(residuals),
        "identity_radii": [float(r) for r in radii[:10]],
    }


def _stage_probes(config, field, out_dir):
    quad = config.quad_settings()
    pc = config.probes
    reduced = dynsys.reduced_system(field, quad)
    if pc.system == "full":
        # the raw 8x8 system carries a genuine exp(+2t) branch; its
        # stability semantics live on the conjugated neutral block
        system = dynsys.full_system(field, quad).reduced_block_system()
    else:
        system = reduced
    settings = dynsys.ProbeSettings(rtol=pc.rtol, kappa_threshold=pc.kappa_threshold,
                                    slope_margin=pc.slope_margin,
                                    const_tol=pc.const_tol,
                                    growth_factor=pc.growth_factor)
    stability = dynsys.uniform_stability_probe(system, list(pc.s_grid), pc.t_max,
                                               settings)
    constancy = dynsys.asymptotic_constancy_probe(system, pc.t0, pc.t_max, settings)
    merged = stability.merged_with(constancy)

    ts = np.linspace(min(pc.s_grid), pc.t_max, 201)
    phis, _ = dynsys.propagate_dense(system, float(ts[0]), ts, pc.rtol)
    traj_path = out_dir / "trajectory.csv"
    with open(traj_path, "w", encoding="utf-8") as fh:
        d = system.dim
        fh.write("t," + ",".join(f"phi_{i}{j}" for i in range(d) for j in range(d)) + "\n")
        for t, phi in zip(ts, phis):
            fh.write(",".join("%.17g" % v for v in [t, *phi.ravel()]) + "\n")

    reduction = dynsys.reduction_deviation(
        dynsys.full_system(field, quad), reduced, np.linspace(1.0, pc.t_max, 30))
    return {
        "system": pc.system,
        "uniform_stability": merged.uniform_stability,
        "kappa_max": merged.kappa_max,
        "growth_slope": merged.growth_slope,
        "kappa_samples": [[float(v) for v in row] for row in merged.kappa_samples],
        "asymptotic_constancy": merged.asymptotic_constancy,
        "deviation_half": merged.deviation_half,
        "norm_growth": merged.norm_growth,
        "constancy_samples": [[float(v) for v in row] for row in merged.constancy_samples],
        "trajectory_csv": traj_path.name,
        "reduction_check": {
            "max_ratio": reduction["max_ratio"],
            "tail_slope": reduction["tail_slope"],
            "t": reduction["t"],
            "ratio": reduction["ratio"],
            "eps_zero": reduction["eps_zero"],
        },
        "moments_work": dict(reduced.work),
    }


def _stage_criteria(config, field, out_dir):
    settings = criteria.CriteriaSettings(tol=config.criteria.tol,
                                         n_windows=config.criteria.n_windows,
                                         prefix_windows=config.criteria.prefix_windows,
                                         group=config.criteria.group)
    system = dynsys.reduced_system(field, config.quad_settings())
    results = criteria.run_all_criteria(system, settings)
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
            "moments_work": dict(system.work)}


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
    pc = config.pde
    quad = config.quad_settings()
    sol = pdelab.solve_dirichlet(field, pc.h, pc.boundary, pc.half_width,
                                 pc.solver_tol)
    control_field = coeff.constant_laplacian()
    control = pdelab.solve_dirichlet(control_field, pc.h, pc.boundary,
                                     pc.half_width, pc.solver_tol)
    radii = pdelab.geometric_radii(4.0 * pc.h * 1.01, pc.half_width / 2.0 * 0.99,
                                   pc.radii_per_octave)
    U = pdelab.gradient_field(sol)
    U_control = pdelab.gradient_field(control)
    prof = pdelab.decompose(U, pc.h, pc.half_width, radii, pc.p,
                            pc.nodes_per_circle)
    prof_control = pdelab.decompose(U_control, pc.h, pc.half_width, radii, pc.p,
                                    pc.nodes_per_circle)
    floor = {
        "lip": np.linalg.norm(prof_control.rVprime, axis=1),
        "rvp": np.linalg.norm(prof_control.rVprime, axis=1),
        "w_ratio": prof_control.M1p_W / np.maximum(
            np.asarray(field.modulus(prof_control.radii), dtype=float)
            * prof_control.radii, 1e-300),
        "u0_ratio": np.linalg.norm(prof_control.U0 - prof_control.U0[0], axis=1)
        / np.maximum(np.asarray(field.modulus(prof_control.radii), dtype=float)
                     * prof_control.radii, 1e-300),
    }
    steps = [2, 4, 8, 16]
    hq = pdelab.hessian_quotients(sol, steps)
    diag = pdelab.regularity_diagnostics(prof, field.modulus, hq, floor)
    pdelab.write_profile_csv(out_dir / "profile.csv", prof)
    pdelab.write_profile_csv(out_dir / "profile_control.csv", prof_control)
    pdelab.write_solution_csv(out_dir / "solution.csv", sol)
    return {
        "h": pc.h,
        "half_width": pc.half_width,
        "boundary": pc.boundary,
        "residual_norm": sol.residual_norm,
        "control_residual_norm": control.residual_norm,
        "profile_csv": "profile.csv",
        "control_profile_csv": "profile_control.csv",
        "solution_csv": "solution.csv",
        "verdicts": diag.verdicts,
        "max_projection_residual": float(np.max(prof.projection_residual)),
        "hessian": {"rows": [[float(v) for v in row] for row in hq["rows"]],
                    "cauchy_differences": hq["cauchy_differences"]},
        "_profile": prof,
        "_profile_control": prof_control,
    }


def _stage_compare(config, field, out_dir, pde_payload):
    quad = config.quad_settings()
    prof = pde_payload.pop("_profile")
    prof_control = pde_payload.pop("_profile_control")
    system = dynsys.full_system(field, quad)
    control_sys = dynsys.full_system(coeff.constant_laplacian(), quad)
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
    }


def _verdict_block(results: dict) -> dict:
    """Headline and probe note; a stage whose entry is an error adds nothing."""
    conclusion = NO_GUARANTEE
    mapped = results.get("criteria", {}).get("conclusion", criteria.NONE)
    if mapped != criteria.NONE:
        conclusion = mapped
    probe_note = None
    if "uniform_stability" in results.get("probes", {}):
        stab = results["probes"]["uniform_stability"]
        const = results["probes"]["asymptotic_constancy"]
        probe_note = f"probes: {stab} / {const}"
        if conclusion == NO_GUARANTEE and stab == dynsys.STABLE:
            probe_note += " (criterion gap: probes suggest stability beyond the criteria)"
        if conclusion != NO_GUARANTEE and stab == dynsys.UNSTABLE:
            probe_note += " (criterion gap: probe instability contradicts a criterion)"
    return {"headline": conclusion, "probe_annotation": probe_note}


STAGES = {
    "validate": _stage_validate,
    "moments": _stage_moments,
    "probes": _stage_probes,
    "criteria": _stage_criteria,
    "pde": _stage_pde,
}


def run_pipeline(config: AnalysisConfig, out_dir) -> tuple[dict, int]:
    """Execute the configured analyses; write report.json and artifacts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    field = coeff.family_from_descriptor(config.family)
    results: dict = {}
    timings: dict = {}
    exit_code = 0
    ordered = [name for name in ANALYSES if name in config.analyses]
    for name in ordered:
        start = time.perf_counter()
        try:
            if name == "compare":
                results[name] = _stage_compare(config, field, out_dir,
                                               results["pde"])
            else:
                results[name] = STAGES[name](config, field, out_dir)
        except Exception as exc:  # noqa: BLE001 - report and stop
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}
            timings[name] = time.perf_counter() - start
            exit_code = 3
            print(f"stage {name} failed: {exc}", file=sys.stderr)
            break
        timings[name] = time.perf_counter() - start
    results.get("pde", {}).pop("_profile", None)
    results.get("pde", {}).pop("_profile_control", None)

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
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = validate_config(text)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    _, code = run_pipeline(config, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
