"""Correctness gate: decides, for every report a pass produces, whether the
operation failed.

An operation fails when
  * `run_pipeline` returned a nonzero exit code or wrote no report.json;
  * the headline verdict (where criteria ran) or the `uniform_stability`
    probe verdict (where probes ran) differs from `workloads.EXPECTED`;
  * a half-horizon criterion verdict differs from the default-horizon
    verdict of the same family in the same pass (`horizon_flip`);
  * a numeric field under "results" drifts from the stored reference by more
    than TOLERANCE, measured as |x - ref| / max(1, |ref|).

Fields that a rounding-level perturbation of the inputs already moves by
more than `make_reference.ROUNDING_LIMIT` are recorded as rounding-dominated
in the reference and are not compared.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import EXPECTED, Operation

TOLERANCE = 1e-6
REFERENCE_PATH = Path(__file__).with_name("reference.json")
DIGITS_CAP = 16.0

# A failure of this kind is counted in `failed`, but the outputs of the
# operation still agree with theory and with the reference.
CONSISTENCY_ONLY = "horizon_flip"


def numeric_fields(obj, path: str = "") -> dict:
    """Finite numbers in a JSON tree, keyed by their '/'-joined path."""
    out = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(numeric_fields(value, f"{path}/{key}"))
    elif isinstance(obj, list):
        for idx, value in enumerate(obj):
            out.update(numeric_fields(value, f"{path}/{idx}"))
    elif (isinstance(obj, (int, float)) and not isinstance(obj, bool)
          and math.isfinite(obj)):
        out[path] = float(obj)
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def max_deviation(results: dict, entry: dict) -> float:
    """Largest |x - ref| / max(1, |ref|) over the gated reference fields."""
    got = numeric_fields(results)
    skip = set(entry["rounding_dominated"])
    worst = 0.0
    for path, ref in entry["values"].items():
        if path in skip:
            continue
        value = got.get(path)
        if value is None:
            return math.inf
        worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    return worst


@dataclass
class Outcome:
    key: str
    family: str
    variant: str
    seconds: float
    reasons: list = field(default_factory=list)
    max_dev: float = math.nan
    criteria: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    @property
    def wrong(self) -> bool:
        """Failed for a reason other than horizon consistency."""
        return any(not r.startswith(CONSISTENCY_ONLY) for r in self.reasons)


def check_operation(op: Operation, exit_code: int, seconds: float,
                    out_dir: Path, reference: dict) -> Outcome:
    outcome = Outcome(op.key, op.family, op.variant, seconds)
    if exit_code != 0:
        outcome.reasons.append(f"exit code {exit_code}")
    path = Path(out_dir) / "report.json"
    if not path.exists():
        outcome.reasons.append("report.json missing")
        outcome.max_dev = math.inf
        return outcome
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    results = report.get("results", {})
    analyses = op.config.get("analyses", ["validate", "moments", "probes", "criteria"])
    expected = EXPECTED.get(op.family)
    if expected is not None and "criteria" in analyses:
        headline = report.get("verdict", {}).get("headline")
        if headline != expected[0]:
            outcome.reasons.append(f"headline {headline} != {expected[0]}")
    if expected is not None and "probes" in analyses:
        stability = results.get("probes", {}).get("uniform_stability")
        if stability != expected[1]:
            outcome.reasons.append(f"uniform_stability {stability} != {expected[1]}")
    if "criteria" in analyses:
        outcome.criteria = {c["id"]: c["verdict"]
                            for c in results.get("criteria", {}).get("criteria", [])}
    entry = reference["ops"].get(op.key)
    if entry is None:
        outcome.reasons.append("no stored reference")
        outcome.max_dev = math.inf
        return outcome
    outcome.max_dev = max_deviation(results, entry)
    if not outcome.max_dev <= TOLERANCE:
        outcome.reasons.append(f"drift {outcome.max_dev:.3g} > {TOLERANCE:g}")
    return outcome


def check_horizon_flips(outcomes: list) -> None:
    """Fail half-horizon operations whose criterion verdicts differ from the
    default-horizon verdicts of the same family in the same pass."""
    default = {o.family: o.criteria for o in outcomes if o.variant == "default"}
    for o in outcomes:
        if o.variant != "half" or o.family not in default:
            continue
        full = default[o.family]
        for cid in sorted(set(full) | set(o.criteria)):
            if full.get(cid) != o.criteria.get(cid):
                o.reasons.append(f"{CONSISTENCY_ONLY} {cid}: "
                                 f"{full.get(cid)} -> {o.criteria.get(cid)}")


def report_digits(outcomes: list) -> float:
    """Decimal digits to which every gated report field matches the reference."""
    worst = max((o.max_dev for o in outcomes), default=math.inf)
    if not worst < math.inf:
        return 0.0
    return min(DIGITS_CAP, -math.log10(max(worst, 10.0**-DIGITS_CAP)))
