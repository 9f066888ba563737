"""Spans and counters around the public functions of each `regan` module.

`install(tracer)` replaces the functions where their callers look them up
and returns the list that `uninstall` uses to put the originals back, so an
untraced run measures the unwrapped program.  `from .moments import
moment_vector` binds the name in `dynsys` and `criteria` at import time, so
such functions are patched in every module that binds them.

Spans carry name, start, end, parent span and operation id and stay in
memory until `write_spans`.  The innermost calls (coefficient evaluation and
`system.matrix`) are only counted and timed, which keeps the span list and
the tracing overhead small; their time still leaves the enclosing span's
self time.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

from workloads import ALL_STAGES

LAYERS = ("coeff", "moments", "dynsys", "criteria", "tails", "pdelab", "cli")
_RADIUS_SPANS = ("moments.moment_vector", "moments.block_table",
                 "moments.moment_matrix_residual")
_CRITERIA_SPANS = {
    "check_dini_integrability": "criteria.dini_R",
    "check_symmetric_part_bound": "criteria.eigenvalue_bound",
    "check_iterated_integral": "criteria.iterated_L1",
    "check_decoupled_case": "criteria.decoupled",
    "run_all_criteria": "criteria.run_all_criteria",
}
_PLAIN_SPANS = {
    "coeff": ("family_from_descriptor", "validate_field", "classify_modulus"),
    "moments": ("write_moment_csv",),
    "dynsys": ("uniform_stability_probe", "asymptotic_constancy_probe",
               "reduction_deviation"),
    "tails": ("dyadic_window_sums", "analyze_sums", "group_sums",
              "prefix_from_sums", "bounded_oscillation_verdict",
              "lower_bound_verdict", "extended_lower_verdict"),
    "pdelab": ("gradient_field", "decompose", "hessian_quotients",
               "regularity_diagnostics", "compare_with_dynamics",
               "write_profile_csv", "write_solution_csv"),
}
# module-level names bound by `from .x import name`, patched where looked up
_MOMENT_OWNERS = {"moment_vector": ("moments", "dynsys", "criteria"),
                  "block_table": ("moments", "dynsys"),
                  "moment_matrix_residual": ("moments",)}
_PROPAGATE_OWNERS = ("dynsys", "pdelab")


class Tracer:
    """Span store plus the per-layer counters of one traced pass."""

    def __init__(self):
        self.spans = []              # (name, start, end, parent, op)
        self.stack = []              # [index, name, start, child_s, parent, points, last]
        self.op = -1
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self._open = Counter()
        self.coeff_calls = self.coeff_points = 0
        self.coeff_s = 0.0
        self.moment_entries = 0
        self.radii = self.points = self.final_nodes = self.cap_hits = 0
        self.matrix_depth = self.matrix_calls = self.matrix_hits = 0
        self.propagate_depth = self.matrix_calls_propagating = 0
        self.t_integrated = 0.0
        self.criteria_depth = 0
        self.r_evals = 0
        self.r_distinct = set()
        self.unknowns = 0

    def enter(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        frame = [len(self.spans), name, time.perf_counter(), 0.0, parent, 0, 0]
        self.spans.append(None)
        self.stack.append(frame)
        self._open[name] += 1
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        index, name, start, child, parent = frame[:5]
        duration = end - start
        self.self_time[name.split(".")[0]] += duration - child
        if self.stack:
            self.stack[-1][3] += duration
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive[name] += duration
        self.calls[name] += 1
        self.spans[index] = (name, start, end, parent, self.op)

    def leaf(self, layer: str, duration: float) -> None:
        """Time of a counted call without a span: leaves the parent's self time."""
        self.self_time[layer] += duration
        if self.stack:
            self.stack[-1][3] += duration

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index},{name},{(start - origin) * 1e6:.1f},"
                         f"{(end - origin) * 1e6:.1f},{parent},{op}\n")

    def metrics(self, stage_seconds: dict, traced_wall: float) -> dict:
        """Per-layer metrics of the traced pass as name -> (value, unit)."""
        inc, calls = self.inclusive, self.calls
        ratio = lambda num, den: num / den if den else 0.0
        m = {
            "coeff.calls": (self.coeff_calls, "count"),
            "coeff.points": (self.coeff_points, "count"),
            "coeff.s": (self.coeff_s, "s"),
            "moments.moment_vector.calls": (calls["moments.moment_vector"], "count"),
            "moments.moment_vector.s": (inc["moments.moment_vector"], "s"),
            "moments.block_table.calls": (calls["moments.block_table"], "count"),
            "moments.block_table.s": (inc["moments.block_table"], "s"),
            "moments.points_per_radius": (ratio(self.points, self.radii), "points"),
            "moments.node_yield": (ratio(self.final_nodes, self.points), "ratio"),
            "moments.cap_hits": (self.cap_hits, "count"),
            "dynsys.propagate_dense.calls": (calls["dynsys.propagate_dense"], "count"),
            "dynsys.propagate_dense.s": (inc["dynsys.propagate_dense"], "s"),
            "dynsys.matrix_calls": (self.matrix_calls, "count"),
            "dynsys.matrix_calls_per_t": (
                ratio(self.matrix_calls_propagating, self.t_integrated), "calls/t"),
            "dynsys.matrix_cache_hit_ratio": (
                ratio(self.matrix_hits, self.matrix_calls), "ratio"),
        }
        for fn in _PLAIN_SPANS["dynsys"]:
            m[f"dynsys.{fn}.s"] = (inc[f"dynsys.{fn}"], "s")
        for span in ("criteria.dini_R", "criteria.eigenvalue_bound",
                     "criteria.iterated_L1", "criteria.decoupled"):
            m[f"{span}.s"] = (inc[span], "s")
        m["criteria.R_evals"] = (self.r_evals, "count")
        m["criteria.R_unique_ratio"] = (ratio(len(self.r_distinct), self.r_evals),
                                        "ratio")
        m["tails.dyadic_window_sums.calls"] = (calls["tails.dyadic_window_sums"], "count")
        m["tails.analyze_sums.calls"] = (calls["tails.analyze_sums"], "count")
        for fn in ("solve_dirichlet", "decompose", "compare_with_dynamics"):
            m[f"pdelab.{fn}.s"] = (inc[f"pdelab.{fn}"], "s")
        m["pdelab.unknowns"] = (self.unknowns, "count")
        m["pdelab.write.s"] = (inc["pdelab.write_profile_csv"]
                               + inc["pdelab.write_solution_csv"], "s")
        for stage in ALL_STAGES:
            m[f"cli.stage.{stage}.s"] = (stage_seconds.get(stage, 0.0), "s")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_time[layer], "s")
        accounted = sum(self.self_time[layer] for layer in LAYERS)
        m["bench.self_s"] = (traced_wall - accounted, "s")
        m["trace.accounted_share"] = (ratio(accounted, traced_wall), "ratio")
        m["trace.spans"] = (len(self.spans), "count")
        return m


def _span_wrapper(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
            if after is not None:
                after(frame)
        return result

    return wrapper


def _radius_wrapper(tracer: Tracer, name: str, fn, default_quad, counts_r: bool):
    """Span around a per-radius moments call, with node and radius counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        quad = args[2] if len(args) > 2 else kwargs.get("quad", default_quad)
        tracer.moment_entries += 1
        if counts_r and tracer.criteria_depth:
            tracer.r_evals += 1
            tracer.r_distinct.add(float(args[1] if len(args) > 1 else kwargs["r"]))
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
            tracer.radii += 1
            tracer.points += frame[5]
            tracer.final_nodes += frame[6]
            tracer.cap_hits += frame[6] >= quad.max_nodes

    return wrapper


def _coefficients_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def coefficients(self, x, y):
        start = time.perf_counter()
        try:
            return fn(self, x, y)
        finally:
            duration = time.perf_counter() - start
            tracer.coeff_s += duration
            tracer.leaf("coeff", duration)
            size = int(np.size(x))
            tracer.coeff_calls += 1
            tracer.coeff_points += size
            if tracer.stack and tracer.stack[-1][1] in _RADIUS_SPANS:
                tracer.stack[-1][5] += size
                tracer.stack[-1][6] = size

    return coefficients


def _matrix_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def matrix(self, t):
        if tracer.matrix_depth:
            return fn(self, t)
        tracer.matrix_depth = 1
        entries = tracer.moment_entries
        try:
            return fn(self, t)
        finally:
            tracer.matrix_depth = 0
            tracer.matrix_calls += 1
            tracer.matrix_hits += tracer.moment_entries == entries
            tracer.matrix_calls_propagating += bool(tracer.propagate_depth)

    return matrix


def install(tracer: Tracer) -> list:
    """Wrap the public functions of each module; returns the undo list."""
    from regan import coeff, criteria, dynsys, moments, pdelab, tails

    mods = {"coeff": coeff, "moments": moments, "dynsys": dynsys,
            "criteria": criteria, "tails": tails, "pdelab": pdelab}
    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for layer, names in _PLAIN_SPANS.items():
        for fn in names:
            patch(mods[layer], fn,
                  _span_wrapper(tracer, f"{layer}.{fn}", getattr(mods[layer], fn)))

    def criteria_in(args, kwargs):
        tracer.criteria_depth += 1

    def criteria_out(frame):
        tracer.criteria_depth -= 1

    for fn, name in _CRITERIA_SPANS.items():
        patch(mods["criteria"], fn, _span_wrapper(
            tracer, name, getattr(mods["criteria"], fn), criteria_in, criteria_out))

    default_quad = mods["moments"].DEFAULT_QUADRATURE
    for fn, owners in _MOMENT_OWNERS.items():
        wrapper = _radius_wrapper(tracer, f"moments.{fn}",
                                  getattr(mods["moments"], fn), default_quad,
                                  counts_r=fn == "moment_vector")
        for owner in owners:
            patch(mods[owner], fn, wrapper)

    def propagate_in(args, kwargs):
        tracer.propagate_depth += 1
        t_eval = args[2] if len(args) > 2 else kwargs["t_eval"]
        if len(t_eval):
            s = args[1] if len(args) > 1 else kwargs["s"]
            tracer.t_integrated += abs(float(t_eval[-1]) - float(s))

    def propagate_out(frame):
        tracer.propagate_depth -= 1

    propagate = _span_wrapper(tracer, "dynsys.propagate_dense",
                              mods["dynsys"].propagate_dense,
                              propagate_in, propagate_out)
    for owner in _PROPAGATE_OWNERS:
        patch(mods[owner], "propagate_dense", propagate)

    solve = mods["pdelab"].solve_dirichlet

    @functools.wraps(solve)
    def solve_dirichlet(*args, **kwargs):
        frame = tracer.enter("pdelab.solve_dirichlet")
        try:
            sol = solve(*args, **kwargs)
        finally:
            tracer.exit(frame)
        tracer.unknowns += (sol.u.shape[0] - 2) ** 2
        return sol

    patch(mods["pdelab"], "solve_dirichlet", solve_dirichlet)

    field_cls = mods["coeff"].CoefficientField
    patch(field_cls, "coefficients",
          _coefficients_wrapper(tracer, field_cls.__dict__["coefficients"]))
    for cls in ("ReducedSystem", "FullSystem", "MatrixSystem"):
        owner = getattr(mods["dynsys"], cls)
        patch(owner, "matrix", _matrix_wrapper(tracer, owner.__dict__["matrix"]))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
