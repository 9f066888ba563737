"""Closed-form accuracy probes, one per numeric layer.

Each probe runs a layer on an input whose exact answer is known, so a
speed-up that costs accuracy shows at the layer that lost it.
"""
from __future__ import annotations

import math

import numpy as np

from workloads import BUILTIN

# dini_power: a = 1 + g(r) cos(2 phi) with g(r) = GAMMA * r^ALPHA
GAMMA = BUILTIN["dini_power"]["profile"]["gamma"]
ALPHA = BUILTIN["dini_power"]["profile"]["alpha"]
PROBE_RADII = 2.0 ** -np.arange(0, 41, 2, dtype=float)


def moments_closed_form_err() -> float:
    """max |a1 + g(r)/2| and |a2| on dini_power, by moment_vector and by the
    block tables (plain - 2 theta2_col carries a1, a2 in its first column)."""
    from regan import coeff, moments

    field = coeff.family_from_descriptor(BUILTIN["dini_power"])
    worst = 0.0
    for k, r in enumerate(PROBE_RADII):
        half_g = 0.5 * GAMMA * r**ALPHA
        m = moments.moment_vector(field, float(r))
        worst = max(worst, abs(m.a1 + half_g), abs(m.a2))
        if k % 4 == 0:
            bt = moments.block_table(field, float(r))
            drift = bt.plain - 2.0 * bt.theta2_col
            worst = max(worst, abs(drift[0, 0] + half_g), abs(drift[1, 0]))
    return float(worst)


def dynsys_closed_form_err() -> float:
    """max |Phi - exact| of propagate_dense on second_harmonic_system.

    With g(t) = GAMMA e^{-ALPHA t} only the first column of Phi(t, 0) moves:
    Phi_00 = e^{G(t)}, Phi_30 = 1 - e^{G(t)}, G(t) = int_0^t g/2.
    """
    from regan import dynsys

    system = dynsys.second_harmonic_system(lambda t: GAMMA * math.exp(-ALPHA * t))
    ts = np.linspace(0.0, 30.0, 301)
    phis, _ = dynsys.propagate_dense(system, 0.0, ts, 1e-10)
    growth = np.exp(GAMMA / (2.0 * ALPHA) * (1.0 - np.exp(-ALPHA * ts)))
    exact = np.repeat(np.eye(4)[None], ts.size, axis=0)
    exact[:, 0, 0] = growth
    exact[:, 3, 0] = 1.0 - growth
    return float(np.max(np.abs(phis - exact)))


def pdelab_control_err(h: float = 2.0**-7) -> float:
    """max |u - exact| of the constant-coefficient solve with cubic harmonic
    boundary data, which the nine-point stencil reproduces exactly."""
    from regan import coeff, pdelab

    sol = pdelab.solve_dirichlet(coeff.constant_laplacian(), h, "harmonic_cubic")
    x, y = np.meshgrid(sol.axis(), sol.axis(), indexing="ij")
    return float(np.max(np.abs(sol.u - (x**3 - 3.0 * x * y**2))))


def all_probes() -> dict:
    return {"moments.closed_form_err": moments_closed_form_err(),
            "dynsys.closed_form_err": dynsys_closed_form_err(),
            "pdelab.control_err": pdelab_control_err()}
