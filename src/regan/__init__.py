"""Regularity analysis of planar nondivergence elliptic operators.

The library builds, from the coefficients a, b, c of
a u_xx + b u_xy + c u_yy = 0, a radius-indexed linear dynamical system in
t = -log r, probes its uniform stability and asymptotic constancy,
evaluates analytic sufficient criteria, and cross-validates the predicted
gradient regularity against a desk-scale finite-difference solve.
`import regan` loads none of its modules; import them by name
(`from regan import cli, coeff`).
"""

__version__ = "0.1.0"
