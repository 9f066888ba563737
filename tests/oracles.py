"""Independent oracles used to freeze expected values.

Circle means of trigonometric polynomials are computed here by exact
Fourier-coefficient algebra (complex exponential convolution), a path with
no quadrature in it, so agreement with the trapezoid-based library code is
a genuine cross-check.  The nine-point stencil of `pdelab` is assembled
here entry by entry into a sparse matrix, with the boundary data moved to
the right-hand side node by node, against which the library's slice
operator and its GMRES solves are checked.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class FourierSeries:
    """A real trig polynomial stored as complex exponential coefficients.

    coeffs[k] multiplies e^{i (k - offset) phi}; products are convolutions.
    """

    def __init__(self, coeffs, offset):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.offset = offset

    @classmethod
    def constant(cls, value):
        return cls([value], 0)

    @classmethod
    def cos(cls, n, amplitude=1.0):
        if n == 0:
            return cls.constant(amplitude)
        c = np.zeros(2 * n + 1, dtype=complex)
        c[0] = c[-1] = 0.5 * amplitude
        return cls(c, n)

    @classmethod
    def sin(cls, n, amplitude=1.0):
        c = np.zeros(2 * n + 1, dtype=complex)
        c[0] = 0.5j * amplitude
        c[-1] = -0.5j * amplitude
        return cls(c, n)

    def __add__(self, other):
        if not isinstance(other, FourierSeries):
            other = FourierSeries.constant(other)
        off = max(self.offset, other.offset)
        n = max(self.coeffs.size - self.offset, other.coeffs.size - other.offset)
        out = np.zeros(off + n, dtype=complex)
        out[off - self.offset:off - self.offset + self.coeffs.size] += self.coeffs
        out[off - other.offset:off - other.offset + other.coeffs.size] += other.coeffs
        return FourierSeries(out, off)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, FourierSeries):
            other = FourierSeries.constant(other)
        return FourierSeries(np.convolve(self.coeffs, other.coeffs),
                             self.offset + other.offset)

    __rmul__ = __mul__

    def mean(self) -> float:
        """Circle mean = the zero-frequency coefficient."""
        val = self.coeffs[self.offset]
        assert abs(val.imag) < 1e-14
        return float(val.real)


THETA1 = FourierSeries.cos(1)
THETA2 = FourierSeries.sin(1)


def trig_field_series(seed: int, degree: int = 6, amplitude: float = 0.2):
    """Fourier series of (a, b, c) matching coeff.make_trig_field(seed)."""
    rng = np.random.default_rng(seed)
    out = {}
    for name in ("a", "b", "c"):
        alpha = rng.uniform(-1.0, 1.0, degree + 1)
        beta = rng.uniform(-1.0, 1.0, degree + 1)
        beta[0] = 0.0
        total = np.sum(np.abs(alpha)) + np.sum(np.abs(beta))
        alpha, beta = alpha * amplitude / total, beta * amplitude / total
        series = FourierSeries.constant(0.0 if name == "b" else 1.0)
        for n in range(degree + 1):
            series = series + FourierSeries.cos(n, alpha[n])
            series = series + FourierSeries.sin(n, beta[n])
        out[name] = series
    return out


def coefficient_block_series(a, b, c):
    """The four 2x2 coefficient blocks with FourierSeries entries."""
    zero = FourierSeries.constant(0.0)
    one = FourierSeries.constant(1.0)
    minus_one = FourierSeries.constant(-1.0)
    return {
        (0, 0): [[a, zero], [zero, one]],
        (0, 1): [[b, c + minus_one], [zero, zero]],
        (1, 0): [[zero, zero], [a + minus_one, b]],
        (1, 1): [[one, zero], [zero, c]],
    }


def block_means(blocks, weights):
    """4x4 table of circle means: block (k,l), weight w[k][l](i,j) multiplies A_ij."""
    out = np.zeros((4, 4))
    for k in range(2):
        for l in range(2):
            for p in range(2):
                for q in range(2):
                    total = FourierSeries.constant(0.0)
                    for i in range(2):
                        for j in range(2):
                            w = weights(k, l, i, j)
                            if w is None:
                                continue
                            total = total + blocks[(i, j)][p][q] * w
                    out[2 * k + p, 2 * l + q] = total.mean()
    return out


def oracle_tables(seed: int):
    """Exact theta4 / theta2_col / theta2_row / plain tables for a trig field."""
    series = trig_field_series(seed)
    blocks = coefficient_block_series(series["a"], series["b"], series["c"])
    theta = (THETA1, THETA2)

    def w_theta4(k, l, i, j):
        return theta[i] * theta[j] * theta[k] * theta[l]

    def w_col(k, l, i, j):
        return theta[i] * theta[k] if j == l else None

    def w_row(k, l, i, j):
        return theta[j] * theta[l] if i == k else None

    def w_plain(k, l, i, j):
        return FourierSeries.constant(1.0) if (i, j) == (k, l) else None

    return {
        "theta4": block_means(blocks, w_theta4),
        "theta2_col": block_means(blocks, w_col),
        "theta2_row": block_means(blocks, w_row),
        "plain": block_means(blocks, w_plain),
        "series": series,
    }


def oracle_moment_vector(seed: int):
    series = trig_field_series(seed)
    w2 = THETA2 * THETA2 + FourierSeries.constant(-1.0) * (THETA1 * THETA1)
    wx = FourierSeries.constant(-2.0) * (THETA1 * THETA2)
    return np.array([
        (series["a"] * w2).mean(), (series["a"] * wx).mean(),
        (series["b"] * w2).mean(), (series["b"] * wx).mean(),
        (series["c"] * w2).mean(), (series["c"] * wx).mean(),
    ])


def stencil_matrix(field, h, data_fn, half_width):
    """The h^2-scaled nine-point equations A u = rhs of
    a u_xx + b u_xy + c u_yy = 0 on the interior nodes of the grid
    -half_width + h * k, as a CSR matrix of COO triplets.

    Unknowns are ordered ix-major, (ix - 1) * (N - 1) + (iy - 1); the origin
    node carries (a, b, c) = (1, 0, 1); each neighbour on the boundary ring
    moves its data_fn value times its weight to rhs.
    """
    N = int(round(2.0 * half_width / h))
    xs = -half_width + h * np.arange(N + 1)
    ix, iy = np.meshgrid(np.arange(1, N), np.arange(1, N), indexing="ij")
    ix, iy = ix.ravel(), iy.ravel()
    X, Y = xs[ix], xs[iy]
    a, b, c = (np.asarray(v, dtype=float).copy() for v in field.coefficients(X, Y))
    origin = (np.abs(X) < 0.5 * h) & (np.abs(Y) < 0.5 * h)
    a[origin], b[origin], c[origin] = 1.0, 0.0, 1.0

    def index(jx, jy):
        return (jx - 1) * (N - 1) + (jy - 1)

    center = index(ix, iy)
    rows, cols, vals = [center], [center], [-2.0 * (a + c)]
    rhs = np.zeros((N - 1) ** 2)
    stencil = ((1, 0, a), (-1, 0, a), (0, 1, c), (0, -1, c),
               (1, 1, 0.25 * b), (-1, -1, 0.25 * b),
               (1, -1, -0.25 * b), (-1, 1, -0.25 * b))
    for dx, dy, w in stencil:
        jx, jy = ix + dx, iy + dy
        inside = (jx >= 1) & (jx <= N - 1) & (jy >= 1) & (jy <= N - 1)
        rows.append(center[inside])
        cols.append(index(jx[inside], jy[inside]))
        vals.append(w[inside])
        edge = ~inside
        np.subtract.at(rhs, center[edge],
                       w[edge] * data_fn(xs[jx[edge]], xs[jy[edge]]))
    A = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(rhs.size, rhs.size))
    return A, rhs
