"""Deterministic random streams and the small numerical toolbox.

This module owns everything the statistical layers need from "numerics":
named substreams of a counter-based random generator, the log-gamma
function, the chi-square distribution function and its inverse, and a
pivoted Cholesky factorisation used as the single positive-definiteness
gate in the package.

The chi-square routines are implemented directly (Stirling series for
``ln_gamma``, incomplete-gamma series and continued fraction for the
distribution function) so that results are reproducible to the last bit
regardless of the SciPy build installed next to the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NotPositiveDefinite

__all__ = [
    "RngStream",
    "ln_gamma",
    "chi2_cdf",
    "chi2_quantile",
    "CholeskyFactor",
    "cholesky",
]

_LN_SQRT_2PI = 0.9189385332046727417803297364056176

# Stirling series coefficients B_{2k} / (2k (2k - 1)); truncation error
# below 1e-15 relative once the argument has been shifted to >= 10.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_SHIFT_POINT = 10.0
_EPS = 1e-16
_MAX_SERIES_ITER = 600


@dataclass(frozen=True)
class RngStream:
    """Name of a deterministic random substream.

    A stream is identified by a 64-bit ``seed``, a ``stream_id`` and a
    path of child indices.  Two distinct names yield statistically
    independent generators; the same name always yields the identical
    draw sequence, independent of execution order elsewhere in the
    program.  This is what makes replications of the Monte Carlo
    experiments schedule independent.

    Parameters
    ----------
    seed : int
        Master seed, non-negative.
    stream_id : int
        Top-level stream index, non-negative.
    path : tuple of int
        Child indices accumulated by :meth:`substream`.
    """

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if self.stream_id < 0:
            raise DomainError("stream_id must be non-negative")
        if any(i < 0 for i in self.path):
            raise DomainError("substream indices must be non-negative")

    def substream(self, *ids: int) -> "RngStream":
        """Return the child stream obtained by appending ``ids`` to the path."""
        return RngStream(self.seed, self.stream_id, self.path + ids)

    def generator(self) -> np.random.Generator:
        """Instantiate the generator for this stream name.

        Every call returns a fresh generator positioned at the start of
        the stream, so draws are a pure function of the name.
        """
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, *self.path)
        )
        return np.random.Generator(np.random.Philox(seq))


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for positive real ``x``.

    Uses the Stirling asymptotic series after shifting the argument
    above 10 with the recursion ``ln Gamma(x) = ln Gamma(x + 1) - ln x``.
    Accurate to a few units in the last place over the whole positive
    axis representable in double precision.
    """
    x = float(x)
    if not x > 0.0 or not math.isfinite(x):
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    shift = 0.0
    while x < _SHIFT_POINT:
        shift += math.log(x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = 1.0 / x
    for coeff in _STIRLING:
        series += coeff * power
        power *= inv2
    return (x - 0.5) * math.log(x) - x + _LN_SQRT_2PI + series - shift


def _gamma_p_series(a: float, t: float) -> float:
    # Lower regularized incomplete gamma by power series; valid t < a + 1.
    term = 1.0 / a
    total = term
    for k in range(1, _MAX_SERIES_ITER):
        term *= t / (a + k)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    log_prefactor = a * math.log(t) - t - ln_gamma(a)
    if log_prefactor < -745.0:
        return 0.0
    return total * math.exp(log_prefactor)


def _gamma_q_contfrac(a: float, t: float) -> float:
    # Upper regularized incomplete gamma by Lentz continued fraction;
    # valid t >= a + 1.
    tiny = 1e-300
    b = t + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_SERIES_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3.0 * _EPS:
            break
    log_prefactor = a * math.log(t) - t - ln_gamma(a)
    if log_prefactor < -745.0:
        return 0.0
    return h * math.exp(log_prefactor)


def chi2_cdf(x: float, df: float) -> float:
    """Chi-square distribution function ``P(X <= x)`` with ``df`` degrees.

    Parameters
    ----------
    x : float
        Evaluation point, must be >= 0.
    df : float
        Degrees of freedom, must be > 0.
    """
    x = float(x)
    df = float(df)
    if df <= 0.0 or not math.isfinite(df):
        raise DomainError(f"degrees of freedom must be positive, got {df!r}")
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"chi2_cdf requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    a = 0.5 * df
    t = 0.5 * x
    if t < a + 1.0:
        return min(_gamma_p_series(a, t), 1.0)
    return max(1.0 - _gamma_q_contfrac(a, t), 0.0)


def chi2_quantile(prob: float, df: float) -> float:
    """Inverse chi-square distribution function.

    Solves ``chi2_cdf(x, df) == prob`` by bracketing and bisection; the
    returned point satisfies the equation to within a few units in the
    last place of ``prob``.

    Parameters
    ----------
    prob : float
        Target probability, strictly between 0 and 1.
    df : float
        Degrees of freedom, must be > 0.
    """
    prob = float(prob)
    df = float(df)
    if df <= 0.0 or not math.isfinite(df):
        raise DomainError(f"degrees of freedom must be positive, got {df!r}")
    if not 0.0 < prob < 1.0:
        raise DomainError(f"probability must lie strictly in (0, 1), got {prob!r}")
    lo = 0.0
    hi = df + 10.0 * math.sqrt(2.0 * df) + 10.0
    for _ in range(200):
        if chi2_cdf(hi, df) >= prob:
            break
        lo = hi
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if chi2_cdf(mid, df) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Lower-triangular factor ``L`` with ``L @ L.T`` equal to the input."""

    lower: np.ndarray

    @property
    def log_det(self) -> float:
        """Log determinant of the factored matrix."""
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def solve_lower(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``L z = rhs`` by forward substitution.

        ``rhs`` may be a vector of length p or an array whose last axis
        has length p; the solve is applied along that axis.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        lower = self.lower
        p = lower.shape[0]
        if rhs.shape[-1] != p:
            raise DimensionError(
                f"right-hand side last axis {rhs.shape[-1]} does not match order {p}"
            )
        out = np.empty_like(rhs)
        for j in range(p):
            acc = rhs[..., j].copy()
            for k in range(j):
                acc -= lower[j, k] * out[..., k]
            out[..., j] = acc / lower[j, j]
        return out


def cholesky(mat: np.ndarray) -> CholeskyFactor:
    """Pivot-checked Cholesky factorisation of a symmetric matrix.

    Raises
    ------
    DomainError
        If the matrix is not square or not symmetric to within
        ``1e-12`` relative to its largest entry.
    NotPositiveDefinite
        If any pivot falls at or below ``p * 1e-14 * max(diag)``; this
        single rule is the package-wide positive-definiteness gate.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    p = mat.shape[0]
    if p == 0:
        raise DimensionError("matrix order must be at least 1")
    if not np.all(np.isfinite(mat)):
        raise DomainError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if float(np.max(np.abs(mat - mat.T))) > 1e-12 * scale:
        raise DomainError("matrix is not symmetric")
    max_diag = float(np.max(np.diag(mat)))
    threshold = p * 1e-14 * max_diag
    lower = np.zeros_like(mat)
    for j in range(p):
        d = mat[j, j] - float(lower[j, :j] @ lower[j, :j])
        if not d > threshold:
            raise NotPositiveDefinite(
                f"pivot {d!r} at index {j} is at or below threshold {threshold!r}"
            )
        lower[j, j] = math.sqrt(d)
        if j + 1 < p:
            lower[j + 1 :, j] = (
                mat[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]
            ) / lower[j, j]
    return CholeskyFactor(lower=lower)
