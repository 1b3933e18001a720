"""Deterministic random streams and the small numerical toolbox.

This module owns everything the statistical layers need from "numerics":
named substreams of a counter-based random generator, the log-gamma
function, the chi-square distribution function and its inverse, and the
package's only Cholesky factorisation, whose pivot rule is its single
positive-definiteness gate: :func:`cholesky` checks its input and raises
on a failed pivot, :func:`cholesky_mask` returns a per-matrix pass mask
for the MCD search's stacks of candidate covariances.

The chi-square routines are implemented directly (Stirling series for
``ln_gamma``, incomplete-gamma series and continued fraction for the
distribution function) so that results are reproducible to the last bit
regardless of the SciPy build installed next to the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError, NotPositiveDefinite

__all__ = [
    "RngStream",
    "ln_gamma",
    "chi2_cdf",
    "chi2_quantile",
    "CholeskyFactor",
    "cholesky",
    "cholesky_mask",
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

    A stream is identified by a 64-bit ``seed`` and a path of child
    indices.  Two distinct names yield statistically independent
    generators; the same name always yields the identical draw sequence,
    independent of execution order elsewhere in the program.  This is
    what makes replications of the Monte Carlo experiments schedule
    independent.

    Parameters
    ----------
    seed : int
        Master seed, non-negative.
    path : tuple of int
        Child indices accumulated by :meth:`substream`.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if any(i < 0 for i in self.path):
            raise DomainError("substream indices must be non-negative")

    def substream(self, *ids: int) -> "RngStream":
        """Return the child stream obtained by appending ``ids`` to the path."""
        return RngStream(self.seed, self.path + ids)

    def generator(self) -> np.random.Generator:
        """Instantiate the generator for this stream name.

        Every call returns a fresh generator positioned at the start of
        the stream, so draws are a pure function of the name.
        """
        # The leading 0 is part of every stream's name: recorded seeds,
        # golden outputs and calibration caches were all drawn with it.
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(0, *self.path))
        return np.random.Generator(np.random.Philox(seq))


@lru_cache(maxsize=1024)
def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for positive real ``x``.

    Uses the Stirling asymptotic series after shifting the argument
    above 10 with the recursion ``ln Gamma(x) = ln Gamma(x + 1) - ln x``.
    Accurate to a few units in the last place over the whole positive
    axis representable in double precision.  Results are cached: every
    chi-square p-value of a design and hypothesis asks for the same
    ``ln_gamma(df / 2)``.
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
    # Lower regularized incomplete gamma by power series, divided by the
    # prefactor t^a e^-t / Gamma(a); valid t < a + 1.
    term = 1.0 / a
    total = term
    for k in range(1, _MAX_SERIES_ITER):
        term *= t / (a + k)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total


def _gamma_q_contfrac(a: float, t: float) -> float:
    # Upper regularized incomplete gamma by Lentz continued fraction,
    # divided by the same prefactor; valid t >= a + 1.
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
    return h


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
    log_prefactor = a * math.log(t) - t - ln_gamma(a)
    if log_prefactor < -745.0:
        # exp underflows: the series side is 0, the fraction side 1
        return 0.0 if t < a + 1.0 else 1.0
    prefactor = math.exp(log_prefactor)
    if t < a + 1.0:
        return min(_gamma_p_series(a, t) * prefactor, 1.0)
    return max(1.0 - _gamma_q_contfrac(a, t) * prefactor, 0.0)


@lru_cache(maxsize=1024)
def chi2_quantile(prob: float, df: float) -> float:
    """Inverse chi-square distribution function.

    Solves ``chi2_cdf(x, df) == prob`` by bracketing and bisection; the
    returned point satisfies the equation to within a few units in the
    last place of ``prob``.  Results are cached, since the pipelines ask
    for the same few cutoffs on every replication.

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
    """Lower-triangular factor ``L`` with ``L @ L.T`` equal to the input.

    ``lower`` has the shape of the factored input: one ``(p, p)`` factor,
    or a ``(..., p, p)`` stack of them.
    """

    lower: np.ndarray

    @property
    def log_det(self) -> float | np.ndarray:
        """Log determinant of the factored matrix, one per stacked matrix."""
        diag = np.diagonal(self.lower, axis1=-2, axis2=-1)
        total = np.sum(np.log(diag), axis=-1)
        if self.lower.ndim == 2:
            return 2.0 * float(total)
        return 2.0 * total


def _pivot_cholesky(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    # Cholesky factors of an (s, p, p) stack, column by column with the
    # arithmetic of a single matrix.  A pivot at or below p * 1e-14 *
    # max(diag) of its matrix fails and is replaced by one.  Also returns
    # the thresholds and each matrix's first failing pivot: its index (p
    # where none fails) and its value.
    s, p, _ = stack.shape
    threshold = p * 1e-14 * np.diagonal(stack, axis1=1, axis2=2).max(axis=1)
    lower = np.zeros_like(stack)
    fail_at, fail_value = np.full(s, p), np.zeros(s)
    for j in range(p):
        vec = lower[:, j, :j, None]
        d = stack[:, j, j] - (lower[:, j, None, :j] @ vec)[:, 0, 0]
        low = ~(d > threshold)
        if low.any():
            first = low & (fail_at == p)
            fail_at[first], fail_value[first] = j, d[first]
            d = np.where(low, 1.0, d)
        pivot = np.sqrt(d)
        lower[:, j, j] = pivot
        if j + 1 < p:
            lower[:, j + 1 :, j] = (
                stack[:, j + 1 :, j] - (lower[:, j + 1 :, :j] @ vec)[:, :, 0]
            ) / pivot[:, None]
    return lower, threshold, fail_at, fail_value


def cholesky(mat: np.ndarray) -> CholeskyFactor:
    """Pivot-checked Cholesky factorisation of a symmetric matrix or stack.

    ``mat`` is one ``(p, p)`` matrix or a ``(..., p, p)`` stack.  A stack
    is factored column by column for all its matrices at once, with the
    arithmetic of a single matrix, so each factor equals the one its
    matrix gets on its own; every check below also applies per matrix.

    Raises
    ------
    DomainError
        If a matrix has a non-finite entry or is not symmetric to within
        ``1e-12`` relative to its own largest entry.
    DimensionError
        If the matrices are not square.
    NotPositiveDefinite
        If any pivot falls at or below ``p * 1e-14 * max(diag)`` of its
        matrix; this single rule is the package-wide positive-definiteness
        gate.  A stack reports its first failing matrix, at that matrix's
        first failing pivot.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    p = mat.shape[-1]
    if p == 0:
        raise DimensionError("matrix order must be at least 1")
    stack = mat.reshape(-1, p, p)
    flat = stack.reshape(-1, p * p)
    where = "" if mat.ndim == 2 else "matrix {} of the stack: "
    # max propagates NaN, so a non-finite entry shows in its matrix's scale
    scales = np.abs(flat).max(axis=1)
    bad = ~np.isfinite(scales)
    if bad.any():
        raise DomainError(f"{where.format(np.argmax(bad))}matrix entries must be finite")
    asym = np.abs(stack - stack.transpose(0, 2, 1)).reshape(flat.shape).max(axis=1)
    bad = asym > 1e-12 * np.maximum(scales, 1.0)
    if bad.any():
        raise DomainError(f"{where.format(np.argmax(bad))}matrix is not symmetric")
    lower, threshold, fail_at, fail_value = _pivot_cholesky(stack)
    if (fail_at < p).any():
        i = int(np.argmax(fail_at < p))
        raise NotPositiveDefinite(
            f"{where.format(i)}pivot {float(fail_value[i])!r} at index "
            f"{fail_at[i]} is at or below threshold {float(threshold[i])!r}"
        )
    return CholeskyFactor(lower=lower.reshape(mat.shape))


def cholesky_mask(mat: np.ndarray) -> tuple[CholeskyFactor, np.ndarray]:
    """:func:`cholesky` without its checks, for square, symmetric, finite input.

    Returns the factors and a mask of shape ``mat.shape[:-2]`` that is
    False exactly where :func:`cholesky` of that matrix raises
    :class:`NotPositiveDefinite`; the factors of those matrices are garbage.
    """
    mat = np.asarray(mat, dtype=np.float64)
    p = mat.shape[-1]
    lower, _, fail_at, _ = _pivot_cholesky(mat.reshape(-1, p, p))
    ok = (fail_at == p).reshape(mat.shape[:-2])
    return CholeskyFactor(lower=lower.reshape(mat.shape)), ok
