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

# Relative pivot floor of the Cholesky gate: a pivot at or below
# p * PIVOT_TOL * max(diag) of its p x p matrix fails.
PIVOT_TOL = 1e-14


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
        if self.path and min(self.path) < 0:
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


# NumPy SeedSequence's hash: hashmix while absorbing entropy (A), of
# generate_state (B), and the multipliers of mix
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _MASK32 for k in range(5)],
                   dtype=np.uint32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _philox_keys(base: RngStream, ids: range | np.ndarray, *suffix: int) -> np.ndarray:
    """The (len(ids), 2) uint64 Philox keys of ``base.substream(i, *suffix)``.

    Each row is the key :meth:`RngStream.generator` gives that stream:
    NumPy's ``SeedSequence`` mixes the words all ids share, then its hash
    absorbs the id and suffix words and generates the state as uint32
    arithmetic over all ids at once.  Ids and suffix values must lie
    below 2**32, where SeedSequence's one-word integers end.
    """
    ids = np.asarray(ids)
    if min(ids.min(initial=0), *suffix, 0) < 0 or max(ids.max(initial=0), *suffix, 0) > _MASK32:
        raise DomainError("block stream ids must lie in [0, 2**32)")
    mixer = np.random.SeedSequence(base.seed, spawn_key=(0, *base.path)).pool
    # that took 4 hashmix calls per word: the seed's, padded to 4, and the path's
    words = max(4, -(-base.seed.bit_length() // 32))
    words += sum(max(1, -(-v.bit_length() // 32)) for v in (0, *base.path))
    tail = [ids.astype(np.uint32)[:, None], *map(np.uint32, suffix)]
    hashes = np.array([_INIT_A * pow(_MULT_A, 4 * words + k, 1 << 32) & _MASK32
                       for k in range(4 * len(tail) + 1)], dtype=np.uint32)
    for k, word in enumerate(tail):
        value = (word ^ hashes[4 * k : 4 * k + 4]) * hashes[4 * k + 1 : 4 * k + 5]
        value ^= value >> np.uint32(16)
        mixer = _MIX_L * mixer - _MIX_R * value
        mixer ^= mixer >> np.uint32(16)
    state = (mixer ^ _HASH_B[:4]) * _HASH_B[1:]
    state ^= state >> np.uint32(16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _rekeyed(gen: np.random.Generator, keys: np.ndarray):
    """Yield ``gen`` once per key, its Philox in the state of a new ``Philox(key=key)``."""
    zero = np.zeros(4, dtype=np.uint64)
    for key in keys:
        gen.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": zero, "key": key},
            "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield gen


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


def _gamma_p_series(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Lower regularized incomplete gamma by power series, divided by the
    # prefactor t^a e^-t / Gamma(a); valid t < a + 1.  Elementwise over
    # 1-D arrays, each element frozen once its term falls below _EPS of
    # its sum.  All terms are positive.
    term = 1.0 / a
    total = term
    out = np.empty_like(total)
    live = np.arange(len(a))
    for k in range(1, _MAX_SERIES_ITER):
        term = term * (t / (a + float(k)))
        total = total + term
        done = term < total * _EPS
        if np.count_nonzero(done):
            out[live[done]] = total[done]
            keep = ~done
            live, a, t, term, total = live[keep], a[keep], t[keep], term[keep], total[keep]
            if not len(live):
                break
    out[live] = total
    return out


def _gamma_q_contfrac(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Upper regularized incomplete gamma by Lentz continued fraction,
    # divided by the same prefactor; valid t >= a + 1.  Elementwise over
    # 1-D arrays, each element frozen at its own convergence.
    tiny = 1e-300
    b = t + 1.0 - a
    c = np.full_like(b, 1.0 / tiny)
    d = 1.0 / b
    h = d
    out = np.empty_like(h)
    live = np.arange(len(a))
    for i in range(1, _MAX_SERIES_ITER):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 3.0 * _EPS
        if np.count_nonzero(done):
            out[live[done]] = h[done]
            keep = ~done
            live, a, b, c, d, h = live[keep], a[keep], b[keep], c[keep], d[keep], h[keep]
            if not len(live):
                break
    out[live] = h
    return out


def chi2_cdf(x: float | np.ndarray, df: float | np.ndarray) -> float | np.ndarray:
    """Chi-square distribution function ``P(X <= x)`` with ``df`` degrees.

    ``x`` and ``df`` may be arrays, broadcast against each other: the
    result then has their broadcast shape and holds, bit for bit, the
    float each pair gives alone, from one series and one continued
    fraction kernel call over all of them.  Two scalars give a float.

    Parameters
    ----------
    x : float or array
        Evaluation points, each must be >= 0.
    df : float or array
        Degrees of freedom, each must be > 0.

    Raises
    ------
    DomainError
        For the first pair, in C order, with a bad ``df`` or ``x``.
    """
    xs, dfs = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                  np.asarray(df, dtype=np.float64))
    x, df = xs.ravel(), dfs.ravel()
    bad_df = ~(np.isfinite(df) & (df > 0.0))
    bad = bad_df | (x < 0.0) | np.isnan(x)
    if bad.any():
        i = int(np.argmax(bad))
        if bad_df[i]:
            raise DomainError(f"degrees of freedom must be positive, got {float(df[i])!r}")
        raise DomainError(f"chi2_cdf requires x >= 0, got {float(x[i])!r}")
    out = np.where(x == 0.0, 0.0, 1.0)  # exact at x = 0 and x = inf
    inner = np.flatnonzero((x != 0.0) & (x != np.inf))
    a = 0.5 * df[inner]
    t = 0.5 * x[inner]
    lower = t < a + 1.0  # the series side; the continued fraction's otherwise
    # math.log, math.exp and ln_gamma per element: np.exp differs from
    # math.exp in the last bit on some inputs
    log_prefactor = (a * list(map(math.log, t.tolist())) - t
                     - list(map(ln_gamma, a.tolist())))
    # where exp underflows, the series side is 0 and the fraction side 1
    out[inner] = np.where(lower, 0.0, 1.0)
    keep = ~(log_prefactor < -745.0)
    inner, a, t, lower = inner[keep], a[keep], t[keep], lower[keep]
    prefactor = np.array(list(map(math.exp, log_prefactor[keep].tolist())))
    if lower.any():
        series = _gamma_p_series(a[lower], t[lower]) * prefactor[lower]
        out[inner[lower]] = np.minimum(series, 1.0)
    upper = ~lower
    if upper.any():
        fraction = _gamma_q_contfrac(a[upper], t[upper]) * prefactor[upper]
        out[inner[upper]] = np.maximum(1.0 - fraction, 0.0)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


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
    # arithmetic of a single matrix.  A pivot at or below p * PIVOT_TOL *
    # max(diag) of its matrix fails and is replaced by one.  Also returns
    # the thresholds and each matrix's first failing pivot: its index (p
    # where none fails) and its value.
    s, p, _ = stack.shape
    threshold = p * PIVOT_TOL * np.diagonal(stack, axis1=1, axis2=2).max(axis=1)
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
        If any pivot falls at or below ``p * PIVOT_TOL * max(diag)`` of its
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
