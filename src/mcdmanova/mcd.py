"""Minimum covariance determinant estimation.

Implements the fast MCD algorithm: many random starts are concentrated
with a couple of C-steps each, and the most promising candidates are
then iterated to convergence.  Small subset spaces skip that search:
their candidates are all h-subsets.  Either way the candidates reach
one exact scorer, and its winning h-subset defines the raw estimate.  A
one-step reweighting based on the 97.5% chi-square cutoff produces the
final location and scatter.

The raw and reweighted scatter matrices carry two multiplicative
corrections: a trimming consistency factor (so the estimator targets the
true covariance under normality) and a finite-sample factor.  The
finite-sample curves follow the usual ``1 - exp(a) / n^b`` form with
constants fitted by simulation against this implementation; both factors
are recorded on the estimate so callers can remove them.

All randomness is drawn from a named
:class:`~mcdmanova.distributions.RngStream`, which makes every estimate
a pure function of its inputs.

Implementation note: the concentration rounds run over every candidate
subset of every dataset in a stack at once.  A candidate is held as a
0/1 row of a mask matrix from the random start keys to the choice of
the finalists, so subset sums of the monomials (x_i, x_i x_j) come from
one batched matrix product with a per-dataset feature matrix, and
squared distances come from a second product with the quadratic-form
coefficients of each candidate fit.  A bivariate candidate keeps its
covariance and precision as their three distinct entries, each stored
as one contiguous run over the stack, from the moments through the
closed-form Cholesky gate to the distance coefficients; at other
dimensions they are full matrices.  The next mask marks the entries at
or below each row's h-th smallest distance, found by sorting a copy of
the row; rows where that value ties with the next take the set
``np.argpartition`` picks, so the masks equal the index sets it gives.
The start-phase arrays live in a scratch block per thread that every
fit on that thread reuses, so rounds neither allocate nor fault in
fresh pages.  Quantities that end up in a returned estimate are
recomputed with the usual two-pass formulas, for all candidates and
then all winners of a stack in one pass each, so the fast path only
influences which candidates reach the scorer.  Every subset and
reweighting decision is the pivot test of
:func:`~mcdmanova.distributions.cholesky_mask`, the one Cholesky gate
(in closed form for bivariate candidate fits).
Balanced-design pipelines exploit the stacking through
:func:`fast_mcd_batch` to fit all cells of a layout together.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .distributions import (
    PIVOT_TOL,
    RngStream,
    chi2_cdf,
    chi2_quantile,
    cholesky,
    cholesky_mask,
)
from .errors import DimensionError, DomainError, SingularSubset

__all__ = [
    "McdConfig",
    "McdEstimate",
    "h_subset_size",
    "consistency_factor",
    "small_sample_factor",
    "robust_distances",
    "fast_mcd",
    "fast_mcd_batch",
    "reweight",
    "reweight_batch",
]

# Enumerate all h-subsets whenever their number is at most this bound;
# above about a thousand subsets the multistart search is cheaper.
EXHAUSTIVE_LIMIT = 1_000

# Reweighting keeps observations within the 97.5% chi-square cutoff.
REWEIGHT_QUANTILE = 0.975

_CSTEPS_BEFORE_SELECTION = 2

# Cap on concentration steps after selection; runs stop earlier once no
# kept candidate changes.
_MAX_CSTEPS = 100


@dataclass(frozen=True)
class McdConfig:
    """Tuning knobs of the fast MCD search.

    The search path is not a knob: a dataset whose ``C(n, h)`` h-subsets
    number at most ``EXHAUSTIVE_LIMIT`` is enumerated exhaustively, any
    other is searched by multistart concentration with ``n_starts`` and
    ``n_keep``.  With ``alpha = 1`` there is a single h-subset, the whole
    sample, so that fit is always enumerated.

    Parameters
    ----------
    alpha : float
        Target subset fraction in [0.5, 1]; the subset size is
        ``h_subset_size(n, p, alpha)``.
    n_starts : int
        Number of random initial (p+1)-subsets.
    n_keep : int
        Number of best candidates iterated to convergence after the
        initial concentration steps.
    """

    alpha: float = 0.5
    n_starts: int = 500
    n_keep: int = 10

    def __post_init__(self) -> None:
        if not 0.5 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0.5, 1], got {self.alpha!r}")
        if self.n_starts < 1:
            raise DomainError("n_starts must be at least 1")
        if not 1 <= self.n_keep <= self.n_starts:
            raise DomainError("n_keep must lie in [1, n_starts]")


@dataclass(eq=False)
class McdEstimate:
    """Result of an MCD fit.

    ``location``/``scatter`` describe the most refined stage available:
    after :func:`fast_mcd` they equal the raw estimate, after
    :func:`reweight` the reweighted one, with ``consistency_factor`` and
    ``small_sample_factor`` recording the corrections multiplied into
    ``scatter`` at that stage.  ``raw_location``/``raw_scatter`` always
    keep the (corrected) raw fit, ``best_subset`` the winning h-subset,
    ``weights`` the 0/1 membership vector of the current stage, and
    ``objective`` the minimal log determinant of an h-subset covariance.
    """

    location: np.ndarray
    scatter: np.ndarray
    raw_location: np.ndarray
    raw_scatter: np.ndarray
    best_subset: np.ndarray
    weights: np.ndarray
    objective: float
    consistency_factor: float
    small_sample_factor: float
    alpha: float


def h_subset_size(n: int, p: int, alpha: float) -> int:
    """Subset size ``h``: ceil(alpha * n) clamped to [(n+p+1)//2, n]."""
    if n < 1 or p < 1:
        raise DimensionError("n and p must be positive")
    if not 0.5 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0.5, 1], got {alpha!r}")
    return min(max(math.ceil(alpha * n), (n + p + 1) // 2), n)


@lru_cache(maxsize=1024)
def consistency_factor(p: int, frac: float) -> float:
    """Consistency correction for a scatter matrix built from the
    fraction ``frac`` of most central observations under normality.

    Equals ``frac / P(chi2_{p+2} <= chi2 quantile of frac)``; exactly 1
    when nothing is trimmed.
    """
    if p < 1:
        raise DimensionError("p must be positive")
    if not 0.0 < frac <= 1.0:
        raise DomainError(f"fraction must lie in (0, 1], got {frac!r}")
    if frac == 1.0:
        return 1.0
    return frac / chi2_cdf(chi2_quantile(frac, p), p + 2)


def _reweight_cutoff(p: int) -> float:
    return math.sqrt(chi2_quantile(REWEIGHT_QUANTILE, p))


# Finite-sample correction anchors, fitted by simulation against this
# implementation at the normal model: fp estimates the mean of
# det(scatter)^(1/p) over many standard-normal fits with only the
# consistency factor applied, recorded on a grid of n and fitted as
# fp = 1 - exp(a)/n^b; the correction multiplies the scatter by 1/fp.
# Keys are (stage, p, anchor alpha); a None entry means no measurable
# bias remained at that anchor.  The reweighted-stage anchors were
# measured with the raw stage already corrected, so they compose.
_SMALL_SAMPLE_ANCHORS: dict[tuple[str, int, float], tuple[float, float] | None] = {
    ("raw", 1, 0.500): (0.08708583235368128, 0.6435396452584873),
    ("rew", 1, 0.500): (-0.2910135222058365, 0.685999227868552),
    ("raw", 1, 0.875): None,
    ("rew", 1, 0.875): (-3.3673637819544227, 0.2874477272648156),
    ("raw", 2, 0.500): (0.7673739026095973, 0.7159281288165152),
    ("rew", 2, 0.500): (0.7094472529822666, 0.652829662576259),
    ("raw", 2, 0.875): (-0.5444450712567567, 0.7891332681387652),
    ("rew", 2, 0.875): (-0.15915823345363603, 0.7240394768708639),
    ("raw", 3, 0.500): (1.2399446542428476, 0.7975649039675274),
    ("rew", 3, 0.500): (1.3912622810126793, 0.7798659102807249),
    ("raw", 3, 0.875): (0.3199081965441859, 0.8696227581212175),
    ("rew", 3, 0.875): (0.43698719527405805, 0.7781053835123005),
    ("raw", 4, 0.500): (1.2063970619520417, 0.7532704992991847),
    ("rew", 4, 0.500): (1.5104204789076066, 0.7737313374158621),
    ("raw", 4, 0.875): (1.0139798951628185, 0.9724319178565791),
    ("rew", 4, 0.875): (0.9073372299102125, 0.8373789508689483),
    ("raw", 5, 0.500): (1.5252226210548607, 0.8169664946260737),
    ("rew", 5, 0.500): (1.8921089090179308, 0.8491886050056092),
    ("raw", 5, 0.875): (1.486455265092894, 1.0362850276735909),
    ("rew", 5, 0.875): (1.5632391047299528, 0.9602733049996152),
    ("raw", 6, 0.500): (1.7806671367249927, 0.8707797785488057),
    ("rew", 6, 0.500): (2.1938571948559167, 0.9106223929141961),
    ("raw", 6, 0.875): (1.5924658779261731, 1.0264486706525244),
    ("rew", 6, 0.875): (1.6071575930646576, 0.9427658973719012),
    ("raw", 7, 0.500): (1.8489602945172847, 0.8662179217510954),
    ("rew", 7, 0.500): (2.2586362591047773, 0.9005069327169518),
    ("raw", 7, 0.875): (1.6506996340873168, 1.0028523672647576),
    ("rew", 7, 0.875): (1.5734282969355335, 0.8986081767222803),
    ("raw", 8, 0.500): (1.8607001897199318, 0.8543305738856051),
    ("rew", 8, 0.500): (2.3535417436728276, 0.9101019969036344),
    ("raw", 8, 0.875): (1.9381452414703473, 1.0430776606531265),
    ("rew", 8, 0.875): (1.987870442725068, 0.976325994150892),
}

# Above this dimension the p = 8 anchors are reused; the curves flatten
# in p, so the error stays within the fit's own noise.
_MAX_ANCHOR_P = 8


def _fp_curve(stage: str, p: int, anchor: float, n: int) -> float:
    pair = _SMALL_SAMPLE_ANCHORS[(stage, min(p, _MAX_ANCHOR_P), anchor)]
    if pair is None:
        return 1.0
    a, b = pair
    return 1.0 - math.exp(a) / n**b


@lru_cache(maxsize=1024)
def small_sample_factor(p: int, n: int, alpha: float, reweighted: bool = False) -> float:
    """Finite-sample correction multiplied into the scatter matrix.

    Interpolates the fitted anchor curves linearly in ``alpha`` between
    0.5 and 0.875 and from there toward exactly 1 at ``alpha = 1``.
    """
    if p < 1 or n < 2:
        raise DimensionError("need p >= 1 and n >= 2")
    if not 0.5 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0.5, 1], got {alpha!r}")
    stage = "rew" if reweighted else "raw"
    fp_500 = _fp_curve(stage, p, 0.500, n)
    fp_875 = _fp_curve(stage, p, 0.875, n)
    if alpha <= 0.875:
        fp = fp_500 + (fp_875 - fp_500) / 0.375 * (alpha - 0.5)
    else:
        fp = fp_875 + (1.0 - fp_875) / 0.125 * (alpha - 0.875)
    fp = min(fp, 1.0)
    if fp <= 0.0:
        # Curves go negative only for sample sizes too small to be
        # meaningful; fall back to no correction there.
        return 1.0
    return 1.0 / fp


def robust_distances(
    data: np.ndarray, location: np.ndarray, scatter: np.ndarray
) -> np.ndarray:
    """Mahalanobis-type distances of rows of ``data`` from ``location``
    in the metric of ``scatter``.

    Raises :class:`NotPositiveDefinite` if ``scatter`` fails the
    Cholesky gate.
    """
    data = np.asarray(data, dtype=np.float64)
    location = np.asarray(location, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionError(f"data must be two-dimensional, got shape {data.shape}")
    if location.shape != (data.shape[1],):
        raise DimensionError(
            f"location shape {location.shape} does not match data columns"
        )
    factor = cholesky(scatter)
    return np.sqrt(_sq_distances((data - location)[None], factor.lower[None])[0])


def _sq_distances(diffs: np.ndarray, lower: np.ndarray) -> np.ndarray:
    # Squared norms of L^-1 d for every row d of every diffs[i], with
    # L = lower[i]: one batched forward substitution over a (b, n, p)
    # stack, squares summed in coordinate order.
    b, n, p = diffs.shape
    d2 = np.zeros((b, n))
    zs: list[np.ndarray] = []
    for j in range(p):
        acc = diffs[:, :, j].copy()
        for k in range(j):
            acc -= lower[:, j, k][:, None] * zs[k]
        acc /= lower[:, j, j][:, None]
        zs.append(acc)
        d2 += acc * acc
    return d2


def _validate_data(data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionError(f"data must be two-dimensional, got shape {data.shape}")
    n, p = data.shape
    if p < 1:
        raise DimensionError("data must have at least one column")
    if n <= p:
        raise DimensionError(f"need more observations than variables, got n={n}, p={p}")
    if not np.all(np.isfinite(data)):
        raise DomainError("data entries must be finite")
    return data


class _Workspace:
    """Precomputations for batched concentration over stacked datasets.

    ``feat`` holds, per dataset, the monomials x_i followed by x_i x_j
    for i <= j of every observation; one batched matrix product with 0/1
    candidate masks yields all first and second subset moments, and a
    product with quadratic-form coefficients yields squared distances of
    every observation from every candidate fit.
    """

    def __init__(self, data: np.ndarray):
        b, n, p = data.shape
        self.data = data
        self.b = b
        self.n = n
        self.p = p
        iu = np.triu_indices(p)
        self.iu = iu
        q = p + iu[0].shape[0]
        feat = np.empty((b, n, q))
        feat[:, :, :p] = data
        feat[:, :, p:] = data[:, :, iu[0]] * data[:, :, iu[1]]
        self.feat = feat
        # transposed, with a row of ones that carries each fit's constant
        self.feat_t = np.ones((b, q + 1, n))
        self.feat_t[:, :q] = feat.transpose(0, 2, 1)
        # doubling of off-diagonal coefficients in the quadratic form
        self.cross_scale = np.where(iu[0] == iu[1], 1.0, 2.0)

    def moments(self, mask: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
        # Mean and covariance of every candidate h-subset via one batched
        # product of the 0/1 membership masks with the feature matrices.
        # A bivariate covariance is packed as its entries (c00, c01, c11),
        # any other as a full (b, c, p, p) stack; entry (i, j) is
        # (s_ij - (h*m_i)*m_j) / (h - 1) either way.
        b, c, _ = mask.shape
        p = self.p
        sums = mask @ self.feat
        if p == 2:
            # Entry-major (entry, b, c) rows keep the elementwise work on
            # contiguous runs; callers get (b, c, entry) views of them.
            sums = np.ascontiguousarray(sums.transpose(2, 0, 1))
            mean = sums[:p] / h
            hm = h * mean
            cov = (sums[p:] - hm[self.iu[0]] * mean[self.iu[1]]) / (h - 1)
            return mean.transpose(1, 2, 0), cov.transpose(1, 2, 0)
        mean = sums[:, :, :p] / h
        ss = np.empty((b, c, p, p))
        ss[:, :, self.iu[0], self.iu[1]] = sums[:, :, p:]
        ss[:, :, self.iu[1], self.iu[0]] = sums[:, :, p:]
        cov = (ss - h * mean[:, :, :, None] * mean[:, :, None, :]) / (h - 1)
        return mean, cov

    def pack(self, cov: np.ndarray) -> np.ndarray:
        # A full (..., p, p) covariance in the layout moments gives.
        return cov[..., self.iu[0], self.iu[1]] if self.p == 2 else cov

    def fit(self, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Precision matrices, log determinants (+inf where the Cholesky
        # gate fails) and gate results of a covariance stack laid out as
        # moments gives it; a bivariate precision is packed like its
        # covariance and comes from a closed form of the same pivot rule.
        if self.p != 2:
            factor, ok = cholesky_mask(cov)
            return _precision_from_chol(factor.lower), np.where(ok, factor.log_det, np.inf), ok
        a, b_, c = cov[..., 0], cov[..., 1], cov[..., 2]
        threshold = 2 * PIVOT_TOL * np.maximum(np.maximum(a, c), 0.0)
        a_ok = a > threshold
        pivot2 = c - b_ * b_ / np.where(a_ok, a, 1.0)
        ok = a_ok & (pivot2 > threshold)
        det = np.where(ok, a * pivot2, 1.0)
        logdet = np.where(ok, np.log(det), np.inf)
        precision = np.empty_like(cov)
        np.divide(c, det, out=precision[..., 0])
        np.divide(-b_, det, out=precision[..., 1])
        np.divide(a, det, out=precision[..., 2])
        return precision, logdet, ok

    def sq_distances(
        self, mean: np.ndarray, precision: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        # d2(x) = x'Ax - 2(Am)'x + m'Am, assembled per candidate and
        # evaluated for all observations in one batched product into out;
        # m'Am is the last coefficient, against the row of ones, so the
        # product adds it after the other terms, as a separate addition
        # would.  The bivariate sums are written out; they equal the
        # einsum's.
        p = self.p
        q = self.feat.shape[2]
        coef = np.empty((q + 1,) + mean.shape[:2])
        if p == 2:
            m0, m1 = mean[:, :, 0], mean[:, :, 1]
            p00, p01, p11 = precision[:, :, 0], precision[:, :, 1], precision[:, :, 2]
            am0 = p00 * m0 + p01 * m1
            am1 = p01 * m0 + p11 * m1
            np.multiply(am0, -2.0, out=coef[0])
            np.multiply(am1, -2.0, out=coef[1])
            np.multiply(precision.transpose(2, 0, 1), self.cross_scale[:, None, None],
                        out=coef[p:q])
            np.add(am0 * m0, am1 * m1, out=coef[q])
        else:
            am = np.einsum("bcij,bcj->bci", precision, mean)
            coef[:p] = (-2.0 * am).transpose(2, 0, 1)
            coef[p:q] = (
                precision[:, :, self.iu[0], self.iu[1]] * self.cross_scale
            ).transpose(2, 0, 1)
            coef[q] = np.einsum("bci,bci->bc", am, mean)
        return np.matmul(coef.transpose(1, 2, 0), self.feat_t, out=out)


# Scratch memory of the multistart search, one block per thread, and
# the largest block a thread keeps between fits.
_scratch = threading.local()
_SCRATCH_KEEP_BYTES = 16 * 2**20


def _scratch_arrays(shape: tuple[int, ...]) -> list[np.ndarray]:
    # Four C-contiguous float arrays of the given shape, views of the
    # calling thread's block, which grows to the largest shape asked for
    # up to _SCRATCH_KEEP_BYTES and is reused by every later fit on that
    # thread; a larger block is allocated for the caller alone.  Their
    # contents are garbage, and no returned estimate may keep a view of
    # them.
    size = math.prod(shape)
    block = getattr(_scratch, "block", None)
    if block is None or block.shape[1] < size:
        block = np.empty((4, size))
        if block.nbytes <= _SCRATCH_KEEP_BYTES:
            _scratch.block = block
    return [row[:size].reshape(shape) for row in block]


def _smallest(
    values: np.ndarray, k: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    # Writes into out the 0/1 rows marking the k smallest entries of each
    # row of values: the set np.argpartition(values, k - 1)[..., :k]
    # picks.  Where the k-th smallest value ties with the next (or is
    # NaN) the set is taken from argpartition itself; scratch is
    # overwritten.
    if k == values.shape[-1]:
        out.fill(1.0)
        return out
    np.copyto(scratch, values)
    scratch.sort(axis=-1)
    np.copyto(out, values <= scratch[..., k - 1 : k])
    tied = ~(scratch[..., k - 1] < scratch[..., k])
    if tied.any():
        picked = np.argpartition(values[tied], k - 1, axis=-1)[:, :k]
        rows = np.zeros((picked.shape[0], values.shape[-1]))
        np.put_along_axis(rows, picked, 1.0, axis=-1)
        out[tied] = rows
    return out


def _precision_from_chol(lower: np.ndarray) -> np.ndarray:
    # Inverse of L L' for a stack of lower factors: invert L by forward
    # substitution, then multiply.  Garbage rows flagged by the caller's
    # ok mask stay finite because their pivots were replaced by 1.
    p = lower.shape[-1]
    lead = lower.shape[:-2]
    lower = lower.reshape(-1, p, p)
    linv = np.zeros_like(lower)
    for i in range(p):
        linv[:, i, i] = 1.0 / lower[:, i, i]
        for j in range(i):
            acc = np.einsum("sk,sk->s", lower[:, i, j:i], linv[:, j:i, j])
            linv[:, i, j] = -acc / lower[:, i, i]
    return np.einsum("ski,skj->sij", linv, linv).reshape(*lead, p, p)


def _concentrate_round(
    ws: _Workspace,
    subsets: np.ndarray,
    h: int,
    out: np.ndarray,
    d2: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    # One C-step for the full stack of h-subset masks, written into and
    # returned as out; candidates whose covariance fails the Cholesky
    # gate are copied unchanged.  d2 and scratch are overwritten.
    mean, cov = ws.moments(subsets, h)
    precision, _, ok = ws.fit(cov)
    if ok.any():
        _smallest(ws.sq_distances(mean, precision, out=d2), h, out, scratch)
    if not ok.all():
        out[~ok] = subsets[~ok]
    return out


def _exact_subset_stats(
    data: np.ndarray, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Two-pass mean and covariance of the rows of data that each index
    # row of subsets, shape (..., h), picks; used for every quantity
    # that ends up in a returned estimate.
    sub = data[subsets]
    h = subsets.shape[-1]
    mean = sub.mean(axis=-2)
    centered = sub - mean[..., None, :]
    return mean, np.swapaxes(centered, -1, -2) @ centered / (h - 1)


def _extend_degenerate_starts(
    ws: _Workspace,
    keys: np.ndarray,
    mean: np.ndarray,
    precision: np.ndarray,
    ok: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    # Rare path: grow rank-deficient initial subsets one observation at
    # a time along each start's own key order until their covariance
    # passes the Cholesky gate; updates mean in place.
    n = ws.n
    precision = precision.copy()
    ok = ok.copy()
    for b, s in zip(*np.nonzero(~ok)):
        order = np.argsort(keys[b, s], kind="stable")
        for size in range(ws.p + 2, n + 1):
            m, cov = _exact_subset_stats(ws.data[b], order[:size])
            prec, _, good = ws.fit(ws.pack(cov)[None, None])
            if good[0, 0]:
                mean[b, s] = m
                precision[b, s] = prec[0, 0]
                ok[b, s] = True
                break
    return precision, ok


def _initial_subsets(
    ws: _Workspace,
    keys: np.ndarray,
    h: int,
    out: np.ndarray,
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    # Random (p+1)-subsets from per-dataset key matrices; writes the
    # first-ranking h-subset masks into out and returns it with a
    # liveness mask.  keys and scratch are overwritten.
    p = ws.p
    mean, cov = ws.moments(_smallest(keys, p + 1, out, scratch), p + 1)
    precision, _, ok = ws.fit(cov)
    if not ok.all():
        precision, ok = _extend_degenerate_starts(ws, keys, mean, precision, ok)
    if ok.any():
        _smallest(ws.sq_distances(mean, precision, out=keys), h, out, scratch)
    if not ok.all():
        out[~ok] = np.arange(ws.n) < h
    return out, ok


def _select_winners(
    data: np.ndarray, candidates: np.ndarray
) -> list[tuple[np.ndarray, float]]:
    # Exact-statistics pass over each dataset's candidate h-subsets,
    # given as sorted index rows of shape (b, K, h), with all their
    # covariances factored as one stack; ties in the objective go to the
    # lexicographically smallest subset.
    b, n, p = data.shape
    rows = candidates + n * np.arange(b)[:, None, None]
    factor, ok = cholesky_mask(_exact_subset_stats(data.reshape(b * n, p), rows)[1])
    logdets = np.where(ok, factor.log_det, np.inf)
    winners = []
    for i in range(b):
        best = logdets[i].min()
        if not np.isfinite(best):
            raise SingularSubset("every candidate subset became rank deficient")
        ties = candidates[i][logdets[i] == best]
        winners.append((ties[np.lexsort(ties.T[::-1])[0]].astype(np.intp), float(best)))
    return winners


def _best_subsets_multistart(
    data: np.ndarray, h: int, config: McdConfig, rng: RngStream
) -> np.ndarray:
    # Multistart concentration over a stack of same-shape datasets,
    # with starting subsets for the whole stack drawn from one stream;
    # returns the converged finalists as sorted index rows of shape
    # (b, n_keep, h).  Candidates are 0/1 mask rows in the thread's
    # scratch arrays until then.
    ws = _Workspace(data)
    d2, scratch, subsets, spare = _scratch_arrays((ws.b, config.n_starts, ws.n))
    keys = rng.generator().random(out=d2)
    subsets, live = _initial_subsets(ws, keys, h, subsets, scratch)
    if not np.any(live.reshape(ws.b, -1), axis=1).all():
        dead = int(np.flatnonzero(~np.any(live, axis=1))[0])
        raise SingularSubset(f"every starting subset of dataset {dead} is rank deficient")

    for _ in range(_CSTEPS_BEFORE_SELECTION):
        subsets, spare = _concentrate_round(ws, subsets, h, spare, d2, scratch), subsets
    # log determinants of the candidates, +inf where the gate fails
    logdets = ws.fit(ws.moments(subsets, h)[1])[1]

    order = np.argsort(logdets, axis=1, kind="stable")[:, : config.n_keep]
    current = np.take_along_axis(subsets, order[:, :, None], axis=1)
    kept_logdets = np.take_along_axis(logdets, order, axis=1)
    if not np.isfinite(kept_logdets).any(axis=1).all():
        dead = int(np.flatnonzero(~np.isfinite(kept_logdets).any(axis=1))[0])
        raise SingularSubset(f"every starting subset of dataset {dead} is rank deficient")

    d2, scratch, spare, _ = _scratch_arrays(current.shape)
    for _ in range(_MAX_CSTEPS):
        stepped = _concentrate_round(ws, current, h, spare, d2, scratch)
        if np.array_equal(stepped, current):
            break
        current, spare = stepped, current

    return np.nonzero(current)[-1].reshape(ws.b, config.n_keep, h)


def _assemble_estimates(
    datasets: np.ndarray, winners: list[tuple[np.ndarray, float]], config: McdConfig
) -> list[McdEstimate]:
    # Raw estimates of a stack from each dataset's winning h-subset, the
    # exact statistics of all winners in one pass.
    b, n, p = datasets.shape
    subsets = np.stack([subset for subset, _ in winners])
    h = subsets.shape[1]
    locations, covs = _exact_subset_stats(
        datasets.reshape(b * n, p), subsets + n * np.arange(b)[:, None]
    )
    cons = consistency_factor(p, h / n)
    small = small_sample_factor(p, n, config.alpha, reweighted=False)
    scatters = covs * (cons * small)
    weights = np.zeros((b, n), dtype=np.int64)
    np.put_along_axis(weights, subsets, 1, axis=1)
    return [
        McdEstimate(
            location=locations[i].copy(),
            scatter=scatters[i].copy(),
            raw_location=locations[i],
            raw_scatter=scatters[i],
            best_subset=subset,
            weights=weights[i],
            objective=objective,
            consistency_factor=cons,
            small_sample_factor=small,
            alpha=config.alpha,
        )
        for i, (subset, objective) in enumerate(winners)
    ]


def fast_mcd_batch(
    datasets: np.ndarray,
    config: McdConfig = McdConfig(),
    rng: RngStream = RngStream(0),
) -> list[McdEstimate]:
    """Raw MCD estimates for a stack of same-shape datasets.

    Sharing the multistart concentration rounds across the stack is much
    faster than separate :func:`fast_mcd` calls, which is what the
    per-cell fits of a balanced layout need.  Starting subsets for the
    whole stack come from a single stream, so a batch of one reproduces
    :func:`fast_mcd` exactly; larger batches are statistically
    equivalent to, but not bitwise reproducible from, separate calls.

    The search only proposes candidate h-subsets, every one of them when
    they number at most ``EXHAUSTIVE_LIMIT`` and otherwise the converged
    multistart finalists; one exact pass over all candidates of the
    stack picks each dataset's winner, the lexicographically smallest
    subset among ties, and raises :class:`SingularSubset` when every
    candidate of a dataset is rank deficient.

    The multistart search works in four float arrays of shape
    ``(b, n_starts, n)``.  The calling thread keeps them for later fits
    while together they take at most 16 MiB (``b * n_starts * n`` up to
    524,288, e.g. one dataset of n = 1,048 at 500 starts); a larger
    search allocates its own and frees them when it returns.

    Parameters
    ----------
    datasets : array, shape (b, n, p)
        Stack of datasets; needs n > p.
    config : McdConfig, optional
    rng : RngStream, optional
        Randomness source for the multistart search (unused by the
        exhaustive path); defaults to ``RngStream(0)``.
    """
    datasets = np.asarray(datasets, dtype=np.float64)
    if datasets.ndim != 3:
        raise DimensionError(
            f"datasets must be three-dimensional, got shape {datasets.shape}"
        )
    b, n, p = datasets.shape
    if b < 1:
        raise DimensionError("need at least one dataset")
    _validate_data(datasets.reshape(b * n, p))
    if n <= p:
        raise DimensionError(f"need more observations than variables, got n={n}, p={p}")
    h = h_subset_size(n, p, config.alpha)

    shift = datasets.mean(axis=1)
    centered = datasets - shift[:, None, :]

    if math.comb(n, h) <= EXHAUSTIVE_LIMIT:
        subsets = np.array(list(itertools.combinations(range(n), h)), dtype=np.intp)
        candidates = np.broadcast_to(subsets, (b,) + subsets.shape)
    else:
        candidates = _best_subsets_multistart(centered, h, config, rng)
    return _assemble_estimates(datasets, _select_winners(centered, candidates), config)


def fast_mcd(
    data: np.ndarray,
    config: McdConfig = McdConfig(),
    rng: RngStream = RngStream(0),
) -> McdEstimate:
    """Raw MCD estimate of location and scatter.

    Searches for the h-subset with minimal covariance determinant
    (exhaustively when the subset space is small, otherwise by random
    multistart concentration), then corrects the subset covariance for
    trimming consistency and finite-sample bias.

    Parameters
    ----------
    data : array, shape (n, p)
        Observations in rows; needs n > p.
    config : McdConfig, optional
        Search settings; defaults to ``McdConfig()``.
    rng : RngStream, optional
        Randomness source for the multistart search (unused by the
        exhaustive path); defaults to ``RngStream(0)``.

    Scratch memory is kept and reused as by :func:`fast_mcd_batch`.
    """
    data = _validate_data(data)
    return fast_mcd_batch(data[None, :, :], config, rng)[0]


def reweight(data: np.ndarray, raw: McdEstimate) -> McdEstimate:
    """One-step reweighted MCD estimate of one dataset.

    A batch of one for :func:`reweight_batch`, which describes the rule.
    """
    data = _validate_data(data)
    return reweight_batch(data[None], [raw])[0]


def reweight_batch(datasets: np.ndarray, raws: list[McdEstimate]) -> list[McdEstimate]:
    """One-step reweighted MCD estimates for a stack of datasets.

    Observations whose robust distance from their dataset's raw fit
    stays within the 97.5% chi-square cutoff keep weight one; the final
    location and scatter are their mean and covariance, the latter
    corrected for the implied trimming and for finite-sample bias.  The
    distance computations are vectorized across the stack.
    """
    datasets = np.asarray(datasets, dtype=np.float64)
    if datasets.ndim != 3:
        raise DimensionError(
            f"datasets must be three-dimensional, got shape {datasets.shape}"
        )
    b, n, p = datasets.shape
    if len(raws) != b:
        raise DimensionError(f"need {b} raw estimates, got {len(raws)}")
    _validate_data(datasets.reshape(b * n, p))
    factor, ok = cholesky_mask(np.stack([raw.raw_scatter for raw in raws]))
    diffs = datasets - np.stack([raw.raw_location for raw in raws])[:, None, :]
    kept = _sq_distances(diffs, factor.lower) <= _reweight_cutoff(p) ** 2
    weights = kept.astype(np.int64)
    stats = []
    for i in range(b):
        if not ok[i]:
            raise SingularSubset(f"raw scatter of dataset {i} is rank deficient")
        m = int(np.count_nonzero(kept[i]))
        if m <= p:
            raise SingularSubset(
                f"only {m} observations kept by reweighting, need more than {p}"
            )
        stats.append(_exact_subset_stats(datasets[i], np.flatnonzero(kept[i])))
    if not cholesky_mask(np.stack([cov for _, cov in stats]))[1].all():
        raise SingularSubset("weight-one observations are rank deficient")
    cons = consistency_factor(p, REWEIGHT_QUANTILE)
    out = []
    for raw, (location, cov), w in zip(raws, stats, weights):
        small = small_sample_factor(p, n, raw.alpha, reweighted=True)
        out.append(
            replace(
                raw, location=location, scatter=cov * (cons * small), weights=w,
                consistency_factor=cons, small_sample_factor=small,
            )
        )
    return out
