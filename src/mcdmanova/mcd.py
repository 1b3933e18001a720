"""Minimum covariance determinant estimation.

Implements the fast MCD algorithm: many random starts are concentrated
with a couple of C-steps each, the most promising candidates are then
iterated to convergence, and the winning h-subset defines the raw
estimate.  Small subset spaces are enumerated exhaustively instead.  A
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
0/1 row of a mask matrix, so subset sums of the monomials (x_i, x_i x_j)
come from one batched matrix product with a per-dataset feature matrix,
and squared distances come from a second product with the quadratic-form
coefficients of each candidate fit.  Quantities that end up in a
returned estimate are recomputed from the winning subset with the usual
two-pass formulas, so the fast path only influences which candidate
wins.  Balanced-design pipelines exploit the stacking through
:func:`fast_mcd_batch` to fit all cells of a layout together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .distributions import RngStream, chi2_cdf, chi2_quantile, cholesky
from .errors import DimensionError, DomainError, NotPositiveDefinite, SingularSubset

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

# Enumerate all h-subsets whenever their number is at most this bound.
EXHAUSTIVE_LIMIT = 100_000

# Reweighting keeps observations within the 97.5% chi-square cutoff.
REWEIGHT_QUANTILE = 0.975

_CSTEPS_BEFORE_SELECTION = 2


@dataclass(frozen=True)
class McdConfig:
    """Tuning knobs of the fast MCD search.

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
    max_csteps : int
        Cap on concentration steps per kept candidate.
    exhaustive : bool or None
        Force (True) or forbid (False) full enumeration of h-subsets;
        None enumerates automatically when there are at most
        ``EXHAUSTIVE_LIMIT`` subsets.
    """

    alpha: float = 0.5
    n_starts: int = 500
    n_keep: int = 10
    max_csteps: int = 100
    exhaustive: bool | None = None

    def __post_init__(self) -> None:
        if not 0.5 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0.5, 1], got {self.alpha!r}")
        if self.n_starts < 1:
            raise DomainError("n_starts must be at least 1")
        if not 1 <= self.n_keep <= self.n_starts:
            raise DomainError("n_keep must lie in [1, n_starts]")
        if self.max_csteps < 1:
            raise DomainError("max_csteps must be at least 1")


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


@lru_cache(maxsize=256)
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
    z = factor.solve_lower(data - location)
    return np.sqrt(np.sum(z * z, axis=1))


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
        self.feat_t = np.ascontiguousarray(feat.transpose(0, 2, 1))
        # doubling of off-diagonal coefficients in the quadratic form
        self.cross_scale = np.where(iu[0] == iu[1], 1.0, 2.0)

    def moments(self, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Mean and covariance of every candidate subset via one batched
        # product of the 0/1 membership masks with the feature matrices.
        b, c, h = subsets.shape
        p = self.p
        mask = np.zeros((b, c, self.n))
        mask[
            np.arange(b)[:, None, None], np.arange(c)[None, :, None], subsets
        ] = 1.0
        sums = mask @ self.feat
        mean = sums[:, :, :p] / h
        ss = np.empty((b, c, p, p))
        ss[:, :, self.iu[0], self.iu[1]] = sums[:, :, p:]
        ss[:, :, self.iu[1], self.iu[0]] = sums[:, :, p:]
        cov = (ss - h * mean[:, :, :, None] * mean[:, :, None, :]) / (h - 1)
        return mean, cov

    def sq_distances(self, mean: np.ndarray, precision: np.ndarray) -> np.ndarray:
        # d2(x) = x'Ax - 2(Am)'x + m'Am, assembled per candidate and
        # evaluated for all observations in one batched product.
        p = self.p
        am = np.einsum("bcij,bcj->bci", precision, mean)
        const = np.einsum("bci,bci->bc", am, mean)
        coef = np.empty((mean.shape[0], mean.shape[1], self.feat.shape[2]))
        coef[:, :, :p] = -2.0 * am
        coef[:, :, p:] = precision[:, :, self.iu[0], self.iu[1]] * self.cross_scale
        return coef @ self.feat_t + const[:, :, None]


def _chol_stack(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Cholesky factors for a stack of matrices (leading axes arbitrary);
    # rows failing the pivot rule are flagged in the ok mask instead of
    # raising.
    p = cov.shape[-1]
    lead = cov.shape[:-2]
    cov = cov.reshape(-1, p, p)
    diag = np.einsum("sii->si", cov)
    threshold = p * 1e-14 * np.maximum(diag.max(axis=1), 0.0)
    lower = np.zeros_like(cov)
    ok = np.ones(cov.shape[0], dtype=bool)
    for j in range(p):
        d = cov[:, j, j] - np.einsum("sk,sk->s", lower[:, j, :j], lower[:, j, :j])
        ok &= d > threshold
        safe = np.where(d > threshold, d, 1.0)
        lower[:, j, j] = np.sqrt(safe)
        if j + 1 < p:
            off = cov[:, j + 1 :, j] - np.einsum(
                "sik,sk->si", lower[:, j + 1 :, :j], lower[:, j, :j]
            )
            lower[:, j + 1 :, j] = off / lower[:, j, j][:, None]
    return lower.reshape(*lead, p, p), ok.reshape(lead)


def _logdet_stack(lower: np.ndarray, ok: np.ndarray) -> np.ndarray:
    p = lower.shape[-1]
    lead = lower.shape[:-2]
    diag = np.einsum("sii->si", lower.reshape(-1, p, p))
    flat_ok = ok.reshape(-1)
    out = 2.0 * np.sum(np.log(np.where(flat_ok[:, None], diag, 1.0)), axis=1)
    return np.where(flat_ok, out, np.inf).reshape(lead)


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


def _fit_rows(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Precision matrices, log determinants and validity of a (b, c, p, p)
    # covariance stack, using the same pivot rule as the Cholesky gate.
    # The bivariate case, which dominates the Monte Carlo pipelines, is
    # closed-form; other dimensions go through the batched factorization.
    p = cov.shape[-1]
    if p == 2:
        a = cov[..., 0, 0]
        b_ = cov[..., 0, 1]
        c = cov[..., 1, 1]
        threshold = 2e-14 * np.maximum(np.maximum(a, c), 0.0)
        pivot2 = c - b_ * b_ / np.where(a > threshold, a, 1.0)
        ok = (a > threshold) & (pivot2 > threshold)
        det = np.where(ok, a * pivot2, 1.0)
        logdet = np.where(ok, np.log(det), np.inf)
        precision = np.empty_like(cov)
        precision[..., 0, 0] = c / det
        precision[..., 0, 1] = -b_ / det
        precision[..., 1, 0] = -b_ / det
        precision[..., 1, 1] = a / det
        return precision, logdet, ok
    lower, ok = _chol_stack(cov)
    return _precision_from_chol(lower), _logdet_stack(lower, ok), ok


def _moment_logdets(ws: _Workspace, subsets: np.ndarray) -> np.ndarray:
    # Covariance log determinants of the current subsets, +inf where the
    # Cholesky gate fails.
    _, cov = ws.moments(subsets)
    if ws.p == 2:
        _, logdet, _ = _fit_rows(cov)
        return logdet
    lower, ok = _chol_stack(cov)
    return _logdet_stack(lower, ok)


def _concentrate_round(
    ws: _Workspace, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # One C-step for the full stack of h-subsets.  Returns the new
    # subsets and the log determinants of the input subsets; candidates
    # whose covariance fails the Cholesky gate are frozen with +inf
    # objective.
    h = subsets.shape[-1]
    mean, cov = ws.moments(subsets)
    precision, logdet, ok = _fit_rows(cov)
    if not np.any(ok):
        return subsets, logdet
    d2 = ws.sq_distances(mean, precision)
    new = np.argpartition(d2, h - 1, axis=-1)[:, :, :h]
    new[~ok] = subsets[~ok]
    return new, logdet


def _exact_subset_stats(
    data: np.ndarray, subset: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    # Two-pass mean/covariance/logdet of one subset; used for every
    # quantity that ends up in the returned estimate.
    sub = data[subset]
    h = subset.shape[0]
    mean = sub.mean(axis=0)
    centered = sub - mean
    cov = centered.T @ centered / (h - 1)
    try:
        logdet = cholesky(cov).log_det
    except NotPositiveDefinite:
        logdet = np.inf
    return mean, cov, logdet


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
            m, cov, _ = _exact_subset_stats(ws.data[b], order[:size])
            prec, _, good = _fit_rows(cov[None, None])
            if good[0, 0]:
                mean[b, s] = m
                precision[b, s] = prec[0, 0]
                ok[b, s] = True
                break
    return precision, ok


def _initial_subsets(
    ws: _Workspace, keys: np.ndarray, h: int
) -> tuple[np.ndarray, np.ndarray]:
    # Random (p+1)-subsets from per-dataset key matrices; returns the
    # first-ranking h-subsets and a liveness mask.
    p = ws.p
    idx = np.argpartition(keys, p, axis=-1)[:, :, : p + 1]
    mean, cov = ws.moments(idx)
    precision, _, ok = _fit_rows(cov)
    if not np.all(ok):
        precision, ok = _extend_degenerate_starts(ws, keys, mean, precision, ok)
    b, s = keys.shape[0], keys.shape[1]
    subsets = np.tile(np.arange(h, dtype=np.intp), (b, s, 1))
    if np.any(ok):
        d2 = ws.sq_distances(mean, precision)
        ranked = np.argpartition(d2, h - 1, axis=-1)[:, :, :h]
        subsets[ok] = ranked[ok]
    return subsets, ok


def _select_winner(
    data: np.ndarray, candidates: np.ndarray
) -> tuple[np.ndarray, float]:
    # Exact-statistics pass over a dataset's converged candidates; ties
    # in the objective go to the lexicographically smallest subset.
    unique = np.unique(candidates, axis=0)
    logdets = [
        _exact_subset_stats(data, unique[i])[2] for i in range(unique.shape[0])
    ]
    best = min(logdets)
    if not np.isfinite(best):
        raise SingularSubset("every candidate subset became rank deficient")
    ties = [tuple(unique[i]) for i, v in enumerate(logdets) if v == best]
    return np.array(min(ties), dtype=np.intp), float(best)


def _best_subsets_multistart(
    data: np.ndarray, h: int, config: McdConfig, rng: RngStream
) -> list[tuple[np.ndarray, float]]:
    # Multistart concentration over a stack of same-shape datasets,
    # with starting subsets for the whole stack drawn from one stream.
    ws = _Workspace(data)
    keys = rng.generator().random((ws.b, config.n_starts, ws.n))
    subsets, live = _initial_subsets(ws, keys, h)
    if not np.any(live.reshape(ws.b, -1), axis=1).all():
        dead = int(np.flatnonzero(~np.any(live, axis=1))[0])
        raise SingularSubset(f"every starting subset of dataset {dead} is rank deficient")

    for _ in range(_CSTEPS_BEFORE_SELECTION):
        subsets, _ = _concentrate_round(ws, subsets)
    logdets = _moment_logdets(ws, subsets)

    order = np.argsort(logdets, axis=1, kind="stable")[:, : config.n_keep]
    current = np.sort(
        np.take_along_axis(subsets, order[:, :, None], axis=1), axis=-1
    )
    kept_logdets = np.take_along_axis(logdets, order, axis=1)
    if not np.isfinite(kept_logdets).any(axis=1).all():
        dead = int(np.flatnonzero(~np.isfinite(kept_logdets).any(axis=1))[0])
        raise SingularSubset(f"every starting subset of dataset {dead} is rank deficient")

    for _ in range(config.max_csteps):
        stepped, _ = _concentrate_round(ws, current)
        stepped = np.sort(stepped, axis=-1)
        if np.array_equal(stepped, current):
            break
        current = stepped

    return [_select_winner(data[b], current[b]) for b in range(ws.b)]


def _best_subset_exhaustive(data: np.ndarray, h: int) -> tuple[np.ndarray, float]:
    n = data.shape[0]
    best_logdet = np.inf
    best_subset: tuple[int, ...] | None = None
    combos = itertools.combinations(range(n), h)
    while True:
        chunk = list(itertools.islice(combos, 16_384))
        if not chunk:
            break
        subsets = np.array(chunk, dtype=np.intp)
        gathered = data[subsets]
        mean = gathered.mean(axis=1)
        centered = gathered - mean[:, None, :]
        cov = np.einsum("shi,shj->sij", centered, centered) / (h - 1)
        lower, ok = _chol_stack(cov)
        logdets = _logdet_stack(lower, ok)
        i = int(np.argmin(logdets))
        # Strict comparison keeps the lexicographically first optimum,
        # since combinations are generated in lexicographic order.
        if logdets[i] < best_logdet:
            best_logdet = float(logdets[i])
            best_subset = chunk[i]
    if best_subset is None or not np.isfinite(best_logdet):
        raise SingularSubset(f"every {h}-subset of the data is rank deficient")
    return np.array(best_subset, dtype=np.intp), best_logdet


def _assemble_estimate(
    data: np.ndarray, subset: np.ndarray, objective: float, config: McdConfig
) -> McdEstimate:
    n, p = data.shape
    h = subset.shape[0]
    raw_location, subset_cov, _ = _exact_subset_stats(data, subset)
    cons = consistency_factor(p, h / n)
    small = small_sample_factor(p, n, config.alpha, reweighted=False)
    raw_scatter = subset_cov * (cons * small)
    weights = np.zeros(n, dtype=np.int64)
    weights[subset] = 1
    return McdEstimate(
        location=raw_location.copy(),
        scatter=raw_scatter.copy(),
        raw_location=raw_location,
        raw_scatter=raw_scatter,
        best_subset=subset,
        weights=weights,
        objective=objective,
        consistency_factor=cons,
        small_sample_factor=small,
        alpha=config.alpha,
    )


def fast_mcd_batch(
    datasets: np.ndarray,
    config: McdConfig | None = None,
    rng: RngStream | None = None,
) -> list[McdEstimate]:
    """Raw MCD estimates for a stack of same-shape datasets.

    Sharing the multistart concentration rounds across the stack is much
    faster than separate :func:`fast_mcd` calls, which is what the
    per-cell fits of a balanced layout need.  Starting subsets for the
    whole stack come from a single stream, so a batch of one reproduces
    :func:`fast_mcd` exactly; larger batches are statistically
    equivalent to, but not bitwise reproducible from, separate calls.

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
    if config is None:
        config = McdConfig()
    if rng is None:
        rng = RngStream(0)
    h = h_subset_size(n, p, config.alpha)

    shift = datasets.mean(axis=1)
    centered = datasets - shift[:, None, :]

    if h == n:
        winners = []
        for i in range(b):
            subset = np.arange(n, dtype=np.intp)
            _, _, objective = _exact_subset_stats(centered[i], subset)
            if not np.isfinite(objective):
                raise SingularSubset(f"full-sample covariance of dataset {i} is rank deficient")
            winners.append((subset, objective))
    else:
        if config.exhaustive is None:
            exhaustive = math.comb(n, h) <= EXHAUSTIVE_LIMIT
        else:
            exhaustive = config.exhaustive
        if exhaustive:
            winners = [_best_subset_exhaustive(centered[i], h) for i in range(b)]
        else:
            winners = _best_subsets_multistart(centered, h, config, rng)

    return [
        _assemble_estimate(datasets[i], subset, objective, config)
        for i, (subset, objective) in enumerate(winners)
    ]


def fast_mcd(
    data: np.ndarray,
    config: McdConfig | None = None,
    rng: RngStream | None = None,
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
    scatters = np.stack([raw.raw_scatter for raw in raws])
    lower, ok = _chol_stack(scatters)
    cutoff2 = _reweight_cutoff(p) ** 2
    out: list[McdEstimate] = []
    diffs = datasets - np.stack([raw.raw_location for raw in raws])[:, None, :]
    # batched forward substitution for all datasets at once
    d2 = np.zeros((b, n))
    zs: list[np.ndarray] = []
    for j in range(p):
        acc = diffs[:, :, j].copy()
        for k in range(j):
            acc -= lower[:, j, k][:, None] * zs[k]
        acc /= lower[:, j, j][:, None]
        zs.append(acc)
        d2 += acc * acc
    for i, raw in enumerate(raws):
        if not ok[i]:
            raise SingularSubset(f"raw scatter of dataset {i} is rank deficient")
        kept = d2[i] <= cutoff2
        m = int(np.count_nonzero(kept))
        if m <= p:
            raise SingularSubset(
                f"only {m} observations kept by reweighting, need more than {p}"
            )
        sub = datasets[i][kept]
        location = sub.mean(axis=0)
        centered = sub - location
        cov = centered.T @ centered / (m - 1)
        _, good = _chol_stack(cov[None])
        if not good[0]:
            raise SingularSubset("weight-one observations are rank deficient")
        cons = consistency_factor(p, REWEIGHT_QUANTILE)
        small = small_sample_factor(p, n, raw.alpha, reweighted=True)
        out.append(
            replace(
                raw,
                location=location,
                scatter=cov * (cons * small),
                weights=kept.astype(np.int64),
                consistency_factor=cons,
                small_sample_factor=small,
            )
        )
    return out
