"""Tests for minimum covariance determinant estimation."""

import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import chi2

from mcdmanova import mcd
from mcdmanova.distributions import RngStream, chi2_quantile, cholesky, cholesky_mask
from mcdmanova.errors import (
    DimensionError,
    DomainError,
    NotPositiveDefinite,
    SingularSubset,
)
from mcdmanova.mcd import (
    EXHAUSTIVE_LIMIT,
    REWEIGHT_QUANTILE,
    McdConfig,
    consistency_factor,
    fast_mcd,
    fast_mcd_batch,
    h_subset_size,
    reweight,
    reweight_batch,
    robust_distances,
    small_sample_factor,
)

# frac / P(chi2_{p+2} <= chi2_{p;frac}), frozen from scipy.stats.chi2
CONSISTENCY_TABLE = {
    (1, 0.5): 7.010074539703252,
    (2, 16 / 30): 3.001854055001582,
    (2, 0.975): 1.1044679239029054,
    (6, 0.975): 1.0492657231950313,
    (6, 0.5): 1.7844558623668927,
    (2, 11 / 20): 2.8845417072375374,
}


def brute_force_mcd(data, h):
    """Exhaustive reference: minimal covariance log determinant."""
    best = (np.inf, None)
    for combo in itertools.combinations(range(data.shape[0]), h):
        sub = data[list(combo)]
        cov = np.cov(sub, rowvar=False).reshape(data.shape[1], data.shape[1])
        sign, logdet = np.linalg.slogdet(cov)
        if sign > 0 and logdet < best[0]:
            best = (logdet, combo)
    return best


def oracle_c_step(data, subset):
    """One concentration step from an h-subset, one dataset at a time.

    Fits mean and covariance on the subset, then returns the indices of
    the h observations closest in the fitted metric, sorted ascending.
    Distance ties are broken by smallest index.  The step never
    increases the covariance log determinant.
    """
    data = np.asarray(data, dtype=np.float64)
    subset = np.asarray(subset, dtype=np.intp)
    h = subset.shape[0]
    sub = data[subset]
    mean = sub.mean(axis=0)
    centered = sub - mean
    cov = centered.T @ centered / (h - 1)
    try:
        factor = cholesky(cov)
    except NotPositiveDefinite as exc:
        raise SingularSubset("subset covariance is rank deficient") from exc
    z = solve_triangular(factor.lower, (data - mean).T, lower=True).T
    d2 = np.sum(z * z, axis=1)
    order = np.argsort(d2, kind="stable")[:h]
    return np.sort(order)


class FrozenKernels:
    """The search kernels of the first mask search, frozen: full (b, c, p, p)
    covariance and precision stacks at every p, the closed bivariate form
    of the Cholesky gate, distance coefficients from ``einsum`` and the
    degenerate-start extension.  The production kernels must pick the
    same subsets, bit for bit, whatever layout they keep.
    """

    def __init__(self, data):
        b, n, p = data.shape
        self.data, self.b, self.n, self.p = data, b, n, p
        iu = np.triu_indices(p)
        self.iu = iu
        q = p + iu[0].shape[0]
        feat = np.empty((b, n, q))
        feat[:, :, :p] = data
        feat[:, :, p:] = data[:, :, iu[0]] * data[:, :, iu[1]]
        self.feat = feat
        self.feat_t = np.ascontiguousarray(feat.transpose(0, 2, 1))
        self.cross_scale = np.where(iu[0] == iu[1], 1.0, 2.0)

    def moments(self, mask, h):
        b, c, _ = mask.shape
        p = self.p
        sums = mask @ self.feat
        mean = sums[:, :, :p] / h
        ss = np.empty((b, c, p, p))
        ss[:, :, self.iu[0], self.iu[1]] = sums[:, :, p:]
        ss[:, :, self.iu[1], self.iu[0]] = sums[:, :, p:]
        cov = (ss - h * mean[:, :, :, None] * mean[:, :, None, :]) / (h - 1)
        return mean, cov

    def sq_distances(self, mean, precision, out):
        p = self.p
        am = np.einsum("bcij,bcj->bci", precision, mean)
        const = np.einsum("bci,bci->bc", am, mean)
        coef = np.empty((mean.shape[0], mean.shape[1], self.feat.shape[2]))
        coef[:, :, :p] = -2.0 * am
        coef[:, :, p:] = precision[:, :, self.iu[0], self.iu[1]] * self.cross_scale
        np.matmul(coef, self.feat_t, out=out)
        out += const[:, :, None]
        return out

    @staticmethod
    def fit_rows(cov):
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
        factor, ok = cholesky_mask(cov)
        lower = factor.lower.reshape(-1, p, p)
        linv = np.zeros_like(lower)
        for i in range(p):
            linv[:, i, i] = 1.0 / lower[:, i, i]
            for j in range(i):
                acc = np.einsum("sk,sk->s", lower[:, i, j:i], linv[:, j:i, j])
                linv[:, i, j] = -acc / lower[:, i, i]
        precision = np.einsum("ski,skj->sij", linv, linv).reshape(cov.shape)
        return precision, np.where(ok, factor.log_det, np.inf), ok

    def extend_degenerate_starts(self, keys, mean, precision, ok):
        precision = precision.copy()
        ok = ok.copy()
        for b, s in zip(*np.nonzero(~ok)):
            order = np.argsort(keys[b, s], kind="stable")
            for size in range(self.p + 2, self.n + 1):
                sub = self.data[b][order[:size]]
                m = sub.mean(axis=-2)
                centered = sub - m
                cov = centered.T @ centered / (size - 1)
                prec, _, good = self.fit_rows(cov[None, None])
                if good[0, 0]:
                    mean[b, s] = m
                    precision[b, s] = prec[0, 0]
                    ok[b, s] = True
                    break
        return precision, ok


def oracle_multistart(data, h, config, rng):
    """The multistart search with candidates as index arrays, frozen.

    Each round picks index sets with ``np.argpartition``, scatters them
    into a fresh 0/1 mask for the moments, and the winner is chosen over
    ``np.unique`` candidates one exact-statistics call at a time; the
    arithmetic is that of :class:`FrozenKernels`.  The production search
    keeps masks in reused buffers instead and must pick the same
    subsets, bit for bit.  Returns one (subset, objective) pair per
    dataset of the (b, n, p) stack ``data``.
    """
    ws = FrozenKernels(data)

    def moments(subsets):
        b, c, k = subsets.shape
        mask = np.zeros((b, c, ws.n))
        mask[np.arange(b)[:, None, None], np.arange(c)[None, :, None], subsets] = 1.0
        return ws.moments(mask, k)

    def sq_distances(mean, precision):
        return ws.sq_distances(mean, precision, out=np.empty(mean.shape[:2] + (ws.n,)))

    def c_step(subsets):
        mean, cov = moments(subsets)
        precision, _, ok = ws.fit_rows(cov)
        if not np.any(ok):
            return subsets
        d2 = sq_distances(mean, precision)
        new = np.argpartition(d2, h - 1, axis=-1)[:, :, :h]
        new[~ok] = subsets[~ok]
        return new

    keys = rng.generator().random((ws.b, config.n_starts, ws.n))
    idx = np.argpartition(keys, ws.p, axis=-1)[:, :, : ws.p + 1]
    mean, cov = moments(idx)
    precision, _, ok = ws.fit_rows(cov)
    if not np.all(ok):
        precision, ok = ws.extend_degenerate_starts(keys, mean, precision, ok)
    subsets = np.tile(np.arange(h, dtype=np.intp), (ws.b, config.n_starts, 1))
    if np.any(ok):
        ranked = np.argpartition(sq_distances(mean, precision), h - 1, axis=-1)
        subsets[ok] = ranked[:, :, :h][ok]
    for _ in range(mcd._CSTEPS_BEFORE_SELECTION):
        subsets = c_step(subsets)
    logdets = ws.fit_rows(moments(subsets)[1])[1]
    order = np.argsort(logdets, axis=1, kind="stable")[:, : config.n_keep]
    current = np.sort(np.take_along_axis(subsets, order[:, :, None], axis=1), axis=-1)
    for _ in range(mcd._MAX_CSTEPS):
        stepped = np.sort(c_step(current), axis=-1)
        if np.array_equal(stepped, current):
            break
        current = stepped

    winners = []
    for b in range(ws.b):
        unique = np.unique(current[b], axis=0)
        logdets = []
        for row in unique:
            centered = data[b][row] - data[b][row].mean(axis=0)
            try:
                logdets.append(cholesky(centered.T @ centered / (h - 1)).log_det)
            except NotPositiveDefinite:
                logdets.append(np.inf)
        best = min(logdets)
        if not np.isfinite(best):
            raise SingularSubset("every candidate subset became rank deficient")
        ties = [tuple(row) for row, v in zip(unique, logdets) if v == best]
        winners.append((np.array(min(ties), dtype=np.intp), float(best)))
    return winners


def frozen_exhaustive(data, h):
    """The per-dataset enumeration that preceded the shared scorer, frozen.

    Scores ``itertools.combinations`` of the rows of the (n, p) array
    ``data`` in chunks of 16,384 with two-pass statistics, and a strict
    ``<`` across chunks keeps the lexicographically first optimum, since
    combinations come in lexicographic order.  The production search
    scores the same subsets as one candidate stack and must pick the
    same subset and objective, bit for bit.
    """
    n = data.shape[0]
    best_logdet = np.inf
    best_subset = None
    combos = itertools.combinations(range(n), h)
    while True:
        chunk = list(itertools.islice(combos, 16_384))
        if not chunk:
            break
        sub = data[np.array(chunk)]
        centered = sub - sub.mean(axis=-2)[..., None, :]
        factor, ok = cholesky_mask(np.swapaxes(centered, -1, -2) @ centered / (h - 1))
        logdets = np.where(ok, factor.log_det, np.inf)
        i = int(np.argmin(logdets))
        if logdets[i] < best_logdet:
            best_logdet = float(logdets[i])
            best_subset = chunk[i]
    if best_subset is None or not np.isfinite(best_logdet):
        raise SingularSubset(f"every {h}-subset of the data is rank deficient")
    return np.array(best_subset, dtype=np.intp), best_logdet


def oracle_reweight(data, raw):
    """One-step reweighting of one dataset, written out without batching."""
    data = np.asarray(data, dtype=np.float64)
    n, p = data.shape
    try:
        distances = robust_distances(data, raw.raw_location, raw.raw_scatter)
    except NotPositiveDefinite as exc:
        raise SingularSubset("raw scatter is rank deficient") from exc
    kept = distances <= math.sqrt(chi2_quantile(REWEIGHT_QUANTILE, p))
    m = int(np.count_nonzero(kept))
    if m <= p:
        raise SingularSubset(
            f"only {m} observations kept by reweighting, need more than {p}"
        )
    sub = data[kept]
    location = sub.mean(axis=0)
    centered = sub - location
    cov = centered.T @ centered / (m - 1)
    try:
        cholesky(cov)
    except NotPositiveDefinite as exc:
        raise SingularSubset("weight-one observations are rank deficient") from exc
    cons = consistency_factor(p, REWEIGHT_QUANTILE)
    small = small_sample_factor(p, n, raw.alpha, reweighted=True)
    return dataclasses.replace(
        raw,
        location=location,
        scatter=cov * (cons * small),
        weights=kept.astype(np.int64),
        consistency_factor=cons,
        small_sample_factor=small,
    )


class TestSubsetSize:
    def test_known_values(self):
        assert h_subset_size(30, 2, 0.5) == 16
        assert h_subset_size(20, 2, 0.5) == 11
        assert h_subset_size(12, 2, 0.5) == 7
        assert h_subset_size(30, 2, 1.0) == 30
        assert h_subset_size(30, 2, 0.75) == 23

    def test_floor_dominates_small_alpha(self):
        # (n + p + 1) // 2 acts as the lower clamp
        assert h_subset_size(10, 5, 0.5) == 8

    def test_cap_at_n(self):
        assert h_subset_size(5, 1, 1.0) == 5

    def test_validation(self):
        with pytest.raises(DomainError):
            h_subset_size(10, 2, 0.4)
        with pytest.raises(DimensionError):
            h_subset_size(0, 2, 0.5)


class TestCorrectionFactors:
    def test_consistency_against_table(self):
        for (p, frac), expected in CONSISTENCY_TABLE.items():
            assert consistency_factor(p, frac) == pytest.approx(expected, rel=1e-10)

    def test_consistency_trivial_at_one(self):
        assert consistency_factor(3, 1.0) == 1.0

    def test_consistency_validation(self):
        with pytest.raises(DomainError):
            consistency_factor(2, 0.0)
        with pytest.raises(DimensionError):
            consistency_factor(0, 0.5)

    def test_small_sample_no_correction_at_full_alpha(self):
        for p in (1, 2, 6):
            assert small_sample_factor(p, 30, 1.0) == 1.0
            assert small_sample_factor(p, 30, 1.0, reweighted=True) == 1.0

    def test_small_sample_decreases_with_n(self):
        values = [small_sample_factor(2, n, 0.5) for n in (15, 30, 60, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.1

    def test_small_sample_plausible_magnitude(self):
        # around +23% on the determinant scale at n = 30, p = 2
        assert 1.1 < small_sample_factor(2, 30, 0.5) < 1.4
        assert 1.0 <= small_sample_factor(2, 300, 0.5) < 1.05

    def test_small_sample_interpolation_continuous(self):
        lo = small_sample_factor(2, 40, 0.875 - 1e-9)
        hi = small_sample_factor(2, 40, 0.875 + 1e-9)
        assert lo == pytest.approx(hi, abs=1e-6)

    def test_small_sample_large_p_falls_back(self):
        assert small_sample_factor(12, 50, 0.5) == small_sample_factor(8, 50, 0.5)

    def test_small_sample_validation(self):
        with pytest.raises(DomainError):
            small_sample_factor(2, 30, 0.3)
        with pytest.raises(DimensionError):
            small_sample_factor(0, 30, 0.5)


class TestRobustDistances:
    def test_identity_metric_is_euclidean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(20, 3))
        loc = np.zeros(3)
        d = robust_distances(data, loc, np.eye(3))
        assert np.allclose(d, np.linalg.norm(data, axis=1), atol=1e-12)

    def test_metric_scaling(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(15, 2))
        d1 = robust_distances(data, np.zeros(2), np.eye(2))
        d4 = robust_distances(data, np.zeros(2), 4.0 * np.eye(2))
        assert np.allclose(d4, d1 / 2.0, atol=1e-12)

    def test_rejects_indefinite_scatter(self):
        with pytest.raises(NotPositiveDefinite):
            robust_distances(np.zeros((5, 2)), np.zeros(2), np.diag([1.0, -1.0]))

    def test_rejects_bad_location(self):
        with pytest.raises(DimensionError):
            robust_distances(np.zeros((5, 2)), np.zeros(3), np.eye(2))

    def test_matches_scipy_solve_triangular(self):
        # the batched forward substitution against LAPACK at p = 4
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        scatter = a @ a.T + 4.0 * np.eye(4)
        data = rng.standard_normal((7, 4)) * 3.0
        loc = rng.standard_normal(4)
        lower = np.linalg.cholesky(scatter)
        z = solve_triangular(lower, (data - loc).T, lower=True).T
        expected = np.sqrt(np.sum(z * z, axis=1))
        d = robust_distances(data, loc, scatter)
        assert np.allclose(d, expected, rtol=1e-13, atol=0)


class TestCStep:
    def test_never_increases_logdet(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(25, 3))
        subset = np.arange(13)
        for _ in range(10):
            new = oracle_c_step(data, subset)
            old_ld = np.linalg.slogdet(np.cov(data[subset], rowvar=False))[1]
            new_ld = np.linalg.slogdet(np.cov(data[new], rowvar=False))[1]
            assert new_ld <= old_ld + 1e-12
            if np.array_equal(new, subset):
                break
            subset = new

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(11, 2))
        data[:3] += 5.0
        _, combo = brute_force_mcd(data, 6)
        best = np.array(combo)
        assert np.array_equal(oracle_c_step(data, best), best)

    def test_ties_broken_by_smallest_index(self):
        # two copies of the same point compete for the last slot
        data = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1],
             [3.0, 3.0], [3.0, 3.0], [9.0, 9.0]]
        )
        new = oracle_c_step(data, np.array([0, 1, 2, 3, 5]))
        # indices 4 and 5 tie exactly; 4 must win
        assert 4 in new and 5 not in new

    def test_singular_subset_raises(self):
        data = np.vstack([np.zeros((4, 2)), np.eye(2), [[2.0, 1.0]]])
        with pytest.raises(SingularSubset):
            oracle_c_step(data, np.array([0, 1, 2, 3]))


    @pytest.mark.parametrize("n", [30, 60, 180])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_multistart_winner_is_fixed_point(self, n, p):
        # the production search concentrates in batches on centered data;
        # its winning subset must still be a fixed point of a plain C-step
        for seed in range(5):
            for contaminated in (False, True):
                data = RngStream(800 + seed).generator().standard_normal((n, p))
                if contaminated:
                    data[: n // 5] += 6.0
                est = fast_mcd(data, rng=RngStream(seed))
                assert math.comb(n, est.best_subset.shape[0]) > EXHAUSTIVE_LIMIT
                step = oracle_c_step(data, est.best_subset)
                assert np.array_equal(step, est.best_subset), (seed, contaminated)


class TestExhaustiveSearch:
    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            data = rng.normal(size=(11, 2))
            data[:3] += 4.0
            est = fast_mcd(data)
            ref_ld, ref_combo = brute_force_mcd(data, h_subset_size(11, 2, 0.5))
            assert tuple(est.best_subset) == ref_combo
            assert est.objective == pytest.approx(ref_ld, abs=1e-10)

    def test_auto_mode_enumerates_small_problems(self):
        # C(12, 7) = 792 <= limit, so the default config enumerates: the
        # exact optimum, whatever the stream
        rng = np.random.default_rng(22)
        data = rng.normal(size=(12, 2))
        assert math.comb(12, 7) <= EXHAUSTIVE_LIMIT
        _, ref_combo = brute_force_mcd(data, 7)
        for seed in (0, 1):
            est = fast_mcd(data, rng=RngStream(seed))
            assert tuple(est.best_subset) == ref_combo

    def test_all_subsets_singular_raises(self):
        data = np.zeros((10, 2))
        data[:, 0] = np.arange(10)  # second coordinate constant
        with pytest.raises(SingularSubset):
            fast_mcd(data)


class TestMultistart:
    def test_attains_exhaustive_objective(self, monkeypatch):
        # n = 12 would be enumerated; a zero limit forces multistart
        monkeypatch.setattr(mcd, "EXHAUSTIVE_LIMIT", 0)
        rng = np.random.default_rng(30)
        hits = 0
        for trial in range(20):
            data = rng.normal(size=(12, 2))
            data[:3] += 4.0
            best, _ = brute_force_mcd(data, 7)
            ms = fast_mcd(data, rng=RngStream(trial))
            hits += abs(ms.objective - best) < 1e-8
        assert hits >= 19

    def test_deterministic_given_stream(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(40, 3))
        a = fast_mcd(data, rng=RngStream(5))
        b = fast_mcd(data, rng=RngStream(5))
        assert np.array_equal(a.best_subset, b.best_subset)
        assert np.array_equal(a.scatter, b.scatter)

    def test_affine_equivariance_exhaustive(self):
        rng = np.random.default_rng(32)
        data = rng.normal(size=(11, 2))
        A = np.array([[2.0, 0.7], [-0.3, 1.5]])
        b = np.array([4.0, -1.0])
        est = fast_mcd(data)
        est_t = fast_mcd(data @ A.T + b)
        assert np.array_equal(est.best_subset, est_t.best_subset)
        assert np.allclose(est_t.location, est.location @ A.T + b, atol=1e-9)
        assert np.allclose(est_t.scatter, A @ est.scatter @ A.T, rtol=1e-9)


class TestFullSampleShortcut:
    def test_alpha_one_is_classical(self):
        rng = np.random.default_rng(40)
        data = rng.normal(size=(25, 3))
        est = fast_mcd(data, McdConfig(alpha=1.0))
        assert np.array_equal(est.best_subset, np.arange(25))
        assert est.consistency_factor == 1.0
        assert est.small_sample_factor == 1.0
        assert np.allclose(est.location, data.mean(axis=0), atol=1e-12)
        assert np.allclose(est.scatter, np.cov(data, rowvar=False), rtol=1e-12)

    def test_alpha_one_rank_deficient_raises(self):
        # the single n-subset is enumerated and fails the Cholesky gate
        rng = np.random.default_rng(41)
        data = rng.normal(size=(25, 3))
        data[:, 2] = data[:, 0] - 2.0 * data[:, 1]
        with pytest.raises(SingularSubset):
            fast_mcd(data, McdConfig(alpha=1.0))
        with pytest.raises(SingularSubset):
            fast_mcd_batch(np.stack([rng.normal(size=(25, 3)), data]),
                           McdConfig(alpha=1.0))


class TestCorrectedScatterCalibration:
    def test_det_scale_unbiased_under_normality(self):
        # the corrections target E[det(scatter)^(1/p)] = 1 for normal data
        p, n, m = 2, 25, 400
        rng = RngStream(99)
        data = rng.generator().standard_normal((m, n, p))
        raws = fast_mcd_batch(
            data, McdConfig(n_starts=150, n_keep=5),
            rng=rng.substream(1),
        )
        rews = reweight_batch(data, raws)
        for ests, stage in ((raws, "raw"), (rews, "rew")):
            covs = np.stack([e.scatter for e in ests])
            roots = np.exp(np.linalg.slogdet(covs)[1] / p)
            assert abs(roots.mean() - 1.0) < 0.06, stage


class TestReweight:
    def test_all_inside_reduces_to_corrected_classical(self):
        # a deliberately wide raw fit keeps every observation inside the
        # cutoff, so reweighting reduces to the corrected sample moments
        rng = np.random.default_rng(50)
        data = rng.normal(size=(40, 2)) * 0.01
        raw = fast_mcd(data, rng=RngStream(1))
        raw = dataclasses.replace(raw, raw_scatter=np.eye(2))
        rew = reweight(data, raw)
        assert rew.weights.sum() == 40
        cons = consistency_factor(2, 0.975)
        small = small_sample_factor(2, 40, raw.alpha, reweighted=True)
        expected = np.cov(data, rowvar=False) * cons * small
        assert np.allclose(rew.location, data.mean(axis=0), atol=1e-12)
        assert np.allclose(rew.scatter, expected, rtol=1e-12)
        assert rew.consistency_factor == pytest.approx(cons)
        assert rew.small_sample_factor == pytest.approx(small)

    def test_planted_outliers_get_weight_zero(self):
        rng = np.random.default_rng(51)
        data = rng.normal(size=(60, 2))
        data[:6] += 50.0
        raw = fast_mcd(data, rng=RngStream(2))
        rew = reweight(data, raw)
        assert np.all(rew.weights[:6] == 0)
        assert rew.weights[6:].sum() >= 45
        assert np.all(np.abs(rew.location) < 1.0)

    def test_trim_fraction_near_nominal(self):
        rng = RngStream(52)
        data = rng.generator().standard_normal((200, 60, 2))
        raws = fast_mcd_batch(data, McdConfig(n_starts=150, n_keep=5), rng=rng.substream(1))
        rews = reweight_batch(data, raws)
        kept = np.mean([e.weights.mean() for e in rews])
        # raw-fit noise trims somewhat more than the nominal 2.5%
        assert 0.90 < kept < 0.99

    def test_batch_matches_single(self):
        # the batched reweighting against the per-dataset oracle
        for shape in ((4, 30, 3), (6, 30, 2), (1, 180, 2), (3, 40, 4)):
            rng = RngStream(53)
            data = rng.generator().standard_normal(shape)
            data[:, :3] += 8.0
            raws = fast_mcd_batch(data, rng=rng.substream(1))
            rews = reweight_batch(data, raws)
            for i in range(shape[0]):
                solo = oracle_reweight(data[i], raws[i])
                assert np.array_equal(solo.weights, rews[i].weights)
                assert np.array_equal(solo.location, rews[i].location)
                assert np.allclose(solo.scatter, rews[i].scatter, rtol=1e-14, atol=0)

    def test_raw_fields_preserved(self):
        rng = np.random.default_rng(54)
        data = rng.normal(size=(30, 2))
        raw = fast_mcd(data, rng=RngStream(3))
        rew = reweight(data, raw)
        assert np.array_equal(rew.raw_location, raw.raw_location)
        assert np.array_equal(rew.raw_scatter, raw.raw_scatter)
        assert np.array_equal(rew.best_subset, raw.best_subset)

    def test_cutoff_boundary_is_inclusive(self):
        cutoff = math.sqrt(chi2_quantile(0.975, 2))
        base = np.random.default_rng(55).normal(size=(39, 2)) * 0.5
        raw = fast_mcd(base, rng=RngStream(4))
        # plant a point exactly on the cutoff sphere of the raw fit
        L = np.linalg.cholesky(raw.raw_scatter)
        edge = raw.raw_location + cutoff * (L @ np.array([1.0, 0.0]))
        data = np.vstack([base, edge])
        d = robust_distances(data, raw.raw_location, raw.raw_scatter)
        assert d[-1] == pytest.approx(cutoff, rel=1e-12)
        rew = reweight(data, dataclasses.replace(raw, alpha=raw.alpha))
        assert rew.weights[-1] == 1


class TestBatchSemantics:
    def test_batch_of_one_bitwise_equals_single(self):
        rng = np.random.default_rng(60)
        data = rng.normal(size=(35, 2)) * 2 + 7
        single = fast_mcd(data, rng=RngStream(11))
        batched = fast_mcd_batch(data[None], rng=RngStream(11))[0]
        assert np.array_equal(single.best_subset, batched.best_subset)
        assert np.array_equal(single.location, batched.location)
        assert np.array_equal(single.scatter, batched.scatter)
        assert single.objective == batched.objective

    def test_stack_fits_match_good_objectives(self, monkeypatch):
        # every dataset in a multistart stack reaches the exhaustive
        # optimum; n = 13 would be enumerated, a zero limit forces multistart
        monkeypatch.setattr(mcd, "EXHAUSTIVE_LIMIT", 0)
        rng = RngStream(61)
        stack = rng.generator().standard_normal((5, 13, 2))
        stack[:, :3] += 6.0
        batch = fast_mcd_batch(stack, rng=rng.substream(1))
        for i in range(5):
            best, _ = brute_force_mcd(stack[i], 8)
            assert batch[i].objective <= best + 1e-8

    def test_offset_data_matches_centered_fit(self):
        # huge common offsets must not degrade the fit
        rng = np.random.default_rng(62)
        base = rng.normal(size=(40, 2))
        far = base + 1e6
        est0 = fast_mcd(base, rng=RngStream(12))
        est1 = fast_mcd(far, rng=RngStream(12))
        assert np.array_equal(est0.best_subset, est1.best_subset)
        assert np.allclose(est1.location - 1e6, est0.location, atol=1e-7)
        assert np.allclose(est1.scatter, est0.scatter, rtol=1e-7)

    def test_validation(self):
        with pytest.raises(DimensionError):
            fast_mcd_batch(np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            fast_mcd_batch(np.zeros((0, 5, 2)))
        with pytest.raises(DimensionError):
            fast_mcd(np.zeros((3, 3)))
        with pytest.raises(DomainError):
            fast_mcd(np.full((10, 2), np.nan))
        with pytest.raises(DimensionError):
            reweight_batch(np.zeros((2, 10, 2)), [])
        data = np.random.default_rng(63).normal(size=(2, 30, 2))
        raws = fast_mcd_batch(data, rng=RngStream(15))
        data[1, 4, 0] = np.nan
        with pytest.raises(DomainError, match="must be finite"):
            reweight_batch(data, raws)


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(DomainError):
            McdConfig(alpha=0.49)
        with pytest.raises(DomainError):
            McdConfig(alpha=1.01)

    def test_start_counts(self):
        with pytest.raises(DomainError):
            McdConfig(n_starts=0)
        with pytest.raises(DomainError):
            McdConfig(n_keep=0)
        with pytest.raises(DomainError):
            McdConfig(n_starts=5, n_keep=6)


class TestEstimateInvariants:
    def test_shapes_and_ranges(self):
        rng = np.random.default_rng(70)
        data = rng.normal(size=(30, 3))
        est = fast_mcd(data, rng=RngStream(13))
        h = h_subset_size(30, 3, 0.5)
        assert est.best_subset.shape == (h,)
        assert np.all(np.diff(est.best_subset) > 0)
        assert est.weights.sum() == h
        assert set(np.unique(est.weights)) <= {0, 1}
        assert np.isfinite(est.objective)
        np.linalg.cholesky(est.scatter)  # SPD check
        rew = reweight(data, est)
        assert rew.weights.shape == (30,)
        np.linalg.cholesky(rew.scatter)

    def test_scatter_carries_both_corrections(self):
        rng = np.random.default_rng(71)
        data = rng.normal(size=(20, 2))
        est = fast_mcd(data, rng=RngStream(14))
        sub = data[est.best_subset]
        cov = np.cov(sub, rowvar=False)
        expected = cov * est.consistency_factor * est.small_sample_factor
        assert np.allclose(est.raw_scatter, expected, rtol=1e-10)


def search_data(kind, b, n, p, seed):
    data = RngStream(seed).generator().standard_normal((b, n, p))
    if kind == "outliers":
        data[:, : max(1, n // 5)] += 6.0
    elif kind == "rounded":
        # coarse values with duplicated rows: distances tie everywhere
        data = np.round(data)
        data[:, 1] = data[:, 0]
        data[:, 3] = data[:, 2]
    return data


def search_outcome(search):
    try:
        return search()
    except SingularSubset:
        return "singular"


class TestMaskSearchMatchesIndexOracle:
    @pytest.mark.parametrize("kind", ["clean", "outliers", "rounded"])
    @pytest.mark.parametrize("b", [1, 6])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_bitwise_equal_to_index_form(self, p, b, kind, monkeypatch):
        monkeypatch.setattr(mcd, "EXHAUSTIVE_LIMIT", 0)
        for n, config, seed in (
            (12 + 3 * p, McdConfig(), 10 * p + b),
            (8 + 2 * p, McdConfig(alpha=0.75, n_starts=40, n_keep=3), 20 * p + b),
        ):
            data = search_data(kind, b, n, p, seed)
            h = h_subset_size(n, p, config.alpha)
            centered = data - data.mean(axis=1)[:, None, :]
            expected = search_outcome(
                lambda: oracle_multistart(centered, h, config, RngStream(seed))
            )
            ests = search_outcome(
                lambda: fast_mcd_batch(data, config, RngStream(seed))
            )
            if isinstance(expected, str):
                assert ests == expected
                continue
            assert not isinstance(ests, str)
            for est, (subset, objective) in zip(ests, expected):
                assert est.best_subset.dtype == subset.dtype
                assert np.array_equal(est.best_subset, subset), (n, kind)
                assert est.objective == objective

    @pytest.mark.parametrize("kind", ["clean", "outliers", "rounded"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_kernels_bitwise_equal_to_frozen(self, p, kind):
        # every intermediate of a round, not only the subsets it picks; a
        # bivariate fit is compared on its three distinct entries
        data = search_data(kind, 6, 20, p, 30 + p)
        ws, frozen = mcd._Workspace(data), FrozenKernels(data)
        iu = np.triu_indices(p) if p == 2 else (slice(None), slice(None))
        for h, seed in ((p + 1, 1), (11, 2), (20, 3)):
            keys = np.random.default_rng(seed).random((6, 50, 20))
            mask = np.zeros_like(keys)
            np.put_along_axis(mask, np.argsort(keys, axis=-1)[..., :h], 1.0, axis=-1)
            mean, cov = ws.moments(mask, h)
            want_mean, want_cov = frozen.moments(mask, h)
            assert mean.tobytes() == want_mean.tobytes()
            assert cov.tobytes() == want_cov[..., iu[0], iu[1]].tobytes()
            precision, logdet, ok = ws.fit(cov)
            want_precision, want_logdet, want_ok = frozen.fit_rows(want_cov)
            assert np.array_equal(ok, want_ok) and logdet.tobytes() == want_logdet.tobytes()
            assert precision.tobytes() == want_precision[..., iu[0], iu[1]].tobytes()
            got = ws.sq_distances(mean, precision, np.empty_like(keys))
            want = frozen.sq_distances(want_mean, want_precision, np.empty_like(keys))
            assert got.tobytes() == want.tobytes()

    def test_whole_sample_subsets(self, monkeypatch):
        # n = p + 1 makes both the starts and the h-subsets the whole sample
        monkeypatch.setattr(mcd, "EXHAUSTIVE_LIMIT", 0)
        data = search_data("clean", 1, 4, 3, 7)
        [(subset, objective)] = oracle_multistart(
            data - data.mean(axis=1)[:, None, :], 4, McdConfig(), RngStream(1)
        )
        [est] = fast_mcd_batch(data, rng=RngStream(1))
        assert np.array_equal(est.best_subset, subset)
        assert est.objective == objective

    def test_rank_deficient_finalist_loses(self):
        # rows 0-4 lie on a line through the origin, so every 4-subset of
        # them has a singular covariance
        data = np.random.default_rng(64).normal(size=(10, 2))
        data[:5, 1] = 2.0 * data[:5, 0]
        finalists = np.array([[0, 1, 2, 3], [3, 5, 7, 9], [1, 2, 3, 4], [0, 6, 8, 9]])
        [(subset, objective)] = mcd._select_winners(data[None], finalists[None])
        logdets = []
        for row in finalists:
            centered = data[row] - data[row].mean(axis=0)
            try:
                logdets.append(cholesky(centered.T @ centered / 3).log_det)
            except NotPositiveDefinite:
                logdets.append(np.inf)
        assert logdets[0] == logdets[2] == np.inf
        assert np.isfinite(objective) and objective == min(logdets)
        assert subset.tolist() == finalists[int(np.argmin(logdets))].tolist()
        with pytest.raises(SingularSubset, match="every candidate"):
            mcd._select_winners(data[None], finalists[None, [0, 2]])

    def test_tied_winner_is_lexicographically_smallest(self):
        # rows 1 and 5 repeat rows 0 and 4, so swapping one for its copy
        # leaves a subset's covariance unchanged bit for bit; the tied
        # rows come duplicated and out of lexicographic order, beside a
        # smaller subset that holds the outlying row 2 and does not tie
        data = np.random.default_rng(65).normal(size=(8, 2))
        data[1], data[5] = data[0], data[4]
        data[2] += 50.0
        tied = [[1, 3, 5, 6], [1, 3, 4, 6], [0, 3, 5, 6], [0, 3, 4, 6]]
        candidates = np.array(
            [tied[0], [0, 1, 2, 3], tied[2], tied[1], tied[0], tied[3], tied[2]]
        )
        logdets = [cholesky(np.cov(data[row], rowvar=False)).log_det for row in candidates]
        assert len({logdets[i] for i in (0, 2, 3, 4, 5, 6)}) == 1
        assert logdets[1] > logdets[0]
        winners = mcd._select_winners(
            np.stack([data, data]), np.stack([candidates, candidates[::-1]])
        )
        for subset, objective in winners:
            assert subset.dtype == np.intp and subset.tolist() == [0, 3, 4, 6]
            assert objective == pytest.approx(logdets[0], rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_smallest_matches_argpartition_with_ties(self, k):
        # integer-valued rows tie at almost every k; NaN, inf and signed
        # zeros take the tie path too
        values = np.random.default_rng(k).integers(0, 4, size=(3, 40, 12)).astype(float)
        values[0, 0, 3] = np.nan
        values[0, 1, :2] = np.inf
        values[1, 2, :6] = -0.0
        values[1, 2, 6:] = 0.0
        out = np.full_like(values, 7.0)
        mcd._smallest(values, k, out, np.empty_like(values))
        expected = np.zeros_like(values)
        picked = np.argpartition(values, k - 1, axis=-1)[..., :k]
        np.put_along_axis(expected, picked, 1.0, axis=-1)
        assert np.array_equal(out, expected)


class TestEnumerationMatchesFrozen:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("kind", ["clean", "outliers", "rounded"])
    @pytest.mark.parametrize("b", [1, 6])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_bitwise_equal_to_frozen_exhaustive(self, p, b, kind, alpha):
        # every n that enumerates, from the smallest the data kind allows;
        # the candidate stack must give the per-dataset loop's outcome
        config = McdConfig(alpha=alpha)
        sizes = [
            n for n in range(max(p + 1, 4), 3 * p + 13)
            if math.comb(n, h_subset_size(n, p, alpha)) <= EXHAUSTIVE_LIMIT
        ]
        assert len(sizes) >= 5
        for n in sizes:
            data = search_data(kind, b, n, p, 100 * p + n + b)
            h = h_subset_size(n, p, alpha)
            centered = data - data.mean(axis=1)[:, None, :]
            expected = search_outcome(
                lambda: [frozen_exhaustive(centered[i], h) for i in range(b)]
            )
            ests = search_outcome(lambda: fast_mcd_batch(data, config, RngStream(n)))
            if isinstance(expected, str):
                assert ests == expected, n
                continue
            assert not isinstance(ests, str), n
            for est, (subset, objective) in zip(ests, expected):
                assert est.best_subset.dtype == subset.dtype
                assert np.array_equal(est.best_subset, subset), (n, kind)
                assert est.objective == objective


def fit_in_new_thread(data, config, seed):
    """A fit on a thread of its own, so with freshly allocated scratch."""
    result = []
    worker = threading.Thread(
        target=lambda: result.append(fast_mcd_batch(data, config, RngStream(seed)))
    )
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(result) == 1
    return result[0]


def assert_same_fits(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.best_subset, b.best_subset)
        assert np.array_equal(a.raw_scatter, b.raw_scatter)
        assert np.array_equal(a.raw_location, b.raw_location)
        assert a.objective == b.objective


class TestScratchReuse:
    # (data, config, seed) of two fits whose scratch shapes differ; A
    # needs a larger block than B, so A grows it and B reuses it
    A = (search_data("outliers", 6, 30, 2, 90), McdConfig(), 1)
    B = (search_data("clean", 1, 90, 3, 91), McdConfig(n_starts=300, n_keep=4), 2)

    def test_shapes_in_sequence_equal_fresh_fits(self):
        fresh = [fit_in_new_thread(*case) for case in (self.A, self.B)]
        for case, expected in ((self.A, fresh[0]), (self.B, fresh[1]),
                               (self.A, fresh[0])):
            assert_same_fits(fast_mcd_batch(case[0], case[1], RngStream(case[2])), expected)

    def test_search_above_keep_limit_leaves_block_alone(self, monkeypatch):
        # B's block (864,000 bytes) is kept under a 1 MB limit, A's
        # (2.88 MB) is allocated for its fit alone
        fresh = [fit_in_new_thread(*case) for case in (self.A, self.B)]
        monkeypatch.setattr(mcd, "_SCRATCH_KEEP_BYTES", 10**6)
        seen = []

        def work():
            for case in (self.B, self.A, self.B):
                ests = fast_mcd_batch(case[0], case[1], RngStream(case[2]))
                seen.append((ests, mcd._scratch.block))

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive() and len(seen) == 3
        kept = seen[0][1]
        assert kept.nbytes <= 10**6
        for (ests, block), expected in zip(seen, (fresh[1], fresh[0], fresh[1])):
            assert_same_fits(ests, expected)
            assert block is kept

    def test_estimates_do_not_alias_scratch(self):
        ests = fast_mcd_batch(self.A[0], self.A[1], RngStream(self.A[2]))
        frozen = [
            {f.name: np.copy(getattr(e, f.name)) for f in dataclasses.fields(e)}
            for e in ests
        ]
        for case in (self.B, self.A):
            fast_mcd_batch(case[0] + 1.0, case[1], RngStream(case[2] + 5))
        block = mcd._scratch.block
        for est, before in zip(ests, frozen):
            for name, value in before.items():
                assert np.array_equal(getattr(est, name), value), name
                assert not np.shares_memory(getattr(est, name), block), name

    def test_threads_fitting_different_shapes_match_serial(self):
        config = McdConfig(n_starts=100, n_keep=4)
        shapes = ((6, 30, 2), (2, 45, 3))
        inputs = [
            [search_data("outliers", *shape, 100 * t + i) for i in range(50)]
            for t, shape in enumerate(shapes)
        ]
        serial = [[fast_mcd_batch(d, config, RngStream(i)) for i, d in enumerate(data)]
                  for data in inputs]
        got = [[], []]

        def work(t):
            for i, d in enumerate(inputs[t]):
                got[t].append(fast_mcd_batch(d, config, RngStream(i)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for t in range(2):
            assert len(got[t]) == 50
            for ests, expected in zip(got[t], serial[t]):
                assert_same_fits(ests, expected)
