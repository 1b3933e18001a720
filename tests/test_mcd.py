"""Tests for minimum covariance determinant estimation."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from mcdmanova.distributions import RngStream, chi2_quantile, cholesky
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
    z = factor.solve_lower(data - mean)
    d2 = np.sum(z * z, axis=1)
    order = np.argsort(d2, kind="stable")[:h]
    return np.sort(order)


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
            est = fast_mcd(data, McdConfig(exhaustive=True))
            ref_ld, ref_combo = brute_force_mcd(data, h_subset_size(11, 2, 0.5))
            assert tuple(est.best_subset) == ref_combo
            assert est.objective == pytest.approx(ref_ld, abs=1e-10)

    def test_auto_mode_enumerates_small_problems(self):
        # C(12, 7) = 792 <= limit, so default config enumerates
        rng = np.random.default_rng(22)
        data = rng.normal(size=(12, 2))
        est_auto = fast_mcd(data)
        est_ex = fast_mcd(data, McdConfig(exhaustive=True))
        assert np.array_equal(est_auto.best_subset, est_ex.best_subset)
        assert math.comb(12, 7) <= EXHAUSTIVE_LIMIT

    def test_all_subsets_singular_raises(self):
        data = np.zeros((10, 2))
        data[:, 0] = np.arange(10)  # second coordinate constant
        with pytest.raises(SingularSubset):
            fast_mcd(data, McdConfig(exhaustive=True))


class TestMultistart:
    def test_attains_exhaustive_objective(self):
        rng = np.random.default_rng(30)
        hits = 0
        for trial in range(20):
            data = rng.normal(size=(12, 2))
            data[:3] += 4.0
            ex = fast_mcd(data, McdConfig(exhaustive=True))
            ms = fast_mcd(data, McdConfig(exhaustive=False), rng=RngStream(trial))
            hits += abs(ms.objective - ex.objective) < 1e-8
        assert hits >= 19

    def test_deterministic_given_stream(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(40, 3))
        a = fast_mcd(data, McdConfig(exhaustive=False), rng=RngStream(5))
        b = fast_mcd(data, McdConfig(exhaustive=False), rng=RngStream(5))
        assert np.array_equal(a.best_subset, b.best_subset)
        assert np.array_equal(a.scatter, b.scatter)

    def test_affine_equivariance_exhaustive(self):
        rng = np.random.default_rng(32)
        data = rng.normal(size=(11, 2))
        A = np.array([[2.0, 0.7], [-0.3, 1.5]])
        b = np.array([4.0, -1.0])
        est = fast_mcd(data, McdConfig(exhaustive=True))
        est_t = fast_mcd(data @ A.T + b, McdConfig(exhaustive=True))
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


class TestCorrectedScatterCalibration:
    def test_det_scale_unbiased_under_normality(self):
        # the corrections target E[det(scatter)^(1/p)] = 1 for normal data
        p, n, m = 2, 25, 400
        rng = RngStream(99)
        data = rng.generator().standard_normal((m, n, p))
        raws = fast_mcd_batch(
            data, McdConfig(n_starts=150, n_keep=5, exhaustive=False),
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
        single = fast_mcd(data, McdConfig(exhaustive=False), rng=RngStream(11))
        batched = fast_mcd_batch(
            data[None], McdConfig(exhaustive=False), rng=RngStream(11)
        )[0]
        assert np.array_equal(single.best_subset, batched.best_subset)
        assert np.array_equal(single.location, batched.location)
        assert np.array_equal(single.scatter, batched.scatter)
        assert single.objective == batched.objective

    def test_stack_fits_match_good_objectives(self):
        # every dataset in a stack reaches the exhaustive optimum
        rng = RngStream(61)
        stack = rng.generator().standard_normal((5, 13, 2))
        stack[:, :3] += 6.0
        batch = fast_mcd_batch(stack, McdConfig(exhaustive=False), rng=rng.substream(1))
        for i in range(5):
            ex = fast_mcd(stack[i], McdConfig(exhaustive=True))
            assert batch[i].objective <= ex.objective + 1e-8

    def test_offset_data_matches_centered_fit(self):
        # huge common offsets must not degrade the fit
        rng = np.random.default_rng(62)
        base = rng.normal(size=(40, 2))
        far = base + 1e6
        est0 = fast_mcd(base, McdConfig(exhaustive=False), rng=RngStream(12))
        est1 = fast_mcd(far, McdConfig(exhaustive=False), rng=RngStream(12))
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
        with pytest.raises(DomainError):
            McdConfig(max_csteps=0)


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
