"""Tests for deterministic streams and the numerical toolbox.

Reference values were generated with mpmath at 40 decimal digits and
with scipy.stats; both libraries are also queried directly as oracles
where that keeps the test readable.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy import stats

from mcdmanova.distributions import (
    CholeskyFactor,
    RngStream,
    chi2_cdf,
    chi2_quantile,
    cholesky,
    ln_gamma,
)
from mcdmanova.errors import DimensionError, DomainError, NotPositiveDefinite

# mpmath loggamma at given x, 40 digits, rounded to double
LN_GAMMA_TABLE = {
    0.1: 2.252712651734206,
    0.5: 0.5723649429247001,
    1.0: 0.0,
    1.5: -0.12078223763524522,
    3.0: 0.6931471805599453,
    10.0: 12.801827480081469,
    30.5: 72.9534711841694,
    171.6: 709.6573587630563,
    1e6: 12815504.569147611,
}

# mpmath regularized lower incomplete gamma, 40 digits
CHI2_CDF_TABLE = {
    (7.377758908227871, 2): 0.975,
    (1.0, 1): 0.6826894921370859,
    (2.5, 4): 0.3553642070645723,
    (18.48, 6): 0.9948617996425865,
    (0.3, 10): 5.585807848102755e-07,
    (123.4, 100): 0.9437499075641841,
}

# scipy.stats.chi2.ppf
CHI2_QUANTILE_TABLE = {
    (0.975, 2): 7.377758908227871,
    (0.975, 6): 14.44937533544792,
    (0.999, 2): 13.815510557964274,
    (0.999, 6): 22.457744484825323,
    (0.5, 3): 2.3659738843753377,
    (0.05, 10): 3.9402991361190605,
    (0.975, 1): 5.023886187314888,
}


class TestRngStream:
    def test_same_name_reproduces_bits(self):
        a = RngStream(12345, 7).generator().standard_normal(64)
        b = RngStream(12345, 7).generator().standard_normal(64)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RngStream(12345, 0).generator().standard_normal(64)
        b = RngStream(12345, 1).generator().standard_normal(64)
        assert not np.array_equal(a, b)

    def test_substream_extends_path(self):
        s = RngStream(9, 2).substream(3).substream(4, 5)
        assert s == RngStream(9, 2, (3, 4, 5))

    def test_substream_independent_of_sibling(self):
        root = RngStream(11, 0)
        a = root.substream(0).generator().standard_normal(32)
        b = root.substream(1).generator().standard_normal(32)
        assert not np.array_equal(a, b)

    def test_order_independence(self):
        # Drawing from one substream does not perturb another.
        root = RngStream(21, 5)
        before = root.substream(2).generator().standard_normal(16)
        root.substream(1).generator().standard_normal(1000)
        after = root.substream(2).generator().standard_normal(16)
        assert np.array_equal(before, after)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            RngStream(-1)
        with pytest.raises(DomainError):
            RngStream(0, -2)
        with pytest.raises(DomainError):
            RngStream(0, 0).substream(-3)

    def test_large_seed_accepted(self):
        RngStream(2**64 - 1, 2**63).generator().standard_normal(1)


class TestLnGamma:
    def test_reference_values_moderate_range(self):
        for x, expected in LN_GAMMA_TABLE.items():
            if x <= 200:
                assert ln_gamma(x) == pytest.approx(expected, abs=1e-12)

    def test_reference_values_large_argument(self):
        # Absolute error below 1e-12 is not representable at this
        # magnitude (one ulp of ln Gamma(1e6) is about 2e-9); require
        # near machine relative accuracy instead.
        assert ln_gamma(1e6) == pytest.approx(LN_GAMMA_TABLE[1e6], rel=5e-14)

    def test_against_mpmath_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for x in np.geomspace(0.1, 1e6, 97):
            expected = float(mp.loggamma(float(x)))
            assert ln_gamma(float(x)) == pytest.approx(
                expected, rel=5e-14, abs=1e-12
            )

    def test_factorials(self):
        for n in range(2, 20):
            assert ln_gamma(n) == pytest.approx(
                math.log(math.factorial(n - 1)), rel=1e-14, abs=1e-13
            )

    def test_domain(self):
        for bad in (0.0, -1.0, -0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                ln_gamma(bad)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.1, max_value=1e5))
    def test_recursion_property(self, x):
        lhs = ln_gamma(x + 1.0)
        rhs = ln_gamma(x) + math.log(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-11)


class TestChi2Cdf:
    def test_reference_values(self):
        for (x, df), expected in CHI2_CDF_TABLE.items():
            assert chi2_cdf(x, df) == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_against_scipy_grid(self):
        for df in (1, 2, 3, 6, 10, 25, 100):
            for x in np.linspace(0.01, 5 * df, 23):
                assert chi2_cdf(float(x), df) == pytest.approx(
                    stats.chi2.cdf(x, df), rel=1e-10, abs=1e-13
                )

    def test_edges(self):
        assert chi2_cdf(0.0, 4) == 0.0
        assert chi2_cdf(math.inf, 4) == 1.0
        assert chi2_cdf(1e6, 2) == 1.0

    def test_monotone(self):
        xs = np.linspace(0.0, 40.0, 200)
        vals = [chi2_cdf(float(x), 5) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_cdf(-0.1, 2)
        with pytest.raises(DomainError):
            chi2_cdf(1.0, 0)
        with pytest.raises(DomainError):
            chi2_cdf(1.0, -3)


class TestChi2Quantile:
    def test_cutoff_constant(self):
        # Frozen via scipy.stats.chi2.ppf(0.975, 2).
        assert chi2_quantile(0.975, 2) == pytest.approx(
            7.377758908227871, abs=1e-9
        )

    def test_reference_values(self):
        for (q, df), expected in CHI2_QUANTILE_TABLE.items():
            assert chi2_quantile(q, df) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=0.5, max_value=200.0),
    )
    def test_roundtrip(self, prob, df):
        x = chi2_quantile(prob, df)
        assert chi2_cdf(x, df) == pytest.approx(prob, abs=1e-9)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                chi2_quantile(bad, 3)
        with pytest.raises(DomainError):
            chi2_quantile(0.5, 0)


def random_spd(rng: np.random.Generator, p: int) -> np.ndarray:
    a = rng.standard_normal((p, 2 * p + 2))
    return a @ a.T / (2 * p + 2)


class TestCholesky:
    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for p in (1, 2, 3, 6, 10):
            mat = random_spd(rng, p)
            fac = cholesky(mat)
            lower = fac.lower
            assert np.allclose(lower @ lower.T, mat, rtol=0, atol=1e-12 * p)
            assert np.allclose(np.triu(lower, 1), 0.0)
            assert np.all(np.diag(lower) > 0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        mat = random_spd(rng, 5)
        assert np.allclose(cholesky(mat).lower, np.linalg.cholesky(mat), atol=1e-12)

    def test_not_symmetric(self):
        with pytest.raises(DomainError):
            cholesky(np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_not_square(self):
        with pytest.raises(DimensionError):
            cholesky(np.ones((2, 3)))

    def test_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rank_deficient(self):
        v = np.array([[1.0], [2.0]])
        with pytest.raises(NotPositiveDefinite):
            cholesky(v @ v.T)

    def test_pivot_threshold(self):
        # Threshold is p * 1e-14 * max diagonal: a 1e-20 pivot must fail,
        # a 1e-10 pivot must pass.
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.diag([1.0, 1e-20]))
        cholesky(np.diag([1.0, 1e-10]))

    def test_solve_lower_matches_scipy(self):
        rng = np.random.default_rng(2)
        mat = random_spd(rng, 4)
        fac = cholesky(mat)
        rhs = rng.standard_normal((7, 4))
        expected = sla.solve_triangular(fac.lower, rhs.T, lower=True).T
        assert np.allclose(fac.solve_lower(rhs), expected, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_reconstruction_property(self, p, seed):
        mat = random_spd(np.random.default_rng(seed), p)
        fac = cholesky(mat)
        assert np.allclose(fac.lower @ fac.lower.T, mat, atol=1e-10)


class TestLogDetPsd:
    def test_matches_slogdet(self):
        rng = np.random.default_rng(3)
        for p in (1, 2, 4, 8):
            mat = random_spd(rng, p)
            sign, expected = np.linalg.slogdet(mat)
            assert sign == 1.0
            assert cholesky(mat).log_det == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[0.0, 0.0], [0.0, 1.0]])).log_det


class TestSampleMvn:
    """Normal draws from a named stream, mapped through a Cholesky factor."""

    def test_deterministic(self):
        rng = RngStream(5, 1)
        a = rng.generator().standard_normal((10, 3))
        b = rng.generator().standard_normal((10, 3))
        assert np.array_equal(a, b)

    def test_moments(self):
        rng = np.random.default_rng(6)
        mat = random_spd(rng, 2)
        mean = np.array([3.0, -1.0])
        z = RngStream(23).generator().standard_normal((200_000, 2))
        draws = mean + z @ cholesky(mat).lower.T
        assert np.allclose(draws.mean(axis=0), mean, atol=0.02)
        assert np.allclose(np.cov(draws.T), mat, atol=0.03)

    def test_chi2_of_squared_norms(self):
        # Squared norms of standard normal rows are chi-square(p); checks
        # the generator and chi2_cdf against each other end to end.
        p = 4
        draws = RngStream(29).generator().standard_normal((50_000, p))
        d2 = np.sum(draws**2, axis=1)
        grid = np.linspace(0.5, 15.0, 8)
        for t in grid:
            empirical = float(np.mean(d2 <= t))
            assert empirical == pytest.approx(chi2_cdf(float(t), p), abs=0.01)
