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
from scipy import stats

from mcdmanova import distributions
from mcdmanova.distributions import (
    CholeskyFactor,
    RngStream,
    chi2_cdf,
    chi2_quantile,
    cholesky,
    cholesky_mask,
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
    # The first three raw 64-bit Philox outputs of a few named streams.
    # Every recorded seed, golden output and calibration cache was drawn
    # from these bits, so no change to the stream naming may move them.
    FROZEN_DRAWS = {
        RngStream(12345): [
            11514036633452313887, 5043530045596984684, 14859261833041187686],
        RngStream(12345).substream(3): [
            18312782386771348609, 5168431997191597399, 5777410428639525198],
        RngStream(12345).substream(3, 1): [
            16170273644791941209, 3821992798796441792, 4566598200788509196],
        RngStream(2**40 + 7).substream(2): [
            14232148949687899857, 6826401204012158840, 891176041048250483],
    }

    def test_named_streams_draw_frozen_bits(self):
        for stream, want in self.FROZEN_DRAWS.items():
            assert stream.generator().bit_generator.random_raw(3).tolist() == want

    def test_same_name_reproduces_bits(self):
        a = RngStream(12345).substream(7).generator().standard_normal(64)
        b = RngStream(12345).substream(7).generator().standard_normal(64)
        assert np.array_equal(a, b)

    def test_root_differs_from_first_child(self):
        a = RngStream(12345).generator().standard_normal(64)
        b = RngStream(12345).substream(0).generator().standard_normal(64)
        assert not np.array_equal(a, b)

    def test_substream_extends_path(self):
        s = RngStream(9).substream(2).substream(3).substream(4, 5)
        assert s == RngStream(9, (2, 3, 4, 5))

    def test_substream_independent_of_sibling(self):
        root = RngStream(11).substream(0)
        a = root.substream(0).generator().standard_normal(32)
        b = root.substream(1).generator().standard_normal(32)
        assert not np.array_equal(a, b)

    def test_order_independence(self):
        # Drawing from one substream does not perturb another.
        root = RngStream(21).substream(5)
        before = root.substream(2).generator().standard_normal(16)
        root.substream(1).generator().standard_normal(1000)
        after = root.substream(2).generator().standard_normal(16)
        assert np.array_equal(before, after)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            RngStream(-1)
        with pytest.raises(DomainError):
            RngStream(0).substream(-2)
        with pytest.raises(DomainError):
            RngStream(0).substream(0).substream(-3)

    def test_large_seed_accepted(self):
        RngStream(2**64 - 1).substream(2**63).generator().standard_normal(1)


def seed_sequence_key(seed, path):
    """The Philox key NumPy's own SeedSequence gives a stream name."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(0, *path))
    return seq.generate_state(2, np.uint64)


class TestBlockKeys:
    """``_philox_keys`` keys a run of substreams as SeedSequence does."""

    IDS = (0, 1, 63, 2**32 - 1)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 5])
    @pytest.mark.parametrize("path", [(), (0,), (3, 1)], ids=str)
    @pytest.mark.parametrize("suffix", [(0,), (1,), (), (5, 2**32 - 1)], ids=str)
    def test_equal_seed_sequence_keys(self, seed, path, suffix):
        got = distributions._philox_keys(RngStream(seed, path), self.IDS, *suffix)
        want = [seed_sequence_key(seed, (*path, i, *suffix)) for i in self.IDS]
        assert got.dtype == np.uint64 and got.shape == (len(self.IDS), 2)
        assert got.tobytes() == np.array(want).tobytes()

    def test_keys_of_a_range_draw_the_streams_bits(self):
        base = RngStream(12345, (4,))
        gen = np.random.Generator(np.random.Philox(0))
        gen.random(3)  # whatever the bit generator held before
        keys = distributions._philox_keys(base, range(60, 70), 0)
        for a, got in zip(range(60, 70), distributions._rekeyed(gen, keys), strict=True):
            assert got is gen
            want = base.substream(a, 0).generator()
            assert gen.standard_normal(7).tobytes() == want.standard_normal(7).tobytes()
            assert gen.random(5).tobytes() == want.random(5).tobytes()
            assert gen.integers(0, 2**40, 3).tobytes() == want.integers(0, 2**40, 3).tobytes()
            # an odd count of 32-bit draws leaves half a word for the next key to drop
            assert gen.random(3, np.float32).tobytes() == want.random(3, np.float32).tobytes()

    def test_empty_run(self):
        assert distributions._philox_keys(RngStream(1), range(0), 0).shape == (0, 2)

    def test_ids_end_below_two_words(self):
        # SeedSequence splits an id from 2**32 on into two words
        base = RngStream(9, (1,))
        last = distributions._philox_keys(base, [2**32 - 1], 0)
        assert last.tobytes() == seed_sequence_key(9, (1, 2**32 - 1, 0)).tobytes()
        for ids, suffix in (([2**32], (0,)), ([0, 2**32 + 3], (0,)), ([2**63], (0,)),
                            ([2**70], ()), ([0], (2**32,)), ([-1], (0,)), ([0], (-1,))):
            with pytest.raises(DomainError, match=r"\[0, 2\*\*32\)"):
                distributions._philox_keys(base, ids, *suffix)


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

    def test_memo_equals_direct_evaluation_bitwise(self):
        ln_gamma.cache_clear()
        grid = [*np.geomspace(1e-300, 1e300, 301).tolist(),
                *(k / 2 for k in range(1, 401)), 5e-324, 1e308]
        for _ in range(2):
            for x in grid:
                memo, direct = ln_gamma(x), ln_gamma.__wrapped__(x)
                assert math.copysign(1.0, memo) == math.copysign(1.0, direct)
                assert memo == direct

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -np.inf, np.inf, np.nan])
    def test_bad_argument_raises_on_every_call(self, bad):
        for _ in range(2):
            with pytest.raises(DomainError, match="ln_gamma requires x > 0"):
                ln_gamma(bad)

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


# The scalar chi-square kernel as it stood before chi2_cdf took arrays,
# frozen as the bitwise reference of the array kernel.
def frozen_gamma_p_series(a: float, t: float) -> float:
    term = 1.0 / a
    total = term
    for k in range(1, 600):
        term *= t / (a + k)
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total


def frozen_gamma_q_contfrac(a: float, t: float) -> float:
    tiny = 1e-300
    b = t + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 600):
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
        if abs(delta - 1.0) < 3.0 * 1e-16:
            break
    return h


def frozen_chi2_branch(x: float, df: float) -> str:
    """Which part of the frozen kernel decides ``chi2_cdf(x, df)``."""
    if x == 0.0 or math.isinf(x):
        return "edge"
    a, t = 0.5 * df, 0.5 * x
    side = "series" if t < a + 1.0 else "fraction"
    if a * math.log(t) - t - ln_gamma(a) < -745.0:
        return side + "-underflow"
    return side


def frozen_chi2_cdf(x: float, df: float) -> float:
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
        return 0.0 if t < a + 1.0 else 1.0
    prefactor = math.exp(log_prefactor)
    if t < a + 1.0:
        return min(frozen_gamma_p_series(a, t) * prefactor, 1.0)
    return max(1.0 - frozen_gamma_q_contfrac(a, t) * prefactor, 0.0)


def chi2_probe_grid() -> tuple[np.ndarray, np.ndarray]:
    """(x, df) probes over both kernel sides and their switch point
    ``t = a + 1`` (x = df + 2), both underflow branches, x = 0 and
    x = inf, integer and fitted degrees of freedom, and degrees of
    freedom so large that both iterations hit their cap."""
    rng = np.random.default_rng(2024)
    xs, dfs = [], []
    for df in (1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 20.0, 60.0,
               0.37, 2.618, 4.81, 7.6, 13.93, 41.2):
        switch = df + 2.0
        points = [0.0, math.inf, 1e-9, 0.05 * df, 0.5 * df, df,
                  np.nextafter(switch, 0.0), switch, np.nextafter(switch, math.inf),
                  1.5 * switch, 4.0 * switch + 10.0, 3000.0 + 40.0 * df]
        points += list(rng.uniform(0.0, 3.0 * switch, 10))
        xs += points
        dfs += [df] * len(points)
    # series-side underflow, and both sides at df = 1e6 past 599 steps
    xs += [100.0, 1e6 - 20.0, 1e6 + 2.0, 1e6 + 500.0]
    dfs += [2000.0, 1e6, 1e6, 1e6]
    return np.array(xs, dtype=np.float64), np.array(dfs, dtype=np.float64)


class TestChi2CdfMatchesFrozen:
    """The array kernel gives, bit for bit, the scalar kernel's floats."""

    def test_probe_grid_covers_every_branch(self):
        branches = {frozen_chi2_branch(x, df) for x, df in zip(*map(list, chi2_probe_grid()))}
        assert branches == {"edge", "series", "fraction",
                            "series-underflow", "fraction-underflow"}

    def test_block_equals_frozen_scalars(self):
        x, df = chi2_probe_grid()
        expected = np.array([frozen_chi2_cdf(a, b) for a, b in zip(x.tolist(), df.tolist())])
        got = chi2_cdf(x, df)
        assert got.shape == x.shape
        assert got.tobytes() == expected.tobytes()
        # the same block as a (k, m) array, and with a broadcast df row
        assert chi2_cdf(x.reshape(-1, 2), df.reshape(-1, 2)).tobytes() == expected.tobytes()
        fixed = chi2_cdf(x[:, None], np.array([2.0, 7.6]))
        for j, d in enumerate((2.0, 7.6)):
            assert fixed[:, j].tobytes() == np.array(
                [frozen_chi2_cdf(a, d) for a in x.tolist()]).tobytes()

    def test_scalars_are_blocks_of_one(self):
        x, df = chi2_probe_grid()
        for a, b in zip(x.tolist(), df.tolist()):
            got = chi2_cdf(a, b)
            assert type(got) is float
            assert got == frozen_chi2_cdf(a, b)
        assert type(chi2_cdf(np.float64(3.0), 2)) is float

    def test_kernels_equal_frozen_kernels(self):
        rng = np.random.default_rng(7)
        a = np.concatenate([rng.uniform(0.1, 40.0, 300), [5e5]])
        lower = np.concatenate([rng.uniform(0.0, 1.0, 300), [1.0 - 21e-6]]) * (a + 1.0)
        upper = (a + 1.0) * np.concatenate([rng.uniform(1.0, 30.0, 300), [1.0]])
        for kernel, frozen, t in (
            (distributions._gamma_p_series, frozen_gamma_p_series, lower),
            (distributions._gamma_q_contfrac, frozen_gamma_q_contfrac, upper),
        ):
            expected = np.array([frozen(u, v) for u, v in zip(a.tolist(), t.tolist())])
            assert kernel(a, t).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("x, df", [
        ([1.0, -0.5, 2.0], 3.0),
        ([1.0, 2.0, math.nan], 3.0),
        (2.0, [4.0, 0.0, -1.0]),
        ([1.0, -1.0], [math.inf, 2.0]),
    ])
    def test_block_raises_first_bad_elements_error(self, x, df):
        pairs = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(df, dtype=float))
        for a, b in zip(*(arr.ravel().tolist() for arr in pairs)):
            try:
                frozen_chi2_cdf(a, b)
            except DomainError as exc:
                message = str(exc)
                break
        with pytest.raises(DomainError) as info:
            chi2_cdf(x, df)
        assert str(info.value) == message


def frozen_chi2_quantile(prob: float, df: float) -> float:
    """The one-step-at-a-time bisection, on the frozen kernel."""
    lo = 0.0
    hi = df + 10.0 * math.sqrt(2.0 * df) + 10.0
    for _ in range(200):
        if frozen_chi2_cdf(hi, df) >= prob:
            break
        lo = hi
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if frozen_chi2_cdf(mid, df) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestChi2Quantile:
    @pytest.mark.parametrize("prob, df", [
        (0.975, 2.0), (0.975, 5.0), (0.999, 2.0), (0.999, 4.0), (0.5, 3.0),
        (0.3, 0.7), (1e-6, 4.0), (0.999999, 40.0), (0.75, 2.618), (0.5, 1e4),
        # the bracket doubles; the bisection runs into its 200-step cap
        (1.0 - 2.0**-53, 1.0), (5e-324, 3.0), (1e-300, 0.37),
    ])
    def test_equals_one_step_bisection(self, prob, df):
        got = distributions.chi2_quantile.__wrapped__(prob, df)
        assert type(got) is float
        assert got == frozen_chi2_quantile(prob, df)

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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_reconstruction_property(self, p, seed):
        mat = random_spd(np.random.default_rng(seed), p)
        fac = cholesky(mat)
        assert np.allclose(fac.lower @ fac.lower.T, mat, atol=1e-10)


def loop_cholesky(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Single-matrix column loop the stacked factorisation must reproduce
    bit for bit (checks left out): factor and log-determinant."""
    p = mat.shape[0]
    lower = np.zeros_like(mat)
    for j in range(p):
        d = mat[j, j] - float(lower[j, :j] @ lower[j, :j])
        lower[j, j] = math.sqrt(d)
        if j + 1 < p:
            lower[j + 1 :, j] = (
                mat[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]
            ) / lower[j, j]
    return lower, 2.0 * float(np.sum(np.log(np.diag(lower))))


class TestCholeskyStack:
    @pytest.mark.parametrize("p", range(1, 13))
    def test_matches_single_matrix_loop_bitwise(self, p):
        rng = np.random.default_rng(100 + p)
        for k in (1, 2, 4, 7):
            for _ in range(15):
                scales = rng.uniform(0.01, 100.0, size=(k, p, 1))
                a = rng.standard_normal((k, p, p + 1 + int(rng.integers(20)))) * scales
                stack = a @ a.transpose(0, 2, 1)
                fac = cholesky(stack)
                expected = [loop_cholesky(m) for m in stack]
                assert fac.lower.shape == stack.shape
                assert np.array_equal(fac.lower, np.stack([e[0] for e in expected]))
                assert fac.log_det.tolist() == [e[1] for e in expected]

    def test_single_matrix_equals_stack_of_one(self):
        rng = np.random.default_rng(7)
        for p in (1, 2, 3, 5, 9):
            mat = random_spd(rng, p)
            single, stacked = cholesky(mat), cholesky(mat[None])
            assert single.lower.shape == (p, p)
            assert np.array_equal(single.lower, stacked.lower[0])
            assert isinstance(single.log_det, float)
            assert stacked.log_det.shape == (1,)
            assert single.log_det == stacked.log_det[0]

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(8)
        mats = np.stack([random_spd(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
        fac = cholesky(mats)
        assert fac.lower.shape == (2, 3, 3, 3)
        assert fac.log_det.shape == (2, 3)
        assert np.array_equal(fac.lower[1, 2], cholesky(mats[1, 2]).lower)

    def test_single_matrix_message_unchanged(self):
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert str(info.value) == (
            "pivot -3.0 at index 1 is at or below threshold 2e-14"
        )

    @pytest.mark.parametrize("bad", [0, 2, 3])
    def test_indefinite_member_raises_for_that_matrix(self, bad):
        stack = np.stack([np.eye(3) * (i + 1) for i in range(4)])
        stack[bad, 1, 2] = stack[bad, 2, 1] = 10.0
        with pytest.raises(NotPositiveDefinite, match=f"^matrix {bad} of the stack: "):
            cholesky(stack)

    def test_first_failing_matrix_is_reported(self):
        # matrix 1 fails only at its second pivot, matrix 2 at its first
        stack = np.stack([np.eye(2), np.diag([1.0, 1e-20]), np.diag([-1.0, 1.0])])
        with pytest.raises(NotPositiveDefinite, match=r"^matrix 1 of the stack: .* index 1 "):
            cholesky(stack)

    def test_asymmetric_or_non_finite_member_raises_for_that_matrix(self):
        stack = np.stack([np.eye(2)] * 3)
        stack[1, 0, 1] = 0.5
        with pytest.raises(DomainError, match="^matrix 1 of the stack: .*not symmetric"):
            cholesky(stack)
        stack = np.stack([np.eye(2)] * 3)
        stack[2, 1, 1] = np.inf
        with pytest.raises(DomainError, match="^matrix 2 of the stack: .*finite"):
            cholesky(stack)
        # every matrix's entries are checked before any matrix's symmetry,
        # and the first of several failing matrices is reported
        stack = np.stack([np.eye(2)] * 4)
        stack[0, 0, 1] = stack[2, 0, 1] = 0.5
        stack[3, 0, 0] = stack[1, 1, 0] = np.nan
        with pytest.raises(DomainError, match="^matrix 1 of the stack: .*finite"):
            cholesky(stack)
        stack[[1, 3]] = np.eye(2)
        with pytest.raises(DomainError, match="^matrix 0 of the stack: .*not symmetric"):
            cholesky(stack)

    def test_symmetry_tolerance_is_per_matrix(self):
        # 1e-10 asymmetry is far beyond 1e-12 of a unit-scale matrix but
        # within 1e-12 of the 1e6-scale matrix stacked before it.
        small = np.array([[1.0, 0.0], [1e-10, 1.0]])
        with pytest.raises(DomainError):
            cholesky(small)
        with pytest.raises(DomainError, match="^matrix 1 of the stack: "):
            cholesky(np.stack([1e6 * np.eye(2), small]))

    def test_stack_shape_checked(self):
        with pytest.raises(DimensionError):
            cholesky(np.ones((3, 2, 3)))
        with pytest.raises(DimensionError):
            cholesky(np.ones(3))


def gate_test_stack(p: int) -> tuple[np.ndarray, int]:
    """Eleven p x p symmetric matrices, passing and failing the gate, and
    the pivot index where the middle-pivot failures first fail."""
    rng = np.random.default_rng(300 + p)
    mid = p // 2
    a = rng.standard_normal((11, p, p + 2))
    a[3, mid] = a[3, 0]  # duplicated row: rank deficient from pivot mid
    a[4, :, 1:] = 0.0  # rank one
    stack = a @ a.transpose(0, 2, 1)
    stack[5] = 0.0
    stack[6] = -np.eye(p)
    stack[7] = np.eye(p)
    stack[7, mid, mid] = -2.0  # indefinite at pivot mid
    stack[8] = np.eye(p)
    stack[8, mid, mid] = 1e-20  # below the threshold at pivot mid
    stack[9] = 1e-12 * np.eye(p)  # tiny but well conditioned
    return stack, mid


class TestCholeskyMask:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_mask_is_where_cholesky_raises(self, p):
        stack, mid = gate_test_stack(p)
        factor, ok = cholesky_mask(stack)
        assert ok.shape == (len(stack),) and ok.dtype == bool
        for mat, passed, lower in zip(stack, ok, factor.lower):
            try:
                expected = cholesky(mat).lower
            except NotPositiveDefinite:
                assert not passed
            else:
                assert passed
                assert np.array_equal(lower, expected)
        assert ok[[0, 1, 2, 9, 10]].all()
        assert not ok[[5, 6, 7]].any()
        if p >= 2:
            assert not ok[[3, 4, 8]].any()
            for k in (3, 7, 8):
                with pytest.raises(NotPositiveDefinite, match=f" at index {mid} "):
                    cholesky(stack[k])

    def test_leading_axes_are_kept(self):
        stack, _ = gate_test_stack(3)
        factor, ok = cholesky_mask(stack[:10].reshape(2, 5, 3, 3))
        assert factor.lower.shape == (2, 5, 3, 3)
        assert np.array_equal(ok.reshape(-1), cholesky_mask(stack[:10])[1])
        single_factor, single_ok = cholesky_mask(stack[0])
        assert single_ok.shape == () and bool(single_ok)
        assert np.array_equal(single_factor.lower, cholesky(stack[0]).lower)


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
        rng = RngStream(5).substream(1)
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
