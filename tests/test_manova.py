"""Tests for balanced two-way layouts and Wilks' Lambda tests."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2, rankdata

from mcdmanova import manova, simulation
from mcdmanova.cli import _ilr_layout
from mcdmanova.compositions import ilr
from mcdmanova.distributions import RngStream, chi2_quantile, cholesky
from mcdmanova.errors import (
    CellWiped,
    DegenerateWeights,
    DimensionError,
    DomainError,
    EmptyTable,
    MissingCalibration,
    NonNumeric,
    NotPositiveDefinite,
    SingularSubset,
    TooFewLevels,
    Unbalanced,
)
from mcdmanova.manova import (
    BartlettApprox,
    Hypothesis,
    Model,
    SspDecomposition,
    TwoWayLayout,
    WeightSet,
    bartlett_dfs,
    bartlett_pvalue,
    calibrated_pvalue,
    classical_ssp,
    hypotheses_for,
    layout_from_cells,
    rank_transform,
    robust_weights,
    run_manova,
    unit_weights,
    validate_layout,
    weighted_ssp,
    wilks_lambda,
)
from mcdmanova.mcd import McdConfig


def random_layout(rng, r=3, c=2, n=5, p=2, scale=1.0):
    return layout_from_cells(rng.normal(size=(r, c, n, p)) * scale)


def cell_levels(layout):
    """Row and column level of each observation, read off the cell order."""
    r, c, n = layout.r, layout.c, layout.n
    return np.repeat(np.arange(r), c * n), np.tile(np.repeat(np.arange(c), n), r)


def reference_ssp(layout, w):
    """Loop transliteration of the weighted mean and SSP definitions:
    (W, E, R_row, R_col)."""
    r, c, p = layout.r, layout.c, layout.p
    Y = layout.observations
    R, C = cell_levels(layout)
    kept = w == 1
    cell_mean = np.zeros((r, c, p))
    for i in range(r):
        for j in range(c):
            sel = (R == i) & (C == j) & kept
            cell_mean[i, j] = Y[sel].mean(axis=0)
    row_mean = np.stack([Y[(R == i) & kept].mean(axis=0) for i in range(r)])
    col_mean = np.stack([Y[(C == j) & kept].mean(axis=0) for j in range(c)])
    grand = Y[kept].mean(axis=0)
    W = np.zeros((p, p))
    E = np.zeros((p, p))
    for k in range(layout.size):
        if not kept[k]:
            continue
        dw = Y[k] - cell_mean[R[k], C[k]]
        W += np.outer(dw, dw)
        de = Y[k] - row_mean[R[k]] - col_mean[C[k]] + grand
        E += np.outer(de, de)
    R_row = np.zeros((p, p))
    for i in range(r):
        cnt = np.count_nonzero((R == i) & kept)
        d = row_mean[i] - grand
        R_row += cnt * np.outer(d, d)
    R_col = np.zeros((p, p))
    for j in range(c):
        cnt = np.count_nonzero((C == j) & kept)
        d = col_mean[j] - grand
        R_col += cnt * np.outer(d, d)
    return W, E, R_row, R_col


class TestValidateLayout:
    def make_rows(self, r=2, c=2, n=2, p=2, rng=None):
        rng = rng or np.random.default_rng(0)
        rows = []
        for i in range(r):
            for j in range(c):
                for _ in range(n):
                    rows.append((f"r{i}", f"c{j}", *rng.normal(size=p)))
        return rows

    def test_accepts_balanced_table(self):
        lay = validate_layout(self.make_rows(3, 2, 4, 2))
        assert (lay.r, lay.c, lay.n, lay.p) == (3, 2, 4, 2)

    def test_levels_in_first_appearance_order(self):
        rows = [
            ("B", "y", 1.0), ("B", "x", 2.0), ("A", "y", 3.0), ("A", "x", 4.0),
            ("B", "y", 5.0), ("B", "x", 6.0), ("A", "y", 7.0), ("A", "x", 8.0),
        ]
        lay = validate_layout(rows)
        # "B" appeared first so it gets index 0, same for column "y"
        assert lay.cell_array()[..., 0].tolist() == [[[1.0, 5.0], [2.0, 6.0]],
                                                     [[3.0, 7.0], [4.0, 8.0]]]

    def test_unbalanced_rejected(self):
        rows = self.make_rows()
        with pytest.raises(Unbalanced, match=r"^7 rows cannot split evenly over 2x2 cells$"):
            validate_layout(rows[:-1])
        # balanced count but misassigned cells; ("r1", "c1") appears first
        rows[0] = ("r1", "c1", *rows[0][2:])
        with pytest.raises(Unbalanced, match=r"^cell \(0, 0\) holds 3 observations, expected 2$"):
            validate_layout(rows)
        # one row per cell on average: the cell size is checked first
        with pytest.raises(DomainError, match="^need at least 2 observations per cell, got n=1$"):
            validate_layout([rows[0], *rows[3:6]])

    def test_single_level_rejected(self):
        rows = [("a", "x", 1.0), ("a", "y", 2.0), ("a", "x", 3.0), ("a", "y", 4.0)]
        with pytest.raises(TooFewLevels):
            validate_layout(rows)

    def test_non_numeric_rejected(self):
        rows = self.make_rows()
        rows[2] = ("r0", "c1", "oops", 1.0)
        with pytest.raises(NonNumeric, match="row 3"):
            validate_layout(rows)
        rows[2] = ("r0", "c1", float("nan"), 1.0)
        with pytest.raises(NonNumeric):
            validate_layout(rows)

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyTable):
            validate_layout([])

    def test_ragged_rows_rejected(self):
        rows = self.make_rows()
        rows[1] = rows[1] + (9.9,)
        with pytest.raises(DimensionError):
            validate_layout(rows)

    def test_single_observation_cells_rejected(self):
        with pytest.raises(DomainError):
            validate_layout(self.make_rows(n=1))


class TestLayoutStructure:
    def test_cell_array_round_trip(self):
        rng = np.random.default_rng(1)
        cells = rng.normal(size=(3, 2, 4, 2))
        lay = layout_from_cells(cells)
        assert np.array_equal(lay.cell_array(), cells)

    def test_cell_array_preserves_within_cell_order(self):
        rows = [
            ("a", "x", 1.0), ("b", "x", 2.0), ("a", "x", 3.0), ("b", "x", 4.0),
            ("a", "y", 5.0), ("b", "y", 6.0), ("a", "y", 7.0), ("b", "y", 8.0),
        ]
        lay = validate_layout(rows)
        cells = lay.cell_array()
        assert cells[0, 0, :, 0].tolist() == [1.0, 3.0]
        assert cells[1, 0, :, 0].tolist() == [2.0, 4.0]
        assert cells[1, 1, :, 0].tolist() == [6.0, 8.0]

    def test_observations_read_only(self):
        lay = random_layout(np.random.default_rng(2))
        with pytest.raises(ValueError):
            lay.observations[0, 0] = 99.0

    def test_size(self):
        lay = random_layout(np.random.default_rng(3), r=3, c=2, n=5)
        assert lay.size == 30


def assert_same_layout(derived, built):
    """Field-by-field equality with a full construction, arrays read-only."""
    assert (derived.r, derived.c, derived.n, derived.p) == (
        built.r, built.c, built.n, built.p
    )
    assert derived.observations.dtype == built.observations.dtype
    assert derived.observations.shape == built.observations.shape
    assert derived.observations.tobytes() == built.observations.tobytes()
    assert not derived.observations.flags.writeable


def shuffled_table_layout(seed, r=3, c=2, n=4, p=2):
    """validate_layout of a table whose rows are in random order."""
    rng = np.random.default_rng(seed)
    rows = [
        (f"r{i}", f"c{j}", *rng.normal(size=p))
        for i in range(r) for j in range(c) for _ in range(n)
    ]
    return validate_layout([rows[k] for k in rng.permutation(len(rows))])


def table_rows(cells, sequence):
    """Table rows (row level, column level, values...) of ``cells``: for
    each cell index k of ``sequence`` the next row of cell k, so each
    cell's rows stay in order."""
    r, c = cells.shape[:2]
    queues = [iter(cells[i, j]) for i, j in np.ndindex(r, c)]
    return [(f"r{k // c}", f"c{k % c}", *next(queues[k])) for k in sequence]


def report_bits(reports):
    return [(rep.method, rep.hypothesis, rep.model, rep.lambda_.hex(), rep.p_value.hex(),
             rep.approx) for rep in reports]


class TestCellOrder:
    """A layout holds its observations grouped by cell, so where a table
    puts each cell's rows reaches no number."""

    @pytest.mark.parametrize("how", ["whole-cells", "interleaved"])
    def test_table_order_of_cells_reaches_no_report(self, how):
        r, c, n = 3, 2, 8
        rng = np.random.default_rng(90)
        cells = rng.normal(size=(r, c, n, 2))
        base = validate_layout(table_rows(cells, np.repeat(np.arange(r * c), n)))
        assert_same_layout(base, layout_from_cells(cells))
        entry, config = _Entry(0.02, 4.0), McdConfig(n_starts=40, n_keep=4)
        source = SimpleNamespace(entry_for=lambda *key: entry)
        want = {method: report_bits(run_manova(base, Model.WITH_INTERACTIONS, method, config,
                                               source, RngStream(91)))
                for method in ("cla", "rnk", "mcd")}
        moved = 0
        while moved < 3:
            if how == "whole-cells":
                sequence = np.repeat(rng.permutation(r * c), n)
            else:
                sequence = rng.permutation(np.repeat(np.arange(r * c), n))
            # keep each factor's levels in first-appearance order 0, 1, ...
            row_first = list(dict.fromkeys(sequence // c))
            col_first = list(dict.fromkeys(sequence % c))
            if row_first != sorted(row_first) or col_first != sorted(col_first):
                continue
            assert np.any(np.diff(sequence) < 0)
            lay = validate_layout(table_rows(cells, sequence))
            assert_same_layout(lay, base)
            for method, bits in want.items():
                got = run_manova(lay, Model.WITH_INTERACTIONS, method, config, source,
                                 RngStream(91))
                assert report_bits(got) == bits
            moved += 1


class TestValidatedOnce:
    """Layouts derived inside the package equal constructed ones; the
    generated and ranked ones reuse their design's validation."""

    @pytest.mark.parametrize("cells, error, message", [
        (np.full((2, 2, 3, 2), np.nan), NonNumeric,
         "observations contain non-finite values"),
        (np.pad(np.zeros((2, 2, 3, 1)), ((0, 0),) * 3 + ((0, 1),),
                constant_values=np.inf), NonNumeric,
         "observations contain non-finite values"),
        (np.zeros((2, 2, 3)), DimensionError,
         "cells must be four-dimensional, got shape (2, 2, 3)"),
        (np.zeros((1, 2, 3, 2)), TooFewLevels,
         "need at least 2 levels per factor, got r=1, c=2"),
        (np.zeros((2, 1, 3, 2)), TooFewLevels,
         "need at least 2 levels per factor, got r=2, c=1"),
        (np.zeros((2, 2, 1, 2)), DomainError,
         "need at least 2 observations per cell, got n=1"),
        (np.zeros((2, 2, 3, 0)), DimensionError,
         "response dimension must be positive, got p=0"),
    ], ids=["nan", "inf", "3d", "r1", "c1", "n1", "p0"])
    def test_bad_cells_raise_on_every_call(self, cells, error, message):
        for _ in range(2):
            with pytest.raises(error) as info:
                layout_from_cells(cells)
            assert type(info.value) is error
            assert str(info.value) == message

    def test_layout_from_cells_equals_construction(self):
        for r, c, n, p in ((2, 2, 2, 1), (3, 2, 5, 3), (2, 4, 3, 2)):
            cells = np.random.default_rng(r * 100 + p).normal(size=(r, c, n, p))
            built = TwoWayLayout(r, c, n, p, cells.reshape(-1, p))
            assert_same_layout(layout_from_cells(cells), built)

    def test_rank_transform_equals_construction(self):
        lay = shuffled_table_layout(61)
        built = TwoWayLayout(
            lay.r, lay.c, lay.n, lay.p, rankdata(lay.observations, axis=0),
        )
        assert_same_layout(rank_transform(lay), built)

    def test_ilr_layout_equals_construction(self):
        lay = shuffled_table_layout(62, p=3)
        parts = np.exp(lay.observations)
        lay = TwoWayLayout(lay.r, lay.c, lay.n, lay.p, parts)
        built = TwoWayLayout(lay.r, lay.c, lay.n, 2, ilr(parts))
        assert_same_layout(_ilr_layout(lay), built)

    def test_design_rebuilt_with_another_p(self):
        lay = shuffled_table_layout(63)
        twin = TwoWayLayout(lay.r, lay.c, lay.n, 5, np.ones((lay.size, 5)))
        assert twin.p == 5 and lay.p == 2
        assert (twin.r, twin.c, twin.n) == (lay.r, lay.c, lay.n)

    def test_constructor_rejects_row_count_mismatch(self):
        lay = random_layout(np.random.default_rng(64))
        with pytest.raises(DimensionError, match=r"\(29, 2\) does not match"):
            TwoWayLayout(lay.r, lay.c, lay.n, 2, np.zeros((lay.size - 1, 2)))
        with pytest.raises(DimensionError, match="must be positive, got p=0"):
            TwoWayLayout(lay.r, lay.c, lay.n, 0, np.zeros((lay.size, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_non_finite(self, bad):
        lay = random_layout(np.random.default_rng(65))
        obs = np.zeros((lay.size, 2))
        obs[7, 1] = bad
        with pytest.raises(NonNumeric, match="non-finite"):
            TwoWayLayout(lay.r, lay.c, lay.n, 2, obs)

    def test_power_experiment_validates_each_design_once(self, monkeypatch):
        manova._design_template.cache_clear()
        manova._unit_weights.cache_clear()
        calls = {"layout": 0, "weights": 0}

        def counted(kind, post_init):
            def wrapper(self, *layout):  # WeightSet.__post_init__(self, layout)
                calls[kind] += 1
                post_init(self, *layout)
            return wrapper

        monkeypatch.setattr(TwoWayLayout, "__post_init__",
                            counted("layout", TwoWayLayout.__post_init__))
        monkeypatch.setattr(WeightSet, "__post_init__",
                            counted("weights", WeightSet.__post_init__))
        reports = simulation.run_experiment(
            "power_inter", simulation.Design(2, 2, 20, 2), (0.5, 1.0),
            ("cla", "rnk"), 20, master_seed=5,
        )
        assert {rep.setting for rep in reports} == {0.5, 1.0}
        assert {rep.method for rep in reports} == {"cla", "rnk"}
        assert {rep.m for rep in reports} == {20}
        # 40 replications, each a generated and a ranked layout with one
        # unit weight set per method: 80 of each without the design memos
        assert calls["layout"] <= 1
        assert calls["weights"] <= 1


class TestRankTransform:
    def test_simple_column(self):
        rows = [
            ("a", "x", 3.1), ("a", "y", -2.0), ("b", "x", 7.0), ("b", "y", 0.0),
            ("a", "x", 10.0), ("a", "y", 11.0), ("b", "x", 12.0), ("b", "y", 13.0),
        ]
        ranked = rank_transform(validate_layout(rows))
        # sorted pool: -2, 0, 3.1, 7, 10, 11, 12, 13; cells (a, x), (a, y),
        # (b, x), (b, y) in turn, each in table order
        assert ranked.observations[:, 0].tolist() == [3.0, 5.0, 1.0, 6.0, 4.0, 7.0, 2.0, 8.0]

    def test_ties_get_midranks(self):
        rows = [
            ("a", "x", 5.0), ("a", "y", 5.0), ("b", "x", 1.0), ("b", "y", 2.0),
            ("a", "x", 3.0), ("a", "y", 4.0), ("b", "x", 6.0), ("b", "y", 7.0),
        ]
        ranked = rank_transform(validate_layout(rows))
        # the tied 5.0s, first in cells (a, x) and (a, y), occupy sorted
        # positions 5 and 6
        assert ranked.observations[0, 0] == 5.5
        assert ranked.observations[2, 0] == 5.5

    def test_invariant_to_increasing_transform(self):
        rng = np.random.default_rng(4)
        lay = random_layout(rng)
        warped = TwoWayLayout(lay.r, lay.c, lay.n, lay.p, np.exp(lay.observations))
        assert np.array_equal(
            rank_transform(lay).observations, rank_transform(warped).observations
        )

    def test_each_coordinate_ranked_separately(self):
        rng = np.random.default_rng(5)
        lay = random_layout(rng, p=3)
        ranked = rank_transform(lay)
        for j in range(3):
            assert sorted(ranked.observations[:, j]) == list(
                range(1, lay.size + 1)
            )


def assert_ranks_match_scipy(x):
    """The private kernel equals ``scipy.stats.rankdata`` byte for byte."""
    got = manova._mid_ranks(x)
    want = rankdata(x, axis=0)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape == x.shape
    assert got.tobytes() == want.tobytes()


class TestMidRanksMatchScipy:
    """SciPy is the oracle here only; the package ranks with NumPy."""

    KINDS = {
        "continuous": lambda rng, shape: rng.normal(size=shape),
        "integer": lambda rng, shape: rng.integers(-3, 4, size=shape).astype(float),
        "rounded": lambda rng, shape: np.round(rng.normal(size=shape) * 0.3, 1),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("p", range(1, 7))
    def test_every_size(self, kind, p):
        for N in range(1, 201):
            rng = np.random.default_rng([p, N])
            assert_ranks_match_scipy(self.KINDS[kind](rng, (N, p)))

    @pytest.mark.parametrize("p", range(1, 7))
    def test_all_equal_columns(self, p):
        for N in range(1, 201):
            x = np.random.default_rng([p, N]).normal(size=(N, p))
            x[:, ::2] = x[0, ::2]
            assert_ranks_match_scipy(x)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_signed_zeros_and_extreme_magnitudes(self, p):
        pool = np.array([
            -0.0, 0.0, -0.0, 0.0, -5e-324, 5e-324,
            -1e300, np.nextafter(-1e300, 0.0), -1.7976931348623157e308,
            1e300, np.nextafter(1e300, np.inf), 1.7976931348623157e308,
        ])
        for N in range(1, 201):
            rng = np.random.default_rng([p, N, 99])
            assert_ranks_match_scipy(rng.choice(pool, size=(N, p)))

    def test_negative_zero_ties_positive_zero(self):
        x = np.array([[0.0], [-0.0], [1.0], [-1.0]])
        assert manova._mid_ranks(x)[:, 0].tolist() == [2.5, 2.5, 4.0, 1.0]


def stable_mid_ranks(x):
    """Mid-ranks down axis -2 from a stable argsort, one run of ties at
    a time: the reference for the kernel's unstable sort."""
    columns = np.swapaxes(x, -1, -2)
    lines = columns.reshape(-1, columns.shape[-1])
    ranks = np.empty(lines.shape)
    for line, out in zip(lines, ranks):
        order = np.argsort(line, kind="stable")
        ordered = line[order].tolist()
        first = 0
        while first < len(ordered):
            end = first + 1
            while end < len(ordered) and ordered[end] == ordered[first]:
                end += 1
            out[order[first:end]] = (first + end + 1) / 2
            first = end
    return np.swapaxes(ranks.reshape(columns.shape), -1, -2)


class TestMidRanksMatchStableSort:
    """Stacks heavy with ties, where an unstable sort permutes each run."""

    KINDS = {
        "integer": lambda rng, shape: rng.integers(-2, 3, size=shape).astype(float),
        "signed_zeros": lambda rng, shape: rng.choice([-0.0, 0.0, 1.0, -1.0], size=shape),
        "zeros_and_normals": lambda rng, shape: np.where(
            rng.random(shape) < 0.7, rng.choice([-0.0, 0.0], size=shape),
            rng.normal(size=shape)),
        "constant_lines": lambda rng, shape: np.broadcast_to(
            rng.choice([-0.0, 0.0, 2.5], size=shape[:-2] + (1, shape[-1])), shape).copy(),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_stacks(self, kind):
        for seed, shape in enumerate([(40, 80, 2), (20, 80, 1), (7, 33, 3), (1, 200, 2), (5, 2, 4)]):
            x = self.KINDS[kind](np.random.default_rng([seed, 17]), shape)
            got = manova._mid_ranks(x)
            assert got.tobytes() == stable_mid_ranks(x).tobytes()
            assert got[0].tobytes() == manova._mid_ranks(x[0]).tobytes()


class TestWeightSet:
    def test_totals(self):
        lay = random_layout(np.random.default_rng(6), r=2, c=3, n=4)
        w = np.ones(lay.size, dtype=np.int64)
        w[:3] = 0
        ws = WeightSet(lay, w)
        assert ws.grand_total == lay.size - 3
        assert ws.cell_totals.sum() == ws.grand_total
        assert np.array_equal(ws.cell_totals.sum(axis=1), ws.row_totals)
        assert np.array_equal(ws.cell_totals.sum(axis=0), ws.col_totals)

    def test_totals_are_per_cell_sums_on_shuffled_table(self):
        lay = shuffled_table_layout(10, r=3, c=2, n=5)
        w = np.random.default_rng(11).integers(0, 2, size=lay.size)
        ws = WeightSet(lay, w)
        R, C = cell_levels(lay)
        cell = np.array([[w[(R == i) & (C == j)].sum() for j in range(2)] for i in range(3)])
        assert ws.cell_totals.dtype == np.int64
        assert ws.cell_totals.tolist() == cell.tolist()
        assert ws.row_totals.tolist() == cell.sum(axis=1).tolist()
        assert ws.col_totals.tolist() == cell.sum(axis=0).tolist()
        assert ws.grand_total == int(w.sum())
        assert ws.w.tolist() == w.tolist()
        for arr in (ws.w, ws.cell_totals, ws.row_totals, ws.col_totals):
            assert not arr.flags.writeable

    def test_non_binary_rejected(self):
        lay = random_layout(np.random.default_rng(7))
        w = np.ones(lay.size, dtype=np.int64)
        w[0] = 2
        with pytest.raises(DomainError, match="weights must be 0 or 1"):
            WeightSet(lay, w)

    def test_wrong_length_rejected(self):
        lay = random_layout(np.random.default_rng(9))
        for value in (1, 2):  # the shape is checked before the values
            with pytest.raises(DimensionError, match="does not match N"):
                WeightSet(lay, np.full(lay.size + 1, value, dtype=np.int64))


class TestCallerArraysUntouched:
    """Layouts and weight sets freeze their own copies, not the caller's."""

    def test_layout_construction(self):
        obs = np.arange(8.0).reshape(8, 1)
        lay = TwoWayLayout(2, 2, 2, 1, obs)
        assert obs.flags.writeable
        obs[0, 0] = 99.0
        assert lay.observations[0, 0] == 0.0

    def test_design_rebuilt(self):
        lay = random_layout(np.random.default_rng(80))
        obs = np.ones((lay.size, 2))
        twin = TwoWayLayout(lay.r, lay.c, lay.n, 2, obs)
        assert obs.flags.writeable
        obs[0, 0] = 99.0
        assert twin.observations[0, 0] == 1.0

    def test_layout_from_cells(self):
        cells = np.zeros((2, 2, 3, 2))
        lay = layout_from_cells(cells)
        cells[0, 0, 0, 0] = 99.0
        assert lay.observations[0, 0] == 0.0

    def test_weight_set(self):
        lay = random_layout(np.random.default_rng(81))
        w = np.ones(lay.size, dtype=np.int64)
        ws = WeightSet(lay, w)
        assert w.flags.writeable
        w[0] = 0
        assert ws.w[0] == 1 and ws.grand_total == lay.size

    def test_ssp_decomposition(self):
        mats = [np.eye(2), 2.0 * np.eye(2), np.eye(2), np.eye(2)]
        d = SspDecomposition(*mats)
        for mat in mats:
            assert mat.flags.writeable
        mats[0][0, 0] = 5.0
        assert d.W[0, 0] == 1.0
        for mat in (d.W, d.E, d.R_row, d.R_col):
            assert not mat.flags.writeable


class TestUnitWeightsMemo:
    def test_equals_weights_built_from_shuffled_labels(self):
        lay = shuffled_table_layout(71)
        memo = unit_weights(lay)
        built = WeightSet(lay, np.ones(lay.size, dtype=np.int64))
        for name in ("w", "cell_totals", "row_totals", "col_totals"):
            a, b = getattr(memo, name), getattr(built, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable
        assert memo.grand_total == built.grand_total

    def test_classical_ssp_bitwise_on_shuffled_labels(self):
        lay = shuffled_table_layout(72, p=3)
        memo = classical_ssp(lay)
        built = weighted_ssp(
            lay, WeightSet(lay, np.ones(lay.size, dtype=np.int64))
        )
        for name in ("W", "E", "R_row", "R_col"):
            assert getattr(memo, name).tobytes() == getattr(built, name).tobytes()

    def test_one_weight_set_per_design(self):
        a = unit_weights(shuffled_table_layout(73))
        assert unit_weights(random_layout(np.random.default_rng(74), n=4)) is a
        assert unit_weights(random_layout(np.random.default_rng(75), n=5)) is not a


def frozen_weighted_ssp(layout, weights):
    """The np.bincount body ``weighted_ssp`` had before it was stacked, kept
    as a bitwise oracle: (W, E, R_row, R_col)."""
    r, c, p = layout.r, layout.c, layout.p
    Y = layout.observations
    w = weights.w.astype(np.float64)
    R, C = cell_levels(layout)
    idx = R * c + C
    wY = Y * w[:, None]
    cell_sums = np.column_stack(
        [np.bincount(idx, weights=wY[:, j], minlength=r * c) for j in range(p)]
    ).reshape(r, c, p)
    cell_n = weights.cell_totals.astype(np.float64)
    row_n = weights.row_totals.astype(np.float64)
    col_n = weights.col_totals.astype(np.float64)
    cell_means = cell_sums / cell_n[:, :, None]
    row_means = cell_sums.sum(axis=1) / row_n[:, None]
    col_means = cell_sums.sum(axis=0) / col_n[:, None]
    grand_mean = cell_sums.sum(axis=(0, 1)) / float(weights.grand_total)

    resid_w = Y - cell_means[R, C]
    W = (resid_w * w[:, None]).T @ resid_w
    resid_e = Y - row_means[R] - col_means[C] + grand_mean
    E = (resid_e * w[:, None]).T @ resid_e
    dev_row = row_means - grand_mean
    R_row = (dev_row * row_n[:, None]).T @ dev_row
    dev_col = col_means - grand_mean
    R_col = (dev_col * col_n[:, None]).T @ dev_col
    return W, E, R_row, R_col


def frozen_mid_ranks(x):
    """The np.searchsorted body ``_mid_ranks`` had before it was stacked,
    kept as a bitwise oracle; ``x`` is one (N, p) sample."""
    pool = np.sort(x, axis=0)
    ranks = np.empty(x.shape)
    for j in range(x.shape[1]):
        ranks[:, j] = (np.searchsorted(pool[:, j], x[:, j], "left")
                       + np.searchsorted(pool[:, j], x[:, j], "right"))
    return (ranks + 1) / 2


def block_of(layouts):
    """One layout holding ``layouts``, all of one design, as a (b, N, p)
    block, as ``simulation.replicate`` builds it."""
    obs = np.stack([lay.observations for lay in layouts])
    obs.setflags(write=False)
    return layouts[0]._holding(obs)


def oracle_case(case, p, design, seed, b=4):
    """``b`` layouts of one (r, c, n) design with one WeightSet each."""
    r, c, n = design
    rng = np.random.default_rng([seed, p, r, c, n])
    layouts, weights = [], []
    for _ in range(b):
        cells = rng.normal(size=(r, c, n, p))
        if case == "ties":
            cells = np.where(
                rng.random(cells.shape) < 0.5,
                rng.choice([-0.0, 0.0, -1.0, 1.0, 0.5], size=cells.shape),
                np.round(cells, 1),
            )
        elif case.startswith("scaled"):
            cells = cells * float(case.removeprefix("scaled"))
        if case == "shuffled":
            # a table in random row order, grouped into cells by validate_layout
            table = [(i, j, *y) for (i, j, _), y in zip(np.ndindex(r, c, n), cells.reshape(-1, p))]
            lay = validate_layout([table[k] for k in rng.permutation(len(table))])
        else:
            lay = layout_from_cells(cells)
        w = np.ones(lay.size, dtype=np.int64)
        if case == "zero_weights":
            # each cell keeps its first two rows, so nothing degenerates
            w = (rng.random(lay.size) < 0.6).astype(np.int64)
            w.reshape(r * c, n)[:, :2] = 1
        layouts.append(lay)
        weights.append(WeightSet(lay, w))
    return layouts, weights


class TestStackedKernelsMatchFrozen:
    """The stacked SSP and rank kernels, on a block layout and on one
    layout, equal the bodies they replaced bit for bit."""

    CASES = ("shuffled", "ties", "zero_weights", "scaled1e-3", "scaled1e3")
    # the (r, c, n) designs: c = 9 and r = 9 sum more than 8 cells into a
    # row or column total, and n = 20 more than 8 rows into a cell
    DESIGNS = ((2, 2, 5), (3, 4, 3), (2, 9, 3), (9, 2, 2), (3, 2, 20))

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("p", range(1, 6))
    def test_weighted_ssp(self, case, p):
        for seed, design in enumerate(self.DESIGNS):
            layouts, weights = oracle_case(case, p, design, seed)
            # each layout alone with its own weights, and the block of all
            # layouts under one weight set
            pairs = [(lay, ws, weighted_ssp(lay, ws)) for lay, ws in zip(layouts, weights)]
            stacked = weighted_ssp(block_of(layouts), weights[0])
            pairs += [(lay, weights[0], got) for lay, got in zip(layouts, stacked)]
            for lay, ws, got in pairs:
                want = frozen_weighted_ssp(lay, ws)
                for a, b in zip(ssp_fields(got), want, strict=True):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("p", range(1, 6))
    def test_rank_transform(self, case, p):
        for seed, design in enumerate(self.DESIGNS):
            layouts, _ = oracle_case(case, p, design, seed)
            ranked = rank_transform(block_of(layouts))
            assert (ranked.r, ranked.c, ranked.n, ranked.p) == design + (p,)
            assert ranked.observations.shape == (len(layouts), layouts[0].size, p)
            assert not ranked.observations.flags.writeable
            for lay, got in zip(layouts, ranked.observations):
                want = frozen_mid_ranks(lay.observations).tobytes()
                assert got.tobytes() == want
                assert rank_transform(lay).observations.tobytes() == want

    def test_all_negative_zero_cells_match_frozen(self):
        # bincount adds from +0.0; a running sum of -0.0 values stays -0.0
        cells = np.full((2, 2, 3, 1), -0.0)
        cells[1, 1] = [[1.0], [2.0], [4.0]]
        lay = layout_from_cells(cells)
        got = classical_ssp(block_of([lay, lay]))[1]
        want = frozen_weighted_ssp(lay, unit_weights(lay))
        for a, b in zip(ssp_fields(got), want, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedCalls:
    def test_stack_weight_checks_raise_as_for_one_layout(self):
        # shape first, then too few weights, then a wiped cell, each with
        # the message a single layout gets
        rng = np.random.default_rng(18)
        lay = random_layout(rng, r=2, c=2, n=4)
        other = TwoWayLayout(lay.r, lay.c, lay.n, 2, rng.normal(size=(lay.size, 2)))
        stack = block_of([lay, other])
        wiped = np.ones(lay.size, dtype=np.int64)
        wiped.reshape(2, 2, 4)[1, 0] = 0
        few = np.zeros(lay.size, dtype=np.int64)
        few[:3] = 1  # three kept rows, all in cell (0, 0)
        short = random_layout(rng, r=2, c=2, n=3)
        cases = [
            (WeightSet(short, few[:12]), DimensionError, r"shape \(12,\) does not match N = 16"),
            (WeightSet(lay, wiped), CellWiped, r"^cell \(1, 0\) has zero weight total$"),
            (WeightSet(lay, few), DegenerateWeights, r"only 3 .* p \+ 2 = 4$"),
        ]
        for weights, error, message in cases:
            for layout in (lay, stack):
                with pytest.raises(error, match=message):
                    weighted_ssp(layout, weights)

    def test_one_weight_set_per_call(self):
        # a sequence of weight sets is refused with the package's error
        lay = random_layout(np.random.default_rng(24), r=2, c=2, n=4)
        weights = unit_weights(lay)
        block = block_of([lay, lay])
        for layout, given in ((lay, [weights]), (block, [weights, weights]),
                              (block, (weights,))):
            with pytest.raises(DimensionError, match="one WeightSet, got"):
                weighted_ssp(layout, given)


def ssp_fields(d):
    """The matrices of a decomposition, in a fixed order."""
    return [getattr(d, name) for name in ("W", "E", "R_row", "R_col")]


def stack_of(decomps):
    """One stacked decomposition of single ``decomps``, in order."""
    return SspDecomposition(*(np.stack(mats) for mats in zip(*map(ssp_fields, decomps))))


class TestStackedDecomposition:
    """A block layout gives one stacked decomposition; its members equal
    the single-layout decompositions bit for bit."""

    @pytest.mark.parametrize("case", TestStackedKernelsMatchFrozen.CASES)
    @pytest.mark.parametrize("p", range(1, 6))
    def test_members_equal_single_layouts(self, case, p):
        for seed, design in enumerate(TestStackedKernelsMatchFrozen.DESIGNS):
            layouts, weights = oracle_case(case, p, design, seed)
            block = block_of(layouts)
            calls = [(weighted_ssp, (block, weights[0]), [(lay, weights[0]) for lay in layouts])]
            calls += [(manova.method_ssp, (block, method), [(lay, method) for lay in layouts])
                      for method in ("cla", "rnk")]
            for func, stack_args, single_args in calls:
                stacked = func(*stack_args)
                assert len(stacked) == len(layouts)
                assert stacked.W.shape == (len(layouts), p, p)
                singles = [func(*args) for args in single_args]
                for i, single in enumerate(singles):
                    for got, want in zip(ssp_fields(stacked[i]), ssp_fields(single)):
                        assert got.shape == want.shape and got.tobytes() == want.tobytes()
                restacked = stack_of(singles)
                for got, want in zip(ssp_fields(restacked), ssp_fields(stacked)):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_members_are_read_only_views(self):
        rng = np.random.default_rng(21)
        stacked = classical_ssp(block_of([random_layout(rng) for _ in range(3)]))
        member = stacked[1]
        for mat, whole in zip(ssp_fields(member), ssp_fields(stacked)):
            assert np.shares_memory(mat, whole)
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0
        with pytest.raises(TypeError):
            len(member)
        with pytest.raises(TypeError):
            member[0]
        sub = stacked[[2, 0]]
        assert len(sub) == 2
        for k, i in enumerate((2, 0)):
            for got, want in zip(ssp_fields(sub[k]), ssp_fields(stacked[i])):
                assert got.tobytes() == want.tobytes()
        assert [d.W.tobytes() for d in stacked] == [stacked[i].W.tobytes() for i in range(3)]


class TestWeightedSsp:
    def test_matches_reference_unit_weights(self):
        rng = np.random.default_rng(10)
        lay = random_layout(rng, r=3, c=3, n=4, p=2)
        w = np.ones(lay.size, dtype=np.int64)
        d = weighted_ssp(lay, WeightSet(lay, w))
        W, E, R_row, R_col = reference_ssp(lay, w)
        assert np.allclose(d.W, W, atol=1e-10)
        assert np.allclose(d.E, E, atol=1e-10)
        assert np.allclose(d.R_row, R_row, atol=1e-10)
        assert np.allclose(d.R_col, R_col, atol=1e-10)

    def test_matches_reference_random_weights(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            lay = random_layout(rng, r=2, c=3, n=5, p=2)
            # keep at least 3 per cell so nothing degenerates
            w = np.ones(lay.size, dtype=np.int64)
            drop = rng.choice(lay.size, size=6, replace=False)
            w[drop[:2]] = 0
            d = weighted_ssp(lay, WeightSet(lay, w))
            W, E, R_row, R_col = reference_ssp(lay, w)
            assert np.allclose(d.W, W, atol=1e-9)
            assert np.allclose(d.E, E, atol=1e-9)
            assert np.allclose(d.R_row, R_row, atol=1e-9)
            assert np.allclose(d.R_col, R_col, atol=1e-9)

    def test_single_deletion_matches_reference(self):
        rng = np.random.default_rng(12)
        lay = random_layout(rng, r=2, c=2, n=6, p=3)
        w = np.ones(lay.size, dtype=np.int64)
        w[7] = 0
        d = weighted_ssp(lay, WeightSet(lay, w))
        W, E, R_row, R_col = reference_ssp(lay, w)
        assert np.allclose(d.W, W, atol=1e-10)

    def test_unit_weight_decomposition_identity(self):
        rng = np.random.default_rng(13)
        lay = random_layout(rng, r=3, c=2, n=8, p=2)
        d = classical_ssp(lay)
        Y = lay.observations
        centered = Y - Y.mean(axis=0)
        total = centered.T @ centered
        recon = d.R_row + d.R_col + (d.E - d.W) + d.W
        assert np.allclose(recon, total, rtol=1e-8)
        # interaction SSP is positive semidefinite
        assert np.linalg.eigvalsh(d.E - d.W).min() > -1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        lay = random_layout(rng, p=3)
        d = classical_ssp(lay)
        for M in (d.W, d.E, d.R_row, d.R_col):
            assert np.abs(M - M.T).max() < 1e-10

    def test_cell_mean_coded_data_zero_within(self):
        # constant within every cell, rows differ: W = 0, R_row != 0
        cells = np.zeros((2, 2, 3, 2))
        cells[1, :, :, 0] = 1.0
        d = classical_ssp(layout_from_cells(cells))
        assert np.abs(d.W).max() == 0.0
        assert d.R_row[0, 0] > 0.0

    def test_identical_values_give_zero_matrices(self):
        cells = np.full((2, 2, 3, 2), 7.5)
        d = classical_ssp(layout_from_cells(cells))
        for M in (d.W, d.E, d.R_row, d.R_col):
            assert np.abs(M).max() == 0.0

    def test_wiped_cell_raises(self):
        lay = random_layout(np.random.default_rng(15), r=2, c=2, n=4)
        w = np.ones(lay.size, dtype=np.int64)
        w.reshape(2, 2, 4)[0, 0] = 0
        with pytest.raises(CellWiped):
            weighted_ssp(lay, WeightSet(lay, w))

    def test_degenerate_weights_raise(self):
        lay = random_layout(np.random.default_rng(16), r=2, c=2, n=4, p=3)
        w = np.zeros(lay.size, dtype=np.int64)
        w[:4] = 1
        with pytest.raises(DegenerateWeights):
            weighted_ssp(lay, WeightSet(lay, w))

    def test_weights_of_another_design_rejected(self):
        rng = np.random.default_rng(25)
        a = random_layout(rng, r=2, c=4, n=2)
        b = random_layout(rng, r=4, c=2, n=2)  # same N = 16, another design
        for layout in (a, block_of([a, a])):
            with pytest.raises(DimensionError, match=r"4x2 design do not match the 2x4"):
                weighted_ssp(layout, unit_weights(b))


class TestWilksLambda:
    def test_scalar_ratio(self):
        rng = np.random.default_rng(17)
        lay = random_layout(rng, r=2, c=3, n=4, p=1)
        d = classical_ssp(lay)
        lam = wilks_lambda(d, Hypothesis.ROW_EFFECTS, Model.WITH_INTERACTIONS)
        assert lam == pytest.approx(
            d.W[0, 0] / (d.W[0, 0] + d.R_row[0, 0]), rel=1e-12
        )
        lam_add = wilks_lambda(d, Hypothesis.ROW_EFFECTS, Model.ADDITIVE_ONLY)
        assert lam_add == pytest.approx(
            d.E[0, 0] / (d.E[0, 0] + d.R_row[0, 0]), rel=1e-12
        )

    def test_no_row_effect_gives_lambda_one(self):
        # identical cell pattern in every row makes row means equal
        rng = np.random.default_rng(18)
        block = rng.normal(size=(1, 2, 4, 2))
        cells = np.concatenate([block, block], axis=0)
        d = classical_ssp(layout_from_cells(cells))
        assert wilks_lambda(d, Hypothesis.ROW_EFFECTS, Model.ADDITIVE_ONLY) == 1.0

    def test_interaction_requires_model(self):
        d = classical_ssp(random_layout(np.random.default_rng(19)))
        with pytest.raises(DomainError):
            wilks_lambda(d, Hypothesis.INTERACTIONS, Model.ADDITIVE_ONLY)

    def test_singular_within_matrix_raises(self):
        cells = np.zeros((2, 2, 3, 2))
        cells[1, :, :, 0] = 1.0  # W = 0
        d = classical_ssp(layout_from_cells(cells))
        with pytest.raises(NotPositiveDefinite):
            wilks_lambda(d, Hypothesis.INTERACTIONS, Model.WITH_INTERACTIONS)

    def test_lambda_in_unit_interval(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            d = classical_ssp(random_layout(rng, p=2))
            for model in Model:
                for hyp in hypotheses_for(model):
                    lam = wilks_lambda(d, hyp, model)
                    assert 0.0 < lam <= 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(21)
        lay = random_layout(rng, r=3, c=2, n=6, p=2)
        A = np.array([[1.5, -0.4], [0.3, 0.9]])
        b = np.array([2.0, -7.0])
        lay_t = TwoWayLayout(lay.r, lay.c, lay.n, lay.p, lay.observations @ A.T + b)
        d0, d1 = classical_ssp(lay), classical_ssp(lay_t)
        for model in Model:
            for hyp in hypotheses_for(model):
                assert wilks_lambda(d0, hyp, model) == pytest.approx(
                    wilks_lambda(d1, hyp, model), rel=1e-8
                )

    def test_permutation_invariance(self):
        # the same observations, each cell's rows in another order
        rng = np.random.default_rng(22)
        lay = random_layout(rng)
        cells = lay.cell_array().reshape(-1, lay.n, lay.p)
        lay_p = layout_from_cells(
            np.array([cell[rng.permutation(lay.n)] for cell in cells]).reshape(
                lay.r, lay.c, lay.n, lay.p)
        )
        d0, d1 = classical_ssp(lay), classical_ssp(lay_p)
        for hyp in hypotheses_for(Model.WITH_INTERACTIONS):
            assert wilks_lambda(d0, hyp, Model.WITH_INTERACTIONS) == pytest.approx(
                wilks_lambda(d1, hyp, Model.WITH_INTERACTIONS), rel=1e-12
            )


def lone_lambda(num: np.ndarray, den: np.ndarray) -> float:
    """Lambda from two lone factorisations, as before the memo."""
    return math.exp(cholesky(num).log_det - cholesky(den).log_det)


class TestWilksMemo:
    """Each distinct matrix of a decomposition is factored once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(mat):
            seen.append(np.shape(mat))
            return cholesky(mat)

        monkeypatch.setattr(manova, "cholesky", counting)
        return seen

    @pytest.mark.parametrize(
        "models, expected",
        [
            ((Model.WITH_INTERACTIONS,), [(4, 3, 3)]),
            ((Model.ADDITIVE_ONLY,), [(3, 3, 3)]),
            ((Model.WITH_INTERACTIONS, Model.ADDITIVE_ONLY), [(4, 3, 3), (2, 3, 3)]),
        ],
    )
    def test_one_stacked_call_per_model(self, calls, models, expected):
        d = classical_ssp(random_layout(np.random.default_rng(40), p=3))
        for model in models:
            for hyp in hypotheses_for(model):
                wilks_lambda(d, hyp, model)
                wilks_lambda(d, hyp, model)
        assert calls == expected

    def test_memoised_lambdas_equal_lone_factorisations(self):
        rng = np.random.default_rng(41)
        for p in (1, 2, 3, 5):
            d = classical_ssp(random_layout(rng, r=3, c=2, n=8, p=p))
            pairs = {
                (Hypothesis.INTERACTIONS, Model.WITH_INTERACTIONS): (d.W, d.E),
                (Hypothesis.ROW_EFFECTS, Model.WITH_INTERACTIONS): (d.W, d.W + d.R_row),
                (Hypothesis.COL_EFFECTS, Model.WITH_INTERACTIONS): (d.W, d.W + d.R_col),
                (Hypothesis.ROW_EFFECTS, Model.ADDITIVE_ONLY): (d.E, d.E + d.R_row),
                (Hypothesis.COL_EFFECTS, Model.ADDITIVE_ONLY): (d.E, d.E + d.R_col),
            }
            for (hyp, model), (num, den) in pairs.items():
                assert wilks_lambda(d, hyp, model) == min(lone_lambda(num, den), 1.0)

    def test_failing_sibling_matrix_leaves_valid_ratio(self, calls):
        # W + R_col fails the relative pivot gate (its second pivot is far
        # below 2e-14 * 1e20); the row ratio never reads it.
        rng = np.random.default_rng(42)
        a = rng.standard_normal((2, 12))
        W, R_row = a @ a.T, np.diag([0.5, 0.25])
        R_col = np.diag([1e20, 0.0])
        d = SspDecomposition(W, W + R_row, R_row, R_col)
        with pytest.raises(NotPositiveDefinite):
            cholesky(d.W + d.R_col)
        model = Model.WITH_INTERACTIONS
        assert wilks_lambda(d, Hypothesis.ROW_EFFECTS, model) == lone_lambda(W, W + R_row)
        assert wilks_lambda(d, Hypothesis.INTERACTIONS, model) == lone_lambda(W, d.E)
        with pytest.raises(NotPositiveDefinite):
            wilks_lambda(d, Hypothesis.COL_EFFECTS, model)

    def test_additive_lambdas_do_not_need_w(self):
        # r = c = 2, n = 2: W has 4 degrees of freedom and is singular at
        # p = 5, while E has 5 and is not.
        d = classical_ssp(random_layout(np.random.default_rng(43), r=2, c=2, n=2, p=5))
        with pytest.raises(NotPositiveDefinite):
            cholesky(d.W)
        for hyp, effect in ((Hypothesis.ROW_EFFECTS, d.R_row),
                            (Hypothesis.COL_EFFECTS, d.R_col)):
            lam = wilks_lambda(d, hyp, Model.ADDITIVE_ONLY)
            assert lam == min(lone_lambda(d.E, d.E + effect), 1.0)
            with pytest.raises(NotPositiveDefinite):
                wilks_lambda(d, hyp, Model.WITH_INTERACTIONS)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_sequence_equals_lone_decompositions(self, p):
        rng = np.random.default_rng(45 + p)
        layouts = [random_layout(rng, r=3, c=2, n=6, p=p) for _ in range(7)]
        for model in Model:
            for hyp in hypotheses_for(model):
                # fresh decompositions on both sides, so no memo is shared
                stacked = wilks_lambda(classical_ssp(block_of(layouts)), hyp, model)
                lone = [wilks_lambda(classical_ssp(lay), hyp, model) for lay in layouts]
                assert isinstance(stacked, np.ndarray) and stacked.dtype == np.float64
                assert stacked.tobytes() == np.array(lone).tobytes()
                assert all(type(lam) is float for lam in lone)

    @pytest.mark.parametrize(
        "model, expected",
        [(Model.WITH_INTERACTIONS, [(20, 3, 3)]), (Model.ADDITIVE_ONLY, [(15, 3, 3)])],
    )
    def test_sequence_factored_in_one_call(self, calls, model, expected):
        rng = np.random.default_rng(50)
        ds = classical_ssp(block_of([random_layout(rng, p=3) for _ in range(5)]))
        for hyp in hypotheses_for(model):
            assert wilks_lambda(ds, hyp, model).shape == (5,)
        assert calls == expected

    def test_members_and_sub_stacks_refactor_to_the_same_bits(self, calls):
        # a member and a sub-stack start with an empty memo: each factors
        # its own matrices once, the stack's memo serves the stack alone
        rng = np.random.default_rng(52)
        ds = classical_ssp(block_of([random_layout(rng) for _ in range(4)]))
        model = Model.WITH_INTERACTIONS
        lams = wilks_lambda(ds, Hypothesis.ROW_EFFECTS, model)
        assert wilks_lambda(ds[2], Hypothesis.ROW_EFFECTS, model) == lams[2]
        sub = wilks_lambda(ds[[3, 1]], Hypothesis.COL_EFFECTS, model)
        assert sub.tolist() == wilks_lambda(ds, Hypothesis.COL_EFFECTS, model)[[3, 1]].tolist()
        assert calls == [(16, 2, 2), (4, 2, 2), (8, 2, 2)]

    def test_stack_takes_math_exp_of_each_log_ratio(self):
        # np.exp may differ from math.exp in the last bit (it does on
        # AVX-512 builds); every Lambda of a stack must be the math.exp
        # of its member's own log ratio, as a lone decomposition gives
        rng = np.random.default_rng(53)
        layouts = [random_layout(rng, r=3, c=2, n=6, p=p) for p in (1, 2, 3) for _ in range(40)]
        ratios, got = [], []
        for p in (1, 2, 3):
            members = [lay for lay in layouts if lay.p == p]
            stacked = classical_ssp(block_of(members))
            for model in Model:
                for hyp in hypotheses_for(model):
                    got += wilks_lambda(stacked, hyp, model).tolist()
                    for lay in members:
                        d = classical_ssp(lay)
                        num, den = {
                            Hypothesis.INTERACTIONS: (d.W, d.E),
                            Hypothesis.ROW_EFFECTS: (d.W, d.W + d.R_row),
                            Hypothesis.COL_EFFECTS: (d.W, d.W + d.R_col),
                        }[hyp] if model is Model.WITH_INTERACTIONS else {
                            Hypothesis.ROW_EFFECTS: (d.E, d.E + d.R_row),
                            Hypothesis.COL_EFFECTS: (d.E, d.E + d.R_col),
                        }[hyp]
                        ratios.append(cholesky(num).log_det - cholesky(den).log_det)
                        assert wilks_lambda(d, hyp, model) == min(math.exp(ratios[-1]), 1.0)
        assert got == [min(math.exp(x), 1.0) for x in ratios]
        vector_exp = np.exp(np.array(ratios)).tolist()
        differs = [x for x, v in zip(ratios, vector_exp) if v != math.exp(x)]
        probe = np.linspace(-8.0, 0.0, 10001)
        if any(v != math.exp(x) for x, v in zip(probe.tolist(), np.exp(probe).tolist())):
            assert differs  # the witness: a ratio whose np.exp is another float

    def test_sequence_with_failing_members(self):
        # one member needs the lone-pair fallback, another is singular
        rng = np.random.default_rng(51)
        a = rng.standard_normal((2, 12))
        W, R_row = a @ a.T, np.diag([0.5, 0.25])
        good = classical_ssp(random_layout(rng))
        sibling = SspDecomposition(W, W + R_row, R_row, np.diag([1e20, 0.0]))
        model = Model.WITH_INTERACTIONS
        lams = wilks_lambda(stack_of([good, sibling]),
                            Hypothesis.ROW_EFFECTS, model)
        assert lams.tolist() == [
            min(lone_lambda(good.W, good.W + good.R_row), 1.0), lone_lambda(W, W + R_row)
        ]
        singular = SspDecomposition(np.zeros((2, 2)), W, R_row, R_row)
        with pytest.raises(NotPositiveDefinite) as stacked:
            wilks_lambda(stack_of([good, singular, sibling]),
                         Hypothesis.ROW_EFFECTS, model)
        with pytest.raises(NotPositiveDefinite) as alone:
            wilks_lambda(singular, Hypothesis.ROW_EFFECTS, model)
        assert str(stacked.value) == str(alone.value)

    def test_matrices_are_read_only(self):
        d = classical_ssp(random_layout(np.random.default_rng(44)))
        for mat in (d.W, d.E, d.R_row, d.R_col):
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0
        wilks_lambda(d, Hypothesis.ROW_EFFECTS, Model.WITH_INTERACTIONS)
        assert "memo" not in repr(d)


class TestBartlett:
    def test_dfs(self):
        lay = random_layout(np.random.default_rng(23), r=3, c=2, n=30)
        assert bartlett_dfs(lay, Model.WITH_INTERACTIONS, Hypothesis.ROW_EFFECTS) == (174, 2)
        assert bartlett_dfs(lay, Model.WITH_INTERACTIONS, Hypothesis.COL_EFFECTS) == (174, 1)
        assert bartlett_dfs(lay, Model.WITH_INTERACTIONS, Hypothesis.INTERACTIONS) == (174, 2)
        assert bartlett_dfs(lay, Model.ADDITIVE_ONLY, Hypothesis.ROW_EFFECTS) == (176, 2)

    def test_reference_value(self):
        # -(174 - (2 - 2 + 1)/2) * ln(0.9) referred to chi2 with 4 df
        stat = -(174 - 0.5) * math.log(0.9)
        expected = float(chi2.sf(stat, 4))
        assert bartlett_pvalue(0.9, 2, 174, 2) == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(0.0011, abs=2e-4)

    def test_lambda_one_gives_pvalue_one(self):
        assert bartlett_pvalue(1.0, 2, 174, 2) == 1.0

    def test_monotone_in_lambda(self):
        # stay above the deep tail so p-values do not underflow to 0
        ps = [bartlett_pvalue(lam, 2, 174, 2) for lam in (0.99, 0.95, 0.9, 0.8)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            bartlett_pvalue(0.0, 2, 174, 2)
        with pytest.raises(DomainError):
            bartlett_pvalue(1.1, 2, 174, 2)
        with pytest.raises(DomainError):
            bartlett_pvalue(0.9, 2, 0, 2)


class _Entry:
    def __init__(self, delta, q):
        self.delta = delta
        self.q = q


class TestCalibratedPvalue:
    def test_reduces_to_plain_chi2(self):
        lam = 0.82
        expected = float(chi2.sf(-math.log(lam), 4))
        assert calibrated_pvalue(lam, _Entry(1.0, 4.0)) == pytest.approx(
            expected, rel=1e-10
        )

    def test_reference_value(self):
        p = calibrated_pvalue(0.9, _Entry(0.0145, 4.2))
        expected = float(chi2.sf(-math.log(0.9) / 0.0145, 4.2))
        assert p == pytest.approx(expected, rel=1e-9)

    def test_lambda_one(self):
        assert calibrated_pvalue(1.0, _Entry(0.5, 4.0)) == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            calibrated_pvalue(1.5, _Entry(0.5, 4.0))
        with pytest.raises(DomainError):
            calibrated_pvalue(0.9, _Entry(-1.0, 4.0))


class TestRobustWeights:
    def test_clean_data_trims_near_nominal(self):
        rng = RngStream(1)
        cells = rng.generator().standard_normal((3, 2, 30, 2))
        lay = layout_from_cells(cells)
        ws = robust_weights(lay, McdConfig(), rng.substream(1))
        frac = 1.0 - ws.grand_total / lay.size
        assert 0.005 <= frac <= 0.045

    def test_planted_outliers_zero_weighted(self):
        rng = RngStream(2)
        cells = rng.generator().standard_normal((3, 2, 30, 2))
        shift = 10.0 * math.sqrt(chi2_quantile(0.999, 2) / 2)
        cells[2, 1, :3] = rng.substream(5).generator().normal(
            loc=shift, scale=0.25, size=(3, 2)
        )
        lay = layout_from_cells(cells)
        ws = robust_weights(lay, McdConfig(), rng.substream(1))
        assert np.all(ws.w.reshape(3, 2, 30)[2, 1, :3] == 0)

    def test_cell_too_small_raises(self):
        lay = random_layout(np.random.default_rng(24), r=2, c=2, n=3, p=2)
        with pytest.raises(DimensionError):
            robust_weights(lay, McdConfig(), RngStream(0))

    def test_constant_cells_raise(self):
        cells = np.zeros((2, 2, 6, 2))
        cells[1, :, :, 0] = 1.0
        with pytest.raises(SingularSubset):
            robust_weights(layout_from_cells(cells), McdConfig(), RngStream(0))

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        lay = random_layout(rng, r=2, c=2, n=12, p=2)
        a = robust_weights(lay, McdConfig(), RngStream(7))
        b = robust_weights(lay, McdConfig(), RngStream(7))
        assert np.array_equal(a.w, b.w)


class TestRunManova:
    def test_classical_reports(self):
        rng = np.random.default_rng(26)
        lay = random_layout(rng, r=3, c=2, n=10, p=2)
        reports = run_manova(lay, Model.WITH_INTERACTIONS, "cla")
        assert [rep.hypothesis for rep in reports] == [
            Hypothesis.ROW_EFFECTS, Hypothesis.COL_EFFECTS, Hypothesis.INTERACTIONS,
        ]
        for rep in reports:
            assert rep.method == "cla"
            assert isinstance(rep.approx, BartlettApprox)
            assert 0.0 <= rep.p_value <= 1.0
            assert 0.0 < rep.lambda_ <= 1.0

    def test_additive_model_skips_interaction(self):
        lay = random_layout(np.random.default_rng(27))
        reports = run_manova(lay, Model.ADDITIVE_ONLY, "cla")
        assert len(reports) == 2

    def test_rank_method_invariant_to_monotone_warp(self):
        rng = np.random.default_rng(28)
        lay = random_layout(rng, r=2, c=2, n=8, p=2)
        warped = TwoWayLayout(lay.r, lay.c, lay.n, lay.p, np.exp(lay.observations))
        rep0 = run_manova(lay, Model.WITH_INTERACTIONS, "rnk")
        rep1 = run_manova(warped, Model.WITH_INTERACTIONS, "rnk")
        for a, b in zip(rep0, rep1):
            assert a.lambda_ == b.lambda_
            assert a.p_value == b.p_value

    @pytest.mark.parametrize("method", ["cla", "rnk"])
    def test_hypotheses_by_member_or_value(self, method):
        lay = random_layout(np.random.default_rng(26), r=3, c=2, n=10, p=2)
        full = {rep.hypothesis: rep for rep in run_manova(lay, Model.WITH_INTERACTIONS, method)}
        chosen = run_manova(lay, Model.WITH_INTERACTIONS, method,
                            hypotheses=["interaction", Hypothesis.ROW_EFFECTS, "row"])
        assert [rep.hypothesis for rep in chosen] == [
            Hypothesis.INTERACTIONS, Hypothesis.ROW_EFFECTS, Hypothesis.ROW_EFFECTS,
        ]
        for rep in chosen:
            assert rep.lambda_ == full[rep.hypothesis].lambda_
            assert rep.p_value == full[rep.hypothesis].p_value
            assert rep.approx == full[rep.hypothesis].approx
        assert run_manova(lay, Model.WITH_INTERACTIONS, method, hypotheses=()) == []

    @pytest.mark.parametrize("method", ["cla", "rnk"])
    def test_p_values_equal_scalar_bartlett_p_values(self, method):
        lay = random_layout(np.random.default_rng(25), r=3, c=4, n=5, p=3)
        for model in Model:
            for rep in run_manova(lay, model, method):
                nu1, nu2 = bartlett_dfs(lay, model, rep.hypothesis)
                assert rep.approx == BartlettApprox(3, nu1, nu2)
                assert type(rep.p_value) is float
                assert rep.p_value == bartlett_pvalue(rep.lambda_, 3, nu1, nu2)

    @pytest.mark.parametrize("model, given", [
        (Model.ADDITIVE_ONLY, "interaction"),
        (Model.ADDITIVE_ONLY, Hypothesis.INTERACTIONS),
        (Model.WITH_INTERACTIONS, "rows"),
        (Model.WITH_INTERACTIONS, Model.ADDITIVE_ONLY),
    ])
    def test_hypothesis_outside_model_rejected(self, model, given):
        lay = random_layout(np.random.default_rng(27))
        with pytest.raises(DomainError, match=f"not tested under the {model.value} model"):
            run_manova(lay, model, "cla", hypotheses=["row", given])

    def test_mcd_requires_calibration_source(self):
        lay = random_layout(np.random.default_rng(29), n=8)
        with pytest.raises(MissingCalibration):
            run_manova(lay, Model.WITH_INTERACTIONS, "mcd")

    def test_mcd_with_stub_source(self):
        # each report carries the very entry its lookup returned, and
        # every lookup gets the run's own config
        class StubSource:
            def __init__(self):
                self.served, self.configs = [], []

            def entry_for(self, p, r, c, n, model, hypothesis, mcd_config):
                self.configs.append(mcd_config)
                self.served.append(_Entry(0.02, 4.0))
                return self.served[-1]

        rng = RngStream(30)
        lay = layout_from_cells(rng.generator().standard_normal((3, 2, 15, 2)))
        config, source = McdConfig(n_starts=40, n_keep=4), StubSource()
        reports = run_manova(
            lay, Model.WITH_INTERACTIONS, "mcd", config, source, rng.substream(1),
        )
        assert len(reports) == 3
        assert all(cfg is config for cfg in source.configs)
        for rep, entry in zip(reports, source.served, strict=True):
            assert rep.approx is entry
            assert 0.0 <= rep.p_value <= 1.0

    class ListSource:
        """Serves its entries in turn, one per lookup."""

        def __init__(self, *entries):
            self.entries = iter(entries)

        def entry_for(self, p, r, c, n, model, hypothesis, mcd_config):
            return next(self.entries)

    def mcd_run(self, *entries, hypotheses=None):
        lay = layout_from_cells(RngStream(32).generator().standard_normal((3, 2, 12, 2)))
        return run_manova(lay, Model.WITH_INTERACTIONS, "mcd", McdConfig(n_starts=40, n_keep=4),
                          self.ListSource(*entries), RngStream(33), hypotheses)

    def test_mcd_p_values_equal_one_call_each(self):
        reports = self.mcd_run(_Entry(0.02, 4.0), _Entry(0.013, 2.5), _Entry(0.031, 6.2))
        for rep in reports:
            assert type(rep.p_value) is float
            assert rep.p_value == calibrated_pvalue(rep.lambda_, rep.approx)
        assert self.mcd_run(hypotheses=()) == []

    @pytest.mark.parametrize("entries", [
        ((0.02, 4.0), (-1.0, 4.0), (0.02, math.nan)),
        ((0.02, math.nan), (-1.0, 4.0), (0.02, 4.0)),
        ((math.nan, 4.0), (0.02, math.inf), (0.0, 4.0)),
        ((0.02, 4.0), (0.02, math.inf), (0.02, 0.0)),
        ((0.02, 4.0), (0.02, 4.0), (0.02, -math.inf)),
    ], ids=str)
    def test_mcd_errors_equal_one_call_each(self, entries):
        lams = [rep.lambda_ for rep in self.mcd_run(*[_Entry(0.02, 4.0)] * 3)]
        with pytest.raises(DomainError) as one_each:
            for lam, entry in zip(lams, entries):
                calibrated_pvalue(lam, _Entry(*entry))
        with pytest.raises(DomainError) as one_pass:
            self.mcd_run(*[_Entry(*entry) for entry in entries])
        assert str(one_pass.value) == str(one_each.value)

    def test_unknown_method_rejected(self):
        lay = random_layout(np.random.default_rng(31))
        with pytest.raises(DomainError):
            run_manova(lay, Model.WITH_INTERACTIONS, "mle")


class TestScalarAnovaOracle:
    """p = 1 statistics against hand-coded ANOVA sums of squares."""

    @staticmethod
    def anova_oracle(cells):
        y = cells[..., 0]
        r, c, n = y.shape
        gm = y.mean()
        cm = y.mean(axis=2)
        rm = y.mean(axis=(1, 2))
        colm = y.mean(axis=(0, 2))
        ssw = ((y - cm[:, :, None]) ** 2).sum()
        ssa = c * n * ((rm - gm) ** 2).sum()
        ssb = r * n * ((colm - gm) ** 2).sum()
        sse = ((y - rm[:, None, None] - colm[None, :, None] + gm) ** 2).sum()
        return ssw, sse, ssa, ssb

    def test_lambdas_match(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            r, c, n = rng.integers(2, 4), rng.integers(2, 4), int(rng.integers(4, 9))
            cells = rng.normal(size=(int(r), int(c), n, 1))
            lay = layout_from_cells(cells)
            d = classical_ssp(lay)
            ssw, sse, ssa, ssb = self.anova_oracle(cells)
            cases = {
                (Hypothesis.INTERACTIONS, Model.WITH_INTERACTIONS): ssw / sse,
                (Hypothesis.ROW_EFFECTS, Model.WITH_INTERACTIONS): ssw / (ssw + ssa),
                (Hypothesis.COL_EFFECTS, Model.WITH_INTERACTIONS): ssw / (ssw + ssb),
                (Hypothesis.ROW_EFFECTS, Model.ADDITIVE_ONLY): sse / (sse + ssa),
                (Hypothesis.COL_EFFECTS, Model.ADDITIVE_ONLY): sse / (sse + ssb),
            }
            for (hyp, model), expected in cases.items():
                assert wilks_lambda(d, hyp, model) == pytest.approx(
                    expected, rel=1e-9
                )
