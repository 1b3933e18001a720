"""Balanced two-way MANOVA layouts and Wilks' Lambda tests.

The statistics compare weighted sums-of-squares-and-products matrices:
the within-cell matrix W, the additive-model residual matrix E, and the
row/column effect matrices R.  Wilks' Lambda variants are determinant
ratios of those matrices; with all observation weights equal to one
they reduce to the classical statistics, and with outlier-downweighting
weights they become their robust counterparts.  P-values come either
from the Bartlett chi-square approximation or from a simulated null
distribution summarized by (delta, q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, Sequence

import numpy as np
from scipy.stats import rankdata

from .distributions import RngStream, chi2_cdf, chi2_quantile, cholesky
from .errors import (
    CellWiped,
    DegenerateWeights,
    DimensionError,
    DomainError,
    EmptyTable,
    MissingCalibration,
    NonNumeric,
    TooFewLevels,
    Unbalanced,
)
from .mcd import (
    McdConfig,
    fast_mcd,
    fast_mcd_batch,
    reweight,
    reweight_batch,
    robust_distances,
)

METHODS = ("cla", "rnk", "mcd")

# Rounding slack allowed before a determinant ratio above one is treated
# as an internal inconsistency rather than floating-point noise.
_LAMBDA_SLACK = 1e-9


class Model(Enum):
    """Two-way model structure: with or without interaction terms."""

    WITH_INTERACTIONS = "interactions"
    ADDITIVE_ONLY = "additive"


class Hypothesis(Enum):
    """Null hypothesis under test: no row, column, or interaction effects."""

    ROW_EFFECTS = "row"
    COL_EFFECTS = "col"
    INTERACTIONS = "interaction"


@dataclass(frozen=True, eq=False)
class TwoWayLayout:
    """Balanced two-factor dataset.

    Attributes
    ----------
    r, c : int
        Number of row and column factor levels, both >= 2.
    n : int
        Observations per cell, >= 2; every cell holds exactly n.
    p : int
        Response dimension.
    observations : array, shape (N, p)
        Responses, N = r*c*n, in arbitrary row order.
    row_label, col_label : array, shape (N,)
        Level indices in 0..r-1 and 0..c-1 for each observation.
    """

    r: int
    c: int
    n: int
    p: int
    observations: np.ndarray
    row_label: np.ndarray
    col_label: np.ndarray

    def __post_init__(self):
        if self.r < 2 or self.c < 2:
            raise TooFewLevels(
                f"need at least 2 levels per factor, got r={self.r}, c={self.c}"
            )
        if self.n < 2:
            raise DomainError(f"need at least 2 observations per cell, got n={self.n}")
        if self.p < 1:
            raise DimensionError(f"response dimension must be positive, got p={self.p}")
        obs = np.ascontiguousarray(np.asarray(self.observations, dtype=np.float64))
        rows = np.asarray(self.row_label, dtype=np.intp)
        cols = np.asarray(self.col_label, dtype=np.intp)
        N = self.r * self.c * self.n
        if obs.shape != (N, self.p):
            raise DimensionError(
                f"observations shape {obs.shape} does not match (r*c*n, p) = {(N, self.p)}"
            )
        if rows.shape != (N,) or cols.shape != (N,):
            raise DimensionError("label vectors must have one entry per observation")
        if not np.all(np.isfinite(obs)):
            raise NonNumeric("observations contain non-finite values")
        if rows.min() < 0 or rows.max() >= self.r:
            raise DomainError("row labels out of range")
        if cols.min() < 0 or cols.max() >= self.c:
            raise DomainError("column labels out of range")
        counts = np.bincount(rows * self.c + cols, minlength=self.r * self.c)
        if not np.all(counts == self.n):
            bad = int(np.flatnonzero(counts != self.n)[0])
            raise Unbalanced(
                f"cell ({bad // self.c}, {bad % self.c}) holds {counts[bad]} "
                f"observations, expected {self.n}"
            )
        for arr in (obs, rows, cols):
            arr.setflags(write=False)
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "row_label", rows)
        object.__setattr__(self, "col_label", cols)

    @property
    def size(self) -> int:
        """Total observation count N = r*c*n."""
        return self.r * self.c * self.n

    def cell_array(self) -> np.ndarray:
        """Observations regrouped by cell, shape (r, c, n, p).

        Within each cell the original observation order is preserved.
        """
        order = np.lexsort((np.arange(self.size), self.col_label, self.row_label))
        return self.observations[order].reshape(self.r, self.c, self.n, self.p)


def layout_from_cells(cells: np.ndarray) -> TwoWayLayout:
    """Build a layout from an (r, c, n, p) array of cell observations."""
    cells = np.asarray(cells, dtype=np.float64)
    if cells.ndim != 4:
        raise DimensionError(f"cells must be four-dimensional, got shape {cells.shape}")
    r, c, n, p = cells.shape
    rows = np.repeat(np.arange(r, dtype=np.intp), c * n)
    cols = np.tile(np.repeat(np.arange(c, dtype=np.intp), n), r)
    return TwoWayLayout(r, c, n, p, cells.reshape(r * c * n, p), rows, cols)


def validate_layout(raw_table: Sequence[Sequence]) -> TwoWayLayout:
    """Check and assemble a raw table into a balanced TwoWayLayout.

    Parameters
    ----------
    raw_table : sequence of rows
        Each row is (row_label, col_label, v_1, ..., v_p).  Labels may
        be any hashable values; level indices are assigned in order of
        first appearance.

    Raises
    ------
    EmptyTable, TooFewLevels, Unbalanced, NonNumeric, DimensionError
    """
    rows = list(raw_table)
    if not rows:
        raise EmptyTable("no data rows")
    p = len(rows[0]) - 2
    if p < 1:
        raise DimensionError("rows need two labels and at least one response value")
    row_levels: dict = {}
    col_levels: dict = {}
    row_idx = np.empty(len(rows), dtype=np.intp)
    col_idx = np.empty(len(rows), dtype=np.intp)
    values = np.empty((len(rows), p), dtype=np.float64)
    for k, row in enumerate(rows):
        if len(row) != p + 2:
            raise DimensionError(
                f"row {k + 1} has {len(row) - 2} response values, expected {p}"
            )
        row_idx[k] = row_levels.setdefault(row[0], len(row_levels))
        col_idx[k] = col_levels.setdefault(row[1], len(col_levels))
        for j, cell in enumerate(row[2:]):
            try:
                v = float(cell)
            except (TypeError, ValueError):
                raise NonNumeric(f"row {k + 1}: {cell!r} is not a number") from None
            if not math.isfinite(v):
                raise NonNumeric(f"row {k + 1}: non-finite value {v!r}")
            values[k, j] = v
    r, c = len(row_levels), len(col_levels)
    if r < 2 or c < 2:
        raise TooFewLevels(f"need at least 2 levels per factor, got r={r}, c={c}")
    if len(rows) % (r * c) != 0:
        raise Unbalanced(
            f"{len(rows)} rows cannot split evenly over {r}x{c} cells"
        )
    return TwoWayLayout(r, c, len(rows) // (r * c), p, values, row_idx, col_idx)


def rank_transform(layout: TwoWayLayout) -> TwoWayLayout:
    """Replace each response coordinate by its rank among all N values.

    Ties receive mid-ranks.  Ranking each coordinate separately over the
    pooled sample is the usual rank transformation for MANOVA; the
    classical statistics applied to the ranked layout give the rank
    test.
    """
    ranked = np.column_stack(
        [rankdata(layout.observations[:, j]) for j in range(layout.p)]
    )
    return TwoWayLayout(
        layout.r, layout.c, layout.n, layout.p,
        ranked, layout.row_label, layout.col_label,
    )


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Zero/one observation weights with their marginal totals.

    Totals are stored rather than recomputed because every downstream
    weighted mean divides by them; construction checks they are exact
    sums of ``w``.
    """

    w: np.ndarray
    cell_totals: np.ndarray
    row_totals: np.ndarray
    col_totals: np.ndarray
    grand_total: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.int64)
        if w.ndim != 1:
            raise DimensionError("weights must form a vector")
        if not np.all((w == 0) | (w == 1)):
            raise DomainError("weights must be 0 or 1")
        cell = np.asarray(self.cell_totals, dtype=np.int64)
        if cell.ndim != 2:
            raise DimensionError("cell totals must form an r x c matrix")
        if int(cell.sum()) != int(w.sum()) or int(self.grand_total) != int(w.sum()):
            raise DomainError("weight totals are not consistent with w")
        if not np.array_equal(cell.sum(axis=1), np.asarray(self.row_totals)):
            raise DomainError("row totals are not consistent with cell totals")
        if not np.array_equal(cell.sum(axis=0), np.asarray(self.col_totals)):
            raise DomainError("column totals are not consistent with cell totals")
        for arr in (w, cell):
            arr.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "cell_totals", cell)

    @classmethod
    def from_vector(cls, layout: TwoWayLayout, w: np.ndarray) -> "WeightSet":
        """Assemble a WeightSet for ``layout`` from a 0/1 vector."""
        w = np.asarray(w, dtype=np.int64)
        if w.shape != (layout.size,):
            raise DimensionError(
                f"weight vector shape {w.shape} does not match N = {layout.size}"
            )
        idx = layout.row_label * layout.c + layout.col_label
        cell = np.bincount(idx, weights=w, minlength=layout.r * layout.c)
        cell = cell.astype(np.int64).reshape(layout.r, layout.c)
        return cls(w, cell, cell.sum(axis=1), cell.sum(axis=0), int(w.sum()))


def unit_weights(layout: TwoWayLayout) -> WeightSet:
    """Weight one for every observation."""
    return WeightSet.from_vector(layout, np.ones(layout.size, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class WeightedMeans:
    """Weighted cell, row, column, and grand mean vectors."""

    cell: np.ndarray
    row: np.ndarray
    col: np.ndarray
    grand: np.ndarray


@dataclass(frozen=True, eq=False)
class SspDecomposition:
    """Weighted sums-of-squares-and-products matrices of a layout.

    W is the within-cell matrix, E the additive-model residual matrix,
    R_row and R_col the row- and column-effect matrices.  All are p x p.
    """

    W: np.ndarray
    E: np.ndarray
    R_row: np.ndarray
    R_col: np.ndarray
    means: WeightedMeans


def weighted_ssp(layout: TwoWayLayout, weights: WeightSet) -> SspDecomposition:
    """Weighted SSP matrices and means of a balanced two-way layout.

    Weighted means divide by the weighted counts (cell, row, column,
    grand); each SSP matrix is a weighted sum of outer products of the
    matching residuals:

      W     sum of w * (y - cell mean)(...)^T
      E     sum of w * (y - row mean - col mean + grand mean)(...)^T
      R_row sum over rows of row_total * (row mean - grand mean)(...)^T

    and R_col analogously over columns.

    Raises
    ------
    DegenerateWeights
        Fewer than p + 2 observations carry weight one.
    CellWiped
        Some cell has weight total zero, so its mean is undefined.
    """
    if weights.w.shape != (layout.size,):
        raise DimensionError(
            f"weight vector shape {weights.w.shape} does not match N = {layout.size}"
        )
    r, c, p = layout.r, layout.c, layout.p
    if weights.grand_total < p + 2:
        raise DegenerateWeights(
            f"only {weights.grand_total} observations have weight one, "
            f"need at least p + 2 = {p + 2}"
        )
    if np.any(weights.cell_totals == 0):
        bad = np.argwhere(weights.cell_totals == 0)[0]
        raise CellWiped(f"cell ({bad[0]}, {bad[1]}) has zero weight total")

    Y = layout.observations
    w = weights.w.astype(np.float64)
    idx = layout.row_label * c + layout.col_label
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

    resid_w = Y - cell_means[layout.row_label, layout.col_label]
    W = (resid_w * w[:, None]).T @ resid_w
    resid_e = (
        Y
        - row_means[layout.row_label]
        - col_means[layout.col_label]
        + grand_mean
    )
    E = (resid_e * w[:, None]).T @ resid_e
    dev_row = row_means - grand_mean
    R_row = (dev_row * row_n[:, None]).T @ dev_row
    dev_col = col_means - grand_mean
    R_col = (dev_col * col_n[:, None]).T @ dev_col
    means = WeightedMeans(cell_means, row_means, col_means, grand_mean)
    return SspDecomposition(W, E, R_row, R_col, means)


def classical_ssp(layout: TwoWayLayout) -> SspDecomposition:
    """SSP decomposition with every observation at weight one."""
    return weighted_ssp(layout, unit_weights(layout))


def robust_weights(
    layout: TwoWayLayout, config: McdConfig | None = None, rng: RngStream | None = None
) -> WeightSet:
    """Outlier-downweighting 0/1 weights from reweighted MCD fits.

    Each cell's location is estimated by the reweighted MCD; the
    residuals from those locations are pooled and their common scatter
    C0 is estimated by another reweighted MCD.  Observations whose
    robust distance in the C0 metric exceeds the 97.5% chi-square
    cutoff get weight zero.

    Raises
    ------
    DimensionError
        Cell size below p + 2, too small for a per-cell MCD fit.
    DegenerateWeights
        Fewer than p + 2 observations survive the cutoff.
    SingularSubset
        Propagated from degenerate MCD fits.
    """
    if config is None:
        config = McdConfig()
    if rng is None:
        rng = RngStream(0)
    if layout.n < layout.p + 2:
        raise DimensionError(
            f"per-cell sample size {layout.n} is too small for p = {layout.p}, "
            f"need at least p + 2"
        )
    stack = layout.cell_array().reshape(layout.r * layout.c, layout.n, layout.p)
    raws = fast_mcd_batch(stack, config, rng=rng.substream(0))
    rews = reweight_batch(stack, raws)
    mu0 = np.stack([est.location for est in rews]).reshape(layout.r, layout.c, layout.p)
    resid = layout.observations - mu0[layout.row_label, layout.col_label]
    pooled_raw = fast_mcd(resid, config, rng=rng.substream(1))
    c0 = reweight(resid, pooled_raw).scatter
    distances = robust_distances(resid, np.zeros(layout.p), c0)
    cutoff = math.sqrt(chi2_quantile(0.975, layout.p))
    weights = WeightSet.from_vector(layout, (distances <= cutoff).astype(np.int64))
    if weights.grand_total < layout.p + 2:
        raise DegenerateWeights(
            f"only {weights.grand_total} observations kept by the robust cutoff"
        )
    return weights


def method_ssp(
    layout: TwoWayLayout,
    method: str,
    config: McdConfig | None = None,
    rng: RngStream | None = None,
) -> SspDecomposition:
    """SSP decomposition of ``layout`` under one of the ``METHODS``.

    "cla" uses unit weights, "rnk" unit weights on the rank-transformed
    layout, and "mcd" the robust weights (with ``config`` and ``rng``).
    This is the single place the three pipelines are told apart, so a
    calibrated null and the test it serves always share one pipeline.
    """
    if method == "cla":
        return classical_ssp(layout)
    if method == "rnk":
        return classical_ssp(rank_transform(layout))
    if method == "mcd":
        return weighted_ssp(layout, robust_weights(layout, config, rng))
    raise DomainError(f"unknown method {method!r}, expected one of {METHODS}")


def _logdet(matrix: np.ndarray) -> float:
    return cholesky(matrix).log_det


def wilks_lambda(
    decomp: SspDecomposition, hypothesis: Hypothesis, model: Model
) -> float:
    """Wilks' Lambda determinant ratio for one hypothesis.

    Interactions: |W|/|E|.  Row effects: |W|/|W + R_row| when the model
    has interaction terms, |E|/|E + R_row| without them.  Column
    effects use R_col.  Computed via log-determinants and clamped to
    (0, 1] against rounding.

    Raises
    ------
    DomainError
        Interaction hypothesis under the additive model, or a ratio
        above one by more than rounding could explain.
    NotPositiveDefinite
        A required matrix is not positive definite.
    """
    if hypothesis is Hypothesis.INTERACTIONS:
        if model is not Model.WITH_INTERACTIONS:
            raise DomainError("interaction test requires the model with interactions")
        log_num, log_den = _logdet(decomp.W), _logdet(decomp.E)
    else:
        effect = decomp.R_row if hypothesis is Hypothesis.ROW_EFFECTS else decomp.R_col
        base = decomp.W if model is Model.WITH_INTERACTIONS else decomp.E
        log_num, log_den = _logdet(base), _logdet(base + effect)
    lam = math.exp(log_num - log_den)
    if lam > 1.0:
        if lam > 1.0 + _LAMBDA_SLACK:
            raise DomainError(
                f"determinant ratio {lam} exceeds 1 beyond rounding tolerance"
            )
        lam = 1.0
    return lam


def bartlett_dfs(
    layout: TwoWayLayout, model: Model, hypothesis: Hypothesis
) -> tuple[int, int]:
    """Error and hypothesis degrees of freedom (nu1, nu2) for Bartlett."""
    r, c, n = layout.r, layout.c, layout.n
    if model is Model.WITH_INTERACTIONS:
        nu1 = r * c * (n - 1)
    else:
        nu1 = r * c * n - r - c + 1
    if hypothesis is Hypothesis.ROW_EFFECTS:
        nu2 = r - 1
    elif hypothesis is Hypothesis.COL_EFFECTS:
        nu2 = c - 1
    else:
        nu2 = (r - 1) * (c - 1)
    return nu1, nu2


def bartlett_pvalue(lam: float, p: int, nu1: float, nu2: float) -> float:
    """Bartlett chi-square approximation p-value for Wilks' Lambda.

    The statistic -(nu1 - (p - nu2 + 1)/2) * ln(lambda) is referred to
    a chi-square distribution with p*nu2 degrees of freedom.
    """
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    if p < 1:
        raise DomainError(f"dimension must be positive, got {p}")
    if nu1 <= 0 or nu2 <= 0:
        raise DomainError(f"degrees of freedom must be positive, got {nu1}, {nu2}")
    statistic = -(nu1 - (p - nu2 + 1) / 2.0) * math.log(lam)
    return 1.0 - chi2_cdf(statistic, p * nu2)


class CalibrationLookup(Protocol):
    """Provider of simulated null-distribution parameters.

    ``entry_for`` returns an object with ``delta`` and ``q`` attributes
    for the requested design and hypothesis, or raises
    MissingCalibration.
    """

    def entry_for(self, p: int, r: int, c: int, n: int,
                  model: Model, hypothesis: Hypothesis): ...


def calibrated_pvalue(lam: float, entry) -> float:
    """P-value of -ln(lambda) under the fitted delta * chi2(q) null.

    ``entry`` carries the fitted parameters as attributes ``delta`` and
    ``q``.
    """
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    delta, q = float(entry.delta), float(entry.q)
    if delta <= 0 or q <= 0:
        raise DomainError(f"delta and q must be positive, got {delta}, {q}")
    return 1.0 - chi2_cdf(-math.log(lam) / delta, q)


@dataclass(frozen=True)
class BartlettApprox:
    """Chi-square approximation parameters used for a p-value."""

    p: int
    nu1: int
    nu2: int


@dataclass(frozen=True)
class CalibratedApprox:
    """Simulated null-distribution parameters used for a p-value."""

    delta: float
    q: float


@dataclass(frozen=True, eq=False)
class WilksTestReport:
    """One hypothesis test result."""

    method: str
    hypothesis: Hypothesis
    model: Model
    lambda_: float
    approx: BartlettApprox | CalibratedApprox
    p_value: float


def hypotheses_for(model: Model) -> tuple[Hypothesis, ...]:
    """Hypotheses applicable under ``model``, in reporting order."""
    if model is Model.WITH_INTERACTIONS:
        return (Hypothesis.ROW_EFFECTS, Hypothesis.COL_EFFECTS,
                Hypothesis.INTERACTIONS)
    return (Hypothesis.ROW_EFFECTS, Hypothesis.COL_EFFECTS)


def run_manova(
    layout: TwoWayLayout,
    model: Model,
    method: str,
    config: McdConfig | None = None,
    calibration_source: CalibrationLookup | None = None,
    rng: RngStream | None = None,
) -> list[WilksTestReport]:
    """Run every applicable hypothesis test with one method.

    Parameters
    ----------
    layout : TwoWayLayout
    model : Model
        Emits row and column reports, plus an interaction report when
        the model has interaction terms.
    method : {"cla", "rnk", "mcd"}
        Classical, rank-transformed, or robust statistics.  The first
        two use Bartlett p-values; "mcd" uses calibrated p-values.
    config : McdConfig, optional
        MCD settings for the robust method.
    calibration_source : CalibrationLookup, optional
        Required for "mcd": supplies (delta, q) per hypothesis.
    rng : RngStream, optional
        Randomness for the robust weight construction.

    Raises
    ------
    MissingCalibration
        Method "mcd" without a source, or the source has no entry.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "mcd" and calibration_source is None:
        raise MissingCalibration(
            "method 'mcd' needs a calibration source for its p-values"
        )
    decomp = method_ssp(layout, method, config, rng)
    reports = []
    for hypothesis in hypotheses_for(model):
        if method == "mcd":
            entry = calibration_source.entry_for(
                layout.p, layout.r, layout.c, layout.n, model, hypothesis
            )
            approx = CalibratedApprox(float(entry.delta), float(entry.q))
        else:
            approx = BartlettApprox(layout.p, *bartlett_dfs(layout, model, hypothesis))
        lam = wilks_lambda(decomp, hypothesis, model)
        p_value = (calibrated_pvalue(lam, approx) if method == "mcd"
                   else bartlett_pvalue(lam, approx.p, approx.nu1, approx.nu2))
        reports.append(
            WilksTestReport(method, hypothesis, model, lam, approx, p_value)
        )
    return reports
