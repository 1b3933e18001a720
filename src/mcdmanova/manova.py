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
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .distributions import RngStream, chi2_cdf, chi2_quantile, cholesky
from .errors import (
    CellWiped,
    DegenerateWeights,
    DimensionError,
    DomainError,
    EmptyTable,
    MissingCalibration,
    NonNumeric,
    NotPositiveDefinite,
    TooFewLevels,
    Unbalanced,
)
from .mcd import (
    REWEIGHT_QUANTILE,
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
    """Balanced two-factor dataset, its observations in cell order.

    Attributes
    ----------
    r, c : int
        Number of row and column factor levels, both >= 2.
    n : int
        Observations per cell, >= 2; every cell holds exactly n.
    p : int
        Response dimension.
    observations : array, shape (N, p)
        Responses, N = r*c*n, grouped by cell: the n rows of cell (0, 0),
        then those of cell (0, 1), and so on, the row level major.  Inside
        :func:`~mcdmanova.simulation.replicate` it may be a (b, N, p) block
        of b replications, built by ``_holding`` only: the SSP and rank
        kernels take a block in one pass.  The constructor takes (N, p)
        and keeps a read-only copy.
    """

    r: int
    c: int
    n: int
    p: int
    observations: np.ndarray

    def __post_init__(self):
        if self.r < 2 or self.c < 2:
            raise TooFewLevels(
                f"need at least 2 levels per factor, got r={self.r}, c={self.c}"
            )
        if self.n < 2:
            raise DomainError(f"need at least 2 observations per cell, got n={self.n}")
        N, p = self.size, self.p
        if p < 1:
            raise DimensionError(f"response dimension must be positive, got p={p}")
        obs = np.array(self.observations, dtype=np.float64, order="C")
        if obs.shape != (N, p):
            raise DimensionError(
                f"observations shape {obs.shape} does not match (r*c*n, p) = {(N, p)}"
            )
        if not np.all(np.isfinite(obs)):
            raise NonNumeric("observations contain non-finite values")
        obs.setflags(write=False)
        object.__setattr__(self, "observations", obs)

    @property
    def size(self) -> int:
        """Total observation count N = r*c*n."""
        return self.r * self.c * self.n

    def _holding(self, obs: np.ndarray) -> TwoWayLayout:
        """This design holding ``obs``, a checked read-only (N, p) or (b, N, p) array."""
        twin = object.__new__(TwoWayLayout)
        twin.__dict__.update(self.__dict__, p=obs.shape[-1], observations=obs)
        return twin

    def cell_array(self) -> np.ndarray:
        """The observations as a read-only (r, c, n, p) view, one cell each."""
        return self.observations.reshape(self.r, self.c, self.n, self.p)


@lru_cache(maxsize=64)
def _design_template(r: int, c: int, n: int) -> TwoWayLayout:
    """Validated layout of the (r, c, n) design, p = 1.

    A design that fails validation raises on every call, since errors
    are not cached.
    """
    return TwoWayLayout(r, c, n, 1, np.zeros((r * c * n, 1)))


@lru_cache(maxsize=64)
def _cell_levels(r: int, c: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row level, column level and cell index of each observation of the
    (r, c, n) design in cell order, as read-only arrays."""
    rows, cols, _ = np.indices((r, c, n), dtype=np.intp).reshape(3, -1)
    return tuple(map(_read_only, (rows, cols, rows * c + cols)))


def layout_from_cells(cells: np.ndarray) -> TwoWayLayout:
    """Build a layout from an (r, c, n, p) array of cell observations."""
    cells = np.asarray(cells, dtype=np.float64)
    if cells.ndim != 4:
        raise DimensionError(f"cells must be four-dimensional, got shape {cells.shape}")
    r, c, n, p = cells.shape
    return TwoWayLayout(r, c, n, p, cells.reshape(r * c * n, p))


def validate_layout(raw_table: Sequence[Sequence]) -> TwoWayLayout:
    """Check and assemble a raw table into a balanced TwoWayLayout.

    Parameters
    ----------
    raw_table : sequence of rows
        Each row is (row level, column level, v_1, ..., v_p).  Levels
        may be any hashable values; level indices are assigned in order
        of first appearance.  The layout groups the rows by cell; each
        cell keeps its rows in table order.

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
    n = len(rows) // (r * c)
    cell = row_idx * c + col_idx
    # built first, so a cell size below 2 is reported before an unbalanced cell
    layout = TwoWayLayout(r, c, n, p, values[np.argsort(cell, kind="stable")])
    counts = np.bincount(cell, minlength=r * c)
    if not np.all(counts == n):
        bad = int(np.flatnonzero(counts != n)[0])
        raise Unbalanced(
            f"cell ({bad // c}, {bad % c}) holds {counts[bad]} observations, expected {n}"
        )
    return layout


def _mid_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks down axis -2 of ``x``, ties given their mean rank.

    ``x`` is one (N, p) sample or a (b, N, p) stack of them; every
    column of every sample becomes one line of N values.  An argsort
    orders each line; a run of equal values holding sorted positions
    ``first .. end - 1`` (0-based) gets the mid-rank
    ``(first + end + 1) / 2``, whatever order the sort left the run in,
    so the sort need not be stable.  The positions are integers, so
    every rank is an exact integer or half-integer.
    """
    columns = np.swapaxes(x, -1, -2)
    lines = columns.reshape(-1, columns.shape[-1])
    count, N = lines.shape
    order = np.argsort(lines, axis=1)
    line = np.arange(count)[:, None]
    ordered = lines[line, order]
    pos = np.arange(N)
    starts = np.ones(lines.shape, dtype=bool)  # a run of equal values starts here
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    ends = np.ones(lines.shape, dtype=bool)  # ... and ends here
    ends[:, :-1] = starts[:, 1:]
    end = np.minimum.accumulate(np.where(ends, pos + 1, N)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty(lines.shape)
    ranks[line, order] = (first + end + 1) / 2
    return np.swapaxes(ranks.reshape(columns.shape), -1, -2)


def rank_transform(layout: TwoWayLayout) -> TwoWayLayout:
    """Replace each response coordinate by its rank among all N values.

    Ties receive mid-ranks, computed with NumPy and equal to SciPy's
    ``rankdata(..., method="average")``.  Ranking each coordinate
    separately over the pooled sample is the usual rank transformation
    for MANOVA; the classical statistics applied to the ranked layout
    give the rank test.

    A block layout is ranked one replication at a time in one pass.  The
    result holds its ranks as one read-only array, taken as it is: ranks
    of finite data are finite.
    """
    ranks = np.ascontiguousarray(_mid_ranks(layout.observations))
    ranks.setflags(write=False)
    return layout._holding(ranks)


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Zero/one observation weights of ``layout`` with their marginal totals.

    ``WeightSet(layout, w)`` copies the 0/1 vector ``w``, one weight per
    observation of ``layout`` in its cell order, and sums it once per
    cell, row, column and overall, because every downstream weighted
    mean divides by those totals.  The layout itself is not kept.
    """

    layout: InitVar[TwoWayLayout]
    w: np.ndarray
    cell_totals: np.ndarray = field(init=False)
    row_totals: np.ndarray = field(init=False)
    col_totals: np.ndarray = field(init=False)
    grand_total: int = field(init=False)

    def __post_init__(self, layout: TwoWayLayout):
        w = np.array(self.w, dtype=np.int64)
        if w.shape != (layout.size,):
            raise DimensionError(
                f"weight vector shape {w.shape} does not match N = {layout.size}"
            )
        if not np.all((w == 0) | (w == 1)):
            raise DomainError("weights must be 0 or 1")
        cell = w.reshape(layout.r, layout.c, layout.n).sum(axis=2)
        totals = {
            "w": w,
            "cell_totals": cell,
            "row_totals": cell.sum(axis=1),
            "col_totals": cell.sum(axis=0),
        }
        for name, arr in totals.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "grand_total", int(w.sum()))


def unit_weights(layout: TwoWayLayout) -> WeightSet:
    """Weight one for every observation.

    All weights are one and every cell holds n, so the totals depend on
    the design alone: one read-only WeightSet serves each (r, c, n).
    """
    return _unit_weights(layout.r, layout.c, layout.n)


@lru_cache(maxsize=64)
def _unit_weights(r: int, c: int, n: int) -> WeightSet:
    template = _design_template(r, c, n)
    return WeightSet(template, np.ones(template.size, dtype=np.int64))


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class SspDecomposition:
    """Weighted sums-of-squares-and-products matrices of a layout, or of
    each replication of a block layout.

    W is the within-cell matrix, E the additive-model residual matrix,
    R_row and R_col the row- and column-effect matrices.  Each is one
    p x p matrix, or a (b, p, p) stack holding member i's matrix at
    index i.  The matrices are read-only, so the log-determinants
    :func:`wilks_lambda` takes of them are memoised on the decomposition,
    one array per matrix name.

    A stack has a length, and indexing it gives a member (read-only
    views) or, for a slice or an index array, a smaller stack; either
    starts with an empty memo.
    """

    W: np.ndarray
    E: np.ndarray
    R_row: np.ndarray
    R_col: np.ndarray
    _log_det_memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for name in ("W", "E", "R_row", "R_col"):
            mat = np.asarray(getattr(self, name), dtype=np.float64)
            if mat.flags.writeable:
                # the caller's array stays writeable; the copy is frozen
                mat = _read_only(mat.copy())
            object.__setattr__(self, name, mat)

    def __reduce__(self):
        # Rebuilt through the constructor, so an unpickled decomposition
        # is read-only again and starts with an empty log-det memo.
        return type(self), (self.W, self.E, self.R_row, self.R_col)

    def __len__(self) -> int:
        if self.W.ndim == 2:
            raise TypeError("a single decomposition has no members")
        return len(self.W)

    def __getitem__(self, index) -> SspDecomposition:
        if self.W.ndim == 2:
            raise TypeError("a single decomposition has no members")
        return SspDecomposition(
            self.W[index], self.E[index], self.R_row[index], self.R_col[index]
        )


def weighted_ssp(layout: TwoWayLayout, weights: WeightSet) -> SspDecomposition:
    """Weighted SSP matrices of a balanced two-way layout.

    The residuals are taken from weighted means, which divide by the
    weighted counts (cell, row, column, grand); each SSP matrix is a
    weighted sum of outer products of the matching residuals:

      W     sum of w * (y - cell mean)(...)^T
      E     sum of w * (y - row mean - col mean + grand mean)(...)^T
      R_row sum over rows of row_total * (row mean - grand mean)(...)^T

    and R_col analogously over columns.

    A block layout gives a stacked decomposition in one pass, the one
    WeightSet weighing every replication; its member i equals, bit for
    bit, the decomposition replication i gives alone.

    Raises
    ------
    DimensionError
        ``weights`` is not one WeightSet of the layout's design.
    DegenerateWeights
        Fewer than p + 2 observations carry weight one.
    CellWiped
        Some cell has weight total zero, so its mean is undefined.
    """
    if not isinstance(weights, WeightSet):
        raise DimensionError(f"weights must be one WeightSet, got {type(weights).__name__}")
    r, c, n, p, N = layout.r, layout.c, layout.n, layout.p, layout.size
    Y = layout.observations.reshape(-1, N, p)
    b = len(Y)
    if weights.w.shape != (N,):
        raise DimensionError(
            f"weight vector shape {weights.w.shape} does not match N = {N}"
        )
    if weights.cell_totals.shape != (r, c):
        R, C = weights.cell_totals.shape
        raise DimensionError(f"weights of a {R}x{C} design do not match the {r}x{c} layout")
    if weights.grand_total < p + 2:
        raise DegenerateWeights(
            f"only {weights.grand_total} observations have weight one, "
            f"need at least p + 2 = {p + 2}"
        )
    if (weights.cell_totals == 0).any():
        bad = np.argwhere(weights.cell_totals == 0)[0]
        raise CellWiped(f"cell ({bad[0]}, {bad[1]}) has zero weight total")

    rows, cols, idx = _cell_levels(r, c, n)
    w = weights.w.astype(np.float64)[:, None]
    row_n = weights.row_totals.astype(np.float64)[:, None]
    col_n = weights.col_totals.astype(np.float64)[:, None]

    # Each cell's weighted rows summed one after another (what
    # np.bincount does): a running sum adds in that order.
    running = np.cumsum((Y * w).reshape(b, r * c, n, p), axis=2)
    cell_sums = running[:, :, -1].reshape(b, r, c, p)
    cell_means = cell_sums / weights.cell_totals.astype(np.float64)[:, :, None]
    row_means = cell_sums.sum(axis=2) / row_n
    col_means = cell_sums.sum(axis=1) / col_n
    grand_mean = cell_sums.sum(axis=(1, 2))[:, None] / float(weights.grand_total)

    def weighted_cross(dev: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """``(dev * weight).T @ dev`` for every member of the stack."""
        return np.matmul((dev * weight).transpose(0, 2, 1), dev)

    W = weighted_cross(Y - cell_means.reshape(b, r * c, p).take(idx, axis=1), w)
    resid_e = Y - row_means.take(rows, axis=1) - col_means.take(cols, axis=1) + grand_mean
    E = weighted_cross(resid_e, w)
    R_row = weighted_cross(row_means - grand_mean, row_n)
    R_col = weighted_cross(col_means - grand_mean, col_n)
    decomp = SspDecomposition(*map(_read_only, (W, E, R_row, R_col)))
    return decomp if layout.observations.ndim == 3 else decomp[0]


def classical_ssp(layout: TwoWayLayout) -> SspDecomposition:
    """SSP decomposition with every observation at weight one; a block
    layout gives a stacked one, as by :func:`weighted_ssp`."""
    return weighted_ssp(layout, unit_weights(layout))


def robust_weights(
    layout: TwoWayLayout, config: McdConfig = McdConfig(), rng: RngStream = RngStream(0)
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
    if layout.n < layout.p + 2:
        raise DimensionError(
            f"per-cell sample size {layout.n} is too small for p = {layout.p}, "
            f"need at least p + 2"
        )
    stack = layout.observations.reshape(layout.r * layout.c, layout.n, layout.p)
    raws = fast_mcd_batch(stack, config, rng=rng.substream(0))
    rews = reweight_batch(stack, raws)
    mu0 = np.stack([est.location for est in rews])
    resid = (stack - mu0[:, None]).reshape(layout.size, layout.p)
    pooled_raw = fast_mcd(resid, config, rng=rng.substream(1))
    c0 = reweight(resid, pooled_raw).scatter
    distances = robust_distances(resid, np.zeros(layout.p), c0)
    cutoff = math.sqrt(chi2_quantile(REWEIGHT_QUANTILE, layout.p))
    weights = WeightSet(layout, (distances <= cutoff).astype(np.int64))
    if weights.grand_total < layout.p + 2:
        raise DegenerateWeights(
            f"only {weights.grand_total} observations kept by the robust cutoff"
        )
    return weights


def method_ssp(
    layout: TwoWayLayout,
    method: str,
    config: McdConfig = McdConfig(),
    rng: RngStream = RngStream(0),
) -> SspDecomposition:
    """SSP decomposition of ``layout`` under one of the ``METHODS``.

    "cla" uses unit weights, "rnk" unit weights on the rank-transformed
    layout, and "mcd" the robust weights (with ``config`` and ``rng``).
    This is the single place the three pipelines are told apart, so a
    calibrated null and the test it serves always share one pipeline.

    For "cla" and "rnk", a block layout gives a stacked decomposition,
    as by :func:`classical_ssp`.
    """
    if method == "cla":
        return classical_ssp(layout)
    if method == "rnk":
        return classical_ssp(rank_transform(layout))
    if method == "mcd":
        return weighted_ssp(layout, robust_weights(layout, config, rng))
    raise DomainError(f"unknown method {method!r}, expected one of {METHODS}")


# Every matrix whose log-determinant some Lambda under the model reads;
# "W+R_row" is W + R_row.  Lambda under interactions never needs E + R.
_MODEL_MATRICES = {
    Model.WITH_INTERACTIONS: ("W", "E", "W+R_row", "W+R_col"),
    Model.ADDITIVE_ONLY: ("E", "E+R_row", "E+R_col"),
}


def _matrix(decomp: SspDecomposition, name: str) -> np.ndarray:
    base, _, effect = name.partition("+")
    mat = getattr(decomp, base)
    return mat + getattr(decomp, effect) if effect else mat


def _log_dets(
    decomp: SspDecomposition, model: Model, names: tuple[str, str]
) -> list[float | np.ndarray]:
    """Log-determinants of ``names``, one per member, from the memo.

    A miss factors every matrix the model reads that is not yet memoised,
    of every member, in one stacked call, so each distinct matrix is
    factored once.
    """
    memo = decomp._log_det_memo
    missing = [name for name in _MODEL_MATRICES[model] if name not in memo]
    if missing:
        # member-major, as one (k, p, p) stack per member laid end to end
        mats = np.stack([_matrix(decomp, name) for name in missing], axis=-3)
        p = mats.shape[-1]
        log_det = cholesky(mats.reshape(-1, p, p)).log_det.reshape(mats.shape[:-2])
        for j, name in enumerate(missing):
            memo[name] = log_det[..., j]
    return [memo[name] for name in names]


def wilks_lambda(
    decomp: SspDecomposition, hypothesis: Hypothesis, model: Model
) -> float | np.ndarray:
    """Wilks' Lambda determinant ratio for one hypothesis.

    Interactions: |W|/|E|.  Row effects: |W|/|W + R_row| when the model
    has interaction terms, |E|/|E + R_row| without them.  Column
    effects use R_col.  Computed via log-determinants and clamped to
    (0, 1] against rounding.

    For a stacked decomposition the matrices of all members are factored
    together, and the result is an array holding, bit for bit, the float
    each member gives alone.

    Raises
    ------
    DomainError
        Interaction hypothesis under the additive model, or a ratio
        above one by more than rounding could explain.
    NotPositiveDefinite
        A required matrix is not positive definite (for a stack, the
        error of its first member that has one).
    """
    if hypothesis is Hypothesis.INTERACTIONS:
        if model is not Model.WITH_INTERACTIONS:
            raise DomainError("interaction test requires the model with interactions")
        num, den = "W", "E"
    else:
        num = "W" if model is Model.WITH_INTERACTIONS else "E"
        effect = "R_row" if hypothesis is Hypothesis.ROW_EFFECTS else "R_col"
        den = f"{num}+{effect}"
    single = decomp.W.ndim == 2
    try:
        log_num, log_den = _log_dets(decomp, model, (num, den))
    except (DomainError, NotPositiveDefinite):
        if not single:
            # Find the failing members, each with its own fallback below.
            return np.array([wilks_lambda(d, hypothesis, model) for d in decomp])
        # Some matrix of the stack failed the gate, maybe one only another
        # Lambda reads: factor this ratio's two alone, as a lone test would.
        log_num, log_den = (cholesky(_matrix(decomp, name)).log_det for name in (num, den))
    lams = []
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    for log_ratio in np.ravel(log_num - log_den).tolist():
        lam = math.exp(log_ratio)
        if lam > 1.0:
            if lam > 1.0 + _LAMBDA_SLACK:
                raise DomainError(
                    f"determinant ratio {lam} exceeds 1 beyond rounding tolerance"
                )
            lam = 1.0
        lams.append(lam)
    return lams[0] if single else np.array(lams)


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


def _log_lambdas(lam: float | np.ndarray) -> float | np.ndarray:
    """``math.log`` of a Wilks' Lambda, or of each of an array of them.

    Raises DomainError for the first lambda, in C order, outside (0, 1].
    """
    values = np.ravel(lam).tolist()
    for value in values:
        if not 0.0 < value <= 1.0:
            raise DomainError(f"lambda must lie in (0, 1], got {value}")
    logs = list(map(math.log, values))
    return logs[0] if np.ndim(lam) == 0 else np.reshape(logs, np.shape(lam))


def bartlett_pvalue(
    lam: float | np.ndarray, p: int, nu1: float | np.ndarray, nu2: float | np.ndarray
) -> float | np.ndarray:
    """Bartlett chi-square approximation p-value for Wilks' Lambda.

    The statistic -(nu1 - (p - nu2 + 1)/2) * ln(lambda) is referred to
    a chi-square distribution with p*nu2 degrees of freedom.

    ``lam`` may also be an array of lambdas (a stack, as :func:`wilks_lambda`
    gives for a stacked decomposition), and ``nu1`` and ``nu2`` arrays
    broadcast against it; the p-values then come from one
    :func:`chi2_cdf` pass, each equal, bit for bit, to the float its
    lambda gives alone.
    """
    logs = _log_lambdas(lam)
    if p < 1:
        raise DomainError(f"dimension must be positive, got {p}")
    if np.any(np.less_equal(nu1, 0)) or np.any(np.less_equal(nu2, 0)):
        raise DomainError(f"degrees of freedom must be positive, got {nu1}, {nu2}")
    statistic = -(nu1 - (p - nu2 + 1) / 2.0) * logs
    return 1.0 - chi2_cdf(statistic, p * nu2)


def calibrated_pvalue(lam: float | np.ndarray, entry) -> float | np.ndarray:
    """P-value of -ln(lambda) under the fitted delta * chi2(q) null.

    ``entry`` carries the fitted parameters as attributes ``delta`` and
    ``q``.  ``lam`` may also be an array of lambdas, whose p-values come
    from one :func:`chi2_cdf` pass, as in :func:`bartlett_pvalue`.
    """
    logs = _log_lambdas(lam)
    delta, q = float(entry.delta), float(entry.q)
    if delta <= 0 or q <= 0:
        raise DomainError(f"delta and q must be positive, got {delta}, {q}")
    return 1.0 - chi2_cdf(-logs / delta, q)


@dataclass(frozen=True)
class BartlettApprox:
    """Chi-square approximation parameters used for a p-value."""

    p: int
    nu1: int
    nu2: int


@dataclass(frozen=True, eq=False)
class WilksTestReport:
    """One hypothesis test result; ``approx`` is a BartlettApprox for
    "cla" and "rnk", and for "mcd" the entry its calibration source returned."""

    method: str
    hypothesis: Hypothesis
    model: Model
    lambda_: float
    approx: object
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
    config: McdConfig = McdConfig(),
    calibration_source=None,
    rng: RngStream = RngStream(0),
    hypotheses: Sequence[Hypothesis] | None = None,
) -> list[WilksTestReport]:
    """Run the hypothesis tests of ``model`` with one method.

    Parameters
    ----------
    layout : TwoWayLayout
    model : Model
        By default emits row and column reports, plus an interaction
        report when the model has interaction terms.
    method : {"cla", "rnk", "mcd"}
        Classical, rank-transformed, or robust statistics.  The first
        two use Bartlett p-values; "mcd" uses calibrated p-values.
    config : McdConfig, optional
        MCD settings for the robust method and its calibration lookups.
    calibration_source : optional
        Required for "mcd": an object with the ``entry_for`` method of
        :class:`~mcdmanova.calibration.CalibrationSource`, asked once per
        hypothesis for the entry whose ``delta`` and ``q`` give its p-value.
    rng : RngStream, optional
        Randomness for the robust weight construction.
    hypotheses : sequence of Hypothesis, optional
        The tests to run, in reporting order, each a member of
        ``hypotheses_for(model)`` or its value ("row", "col",
        "interaction"); ``hypotheses_for(model)`` by default.  Only
        their calibration entries are looked up.

    Raises
    ------
    DomainError
        An unknown method, or a hypothesis that is not one of
        ``hypotheses_for(model)``.
    MissingCalibration
        Method "mcd" without a source, or the source has no entry for a
        hypothesis tested.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}, expected one of {METHODS}")
    applicable = hypotheses_for(model)
    if hypotheses is None:
        hypotheses = applicable
    else:
        tested = []
        for given in hypotheses:
            try:
                hypothesis = Hypothesis(given)
            except ValueError:
                hypothesis = None
            if hypothesis not in applicable:
                raise DomainError(
                    f"hypothesis {given!r} is not tested under the {model.value} model"
                )
            tested.append(hypothesis)
        hypotheses = tested
    if method == "mcd" and calibration_source is None:
        raise MissingCalibration(
            "method 'mcd' needs a calibration source for its p-values"
        )
    decomp = method_ssp(layout, method, config, rng)
    approxes, lams, p_values = [], [], []
    for hypothesis in hypotheses:
        if method == "mcd":
            approxes.append(calibration_source.entry_for(
                layout.p, layout.r, layout.c, layout.n, model, hypothesis, config
            ))
        else:
            approxes.append(BartlettApprox(layout.p, *bartlett_dfs(layout, model, hypothesis)))
        lams.append(wilks_lambda(decomp, hypothesis, model))
        if method == "mcd":
            p_values.append(calibrated_pvalue(lams[-1], approxes[-1]))
    # the Bartlett p-values of every hypothesis in one chi-square pass
    if method != "mcd":
        nu1, nu2 = np.array([(a.nu1, a.nu2) for a in approxes]).reshape(-1, 2).T
        p_values = bartlett_pvalue(np.array(lams), layout.p, nu1, nu2).tolist()
    return [
        WilksTestReport(method, hypothesis, model, lam, approx, p_value)
        for hypothesis, lam, approx, p_value in zip(hypotheses, lams, approxes, p_values)
    ]
