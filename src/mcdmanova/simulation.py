"""Monte Carlo experiments: size, power and robustness of the tests.

Three experiment kinds generate balanced two-way datasets under a null,
a shifted-mean alternative, or a contamination model, run the classical,
rank-transformed and robust tests on identical data, and tally rejection
rates.  Empirical-distribution emitters turn the retained p-values into
P value plots and size-power curves for external plotting.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from dataclasses import dataclass
from itertools import product, repeat
from pathlib import Path
from typing import Callable

import numpy as np

from .distributions import RngStream, _philox_keys, _rekeyed, chi2_quantile
from .errors import (
    CellWiped,
    DegenerateWeights,
    DimensionError,
    DomainError,
    MismatchedReports,
    MissingCalibration,
    NonNumeric,
    NotPositiveDefinite,
    SingularSubset,
)
from .manova import (
    METHODS,
    Hypothesis,
    Model,
    TwoWayLayout,
    _design_template,
    bartlett_dfs,
    bartlett_pvalue,
    calibrated_pvalue,
    hypotheses_for,
    method_ssp,
    wilks_lambda,
)
# Unused here since method_ssp dispatches; perfbench/tracer.py wraps these names.
from .manova import classical_ssp, rank_transform, robust_weights, weighted_ssp  # noqa: F401
from .mcd import McdConfig

__all__ = [
    "EXPERIMENT_KINDS",
    "GRID_MAX",
    "GRID_POINTS",
    "ContaminationSpec",
    "Design",
    "ExperimentReport",
    "ExperimentSpec",
    "MeanLayout",
    "experiment_pairs",
    "format_report_table",
    "gen_alternative",
    "gen_contaminated",
    "gen_null",
    "gen_power_additive",
    "gen_power_with_interactions",
    "pvalue_plot_data",
    "read_experiment_file",
    "replicate",
    "run_experiment",
    "size_power_curve",
]

logger = logging.getLogger(__name__)

EXPERIMENT_KINDS = ("size", "power_inter", "power_additive", "robustness")

# nominal-level range and resolution of the EDF emitters' grid
GRID_MAX = 0.2
GRID_POINTS = 201

# A replication is redrawn when the estimation pipeline degenerates on
# the simulated data (for example, too many coincident points).
_DEGENERATE = (SingularSubset, DegenerateWeights, CellWiped, NotPositiveDefinite)

# Attempts evaluated together by `replicate`; it bounds memory only.
_BLOCK = 64

# Fewest replications for which `replicate` sends its "mcd" attempts to a
# process pool.  On a 2-core VM a 2-worker fork pool starts and stops in
# 12-21 ms, and one 3x2 n=30 p=2 attempt takes ~14-16 ms, so the pool
# breaks even near m = 4; `calibrate_design` on that design ran 1.07x /
# 1.32x / 1.56x as fast at m' = 4 / 8 / 12.  Twice the break-even keeps
# m' = 3 calls and single-table CLI runs serial.
_MIN_PARALLEL_ATTEMPTS = 8


@dataclass(frozen=True)
class Design:
    """Shape of a balanced two-way layout: r x c cells of n p-vectors."""

    r: int
    c: int
    n: int
    p: int

    def __post_init__(self) -> None:
        if self.r < 2 or self.c < 2:
            raise DomainError(f"need at least 2 levels per factor, got {self.r}x{self.c}")
        if self.n < 2:
            raise DomainError(f"need at least 2 observations per cell, got {self.n}")
        if self.p < 1:
            raise DomainError(f"p must be positive, got {self.p}")


@dataclass(frozen=True)
class MeanLayout:
    """Cell means of an alternative: an (r, c, p) array of finite mu vectors."""

    design: Design
    mu: np.ndarray

    def __post_init__(self) -> None:
        mu = np.ascontiguousarray(np.asarray(self.mu, dtype=np.float64))
        expected = (self.design.r, self.design.c, self.design.p)
        if mu.shape != expected:
            raise DimensionError(
                f"mean layout shape {mu.shape} does not match design {expected}"
            )
        if not np.all(np.isfinite(mu)):
            raise NonNumeric("mean layout has non-finite entries")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class ContaminationSpec:
    """Mixture contamination applied to the last cell (r-1, c-1).

    Observations of that cell are drawn independently from
    ``(1 - epsilon) N(0, I) + epsilon N(mu*, 0.25^2 I)`` where
    ``mu* = (nu Q_p, ..., nu Q_p)`` and ``Q_p = sqrt(chi2(p; 0.999)/p)``
    equalizes the shift across dimensions.
    """

    epsilon: float
    nu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 0.5:
            raise DomainError(
                f"epsilon must lie in [0, 0.5), got {self.epsilon}"
            )
        if not 0.0 <= self.nu < math.inf:
            raise DomainError(f"nu must be non-negative and finite, got {self.nu}")


@dataclass(frozen=True, slots=True, eq=False)
class ExperimentReport:
    """Rejection tally of one method on one hypothesis at one setting.

    The report's p-values are row ``row`` of ``block``, a read-only
    (k, m) array that :func:`run_experiment` shares among the reports of
    one call; a single vector of m p-values is a block of one row.  A
    writeable ``block`` is copied first, so the caller's array stays
    writeable.  Reports compare and hash by identity.
    """

    design: Design
    method: str
    model: Model
    hypothesis: Hypothesis
    kind: str
    setting: float
    alpha: float
    m: int
    block: np.ndarray
    row: int = 0

    def __post_init__(self) -> None:
        block = np.atleast_2d(np.asarray(self.block, dtype=np.float64))
        if block.flags.writeable or not block.flags.c_contiguous:
            block = block.copy()
        if block.ndim != 2 or block.shape[1] != self.m:
            raise DimensionError(
                f"expected rows of {self.m} p-values, got shape {block.shape}"
            )
        if not 0 <= self.row < block.shape[0]:
            raise DimensionError(
                f"row {self.row} is outside a block of {block.shape[0]} rows"
            )
        block.setflags(write=False)
        object.__setattr__(self, "block", block)

    @property
    def p_values(self) -> np.ndarray:
        """The m p-values: a read-only view of this report's row."""
        return self.block[self.row]

    @property
    def rejection_rate(self) -> float:
        """The exact fraction of p-values below ``alpha``."""
        return int(np.count_nonzero(self.p_values < self.alpha)) / self.m


def _normal_cells(
    design: Design, rng: RngStream | np.random.Generator
) -> tuple[np.random.Generator, np.ndarray]:
    """The generator of ``rng`` and a new (r, c, n, p) array of standard
    normals drawn from it: a stream's new generator, or ``rng`` itself."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return gen, gen.standard_normal((design.r, design.c, design.n, design.p))


def _cells_layout(design: Design, cells: np.ndarray) -> TwoWayLayout:
    """The design's layout holding a read-only view of ``cells``, a
    finite C-contiguous (r, c, n, p) float64 array left unchanged."""
    view = cells.reshape(-1, design.p)
    view.setflags(write=False)
    return _design_template(design.r, design.c, design.n)._holding(view)


def gen_null(design: Design, rng: RngStream | np.random.Generator) -> TwoWayLayout:
    """All cells i.i.d. standard normal; a pure function of the stream.

    ``rng`` is a stream, drawn from its start, or a generator, drawn
    from where it stands; every ``gen_*`` function takes it alike.
    """
    return _cells_layout(design, _normal_cells(design, rng)[1])


def gen_alternative(
    design: Design, means: MeanLayout, rng: RngStream | np.random.Generator
) -> TwoWayLayout:
    """Standard normal cells shifted by per-cell means.

    Consumes the stream exactly like :func:`gen_null`, so a zero
    MeanLayout reproduces the null dataset bit for bit.
    """
    if means.design != design:
        raise DimensionError("mean layout was built for a different design")
    cells = _normal_cells(design, rng)[1]
    cells += means.mu[:, :, None, :]
    return _cells_layout(design, cells)


def gen_power_with_interactions(design: Design, d: float) -> MeanLayout:
    """Least-favorable interaction pattern with effect size d.

    Only the four corner cells move, by d/4 along the first coordinate
    with signs that cancel in every row and column, so the main-effect
    hypotheses remain true.
    """
    mu = np.zeros((design.r, design.c, design.p))
    quarter = d / 4.0
    mu[0, 0, 0] = quarter
    mu[design.r - 1, 0, 0] = -quarter
    mu[0, design.c - 1, 0] = -quarter
    mu[design.r - 1, design.c - 1, 0] = quarter
    return MeanLayout(design, mu)


def gen_power_additive(design: Design, d: float) -> MeanLayout:
    """Row main effect of size d: rows 1 and 2 move by +-d/2, rest zero.

    Column means stay equal, so the column hypothesis remains true.
    """
    mu = np.zeros((design.r, design.c, design.p))
    mu[0, :, 0] = d / 2.0
    mu[1, :, 0] = -d / 2.0
    return MeanLayout(design, mu)


def gen_contaminated(
    design: Design, spec: ContaminationSpec, rng: RngStream | np.random.Generator
) -> TwoWayLayout:
    """Null data with the last cell replaced by the mixture model.

    Each observation of that cell independently lands in the
    outlier component with probability epsilon; the clean draws are the
    same as :func:`gen_null` would produce, so epsilon = 0 reproduces
    the null dataset bit for bit.
    """
    gen, cells = _normal_cells(design, rng)
    outlying = gen.random(design.n) < spec.epsilon
    q_p = math.sqrt(chi2_quantile(0.999, design.p) / design.p)
    shift = spec.nu * q_p
    target = cells[-1, -1]
    cells[-1, -1] = np.where(outlying[:, None], shift + 0.25 * target, target)
    if not np.all(np.isfinite(cells[-1, -1])):  # a shift too large for a float
        raise NonNumeric("observations contain non-finite values")
    return _cells_layout(design, cells)


def experiment_pairs(kind: str) -> tuple[tuple[Model, Hypothesis], ...]:
    """The (model, hypothesis) pairs an experiment kind reports on."""
    if kind == "size":
        return tuple(
            (model, hyp) for model in Model for hyp in hypotheses_for(model)
        )
    if kind == "power_inter":
        return tuple(
            (Model.WITH_INTERACTIONS, hyp)
            for hyp in hypotheses_for(Model.WITH_INTERACTIONS)
        )
    if kind == "power_additive":
        return tuple(
            (Model.ADDITIVE_ONLY, hyp)
            for hyp in hypotheses_for(Model.ADDITIVE_ONLY)
        )
    if kind == "robustness":
        return (
            (Model.WITH_INTERACTIONS, Hypothesis.INTERACTIONS),
            (Model.ADDITIVE_ONLY, Hypothesis.ROW_EFFECTS),
        )
    raise DomainError(f"unknown experiment kind {kind!r}")


def _layout_maker(
    kind: str, design: Design, setting: float, epsilon: float
) -> Callable[[np.random.Generator], TwoWayLayout]:
    """The data draw of one setting: one ``gen_*`` call per generator.

    The setting's mean layout or contamination spec is built here, once.
    """
    if kind == "size":
        return lambda gen: gen_null(design, gen)
    if kind == "robustness":
        spec = ContaminationSpec(epsilon, setting)
        return lambda gen: gen_contaminated(design, spec, gen)
    make_means = gen_power_with_interactions if kind == "power_inter" else gen_power_additive
    means = make_means(design, setting)
    return lambda gen: gen_alternative(design, means, gen)


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, which ``taskset`` sets."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _open_pool(methods: tuple[str, ...], m: int):
    """A fork process pool for the "mcd" attempts of one `replicate`
    call, and its worker count.

    The pool is None, so the call stays serial, without "mcd", below
    ``_MIN_PARALLEL_ATTEMPTS`` replications, on one usable core, inside
    a multiprocessing child (no pool per worker of a user's pool), or
    while other threads run, whose locks a fork would copy held.  Fork,
    not spawn: a worker starts with the package loaded instead of
    importing it again.
    """
    if "mcd" not in methods or m < _MIN_PARALLEL_ATTEMPTS:
        return None, 1
    workers = min(_usable_cores(), m)
    if workers < 2 or threading.active_count() > 1:
        return None, 1
    import multiprocessing
    if multiprocessing.parent_process() is not None:
        return None, 1
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers, multiprocessing.get_context("fork")), workers


def _robust_lambdas(
    layout: TwoWayLayout, pairs: tuple, mcd_config: McdConfig, rng: RngStream
) -> list[float] | Exception:
    """One attempt's "mcd" lambdas, one per pair, or the first degeneracy raised."""
    try:
        decomp = method_ssp(layout, "mcd", mcd_config, rng)
        return [wilks_lambda(decomp, hypothesis, model) for model, hypothesis in pairs]
    except _DEGENERATE as exc:
        return exc


def replicate(
    make_layout: Callable[[np.random.Generator], TwoWayLayout],
    base: RngStream,
    methods: tuple[str, ...],
    pairs: tuple[tuple[Model, Hypothesis], ...],
    m: int,
    mcd_config: McdConfig = McdConfig(),
) -> tuple[dict[tuple[str, tuple[Model, Hypothesis]], np.ndarray], int, int]:
    """Wilks' Lambda of every (method, pair) over ``m`` replications.

    Attempt ``a`` draws its dataset with ``make_layout(gen)``, where
    ``gen`` is a generator at the start of stream ``base.substream(a, 0)``,
    and, for the "mcd" method, its robust weights from
    ``base.substream(a, 1)``; every method sees the identical dataset.
    An attempt on which any method's pipeline degenerates is discarded
    and the next attempt is drawn; after ``10 * m + 1000`` attempts the
    last degeneracy is raised.

    Attempts run in blocks.  A block's data streams are keyed in one
    pass, and ``gen`` is one generator per call whose Philox is re-keyed
    for every attempt, so ``make_layout`` must not keep it.  The "cla"
    and "rnk" SSP decompositions of a block come from one stacked
    :func:`method_ssp` call each, on one layout holding the live
    attempts' observations as a (b, N, p) block, under one unit weight
    set, which fails every attempt alike (unit weights degenerate only
    when N < p + 2); so with either method the layouts of a block must
    share one design (r, c, n, p), else ``DimensionError`` is raised.
    Their Wilks' Lambdas come from one :func:`wilks_lambda` call per
    method and pair on the block's stack; a stacked call that
    degenerates is redone one attempt (member) at a time.  An "mcd"
    attempt is one task, the pipeline a test runs on one table: robust
    weights, SSP decomposition, then one Wilks' Lambda per pair.
    Lambdas, redraws, attempts and the raised error equal those of
    evaluating one attempt at a time.

    From ``_MIN_PARALLEL_ATTEMPTS`` replications on, with "mcd" among
    the methods and more than one usable core, the "mcd" tasks run on a
    fork process pool of ``min(cores, m)`` workers, which lives until
    this call returns or raises.  The workers return lambdas, which
    merge by attempt index, so every output stays the same.  Inside a
    multiprocessing child, or while other threads run, the call stays
    serial.

    Returns
    -------
    lambdas : dict
        Maps (method, pair) to an ``m``-vector of lambdas, aligned
        across keys by replication.
    redraws, attempts : int
        Discarded attempts and all attempts made.
    """
    lambdas = {(method, pair): np.empty(m) for method in methods for pair in pairs}
    done = attempt = redraws = 0
    max_attempts = 10 * m + 1000
    last_error: Exception | None = None
    pool, workers = _open_pool(methods, m)
    gen = np.random.Generator(np.random.Philox(0))  # re-keyed for each attempt
    try:
        while done < m:
            if attempt >= max_attempts:
                assert last_error is not None
                raise last_error
            # Never more attempts than successes still needed, so a block
            # draws exactly the attempts a one-at-a-time loop would.
            size = min(m - done, max_attempts - attempt, _BLOCK)
            first = attempt
            attempt += size
            keys = _philox_keys(base, range(first, attempt), 0)
            layouts = [make_layout(g) for g in _rekeyed(gen, keys)]
            block = {key: np.empty(size) for key in lambdas}
            failed: dict[int, Exception] = {}
            alive = list(range(size))
            for method in methods:
                if not alive:
                    break
                if method == "mcd":
                    args = (
                        [layouts[i] for i in alive], repeat(pairs), repeat(mcd_config),
                        [base.substream(first + i, 1) for i in alive],
                    )
                    if pool is not None:
                        # one task per worker: the attempts cost about the same
                        chunk = -(-len(alive) // workers)
                        outcomes = pool.map(_robust_lambdas, *args, chunksize=chunk)
                    else:
                        outcomes = map(_robust_lambdas, *args)
                    results = dict(zip(alive, outcomes))
                    failed.update(
                        (i, r) for i, r in results.items() if isinstance(r, Exception))
                    alive = [i for i in alive if i not in failed]
                    for j, pair in enumerate(pairs):
                        block[method, pair][alive] = [results[i][j] for i in alive]
                    continue
                live = [layouts[i] for i in alive]
                if len({(lay.r, lay.c, lay.n, lay.p) for lay in live}) > 1:
                    raise DimensionError(
                        "layouts of one block must share their design (r, c, n, p)"
                    )
                obs = np.stack([lay.observations for lay in live])
                obs.setflags(write=False)
                try:
                    stack = method_ssp(live[0]._holding(obs), method)
                except _DEGENERATE as exc:
                    failed.update(dict.fromkeys(alive, exc))
                    alive = []
                    break
                for model, hypothesis in pairs:
                    try:
                        lams = wilks_lambda(stack, hypothesis, model)
                    except _DEGENERATE:
                        lams, kept = [], []
                        for k, i in enumerate(alive):
                            try:
                                lams.append(wilks_lambda(stack[k], hypothesis, model))
                                kept.append(k)
                            except _DEGENERATE as exc:
                                failed[i] = exc
                        alive = [alive[k] for k in kept]
                        stack = stack[kept]
                    block[method, (model, hypothesis)][alive] = lams
            if failed:
                redraws += len(failed)
                last_error = failed[max(failed)]
            for key, values in block.items():
                lambdas[key][done : done + len(alive)] = values[alive]
            done += len(alive)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return lambdas, redraws, attempt


def run_experiment(
    kind: str,
    design: Design,
    settings: tuple[float, ...] | list[float],
    methods: tuple[str, ...] | list[str],
    m: int,
    alpha: float = 0.05,
    mcd_config: McdConfig = McdConfig(),
    calibration_source=None,
    master_seed: int = 0,
    epsilon: float = 0.1,
) -> list[ExperimentReport]:
    """Estimate rejection rates over a settings grid.

    For every replication the three methods see the identical dataset
    (per-replication sub-streams), so method comparisons are paired.
    Replications on which the robust pipeline degenerates are redrawn
    from the next sub-stream and the count is logged.

    Parameters
    ----------
    kind : str
        One of "size", "power_inter", "power_additive", "robustness".
        The settings are effect sizes d for the power kinds and outlier
        distances nu for robustness; size takes the single setting 0.
    epsilon : float
        Contamination fraction for the robustness kind.

    Returns
    -------
    list of ExperimentReport
        One report per (setting, method, hypothesis), in that order.
    """
    pairs = experiment_pairs(kind)
    methods = tuple(methods)
    if not methods:
        raise DomainError("at least one method is required")
    for method in methods:
        if method not in METHODS:
            raise DomainError(f"unknown method {method!r}")
    if len(set(methods)) != len(methods):
        raise DomainError("duplicate method names")
    if m < 1:
        raise DomainError(f"m must be positive, got {m}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    grid = np.asarray(settings, dtype=np.float64)
    if grid.ndim != 1:
        raise DomainError(f"settings must be one-dimensional, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise DomainError("settings must be finite")
    settings = tuple(grid.tolist())
    if len(set(settings)) != len(settings):
        raise DomainError("duplicate settings")
    if kind == "size":
        if not settings:
            settings = (0.0,)
        elif settings != (0.0,):
            raise DomainError("the size experiment takes the single setting 0.0")
    elif not settings:
        raise DomainError("settings grid is empty")

    # every setting's mean layout or contamination spec is checked before
    # a calibration lookup, which may calibrate and write the cache
    makers = [_layout_maker(kind, design, setting, epsilon) for setting in settings]
    entries = {}
    if "mcd" in methods:
        if calibration_source is None:
            raise MissingCalibration(
                "the mcd method needs a calibration source"
            )
        entries = {
            pair: calibration_source.entry_for(
                design.p, design.r, design.c, design.n, pair[0], pair[1], mcd_config
            )
            for pair in pairs
        }
    root = RngStream(master_seed)
    # One lambda and one p-value block per call: report order is
    # setting, method, pair.
    lams = np.empty((len(settings), len(methods), len(pairs), m))
    for si, (setting, make_layout) in enumerate(zip(settings, makers)):
        lambdas, redraws, attempts = replicate(
            make_layout, root.substream(si), methods, pairs, m, mcd_config,
        )
        if redraws:
            logger.warning(
                "experiment %s setting %g: redrew %d degenerate "
                "replication(s) out of %d attempts",
                kind, setting, redraws, attempts,
            )
        lams[si] = [[lambdas[method, pair] for pair in pairs] for method in methods]
    p_values = np.empty((lams.size // m, m))
    by_key = p_values.reshape(lams.shape)
    # one pass over every setting: the Bartlett rows together, their
    # degrees of freedom broadcast down the pairs, and each calibrated pair
    classical = [mi for mi, method in enumerate(methods) if method != "mcd"]
    if classical:
        nu1, nu2 = np.array([bartlett_dfs(design, *pair) for pair in pairs]).T[:, :, None]
        by_key[:, classical] = bartlett_pvalue(lams[:, classical], design.p, nu1, nu2)
    if "mcd" in methods:
        mi = methods.index("mcd")
        for pi, pair in enumerate(pairs):
            by_key[:, mi, pi] = calibrated_pvalue(lams[:, mi, pi], entries[pair])
    p_values.setflags(write=False)
    keys = [(method, pair) for method in methods for pair in pairs]
    return [
        ExperimentReport(
            design=design,
            method=method,
            model=pair[0],
            hypothesis=pair[1],
            kind=kind,
            setting=setting,
            alpha=alpha,
            m=m,
            block=p_values,
            row=row,
        )
        for row, (setting, (method, pair)) in enumerate(product(settings, keys))
    ]


def _edf_on_grid(p_values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    ordered = np.sort(p_values)
    return np.searchsorted(ordered, grid, side="right") / len(ordered)


def pvalue_plot_data(report: ExperimentReport) -> list[tuple[float, float]]:
    """Empirical distribution of the p-values on a uniform grid over
    [0, GRID_MAX].

    Under a true null the points hug the 45 degree line; the returned
    pairs are meant for external plotting.
    """
    grid = np.linspace(0.0, GRID_MAX, GRID_POINTS)
    edf = _edf_on_grid(report.p_values, grid)
    return list(zip(grid.tolist(), edf.tolist()))


def size_power_curve(
    null_report: ExperimentReport, alt_report: ExperimentReport
) -> list[tuple[float, float]]:
    """Size-power curve: rejection EDF under the alternative against
    rejection EDF under the null, traced over the nominal-level grid.

    Both reports must describe the same design, method, hypothesis and
    replication count; only then is the pairing meaningful.
    """
    mismatches = [
        name for name, a, b in (
            ("design", null_report.design, alt_report.design),
            ("method", null_report.method, alt_report.method),
            ("model", null_report.model, alt_report.model),
            ("hypothesis", null_report.hypothesis, alt_report.hypothesis),
            ("m", null_report.m, alt_report.m),
        ) if a != b
    ]
    if mismatches:
        raise MismatchedReports(
            "reports differ in " + ", ".join(mismatches)
        )
    grid = np.linspace(0.0, GRID_MAX, GRID_POINTS)
    x = _edf_on_grid(null_report.p_values, grid)
    y = _edf_on_grid(alt_report.p_values, grid)
    return list(zip(x.tolist(), y.tolist()))


@dataclass(frozen=True)
class ExperimentSpec:
    """Parsed contents of an experiment description file."""

    kind: str
    design: Design
    methods: tuple[str, ...]
    settings: tuple[float, ...]
    m: int
    alpha: float = 0.05
    seed: int = 0
    epsilon: float = 0.1

    def run(
        self,
        mcd_config: McdConfig = McdConfig(),
        calibration_source=None,
    ) -> list[ExperimentReport]:
        return run_experiment(
            self.kind, self.design, self.settings, self.methods, self.m,
            self.alpha, mcd_config, calibration_source, self.seed,
            self.epsilon,
        )


_REQUIRED_SPEC_KEYS = ("kind", "r", "c", "p", "n", "methods", "settings", "m")
# optional keys, each with its parser; an absent key takes ExperimentSpec's default
_OPTIONAL_SPEC_KEYS = {"alpha": float, "seed": int, "epsilon": float}


def _read_utf8(path: str | Path) -> str:
    """The text of the UTF-8 file ``path`` (an experiment file or a CLI
    table) less a leading byte-order mark; a byte that is not UTF-8
    raises DomainError naming its line, as ``str.splitlines`` counts."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the file less its byte-order mark
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise DomainError(
            f"{path} line {line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8"
        ) from None


def read_experiment_file(path: str | Path) -> ExperimentSpec:
    """Parse a key = value experiment description.

    Blank lines and lines starting with # are ignored.  Required keys:
    kind, r, c, p, n, methods (comma separated), settings (comma
    separated), m.  Optional: alpha, seed, epsilon.  The file is UTF-8.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read_utf8(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(
                f"experiment file line {lineno}: expected key = value"
            )
        key = key.strip().lower()
        if key not in (*_REQUIRED_SPEC_KEYS, *_OPTIONAL_SPEC_KEYS):
            raise DomainError(
                f"experiment file line {lineno}: unknown key {key!r}"
            )
        if key in values:
            raise DomainError(
                f"experiment file line {lineno}: duplicate key {key!r}"
            )
        values[key] = value.strip()

    missing = [key for key in _REQUIRED_SPEC_KEYS if key not in values]
    if missing:
        raise DomainError(
            "experiment file is missing keys: " + ", ".join(missing)
        )
    try:
        kind = values["kind"]
        if kind not in EXPERIMENT_KINDS:
            raise DomainError(f"unknown experiment kind {kind!r}")
        design = Design(
            int(values["r"]), int(values["c"]),
            int(values["n"]), int(values["p"]),
        )
        methods = tuple(
            s.strip() for s in values["methods"].split(",") if s.strip()
        )
        settings = tuple(
            float(s) for s in values["settings"].split(",") if s.strip()
        )
        return ExperimentSpec(
            kind=kind,
            design=design,
            methods=methods,
            settings=settings,
            m=int(values["m"]),
            **{key: parse(values[key])
               for key, parse in _OPTIONAL_SPEC_KEYS.items() if key in values},
        )
    except ValueError as exc:
        raise DomainError(f"experiment file: {exc}") from exc


def format_report_table(reports: list[ExperimentReport]) -> str:
    """Render reports as one grid per hypothesis: method rows, setting
    columns, mirroring the usual size/power table layout."""
    if not reports:
        raise DomainError("no reports to format")
    d = reports[0].design
    kind = reports[0].kind
    settings = dict.fromkeys(r.setting for r in reports)
    methods = dict.fromkeys(r.method for r in reports)
    pairs = dict.fromkeys((r.model, r.hypothesis) for r in reports)
    by_key = {
        (r.method, r.model, r.hypothesis, r.setting): r for r in reports
    }
    label = "nu" if kind == "robustness" else "d"
    lines = [
        f"kind: {kind}  design: r={d.r} c={d.c} p={d.p} n={d.n}  "
        f"alpha={reports[0].alpha:g}  m={reports[0].m}"
    ]
    for model, hyp in pairs:
        lines.append("")
        lines.append(f"{model.value} model, {hyp.value} hypothesis")
        lines.append(
            "  method  ".ljust(10)
            + "".join(f"{label}={s:g}".ljust(10) for s in settings)
        )
        for method in methods:
            cells = []
            for s in settings:
                rep = by_key.get((method, model, hyp, s))
                cells.append(
                    f"{rep.rejection_rate:.3f}".ljust(10)
                    if rep is not None else "-".ljust(10)
                )
            lines.append(f"  {method}".ljust(10) + "".join(cells))
    return "\n".join(lines) + "\n"
