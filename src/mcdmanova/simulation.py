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
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .distributions import RngStream, chi2_quantile
from .errors import (
    CellWiped,
    DegenerateWeights,
    DimensionError,
    DomainError,
    MismatchedReports,
    MissingCalibration,
    NotPositiveDefinite,
    SingularSubset,
)
from .manova import (
    METHODS,
    Hypothesis,
    Model,
    TwoWayLayout,
    bartlett_dfs,
    bartlett_pvalue,
    calibrated_pvalue,
    hypotheses_for,
    layout_from_cells,
    method_ssp,
    wilks_lambda,
)
# Unused here since method_ssp dispatches; perfbench/tracer.py wraps these names.
from .manova import classical_ssp, rank_transform, robust_weights, weighted_ssp  # noqa: F401
from .mcd import McdConfig

__all__ = [
    "EXPERIMENT_KINDS",
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

# grid resolution of the EDF emitters
GRID_POINTS = 201

# A replication is redrawn when the estimation pipeline degenerates on
# the simulated data (for example, too many coincident points).
_DEGENERATE = (SingularSubset, DegenerateWeights, CellWiped, NotPositiveDefinite)


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
    """Cell means of an alternative: an (r, c, p) array of mu vectors."""

    design: Design
    mu: np.ndarray

    def __post_init__(self) -> None:
        mu = np.ascontiguousarray(np.asarray(self.mu, dtype=np.float64))
        expected = (self.design.r, self.design.c, self.design.p)
        if mu.shape != expected:
            raise DimensionError(
                f"mean layout shape {mu.shape} does not match design {expected}"
            )
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class ContaminationSpec:
    """Mixture contamination applied to a single target cell.

    Observations of the target cell are drawn independently from
    ``(1 - epsilon) N(0, I) + epsilon N(mu*, 0.25^2 I)`` where
    ``mu* = (nu Q_p, ..., nu Q_p)`` and ``Q_p = sqrt(chi2(p; 0.999)/p)``
    equalizes the shift across dimensions.  ``target_cell`` of None
    means the last cell (r-1, c-1).
    """

    epsilon: float
    nu: float
    target_cell: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 0.5:
            raise DomainError(
                f"epsilon must lie in [0, 0.5), got {self.epsilon}"
            )
        if self.nu < 0.0:
            raise DomainError(f"nu must be non-negative, got {self.nu}")


@dataclass(frozen=True)
class ExperimentReport:
    """Rejection tally of one method on one hypothesis at one setting."""

    design: Design
    method: str
    model: Model
    hypothesis: Hypothesis
    kind: str
    setting: float
    alpha: float
    m: int
    p_values: np.ndarray
    rejection_rate: float

    def __post_init__(self) -> None:
        pv = np.ascontiguousarray(np.asarray(self.p_values, dtype=np.float64))
        if pv.shape != (self.m,):
            raise DimensionError(
                f"expected {self.m} p-values, got shape {pv.shape}"
            )
        pv.setflags(write=False)
        object.__setattr__(self, "p_values", pv)
        count = int(np.count_nonzero(pv < self.alpha))
        if self.rejection_rate != count / self.m:
            raise DomainError(
                "rejection_rate is not exactly the fraction of p-values "
                "below alpha"
            )


def gen_null(design: Design, rng: RngStream) -> TwoWayLayout:
    """All cells i.i.d. standard normal; a pure function of the stream."""
    cells = rng.generator().standard_normal(
        (design.r, design.c, design.n, design.p)
    )
    return layout_from_cells(cells)


def gen_alternative(
    design: Design, means: MeanLayout, rng: RngStream
) -> TwoWayLayout:
    """Standard normal cells shifted by per-cell means.

    Consumes the stream exactly like :func:`gen_null`, so a zero
    MeanLayout reproduces the null dataset bit for bit.
    """
    if means.design != design:
        raise DimensionError("mean layout was built for a different design")
    cells = rng.generator().standard_normal(
        (design.r, design.c, design.n, design.p)
    )
    return layout_from_cells(cells + means.mu[:, :, None, :])


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
    design: Design, spec: ContaminationSpec, rng: RngStream
) -> TwoWayLayout:
    """Null data with one cell replaced by the mixture model.

    Each observation of the target cell independently lands in the
    outlier component with probability epsilon; the clean draws are the
    same as :func:`gen_null` would produce, so epsilon = 0 reproduces
    the null dataset bit for bit.
    """
    i, j = spec.target_cell if spec.target_cell is not None else (
        design.r - 1, design.c - 1
    )
    if not (0 <= i < design.r and 0 <= j < design.c):
        raise DomainError(
            f"target cell ({i}, {j}) outside design {design.r}x{design.c}"
        )
    gen = rng.generator()
    cells = gen.standard_normal((design.r, design.c, design.n, design.p))
    outlying = gen.random(design.n) < spec.epsilon
    q_p = math.sqrt(chi2_quantile(0.999, design.p) / design.p)
    shift = spec.nu * q_p
    target = cells[i, j]
    cells[i, j] = np.where(outlying[:, None], shift + 0.25 * target, target)
    return layout_from_cells(cells)


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


def _layout_for(
    kind: str, design: Design, setting: float, epsilon: float, rng: RngStream
) -> TwoWayLayout:
    if kind == "size":
        return gen_null(design, rng)
    if kind == "power_inter":
        return gen_alternative(
            design, gen_power_with_interactions(design, setting), rng
        )
    if kind == "power_additive":
        return gen_alternative(
            design, gen_power_additive(design, setting), rng
        )
    return gen_contaminated(
        design, ContaminationSpec(epsilon, setting), rng
    )


def replicate(
    make_layout: Callable[[RngStream], TwoWayLayout],
    base: RngStream,
    methods: tuple[str, ...],
    pairs: tuple[tuple[Model, Hypothesis], ...],
    m: int,
    mcd_config: McdConfig | None = None,
) -> tuple[dict[tuple[str, tuple[Model, Hypothesis]], np.ndarray], int, int]:
    """Wilks' Lambda of every (method, pair) over ``m`` replications.

    Attempt ``a`` draws its dataset with ``make_layout`` from
    ``base.substream(a, 0)`` and, for the "mcd" method, its robust weights
    from ``base.substream(a, 1)``; every method sees the identical
    dataset.  An attempt on which any method's pipeline degenerates is
    discarded and the next attempt is drawn; after ``10 * m + 1000``
    attempts the last degeneracy is raised.

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
    while done < m:
        if attempt >= max_attempts:
            assert last_error is not None
            raise last_error
        stream = base.substream(attempt)
        attempt += 1
        layout = make_layout(stream.substream(0))
        weights_rng = stream.substream(1)
        try:
            for method in methods:
                decomp = method_ssp(layout, method, mcd_config, weights_rng)
                for pair in pairs:
                    lambdas[method, pair][done] = wilks_lambda(decomp, pair[1], pair[0])
        except _DEGENERATE as exc:
            redraws += 1
            last_error = exc
            continue
        done += 1
    return lambdas, redraws, attempt


def run_experiment(
    kind: str,
    design: Design,
    settings: tuple[float, ...] | list[float],
    methods: tuple[str, ...] | list[str],
    m: int,
    alpha: float = 0.05,
    mcd_config: McdConfig | None = None,
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
    settings = tuple(float(s) for s in settings) if settings else ()
    if kind == "size":
        if not settings:
            settings = (0.0,)
        elif settings != (0.0,):
            raise DomainError("the size experiment takes the single setting 0.0")
    elif not settings:
        raise DomainError("settings grid is empty")

    entries = {}
    if "mcd" in methods:
        if calibration_source is None:
            raise MissingCalibration(
                "the mcd method needs a calibration source"
            )
        entries = {
            pair: calibration_source.entry_for(
                design.p, design.r, design.c, design.n, pair[0], pair[1]
            )
            for pair in pairs
        }
    dfs = {pair: bartlett_dfs(design, pair[0], pair[1]) for pair in pairs}

    root = RngStream(master_seed)
    reports: list[ExperimentReport] = []
    for si, setting in enumerate(settings):
        lambdas, redraws, attempts = replicate(
            partial(_layout_for, kind, design, setting, epsilon),
            root.substream(si), methods, pairs, m, mcd_config,
        )
        if redraws:
            logger.warning(
                "experiment %s setting %g: redrew %d degenerate "
                "replication(s) out of %d attempts",
                kind, setting, redraws, attempts,
            )
        for method in methods:
            for pair in pairs:
                lams = lambdas[method, pair].tolist()
                if method == "mcd":
                    values = [calibrated_pvalue(lam, entries[pair]) for lam in lams]
                else:
                    nu1, nu2 = dfs[pair]
                    values = [bartlett_pvalue(lam, design.p, nu1, nu2) for lam in lams]
                values = np.array(values)
                rate = int(np.count_nonzero(values < alpha)) / m
                reports.append(
                    ExperimentReport(
                        design=design,
                        method=method,
                        model=pair[0],
                        hypothesis=pair[1],
                        kind=kind,
                        setting=float(setting),
                        alpha=alpha,
                        m=m,
                        p_values=values,
                        rejection_rate=rate,
                    )
                )
    return reports


def _edf_on_grid(p_values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    ordered = np.sort(p_values)
    return np.searchsorted(ordered, grid, side="right") / len(ordered)


def pvalue_plot_data(
    report: ExperimentReport, grid_max: float = 0.2
) -> list[tuple[float, float]]:
    """Empirical distribution of the p-values on a uniform grid.

    Under a true null the points hug the 45 degree line; the returned
    pairs are meant for external plotting.
    """
    if grid_max <= 0.0:
        raise DomainError(f"grid_max must be positive, got {grid_max}")
    grid = np.linspace(0.0, grid_max, GRID_POINTS)
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
    grid = np.linspace(0.0, 0.2, GRID_POINTS)
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
        mcd_config: McdConfig | None = None,
        calibration_source=None,
    ) -> list[ExperimentReport]:
        return run_experiment(
            self.kind, self.design, self.settings, self.methods, self.m,
            self.alpha, mcd_config, calibration_source, self.seed,
            self.epsilon,
        )


_REQUIRED_SPEC_KEYS = ("kind", "r", "c", "p", "n", "methods", "settings", "m")
_OPTIONAL_SPEC_KEYS = ("alpha", "seed", "epsilon")


def read_experiment_file(path: str | Path) -> ExperimentSpec:
    """Parse a key = value experiment description.

    Blank lines and lines starting with # are ignored.  Required keys:
    kind, r, c, p, n, methods (comma separated), settings (comma
    separated), m.  Optional: alpha, seed, epsilon.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(
                f"experiment file line {lineno}: expected key = value"
            )
        key = key.strip().lower()
        if key not in _REQUIRED_SPEC_KEYS + _OPTIONAL_SPEC_KEYS:
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
            alpha=float(values.get("alpha", "0.05")),
            seed=int(values.get("seed", "0")),
            epsilon=float(values.get("epsilon", "0.1")),
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
    settings: list[float] = []
    for rep in reports:
        if rep.setting not in settings:
            settings.append(rep.setting)
    methods: list[str] = []
    for rep in reports:
        if rep.method not in methods:
            methods.append(rep.method)
    pairs: list[tuple[Model, Hypothesis]] = []
    for rep in reports:
        if (rep.model, rep.hypothesis) not in pairs:
            pairs.append((rep.model, rep.hypothesis))
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
