"""MCD search quality: objective gap against a frozen reference.

Each data model has a fixed set of datasets, drawn here with NumPy alone
so they do not move when the package's own generators change.  For every
dataset the benchmark fits the six-cell stack with ``fast_mcd_batch`` and
the pooled sample (observations minus coordinatewise cell medians,
n = r*c*n) with ``fast_mcd``, both at the default ``McdConfig()``, and
compares each objective with the reference objective that
``make_reference.py`` found with a much larger start budget.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from mcdmanova.distributions import RngStream
from mcdmanova.mcd import McdConfig, fast_mcd, fast_mcd_batch

REFERENCE_FILE = Path(__file__).resolve().parent / "data" / "mcd_reference.json"

# 3x2 cells of n = 30, as in the paper's reference design.
R, C, N = 3, 2, 30
DATASETS_PER_MODEL = 32

# name: (seed, p, contaminated); contaminated models put a 10% mixture
# at distance nu * Q_p (nu alternating 5 and 10) into the last cell,
# like simulation.gen_contaminated.
DATA_MODELS = {
    "clean-p2": (20260, 2, False),
    "contaminated-p4": (20261, 4, True),
    "contaminated-p2": (20262, 2, True),
}
EPSILON = 0.1
NU = (5.0, 10.0)
OUTLIER_SCALE = 0.25

# sqrt(chi2(p; 0.999) / p), the shift that equalises distance over p.
_Q999 = {2: math.sqrt(13.815510557964274 / 2), 4: math.sqrt(18.46682695290317 / 4)}


def contaminate(cells: np.ndarray, gen: np.random.Generator, nu: float) -> np.ndarray:
    """Replace a 10% share of the last cell by a tight outlier cluster."""
    p = cells.shape[-1]
    out = cells.copy()
    target = out[-1, -1]
    outlying = gen.random(target.shape[0]) < EPSILON
    shifted = nu * _Q999[p] + OUTLIER_SCALE * target
    out[-1, -1] = np.where(outlying[:, None], shifted, target)
    return out


def dataset(model: str, k: int) -> np.ndarray:
    """Cells of dataset ``k`` of ``model``, shape (R, C, N, p)."""
    seed, p, contaminated = DATA_MODELS[model]
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, k])))
    cells = gen.standard_normal((R, C, N, p))
    if contaminated:
        cells = contaminate(cells, gen, NU[k % len(NU)])
    return cells


def fit_inputs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cell stack and the pooled residual sample of one dataset."""
    r, c, n, p = cells.shape
    stack = cells.reshape(r * c, n, p)
    pooled = (cells - np.median(cells, axis=2, keepdims=True)).reshape(r * c * n, p)
    return stack, pooled


def checksum(cells: np.ndarray) -> float:
    return float(np.sum(cells) + np.sum(cells * cells))


def objectives(cells: np.ndarray, config, rng_seed: int) -> list[float]:
    """Objectives of the cell fits followed by the pooled fit."""
    stack, pooled = fit_inputs(cells)
    cell_fits = fast_mcd_batch(stack, config, RngStream(rng_seed))
    pooled_fit = fast_mcd(pooled, config, RngStream(rng_seed))
    return [est.objective for est in cell_fits] + [pooled_fit.objective]


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def objective_gap(model: str, reference: dict) -> tuple[float, list[str]]:
    """Mean (default objective - reference objective) over every fit of
    the model's datasets, plus a list of check failures."""
    entry = reference["models"][model]
    problems = []
    gaps = []
    for k, record in enumerate(entry["datasets"]):
        cells = dataset(model, k)
        if not math.isclose(checksum(cells), record["checksum"], rel_tol=1e-12):
            problems.append(f"{model} dataset {k}: inputs differ from the frozen reference")
            continue
        got = objectives(cells, McdConfig(), k)
        if not all(math.isfinite(v) for v in got):
            problems.append(f"{model} dataset {k}: non-finite MCD objective")
            continue
        gaps.extend(g - ref for g, ref in zip(got, record["reference"]))
    if not gaps:
        return float("nan"), problems
    return float(np.mean(gaps)), problems
