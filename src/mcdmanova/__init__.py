"""Robust two-way MANOVA based on the minimum covariance determinant.

The package provides Wilks' Lambda tests for balanced two-way layouts in
three flavours: the classical normal-theory test, the same test on
coordinatewise ranks, and a robust test whose sums-of-squares matrices
are built from MCD-reweighted observations and whose null distribution
is calibrated by simulation.  Supporting modules cover the MCD estimator
itself, Monte Carlo size/power/robustness experiments, and the isometric
log-ratio transform for compositional responses.

The most common entry points are re-exported here; the submodules hold
the full surface:

``manova``
    Layout validation, weighted sums-of-squares, Wilks' Lambda,
    Bartlett and calibrated p-values, :func:`run_manova`.
``mcd``
    The fast minimum covariance determinant estimator.
``calibration``
    Null-distribution simulation, the (delta, q) fit, and the text
    cache.
``simulation``
    Size, power, and robustness experiments and their reports.
``compositions``
    Isometric log-ratio transform for compositional data.
``distributions``
    Chi-square helpers and the reproducible random-stream tree.
``cli``
    The ``mcdmanova`` command line interface.
"""

from __future__ import annotations

from .calibration import (
    CalibrationEntry,
    CalibrationKey,
    CalibrationSource,
    calibrate_design,
    read_cache,
    write_cache,
)
from .compositions import Composition, ilr, ilr_inverse, ilr_matrix
from .distributions import RngStream, chi2_cdf, chi2_quantile
from .errors import McdManovaError
from .manova import (
    Hypothesis,
    Model,
    TwoWayLayout,
    WeightSet,
    WilksTestReport,
    bartlett_pvalue,
    calibrated_pvalue,
    classical_ssp,
    rank_transform,
    robust_weights,
    run_manova,
    validate_layout,
    weighted_ssp,
    wilks_lambda,
)
from .mcd import McdConfig, McdEstimate, fast_mcd, fast_mcd_batch, reweight
from .simulation import (
    Design,
    ExperimentReport,
    ExperimentSpec,
    pvalue_plot_data,
    read_experiment_file,
    run_experiment,
    size_power_curve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CalibrationEntry",
    "CalibrationKey",
    "CalibrationSource",
    "Composition",
    "Design",
    "ExperimentReport",
    "ExperimentSpec",
    "Hypothesis",
    "McdConfig",
    "McdEstimate",
    "McdManovaError",
    "Model",
    "RngStream",
    "TwoWayLayout",
    "WeightSet",
    "WilksTestReport",
    "bartlett_pvalue",
    "calibrate_design",
    "calibrated_pvalue",
    "chi2_cdf",
    "chi2_quantile",
    "classical_ssp",
    "fast_mcd",
    "fast_mcd_batch",
    "ilr",
    "ilr_inverse",
    "ilr_matrix",
    "pvalue_plot_data",
    "rank_transform",
    "read_cache",
    "read_experiment_file",
    "reweight",
    "robust_weights",
    "run_experiment",
    "run_manova",
    "size_power_curve",
    "validate_layout",
    "weighted_ssp",
    "wilks_lambda",
    "write_cache",
]
