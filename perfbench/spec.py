"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 perfbench/run.py --write-manifest``; the harness self-tests
check that the committed file matches.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = {
    "calibrate-3x2-p2": (
        "calibrate_design on clean 3x2 n=30 p=2 null data, the paper's reference "
        "design; MCD does ~95% of the work, p-values none"
    ),
    "power-baselines-2x2-p2": (
        "cla/rnk power experiment on 2x2 n=20 p=2; bypasses MCD entirely, so an MCD "
        "change must not move it while a Wilks/SSP/p-value change shows here"
    ),
    "cli-test-ilr": (
        "closed loop of one client calling cli.main test --ilr on 3-part compositional "
        "tables with a cached calibration; the only cli/compositions/cache-read path"
    ),
}

# name: (unit, better, bound).  Call latency percentiles are printed and
# recorded but not gated: on a shared 2-core VM the whole machine drifts
# between speed states lasting ~10 s, which makes a run's median call
# bimodal; the throughput mean over the run is the steadier figure.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "reps_per_s": ("1/s", "higher", 0.25),
    "mcd_obj_gap": ("log-det", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_FUNCTION_STATS = (
    ("mcd.fast_mcd_batch", ("calls", "busy_s", "ms_p50")),
    ("mcd.fast_mcd", ("calls", "busy_s", "ms_p50")),
    ("mcd.reweight", ("calls", "busy_s")),
    ("manova.robust_weights", ("calls", "busy_s", "self_s", "degenerate", "kept_frac")),
    ("manova.weighted_ssp", ("calls", "busy_s")),
    ("manova.rank_transform", ("calls", "busy_s")),
    ("manova.wilks_lambda", ("calls", "busy_s")),
    ("manova.pvalue", ("calls", "busy_s")),
    ("manova.run_manova", ("calls", "busy_s")),
    ("manova.validate_layout", ("calls", "busy_s")),
    ("distributions.cholesky", ("calls", "busy_s")),
    ("distributions.chi2_cdf", ("calls", "busy_s")),
    ("distributions.chi2_quantile", ("calls", "busy_s")),
    ("distributions.generator", ("calls", "busy_s")),
    ("calibration.calibrate_design", ("calls", "busy_s")),
    ("calibration.null_statistic_samples", ("calls", "self_s")),
    ("calibration.read_cache", ("calls", "busy_s")),
    ("calibration.entry_for", ("calls", "busy_s")),
    ("simulation.run_experiment", ("calls", "self_s")),
    ("simulation.gen", ("calls", "busy_s")),
    ("compositions.ilr", ("calls", "busy_s")),
    ("cli.main", ("calls", "busy_s")),
    ("cli.parse_table", ("calls", "busy_s")),
    ("cli.cmd_test", ("calls", "self_s")),
)

LAYERS = ("distributions", "mcd", "manova", "calibration", "simulation", "compositions", "cli")

DEGENERATE_TYPES = ("SingularSubset", "DegenerateWeights", "CellWiped", "NotPositiveDefinite")

_STAT_UNITS = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "ms_p50": "ms",
    "degenerate": "count",
    "kept_frac": "fraction",
}


def _per_layer() -> dict[str, tuple[str, str]]:
    out: dict[str, tuple[str, str]] = {}
    for span, stats in _FUNCTION_STATS:
        for stat in stats:
            better = "higher" if stat == "kept_frac" else "lower"
            out[f"{span}.{stat}"] = (_STAT_UNITS[stat], better)
    out["mcd.kept_frac"] = ("fraction", "higher")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
    out["errors.degenerate"] = ("count", "lower")
    for name in DEGENERATE_TYPES:
        out[f"errors.degenerate.{name}"] = ("count", "lower")
    out["errors.redrawn"] = ("count", "lower")
    out["errors.error_rate"] = ("fraction", "lower")
    out["trace.overhead_frac"] = ("fraction", "lower")
    out["trace.self_sum_frac"] = ("fraction", "higher")
    out["trace.spans"] = ("count", "lower")
    return out


PER_LAYER = _per_layer()


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }
