"""Span tracing of the mcdmanova layers from outside the package.

Every traced function is wrapped at the module attribute (or dict entry,
or class attribute) its caller looks it up on, so nothing under ``src/``
changes.  A span records its name, start, end, parent span and the
(call, replication) pair it belongs to.  Spans live in flat lists while
the run lasts and are summarised or written out when it ends.

Span names read ``<layer>.<function>``; the layer is the package module
that owns the function.  Several lookups can share one span name (for
example ``classical_ssp`` is counted as ``manova.weighted_ssp``), and a
call into a span's own name from inside that span is folded into it, so
``classical_ssp -> weighted_ssp`` is one span, not two.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from spec import DEGENERATE_TYPES

# Direct children of these spans with a name in REP_START open a new
# Monte Carlo replication: the data draw is the first step of each one.
LOOP_SPANS = ("calibration.null_statistic_samples", "simulation.run_experiment")
REP_START = ("distributions.generator", "simulation.gen")


def _kept_share(tracer: "Tracer", name: str, result: Any) -> None:
    estimates = result if isinstance(result, list) else [result]
    for est in estimates:
        tracer.sums[name + ".kept"] += float(np.mean(est.weights))
        tracer.sums[name + ".fits"] += 1


def _weightset_share(tracer: "Tracer", name: str, result: Any) -> None:
    tracer.sums[name + ".kept"] += result.grand_total / result.w.shape[0]
    tracer.sums[name + ".fits"] += 1


# Spans whose return values feed a kept-fraction counter.
OBSERVERS = {"mcd.reweight": _kept_share, "manova.robust_weights": _weightset_share}


@dataclass(frozen=True)
class Target:
    """One lookup site: ``module`` plus a dotted ``path`` inside it.

    Path parts walk attributes, except that a part following a dict
    indexes it (``_COMMANDS.test`` is ``cli._COMMANDS["test"]``).
    """

    module: str
    path: str
    span: str


_SITES = (
    # cli: the top-level call of the cli workload and what it drives
    ("cli", "main", "cli.main"),
    ("cli", "_COMMANDS.test", "cli.cmd_test"),
    ("cli", "parse_table", "cli.parse_table"),
    ("cli", "validate_layout", "manova.validate_layout"),
    ("cli", "ilr", "compositions.ilr"),
    ("cli", "run_manova", "manova.run_manova"),
    # calibration: replicate loop, cache reads, entry lookups
    ("calibration", "calibrate_design", "calibration.calibrate_design"),
    ("calibration", "null_statistic_samples", "calibration.null_statistic_samples"),
    ("calibration", "read_cache", "calibration.read_cache"),
    ("calibration", "CalibrationSource.entry_for", "calibration.entry_for"),
    ("calibration", "layout_from_cells", "manova.layout_from_cells"),
    ("calibration", "robust_weights", "manova.robust_weights"),
    ("calibration", "weighted_ssp", "manova.weighted_ssp"),
    ("calibration", "classical_ssp", "manova.weighted_ssp"),
    ("calibration", "wilks_lambda", "manova.wilks_lambda"),
    # simulation: experiment loop and data generators
    ("simulation", "run_experiment", "simulation.run_experiment"),
    ("simulation", "gen_null", "simulation.gen"),
    ("simulation", "gen_alternative", "simulation.gen"),
    ("simulation", "gen_contaminated", "simulation.gen"),
    ("simulation", "chi2_quantile", "distributions.chi2_quantile"),
    ("simulation", "robust_weights", "manova.robust_weights"),
    ("simulation", "weighted_ssp", "manova.weighted_ssp"),
    ("simulation", "classical_ssp", "manova.weighted_ssp"),
    ("simulation", "rank_transform", "manova.rank_transform"),
    ("simulation", "wilks_lambda", "manova.wilks_lambda"),
    ("simulation", "bartlett_pvalue", "manova.pvalue"),
    ("simulation", "calibrated_pvalue", "manova.pvalue"),
    # manova: its own lookups (run_manova, classical_ssp, robust_weights)
    ("manova", "robust_weights", "manova.robust_weights"),
    ("manova", "weighted_ssp", "manova.weighted_ssp"),
    ("manova", "classical_ssp", "manova.weighted_ssp"),
    ("manova", "rank_transform", "manova.rank_transform"),
    ("manova", "wilks_lambda", "manova.wilks_lambda"),
    ("manova", "bartlett_pvalue", "manova.pvalue"),
    ("manova", "calibrated_pvalue", "manova.pvalue"),
    ("manova", "fast_mcd_batch", "mcd.fast_mcd_batch"),
    ("manova", "fast_mcd", "mcd.fast_mcd"),
    ("manova", "reweight", "mcd.reweight"),
    ("manova", "reweight_batch", "mcd.reweight"),
    ("manova", "cholesky", "distributions.cholesky"),
    ("manova", "chi2_cdf", "distributions.chi2_cdf"),
    ("manova", "chi2_quantile", "distributions.chi2_quantile"),
    ("distributions", "RngStream.generator", "distributions.generator"),
)

TARGETS = tuple(Target("mcdmanova." + mod, path, span) for mod, path, span in _SITES)


def _resolve(target: Target) -> tuple[Any, str]:
    owner: Any = importlib.import_module(target.module)
    parts = target.path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _get(owner: Any, key: str) -> Any:
    if isinstance(owner, dict):
        return owner[key]
    if isinstance(owner, type):
        return owner.__dict__[key]
    return getattr(owner, key)


def _set(owner: Any, key: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.call: list[int] = []
        self.rep: list[int] = []
        self.sums: Counter = Counter()
        self.call_id = -1
        self.rep_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._degenerate: tuple[type, ...] = ()

    # -- installation -----------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        """Replace every target by a span-recording wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        errors = importlib.import_module("mcdmanova.errors")
        self._degenerate = tuple(getattr(errors, n) for n in DEGENERATE_TYPES)
        for target in self.targets:
            owner, key = _resolve(target)
            original = _get(owner, key)
            self._saved.append((owner, key, original))
            _set(owner, key, self._wrap(original, target))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)

    def begin_call(self) -> None:
        """Start a new top-level call; later spans carry its id."""
        self.call_id += 1
        self.rep_id = 0

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name = target.span
        observe = OBSERVERS.get(name)
        tracer = self
        opens_rep = name in REP_START
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if parent >= 0 and tracer.names[parent] == name:
                return fn(*args, **kwargs)
            if opens_rep and parent >= 0 and tracer.names[parent] in LOOP_SPANS:
                tracer.rep_id += 1
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(parent)
            tracer.call.append(tracer.call_id)
            tracer.rep.append(tracer.rep_id)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except tracer._degenerate as exc:
                tracer.end[i] = clock()
                stack.pop()
                tracer.sums[name + ".degenerate"] += 1
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.sums["errors.degenerate." + type(exc).__name__] += 1
                raise
            except BaseException:
                tracer.end[i] = clock()
                stack.pop()
                raise
            tracer.end[i] = clock()
            stack.pop()
            if observe is not None:
                observe(tracer, name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- summaries --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns as arrays, with durations and self times."""
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        return {
            "start": start,
            "end": end,
            "parent": parent,
            "duration": duration,
            "self": self_times(duration, parent),
        }

    def dump(self) -> dict[str, Any]:
        """Columnar span table for the results file."""
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        t0 = self.start[0] if self.start else 0.0
        return {
            "names": names,
            "name": [index[n] for n in self.names],
            "start_us": [round((s - t0) * 1e6, 1) for s in self.start],
            "end_us": [round((e - t0) * 1e6, 1) for e in self.end],
            "parent": list(self.parent),
            "call": list(self.call),
            "rep": list(self.rep),
        }


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children.

    Spans of one thread nest without overlap, so the children's summed
    durations are exactly the part of the parent interval they cover.
    """
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


def tail_percentile(samples: np.ndarray, beyond: int = 10) -> int:
    """Highest whole percentile in [50, 99] with at least ``beyond``
    samples strictly above it; 50 when even the median has fewer."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    best = 50
    for pct in range(50, 100):
        if np.count_nonzero(samples > np.percentile(samples, pct)) >= beyond:
            best = pct
    return best
