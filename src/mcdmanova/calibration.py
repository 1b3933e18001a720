"""Monte Carlo calibration of the robust test's null distribution.

Under the null hypothesis the robust statistic ``L_R = -ln(lambda_R)``
is approximated by a scaled chi-square variable, ``L_R ~ delta *
chi2_q``.  Moment matching over ``m'`` simulated null datasets gives

    q = 2 * ave_L**2 / var_L,      delta = ave_L / q,

where ``ave_L`` and ``var_L`` are the sample mean and variance of the
simulated statistics.  The pair (delta, q) depends on the full design
(p, r, c, n), on the model and on the tested hypothesis, so fitted
entries are persisted in a small text cache and reused whenever the
same design recurs.

Calibration must run the exact same estimation pipeline as the test
itself, including the trimming configuration; mixing configurations
would invalidate the fitted null distribution.
"""

from __future__ import annotations

import fcntl
import logging
import math
import os
import uuid
from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Iterable

import numpy as np

from .distributions import RngStream
from .errors import CorruptCache, DomainError, MissingCalibration
from .manova import Hypothesis, Model, hypotheses_for
# Unused here since simulation.replicate runs the loop; perfbench/tracer.py wraps these names.
from .manova import (  # noqa: F401
    classical_ssp, layout_from_cells, robust_weights, weighted_ssp, wilks_lambda,
)
from .mcd import McdConfig
from .simulation import Design, experiment_pairs, gen_null, replicate

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_HEADER",
    "LOW_PRECISION_TRIALS",
    "PIPELINE_VERSION",
    "CalibrationEntry",
    "CalibrationKey",
    "CalibrationSource",
    "cache_path_from_env",
    "calibrate_design",
    "merge_cache",
    "null_statistic_samples",
    "read_cache",
    "write_cache",
]

logger = logging.getLogger(__name__)

CACHE_ENV_VAR = "CAL_CACHE"
CACHE_HEADER = "mcdmanova calibration cache v2"
_V1_HEADER = "mcdmanova calibration cache v1"

# Version of the estimation pipeline a calibration was fitted with: a
# change that moves any bit of the estimator bumps it, so entries fitted
# before the change are never served to a run after it.
PIPELINE_VERSION = 1

# Below this many trials the variance estimate carries too few degrees
# of freedom for a trustworthy tail fit.
LOW_PRECISION_TRIALS = 100

_INVARIANT_TOL = 1e-9


@dataclass(frozen=True)
class CalibrationKey:
    """Identity of one calibrated null distribution.

    Two runs with equal keys produce bit-identical entries, so the key
    doubles as the cache lookup key.  It holds the MCD configuration and
    the pipeline version of the fit, which a test run must share to be
    served the entry.

    Parameters
    ----------
    p, r, c, n : int
        Response dimension, factor level counts and per-cell sample size.
    model : Model
        Model under which lambda is formed.
    hypothesis : Hypothesis
        Tested hypothesis; interactions require the full model.
    m_prime : int
        Number of Monte Carlo trials, at least 2.
    seed : int
        Master seed, a 64-bit unsigned integer.
    alpha, n_starts, n_keep : float, int, int
        The MCD configuration of the fit, checked as an ``McdConfig``;
        ``McdConfig()``'s values by default.
    pipeline : int
        The pipeline version of the fit, ``PIPELINE_VERSION`` by default.
    """

    p: int
    r: int
    c: int
    n: int
    model: Model
    hypothesis: Hypothesis
    m_prime: int
    seed: int
    alpha: float = McdConfig().alpha
    n_starts: int = McdConfig().n_starts
    n_keep: int = McdConfig().n_keep
    pipeline: int = PIPELINE_VERSION

    def __post_init__(self) -> None:
        Design(self.r, self.c, self.n, self.p)
        if self.m_prime < 2:
            raise DomainError(f"m_prime must be at least 2, got {self.m_prime}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if self.hypothesis not in hypotheses_for(self.model):
            raise DomainError(
                f"hypothesis {self.hypothesis.value!r} is not testable "
                f"under the {self.model.value!r} model"
            )
        McdConfig(self.alpha, self.n_starts, self.n_keep)
        if self.pipeline < 1:
            raise DomainError(f"pipeline must be at least 1, got {self.pipeline}")


@dataclass(frozen=True)
class CalibrationEntry:
    """Fitted (delta, q) pair together with the moments that produced it."""

    key: CalibrationKey
    delta: float
    q: float
    ave_L: float
    var_L: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.delta, self.q, self.ave_L, self.var_L))):
            raise DomainError("delta, q, ave_L and var_L must all be finite")
        if not (self.delta > 0 and self.q > 0 and self.var_L > 0):
            raise DomainError("delta, q and var_L must all be positive")
        if abs(self.delta * self.q - self.ave_L) > _INVARIANT_TOL:
            raise DomainError("entry violates delta*q = ave_L")
        if abs(2.0 * self.delta**2 * self.q - self.var_L) > _INVARIANT_TOL:
            raise DomainError("entry violates 2*delta^2*q = var_L")

    @property
    def low_precision(self) -> bool:
        """Whether too few trials back this entry for tail use."""
        return self.key.m_prime < LOW_PRECISION_TRIALS


def null_statistic_samples(
    p: int,
    r: int,
    c: int,
    n: int,
    m_prime: int,
    seed: int,
    mcd_config: McdConfig = McdConfig(),
) -> dict[tuple[Model, Hypothesis], np.ndarray]:
    """Simulate null-distribution samples of the robust ``-ln(lambda_R)``.

    Draws ``m_prime`` datasets of standard-normal cells and computes the
    statistic for every (model, hypothesis) pair from a single SSP
    decomposition per dataset, so all pairs share the identical
    replications.

    Replications on which the robust pipeline degenerates are discarded
    and redrawn from the next sub-stream; the redraw count is logged.

    Returns
    -------
    dict
        Maps each (model, hypothesis) pair to an ``m_prime``-vector of
        statistics, aligned across pairs by replication.
    """
    pairs = experiment_pairs("size")
    lambdas, redraws, attempts = replicate(
        partial(gen_null, Design(r, c, n, p)), RngStream(seed),
        ("mcd",), pairs, m_prime, mcd_config,
    )
    if redraws:
        logger.warning(
            "calibration p=%d r=%d c=%d n=%d seed=%d: redrew %d degenerate "
            "replication(s) out of %d attempts",
            p, r, c, n, seed, redraws, attempts,
        )
    return {pair: -np.log(lambdas["mcd", pair]) for pair in pairs}


def _entry_from_samples(key: CalibrationKey, values: np.ndarray) -> CalibrationEntry:
    ave = float(np.mean(values))
    var = float(np.var(values, ddof=1))
    if not (ave > 0 and var > 0):
        raise DomainError(
            "null statistics are degenerate (zero mean or variance); "
            "cannot fit a scaled chi-square"
        )
    q = 2.0 * ave * ave / var
    delta = ave / q
    return CalibrationEntry(key, delta, q, ave, var)


def calibrate_design(
    p: int,
    r: int,
    c: int,
    n: int,
    m_prime: int,
    seed: int,
    mcd_config: McdConfig = McdConfig(),
) -> tuple[CalibrationEntry, ...]:
    """Fit (delta, q) for every (model, hypothesis) pair of one design by
    Monte Carlo moment matching.

    The five entries share a single simulation pass.  Deterministic
    given ``seed``: the same seed always reproduces identical entries.
    ``mcd_config`` goes into the five keys, with ``PIPELINE_VERSION``, so
    the entries serve only test runs with the same configuration.
    The five keys are built, and so checked, before any simulation runs.
    """
    keys = [
        CalibrationKey(p, r, c, n, model, hyp, m_prime, seed, **asdict(mcd_config))
        for model, hyp in experiment_pairs("size")
    ]
    samples = null_statistic_samples(p, r, c, n, m_prime, seed, mcd_config)
    return tuple(
        _entry_from_samples(key, samples[key.model, key.hypothesis]) for key in keys
    )


# A record's fields: the key's, then the fitted values.  Format, parse,
# sort and match all read these names; records name each field, so a
# field added later leaves older readers a CorruptCache, not a misread.
_KEY_FIELDS = tuple(f.name for f in fields(CalibrationKey))
_VALUE_FIELDS = tuple(f.name for f in fields(CalibrationEntry) if f.name != "key")
_PARSERS = {"int": int, "float": float, "Model": Model, "Hypothesis": Hypothesis}
_TYPES = {f.name: _PARSERS[f.type]
          for f in (*fields(CalibrationKey), *fields(CalibrationEntry)) if f.name != "key"}
# A v1 record holds the other fields, in order; its fit was made at these
# settings (the MCD configuration and the pipeline version).
_V1_SETTINGS = {"alpha": "0.5", "n_starts": "500", "n_keep": "10", "pipeline": "1"}
_V1_FIELDS = tuple(name for name in _TYPES if name not in _V1_SETTINGS)
_SETTING_FIELDS = tuple(_V1_SETTINGS)
# Fits of one null differ only in these; a lookup prefers more trials,
# then the smaller seed.
_TRIAL_FIELDS = ("m_prime", "seed")
_DESIGN_FIELDS = tuple(name for name in _KEY_FIELDS
                       if name not in _SETTING_FIELDS + _TRIAL_FIELDS)


def _text(value) -> str:
    """A record value as written: enums by value, floats to 17 digits."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _named(obj, names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _pairs(named: dict) -> str:
    return " ".join(f"{name}={_text(value)}" for name, value in named.items())


def _sort_key(key: CalibrationKey) -> tuple:
    return tuple(
        value.value if isinstance(value, Enum) else value
        for value in _named(key, _KEY_FIELDS).values()
    )


def _format_entry(entry: CalibrationEntry) -> str:
    return f"{_pairs(_named(entry.key, _KEY_FIELDS))} {_pairs(_named(entry, _VALUE_FIELDS))}"


def _v2_fields(line: str, lineno: int) -> dict[str, str]:
    named: dict[str, str] = {}
    for token in line.split():
        name, _, value = token.partition("=")
        if name not in _TYPES:
            raise CorruptCache(f"cache line {lineno}: unknown field {name!r}")
        if name in named:
            raise CorruptCache(f"cache line {lineno}: field {name!r} given twice")
        named[name] = value
    missing = [name for name in _TYPES if name not in named]
    if missing:
        raise CorruptCache(f"cache line {lineno}: missing field(s) {', '.join(missing)}")
    return named


def _v1_fields(line: str, lineno: int) -> dict[str, str]:
    values = line.split()
    if len(values) != len(_V1_FIELDS):
        raise CorruptCache(
            f"cache line {lineno}: expected {len(_V1_FIELDS)} fields, found {len(values)}"
        )
    return dict(zip(_V1_FIELDS, values)) | _V1_SETTINGS


def _parse_record(named: dict[str, str], lineno: int) -> CalibrationEntry:
    try:
        typed = {name: _TYPES[name](value) for name, value in named.items()}
        key = CalibrationKey(**{name: typed[name] for name in _KEY_FIELDS})
        return CalibrationEntry(key, **{name: typed[name] for name in _VALUE_FIELDS})
    except (ValueError, DomainError) as exc:
        raise CorruptCache(f"cache line {lineno}: {exc}") from exc


def read_cache(path: str | Path) -> dict[CalibrationKey, CalibrationEntry]:
    """Load a cache file; a missing file is an empty cache.

    Reads the v2 format, and v1 files as fits at alpha 0.5 with 500
    starts, 10 kept and pipeline 1.
    """
    path = Path(path)
    if not path.exists():
        return {}
    # a byte above 0x7f decodes to a lone surrogate, found by the line check
    lines = path.read_bytes().decode("ascii", "surrogateescape").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii():
            raise CorruptCache(f"cache line {lineno}: not ASCII")
    split = {CACHE_HEADER: _v2_fields, _V1_HEADER: _v1_fields}.get(lines[0] if lines else None)
    if split is None:
        raise CorruptCache(f"cache line 1: expected header {CACHE_HEADER!r}")
    entries: dict[CalibrationKey, CalibrationEntry] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        entry = _parse_record(split(line, lineno), lineno)
        entries[entry.key] = entry
    return entries


def write_cache(
    path: str | Path, entries: dict[CalibrationKey, CalibrationEntry]
) -> None:
    """Write the whole cache in the v2 format, sorted by key so files
    diff cleanly."""
    path = Path(path)
    lines = [CACHE_HEADER]
    lines.extend(_format_entry(entries[key]) for key in sorted(entries, key=_sort_key))
    # A temporary file of its own per write, so concurrent writers never
    # move each other's half-written files into place.
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("x", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def merge_cache(path: str | Path, entries: Iterable[CalibrationEntry]) -> None:
    """Insert or overwrite entries, creating the file when needed.

    The whole read-update-write holds an exclusive ``flock`` on the
    sidecar file ``<cache>.lock`` (created when missing, never deleted),
    so concurrent merges from threads or processes all keep their
    entries.
    """
    path = Path(path)
    with path.with_name(f"{path.name}.lock").open("a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        stored = read_cache(path)
        stored.update((entry.key, entry) for entry in entries)
        write_cache(path, stored)


def cache_path_from_env() -> Path | None:
    """Cache location from the CAL_CACHE environment variable, if set."""
    value = os.environ.get(CACHE_ENV_VAR)
    return Path(value) if value else None


class CalibrationSource:
    """Calibration lookup used by the robust test.

    Resolves a design to its fitted entry, preferring among matches the
    entry with the most trials (ties broken toward the smallest seed).
    When no entry matches, the design is either calibrated on the fly
    (``on_the_fly`` trials, persisted to ``cache_file`` when one is
    given) or a MissingCalibration error is raised.

    Parameters
    ----------
    entries : iterable of CalibrationEntry, optional
        Preloaded entries, merged with the cache file contents.
    cache_file : path-like, optional
        Persistent cache to read at construction and extend on the fly.
    on_the_fly : int, optional
        Trial count for lazily calibrating unseen designs; None disables.
    seed : int
        Master seed for on-the-fly calibration.
    """

    def __init__(
        self,
        entries: tuple[CalibrationEntry, ...] | list[CalibrationEntry] = (),
        cache_file: str | Path | None = None,
        on_the_fly: int | None = None,
        seed: int = 0,
    ) -> None:
        self.cache_file = Path(cache_file) if cache_file is not None else None
        self.on_the_fly = on_the_fly
        self.seed = seed
        self._entries: dict[CalibrationKey, CalibrationEntry] = {}
        if self.cache_file is not None:
            self._entries.update(read_cache(self.cache_file))
        for entry in entries:
            self._entries[entry.key] = entry

    def entry_for(
        self,
        p: int,
        r: int,
        c: int,
        n: int,
        model: Model,
        hypothesis: Hypothesis,
        mcd_config: McdConfig,
    ) -> CalibrationEntry:
        """The stored entry for one test of design (p, r, c, n).

        Only an entry fitted with ``mcd_config``, the configuration of
        the run the entry serves, and with ``PIPELINE_VERSION`` is
        served, so that null and test share one pipeline.  A design
        without one is calibrated on the fly with ``mcd_config``; with
        on-the-fly calibration disabled, MissingCalibration is raised
        instead, naming the run's settings and any others the design is
        stored at.
        """
        design = dict(p=p, r=r, c=c, n=n, model=model, hypothesis=hypothesis)
        settings = asdict(mcd_config) | {"pipeline": PIPELINE_VERSION}
        stored = [e for e in self._entries.values()
                  if _named(e.key, _DESIGN_FIELDS) == design]
        matches = [e for e in stored if _named(e.key, _SETTING_FIELDS) == settings]
        if matches:
            return max(matches, key=lambda e: (e.key.m_prime, -e.key.seed))
        if self.on_the_fly is None:
            others = sorted({_pairs(_named(e.key, _SETTING_FIELDS)) for e in stored})
            held = f"; stored only at {' and at '.join(others)}" if others else ""
            raise MissingCalibration(
                f"no calibration entry for {_pairs(design)} at {_pairs(settings)}{held}; "
                f"calibrate the design first or enable on-the-fly calibration"
            )
        logger.info(
            "calibrating design p=%d r=%d c=%d n=%d on the fly (%d trials)",
            p, r, c, n, self.on_the_fly,
        )
        fresh = calibrate_design(p, r, c, n, self.on_the_fly, self.seed, mcd_config)
        for entry in fresh:
            self._entries[entry.key] = entry
        if self.cache_file is not None:
            merge_cache(self.cache_file, fresh)
        return self.entry_for(p, r, c, n, model, hypothesis, mcd_config)
