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

import logging
import os
import uuid
from dataclasses import dataclass
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
    "CalibrationEntry",
    "CalibrationKey",
    "CalibrationSource",
    "cache_path_from_env",
    "calibrate",
    "calibrate_design",
    "merge_cache",
    "null_statistic_samples",
    "read_cache",
    "write_cache",
]

logger = logging.getLogger(__name__)

CACHE_ENV_VAR = "CAL_CACHE"
CACHE_HEADER = "mcdmanova calibration cache v1"

# Below this many trials the variance estimate carries too few degrees
# of freedom for a trustworthy tail fit.
LOW_PRECISION_TRIALS = 100

_INVARIANT_TOL = 1e-9


@dataclass(frozen=True)
class CalibrationKey:
    """Identity of one calibrated null distribution.

    Two runs with equal keys produce bit-identical entries, so the key
    doubles as the cache lookup key.

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
    """

    p: int
    r: int
    c: int
    n: int
    model: Model
    hypothesis: Hypothesis
    m_prime: int
    seed: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise DomainError(f"p must be positive, got {self.p}")
        if self.r < 2 or self.c < 2:
            raise DomainError(f"need at least 2 levels per factor, got {self.r}x{self.c}")
        if self.n < 2:
            raise DomainError(f"need at least 2 observations per cell, got {self.n}")
        if self.m_prime < 2:
            raise DomainError(f"m_prime must be at least 2, got {self.m_prime}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if self.hypothesis not in hypotheses_for(self.model):
            raise DomainError(
                f"hypothesis {self.hypothesis.value!r} is not testable "
                f"under the {self.model.value!r} model"
            )


@dataclass(frozen=True)
class CalibrationEntry:
    """Fitted (delta, q) pair together with the moments that produced it."""

    key: CalibrationKey
    delta: float
    q: float
    ave_L: float
    var_L: float

    def __post_init__(self) -> None:
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
    method: str = "mcd",
    mcd_config: McdConfig | None = None,
) -> dict[tuple[Model, Hypothesis], np.ndarray]:
    """Simulate null-distribution samples of ``-ln(lambda)``.

    Draws ``m_prime`` datasets of standard-normal cells and computes the
    statistic for every (model, hypothesis) pair from a single SSP
    decomposition per dataset, so all pairs share the identical
    replications.  ``method`` selects the robust pipeline (``"mcd"``) or
    the classical one (``"cla"``, used for sanity checks).

    Replications on which the robust pipeline degenerates are discarded
    and redrawn from the next sub-stream; the redraw count is logged.

    Returns
    -------
    dict
        Maps each (model, hypothesis) pair to an ``m_prime``-vector of
        statistics, aligned across pairs by replication.
    """
    if method not in ("mcd", "cla"):
        raise DomainError(f"unknown calibration method {method!r}")
    pairs = experiment_pairs("size")
    lambdas, redraws, attempts = replicate(
        partial(gen_null, Design(r, c, n, p)), RngStream(seed),
        (method,), pairs, m_prime, mcd_config,
    )
    if redraws:
        logger.warning(
            "calibration p=%d r=%d c=%d n=%d seed=%d: redrew %d degenerate "
            "replication(s) out of %d attempts",
            p, r, c, n, seed, redraws, attempts,
        )
    return {pair: -np.log(lambdas[method, pair]) for pair in pairs}


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


def calibrate(
    key: CalibrationKey, mcd_config: McdConfig | None = None
) -> CalibrationEntry:
    """Fit (delta, q) for one key by Monte Carlo moment matching.

    Deterministic given ``key.seed``; the same seed always reproduces
    the identical entry.  ``mcd_config`` must match the configuration
    later used for testing.
    """
    samples = null_statistic_samples(
        key.p, key.r, key.c, key.n, key.m_prime, key.seed, "mcd", mcd_config
    )
    return _entry_from_samples(key, samples[(key.model, key.hypothesis)])


def calibrate_design(
    p: int,
    r: int,
    c: int,
    n: int,
    m_prime: int,
    seed: int,
    mcd_config: McdConfig | None = None,
) -> tuple[CalibrationEntry, ...]:
    """Calibrate every (model, hypothesis) pair of one design at once.

    The five entries share a single simulation pass, so this costs the
    same as one :func:`calibrate` call and each returned entry is
    bit-identical to what the corresponding single-key call produces.
    """
    samples = null_statistic_samples(p, r, c, n, m_prime, seed, "mcd", mcd_config)
    entries = []
    for (model, hyp), values in samples.items():
        key = CalibrationKey(p, r, c, n, model, hyp, m_prime, seed)
        entries.append(_entry_from_samples(key, values))
    return tuple(entries)


def _format_entry(entry: CalibrationEntry) -> str:
    k = entry.key
    return (
        f"{k.p} {k.r} {k.c} {k.n} {k.model.value} {k.hypothesis.value} "
        f"{k.m_prime} {k.seed} "
        f"{entry.delta:.17g} {entry.q:.17g} {entry.ave_L:.17g} {entry.var_L:.17g}"
    )


def _parse_record(line: str, lineno: int) -> CalibrationEntry:
    fields = line.split()
    if len(fields) != 12:
        raise CorruptCache(
            f"cache line {lineno}: expected 12 fields, found {len(fields)}"
        )
    try:
        key = CalibrationKey(
            int(fields[0]), int(fields[1]), int(fields[2]), int(fields[3]),
            Model(fields[4]), Hypothesis(fields[5]),
            int(fields[6]), int(fields[7]),
        )
        return CalibrationEntry(
            key, float(fields[8]), float(fields[9]),
            float(fields[10]), float(fields[11]),
        )
    except (ValueError, DomainError) as exc:
        raise CorruptCache(f"cache line {lineno}: {exc}") from exc


def read_cache(path: str | Path) -> dict[CalibrationKey, CalibrationEntry]:
    """Load a cache file; a missing file is an empty cache."""
    path = Path(path)
    if not path.exists():
        return {}
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != CACHE_HEADER:
        raise CorruptCache(f"cache line 1: expected header {CACHE_HEADER!r}")
    entries: dict[CalibrationKey, CalibrationEntry] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        entry = _parse_record(line, lineno)
        entries[entry.key] = entry
    return entries


def write_cache(
    path: str | Path, entries: dict[CalibrationKey, CalibrationEntry]
) -> None:
    """Write the whole cache, sorted by key so files diff cleanly."""
    path = Path(path)

    def sort_key(key: CalibrationKey):
        return (key.p, key.r, key.c, key.n, key.model.value,
                key.hypothesis.value, key.m_prime, key.seed)

    lines = [CACHE_HEADER]
    lines.extend(
        _format_entry(entries[key]) for key in sorted(entries, key=sort_key)
    )
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
    """Insert or overwrite entries, creating the file when needed."""
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
    mcd_config : McdConfig, optional
        Configuration shared between calibration and testing.
    on_the_fly : int, optional
        Trial count for lazily calibrating unseen designs; None disables.
    seed : int
        Master seed for on-the-fly calibration.
    """

    def __init__(
        self,
        entries: tuple[CalibrationEntry, ...] | list[CalibrationEntry] = (),
        cache_file: str | Path | None = None,
        mcd_config: McdConfig | None = None,
        on_the_fly: int | None = None,
        seed: int = 0,
    ) -> None:
        self.cache_file = Path(cache_file) if cache_file is not None else None
        self.mcd_config = mcd_config
        self.on_the_fly = on_the_fly
        self.seed = seed
        self._entries: dict[CalibrationKey, CalibrationEntry] = {}
        if self.cache_file is not None:
            self._entries.update(read_cache(self.cache_file))
        for entry in entries:
            self._entries[entry.key] = entry

    def add(self, entry: CalibrationEntry) -> None:
        self._entries[entry.key] = entry

    def entry_for(
        self,
        p: int,
        r: int,
        c: int,
        n: int,
        model: Model,
        hypothesis: Hypothesis,
    ) -> CalibrationEntry:
        matches = [
            e for e in self._entries.values()
            if (e.key.p, e.key.r, e.key.c, e.key.n) == (p, r, c, n)
            and e.key.model is model and e.key.hypothesis is hypothesis
        ]
        if matches:
            return max(matches, key=lambda e: (e.key.m_prime, -e.key.seed))
        if self.on_the_fly is None:
            raise MissingCalibration(
                f"no calibration entry for p={p} r={r} c={c} n={n} "
                f"model={model.value} hypothesis={hypothesis.value}; "
                f"calibrate the design first or enable on-the-fly calibration"
            )
        logger.info(
            "calibrating design p=%d r=%d c=%d n=%d on the fly (%d trials)",
            p, r, c, n, self.on_the_fly,
        )
        fresh = calibrate_design(
            p, r, c, n, self.on_the_fly, self.seed, self.mcd_config
        )
        for entry in fresh:
            self._entries[entry.key] = entry
        if self.cache_file is not None:
            merge_cache(self.cache_file, fresh)
        return self.entry_for(p, r, c, n, model, hypothesis)
