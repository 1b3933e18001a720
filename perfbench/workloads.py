"""The benchmark workloads: inputs, top-level calls and output checks.

Every workload is a closed loop with one caller: call ``i`` starts when
call ``i - 1`` has returned.  Inputs derive from the workload seed alone;
the package only ever sees the generated inputs.  Top-level functions are
looked up on their module at call time, so the tracer's wrappers see
them.

Checks are statistical or structural, never bitwise against a stored
output, so a legitimate estimator change still passes:

* calibration entries satisfy ``delta*q = ave_L`` and
  ``2*delta^2*q = var_L``, and the pooled ``ave_L`` and ``q`` lie in Monte
  Carlo bands around the frozen high-trial reference;
* rejection rates of true-null hypotheses lie in a binomial band around
  alpha;
* ``--out`` files parse, with p-values in [0, 1].
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import quality
from mcdmanova import calibration, cli, simulation

ALPHA = 0.05
# Band half-width: Z_RATE binomial standard errors plus RATE_SLACK for
# the Bartlett approximation itself.
Z_RATE = 4.0
RATE_SLACK = 0.02
# Calibration bands, in standard errors: ave_L by the central limit
# theorem, log q by the scaled-chi2 delta method widened by Q_TAIL,
# because -ln(lambda_R) has heavier tails than chi2 (log q over 20
# m'=100 calibrations of the 3x2 n=30 p=2 design: sd 0.25, model 0.18).
Z_CAL = 5.0
Q_TAIL = 1.5
INVARIANT_TOL = 1e-9
SETUP_TRIALS = 100  # calibration.LOW_PRECISION_TRIALS: not low precision
# Seed paths under the workload seed, apart from the call indices 0, 1, ...
SETUP_PATH = 1 << 20  # setup calibration
TABLE_PATH = 1 << 21  # cli --seed of each table
WARM_CALL = 1 << 30  # call index of the untimed warm-up call


def derive(seed: int, *path: int) -> int:
    """A 32-bit seed for ``path`` under the workload ``seed``."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint32)
    return int(state[0])


@dataclass
class Workload:
    """Base: a seed, a scratch directory, and the frozen reference."""

    seed: int
    workdir: Path
    reference: dict
    setups: list = field(default_factory=list)

    name = ""
    quality_model = ""
    units_per_call = 1
    latency_name = "call_ms"  # prefix of the printed call latency percentiles

    def setup(self) -> None:
        """Build inputs and warm caches; may run several times."""

    def call(self, i: int) -> Any:
        raise NotImplementedError

    def collect(self, i: int, raw: Any) -> Any:
        """Turn a call's return value into what the checks read."""
        return raw

    def failed(self, raw: Any) -> bool:
        """Whether a call that returned ``raw`` failed without raising."""
        return False

    def seeds(self, calls: int) -> dict:
        return {
            "workload_seed": self.seed,
            "setup_seed": self.setup_seed,
            "warm_call_seed": derive(self.seed, WARM_CALL),
            "call_seeds": [derive(self.seed, i) for i in range(calls)],
        }

    def fingerprint(self, result: Any) -> Any:
        """Comparable form of a result, for traced/untraced agreement."""
        return result

    def check(self, results: list[Any]) -> list[str]:
        raise NotImplementedError

    @property
    def setup_seed(self) -> int:
        return derive(self.seed, SETUP_PATH)

    def warm(self) -> None:
        self.collect(WARM_CALL, self.call(WARM_CALL))


# -- checks shared by several workloads --------------------------------------


def check_entries(entries, m_prime: int, seed: int, p: int) -> list[str]:
    problems = []
    if len(entries) != 5:
        problems.append(f"expected 5 calibration entries, got {len(entries)}")
    for e in entries:
        k = e.key
        label = f"{k.model.value}/{k.hypothesis.value}"
        if (k.p, k.r, k.c, k.n, k.m_prime, k.seed) != (p, 3, 2, 30, m_prime, seed):
            problems.append(f"{label}: key {k} does not match the request")
        scale = max(1.0, abs(e.ave_L), abs(e.var_L))
        if abs(e.delta * e.q - e.ave_L) > INVARIANT_TOL * scale:
            problems.append(f"{label}: delta*q != ave_L")
        if abs(2.0 * e.delta**2 * e.q - e.var_L) > INVARIANT_TOL * scale:
            problems.append(f"{label}: 2*delta^2*q != var_L")
    return problems


def pooled_moments(groups: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    """Combine (count, mean, sample variance) groups into one."""
    total = sum(m for m, _, _ in groups)
    mean = sum(m * a for m, a, _ in groups) / total
    ss = sum((m - 1) * v + m * (a - mean) ** 2 for m, a, v in groups)
    return total, mean, ss / (total - 1)


def calibration_band_problems(calls: list[tuple], ref: dict) -> list[str]:
    """Pooled ave_L and q of every (model, hypothesis) pair against the
    high-trial reference."""
    problems = []
    m_ref = ref["m_prime"]
    by_pair: dict[str, list] = {}
    for entries in calls:
        for e in entries:
            label = f"{e.key.model.value}/{e.key.hypothesis.value}"
            by_pair.setdefault(label, []).append((e.key.m_prime, e.ave_L, e.var_L))
    for label, groups in by_pair.items():
        m, ave, var = pooled_moments(groups)
        r = ref["entries"][label]
        scale = 1.0 / m + 1.0 / m_ref
        ave_se = math.sqrt(r["var_L"] * scale)
        if abs(ave - r["ave_L"]) > Z_CAL * ave_se:
            problems.append(
                f"{label}: pooled ave_L {ave:.4g} over {m} trials is outside "
                f"{r['ave_L']:.4g} +- {Z_CAL * ave_se:.3g}"
            )
        q_hat = 2.0 * ave * ave / var
        log_se = Q_TAIL * math.sqrt((2.0 + 4.0 / r["q"]) * scale)
        if abs(math.log(q_hat / r["q"])) > Z_CAL * log_se:
            problems.append(
                f"{label}: pooled q {q_hat:.4g} over {m} trials is outside "
                f"{r['q']:.4g} times exp(+-{Z_CAL * log_se:.3g})"
            )
    return problems


def rate_problem(label: str, rejections: int, m: int) -> str | None:
    rate = rejections / m
    half = Z_RATE * math.sqrt(ALPHA * (1.0 - ALPHA) / m) + RATE_SLACK
    if abs(rate - ALPHA) > half:
        return f"{label}: true-null rejection rate {rate:.4f} over {m} is outside {ALPHA} +- {half:.4f}"
    return None


def report_problems(calls: list[list], null_keys: set[tuple[str, str]]) -> list[str]:
    """P-value range of every report; pooled rates of true-null tests."""
    problems = []
    counts: dict[tuple[str, str], list[int]] = {}
    for reports in calls:
        for rep in reports:
            pv = rep.p_values
            if not np.all((pv >= 0.0) & (pv <= 1.0)):
                problems.append(f"{rep.method}/{rep.hypothesis.value}: p-value outside [0, 1]")
            key = (rep.method, f"{rep.model.value}/{rep.hypothesis.value}")
            if key in null_keys:
                tally = counts.setdefault(key, [0, 0])
                tally[0] += int(np.count_nonzero(pv < ALPHA))
                tally[1] += rep.m
    for key in sorted(null_keys):
        if key not in counts:
            problems.append(f"{key}: no replications to check")
            continue
        problem = rate_problem(f"{key[0]} {key[1]}", *counts[key])
        if problem:
            problems.append(problem)
    return sorted(set(problems))


def report_fingerprint(reports) -> tuple:
    return tuple(
        (r.method, r.model.value, r.hypothesis.value, r.setting, tuple(r.p_values.tolist()))
        for r in reports
    )


def entries_fingerprint(entries) -> tuple:
    return tuple((e.delta, e.q, e.ave_L, e.var_L) for e in entries)


# -- the workloads -------------------------------------------------------------


class CalibrateWorkload(Workload):
    """Closed loop of ``calibrate_design`` calls, m' trials each."""

    name = "calibrate-3x2-p2"
    quality_model = "clean-p2"
    m_prime = 3
    units_per_call = m_prime

    def setup(self):
        self.warm()

    def call(self, i: int):
        return calibration.calibrate_design(2, 3, 2, 30, self.m_prime, derive(self.seed, i))

    def fingerprint(self, result):
        return entries_fingerprint(result)

    def check(self, results):
        problems = []
        for i, entries in results:
            problems += check_entries(entries, self.m_prime, derive(self.seed, i), 2)
        problems += calibration_band_problems([e for _, e in results], self.reference["calibration"]["p2"])
        return problems


class PowerWorkload(Workload):
    """cla/rnk power experiment under an interaction alternative."""

    name = "power-baselines-2x2-p2"
    # This workload never calls MCD.  On its own 2x2 n=20 design the
    # default search finds the reference optimum on every dataset, so the
    # gap would read 0; it carries the contaminated p = 4 search-quality
    # guard instead, where short searches miss most often.
    quality_model = "contaminated-p4"
    design = (2, 2, 20, 2)
    settings = (0.5, 1.0)
    m = 20
    units_per_call = m * len(settings)
    # The interaction alternative leaves both main effects null.
    null_keys = {
        (method, f"interactions/{hyp}") for method in ("cla", "rnk") for hyp in ("row", "col")
    }

    def setup(self):
        self.warm()

    def call(self, i: int):
        return simulation.run_experiment(
            "power_inter", simulation.Design(*self.design), self.settings,
            ("cla", "rnk"), self.m, master_seed=derive(self.seed, i),
        )

    def fingerprint(self, result):
        return report_fingerprint(result)

    def check(self, results):
        return report_problems([r for _, r in results], self.null_keys)


def composition_table(seed: int, table: int) -> str:
    """A 3-part compositional table on 3x2 cells of 30, as CSV text.

    ilr coordinates follow the contaminated p = 2 data model of
    ``quality.py``; parts carry a random total, rows are shuffled.
    """
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, table])))
    cells = gen.standard_normal((3, 2, 30, 2))
    cells = quality.contaminate(cells, gen, quality.NU[table % len(quality.NU)])
    # pivot-basis contrasts: ilr(x) = V ln(x) with V V' = I, V 1 = 0
    v = np.array([
        [math.sqrt(0.5), -math.sqrt(0.5), 0.0],
        [math.sqrt(1 / 6), math.sqrt(1 / 6), -2 * math.sqrt(1 / 6)],
    ])
    rows = []
    for i in range(3):
        for j in range(2):
            for z in cells[i, j]:
                log_parts = v.T @ z
                parts = np.exp(log_parts - log_parts.max()) * gen.lognormal(3.0, 0.5)
                rows.append(f"d{i + 1},y{j + 1}," + ",".join(f"{x:.17g}" for x in parts))
    order = gen.permutation(len(rows))
    return "district,year,a,b,c\n" + "\n".join(rows[k] for k in order) + "\n"


class CliWorkload(Workload):
    """One client calling ``cli.main(["test", "--ilr", ...])`` in a loop."""

    name = "cli-test-ilr"
    quality_model = "contaminated-p2"
    latency_name = "test_ms"
    tables = 4

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for t in range(self.tables):
            (self.workdir / f"table{t}.csv").write_text(
                composition_table(self.seed, t), encoding="ascii"
            )
        entries = calibration.calibrate_design(2, 3, 2, 30, SETUP_TRIALS, self.setup_seed)
        self.setups.append(entries)
        self.cache = self.workdir / "calibrations.txt"
        calibration.write_cache(self.cache, {e.key: e for e in entries})
        self.warm()

    def argv(self, i: int) -> list[str]:
        t = i % self.tables
        return [
            "test", "--input", str(self.workdir / f"table{t}.csv"),
            "--factors", "district", "year", "--responses", "a", "b", "c", "--ilr",
            "--method", "cla", "--method", "rnk", "--method", "mcd",
            "--cache", str(self.cache), "--seed", str(derive(self.seed, TABLE_PATH, t)),
            "--out", str(self.workdir / f"out{t}.tsv"),
        ]

    def seeds(self, calls: int) -> dict:
        return {
            "workload_seed": self.seed,
            "setup_seed": self.setup_seed,
            "table_seeds": [[self.seed, t] for t in range(self.tables)],
            "table_cli_seeds": [derive(self.seed, TABLE_PATH, t) for t in range(self.tables)],
        }

    def failed(self, raw) -> bool:
        return raw != 0

    def call(self, i: int):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(self.argv(i))

    def collect(self, i: int, raw):
        t = i % self.tables
        path = self.workdir / f"out{t}.tsv"
        out = path.read_text(encoding="utf-8") if path.exists() else ""
        path.unlink(missing_ok=True)
        return (t, raw, out)

    def check(self, results):
        ref = self.reference["calibration"]["p2"]
        problems = setup_problems(self.setups, 2, self.setup_seed, ref)
        seen: dict[int, str] = {}
        for i, (t, code, out) in results:
            if code != 0:
                problems.append(f"call {i}: exit status {code}")
                continue
            if seen.setdefault(t, out) != out:
                problems.append(f"table {t}: --out differs between calls on the same input")
            problems += out_problems(out)
        return sorted(set(problems))


def setup_problems(setups: list, p: int, seed: int, ref: dict) -> list[str]:
    problems = check_entries(setups[-1], SETUP_TRIALS, seed, p)
    problems += calibration_band_problems([setups[-1]], ref)
    if any(entries_fingerprint(s) != entries_fingerprint(setups[0]) for s in setups):
        problems.append("repeated setup calibrations with one seed differ")
    return problems


def out_problems(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "hypothesis\tmethod\tlambda\tp_value":
        return ["--out header is missing"]
    problems = []
    if len(lines) != 1 + 3 * 3:
        problems.append(f"--out has {len(lines) - 1} rows, expected 9")
    for line in lines[1:]:
        fields = line.split("\t")
        try:
            lam, pv = float(fields[2]), float(fields[3])
        except (IndexError, ValueError):
            problems.append(f"--out row does not parse: {line!r}")
            continue
        if not 0.0 <= pv <= 1.0:
            problems.append(f"--out p-value {pv} outside [0, 1]")
        if not 0.0 < lam <= 1.0:
            problems.append(f"--out lambda {lam} outside (0, 1]")
    return problems


WORKLOADS = {
    w.name: w for w in (CalibrateWorkload, PowerWorkload, CliWorkload)
}
