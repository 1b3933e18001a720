"""Command line interface: ingestion, dispatch, and report formatting.

Four subcommands cover the workflows:

``test``
    Run the classical, rank, and robust two-way MANOVA tests on a
    delimited data file and print one p-value row per hypothesis.
``calibrate``
    Simulate null-distribution parameters for one design and store
    them in a calibration cache file.
``simulate``
    Run a Monte Carlo size/power/robustness experiment described by a
    key = value file and print the rejection-rate table.
``ilr``
    Replace the response columns of a table by isometric log-ratio
    coordinates.

Exit status is 0 on success and 2 for command line usage errors.
Every deliberate package error maps to its own documented code (see
``errors``) with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import (
    LOW_PRECISION_TRIALS,
    CalibrationSource,
    cache_path_from_env,
    calibrate_design,
    merge_cache,
)
from .compositions import ilr
from .distributions import RngStream
from .errors import (
    DimensionError,
    DomainError,
    EmptyTable,
    McdManovaError,
    MissingCalibration,
    MissingColumn,
    NonNumeric,
)
from .manova import (
    METHODS,
    Hypothesis,
    Model,
    TwoWayLayout,
    hypotheses_for,
    run_manova,
    validate_layout,
)
from .mcd import McdConfig
from .simulation import format_report_table, read_experiment_file

__all__ = ["RunConfig", "parse_table", "build_parser", "dispatch", "main"]

# Candidate field separators, in tie-breaking order.
_DELIMITERS = (",", ";", "\t")


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one command line invocation.

    Fields irrelevant to a subcommand keep their defaults; the
    invariants below are only enforced where the fields are used.

    Attributes
    ----------
    subcommand : {"test", "calibrate", "simulate", "ilr"}
    input : Path
        Data file (test, ilr) or experiment description file (simulate).
    factors : tuple of str
        Exactly two factor column names (test, ilr).
    responses : tuple of str
        At least one response column name (test, ilr).
    model : Model
    methods : tuple of str
        Requested methods in reporting order, duplicates removed.
    hypotheses : tuple of Hypothesis or None
        Restrict the test report to these hypotheses; None means all
        applicable under the model.
    alpha : float or None
        Significance level; None defers to the experiment file.
    seed : int or None
        Master seed; None defers to the experiment file.
    mcd_alpha : float or None
        Subset fraction of the MCD search; None keeps the default.
    cache : Path or None
        Calibration cache file; None falls back to the CAL_CACHE
        environment variable.
    out : Path or None
        Machine-readable output file.
    apply_ilr : bool
        Transform responses to ilr coordinates before testing.
    on_the_fly : int or None
        Trial count for calibrating unseen designs during the run.
    design : tuple (r, c, n, p) or None
        Design to calibrate (calibrate subcommand only).
    m_prime : int
        Calibration trial count (calibrate subcommand only).
    """

    subcommand: str
    input: Path | None = None
    factors: tuple[str, ...] = ()
    responses: tuple[str, ...] = ()
    model: Model = Model.WITH_INTERACTIONS
    methods: tuple[str, ...] = METHODS
    hypotheses: tuple[Hypothesis, ...] | None = None
    alpha: float | None = None
    seed: int | None = None
    mcd_alpha: float | None = None
    cache: Path | None = None
    out: Path | None = None
    apply_ilr: bool = False
    on_the_fly: int | None = None
    design: tuple[int, int, int, int] | None = None
    m_prime: int = 3000

    def __post_init__(self) -> None:
        if self.subcommand in ("test", "ilr"):
            if len(self.factors) != 2:
                raise DomainError(
                    f"exactly two factor columns required, got {len(self.factors)}"
                )
            if not self.responses:
                raise DomainError("at least one response column required")


def _detect_delimiter(header: str) -> str:
    """Pick the candidate separator occurring most often in the header."""
    return max(_DELIMITERS, key=header.count)


def parse_table(
    path: str | Path,
    factor_cols: tuple[str, ...] | list[str],
    response_cols: tuple[str, ...] | list[str],
) -> list[tuple]:
    """Read a delimited text file into raw (labels..., values...) rows.

    The first line must be a header naming every requested column; the
    field separator is auto-detected among comma, semicolon, and tab.
    Factor columns stay strings (level order is assigned downstream by
    first appearance), response columns are converted to float.  Blank
    lines are skipped; row numbers in diagnostics count data rows.

    Raises
    ------
    EmptyTable
        No lines at all, or a header without data rows.
    MissingColumn
        A requested column is absent from the header.
    NonNumeric
        A response field does not parse as a number.
    DimensionError
        A row has a different field count than the header.
    """
    lines = [
        line for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not lines:
        raise EmptyTable(f"{path}: no header line")
    delim = _detect_delimiter(lines[0])
    header = [field.strip() for field in lines[0].split(delim)]
    wanted = list(factor_cols) + list(response_cols)
    for name in wanted:
        if name not in header:
            raise MissingColumn(
                f"column {name!r} not found; header has {header}"
            )
    indices = [header.index(name) for name in wanted]
    n_factors = len(factor_cols)
    rows: list[tuple] = []
    for rownum, line in enumerate(lines[1:], start=1):
        fields = [field.strip() for field in line.split(delim)]
        if len(fields) != len(header):
            raise DimensionError(
                f"row {rownum} has {len(fields)} fields, header has {len(header)}"
            )
        record: list = [fields[i] for i in indices[:n_factors]]
        for i in indices[n_factors:]:
            try:
                record.append(float(fields[i]))
            except ValueError:
                raise NonNumeric(
                    f"row {rownum}: {fields[i]!r} in column {header[i]!r} "
                    f"is not a number"
                ) from None
        rows.append(tuple(record))
    if not rows:
        raise EmptyTable(f"{path}: header only, no data rows")
    return rows


def _mcd_config(config: RunConfig) -> McdConfig:
    if config.mcd_alpha is None:
        return McdConfig()
    return McdConfig(alpha=config.mcd_alpha)


def _cache_path(config: RunConfig) -> Path | None:
    return config.cache if config.cache is not None else cache_path_from_env()


def _ilr_layout(layout: TwoWayLayout) -> TwoWayLayout:
    """Replace each observation by its ilr coordinates."""
    if layout.p < 2:
        raise DimensionError(
            "the ilr transform needs at least two response columns"
        )
    coords = np.vstack([ilr(obs) for obs in layout.observations])
    return TwoWayLayout(
        layout.r, layout.c, layout.n, layout.p - 1,
        coords, layout.row_label, layout.col_label,
    )


def _hypothesis_label(hypothesis: Hypothesis, factors: tuple[str, ...]) -> str:
    if hypothesis is Hypothesis.ROW_EFFECTS:
        return factors[0]
    if hypothesis is Hypothesis.COL_EFFECTS:
        return factors[1]
    return f"{factors[0]}:{factors[1]}"


def cmd_test(config: RunConfig) -> str:
    """Run the requested tests; return the human table, write --out."""
    rows = parse_table(config.input, config.factors, config.responses)
    layout = validate_layout(rows)
    if config.apply_ilr:
        layout = _ilr_layout(layout)
    seed = 0 if config.seed is None else config.seed
    mcd_config = _mcd_config(config)
    source = None
    if "mcd" in config.methods:
        source = CalibrationSource(
            cache_file=_cache_path(config),
            mcd_config=mcd_config,
            on_the_fly=config.on_the_fly,
            seed=seed,
        )
    reports: dict[str, dict[Hypothesis, object]] = {}
    for method in config.methods:
        try:
            result = run_manova(
                layout, config.model, method, mcd_config, source,
                RngStream(seed),
            )
        except MissingCalibration as exc:
            raise MissingCalibration(
                f"{exc} (pass --calibrate-on-the-fly to simulate it now)"
            ) from None
        reports[method] = {rep.hypothesis: rep for rep in result}
    if source is not None and "mcd" in config.methods:
        trials = min(
            source.entry_for(layout.p, layout.r, layout.c, layout.n,
                             config.model, hyp).key.m_prime
            for hyp in hypotheses_for(config.model)
        )
        if trials < LOW_PRECISION_TRIALS:
            print(
                f"mcdmanova: note: calibration used only {trials} trials; "
                f"mcd p-values are low precision",
                file=sys.stderr,
            )
    shown = config.hypotheses or hypotheses_for(config.model)
    labels = [_hypothesis_label(h, config.factors) for h in shown]
    width = max(len(label) for label in labels)
    lines = [
        " " * width + "".join(f"  {m:>5}" for m in config.methods)
    ]
    for hypothesis, label in zip(shown, labels):
        cells = "".join(
            f"  {reports[m][hypothesis].p_value:>5.3f}" for m in config.methods
        )
        lines.append(label.ljust(width) + cells)
    if config.out is not None:
        machine = ["hypothesis\tmethod\tlambda\tp_value"]
        for hypothesis, label in zip(shown, labels):
            for method in config.methods:
                rep = reports[method][hypothesis]
                machine.append(
                    f"{label}\t{method}\t{rep.lambda_:.17g}\t{rep.p_value:.17g}"
                )
        config.out.write_text("\n".join(machine) + "\n", encoding="utf-8")
    return "\n".join(lines) + "\n"


def cmd_calibrate(config: RunConfig) -> str:
    """Calibrate one design, merge the entries into the cache file."""
    cache = _cache_path(config)
    if cache is None:
        raise DomainError("no cache file: pass --cache or set CAL_CACHE")
    r, c, n, p = config.design
    seed = 0 if config.seed is None else config.seed
    entries = calibrate_design(
        p, r, c, n, config.m_prime, seed, _mcd_config(config)
    )
    merge_cache(cache, entries)
    lines = [
        f"calibrated r={r} c={c} n={n} p={p} with {config.m_prime} trials "
        f"(seed {seed}); {len(entries)} entries written to {cache}"
    ]
    for entry in entries:
        key = entry.key
        lines.append(
            f"  {key.model.value:<12} {key.hypothesis.value:<11} "
            f"delta={entry.delta:.6g} q={entry.q:.6g}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(config: RunConfig) -> str:
    """Run the experiment described by the input file, write --out."""
    spec = read_experiment_file(config.input)
    if config.alpha is not None:
        spec = dataclasses.replace(spec, alpha=config.alpha)
    if config.seed is not None:
        spec = dataclasses.replace(spec, seed=config.seed)
    mcd_config = _mcd_config(config)
    source = None
    if "mcd" in spec.methods:
        source = CalibrationSource(
            cache_file=_cache_path(config),
            mcd_config=mcd_config,
            on_the_fly=config.on_the_fly,
            seed=spec.seed,
        )
    reports = spec.run(mcd_config, source)
    if config.out is not None:
        d = spec.design
        machine = [
            "kind\tr\tc\tp\tn\tmethod\tmodel\thypothesis\tsetting"
            "\talpha\tm\trejections\trate"
        ]
        for rep in reports:
            rejections = int(round(rep.rejection_rate * rep.m))
            machine.append(
                f"{rep.kind}\t{d.r}\t{d.c}\t{d.p}\t{d.n}\t{rep.method}"
                f"\t{rep.model.value}\t{rep.hypothesis.value}"
                f"\t{rep.setting:.17g}\t{rep.alpha:.17g}\t{rep.m}"
                f"\t{rejections}\t{rep.rejection_rate:.17g}"
            )
        config.out.write_text("\n".join(machine) + "\n", encoding="utf-8")
    return format_report_table(reports)


def cmd_ilr(config: RunConfig) -> str:
    """Transform response columns to ilr coordinates, write --out."""
    rows = parse_table(config.input, config.factors, config.responses)
    p = len(config.responses)
    if p < 2:
        raise DimensionError(
            "the ilr transform needs at least two response columns"
        )
    header = list(config.factors) + [f"ilr{k}" for k in range(1, p)]
    lines = [",".join(header)]
    for row in rows:
        coords = ilr(np.asarray(row[2:], dtype=np.float64))
        lines.append(
            ",".join(list(row[:2]) + [f"{z:.17g}" for z in coords])
        )
    text = "\n".join(lines) + "\n"
    if config.out is not None:
        config.out.write_text(text, encoding="utf-8")
        return f"wrote {len(rows)} transformed rows to {config.out}\n"
    return text


_COMMANDS = {
    "test": cmd_test,
    "calibrate": cmd_calibrate,
    "simulate": cmd_simulate,
    "ilr": cmd_ilr,
}


def dispatch(config: RunConfig) -> int:
    """Execute one subcommand; print its report, return exit status 0.

    Package errors propagate to the caller, which maps them to exit
    codes; files named by ``--out`` are written before printing.
    """
    sys.stdout.write(_COMMANDS[config.subcommand](config))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcdmanova",
        description=(
            "Robust two-way MANOVA: classical, rank, and MCD-based "
            "Wilks' Lambda tests with simulation-calibrated null "
            "distributions."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    test = sub.add_parser(
        "test", help="run two-way MANOVA tests on a delimited data file"
    )
    test.add_argument("--input", type=Path, required=True,
                      help="data file with a header row")
    test.add_argument("--factors", nargs=2, required=True,
                      metavar=("ROW", "COL"),
                      help="the two factor column names")
    test.add_argument("--responses", nargs="+", required=True,
                      metavar="COL", help="response column names")
    test.add_argument("--model", choices=["interactions", "additive"],
                      default="interactions")
    test.add_argument("--method", action="append", choices=list(METHODS),
                      help="repeatable; default is cla, rnk, and mcd")
    test.add_argument("--hypothesis", action="append",
                      choices=[h.value for h in Hypothesis],
                      help="repeatable; default is all under the model")
    test.add_argument("--ilr", action="store_true",
                      help="ilr-transform the responses before testing")
    test.add_argument("--seed", type=int, default=0,
                      help="seed for the robust weighting search")
    test.add_argument("--mcd-alpha", type=float, default=None,
                      help="MCD subset fraction in [0.5, 1]")
    test.add_argument("--cache", type=Path, default=None,
                      help="calibration cache file (default: env CAL_CACHE)")
    test.add_argument("--calibrate-on-the-fly", nargs="?", type=int,
                      const=3000, default=None, metavar="TRIALS",
                      help="calibrate missing designs now "
                           "(default 3000 trials)")
    test.add_argument("--out", type=Path, default=None,
                      help="write a full-precision machine-readable table")

    cal = sub.add_parser(
        "calibrate",
        help="simulate null parameters for one design into a cache",
    )
    cal.add_argument("--design", nargs=4, type=int, required=True,
                     metavar=("R", "C", "N", "P"),
                     help="levels, levels, per-cell count, dimension")
    cal.add_argument("--m-prime", type=int, default=3000, dest="m_prime",
                     help="number of simulation trials")
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--mcd-alpha", type=float, default=None,
                     help="MCD subset fraction in [0.5, 1]")
    cal.add_argument("--cache", type=Path, default=None,
                     help="calibration cache file (default: env CAL_CACHE)")

    sim = sub.add_parser(
        "simulate", help="run an experiment described by a key = value file"
    )
    sim.add_argument("--input", type=Path, required=True,
                     help="experiment description file")
    sim.add_argument("--alpha", type=float, default=None,
                     help="override the significance level in the file")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the master seed in the file")
    sim.add_argument("--mcd-alpha", type=float, default=None,
                     help="MCD subset fraction in [0.5, 1]")
    sim.add_argument("--cache", type=Path, default=None,
                     help="calibration cache file (default: env CAL_CACHE)")
    sim.add_argument("--calibrate-on-the-fly", nargs="?", type=int,
                     const=3000, default=None, metavar="TRIALS",
                     help="calibrate missing designs now "
                          "(default 3000 trials)")
    sim.add_argument("--out", type=Path, default=None,
                     help="write a full-precision machine-readable table")

    tr = sub.add_parser(
        "ilr", help="transform response columns to ilr coordinates"
    )
    tr.add_argument("--input", type=Path, required=True)
    tr.add_argument("--factors", nargs=2, required=True,
                    metavar=("ROW", "COL"))
    tr.add_argument("--responses", nargs="+", required=True, metavar="COL",
                    help="compositional part columns, at least two")
    tr.add_argument("--out", type=Path, default=None,
                    help="output file (default: stdout)")

    return parser


def _config_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> RunConfig:
    common = {"subcommand": args.subcommand, "input": getattr(args, "input", None)}
    if args.subcommand == "test":
        model = Model(args.model)
        methods = tuple(dict.fromkeys(args.method)) if args.method else METHODS
        hypotheses = None
        if args.hypothesis:
            hypotheses = tuple(
                Hypothesis(h) for h in dict.fromkeys(args.hypothesis)
            )
            if (model is Model.ADDITIVE_ONLY
                    and Hypothesis.INTERACTIONS in hypotheses):
                parser.error(
                    "the interaction hypothesis is undefined under the "
                    "additive model"
                )
        return RunConfig(
            **common,
            factors=tuple(args.factors),
            responses=tuple(args.responses),
            model=model,
            methods=methods,
            hypotheses=hypotheses,
            seed=args.seed,
            mcd_alpha=args.mcd_alpha,
            cache=args.cache,
            out=args.out,
            apply_ilr=args.ilr,
            on_the_fly=args.calibrate_on_the_fly,
        )
    if args.subcommand == "calibrate":
        return RunConfig(
            subcommand="calibrate",
            design=tuple(args.design),
            m_prime=args.m_prime,
            seed=args.seed,
            mcd_alpha=args.mcd_alpha,
            cache=args.cache,
        )
    if args.subcommand == "simulate":
        return RunConfig(
            **common,
            alpha=args.alpha,
            seed=args.seed,
            mcd_alpha=args.mcd_alpha,
            cache=args.cache,
            out=args.out,
            on_the_fly=args.calibrate_on_the_fly,
        )
    return RunConfig(
        **common,
        factors=tuple(args.factors),
        responses=tuple(args.responses),
        out=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments, dispatch, map errors to exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return dispatch(_config_from_args(args, parser))
    except McdManovaError as exc:
        print(f"mcdmanova: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"mcdmanova: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
