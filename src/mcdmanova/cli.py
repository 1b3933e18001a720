"""Command line interface: ingestion, subcommands, and report formatting.

Four subcommands cover the workflows; each is a ``cmd_*`` function that
reads the parsed :class:`argparse.Namespace` directly and returns the
text to print:

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
from functools import lru_cache
from pathlib import Path

import numpy as np

from .calibration import (
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
from .simulation import _read_utf8, format_report_table, read_experiment_file

__all__ = ["parse_table", "build_parser", "main"]

# Candidate field separators, in tie-breaking order; a table's is the
# one its header holds most often.
_DELIMITERS = (",", ";", "\t")

# Simulation trials of `calibrate` and of `--calibrate-on-the-fly` without
# a count.
DEFAULT_TRIALS = 3000


def parse_table(
    path: str | Path,
    factor_cols: tuple[str, ...] | list[str],
    response_cols: tuple[str, ...] | list[str],
) -> list[tuple]:
    """Read a delimited text file into raw (labels..., values...) rows.

    The first line must be a header naming every requested column once;
    the field separator is auto-detected among comma, semicolon, and
    tab, and a leading UTF-8 byte-order mark is dropped.
    Factor columns stay strings (level order is assigned downstream by
    first appearance), response columns are converted to float.  Blank
    lines are skipped; row numbers in diagnostics count data rows.

    Raises
    ------
    DomainError
        The file is not UTF-8, a column is named twice among the factor
        and response columns, or a requested column appears more than
        once in the header.
    EmptyTable
        No lines at all, or a header without data rows.
    MissingColumn
        A requested column is absent from the header.
    NonNumeric
        A response field does not parse as a number.
    DimensionError
        A row has a different field count than the header.
    """
    return _read_table(path, factor_cols, response_cols)[0]


def _read_table(
    path: str | Path,
    factor_cols: tuple[str, ...] | list[str],
    response_cols: tuple[str, ...] | list[str],
) -> tuple[list[tuple], str]:
    # parse_table's rows, and the field separator it detected
    lines = [line for line in _read_utf8(path).splitlines() if line.strip()]
    if not lines:
        raise EmptyTable(f"{path}: no header line")
    delim = max(_DELIMITERS, key=lines[0].count)
    header = [field.strip() for field in lines[0].split(delim)]
    wanted = list(factor_cols) + list(response_cols)
    for k, name in enumerate(wanted):
        if name in wanted[:k]:
            raise DomainError(f"column {name!r} is named twice")
        if name not in header:
            raise MissingColumn(
                f"column {name!r} not found; header has {header}"
            )
        if header.count(name) > 1:
            raise DomainError(f"column {name!r} appears more than once in the header")
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
    return rows, delim


def _cache_path(args: argparse.Namespace) -> Path | None:
    return args.cache if args.cache is not None else cache_path_from_env()


def _calibration_source(
    args: argparse.Namespace, methods: tuple[str, ...], seed: int
) -> CalibrationSource | None:
    # The calibration lookup of cmd_test and cmd_simulate, None when the
    # run has no mcd method.
    if "mcd" not in methods:
        return None
    return CalibrationSource(
        cache_file=_cache_path(args),
        on_the_fly=args.calibrate_on_the_fly,
        seed=seed,
    )


def _ilr_rows(values: np.ndarray) -> np.ndarray:
    """The ilr coordinates of each row of an (N, p) array, p >= 2."""
    if values.shape[1] < 2:
        raise DimensionError("the ilr transform needs at least two response columns")
    return ilr(values)


def _ilr_layout(layout: TwoWayLayout) -> TwoWayLayout:
    """Replace each observation by its ilr coordinates."""
    coords = _ilr_rows(layout.observations)
    return TwoWayLayout(layout.r, layout.c, layout.n, coords.shape[1], coords)


def _hypothesis_label(hypothesis: Hypothesis, factors: list[str]) -> str:
    if hypothesis is Hypothesis.ROW_EFFECTS:
        return factors[0]
    if hypothesis is Hypothesis.COL_EFFECTS:
        return factors[1]
    return f"{factors[0]}:{factors[1]}"


def cmd_test(args: argparse.Namespace) -> str:
    """Run the requested tests; return the human table, write --out."""
    rows = parse_table(args.input, args.factors, args.responses)
    layout = validate_layout(rows)
    if args.ilr:
        layout = _ilr_layout(layout)
    model = Model(args.model)
    # repeated flags keep their first position, in reporting order
    methods = tuple(dict.fromkeys(args.method)) if args.method else METHODS
    shown = (
        tuple(Hypothesis(h) for h in dict.fromkeys(args.hypothesis))
        if args.hypothesis else hypotheses_for(model)
    )
    mcd_config = McdConfig(alpha=args.mcd_alpha)
    source = _calibration_source(args, methods, args.seed)
    reports: dict[str, dict[Hypothesis, object]] = {}
    for method in methods:
        try:
            result = run_manova(
                layout, model, method, mcd_config, source, RngStream(args.seed), shown,
            )
        except MissingCalibration as exc:
            raise MissingCalibration(
                f"{exc} (pass --calibrate-on-the-fly to simulate it now)"
            ) from None
        reports[method] = {rep.hypothesis: rep for rep in result}
    if source is not None:
        entries = [rep.approx for rep in reports["mcd"].values()]
        if any(entry.low_precision for entry in entries):
            trials = min(entry.key.m_prime for entry in entries)
            print(
                f"mcdmanova: note: calibration used only {trials} trials; "
                f"mcd p-values are low precision",
                file=sys.stderr,
            )
    labels = [_hypothesis_label(h, args.factors) for h in shown]
    width = max(len(label) for label in labels)
    lines = [
        " " * width + "".join(f"  {m:>5}" for m in methods)
    ]
    for hypothesis, label in zip(shown, labels):
        cells = "".join(
            f"  {reports[m][hypothesis].p_value:>5.3f}" for m in methods
        )
        lines.append(label.ljust(width) + cells)
    if args.out is not None:
        machine = ["hypothesis\tmethod\tlambda\tp_value"]
        for hypothesis, label in zip(shown, labels):
            for method in methods:
                rep = reports[method][hypothesis]
                machine.append(
                    f"{label}\t{method}\t{rep.lambda_:.17g}\t{rep.p_value:.17g}"
                )
        args.out.write_text("\n".join(machine) + "\n", encoding="utf-8")
    return "\n".join(lines) + "\n"


def cmd_calibrate(args: argparse.Namespace) -> str:
    """Calibrate one design, merge the entries into the cache file."""
    cache = _cache_path(args)
    if cache is None:
        raise DomainError("no cache file: pass --cache or set CAL_CACHE")
    r, c, n, p = args.design
    entries = calibrate_design(
        p, r, c, n, args.m_prime, args.seed, McdConfig(alpha=args.mcd_alpha)
    )
    merge_cache(cache, entries)
    lines = [
        f"calibrated r={r} c={c} n={n} p={p} with {args.m_prime} trials "
        f"(seed {args.seed}); {len(entries)} entries written to {cache}"
    ]
    for entry in entries:
        key = entry.key
        lines.append(
            f"  {key.model.value:<12} {key.hypothesis.value:<11} "
            f"delta={entry.delta:.6g} q={entry.q:.6g}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args: argparse.Namespace) -> str:
    """Run the experiment described by the input file, write --out."""
    spec = read_experiment_file(args.input)
    if args.alpha is not None:
        spec = dataclasses.replace(spec, alpha=args.alpha)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    mcd_config = McdConfig(alpha=args.mcd_alpha)
    source = _calibration_source(args, spec.methods, spec.seed)
    reports = spec.run(mcd_config, source)
    if args.out is not None:
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
        args.out.write_text("\n".join(machine) + "\n", encoding="utf-8")
    return format_report_table(reports)


def cmd_ilr(args: argparse.Namespace) -> str:
    """Transform response columns to ilr coordinates, write --out."""
    rows, delim = _read_table(args.input, args.factors, args.responses)
    table = _ilr_rows(np.array([row[2:] for row in rows], dtype=np.float64))
    header = list(args.factors) + [f"ilr{k}" for k in range(1, len(args.responses))]
    lines = [delim.join(header)]
    for row, coords in zip(rows, table):
        lines.append(delim.join(list(row[:2]) + [f"{z:.17g}" for z in coords]))
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        return f"wrote {len(rows)} transformed rows to {args.out}\n"
    return text


_COMMANDS = {
    "test": cmd_test,
    "calibrate": cmd_calibrate,
    "simulate": cmd_simulate,
    "ilr": cmd_ilr,
}


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
    # main reports test's own usage errors through it
    test.set_defaults(subparser=test)

    cal = sub.add_parser(
        "calibrate",
        help="simulate null parameters for one design into a cache",
    )
    cal.add_argument("--design", nargs=4, type=int, required=True,
                     metavar=("R", "C", "N", "P"),
                     help="levels, levels, per-cell count, dimension")
    cal.add_argument("--m-prime", type=int, default=DEFAULT_TRIALS,
                     dest="m_prime", help="number of simulation trials")
    cal.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser(
        "simulate", help="run an experiment described by a key = value file"
    )
    sim.add_argument("--input", type=Path, required=True,
                     help="experiment description file")
    sim.add_argument("--alpha", type=float, default=None,
                     help="override the significance level in the file")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the master seed in the file")

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

    # shared options, added after each subcommand's own, where --help lists them
    for cmd in (test, cal, sim):
        cmd.add_argument("--mcd-alpha", type=float, default=McdConfig.alpha,
                         help="MCD subset fraction in [0.5, 1]")
        cmd.add_argument("--cache", type=Path, default=None,
                         help="calibration cache file (default: env CAL_CACHE)")
    for cmd in (test, sim):
        cmd.add_argument("--calibrate-on-the-fly", nargs="?", type=int,
                         const=DEFAULT_TRIALS, default=None, metavar="TRIALS",
                         help="calibrate missing designs now (default %(const)s trials)")
        cmd.add_argument("--out", type=Path, default=None,
                         help="write a full-precision machine-readable table")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Built once per process; parsing leaves the parser unchanged.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments, run the subcommand, print its report.

    Package errors map to their exit codes; files named by ``--out`` are
    written before printing.
    """
    parser = _parser()
    args = parser.parse_args(argv)
    if (args.subcommand == "test" and args.model == Model.ADDITIVE_ONLY.value
            and Hypothesis.INTERACTIONS.value in (args.hypothesis or ())):
        args.subparser.error(
            "the interaction hypothesis is undefined under the additive model"
        )
    try:
        # looked up per call, so a wrapper installed in _COMMANDS is used
        sys.stdout.write(_COMMANDS[args.subcommand](args))
        return 0
    except McdManovaError as exc:
        print(f"mcdmanova: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"mcdmanova: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
