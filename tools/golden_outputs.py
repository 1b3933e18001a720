"""Write a fixed set of CLI outputs for byte-for-byte comparison.

Usage::

    PYTHONPATH=src python3 tools/golden_outputs.py OUTDIR

Generates its own input tables and experiment files in OUTDIR, runs
``mcdmanova.cli.main`` in-process on each of the commands below, and
writes every ``--out`` file, every calibration cache, and each command's
stdout, stderr and exit status into OUTDIR (the empty lock files that
cache merges create are removed).  The commands include the top-level
and per-subcommand ``--help`` texts, one usage error, and two mcd
``test`` runs on a cache that holds one low-trial entry of its design,
the row entry under interactions: one calibrates the missing entries on
the fly, the other prints only the row hypothesis and so needs no other
entry (``--hypothesis row``, no on-the-fly calibration); that row test
at ``--mcd-alpha 0.75`` on two more copies, which exits 14 without
on-the-fly calibration (the entry was fitted at the default alpha) and
calibrates the design at 0.75 with it; and ``ilr``
on a semicolon-separated table with a comma in a district label,
whose output ``test`` then reads back; the
status of the ``SystemExit`` that argparse raises for the first two is
recorded as their exit status.  All paths handed to the CLI
are relative to OUTDIR, so two output directories compare with
``diff -r``.  The package is imported from ``PYTHONPATH``, which is how
one checkout's outputs are compared with another's::

    PYTHONPATH=<other>/src python3 tools/golden_outputs.py a
    PYTHONPATH=src python3 tools/golden_outputs.py b
    diff -r a b

BLAS runs single-threaded so the comparison holds on one machine, and
``COLUMNS`` is pinned to 80 so that help texts wrap the same in any
terminal.  The
calibrations and the mcd ``simulate`` runs spread their robust
replications over one worker process per usable core, which leaves every
output byte-identical.  The whole set of 104 files takes about 5
seconds on one core (``taskset -c 0``) and 4 seconds on two.  Exits 1
if any command exits with another status than the one listed for it in
``EXPECTED`` (zero for every command not listed).
"""

from __future__ import annotations

import os

# Must precede the first numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# argparse wraps help and usage text to this width.
os.environ["COLUMNS"] = "80"

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from mcdmanova.cli import main  # noqa: E402

KINDS = {
    "size": "0.0",
    "power_inter": "0.5, 1.0",
    "power_additive": "0.5, 1.0",
    "robustness": "5.0, 10.0",
}

# Experiment file name -> (kind, (r, c, n, p), methods, m).  Every kind
# runs on 3x2 n=12 at p = 2; the size run at p = 3 also reaches the Wilks
# matrices' p >= 3 arithmetic, and the cla/rnk run on 4x3 at p = 1 spans
# several blocks of simulation attempts.
ALL_METHODS = "cla, rnk, mcd"
EXPERIMENTS = {kind: (kind, (3, 2, 12, 2), ALL_METHODS, 25) for kind in KINDS} | {
    "size-p3": ("size", (3, 2, 12, 3), ALL_METHODS, 25),
    "power_inter-4x3-p1": ("power_inter", (4, 3, 6, 1), "cla, rnk", 150),
}

COLUMN_ARGS = [
    "--factors", "district", "year",
    "--responses", "biogenic", "recyclables", "residual",
]
TABLE_ARGS = ["--input", "waste.csv", *COLUMN_ARGS]

# Commands that must fail, with their exit status: an error message is
# output too.
EXPECTED = {"ilr-bad-part": 17, "test-partial-cache-alpha075": 14,
            "usage-additive-interaction": 2}

SUBCOMMANDS = ("test", "calibrate", "simulate", "ilr")


def write_inputs() -> None:
    # 3 districts x 2 years x 8 households of positive waste amounts
    # (kg), two of them planted outliers; amounts are not closed, so the
    # three raw parts have a full-rank covariance.
    rng = np.random.default_rng(20180)
    lines = ["district,year,biogenic,recyclables,residual"]
    for district in ("XY", "A", "B"):
        for year in ("2011", "2012"):
            parts = np.exp(rng.normal([1.0, 0.5, 1.5], 0.3, size=(8, 3)))
            if district == "A" and year == "2012":
                parts[0] *= [6.0, 0.2, 1.0]
            for row in parts:
                lines.append(
                    f"{district},{year}," + ",".join(f"{v:.6f}" for v in row)
                )
    Path("waste.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    # the same rows in another order: the years are numbered the other
    # way round and cells interleave; the layout regroups each cell's
    # rows in file order, and for this table the test outputs equal
    # those of waste.csv byte for byte
    order = np.random.default_rng(20181).permutation(len(lines) - 1) + 1
    shuffled = [lines[0]] + [lines[k] for k in order]
    Path("waste-shuffled.csv").write_text("\n".join(shuffled) + "\n", encoding="utf-8")
    # the amounts to one decimal, so the rank test meets tied values
    rounded = [lines[0]] + [
        ",".join(line.split(",")[:2] + [f"{float(v):.1f}" for v in line.split(",")[2:]])
        for line in lines[1:]
    ]
    Path("waste-rounded.csv").write_text("\n".join(rounded) + "\n", encoding="utf-8")
    # semicolon-separated, one district label holding a comma: ilr
    # keeps the separator, so its output reads back into test
    semicolon = [line.replace(",", ";") for line in lines]
    semicolon = [line.replace("XY;", "X,Y;", 1) for line in semicolon]
    Path("waste-semicolon.csv").write_text("\n".join(semicolon) + "\n", encoding="utf-8")
    # data row 2 with a zero part, for the error message
    bad = lines[:2] + [lines[2].rsplit(",", 2)[0] + ",0,1.5"] + lines[3:]
    Path("waste-bad.csv").write_text("\n".join(bad) + "\n", encoding="utf-8")
    # a cache holding one low-trial entry for the waste table's design
    # (r=3 c=2 n=8 p=3): the row test under interactions uses it, the
    # other tests calibrate on the fly with more trials.  Its fields
    # (delta 1/16, q 4, ave_L 1/4, var_L 1/32) meet the entry invariants
    # exactly.  The v1 format records no MCD settings, so the entry is
    # read as a fit at the default ones.  Each run that reads it gets its
    # own copy.
    for name in ("test-partial-cache", "test-partial-cache-row",
                 "test-partial-cache-alpha075", "test-partial-cache-alpha075-fly"):
        Path(f"{name}.cache").write_text(
            "mcdmanova calibration cache v1\n"
            "3 3 2 8 interactions row 50 3 0.0625 4 0.25 0.03125\n",
            encoding="ascii",
        )
    for name, (kind, (r, c, n, p), methods, m) in EXPERIMENTS.items():
        Path(f"{name}.txt").write_text(
            f"kind = {kind}\nr = {r}\nc = {c}\nn = {n}\np = {p}\n"
            f"methods = {methods}\nsettings = {KINDS[kind]}\nm = {m}\n"
            f"seed = 12\n",
            encoding="utf-8",
        )


def commands() -> dict[str, list[str]]:
    runs = {
        "calibrate-p2": ["calibrate", "--design", "3", "2", "30", "2",
                         "--m-prime", "60", "--seed", "3",
                         "--cache", "calibrate-p2.cache"],
        "calibrate-p4": ["calibrate", "--design", "3", "2", "30", "4",
                         "--m-prime", "40", "--seed", "3",
                         "--cache", "calibrate-p4.cache"],
        "calibrate-alpha1": ["calibrate", "--design", "3", "2", "30", "2",
                             "--m-prime", "60", "--seed", "3",
                             "--mcd-alpha", "1",
                             "--cache", "calibrate-alpha1.cache"],
        # p = 4 on small cells: each cell has C(9, 7) = 36 h-subsets, at
        # most mcd.EXHAUSTIVE_LIMIT, so every cell fit is enumerated, and
        # the pooled n = 36 fit is multistart
        "calibrate-p4-enumerated": ["calibrate", "--design", "2", "2", "9", "4",
                                    "--m-prime", "30", "--seed", "3",
                                    "--cache", "calibrate-p4-enumerated.cache"],
        # p = 3 with a non-default alpha: each cell has C(20, 15) = 15,504
        # h-subsets, above mcd.EXHAUSTIVE_LIMIT, so every fit is multistart
        "calibrate-p3-alpha075": ["calibrate", "--design", "3", "2", "20", "3",
                                  "--m-prime", "40", "--seed", "3",
                                  "--mcd-alpha", "0.75",
                                  "--cache", "calibrate-p3-alpha075.cache"],
    }
    for name, table, extra in (
        ("test", TABLE_ARGS, []),
        ("test-shuffled", ["--input", "waste-shuffled.csv", *COLUMN_ARGS], []),
        ("test-ilr", TABLE_ARGS, ["--ilr"]),
        ("test-ilr-additive", TABLE_ARGS, ["--ilr", "--model", "additive"]),
    ):
        runs[name] = ["test", *table, *extra,
                      "--method", "cla", "--method", "rnk", "--method", "mcd",
                      "--calibrate-on-the-fly", "30", "--seed", "7",
                      "--cache", f"{name}.cache", "--out", f"{name}.tsv"]
    runs["test-partial-cache"] = ["test", *TABLE_ARGS, "--method", "mcd",
                                  "--calibrate-on-the-fly", "100", "--seed", "7",
                                  "--cache", "test-partial-cache.cache",
                                  "--out", "test-partial-cache.tsv"]
    runs["test-partial-cache-row"] = ["test", *TABLE_ARGS, "--method", "mcd",
                                      "--hypothesis", "row", "--seed", "7",
                                      "--cache", "test-partial-cache-row.cache",
                                      "--out", "test-partial-cache-row.tsv"]
    # the row test at alpha 0.75: the cached entry, fitted at the default
    # alpha, is not served, so the run fails without on-the-fly
    # calibration and calibrates the design at 0.75 with it
    alpha075 = ["test", *TABLE_ARGS, "--method", "mcd", "--hypothesis", "row",
                "--mcd-alpha", "0.75", "--seed", "7"]
    runs["test-partial-cache-alpha075"] = [
        *alpha075, "--cache", "test-partial-cache-alpha075.cache"]
    runs["test-partial-cache-alpha075-fly"] = [
        *alpha075, "--cache", "test-partial-cache-alpha075-fly.cache",
        "--calibrate-on-the-fly", "20", "--out", "test-partial-cache-alpha075-fly.tsv"]
    runs["test-rounded"] = ["test", "--input", "waste-rounded.csv", *COLUMN_ARGS,
                            "--method", "cla", "--method", "rnk",
                            "--out", "test-rounded.tsv"]
    runs["ilr-bad-part"] = ["ilr", "--input", "waste-bad.csv", *COLUMN_ARGS]
    runs["ilr-semicolon"] = ["ilr", "--input", "waste-semicolon.csv", *COLUMN_ARGS,
                             "--out", "ilr-semicolon.csv"]
    runs["test-ilr-roundtrip"] = ["test", "--input", "ilr-semicolon.csv",
                                  "--factors", "district", "year",
                                  "--responses", "ilr1", "ilr2",
                                  "--method", "cla", "--method", "rnk",
                                  "--out", "test-ilr-roundtrip.tsv"]
    runs["help"] = ["--help"]
    for sub in SUBCOMMANDS:
        runs[f"help-{sub}"] = [sub, "--help"]
    runs["usage-additive-interaction"] = ["test", *TABLE_ARGS, "--model", "additive",
                                          "--hypothesis", "interaction"]
    for name in EXPERIMENTS:
        runs[f"simulate-{name}"] = [
            "simulate", "--input", f"{name}.txt", "--calibrate-on-the-fly", "20",
            "--cache", f"simulate-{name}.cache", "--out", f"simulate-{name}.tsv",
        ]
    return runs


def run(name: str, argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits for --help and usage errors
            code = exc.code
    Path(f"{name}.stdout").write_text(out.getvalue(), encoding="utf-8")
    Path(f"{name}.stderr").write_text(err.getvalue(), encoding="utf-8")
    return code


def generate(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    write_inputs()
    codes = {name: run(name, argv) for name, argv in commands().items()}
    Path("exit_codes.txt").write_text(
        "".join(f"{name} {code}\n" for name, code in codes.items()), encoding="utf-8"
    )
    # Cache merges leave empty ``<cache>.lock`` sidecars behind; they hold
    # no output, and checkouts that predate them must compare equal.
    for lock in Path().glob("*.cache.lock"):
        lock.unlink()
    failed = [name for name, code in codes.items() if code != EXPECTED.get(name, 0)]
    for name in failed:
        print(f"{name}: exit {codes[name]}", file=sys.stderr)
    return int(bool(failed))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    sys.exit(generate(Path(sys.argv[1]).resolve()))
