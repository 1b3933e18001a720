"""Paired benchmark runs of two checkouts, written as one JSON record.

Usage::

    python3 tools/bench_pairs.py PARENT CHANGE OUT.json \\
        --workload NAME PAIRS [--workload NAME PAIRS ...] [--traced NAME ...]

PARENT and CHANGE are checkout roots.  For each workload, pair ``k``
runs ``perfbench/run.py --seed (FIRST_SEED + k)`` once in each checkout,
at the run length ``perfbench/spec.py`` sets, one after the other; the
side that goes first alternates from pair to pair.  Every end-to-end
metric and the run's call counts are kept, with the medians and the
number of pairs the change won per metric, in the direction
``perfbench/spec.py`` gives it (a tie is a win for neither side).

Each metric's summary also states two verdicts, with the metric's bound
from ``perfbench/spec.py``:

- ``gain_rule_met``: at least ``GAIN_PAIRS`` pairs ran, the change won
  at least ``GAIN_SHARE`` of them, and its median beats the parent
  median by more than the parent's interquartile range.
- ``regression``: ``"worse"`` when the change median is worse than the
  parent median by more than bound x parent median; otherwise
  ``"unresolved"`` when the parent's interquartile range exceeds that
  margin and not every change run beats every parent run; otherwise
  ``"none"``.

``--traced NAME`` adds one ``--trace 1`` run per checkout of workload
NAME at the first seed, parent first, and keeps all its metrics, the
per-layer ones included, under the workload's ``traced`` key.

The record also holds the seeds, the default ``McdConfig``, the core
count and the BLAS thread count, as ``perfbench/run.py`` reports them.
The runs are sequential, one checkout at a time, and BLAS runs one
thread; but a run's larger robust calibrations (the cli-test-ilr set-up)
spread over worker processes, one per usable core, so keep the machine
otherwise idle while they go.
"""

from __future__ import annotations

import argparse
import json
import operator
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spec  # noqa: E402

FIRST_SEED = 401
GAIN_PAIRS = 10
GAIN_SHARE = 0.9


def run_once(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    subprocess.run(cmd, cwd=root, check=True, capture_output=True)
    out = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text(encoding="utf-8"))


def side_record(full: dict) -> dict:
    return {
        "metrics": {m: v["value"] for m, v in full["metrics"].items()},
        "correct": full["correct"],
        "calls": full["details"]["calls"],
        "units": full["details"]["units"],
        "failed": full["details"]["failed"],
    }


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name, (_, better, bound) in spec.END_TO_END.items():
        beats = operator.lt if better == "lower" else operator.gt
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        quartiles = statistics.quantiles(parent, n=4)
        iqr = quartiles[2] - quartiles[0]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        gap = abs(change_median - parent_median)
        margin = bound * parent_median
        wins = sum(beats(c, p) for p, c in zip(parent, change))
        if beats(parent_median, change_median) and gap > margin:
            regression = "worse"
        elif iqr > margin and not all(beats(c, p) for c in change for p in parent):
            regression = "unresolved"
        else:
            regression = "none"
        out[name] = {
            "parent_median": parent_median,
            "parent_iqr": iqr,
            "change_median": change_median,
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "bound": bound,
            "gain_rule_met": (
                len(pairs) >= GAIN_PAIRS
                and wins >= GAIN_SHARE * len(pairs)
                and beats(change_median, parent_median)
                and gap > iqr
            ),
            "regression": regression,
        }
    return out


def compare(args: argparse.Namespace) -> dict:
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record: dict = {"workloads": {}}
    for workload, count in args.workload:
        pairs = []
        for k in range(count):
            seed = FIRST_SEED + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair: dict = {"seed": seed, "first": order[0]}
            for side in order:
                full = run_once(sides[side], workload, seed)
                record.setdefault("seconds", full["seconds"])
                record.setdefault("environment", {}).setdefault(side, full["environment"])
                pair[side] = side_record(full)
            pairs.append(pair)
            print(workload, seed, {s: pair[s]["metrics"] for s in sides}, file=sys.stderr)
        record["workloads"][workload] = {"pairs": pairs, "summary": summary(pairs)}
    for workload in args.traced:
        traced: dict = {"seed": FIRST_SEED}
        for side, root in sides.items():
            traced[side] = side_record(run_once(root, workload, FIRST_SEED, trace=1))
        record["workloads"].setdefault(workload, {})["traced"] = traced
    return record


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--workload", nargs=2, action="append", metavar=("NAME", "PAIRS"),
                        required=True)
    parser.add_argument("--traced", action="append", default=[], metavar="NAME",
                        choices=sorted(spec.WORKLOADS))
    args = parser.parse_args(argv)
    args.workload = [(name, int(pairs)) for name, pairs in args.workload]
    if any(pairs < 2 for _, pairs in args.workload):
        parser.error("each workload needs at least 2 pairs")
    for name, _ in args.workload:
        if name not in spec.WORKLOADS:
            known = ", ".join(sorted(spec.WORKLOADS))
            parser.error(f"unknown workload {name!r} (choose from {known})")
    return args


if __name__ == "__main__":
    options = parse_args(None)
    result = compare(options)
    options.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
