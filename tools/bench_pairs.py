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
``perfbench/spec.py`` gives it.

Minor page faults per unit (replication, or CLI call) are counted apart
from the timed runs: a fresh process per checkout sets the workload up,
warms it with one call, and reads ``getrusage`` around ``FAULT_CALLS``
further calls, so import and set-up faults are left out.  The probe
process alone runs with glibc's ``MALLOC_TRIM_THRESHOLD_`` pinned at
``TRIM_THRESHOLD`` bytes: with the default, glibc hands freed heap top
back to the kernel and faults it in again, and the count then follows
where the heap top happens to lie rather than the work done.  The timed
runs keep the default environment.

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
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spec  # noqa: E402

FIRST_SEED = 401
FAULT_CALLS = 10
TRIM_THRESHOLD = 256 << 20

FAULT_PROBE = """
import json, resource, sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import quality, workloads
name, seed, calls, workdir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
workload = workloads.WORKLOADS[name](seed, Path(workdir), quality.load_reference())
workload.setup()
workload.warm()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(calls):
    workload.call(i)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps((after - before) / (calls * workload.units_per_call)))
"""


def single_blas_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


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


def minor_faults(root: Path, workload: str) -> float:
    with tempfile.TemporaryDirectory() as workdir:
        done = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, workload, str(FIRST_SEED),
             str(FAULT_CALLS), workdir],
            cwd=root, check=True, capture_output=True, text=True,
            env=single_blas_env() | {"MALLOC_TRIM_THRESHOLD_": str(TRIM_THRESHOLD)},
        )
    return json.loads(done.stdout.splitlines()[-1])


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name, (_, better, _) in spec.END_TO_END.items():
        lower = better == "lower"
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        quartiles = statistics.quantiles(parent, n=4)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        out[name] = {
            "parent_median": statistics.median(parent),
            "parent_iqr": quartiles[2] - quartiles[0],
            "change_median": statistics.median(change),
            "change_better_pairs": wins,
            "pairs": len(pairs),
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
        record["workloads"][workload] = {
            "pairs": pairs,
            "summary": summary(pairs),
            "minor_faults_per_unit": {
                side: minor_faults(root, workload)
                for side, root in sides.items()
            },
        }
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
    return args


if __name__ == "__main__":
    options = parse_args(None)
    result = compare(options)
    options.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
