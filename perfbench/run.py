"""Benchmark of the mcdmanova package: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest      # rewrite BENCHMARK.json

Run from the repository root; the package is imported from ``src/``.
The script pins BLAS to one thread before NumPy loads, sets the workload
up several times (``setup_s`` is import time plus the median set-up),
then runs the workload's closed loop for ``--seconds``.

With ``--trace 0`` it reports the end-to-end metrics of ``spec.py``, then
fits the frozen quality datasets for ``mcd_obj_gap``.  With ``--trace 1``
it alternates untraced and traced calls on identical inputs and reports
the per-layer metrics from the traced ones, plus the tracing overhead.
Both modes check the outputs, print a table of metrics with units and,
as the last line of standard output, one JSON object; they write the
full record (environment, seeds, checks) to ``perfbench/out/``.  The exit
status is 1 when a check fails and 2 when the package cannot be loaded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
import spec  # noqa: E402  (pure data; loads no numerical library)


class RedrawLog(logging.Handler):
    """Counts redraws from the library's own warnings.

    ``calibration`` and ``simulation`` log "redrew N degenerate
    replication(s) out of M attempts" once per replicate loop.
    """

    PATTERN = re.compile(r"redrew (\d+) degenerate replication\(s\) out of (\d+) attempts")

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.redrawn = 0
        self.other: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        match = self.PATTERN.search(message)
        if match:
            self.redrawn += int(match.group(1))
        else:
            self.other.append(message)


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(blas_before: dict) -> dict:
    import numpy as np
    import scipy

    import mcdmanova
    from mcdmanova.mcd import McdConfig

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = None
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": 1,
        "blas_threads_how": "run.py sets " + ", ".join(BLAS_VARS) + " to 1 before NumPy loads",
        "blas_env_before": blas_before,
        "blas_library": blas_lib,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mcdmanova": mcdmanova.__version__,
        "platform": platform.platform(),
        "mcd_config": dataclasses.asdict(McdConfig()),
        "git_commit": git_commit(ROOT),
    }


def one_call(workload, i: int, log: RedrawLog, tracer=None) -> dict:
    """Run call ``i`` (traced when ``tracer`` is given) and time it."""
    before = log.redrawn
    error = None
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
        tracer.begin_call()
    try:
        raw = workload.call(i)
    except Exception as exc:  # a failing call is counted, the loop goes on
        raw, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    result = workload.collect(i, raw) if error is None else None
    if error is None and workload.failed(raw):
        error = f"call returned {raw!r}"
    return {"i": i, "wall": wall, "result": result, "error": error,
            "redrawn": log.redrawn - before}


def run_loop(workload, seconds: float, log: RedrawLog, tracer=None) -> dict:
    """Closed loop for ``seconds``; traced mode pairs each call with a
    traced repeat on the same inputs."""
    untraced, traced = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        untraced.append(one_call(workload, i, log))
        if tracer is not None:
            traced.append(one_call(workload, i, log, tracer))
        i += 1
    elapsed = time.perf_counter() - start
    return {"untraced": untraced, "traced": traced, "elapsed": elapsed}


def tally(workload, calls: list[dict]) -> dict:
    """Replications (or cli calls) done and failed.

    A call that raises or reports failure loses all its replications.
    Degenerate replications the library redrew are not failures of the
    call, but count toward ``error_rate`` next to the lost ones.
    """
    per = workload.units_per_call
    done = sum(per for c in calls if c["error"] is None)
    lost = sum(per for c in calls if c["error"] is not None)
    redrawn = sum(c["redrawn"] for c in calls)
    return {
        "calls": len(calls),
        "units": done,
        "attempted": done + lost,
        "failed": lost,
        "redrawn": redrawn,
        "error_rate": (lost + redrawn) / max(done + lost + redrawn, 1),
        "failed_calls": sum(c["error"] is not None for c in calls),
        "errors": sorted({c["error"] for c in calls if c["error"]}),
    }


def end_to_end(workload, loop: dict, setup_s: float, reference: dict) -> tuple[dict, dict, list]:
    import numpy as np

    import quality
    from tracer import tail_percentile

    calls = loop["untraced"]
    lat_ms = np.array([c["wall"] for c in calls]) * 1000.0
    counts = tally(workload, calls)
    p90 = float(np.percentile(lat_ms, 90))
    start = time.perf_counter()
    gap, problems = quality.objective_gap(workload.quality_model, reference)
    prefix = workload.latency_name
    extra = {
        # printed and recorded, not gated (see spec.END_TO_END)
        f"{prefix}_p50": float(np.percentile(lat_ms, 50)),
        f"{prefix}_p90": p90,
        "beyond_p90": int(np.count_nonzero(lat_ms > p90)),
        "tail_percentile": tail_percentile(lat_ms),
        "quality_model": workload.quality_model,
        "quality_fit_s": time.perf_counter() - start,
        **counts,
    }
    metrics = {
        "setup_s": setup_s,
        "reps_per_s": counts["units"] / loop["elapsed"],
        "mcd_obj_gap": gap,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, extra, problems


def per_layer(workload, loop: dict, tracer) -> tuple[dict, dict, list]:
    import numpy as np

    cols = tracer.arrays()
    names = np.array(tracer.names, dtype=object)
    traced_wall = sum(c["wall"] for c in loop["traced"])
    untraced_wall = sum(c["wall"] for c in loop["untraced"])
    counts = tally(workload, loop["traced"])
    sums = tracer.sums

    def span_stat(span: str, stat: str) -> float:
        mask = names == span
        if stat == "calls":
            return int(np.count_nonzero(mask))
        if stat == "busy_s":
            return float(cols["duration"][mask].sum())
        if stat == "self_s":
            return float(cols["self"][mask].sum())
        if stat == "ms_p50":
            return float(np.median(cols["duration"][mask]) * 1000.0) if mask.any() else 0.0
        if stat == "degenerate":
            return int(sums[span + ".degenerate"])
        if stat == "kept_frac":
            fits = sums[span + ".fits"]
            return sums[span + ".kept"] / fits if fits else 0.0
        raise KeyError(stat)

    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names], dtype=object)
    self_sum = float(cols["self"].sum())
    metrics = {}
    for name in spec.PER_LAYER:
        head, _, stat = name.rpartition(".")
        if name == "mcd.kept_frac":
            value = span_stat("mcd.reweight", "kept_frac")
        elif stat == "self_s" and head in spec.LAYERS:
            value = float(cols["self"][layer_of == head].sum())
        elif name.startswith("errors.degenerate"):
            types = [stat] if head == "errors.degenerate" else spec.DEGENERATE_TYPES
            value = int(sum(sums["errors.degenerate." + t] for t in types))
        elif name == "errors.redrawn":
            value = counts["redrawn"]
        elif name == "errors.error_rate":
            value = counts["error_rate"]
        elif name == "trace.overhead_frac":
            value = traced_wall / untraced_wall - 1.0
        elif name == "trace.self_sum_frac":
            value = self_sum / traced_wall
        elif name == "trace.spans":
            value = len(tracer.names)
        else:
            value = span_stat(head, stat)
        metrics[name] = value
    extra = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
             "calls_traced": len(loop["traced"]), **counts}
    problems = []
    for plain, traced in zip(loop["untraced"], loop["traced"]):
        if plain["result"] is not None and traced["result"] is not None and (
            workload.fingerprint(plain["result"]) != workload.fingerprint(traced["result"])
        ):
            problems.append(f"call {plain['i']}: traced output differs from untraced output")
    return metrics, extra, problems[:5]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        text = json.dumps(spec.manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0

    blas_before = {v: os.environ.get(v) for v in BLAS_VARS}
    for var in BLAS_VARS:
        os.environ[var] = "1"
    t_import = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mcdmanova
        import quality
        import workloads
        from tracer import Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(mcdmanova.__file__).resolve().parent != (src / "mcdmanova").resolve():
        print(f"perfbench: mcdmanova loaded from {mcdmanova.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import
    try:
        reference = quality.load_reference()
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {quality.REFERENCE_FILE}: {exc}", file=sys.stderr)
        return 2

    log = RedrawLog()
    logging.getLogger("mcdmanova").addHandler(log)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, reference)
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        tracer = Tracer() if args.trace else None
        loop = run_loop(workload, args.seconds, log, tracer)
        calls = loop["traced"] if args.trace else loop["untraced"]
        results = [(c["i"], c["result"]) for c in calls if c["result"] is not None]
        problems = workload.check(results) if results else ["no call succeeded"]
        if args.trace:
            metrics, extra, more = per_layer(workload, loop, tracer)
            units = spec.PER_LAYER
        else:
            setup_s = import_s + statistics.median(setup_times)
            metrics, extra, more = end_to_end(workload, loop, setup_s, reference)
            units = spec.END_TO_END
        problems += more
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
        "details": {"import_s": import_s, "setup_runs_s": setup_times,
                    "elapsed_s": loop["elapsed"], **extra},
        "other_warnings": sorted(set(log.other)),
        "seeds": workload.seeds(len(loop["untraced"])),
        "environment": environment(blas_before),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")

    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {units[name][0]}")
    if not args.trace:
        prefix = workload.latency_name
        for name, unit in ((f"{prefix}_p50", "ms"), (f"{prefix}_p90", "ms"),
                           ("beyond_p90", "count"), ("calls", "count"),
                           ("error_rate", "fraction")):
            print(f"{name:<40} {extra[name]:>14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(extra["attempted"], 1),
        "failed": extra["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
