"""Regenerate ``data/mcd_reference.json``, the frozen quality reference.

For every dataset of every data model in ``quality.py`` it fits the cell
stack and the pooled sample with a start budget far above the default
(``REFERENCE_STARTS`` random starts on each of ``REFERENCE_STREAMS``
independent streams, keeping ``REFERENCE_KEEP`` candidates) and keeps
the smallest objective per fit.  It refuses to write a reference that is
worse than the default ``McdConfig()`` fit on any dataset.

It also records a high-trial calibration of the 3x2 n=30 p=2 design the
benchmark calibrates, which the run checks its own (ave_L, q) against.

    python3 perfbench/make_reference.py      # about five minutes, one core
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import quality  # noqa: E402
from mcdmanova import __version__  # noqa: E402
from mcdmanova.calibration import calibrate_design  # noqa: E402
from mcdmanova.mcd import McdConfig  # noqa: E402

REFERENCE_STARTS = 5000
REFERENCE_KEEP = 50
REFERENCE_STREAMS = 4

# (label, p, m_prime, seed) of the reference calibrations.
CALIBRATIONS = (("p2", 2, 1000, 4242),)


def reference_model(model: str) -> dict:
    big = McdConfig(n_starts=REFERENCE_STARTS, n_keep=REFERENCE_KEEP)
    records = []
    for k in range(quality.DATASETS_PER_MODEL):
        cells = quality.dataset(model, k)
        default = quality.objectives(cells, McdConfig(), k)
        runs = [
            quality.objectives(cells, big, 1_000_003 + REFERENCE_STREAMS * k + j)
            for j in range(REFERENCE_STREAMS)
        ]
        best = [min(values) for values in zip(*runs)]
        worse = [i for i, (b, d) in enumerate(zip(best, default)) if b > d]
        if worse:
            raise SystemExit(
                f"{model} dataset {k}: reference worse than the default fit "
                f"on fits {worse}; raise the reference budget"
            )
        records.append({"checksum": quality.checksum(cells), "default": default, "reference": best})
        print(f"{model} {k}: gap {np.mean(np.subtract(default, best)):.3g}", flush=True)
    _, p, contaminated = quality.DATA_MODELS[model]
    gaps = [d - b for rec in records for d, b in zip(rec["default"], rec["reference"])]
    return {
        "p": p,
        "contaminated": contaminated,
        "mean_gap_at_generation": float(np.mean(gaps)),
        "datasets": records,
    }


def reference_calibration(p: int, m_prime: int, seed: int) -> dict:
    entries = calibrate_design(p, quality.R, quality.C, quality.N, m_prime, seed)
    return {
        "design": {"r": quality.R, "c": quality.C, "n": quality.N, "p": p},
        "m_prime": m_prime,
        "seed": seed,
        "entries": {
            f"{e.key.model.value}/{e.key.hypothesis.value}": {
                "delta": e.delta, "q": e.q, "ave_L": e.ave_L, "var_L": e.var_L,
            }
            for e in entries
        },
    }


def main() -> None:
    out = {
        "generated_by": "perfbench/make_reference.py",
        "package_version": __version__,
        "numpy": np.__version__,
        "default_config": dataclasses.asdict(McdConfig()),
        "reference_budget": {
            "n_starts": REFERENCE_STARTS,
            "n_keep": REFERENCE_KEEP,
            "streams": REFERENCE_STREAMS,
        },
        "fits_per_dataset": "six cells (fast_mcd_batch), then pooled (fast_mcd)",
        "models": {model: reference_model(model) for model in quality.DATA_MODELS},
        "calibration": {
            label: reference_calibration(p, m_prime, seed)
            for label, p, m_prime, seed in CALIBRATIONS
        },
    }
    quality.REFERENCE_FILE.parent.mkdir(parents=True, exist_ok=True)
    quality.REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {quality.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
