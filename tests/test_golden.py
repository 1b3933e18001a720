"""The outputs of ``tools/golden_outputs.py`` equal a committed manifest.

``tests/golden.sha256`` holds the SHA-256 of every output file in
``sha256sum`` format, under a first line naming the Python and NumPy
versions that wrote it.  Some outputs (the calibration caches and the
full-precision ``test`` tables) differ in their last bits between
OpenBLAS kernels, so the tool runs with the kernel pinned to Haswell
through ``OPENBLAS_CORETYPE``.  The test skips, saying why, when NumPy's
BLAS is not a ``DYNAMIC_ARCH`` OpenBLAS, where that variable selects the
kernel, or when Python or NumPy differ from the manifest's versions.
README gives the recipe that rewrites the manifest.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden.sha256"


def read_manifest() -> tuple[str, dict[str, str]]:
    """The manifest's version line, and each file name's digest."""
    header, *lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    digests = {}
    for line in lines:
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return header, digests


def blas_configuration() -> str:
    """NumPy's BLAS name and OpenBLAS build configuration, as one line."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '')} {blas.get('openblas configuration', '')}".strip()


def test_outputs_match_manifest(tmp_path):
    header, want = read_manifest()
    here = f"# python {platform.python_version()} numpy {np.__version__}"
    if header != here:
        pytest.skip(f"manifest written with {header[2:]!r}, running {here[2:]!r}")
    blas = blas_configuration()
    if "openblas" not in blas.lower() or "DYNAMIC_ARCH" not in blas:
        pytest.skip(f"NumPy's BLAS is not a DYNAMIC_ARCH OpenBLAS: {blas!r}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_CORETYPE="Haswell")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden_outputs.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert sorted(got) == sorted(want)
    assert sorted(name for name in want if got[name] != want[name]) == []
