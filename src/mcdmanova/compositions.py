"""Isometric log-ratio transform for compositional data.

Compositions (vectors of positive parts carrying only relative
information) live on a simplex; the ilr transform maps them isometrically
to ordinary Euclidean space of one dimension less, where multivariate
normal methods apply.  The pivot (Helmert-type) orthonormal basis is
used throughout:

    z_k = sqrt(k/(k+1)) * ln( gm(x_1..x_k) / x_{k+1} ),  k = 1..p-1,

with gm the geometric mean.  Any other orthonormal basis differs only by
a rotation, which determinant-ratio test statistics do not see.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, NonPositivePart

__all__ = ["Composition", "ilr", "ilr_inverse", "ilr_matrix"]


def _check_parts(parts: np.ndarray) -> None:
    """Raise NonPositivePart at the first part, in reading order, that is
    not positive and finite; a table's message names the row (from 1)."""
    bad = ~(parts > 0.0) | ~np.isfinite(parts)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        row, part = divmod(first, parts.shape[-1])
        where = f"row {row + 1}: " if parts.ndim == 2 else ""
        raise NonPositivePart(
            f"{where}part {part + 1} is {float(parts.flat[first])!r}; "
            f"all parts must be positive and finite"
        )


@dataclass(frozen=True)
class Composition:
    """A vector of strictly positive parts, stored unnormalized.

    Only ratios of parts matter; :meth:`closed` rescales to unit sum on
    demand.
    """

    parts: np.ndarray

    def __post_init__(self) -> None:
        parts = np.ascontiguousarray(np.asarray(self.parts, dtype=np.float64))
        if parts.ndim != 1 or parts.size == 0:
            raise DimensionError(
                f"a composition is a non-empty vector, got shape {parts.shape}"
            )
        _check_parts(parts)
        parts.setflags(write=False)
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return self.parts.shape[0]

    def closed(self) -> np.ndarray:
        """The parts rescaled to sum exactly to one."""
        return self.parts / self.parts.sum()


@lru_cache(maxsize=32)
def ilr_matrix(p: int) -> np.ndarray:
    """Orthonormal (p-1) x p contrast matrix V of the pivot basis.

    Satisfies V V^T = I and V 1 = 0; ilr(x) equals V ln(x).
    """
    if p < 1:
        raise DimensionError(f"p must be positive, got {p}")
    mat = np.zeros((p - 1, p))
    for k in range(1, p):
        scale = np.sqrt(k / (k + 1.0))
        mat[k - 1, :k] = scale / k
        mat[k - 1, k] = -scale
    mat.setflags(write=False)
    return mat


def ilr(x: Composition | np.ndarray) -> np.ndarray:
    """Map a composition to its (p-1)-dimensional ilr coordinates.

    ``x`` is one composition, or an ``(N, p)`` array of N compositions
    given as rows, which map to an ``(N, p - 1)`` array; a table is
    checked like a single composition, row by row, and its message names
    the row.  Computed from part ratios, so rescaling the input moves the
    result by at most rounding error and a composition with all parts
    equal maps to the exact zero vector.
    """
    if isinstance(x, Composition):
        parts = x.parts
    else:
        parts = np.asarray(x, dtype=np.float64)
        if parts.ndim == 2 and parts.shape[1] > 0:
            _check_parts(parts)
        else:
            parts = Composition(parts).parts
    p = parts.shape[-1]
    z = np.zeros(parts.shape[:-1] + (p - 1,))
    for k in range(1, p):
        ratios = np.log(parts[..., :k] / parts[..., k, None])
        z[..., k - 1] = np.sqrt(k / (k + 1.0)) * ratios.sum(axis=-1) / k
    return z


def ilr_inverse(z: np.ndarray) -> Composition:
    """Map ilr coordinates back to a composition closed to sum one.

    Inverse of :func:`ilr` up to closure: the zero vector returns the
    uniform composition, and round trips agree to working precision.
    The largest log-contrast is subtracted before exponentiating, so
    coordinates far from the origin still produce finite parts.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise DimensionError(f"ilr coordinates must be a vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise NonPositivePart("ilr coordinates must be finite")
    p = z.shape[0] + 1
    log_parts = ilr_matrix(p).T @ z
    log_parts -= log_parts.max()
    parts = np.exp(log_parts)
    return Composition(parts / parts.sum())
