"""Shared sampled-field containers and grid construction.

Everything downstream (potentials, states, the finite-difference oracle)
exchanges data as plain numpy arrays bundled with their abscissas, so the
containers here stay deliberately dumb. Grids are always uniform; symmetric
windows are built as an exact mirror of the positive half so that parity
checks are not polluted by accumulated rounding in the abscissas themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RealField:
    """Real-valued samples on a uniform grid."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.values.shape:
            raise ValueError("abscissas and samples must have matching shapes")


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued samples on a uniform grid."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.values.shape:
            raise ValueError("abscissas and samples must have matching shapes")


@dataclass(frozen=True)
class EigenState:
    """One eigenstate of a constructed partner potential.

    Attributes:
        energy: the real eigenvalue this state belongs to.
        x: abscissas of the samples.
        samples: complex samples, bilinear-normalized unless zero_binorm.
        binorm: bilinear integral of the squared L2-normalized state, i.e.
            the value whose magnitude decides normalizability in the
            non-Hermitian sense. Exactly 1 (to quadrature accuracy) after
            successful normalization.
        zero_binorm: True when |binorm| of the L2-normalized state fell below
            the 1e-10 threshold; samples are then only L2-normalized.
        provenance: free-form description of how the state was built
            (e.g. {"kind": "transformed", "seed_level": 0, "new_index": 1}).
    """

    energy: float
    x: np.ndarray
    samples: np.ndarray
    binorm: complex
    zero_binorm: bool
    provenance: dict = field(default_factory=dict)


def interior_grid(x_min: float, x_max: float, n: int) -> np.ndarray:
    """n interior abscissas of a Dirichlet box on (x_min, x_max).

    The walls sit one step h = (x_max - x_min)/(n + 1) outside the first and
    last returned points. For windows symmetric about the origin the grid is
    assembled by mirroring the positive half, which makes x[i] == -x[n-1-i]
    exact in floating point.
    """
    if n < 1:
        raise ValueError("grid needs at least one point")
    if not x_max > x_min:
        raise ValueError("empty window")
    h = (x_max - x_min) / (n + 1)
    if x_min == -x_max:
        half = n // 2
        pos = h * np.arange(1, half + 1)
        if n % 2:
            return np.concatenate([-pos[::-1], [0.0], pos])
        pos = h * (np.arange(half) + 0.5)
        return np.concatenate([-pos[::-1], pos])
    return x_min + h * np.arange(1, n + 1)


def grid_step(x: np.ndarray) -> float:
    """Step of a uniform grid; raises if spacing is not uniform."""
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d grid with at least two points")
    d = np.diff(x)
    h = float(d.mean())
    if not np.allclose(d, h, rtol=1e-9, atol=0.0):
        raise ValueError("grid is not uniform")
    return h


def is_symmetric_grid(x: np.ndarray, rtol: float = 1e-12) -> bool:
    scale = float(np.abs(x).max()) or 1.0
    return bool(np.abs(x + x[::-1]).max() <= rtol * scale)
