"""Independent verification: finite differences, spectra, residuals.

Nothing in this module knows how a potential was constructed. It discretizes
-psi'' + V psi on a uniform Dirichlet grid, computes eigenvalues of the
resulting (generally complex, non-Hermitian) tridiagonal matrix, matches them
against a predicted spectrum, and measures pointwise Schrodinger residuals,
zero interlacing and bilinear norms of sampled states.

Two eigenvalue engines are kept deliberately separate:

* dense_eigenvalues: LAPACK path (Hessenberg reduction + shifted QR through
  numpy); production engine, dimension-capped;
* charpoly_roots: an in-house characteristic-polynomial evaluator with
  dynamic rescaling plus a Durand-Kerner root finder. Slow, but shares no
  machinery with LAPACK, which makes it the cross-check for small matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, EigenState, RealField, grid_step
from .potentials import PotentialSpec, _v0_vec
from .quadrature import simpson_samples

_DENSE_CAP = 1500
_MIN_FD_POINTS = 50
_MIN_RESIDUAL_POINTS = 800
_EDGE_EXCLUSION = 3


@dataclass(frozen=True)
class FdHamiltonian:
    """Three-point discretization of -d^2/dx^2 + V with Dirichlet walls.

    The walls sit one grid step outside the first and last abscissas. For
    real V the matrix is real symmetric; the off-diagonal is -1/h^2 on both
    sides in every case.
    """

    grid: np.ndarray
    h: float
    diag: np.ndarray
    off: float

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.diag.imag == 0.0))


def build_fd(potential, grid=None) -> FdHamiltonian:
    """Assemble the tridiagonal Hamiltonian.

    Args:
        potential: a RealField/ComplexField carrying its own grid, or a
            PotentialSpec (then `grid` is required and V0 is sampled on it).
        grid: abscissas when a spec is passed.

    Raises:
        ValueError: non-uniform grid, fewer than 50 points, or missing grid.
    """
    if isinstance(potential, PotentialSpec):
        if grid is None:
            raise ValueError("a grid is required when building from a spec")
        x = np.asarray(grid, dtype=float)
        values = _v0_vec(potential, x).astype(complex)
    elif isinstance(potential, (RealField, ComplexField)):
        x = potential.x
        values = potential.values.astype(complex)
    else:
        raise TypeError("potential must be a field or a PotentialSpec")
    if x.size < _MIN_FD_POINTS:
        raise ValueError(f"finite-difference grid needs >= {_MIN_FD_POINTS} points")
    h = grid_step(x)
    diag = 2.0 / (h * h) + values
    return FdHamiltonian(x, h, diag, -1.0 / (h * h))


def dense_eigenvalues(diag, lower, upper):
    """All eigenvalues of a general tridiagonal matrix, LAPACK dense path.

    Real symmetric input is routed to the Hermitian solver, everything else
    to the general complex one (Hessenberg + shifted QR internally).

    Raises:
        ValueError: dimension beyond the dense cap (1500).
        RuntimeError: the QR iteration failed to converge.
    """
    diag = np.asarray(diag)
    lower = np.asarray(lower)
    upper = np.asarray(upper)
    n = diag.size
    if n > _DENSE_CAP:
        raise ValueError(f"dimension {n} exceeds the dense cap {_DENSE_CAP}")
    if lower.size != n - 1 or upper.size != n - 1:
        raise ValueError("off-diagonals must have length n - 1")
    symmetric_real = (np.all(diag.imag == 0.0) if np.iscomplexobj(diag) else True) \
        and not np.iscomplexobj(lower) and not np.iscomplexobj(upper) \
        and np.array_equal(lower, upper)
    try:
        if symmetric_real:
            m = np.diag(diag.real) + np.diag(lower.real, -1) + np.diag(upper.real, 1)
            return np.sort(np.linalg.eigvalsh(m)).astype(complex)
        m = (np.diag(diag.astype(complex))
             + np.diag(lower.astype(complex), -1)
             + np.diag(upper.astype(complex), 1))
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue iteration failed to converge: {exc}") from exc
    return vals[np.argsort(vals.real)]


def eig_complex(ham: FdHamiltonian) -> np.ndarray:
    """Eigenvalues of the FD Hamiltonian, sorted by real part."""
    off = np.full(ham.diag.size - 1, ham.off)
    if ham.is_real:
        return dense_eigenvalues(ham.diag.real, off, off)
    return dense_eigenvalues(ham.diag, off.astype(complex), off.astype(complex))


def _charpoly_eval(z: complex, diag: np.ndarray, lu: np.ndarray):
    """Monic characteristic polynomial det(zI - T) as (mantissa, log_scale).

    Recurrence p_k = (z - d_k) p_{k-1} - l_{k-1} u_{k-1} p_{k-2}, with both
    running terms rescaled onto a shared log magnitude so degree-1500 growth
    cannot overflow.
    """
    a = 0.0 + 0.0j          # p_{k-1}
    b = 1.0 + 0.0j          # p_k, starting from p_0 = 1
    log_scale = 0.0
    for k in range(diag.size):
        c = (z - diag[k]) * b - (lu[k - 1] * a if k > 0 else 0.0)
        a, b = b, c
        m = max(abs(a), abs(b))
        if m > 1e100 or (0.0 < m < 1e-100):
            a /= m
            b /= m
            log_scale += math.log(m)
    return b, log_scale


def charpoly_roots(diag, lower, upper, max_sweeps: int = 400,
                   tol: float = 1e-13) -> np.ndarray:
    """All eigenvalues of a tridiagonal matrix by Durand-Kerner iteration.

    Characteristic-polynomial cross-check for dense_eigenvalues: slow,
    LAPACK-free, intended for n <= 50. The Weierstrass correction
    p(z_i) / prod(z_i - z_j) is evaluated entirely in log magnitude so the
    product over ~50 factors cannot over- or underflow.

    Raises:
        RuntimeError: sweeps exhausted before all corrections fell below tol.
    """
    diag = np.asarray(diag, dtype=complex)
    lower = np.asarray(lower, dtype=complex)
    upper = np.asarray(upper, dtype=complex)
    n = diag.size
    if n == 1:
        return diag.copy()
    lu = lower * upper
    center = diag.mean()
    radius = max(1.0, float(np.max(np.abs(diag - center)))
                 + 2.0 * float(np.max(np.sqrt(np.abs(lu)))))
    angles = 2.0 * np.pi * (np.arange(n) + 0.25) / n
    roots = center + radius * np.exp(1j * angles)
    scale = max(1.0, float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(lu))) ** 0.5)
    for _ in range(max_sweeps):
        worst = 0.0
        for i in range(n):
            mant, log_p = _charpoly_eval(roots[i], diag, lu)
            diffs = roots[i] - np.concatenate([roots[:i], roots[i + 1:]])
            small = np.abs(diffs) < 1e-14 * scale
            if small.any():
                roots[i] += (1e-8 + 1e-8j) * scale
                worst = np.inf
                continue
            log_den = float(np.sum(np.log(np.abs(diffs))))
            arg_den = float(np.sum(np.angle(diffs)))
            if mant == 0.0:
                continue
            log_corr = math.log(abs(mant)) + log_p - log_den
            if log_corr > 300.0:
                # absurd step, damp toward the centroid instead
                roots[i] = 0.5 * (roots[i] + center)
                worst = np.inf
                continue
            corr = math.exp(log_corr) * cmath.exp(1j * (cmath.phase(mant) - arg_den))
            roots[i] -= corr
            worst = max(worst, abs(corr))
        if worst <= tol * scale:
            return roots[np.argsort(roots.real)]
    raise RuntimeError("Durand-Kerner sweeps exhausted without convergence")


def match_levels(prediction, computed, cutoff: float | None = None):
    """Nearest-value injective matching of predicted levels to eigenvalues.

    The prediction is expanded into slots, one per unit of multiplicity, and
    each slot claims its nearest unclaimed computed eigenvalue. Computed
    values that no slot claimed and that lie below the cutoff are returned
    as spurious; the cutoff defaults to just above the top prediction, and
    for truncated-window potentials callers pass the continuum edge instead.

    Returns:
        (slots, matched, spurious): the slot energies as floats, the claimed
        eigenvalues as a complex array in slot order, and the spurious values
        as complex numbers in the order of `computed`.

    Raises:
        ValueError: fewer computed eigenvalues than slots.
    """
    slots = [float(e) for e, m in zip(prediction.energies,
                                      prediction.multiplicities)
             for _ in range(int(m))]
    comp = np.asarray(computed, dtype=complex)
    if comp.size < len(slots):
        raise ValueError("fewer computed eigenvalues than predicted slots")
    taken = np.zeros(comp.size, dtype=bool)
    matched = np.empty(len(slots), dtype=complex)
    for i, e in enumerate(slots):
        dist = np.abs(comp - e)
        dist[taken] = np.inf
        j = int(np.argmin(dist))
        taken[j] = True
        matched[i] = comp[j]
    if cutoff is None:
        cutoff = max(slots) + 1e-9
    spurious = [complex(c) for c in comp[~taken] if c.real < cutoff]
    return slots, matched, spurious


def schrodinger_residual(state: EigenState, potential: ComplexField) -> float:
    """Max scaled residual of -psi'' + V psi = E psi on the shared grid.

    The second derivative uses the five-point stencil; three points at each
    edge are excluded (two cannot be stenciled, one more guards against
    boundary contamination). The scale is max(1, max|psi| * max(1, |E|)).

    Raises:
        ValueError: grids differ or fewer than 800 points.
    """
    if state.x.size < _MIN_RESIDUAL_POINTS:
        raise ValueError(f"residual check needs >= {_MIN_RESIDUAL_POINTS} points")
    if not np.array_equal(state.x, potential.x):
        raise ValueError("state and potential must share the grid")
    psi = state.samples
    h = grid_step(state.x)
    d2 = (-psi[:-4] + 16.0 * psi[1:-3] - 30.0 * psi[2:-2]
          + 16.0 * psi[3:-1] - psi[4:]) / (12.0 * h * h)
    core = slice(_EDGE_EXCLUSION, psi.size - _EDGE_EXCLUSION)
    inner = slice(_EDGE_EXCLUSION - 2, psi.size - 4 - (_EDGE_EXCLUSION - 2))
    res = -d2[inner] + (potential.values[core] - state.energy) * psi[core]
    scale = max(1.0, float(np.max(np.abs(psi))) * max(1.0, abs(state.energy)))
    return float(np.max(np.abs(res)) / scale)


@dataclass(frozen=True)
class InterlacingReport:
    """Zero lists of Re psi and Im psi with the interlacing verdict."""

    ok: bool
    re_zeros: tuple
    im_zeros: tuple
    note: str


def _sample_zeros(x: np.ndarray, y: np.ndarray) -> list:
    """Sign-change zero locations refined by linear interpolation."""
    zeros = []
    for i in np.flatnonzero(np.signbit(y[:-1]) != np.signbit(y[1:])):
        y0, y1 = float(y[i]), float(y[i + 1])
        if y0 == y1:
            zeros.append(float(x[i]))
            continue
        t = y0 / (y0 - y1)
        zeros.append(float(x[i] + t * (x[i + 1] - x[i])))
    return zeros


def interlacing_check(state: EigenState,
                      support_threshold: float = 1e-3) -> InterlacingReport:
    """Zeros of Im psi must separate consecutive zeros of Re psi.

    Zeros are located inside the support region {|psi| > threshold * max|psi|}
    only, which keeps meaningless tail oscillations out of the count. States
    with an identically vanishing imaginary part, or with fewer than two
    real-part zeros, pass vacuously with an explanatory note.
    """
    psi = state.samples
    mag = np.abs(psi)
    top = float(mag.max())
    if float(np.max(np.abs(psi.imag))) < 1e-14 * top:
        return InterlacingReport(True, (), (), "imaginary part vanishes; vacuous")
    idx = np.flatnonzero(mag > support_threshold * top)
    sl = slice(int(idx[0]), int(idx[-1]) + 1)
    x = state.x[sl]
    re_zeros = _sample_zeros(x, psi.real[sl])
    im_zeros = _sample_zeros(x, psi.imag[sl])
    if len(re_zeros) < 2:
        return InterlacingReport(True, tuple(re_zeros), tuple(im_zeros),
                                 "fewer than two real-part zeros; vacuous")
    ok = all(
        any(lo < z < hi for z in im_zeros)
        for lo, hi in zip(re_zeros[:-1], re_zeros[1:]))
    return InterlacingReport(ok, tuple(re_zeros), tuple(im_zeros), "")


def binorm(x: np.ndarray, samples: np.ndarray) -> complex:
    """Bilinear integral int psi^2 dx (no conjugation), composite Simpson."""
    return complex(simpson_samples(np.asarray(samples) ** 2, grid_step(np.asarray(x))))
