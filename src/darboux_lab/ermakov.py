"""Ermakov alpha-functions by nonlinear superposition of a seed pair.

The central object is

    alpha(x) = sqrt(Q(x)),   Q = a v^2 + b v u_p + c u_p^2,

with coefficients tied to the invariant J, the mixing constant I0, the
deformation parameter lambda and the pair Wronskian omega0 by

    a = J / omega0^2,  b = 2 I0 / omega0,  c = (lambda^2 + I0^2) / J,

so that 4ac - b^2 = 4 (lambda/omega0)^2 holds identically. alpha solves

    alpha'' = (V0 - eps) alpha + lambda^2 / alpha^3.

All derivatives are assembled through Q and the seed ODE u'' = (V0 - eps) u;
nothing is differentiated numerically, and no power of Q beyond the first is
ever formed (the seeds reach 1e+68 near window edges, so Q^2 would overflow).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import _v0_vec
from .seeds import SeedPair

_IDENTITY_RTOL = 1e-12


@dataclass(frozen=True)
class ErmakovCoeffs:
    """Quadratic-form coefficients (a, b, c) with their generating constants."""

    lam: float
    big_j: float
    i0: float
    omega0: float
    a: float
    b: float
    c: float


def make_coeffs(lam: float, big_j: float, i0: float, omega0: float) -> ErmakovCoeffs:
    """Coefficients of the superposition quadratic form.

    Args:
        lam: deformation parameter; 0 selects the real-family limit.
        big_j: invariant J, strictly positive for real alpha.
        i0: mixing constant.
        omega0: pair Wronskian, nonzero.

    Returns:
        ErmakovCoeffs with (a, b, c) derived and the closure identity
        4ac - b^2 = 4(lam/omega0)^2 verified to 1e-12 relative.

    Raises:
        ValueError: big_j <= 0 or omega0 == 0, or identity violation.
    """
    if omega0 == 0.0:
        raise ValueError("omega0 must be nonzero")
    if not big_j > 0.0:
        raise ValueError("J must be strictly positive for a real alpha-function")
    a = big_j / (omega0 * omega0)
    b = 2.0 * i0 / omega0
    c = (lam * lam + i0 * i0) / big_j
    lhs = 4.0 * a * c - b * b
    rhs = 4.0 * (lam / omega0) ** 2
    # at lam = 0 the difference cancels to zero exactly, so roundoff must be
    # judged against the size of the cancelling terms, not of the result
    scale = max(1.0, 4.0 * abs(a * c) + b * b)
    if abs(lhs - rhs) > _IDENTITY_RTOL * scale:
        raise ValueError("coefficient identity 4ac - b^2 = 4(lam/omega0)^2 violated")
    return ErmakovCoeffs(float(lam), float(big_j), float(i0), float(omega0), a, b, c)


@dataclass(frozen=True)
class AlphaFunction:
    """Positive root alpha = +sqrt(Q) over a seed pair.

    Evaluation returns (alpha, alpha', alpha'') with alpha'' assembled from

        Q'' = 2 (a v'^2 + b v' u_p' + c u_p'^2) + 2 (V0 - eps) Q,

    which uses the seed equation instead of any numerical differentiation.
    """

    pair: SeedPair
    coeffs: ErmakovCoeffs

    def q_parts(self, x):
        """(Q, Q', Q'') sample arrays at the abscissas x."""
        up, dup = self.pair.up(x)
        v, dv = self.pair.v(x)
        co = self.coeffs
        q = co.a * v * v + co.b * v * up + co.c * up * up
        dq = 2.0 * co.a * v * dv + co.b * (dv * up + v * dup) + 2.0 * co.c * up * dup
        grad = 2.0 * (co.a * dv * dv + co.b * dv * dup + co.c * dup * dup)
        w = _v0_vec(self.pair.spec, np.atleast_1d(np.asarray(x, dtype=float)))
        ddq = grad + 2.0 * (w - self.pair.epsilon) * q
        return q, dq, ddq

    def evaluate(self, x):
        """(alpha, alpha', alpha'') sample arrays at the abscissas x.

        Raises:
            ValueError: Q <= 0 at some abscissa. With lam != 0 the form is
                positive definite, so this signals a node of the lam = 0
                linear family, reported rather than masked.
        """
        q, dq, ddq = self.q_parts(x)
        if np.any(q <= 0.0):
            bad = np.atleast_1d(np.asarray(x, dtype=float))[q <= 0.0]
            raise ValueError(
                f"alpha-function vanishes near x = {bad[0]:.6g}; "
                "the lam = 0 superposition is singular there")
        alpha = np.sqrt(q)
        dalpha = dq / (2.0 * alpha)
        # keep the O(1) ratio dalpha/alpha grouped: dq * dalpha alone can
        # overflow where the seeds reach 1e+100 scales
        ddalpha = (ddq - dq * (dalpha / alpha)) / (2.0 * alpha)
        return alpha, dalpha, ddalpha


def invariant_j_scan(alpha: AlphaFunction, grid) -> float:
    """Max relative deviation of W^2(u_p, alpha) + (lam u_p / alpha)^2 from J.

    The Wronskian here uses the directly evaluated seed and alpha derivatives,
    so the scan genuinely exercises the ODE solutions rather than restating
    the coefficient identity.
    """
    grid = np.asarray(grid, dtype=float)
    up, dup = alpha.pair.up(grid)
    a_val, da_val, _ = alpha.evaluate(grid)
    w = up * da_val - dup * a_val
    lam = alpha.coeffs.lam
    total = w * w + (lam * up / a_val) ** 2
    return float(np.max(np.abs(total - alpha.coeffs.big_j)) / alpha.coeffs.big_j)
