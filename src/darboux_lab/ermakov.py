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
class AlphaSamples:
    """The seed pair, V0 and Q = alpha^2 sampled on one grid.

    V_lam, beta, the states, the lam = 0 member and the identity gates on a
    grid all read one such record instead of evaluating the seeds again.
    Q'' is assembled from

        Q'' = 2 (a v'^2 + b v' u_p' + c u_p'^2) + 2 (V0 - eps) Q,

    which uses the seed equation instead of any numerical differentiation.
    """

    alpha: AlphaFunction
    x: np.ndarray
    up: np.ndarray
    dup: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    v0: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    ddq: np.ndarray

    def _require_positive_q(self):
        """Raises ValueError at Q <= 0. With lam != 0 the form is positive
        definite, so this signals a node of the lam = 0 linear family,
        reported rather than masked."""
        if np.any(self.q <= 0.0):
            raise ValueError(
                f"alpha vanishes near x = {self.x[self.q <= 0.0][0]:.6g} "
                "(lam = 0 superposition); the complex construction requires "
                "lam != 0 or a node-free member")

    def ratios(self):
        """(Q'/Q, Q''/Q), which stay O(1) where the seeds reach 1e+100."""
        self._require_positive_q()
        return self.dq / self.q, self.ddq / self.q

    def alpha_parts(self):
        """(alpha, alpha', alpha'') sample arrays."""
        self._require_positive_q()
        alpha = np.sqrt(self.q)
        dalpha = self.dq / (2.0 * alpha)
        # keep the O(1) ratio dalpha/alpha grouped: dq * dalpha alone can
        # overflow where the seeds reach 1e+100 scales
        ddalpha = (self.ddq - self.dq * (dalpha / alpha)) / (2.0 * alpha)
        return alpha, dalpha, ddalpha


@dataclass(frozen=True)
class AlphaFunction:
    """Positive root alpha = +sqrt(Q) over a seed pair."""

    pair: SeedPair
    coeffs: ErmakovCoeffs

    def q_parts(self, x) -> AlphaSamples:
        """The seeds, V0 and (Q, Q', Q'') sampled at the abscissas x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        up, dup = self.pair.up(x)
        v, dv = self.pair.v(x)
        co = self.coeffs
        q = co.a * v * v + co.b * v * up + co.c * up * up
        dq = 2.0 * co.a * v * dv + co.b * (dv * up + v * dup) + 2.0 * co.c * up * dup
        grad = 2.0 * (co.a * dv * dv + co.b * dv * dup + co.c * dup * dup)
        w = _v0_vec(self.pair.spec, x)
        ddq = grad + 2.0 * (w - self.pair.epsilon) * q
        return AlphaSamples(self, x, up, dup, v, dv, w, q, dq, ddq)


def invariant_j_scan(samples: AlphaSamples, keep) -> float:
    """Max relative deviation of W^2(u_p, alpha) + (lam u_p / alpha)^2 from J.

    Scans the abscissas that the index or mask keep selects. The Wronskian
    here uses the directly evaluated seed and alpha derivatives, so the scan
    genuinely exercises the ODE solutions rather than restating the
    coefficient identity.
    """
    a_val, da_val, _ = samples.alpha_parts()
    up, dup, a_val, da_val = (arr[keep] for arr in (samples.up, samples.dup,
                                                   a_val, da_val))
    w = up * da_val - dup * a_val
    co = samples.alpha.coeffs
    total = w * w + (co.lam * up / a_val) ** 2
    return float(np.max(np.abs(total - co.big_j)) / co.big_j)
