"""Exactly solvable Hermitian potential families.

Three built-in families. Each carries its closed-form potential, discrete
spectrum, and unit-normalized bound states:

* Morse well  V0(x) = G0 (1 - e^{-g x})^2  with depth G0 = g^2 d^2,
  d = N + delta + 1/2, holding exactly N + 1 bound levels;
* trigonometric Poschl-Teller well  V0(x) = U0^2 r(r-1)/cos^2(U0 x)  on the
  open interval (-pi/2U0, pi/2U0), denumerable spectrum E_n = U0^2 (n+r)^2;
* the oscillator V0(x) = x^2 with E_n = 2n + 1, kept as the numeric-backend
  reference family.

Bound states come with derivatives internally (the intertwining construction
consumes both); the public bound_state returns the plain sampled function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .fields import RealField
from .quadrature import adaptive_simpson
from .specfun import _laguerre_vec, log_gamma

MORSE = "morse"
PT = "trig_poschl_teller"
OSCILLATOR = "oscillator"

# Truncation half-widths, in units of the family's own length scale.
_MORSE_WINDOW = (-4.0, 16.0)
_OSC_HALF_WIDTH = 6.0


@dataclass(frozen=True)
class PotentialSpec:
    """Immutable description of one solvable family instance.

    Attributes:
        family: one of MORSE, PT, OSCILLATOR.
        window: working interval. For the Poschl-Teller family this is the
            hard domain (the potential diverges at the endpoints); for the
            others it is the truncation used by grids and quadratures.
        n_bound: number of discrete levels, or None for a denumerable ladder.
        params: family parameters, read-only mapping.
    """

    family: str
    window: tuple[float, float]
    n_bound: int | None
    params: Mapping[str, float]


def make_morse(gamma: float, delta: float, n_max: int, window=None) -> PotentialSpec:
    """Morse family with depth fixed by the level count.

    Args:
        gamma: inverse length scale, gamma > 0.
        delta: fractional part of the depth parameter, 0 < delta < 1.
        n_max: index of the highest bound level; the well holds n_max + 1.
        window: optional (x_min, x_max) truncation override.

    Returns:
        PotentialSpec with d = n_max + delta + 1/2 and depth gamma^2 d^2.

    Raises:
        ValueError: on any parameter constraint violation.
    """
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly inside (0, 1)")
    if n_max != int(n_max) or n_max < 0:
        raise ValueError("n_max must be a nonnegative integer")
    n_max = int(n_max)
    d = n_max + delta + 0.5
    if window is None:
        window = (_MORSE_WINDOW[0] / gamma, _MORSE_WINDOW[1] / gamma)
    params = {
        "gamma": float(gamma),
        "delta": float(delta),
        "n_max": float(n_max),
        "d": d,
        "gamma0": gamma * gamma * d * d,
    }
    return PotentialSpec(MORSE, (float(window[0]), float(window[1])),
                         n_max + 1, MappingProxyType(params))


def make_pt(u0: float, r: float) -> PotentialSpec:
    """Trigonometric Poschl-Teller family on (-pi/2u0, pi/2u0).

    Args:
        u0: wall scale, u0 > 0.
        r: well-shape exponent, r > 1.

    Raises:
        ValueError: if u0 <= 0 or r <= 1.
    """
    if not u0 > 0.0:
        raise ValueError("u0 must be positive")
    if not r > 1.0:
        raise ValueError("r must exceed 1")
    half = 0.5 * math.pi / u0
    params = {"u0": float(u0), "r": float(r)}
    return PotentialSpec(PT, (-half, half), None, MappingProxyType(params))


def make_oscillator(half_width: float = _OSC_HALF_WIDTH) -> PotentialSpec:
    """Oscillator family V0(x) = x^2 on a symmetric truncation window."""
    if not half_width > 0.0:
        raise ValueError("half_width must be positive")
    return PotentialSpec(OSCILLATOR, (-float(half_width), float(half_width)),
                         None, MappingProxyType({}))


def _check_inside(spec: PotentialSpec, x: np.ndarray) -> None:
    lo, hi = spec.window
    if spec.family == PT:
        if np.any(x <= lo) or np.any(x >= hi):
            raise ValueError("abscissa outside the open Poschl-Teller domain")
    elif not np.all(np.isfinite(x)):
        raise ValueError("abscissa must be finite")


def _v0_vec(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    _check_inside(spec, x)
    if spec.family == MORSE:
        g0 = spec.params["gamma0"]
        gamma = spec.params["gamma"]
        return g0 * (1.0 - np.exp(-gamma * x)) ** 2
    if spec.family == PT:
        u0 = spec.params["u0"]
        r = spec.params["r"]
        return u0 * u0 * r * (r - 1.0) / np.cos(u0 * x) ** 2
    return x * x


def energy(spec: PotentialSpec, n: int) -> float:
    """Discrete level E_n of the family.

    Morse: gamma^2 [(2n+1)d - (n+1/2)^2], defined for 0 <= n <= n_max.
    Poschl-Teller: U0^2 (n+r)^2. Oscillator: 2n + 1.

    Raises:
        ValueError: n negative, non-integer, or past the Morse ladder top.
    """
    if n != int(n) or n < 0:
        raise ValueError("level index must be a nonnegative integer")
    n = int(n)
    if spec.n_bound is not None and n >= spec.n_bound:
        raise ValueError(f"family holds only {spec.n_bound} bound levels")
    if spec.family == MORSE:
        gamma = spec.params["gamma"]
        d = spec.params["d"]
        return gamma * gamma * ((2 * n + 1) * d - (n + 0.5) ** 2)
    if spec.family == PT:
        u0 = spec.params["u0"]
        return u0 * u0 * (n + spec.params["r"]) ** 2
    return 2.0 * n + 1.0


def _morse_state_with_derivative(spec: PotentialSpec, n: int, x: np.ndarray):
    gamma = spec.params["gamma"]
    d = spec.params["d"]
    alpha = d - 0.5 - n
    y = 2.0 * d * np.exp(-gamma * x)
    lag, dlag = _laguerre_vec(n, 2.0 * alpha, y)
    # closed-form L2 normalization on the half-line in y, exact on the line in x
    log_c2 = (math.log(gamma) + math.log(2.0 * d - 1.0 - 2.0 * n)
              + log_gamma(n + 1.0) - log_gamma(2.0 * d - n))
    c = math.exp(0.5 * log_c2)
    envelope = c * np.exp(-0.5 * y) * y ** alpha
    phi = envelope * lag
    # d/dx = -gamma*y d/dy
    dphi = -gamma * envelope * ((alpha - 0.5 * y) * lag + y * dlag)
    return phi, dphi


def _pt_polynomial_state(spec: PotentialSpec, n: int, x: np.ndarray):
    """Unnormalized PT level n and derivative; terminating Gauss series."""
    u0 = spec.params["u0"]
    r = spec.params["r"]
    k = float(n) + r
    sn = np.sin(u0 * x)
    cs = np.cos(u0 * x)
    z = sn * sn
    if n % 2 == 0:
        a, b, c = 0.5 * (r + k), 0.5 * (r - k), 0.5
        f = _terminating_2f1(a, b, c, z, n // 2)
        df = (a * b / c) * _terminating_2f1(a + 1.0, b + 1.0, c + 1.0, z, n // 2 - 1)
        phi = cs ** r * f
        dphi = u0 * sn * cs ** (r - 1.0) * (2.0 * cs * cs * df - r * f)
    else:
        a, b, c = 0.5 * (r + k) + 0.5, 0.5 * (r - k) + 0.5, 1.5
        m = (n - 1) // 2
        g = _terminating_2f1(a, b, c, z, m)
        dg = (a * b / c) * _terminating_2f1(a + 1.0, b + 1.0, c + 1.0, z, m - 1)
        phi = cs ** r * sn * g
        dphi = u0 * cs ** (r - 1.0) * (
            -r * sn * sn * g + cs * cs * g + 2.0 * sn * sn * cs * cs * dg)
    return phi, dphi


def _terminating_2f1(a: float, b: float, c: float, z: np.ndarray, degree: int):
    """Polynomial 2F1 summed to the exact degree; degree <= 0 keeps the constant term.

    Callers differentiating a degree-0 polynomial pass degree -1 here together
    with a vanishing prefactor, so the returned constant is harmless.
    """
    total = np.ones_like(z)
    if degree <= 0:
        return total
    term = np.ones_like(z)
    for j in range(degree):
        term = term * ((a + j) * (b + j) / ((c + j) * (j + 1.0))) * z
        total = total + term
    return total


_OSC_LOG_NORM0 = -0.25 * math.log(math.pi)


def _oscillator_state_with_derivative(n: int, x: np.ndarray):
    # Hermite three-term recurrence with the weight folded in
    h_prev = np.ones_like(x)
    h_cur = 2.0 * x if n >= 1 else h_prev
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * k * h_prev
    h_n = h_prev if n == 0 else h_cur
    h_below = h_prev if n >= 1 else np.zeros_like(x)
    log_c = _OSC_LOG_NORM0 - 0.5 * (n * math.log(2.0) + log_gamma(n + 1.0))
    c = math.exp(log_c)
    weight = np.exp(-0.5 * x * x)
    phi = c * weight * h_n
    dphi = c * weight * (2.0 * n * h_below - x * h_n)
    return phi, dphi


def _bound_state_with_derivative(spec: PotentialSpec, n: int, x: np.ndarray):
    """(phi_n, phi_n') samples; phi_n is unit L2-normalized over the domain."""
    if n != int(n) or n < 0:
        raise ValueError("level index must be a nonnegative integer")
    n = int(n)
    if spec.n_bound is not None and n >= spec.n_bound:
        raise ValueError(f"family holds only {spec.n_bound} bound levels")
    x = np.asarray(x, dtype=float)
    _check_inside(spec, x)
    if spec.family == MORSE:
        return _morse_state_with_derivative(spec, n, x)
    if spec.family == OSCILLATOR:
        return _oscillator_state_with_derivative(n, x)
    phi, dphi = _pt_polynomial_state(spec, n, x)
    # normalization has no tidy closed form here; fix it by quadrature
    lo, hi = spec.window
    norm2 = adaptive_simpson(
        lambda t: _pt_polynomial_state(spec, n, t)[0] ** 2, lo, hi, tol=1e-12)
    scale = 1.0 / math.sqrt(norm2)
    return scale * phi, scale * dphi


def bound_state(spec: PotentialSpec, n: int, grid: np.ndarray) -> RealField:
    """Unit L2-normalized bound state phi_n sampled on a grid.

    The Morse normalization is closed form; the Poschl-Teller one is fixed by
    composite Simpson, with interval doubling, over the full domain, so it
    does not depend on the sampling grid.

    Args:
        spec: family instance.
        n: level index within range.
        grid: strictly increasing abscissas inside the domain.

    Returns:
        RealField of the samples.

    Raises:
        ValueError: out-of-range n or abscissas outside the domain.
    """
    grid = np.asarray(grid, dtype=float)
    phi, _ = _bound_state_with_derivative(spec, n, grid)
    return RealField(grid, phi)
