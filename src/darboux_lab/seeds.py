"""Fundamental solution pairs (u_p, v) at the factorization energy.

A SeedPair bundles two linearly independent solutions of

    -u''(x) + V0(x) u(x) = eps u(x)

with their constant Wronskian omega0 = u_p v' - u_p' v. Two backends:

* analytic: closed-form series solutions for the Morse and Poschl-Teller
  families (confluent and Gauss hypergeometric respectively), exact Wronskian;
* numeric: high-order adaptive integration of the ODE from a marked interior
  point x0, with dense output; the reference backend for the oscillator and
  the fallback whenever the series regime is left.

Evaluators return (value, derivative) sample arrays. Both members are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .potentials import MORSE, OSCILLATOR, PT, PotentialSpec, _v0_vec
from .quadrature import adaptive_simpson
from .specfun import _gauss_vec, _kummer_vec

# relative closeness of sqrt(eps)-type indices to an exact bound level at
# which the series parameters are snapped so the series terminates exactly
_SNAP_TOL = 1e-9
_WRONSKIAN_RTOL = 1e-8
# products larger than this times |omega0| make the Wronskian subtraction
# pure cancellation noise; such samples are skipped by the drift check
_DRIFT_COND_CAP = 1e6
_PROBE_POINTS = 17

Evaluator = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


class SeedBackendError(RuntimeError):
    """Requested backend cannot produce the pair; the message names the fallback."""


@dataclass(frozen=True)
class SeedPair:
    """Fundamental pair at one factorization energy.

    Attributes:
        epsilon: factorization energy.
        backend: "analytic" or "numeric".
        up: evaluator for the principal member, x -> (u_p, u_p').
        v: evaluator for the companion member, x -> (v, v').
        omega0: constant Wronskian W(u_p, v).
        spec: the potential family the pair solves.
        window: interval on which the evaluators are defined.
    """

    epsilon: float
    backend: str
    up: Evaluator
    v: Evaluator
    omega0: float
    spec: PotentialSpec
    window: tuple[float, float]


def _as_points(x) -> np.ndarray:
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if pts.ndim != 1:
        raise ValueError("evaluator expects a scalar or 1-d abscissa array")
    return pts


def _morse_pair(spec: PotentialSpec, epsilon: float) -> SeedPair:
    gamma = spec.params["gamma"]
    d = spec.params["d"]
    gamma0 = spec.params["gamma0"]
    if epsilon >= gamma0:
        raise SeedBackendError(
            "analytic Morse seeds need epsilon below the well depth; use numeric_pair")
    sigma = math.sqrt(gamma0 - epsilon) / gamma
    # snap onto an exact bound level so the principal series terminates
    n_guess = round(d - 0.5 - sigma)
    snapped = (0 <= n_guess <= spec.n_bound - 1
               and abs(d - 0.5 - sigma - n_guess) <= _SNAP_TOL * max(1.0, sigma))
    a_up = -float(n_guess) if snapped else sigma + 0.5 - d
    c_up = 1.0 + 2.0 * sigma
    a_v = -sigma + 0.5 - d
    c_v = 1.0 - 2.0 * sigma
    two_d = 2.0 * d

    def _member(a: float, c: float, s: float) -> Evaluator:
        def evaluate(x):
            y = two_d * np.exp(-gamma * _as_points(x))
            m, _, conv = _kummer_vec(a, c, y)
            dm_series, _, conv2 = _kummer_vec(a + 1.0, c + 1.0, y)
            if not (conv.all() and conv2.all()):
                raise SeedBackendError(
                    "confluent series did not converge on this window; use numeric_pair")
            dm = (a / c) * dm_series
            envelope = np.exp(-0.5 * y) * y ** s
            val = envelope * m
            dval = -gamma * envelope * ((s - 0.5 * y) * m + y * dm)
            return val, dval
        return evaluate

    pair = SeedPair(float(epsilon), "analytic",
                    _member(a_up, c_up, sigma), _member(a_v, c_v, -sigma),
                    2.0 * gamma * sigma, spec, spec.window)
    _probe(pair)
    return pair


def _pt_pair(spec: PotentialSpec, epsilon: float) -> SeedPair:
    u0 = spec.params["u0"]
    r = spec.params["r"]
    if epsilon < 0.0:
        raise SeedBackendError(
            "analytic Poschl-Teller seeds need epsilon >= 0; use numeric_pair")
    k = math.sqrt(epsilon) / u0
    n_guess = round(k - r)
    if n_guess >= 0 and abs(k - r - n_guess) <= _SNAP_TOL * max(1.0, k):
        k = r + float(n_guess)
    a = 0.5 * (r + k)
    b = 0.5 * (r - k)

    def _angles(x):
        # z = sin^2 and its complement cos^2, each computed directly
        pts = _as_points(x)
        sn, cs = np.sin(u0 * pts), np.cos(u0 * pts)
        return sn, cs, sn * sn, cs * cs

    def _even(x):
        sn, cs, z, w = _angles(x)
        f, _, conv = _gauss_vec(a, b, 0.5, z, w)
        df_series, _, conv2 = _gauss_vec(a + 1.0, b + 1.0, 1.5, z, w)
        if not (conv.all() and conv2.all()):
            raise SeedBackendError(
                "Gauss series did not converge on this window; use numeric_pair")
        df = (a * b / 0.5) * df_series
        val = cs ** r * f
        dval = u0 * sn * cs ** (r - 1.0) * (2.0 * cs * cs * df - r * f)
        return val, dval

    av, bv = a + 0.5, b + 0.5

    def _odd(x):
        sn, cs, z, w = _angles(x)
        g, _, conv = _gauss_vec(av, bv, 1.5, z, w)
        dg_series, _, conv2 = _gauss_vec(av + 1.0, bv + 1.0, 2.5, z, w)
        if not (conv.all() and conv2.all()):
            raise SeedBackendError(
                "Gauss series did not converge on this window; use numeric_pair")
        dg = (av * bv / 1.5) * dg_series
        val = cs ** r * sn * g
        dval = u0 * cs ** (r - 1.0) * (
            -r * sn * sn * g + cs * cs * g + 2.0 * sn * sn * cs * cs * dg)
        return val, dval

    pair = SeedPair(float(epsilon), "analytic", _even, _odd, u0, spec, spec.window)
    _probe(pair)
    return pair


def _sample_window(pair: SeedPair) -> tuple[float, float]:
    """Window usable for dense sampling; open walls get a hair of clearance."""
    lo, hi = pair.window
    if pair.spec.family == PT and pair.backend == "analytic":
        # clearance^2 must stay above machine eps or sin^2(U0 x) rounds to
        # exactly 1 at the walls and the series evaluator rejects the point
        span = hi - lo
        return lo + 1e-7 * span, hi - 1e-7 * span
    return lo, hi


def _probe(pair: SeedPair) -> None:
    """Force a construction-time evaluation so backend failures surface early."""
    lo, hi = _sample_window(pair)
    grid = np.linspace(lo, hi, _PROBE_POINTS)
    try:
        up, _ = pair.up(grid)
        v, _ = pair.v(grid)
    except ValueError as exc:
        raise SeedBackendError(
            f"series backend rejected this parameter set ({exc}); use numeric_pair"
        ) from exc
    if not (np.all(np.isfinite(up)) and np.all(np.isfinite(v))):
        raise SeedBackendError(
            "series backend produced non-finite samples; use numeric_pair")


def analytic_pair(spec: PotentialSpec, epsilon: float) -> SeedPair:
    """Closed-form seed pair for the Morse and Poschl-Teller families.

    Morse members live in the variable y = 2d e^{-gamma x}; their Wronskian is
    omega0 = 2 sqrt(G0 - eps). Poschl-Teller members are cos^r-weighted Gauss
    series in sin^2(U0 x) with omega0 = U0. If eps sits on a bound level the
    series parameters are snapped so the principal member terminates exactly.

    Args:
        spec: Morse or Poschl-Teller family instance.
        epsilon: factorization energy inside the backend's regime.

    Returns:
        SeedPair with backend "analytic".

    Raises:
        SeedBackendError: family unsupported, epsilon outside the series
            regime, or non-convergence on the configured window. The message
            always names numeric_pair as the fallback.
    """
    if spec.family == MORSE:
        return _morse_pair(spec, epsilon)
    if spec.family == PT:
        return _pt_pair(spec, epsilon)
    raise SeedBackendError(
        "no series backend for this family; use numeric_pair")


_PT_MARGINS = (1e-6, 1e-4, 1e-3, 1e-2)


def numeric_pair(spec: PotentialSpec, epsilon: float,
                 x0: float = 0.0, omega0: float = 1.0) -> SeedPair:
    """Seed pair by adaptive ODE integration with dense output.

    Initial data at x0: u_p(x0) = 1, u_p'(x0) = 0, v(x0) = 0, v'(x0) = omega0,
    which makes W(u_p, v) = omega0 exactly at x0 and, by the vanishing
    first-derivative coefficient, everywhere. The drift of the sampled
    Wronskian is checked against 1e-8 relative after construction.

    Near the Poschl-Teller walls the integration window is pulled in by the
    smallest margin the stepper tolerates; the achieved interval is recorded
    in SeedPair.window and evaluators refuse abscissas outside it.

    Args:
        spec: any family instance.
        epsilon: factorization energy (unrestricted).
        x0: interior anchor point.
        omega0: prescribed nonzero Wronskian.

    Returns:
        SeedPair with backend "numeric".

    Raises:
        ValueError: omega0 == 0 or x0 outside the domain interior.
        SeedBackendError: integration failure or Wronskian drift beyond bound.
    """
    if omega0 == 0.0:
        raise ValueError("omega0 must be nonzero")
    lo, hi = spec.window
    if not lo < x0 < hi:
        raise ValueError("x0 must lie in the domain interior")
    eps = float(epsilon)

    def rhs(x, y):
        w = float(_v0_vec(spec, np.array([x]))[0]) - eps
        return (y[1], w * y[0], y[3], w * y[2])

    margins = _PT_MARGINS if spec.family == PT else (0.0,)
    span = hi - lo
    last_err = "integration failed"
    for margin in margins:
        lo_eff = lo + margin * span
        hi_eff = hi - margin * span
        y0 = (1.0, 0.0, 0.0, float(omega0))
        right = solve_ivp(rhs, (x0, hi_eff), y0, method="DOP853",
                          rtol=1e-12, atol=1e-30, dense_output=True)
        left = solve_ivp(rhs, (x0, lo_eff), y0, method="DOP853",
                         rtol=1e-12, atol=1e-30, dense_output=True)
        if right.status != 0 or left.status != 0:
            last_err = right.message if right.status != 0 else left.message
            continue

        def make_evaluator(rows, rsol=right.sol, lsol=left.sol):
            def evaluate(x):
                pts = _as_points(x)
                if np.any(pts < lo_eff) or np.any(pts > hi_eff):
                    raise ValueError(
                        "abscissa outside the integrated window "
                        f"[{lo_eff:.12g}, {hi_eff:.12g}]")
                out_v = np.empty_like(pts)
                out_d = np.empty_like(pts)
                mask = pts >= x0
                if mask.any():
                    sol = rsol(pts[mask])
                    out_v[mask], out_d[mask] = sol[rows[0]], sol[rows[1]]
                if (~mask).any():
                    sol = lsol(pts[~mask])
                    out_v[~mask], out_d[~mask] = sol[rows[0]], sol[rows[1]]
                return out_v, out_d
            return evaluate

        pair = SeedPair(eps, "numeric", make_evaluator((0, 1)),
                        make_evaluator((2, 3)), float(omega0), spec,
                        (lo_eff, hi_eff))
        drift = wronskian_drift(pair)
        if drift <= _WRONSKIAN_RTOL:
            return pair
        last_err = f"Wronskian drift {drift:.3e} exceeds {_WRONSKIAN_RTOL:.0e}"
    raise SeedBackendError(f"numeric backend: {last_err}")


def wronskian_drift(pair: SeedPair, n_samples: int = 101) -> float:
    """Max relative deviation of the sampled Wronskian from omega0.

    Deep in a classically forbidden region both members grow like exp(+kx)
    and the two products in u_p v' - u_p' v cancel down from ~1e120 to
    omega0; there the subtraction carries no information about W in double
    precision. Samples whose product magnitudes exceed 1e6 |omega0| are
    therefore excluded: on the kept set, pure roundoff contributes at most
    ~2e-10, so a drift above the 1e-8 gate is genuine solver error.
    """
    lo, hi = _sample_window(pair)
    grid = np.linspace(lo, hi, n_samples)
    up, dup = pair.up(grid)
    v, dv = pair.v(grid)
    w = up * dv - dup * v
    cond = np.abs(up * dv) + np.abs(dup * v)
    keep = cond <= _DRIFT_COND_CAP * abs(pair.omega0)
    if not np.any(keep):
        keep = cond == np.min(cond)
    return float(np.max(np.abs(w[keep] - pair.omega0)) / abs(pair.omega0))


def q_integral(pair: SeedPair, x: float, x_ref: float) -> float:
    """The reciprocal-square integral q(x) = int_{x_ref}^{x} u_p(t)^{-2} dt.

    Args:
        pair: seed pair supplying u_p.
        x: upper limit.
        x_ref: anchor; q(x_ref) = 0.

    Returns:
        Composite-Simpson value to absolute tolerance 1e-10.

    Raises:
        ValueError: u_p vanishes (to sign-change or underflow resolution)
            between the limits, making the integral singular.
    """
    x = float(x)
    x_ref = float(x_ref)
    if x == x_ref:
        return 0.0
    lo, hi = (x_ref, x) if x_ref < x else (x, x_ref)
    scan = np.linspace(lo, hi, 257)
    vals, _ = pair.up(scan)
    tiny = 1e-300
    if np.any(np.abs(vals) < tiny) or np.any(vals[:-1] * vals[1:] < 0.0):
        raise ValueError("u_p vanishes between x_ref and x; q-integral is singular")

    def integrand(t):
        val, _ = pair.up(t)
        return 1.0 / val ** 2

    value = adaptive_simpson(integrand, lo, hi, tol=1e-10)
    return value if x > x_ref else -value
