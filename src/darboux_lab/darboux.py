"""Complex partner potentials and their eigenstates.

Given an alpha-function over a seed pair at factorization energy eps, this
module builds

    beta   = -alpha'/alpha + i lam / alpha^2,
    V_lam  = V0 - 2 (ln alpha)'' + 2 i (lam / alpha^2)',
    psi_n  = phi_n' + beta phi_n          (transformed bound states),
    psi_e  = proportional to 1/alpha^2 times a seed combination (missing
             state at energy eps),

plus the lam = 0 real one-parameter family and the structural checks (zero
total imaginary area, PT-symmetry defect, spectrum prediction).

Everything is evaluated through the quadratic form Q = alpha^2 and the log
ratios r1 = Q'/Q, r2 = Q''/Q, which stay O(1) even where the seeds reach
1e+100 scales; no square or product of Q values is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ermakov import AlphaFunction
from .fields import ComplexField, EigenState, RealField, grid_step, is_symmetric_grid
from .potentials import PotentialSpec, _bound_state_with_derivative, _v0_vec
from .potentials import energy as level_energy
from .quadrature import adaptive_simpson, simpson_samples
from .seeds import SeedPair, _sample_window

ZERO_BINORM_TOL = 1e-10
_LEVEL_MERGE_RTOL = 1e-9
_LEAD_SAMPLE_RTOL = 1e-6


@dataclass(frozen=True)
class SpectrumPrediction:
    """Ordered predicted spectrum of V_lam with provenance labels.

    When eps coincides with a bound level (relative tolerance 1e-9) the value
    is listed once with multiplicity 2 instead of twice.
    """

    energies: tuple
    labels: tuple
    multiplicities: tuple


def predict_spectrum(spec: PotentialSpec, epsilon: float,
                     n_levels: int) -> SpectrumPrediction:
    """The set {eps} union {E_0 .. E_{n_levels-1}}, sorted ascending."""
    if n_levels < 1:
        raise ValueError("need at least one inherited level")
    entries = [[level_energy(spec, n), f"E{n}", 1] for n in range(n_levels)]
    for entry in entries:
        if abs(epsilon - entry[0]) <= _LEVEL_MERGE_RTOL * max(1.0, abs(entry[0])):
            entry[1] += "+eps"
            entry[2] = 2
            break
    else:
        entries.append([float(epsilon), "eps", 1])
    entries.sort(key=lambda t: t[0])
    return SpectrumPrediction(tuple(e[0] for e in entries),
                              tuple(e[1] for e in entries),
                              tuple(e[2] for e in entries))


def _q_ratios(alpha: AlphaFunction, x):
    """(Q, r1, r2) with r1 = Q'/Q, r2 = Q''/Q; rejects nonpositive Q."""
    q, dq, ddq = alpha.q_parts(x)
    if np.any(q <= 0.0):
        bad = np.atleast_1d(np.asarray(x, dtype=float))[q <= 0.0]
        raise ValueError(
            f"alpha vanishes near x = {bad[0]:.6g} (lam = 0 superposition); "
            "the complex construction requires lam != 0 or a node-free member")
    return q, dq / q, ddq / q


def _beta_vec(alpha: AlphaFunction, x):
    """(beta, beta') sample arrays."""
    q, r1, r2 = _q_ratios(alpha, x)
    lam = alpha.coeffs.lam
    beta = -0.5 * r1 + 1j * lam / q
    dbeta = -0.5 * (r2 - r1 * r1) - 1j * lam * r1 / q
    return beta, dbeta


def complex_potential(alpha: AlphaFunction, grid) -> ComplexField:
    """The partner potential V_lam sampled on a grid.

    Re V_lam = V0 - (Q''/Q - (Q'/Q)^2), Im V_lam = -2 lam Q'/Q^2; both are
    assembled from the seed values and the seed ODE, with no numerical
    differentiation anywhere.

    Raises:
        ValueError: alpha vanishes on the grid (possible only for lam = 0).
    """
    grid = np.asarray(grid, dtype=float)
    q, r1, r2 = _q_ratios(alpha, grid)
    lam = alpha.coeffs.lam
    v0 = _v0_vec(alpha.pair.spec, grid)
    values = v0 - (r2 - r1 * r1) - 2j * lam * r1 / q
    meta = {"kind": "complex_potential", "lam": lam,
            "epsilon": alpha.pair.epsilon, "family": alpha.pair.spec.family}
    return ComplexField(grid, values, meta)


def _binormalize(energy: float, grid: np.ndarray, raw: np.ndarray,
                 provenance: dict) -> EigenState:
    """Scale to the bilinear normalization int psi^2 dx = 1 where possible.

    The state is first L2-normalized (pure conditioning, no physics), then
    divided by the principal square root of b = int psi^2 dx. If |b| of the
    L2-normalized state is below 1e-10 the state is left L2-normalized and
    flagged instead; such states are data, not errors. The surviving sign
    freedom is fixed by rotating the leading above-threshold sample to
    positive real part.
    """
    h = grid_step(grid)
    l2 = math.sqrt(float(simpson_samples(np.abs(raw) ** 2, h).real))
    if l2 == 0.0:
        raise ValueError("cannot normalize an identically zero state")
    psi = raw / l2
    b = complex(simpson_samples(psi * psi, h))
    if abs(b) < ZERO_BINORM_TOL:
        return EigenState(float(energy), grid, psi, b, True, provenance)
    psi = psi / np.sqrt(b)
    mag = np.abs(psi)
    lead = psi[mag > _LEAD_SAMPLE_RTOL * mag.max()][0]
    if lead.real < 0.0 or (lead.real == 0.0 and lead.imag < 0.0):
        psi = -psi
    achieved = complex(simpson_samples(psi * psi, h))
    return EigenState(float(energy), grid, psi, achieved, False, provenance)


def transform_bound_state(alpha: AlphaFunction, spec: PotentialSpec, n: int,
                          grid) -> EigenState:
    """Level E_n of V0 mapped to the eigenstate of V_lam at the same energy.

    psi = phi_n' + beta phi_n, bi-normalized. The new spectrum keeps E_n with
    index shifted up by one (eps takes the bottom slot when eps < E_0).

    Raises:
        ValueError: spec does not match the pair, or n out of range.
    """
    if spec != alpha.pair.spec:
        raise ValueError("potential spec does not match the seed pair")
    grid = np.asarray(grid, dtype=float)
    phi, dphi = _bound_state_with_derivative(spec, n, grid)
    beta, _ = _beta_vec(alpha, grid)
    raw = dphi + beta * phi
    prov = {"kind": "transformed", "seed_level": int(n), "new_index": int(n) + 1}
    return _binormalize(level_energy(spec, n), grid, raw, prov)


def _missing_with_derivative(alpha: AlphaFunction, grid):
    """Raw missing-state samples and derivative, before normalization."""
    co = alpha.coeffs
    if co.c == 0.0:
        # lam = 0 with I0 = 0: the member is u_p q itself, singular at the
        # anchor, and k below is 0/0
        raise ValueError("the missing state requires lam != 0 or I0 != 0")
    k = (co.lam / co.omega0 - 0.5j * co.b) / co.c
    up, dup = alpha.pair.up(grid)
    v, dv = alpha.pair.v(grid)
    q, dq, _ = alpha.q_parts(grid)
    raw = (k * v - 1j * up) / q
    draw = (k * dv - 1j * dup) / q - (dq / q) * raw
    return raw, draw


def missing_state(alpha: AlphaFunction, grid) -> EigenState:
    """The eigenstate of V_lam at the factorization energy eps.

    psi_eps is proportional to (k v - i u_p)/alpha^2 with
    k = (lam/omega0 - i b/2)/c, whose logarithmic derivative is beta. It is
    bi-normalized like every other state; a bilinear norm below threshold is
    reported through the zero_binorm flag with the state kept L2-normalized.
    """
    grid = np.asarray(grid, dtype=float)
    raw, _ = _missing_with_derivative(alpha, grid)
    return _binormalize(alpha.pair.epsilon, grid, raw, {"kind": "missing"})


def real_family_lambda0(pair: SeedPair, gamma_m: float, sign: int,
                        grid) -> tuple[RealField, list]:
    """One-parameter real partner family from the lam = 0 linear combination.

    alpha is proportional to u_p (q + sign * gamma_m) with q the
    reciprocal-square integral; since v = omega0 u_p q up to an additive
    multiple of u_p absorbed in q's anchor, the member is evaluated as
    v/omega0 + sign * gamma_m * u_p, which crosses nodes of u_p smoothly and
    is exactly the lam = 0 limit of the quadratic form (b/2a = sign *
    gamma_m * omega0). The partner is V = 2 eps - V0 + 2 (alpha'/alpha)^2.
    Zeros of alpha are located by dense sign scan plus bisection and returned
    as data; the potential samples near them are large but finite.

    Args:
        pair: seed pair at the family's factorization energy.
        gamma_m: family parameter, >= 0.
        sign: +1 or -1.
        grid: sampling abscissas.

    Returns:
        (RealField of the partner potential, sorted singularity locations).
    """
    if gamma_m < 0.0:
        raise ValueError("gamma_m must be nonnegative")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    w0 = pair.omega0

    def combo(x):
        up, dup = pair.up(x)
        v, dv = pair.v(x)
        lin = v / w0 + sign * gamma_m * up
        dlin = dv / w0 + sign * gamma_m * dup
        return lin, dlin

    grid = np.asarray(grid, dtype=float)
    lin, dlin = combo(grid)
    v0_vals = _v0_vec(pair.spec, grid)
    values = 2.0 * pair.epsilon - v0_vals + 2.0 * (dlin / lin) ** 2
    meta = {"kind": "real_family_lambda0", "gamma_m": float(gamma_m),
            "sign": int(sign), "epsilon": pair.epsilon}
    field = RealField(grid, values, meta)

    scan = np.linspace(grid[0], grid[-1], max(4 * grid.size + 1, 2001))
    samples, _ = combo(scan)
    zeros = []
    for i in np.flatnonzero(np.signbit(samples[:-1]) != np.signbit(samples[1:])):
        a, b = float(scan[i]), float(scan[i + 1])
        fa = float(samples[i])
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = float(combo(m)[0][0])
            if fm == 0.0:
                a = b = m
                break
            if (fa < 0.0) == (fm < 0.0):
                a, fa = m, fm
            else:
                b = m
        zeros.append(0.5 * (a + b))
    zeros.extend(float(scan[i]) for i in np.flatnonzero(samples == 0.0))
    return field, sorted(zeros)


def zero_total_area(alpha: AlphaFunction, window=None) -> tuple[float, float]:
    """Integral of Im V_lam over the window, with its closed-form value.

    Im V_lam is the exact derivative of 2 lam / alpha^2, so the quadrature
    must agree with the boundary evaluation; both are returned so callers can
    check one against the other. For lam = 0 both are exactly zero.
    """
    if window is None:
        window = _sample_window(alpha.pair)
    a, b = float(window[0]), float(window[1])
    lam = alpha.coeffs.lam
    if lam == 0.0:
        return 0.0, 0.0

    def im_v(t):
        q, dq, _ = alpha.q_parts(t)
        return -2.0 * lam * float((dq / q)[0]) / float(q[0])

    integral = adaptive_simpson(im_v, a, b, tol=1e-9)
    qa = float(alpha.q_parts(a)[0][0])
    qb = float(alpha.q_parts(b)[0][0])
    boundary = 2.0 * lam / qb - 2.0 * lam / qa
    return float(integral), float(boundary)


def pt_symmetry_check(field: ComplexField) -> float:
    """Max over the grid of |V(x) - conj(V(-x))|.

    Raises:
        ValueError: the grid is not symmetric about the origin.
    """
    if not is_symmetric_grid(field.x):
        raise ValueError("PT-symmetry check needs a grid symmetric about 0")
    return float(np.max(np.abs(field.values - np.conj(field.values[::-1]))))
