"""Complex partner potentials and their eigenstates.

Given an alpha-function over a seed pair at factorization energy eps, sampled
once per grid (ermakov.AlphaSamples), this module builds

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

from .ermakov import AlphaFunction, AlphaSamples
from .fields import ComplexField, EigenState, RealField, grid_step, is_symmetric_grid
# unused (V0 comes with the samples), but perfbench/spans.py patches it here
from .potentials import PotentialSpec, _bound_state_with_derivative, _v0_vec  # noqa: F401
from .potentials import energy as level_energy
from .quadrature import adaptive_simpson, simpson_samples
from .seeds import _sample_window

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


def _beta_vec(samples: AlphaSamples):
    """(beta, beta') sample arrays."""
    r1, r2 = samples.ratios()
    lam = samples.alpha.coeffs.lam
    beta = -0.5 * r1 + 1j * lam / samples.q
    dbeta = -0.5 * (r2 - r1 * r1) - 1j * lam * r1 / samples.q
    return beta, dbeta


def complex_potential(samples: AlphaSamples) -> ComplexField:
    """The partner potential V_lam on the samples' grid.

    Re V_lam = V0 - (Q''/Q - (Q'/Q)^2), Im V_lam = -2 lam Q'/Q^2; both are
    assembled from the seed values and the seed ODE, with no numerical
    differentiation anywhere.

    Raises:
        ValueError: alpha vanishes on the grid (possible only for lam = 0).
    """
    r1, r2 = samples.ratios()
    lam = samples.alpha.coeffs.lam
    values = samples.v0 - (r2 - r1 * r1) - 2j * lam * r1 / samples.q
    return ComplexField(samples.x, values)


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


def transform_bound_state(samples: AlphaSamples, n: int) -> EigenState:
    """Level E_n of V0 mapped to the eigenstate of V_lam at the same energy.

    psi = phi_n' + beta phi_n, bi-normalized. The new spectrum keeps E_n with
    index shifted up by one (eps takes the bottom slot when eps < E_0).

    Raises:
        ValueError: n out of range.
    """
    spec = samples.alpha.pair.spec
    phi, dphi = _bound_state_with_derivative(spec, n, samples.x)
    beta, _ = _beta_vec(samples)
    raw = dphi + beta * phi
    prov = {"kind": "transformed", "seed_level": int(n), "new_index": int(n) + 1}
    return _binormalize(level_energy(spec, n), samples.x, raw, prov)


def _missing_with_derivative(samples: AlphaSamples):
    """Raw missing-state samples and derivative, before normalization."""
    co = samples.alpha.coeffs
    if co.c == 0.0:
        # lam = 0 with I0 = 0: the member is u_p q itself, singular at the
        # anchor, and k below is 0/0
        raise ValueError("the missing state requires lam != 0 or I0 != 0")
    k = (co.lam / co.omega0 - 0.5j * co.b) / co.c
    q = samples.q
    raw = (k * samples.v - 1j * samples.up) / q
    draw = (k * samples.dv - 1j * samples.dup) / q - (samples.dq / q) * raw
    return raw, draw


def missing_state(samples: AlphaSamples) -> EigenState:
    """The eigenstate of V_lam at the factorization energy eps.

    psi_eps is proportional to (k v - i u_p)/alpha^2 with
    k = (lam/omega0 - i b/2)/c, whose logarithmic derivative is beta. It is
    bi-normalized like every other state; a bilinear norm below threshold is
    reported through the zero_binorm flag with the state kept L2-normalized.
    """
    raw, _ = _missing_with_derivative(samples)
    return _binormalize(samples.alpha.pair.epsilon, samples.x, raw,
                        {"kind": "missing"})


def _lambda0_member(samples: AlphaSamples, gamma_m: float, sign: int):
    """(m, m') of the lam = 0 member m = v/omega0 + sign * gamma_m * u_p."""
    w0 = samples.alpha.pair.omega0
    return (samples.v / w0 + sign * gamma_m * samples.up,
            samples.dv / w0 + sign * gamma_m * samples.dup)


def real_family_field(samples: AlphaSamples, gamma_m: float,
                      sign: int) -> RealField:
    """Partner potential of one lam = 0 family member on the samples' grid.

    alpha is proportional to u_p (q + sign * gamma_m) with q the
    reciprocal-square integral; since v = omega0 u_p q up to an additive
    multiple of u_p absorbed in q's anchor, the member is evaluated as
    m = v/omega0 + sign * gamma_m * u_p (gamma_m >= 0, sign +1 or -1), which
    crosses nodes of u_p smoothly and is exactly the lam = 0 limit of the
    quadratic form (b/2a = sign * gamma_m * omega0). The partner is
    V = 2 eps - V0 + 2 (m'/m)^2; its samples near a zero of m are large but
    finite. Only the samples' seed pair is read, so any alpha over it will do.
    """
    if gamma_m < 0.0:
        raise ValueError("gamma_m must be nonnegative")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    lin, dlin = _lambda0_member(samples, gamma_m, sign)
    eps = samples.alpha.pair.epsilon
    return RealField(samples.x, 2.0 * eps - samples.v0 + 2.0 * (dlin / lin) ** 2)


def real_family_lambda0(samples: AlphaSamples, gamma_m: float,
                        sign: int) -> tuple[RealField, list]:
    """The lam = 0 member's partner potential and the zeros of the member.

    The zeros are located by a sign scan on 4n + 1 points spanning the
    samples' grid, then bisection, and returned sorted as data.

    Returns:
        (real_family_field of the samples, sorted singularity locations).
    """
    field = real_family_field(samples, gamma_m, sign)
    alpha, grid = samples.alpha, samples.x
    scan = np.linspace(grid[0], grid[-1], max(4 * grid.size + 1, 2001))
    values = _lambda0_member(alpha.q_parts(scan), gamma_m, sign)[0]
    # all brackets bisect together, one evaluator call per step; a bracket
    # stops shrinking once its midpoint rounds onto an end or it hit a zero
    i = np.flatnonzero(np.signbit(values[:-1]) != np.signbit(values[1:]))
    a, b, fa = scan[i], scan[i + 1], values[i]
    for _ in range(80):
        m = 0.5 * (a + b)
        live = np.flatnonzero((a < m) & (m < b))
        if live.size == 0:
            break
        m = m[live]
        fm = _lambda0_member(alpha.q_parts(m), gamma_m, sign)[0]
        hit = fm == 0.0
        left = (fa[live] < 0.0) == (fm < 0.0)
        a[live] = np.where(left | hit, m, a[live])
        b[live] = np.where(left & ~hit, b[live], m)
        fa[live] = np.where(left, fm, fa[live])
    zeros = [float(z) for z in 0.5 * (a + b)]
    zeros.extend(float(scan[i]) for i in np.flatnonzero(values == 0.0))
    return field, sorted(zeros)


def zero_total_area(alpha: AlphaFunction, window=None) -> tuple[float, float]:
    """Integral of Im V_lam over the window, with its closed-form value.

    Im V_lam is the exact derivative of 2 lam / alpha^2, so the quadrature
    must agree with the boundary evaluation; both are returned so callers can
    check one against the other; the quadrature samples Im V_lam on arrays
    and never reads the boundary values. For lam = 0 both are exactly zero.
    """
    if window is None:
        window = _sample_window(alpha.pair)
    a, b = float(window[0]), float(window[1])
    lam = alpha.coeffs.lam
    if lam == 0.0:
        return 0.0, 0.0

    def im_v(t):
        samples = alpha.q_parts(t)
        return -2.0 * lam * (samples.dq / samples.q) / samples.q

    integral = adaptive_simpson(im_v, a, b, tol=1e-9)
    qa, qb = alpha.q_parts(np.array([a, b])).q
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
