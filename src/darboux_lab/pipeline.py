"""Orchestration: configuration to construction to verification report.

This is internal plumbing shared by the command-line front end and the
acceptance suite. It owns the glue decisions: which backend builds the seed
pair, which window and grids the finite-difference oracle runs on, which
tolerance applies to which family, and how the individual checks aggregate
into a single pass/fail verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import darboux, oracle
from .ermakov import AlphaFunction, invariant_j_scan, make_coeffs
from .fields import interior_grid, is_symmetric_grid
from .potentials import MORSE, PotentialSpec, _v0_vec
from .quadrature import simpson_samples
from .seeds import (SeedBackendError, SeedPair, _sample_window, analytic_pair,
                    numeric_pair, wronskian_drift)

# verification gates; each mirrors the contract of the module that owns it
GATES = {
    "coefficient_identity": 1e-12,
    "wronskian_drift": 1e-8,
    "ermakov_residual": 1e-7,
    "riccati_residual": 1e-7,
    "j_scan": 1e-8,
    "zero_area": 1e-6,
    "pt_asymmetry": 1e-10,
    "state_residual": 1e-5,
    "biorthogonality": 1e-6,
    "missing_tail": 1e-4,
    "spectrum_imag": 1e-6,
    "embedded_imag": 1e-3,
}

_N_FINE = 1200
_N_COARSE = 600
# eigenfunction checks run on their own denser grid: the 5-point residual
# truncation falls like h^4 and the FD-spectrum grid is too coarse for the
# steep Morse tail. Constructions with deep Q dips need a finer stencil
# still, so the grid escalates; a genuinely wrong state plateaus instead of
# falling h^4 and fails at every rung.
_STATE_GRID_LADDER = (3001, 6001, 12001, 24001)
_MORSE_CONTINUUM_MARGIN = 0.1
# same cancellation issue as seeds.wronskian_drift, but tighter: near a
# wall the series seeds themselves only carry ~1e-12 relative accuracy, so
# the Wronskian products must stay below ~1e3 W for the J scan to resolve
# the 1e-8 gate
_SCAN_COND_CAP = 1e3


@dataclass(frozen=True)
class Construction:
    """One configured Darboux construction, ready for sampling and checks."""

    spec: PotentialSpec
    pair: SeedPair
    alpha: AlphaFunction
    lam: float
    big_j: float
    i0: float

    @property
    def gamma_m(self) -> float:
        return abs(self.i0 / self.big_j)

    @property
    def family_sign(self) -> int:
        return 1 if self.i0 >= 0.0 else -1


def build_construction(spec: PotentialSpec, epsilon: float, lam: float,
                       big_j: float, i0: float,
                       backend: str = "auto") -> Construction:
    """Seed pair plus alpha-function for one parameter set.

    backend "auto" tries the analytic pair and falls back to the numeric one;
    "analytic"/"numeric" force the choice. The numeric fallback anchors at
    x0 = 0 with omega0 = 1; the resulting family member differs from the
    analytic-pair one, but the partner spectrum does not depend on it.
    """
    if backend == "analytic":
        pair = analytic_pair(spec, epsilon)
    elif backend == "numeric":
        pair = numeric_pair(spec, epsilon)
    elif backend == "auto":
        try:
            pair = analytic_pair(spec, epsilon)
        except SeedBackendError:
            pair = numeric_pair(spec, epsilon)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    coeffs = make_coeffs(lam, big_j, i0, pair.omega0)
    return Construction(spec, pair, AlphaFunction(pair, coeffs),
                        float(lam), float(big_j), float(i0))


def field_factory(cons: Construction):
    """grid -> sampled partner potential; real family when lam = 0."""
    if cons.lam != 0.0:
        return lambda grid: darboux.complex_potential(cons.alpha, grid)
    return lambda grid: darboux.real_family_lambda0(
        cons.pair, cons.gamma_m, cons.family_sign, grid)[0]


def default_tol_abs(spec: PotentialSpec) -> float:
    return 1e-2 if spec.family == MORSE else 2e-2


def spectrum_cutoff(spec: PotentialSpec, prediction) -> float:
    if spec.family == MORSE:
        return spec.params["gamma0"] - _MORSE_CONTINUUM_MARGIN
    return max(prediction.energies) + 1e-9


def _complex_pair(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def richardson_spectrum(make_field, window, prediction,
                        n_fine: int = _N_FINE, n_coarse: int = _N_COARSE,
                        tol_abs: float = 1e-2,
                        tol_imag: float = GATES["spectrum_imag"],
                        cutoff: float | None = None) -> dict:
    """FD spectra on an (h, ~2h) grid pair, Richardson-combined and matched.

    The fine list also supplies the spurious-eigenvalue report: computed
    values below the cutoff that no prediction slot claimed. Returns the
    JSON-ready report.
    """
    grid_f = interior_grid(window[0], window[1], n_fine)
    grid_c = interior_grid(window[0], window[1], n_coarse)
    ham_f = oracle.build_fd(make_field(grid_f))
    ham_c = oracle.build_fd(make_field(grid_c))
    slots, e_f, spurious = oracle.match_levels(
        prediction, oracle.eig_complex(ham_f), cutoff)
    _, e_c, _ = oracle.match_levels(prediction, oracle.eig_complex(ham_c))
    rho = ham_c.h / ham_f.h
    r2 = rho * rho
    extrap = (r2 * e_f - e_c) / (r2 - 1.0)
    errors = np.abs(extrap - np.asarray(slots))
    max_imag = float(np.max(np.abs(extrap.imag)))
    return {
        "predicted": slots,
        "computed": [_complex_pair(c) for c in extrap],
        "abs_errors": [float(e) for e in errors],
        "max_imag": max_imag,
        "unmatched_spurious_below_cutoff": [_complex_pair(c) for c in spurious],
        "passed": bool(np.all(errors <= tol_abs) and max_imag <= tol_imag),
        "tol_abs": float(tol_abs),
        "tol_imag": float(tol_imag),
    }


def embedded_spectrum(make_field, window, prediction,
                      n_fine: int = _N_FINE,
                      tol_abs: float = 1e-2,
                      cutoff: float | None = None) -> dict:
    """Fine-grid spectrum check for a prediction with a doubled level.

    When the factorization energy coincides with a bound level the new
    operator is isospectral and the shared level is defective: the added
    state has zero binorm and no second eigendirection exists. Any
    discretization then splits the level into a conjugate pair whose members
    wander O(h) off the real axis while their mean converges like h^2, so
    Richardson extrapolation against a coarser grid (where the pair may not
    even have formed) is meaningless. The doubled slot is judged by the
    pair mean on the fine grid alone, regular slots by their fine-grid
    values, and the imaginary gate is the embedded one.
    """
    grid = interior_grid(window[0], window[1], n_fine)
    _, matched, spurious = oracle.match_levels(
        prediction, oracle.eig_complex(oracle.build_fd(make_field(grid))),
        cutoff)
    levels = []
    i = 0
    for energy_n, label, mult in zip(prediction.energies, prediction.labels,
                                     prediction.multiplicities):
        vals = matched[i:i + mult]
        i += mult
        rep = complex(np.mean(vals))
        entry = {"label": label, "energy": float(energy_n),
                 "value": _complex_pair(rep),
                 "abs_error": float(abs(rep - energy_n))}
        if mult > 1:
            entry["splitting"] = float(np.max(np.abs(vals - rep)))
        levels.append(entry)
    max_err = max(lv["abs_error"] for lv in levels)
    max_imag = max(abs(lv["value"]["im"]) for lv in levels)
    return {"mode": "embedded_pair_mean", "levels": levels,
            "max_abs_error": max_err, "max_imag": max_imag,
            "unmatched_spurious_below_cutoff":
                [_complex_pair(c) for c in spurious],
            "tol_abs": float(tol_abs),
            "tol_imag": GATES["embedded_imag"],
            "passed": bool(max_err <= tol_abs
                           and max_imag <= GATES["embedded_imag"])}


def spectrum_check(spec, make_field, window, prediction,
                   n_fine: int, n_coarse: int) -> dict:
    """The spectrum report for one construction, with the family's gates.

    A prediction with a doubled level (epsilon equal to a level of the
    initial system) is judged by the pair mean on the fine grid; every
    other prediction by the Richardson pair.
    """
    tol_abs = default_tol_abs(spec)
    cutoff = spectrum_cutoff(spec, prediction)
    if 2 in prediction.multiplicities:
        return embedded_spectrum(make_field, window, prediction, n_fine,
                                 tol_abs=tol_abs, cutoff=cutoff)
    return richardson_spectrum(make_field, window, prediction, n_fine,
                               n_coarse, tol_abs=tol_abs, cutoff=cutoff)


def _conditioned_scan(pair: SeedPair, grid, a_val, da_val, big_j: float):
    """Subgrid where W(u_p, alpha) is computable without fatal cancellation."""
    up, dup = pair.up(grid)
    kappa = np.abs(up * da_val) + np.abs(dup * a_val)
    keep = kappa <= _SCAN_COND_CAP * max(1.0, math.sqrt(big_j))
    if not np.any(keep):
        keep = kappa == np.min(kappa)
    return grid[keep]


def build_states(cons: Construction, grid, n_states: int):
    """Missing state followed by the first n_states transformed states."""
    states = [darboux.missing_state(cons.alpha, grid)]
    for n in range(n_states):
        states.append(darboux.transform_bound_state(cons.alpha, cons.spec, n, grid))
    return states


def verification_suite(cons: Construction, n_states: int,
                       n_fine: int = _N_FINE, n_coarse: int = _N_COARSE) -> dict:
    """Every invariant and oracle check for one construction, as one report.

    Returns a JSON-ready dict; report["passed"] aggregates the enforced
    gates. Quantities that are measurements rather than requirements (minimum
    of Q, PT-asymmetry of a non-symmetric configuration, binorm magnitudes,
    singularity locations) are recorded without influencing the verdict.
    """
    spec = cons.spec
    pair = cons.pair
    co = cons.alpha.coeffs
    window = _sample_window(pair)
    grid = interior_grid(window[0], window[1], n_fine)
    checks = {}
    failures = []

    def gate(name: str, value: float, bound_key: str, extra: dict | None = None):
        bound = GATES[bound_key]
        entry = {"value": value, "bound": bound, "pass": bool(value <= bound)}
        if extra:
            entry.update(extra)
        checks[name] = entry
        if not entry["pass"]:
            failures.append(name)

    lhs = 4.0 * co.a * co.c - co.b * co.b
    rhs = 4.0 * (co.lam / co.omega0) ** 2
    scale = max(1.0, 4.0 * abs(co.a * co.c) + co.b * co.b)
    gate("coefficient_identity", abs(lhs - rhs) / scale,
         "coefficient_identity")
    gate("wronskian_drift", wronskian_drift(pair), "wronskian_drift")

    prediction = darboux.predict_spectrum(spec, pair.epsilon, n_states)
    make_field = field_factory(cons)

    if cons.lam == 0.0:
        # real one-parameter family: a singular member does not preserve the
        # domain, so only the singularity report applies to it
        field, sings = darboux.real_family_lambda0(
            pair, cons.gamma_m, cons.family_sign, grid)
        checks["singularities"] = {"locations": [float(s) for s in sings],
                                   "count": len(sings)}
        if not sings:
            checks["spectrum"] = spectrum_check(
                spec, make_field, window, prediction, n_fine, n_coarse)
            if not checks["spectrum"]["passed"]:
                failures.append("spectrum")
            a_val, da_val, _ = cons.alpha.evaluate(grid)
            scan = _conditioned_scan(pair, grid, a_val, da_val, co.big_j)
            gate("j_scan", invariant_j_scan(cons.alpha, scan), "j_scan")
        out = {"checks": checks, "failures": failures,
               "passed": not failures}
        return out

    checks["spectrum"] = spectrum_check(
        spec, make_field, window, prediction, n_fine, n_coarse)
    if not checks["spectrum"]["passed"]:
        failures.append("spectrum")

    v0 = _v0_vec(spec, grid)
    a_val, da_val, dda_val = cons.alpha.evaluate(grid)
    # grouped as (lam/alpha)^2/alpha: alpha**3 overflows where the seeds are
    # astronomically large, while the quotient just underflows to zero
    ermakov_res = np.abs(dda_val - (v0 - pair.epsilon) * a_val
                         - (co.lam / a_val) ** 2 / a_val)
    gate("ermakov_residual",
         float(np.max(ermakov_res / np.maximum(1.0, np.abs(dda_val)))),
         "ermakov_residual")

    beta, dbeta = darboux._beta_vec(cons.alpha, grid)
    gate("riccati_residual",
         float(np.max(np.abs(-dbeta + beta * beta - (v0 - pair.epsilon)))),
         "riccati_residual")

    scan = _conditioned_scan(pair, grid, a_val, da_val, co.big_j)
    gate("j_scan", invariant_j_scan(cons.alpha, scan), "j_scan",
         {"scan_points": int(scan.size)})

    area, boundary = darboux.zero_total_area(cons.alpha)
    gate("zero_area", abs(area), "zero_area",
         {"boundary_form": boundary, "consistency": abs(area - boundary)})

    q_scan, _, _ = cons.alpha.q_parts(grid)
    checks["min_q"] = {"value": float(np.min(q_scan))}

    field = make_field(grid)
    if is_symmetric_grid(grid):
        asym = darboux.pt_symmetry_check(field)
        if co.b == 0.0:
            gate("pt_asymmetry", asym, "pt_asymmetry")
        else:
            checks["pt_asymmetry"] = {"value": asym, "enforced": False}

    for n_sgrid in _STATE_GRID_LADDER:
        sgrid = interior_grid(window[0], window[1], n_sgrid)
        sfield = make_field(sgrid)
        states = build_states(cons, sgrid, n_states)
        residuals = [oracle.schrodinger_residual(st, sfield) for st in states]
        if max(residuals) <= GATES["state_residual"]:
            break
    h = float(sgrid[1] - sgrid[0])
    checks["state_grid"] = {"points": int(n_sgrid)}
    embedded = 2 in prediction.multiplicities
    state_entries = []
    for st, res in zip(states, residuals):
        inter = oracle.interlacing_check(st)
        seed_level = st.provenance.get("seed_level")
        entry = {
            "energy": st.energy,
            "provenance": st.provenance,
            "binorm": _complex_pair(st.binorm),
            "zero_binorm": st.zero_binorm,
            "fd_residual": res,
            "interlacing": inter.ok,
            "interlacing_note": inter.note,
        }
        state_entries.append(entry)
        label = f"{st.provenance.get('kind')}:{seed_level}"
        if res > GATES["state_residual"]:
            failures.append(f"state_residual[{label}]")
        # zero containment is a theorem for the first two transformed states
        # when eps is not itself a level; elsewhere it is recorded only
        if seed_level in (0, 1) and not embedded and not inter.ok:
            failures.append(f"interlacing[{label}]")
    checks["states"] = state_entries

    transformed = states[1:]
    cross_max = 0.0
    for i in range(len(transformed)):
        for j in range(i + 1, len(transformed)):
            cross = abs(complex(simpson_samples(
                transformed[i].samples * transformed[j].samples, h)))
            cross_max = max(cross_max, cross)
    gate("biorthogonality", cross_max, "biorthogonality")

    missing = states[0]
    raw, draw = darboux._missing_with_derivative(cons.alpha, sgrid)
    sbeta, _ = darboux._beta_vec(cons.alpha, sgrid)
    mask = np.abs(raw) > 1e-6 * float(np.max(np.abs(raw)))
    logdev = float(np.max(np.abs(draw[mask] / raw[mask] - sbeta[mask])))
    checks["missing_log_derivative"] = {"value": logdev}
    tail = float(max(abs(missing.samples[0]), abs(missing.samples[-1])))
    gate("missing_tail", tail, "missing_tail")

    return {"checks": checks, "failures": failures, "passed": not failures}
