"""End-to-end acceptance runs.

Each test prints one verdict line past the capture machinery so the run log
always carries the nine PASS/FAIL verdicts. The reference constructions and
their full verification reports are session-cached in conftest, so the heavy
finite-difference work is paid once.
"""

import math
import time

import numpy as np

from darboux_lab import darboux, oracle, pipeline
from darboux_lab.fields import RealField, interior_grid
from darboux_lab.pipeline import build_construction, richardson_spectrum
from darboux_lab.potentials import make_morse, make_pt
from darboux_lab.seeds import _sample_window


def _verdict(capfd, num: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} ({detail})"
    with capfd.disabled():
        print(line, flush=True)
    assert passed, line


def _spectrum_ok(sp: dict, expected, tol_abs: float, tol_imag: float = 1e-6):
    if len(sp["predicted"]) != len(expected):
        return False, f"slot count {len(sp['predicted'])} != {len(expected)}"
    formula_gap = max(abs(p - e) for p, e in zip(sp["predicted"], expected))
    worst = max(sp["abs_errors"])
    detail = f"max |dE| {worst:.1e} <= {tol_abs:.0e}, max |Im E| {sp['max_imag']:.1e}"
    ok = (formula_gap <= 1e-9 and worst <= tol_abs
          and sp["max_imag"] <= tol_imag and sp["passed"])
    return ok, detail


def test_criterion_1_morse_complex_spectrum(capfd, get_case):
    cons = get_case("case1")
    prediction = darboux.predict_spectrum(cons.spec, cons.pair.epsilon, 3)
    t0 = time.perf_counter()
    report = richardson_spectrum(
        pipeline.field_factory(cons), _sample_window(cons.pair), prediction,
        n_fine=1200, n_coarse=600, tol_abs=1e-2,
        cutoff=pipeline.spectrum_cutoff(cons.spec, prediction))
    elapsed = time.perf_counter() - t0
    ok, detail = _spectrum_ok(report, (0.0, 2.65, 6.45, 8.25), 1e-2)
    _verdict(capfd, 1, ok and elapsed <= 120.0,
             f"{detail}, {elapsed:.1f} s at n=1200")


def test_criterion_2_morse_deeper_well(capfd, get_report):
    sp = get_report("case2")["checks"]["spectrum"]
    ok, detail = _spectrum_ok(
        sp, (0.0, 4.65, 12.45, 18.25, 22.05, 23.85), 1e-2)
    _verdict(capfd, 2, ok, detail)


def test_criterion_3_pt_symmetric_case(capfd, get_report):
    checks = get_report("case3")["checks"]
    ok, detail = _spectrum_ok(checks["spectrum"], (0.25, 9.0, 16.0, 25.0),
                              2e-2)
    asym = checks["pt_asymmetry"]["value"]
    _verdict(capfd, 3, ok and asym <= 1e-10,
             f"{detail}, PT-asymmetry {asym:.1e} <= 1e-10")


def test_criterion_4_near_degenerate_pair(capfd, get_report):
    sp = get_report("case4")["checks"]["spectrum"]
    ok, detail = _spectrum_ok(sp, (8.075, 9.0, 16.0, 25.0), 2e-2)
    # the two lowest slots sit 0.925 apart; both must be claimed by
    # distinct computed values for the pair to count as resolved
    lo, next_up = (complex(c["re"], c["im"]) for c in sp["computed"][:2])
    resolved = abs(lo - next_up) > 0.5
    _verdict(capfd, 4, ok and resolved,
             f"{detail}, pair split {abs(lo - next_up):.3f}")


def test_criterion_5_embedded_energy_regularity(capfd):
    spec = make_morse(1.0, 0.4, 2)
    ok = True
    parts = []
    for eps in (4.55, 6.45):
        cons = build_construction(spec, eps, 1.0, 1.0, 1.0)
        lo, hi = _sample_window(cons.pair)
        grid = interior_grid(lo, hi, 4001)
        q_scan, _, _ = cons.alpha.q_parts(grid)
        min_q = float(np.min(q_scan))
        cons0 = build_construction(spec, eps, 0.0, 1.0, 1.0)
        _, sings = darboux.real_family_lambda0(
            cons0.pair, cons0.gamma_m, cons0.family_sign, grid)
        ok = ok and min_q > 0.0 and len(sings) == 2
        parts.append(f"eps={eps}: min Q {min_q:.3f} > 0, "
                     f"lam=0 alpha zeros {len(sings)}")
    _verdict(capfd, 5, ok, "; ".join(parts))


def test_criterion_6_real_family(capfd):
    cons = build_construction(make_pt(1.0, 3.0), 5.26, 0.0, 2.74, 3.701)
    window = _sample_window(cons.pair)
    prediction = darboux.predict_spectrum(cons.spec, 5.26, 3)
    scan_grid = interior_grid(window[0], window[1], 4001)
    ok = True
    parts = []
    for gamma_m in (1.35, 0.7402):
        _, sings = darboux.real_family_lambda0(cons.pair, gamma_m, 1,
                                               scan_grid)

        def member(g, gm=gamma_m):
            field, _ = darboux.real_family_lambda0(cons.pair, gm, 1, g)
            return field

        report = richardson_spectrum(
            member, window, prediction, n_fine=1200, n_coarse=600,
            tol_abs=2e-2, cutoff=pipeline.spectrum_cutoff(cons.spec,
                                                          prediction))
        sp_ok, detail = _spectrum_ok(report, (5.26, 9.0, 16.0, 25.0), 2e-2)
        ok = ok and len(sings) == 0 and sp_ok
        parts.append(f"gamma_m={gamma_m}: {len(sings)} zeros, {detail}")
    _verdict(capfd, 6, ok, "; ".join(parts))


def test_criterion_7_identity_suite(capfd, get_report):
    bounds = {"coefficient_identity": 1e-12, "wronskian_drift": 1e-8,
              "ermakov_residual": 1e-7, "riccati_residual": 1e-7,
              "j_scan": 1e-8, "zero_area": 1e-6}
    worst = dict.fromkeys(bounds, 0.0)
    ok = True
    for case in ("case1", "case2", "case3", "case4"):
        checks = get_report(case)["checks"]
        for name, bound in bounds.items():
            value = checks[name]["value"]
            worst[name] = max(worst[name], value)
            ok = ok and value <= bound
    _verdict(capfd, 7, ok, ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_8_eigenfunction_suite(capfd, get_report):
    ok = True
    worst_residual = 0.0
    worst_cross = 0.0
    for case in ("case1", "case2", "case3", "case4"):
        checks = get_report(case)["checks"]
        worst_residual = max(worst_residual,
                             max(st["fd_residual"] for st in checks["states"]))
        worst_cross = max(worst_cross, checks["biorthogonality"]["value"])
    ok = ok and worst_residual <= 1e-5 and worst_cross <= 1e-6
    for case in ("case1", "case3"):
        states = get_report(case)["checks"]["states"]
        ok = ok and states[1]["interlacing"] and states[2]["interlacing"]
    _verdict(capfd, 8, ok, f"max FD residual {worst_residual:.1e} <= 1e-5, "
                    f"max |int psi_m psi_n| {worst_cross:.1e} <= 1e-6, "
                    f"interlacing true for psi_1, psi_2 in cases 1 and 3")


def test_criterion_9_oracle_integrity(capfd):
    worst = 0.0
    for n, seed in ((8, 11), (33, 5), (50, 2)):
        rng = np.random.default_rng(seed)
        diag = rng.normal(size=n) + 1j * rng.normal(size=n)
        lower = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
        upper = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
        dense = np.asarray(oracle.dense_eigenvalues(diag, lower, upper))
        for root in oracle.charpoly_roots(diag, lower, upper):
            worst = max(worst, float(np.min(np.abs(dense - root))))
    grid = interior_grid(0.0, math.pi, 1500)
    ham = oracle.build_fd(RealField(grid, np.zeros(grid.size)))
    ev = np.sort_complex(oracle.eig_complex(ham))
    box_err = float(np.max(np.abs(ev[:3] - np.array([1.0, 4.0, 9.0]))))
    _verdict(capfd, 9, worst < 1e-8 and box_err <= 1e-2,
             f"route disagreement {worst:.1e} < 1e-8, box error {box_err:.1e}")
