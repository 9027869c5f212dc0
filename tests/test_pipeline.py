"""Orchestration: construction assembly, the verification suite, and the
special handling of embedded factorization energies."""

import dataclasses

import numpy as np
import pytest

import darboux_lab
from darboux_lab import darboux
from darboux_lab.darboux import predict_spectrum
from darboux_lab.ermakov import AlphaFunction
from darboux_lab.fields import interior_grid
from darboux_lab.pipeline import (
    GATES, build_construction, embedded_spectrum, field_factory,
    verification_suite, _sample_window)
from darboux_lab.potentials import make_morse, make_oscillator, make_pt
from darboux_lab.seeds import SeedBackendError


def test_auto_backend_prefers_series():
    cons = build_construction(make_morse(1.0, 0.4, 2), 0.0, 1.0, 1.0, 1.0)
    assert cons.pair.backend == "analytic"
    cons_pt = build_construction(make_pt(1.0, 3.0), 5.26, 0.5, 2.74, 3.701)
    assert cons_pt.pair.backend == "analytic"


def test_auto_backend_falls_back_to_integration():
    cons = build_construction(make_oscillator(), 0.4, 1.0, 1.0, 0.5)
    assert cons.pair.backend == "numeric"


def test_explicit_backend_is_not_second_guessed():
    cons = build_construction(make_morse(1.0, 0.4, 2), 0.0, 1.0, 1.0, 1.0,
                              backend="numeric")
    assert cons.pair.backend == "numeric"
    with pytest.raises(SeedBackendError):
        build_construction(make_oscillator(), 0.4, 1.0, 1.0, 0.5,
                           backend="analytic")


def test_construction_family_parameters():
    cons = build_construction(make_pt(1.0, 3.0), 5.26, 0.0, 5.0, -3.701)
    assert cons.gamma_m == pytest.approx(0.7402, rel=1e-12)
    assert cons.family_sign == -1


def test_field_factory_lambda_split():
    cons_c = build_construction(make_morse(1.0, 0.4, 2), 0.0, 1.0, 1.0, 1.0)
    grid = np.linspace(-1.0, 5.0, 401)
    field = field_factory(cons_c)(grid)
    assert np.max(np.abs(field.values.imag)) > 0.1
    cons_r = build_construction(make_pt(1.0, 3.0), 5.26, 0.0, 2.74, 3.701)
    field_r = field_factory(cons_r)(np.linspace(-1.3, 1.3, 401))
    assert np.max(np.abs(np.imag(field_r.values))) == 0.0


def test_reference_case_report_is_green(get_report):
    report = get_report("case1")
    assert report["passed"] and report["failures"] == []
    checks = report["checks"]
    for key in ("coefficient_identity", "wronskian_drift", "spectrum",
                "ermakov_residual", "riccati_residual", "j_scan", "zero_area",
                "biorthogonality", "missing_tail", "min_q", "states"):
        assert key in checks
    assert checks["min_q"]["value"] > 0.0
    assert all(s["fd_residual"] <= GATES["state_residual"]
               for s in checks["states"])


def test_singular_member_report_skips_oracle():
    # two zeros on the window: the member does not define an operator on the
    # same domain, so the suite must report the zeros and nothing else
    cons = build_construction(make_morse(1.0, 0.4, 2), 4.55, 0.0, 1.0, 1.0)
    report = verification_suite(cons, 2, 400, 200)
    assert report["passed"]
    assert report["checks"]["singularities"]["count"] == 2
    assert "spectrum" not in report["checks"]
    assert "j_scan" not in report["checks"]


def test_regular_family_member_gets_spectrum_and_scan():
    cons = build_construction(make_pt(1.0, 3.0), 5.26, 0.0, 2.74, 3.701)
    report = verification_suite(cons, 3, 900, 450)
    assert report["passed"], report["failures"]
    checks = report["checks"]
    assert checks["singularities"]["count"] == 0
    assert checks["spectrum"]["passed"]
    assert checks["j_scan"]["pass"]


def test_embedded_level_judged_by_pair_mean():
    spec = make_morse(1.0, 0.4, 2)
    cons = build_construction(spec, 6.45, 1.0, 1.0, 1.0)
    pred = predict_spectrum(spec, 6.45, 3)
    window = _sample_window(cons.pair)
    result = embedded_spectrum(field_factory(cons), window, pred,
                               n_fine=1100, tol_abs=1e-2)
    assert result["mode"] == "embedded_pair_mean"
    assert result["passed"]
    doubled = [lv for lv in result["levels"] if "splitting" in lv]
    assert len(doubled) == 1
    # the conjugate pair straddles the level by much more than its mean
    # misses it; that gap is exactly why the mean is the tested quantity
    assert doubled[0]["splitting"] > 10.0 * doubled[0]["abs_error"]


def test_trig_epsilon_on_a_level_verifies():
    # epsilon = E0 = 9: the seeds must stay accurate out to the walls for
    # the Wronskian gate, and the doubled level goes by the pair mean
    cons = build_construction(make_pt(1.0, 3.0), 9.0, 1.0, 1.0, 0.5)
    report = verification_suite(cons, 3)
    assert report["passed"], report["failures"]
    assert report["checks"]["spectrum"]["mode"] == "embedded_pair_mean"


def test_every_export_resolves():
    # the package loads its exports lazily from a name table
    for name in darboux_lab.__all__:
        assert getattr(darboux_lab, name) is not None, name


def test_each_grid_samples_the_seeds_at_most_twice(get_case):
    # one record per grid feeds the field, beta, the states and the gates;
    # only the spectrum check (fine grid) and build_states (state grid)
    # sample again
    cons = get_case("case1")
    counts = {}

    def counted(member, fn):
        def evaluate(x):
            pts = np.atleast_1d(np.asarray(x, dtype=float))
            key = (member, pts.tobytes())
            counts[key] = counts.get(key, 0) + 1
            return fn(x)
        return evaluate

    pair = dataclasses.replace(cons.pair, up=counted("up", cons.pair.up),
                               v=counted("v", cons.pair.v))
    alpha = AlphaFunction(pair, cons.alpha.coeffs)
    report = verification_suite(
        dataclasses.replace(cons, pair=pair, alpha=alpha), 3)
    assert report["passed"], report["failures"]
    big = {key: n for key, n in counts.items() if len(key[1]) >= 8 * 800}
    assert {member for member, _ in big} == {"up", "v"}
    assert max(big.values()) <= 2, sorted(
        (member, len(x) // 8, n) for (member, x), n in big.items())


def test_lambda0_field_skips_the_zero_search(monkeypatch):
    # the fig11a configuration: only verification_suite locates the zeros
    calls = []
    original = darboux.real_family_lambda0

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(darboux, "real_family_lambda0", counted)
    cons = build_construction(make_pt(1.0, 3.0), 5.26, 0.0, 2.74, 3.701)
    field = field_factory(cons)(interior_grid(*_sample_window(cons.pair), 1200))
    assert np.all(np.isfinite(field.values))
    assert calls == []
    report = verification_suite(cons, 3, 1200, 600)
    assert report["passed"], report["failures"]
    assert len(calls) == 1
