"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/selftest.py

Kept out of the repository's test discovery on purpose (the file name does
not match ``test_*.py``): the project's suite stays exactly as it is.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# the PT-symmetric trigonometric case passes even on a coarse grid
_TRIG = workloads.verify_presets()[2]["argv"][1:15]


def _cli(argv):
    from darboux_lab import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ------------------------------------------------------------------ workloads

def test_sweep_is_a_pure_function_of_the_seed():
    assert workloads.spectrum_sweep(7) == workloads.spectrum_sweep(7)
    assert workloads.spectrum_sweep(7) != workloads.spectrum_sweep(8)


def test_sweep_balances_families_and_grid_sizes():
    *drawn, fixed = workloads.spectrum_sweep(3)
    assert fixed["name"] == "fig12c_spectrum"
    cells = {}
    for cfg in drawn:
        argv = cfg["argv"]
        key = (argv[argv.index("--family") + 1], argv[argv.index("--npoints") + 1])
        cells[key] = cells.get(key, 0) + 1
    assert len(cells) == 9 and set(cells.values()) == {workloads.SWEEP_SIZE // 9}


def test_fixed_workloads_ignore_the_seed():
    assert workloads.make("verify_presets", 1) == workloads.make("verify_presets", 2)
    assert len(workloads.make("verify_presets", 1)) == 8
    assert len(workloads.make("figure_export", 1)) == 18


# ---------------------------------------------------------------- self times

def test_self_time_is_duration_minus_child_cover():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping: cover 1..6)
    # and [8, 12] (clipped to 8..10); grandchild [4, 5] under the second
    start = [0.0, 1.0, 2.0, 8.0, 4.0]
    end = [10.0, 3.0, 6.0, 12.0, 5.0]
    parent = [-1, 0, 0, 0, 2]
    assert spans.self_times(start, end, parent) == pytest.approx(
        [10.0 - 5.0 - 2.0, 2.0, 3.0, 4.0, 1.0])


def test_tracer_restores_every_patch_and_counts_layers():
    from darboux_lab import darboux, oracle, pipeline
    originals = (darboux.adaptive_simpson, oracle.eig_complex,
                 pipeline.richardson_spectrum)
    tracer = spans.Tracer()
    tracer.mark()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = tracer.main(["spectrum"] + _TRIG + ["--npoints", "200"], 0)
    assert rc == 0
    assert (darboux.adaptive_simpson, oracle.eig_complex,
            pipeline.richardson_spectrum) == originals
    assert not tracer.missing
    m = tracer.window_metrics()
    assert m["oracle.eig.calls"] == 2
    assert m["oracle.eig.dim_max"] == 200
    assert m["oracle.eig.dim_sum"] == 300
    assert m["quadrature.adaptive_simpson.calls"] == 0
    assert m["pipeline.state_ladder.rungs"] == 0
    assert m["cli.main.self_s"] >= 0.0


# ------------------------------------------------------------------- checker

@pytest.fixture(scope="module")
def spectrum_output():
    rc, text = _cli(["spectrum"] + _TRIG + ["--npoints", "400"])
    assert rc == 0
    return text


def test_checker_accepts_the_real_report(spectrum_output):
    problems, quality = check.check_report("spectrum", 0, spectrum_output)
    assert problems == []
    assert 0.0 < quality["error_to_tol"] < 1.0


def test_checker_rejects_a_flipped_verdict(spectrum_output):
    payload = json.loads(spectrum_output)
    payload["spectrum"]["passed"] = False
    problems, _ = check.check_report("spectrum", 1, json.dumps(payload))
    assert any("passed=False disagrees" in p for p in problems)


def test_checker_rejects_a_shifted_energy(spectrum_output):
    payload = json.loads(spectrum_output)
    payload["spectrum"]["predicted"][1] += 1e-3
    problems, _ = check.check_report("spectrum", 0, json.dumps(payload))
    assert any("ladder plus epsilon" in p for p in problems)


def test_checker_rejects_an_exit_code_that_contradicts_the_report(spectrum_output):
    problems, _ = check.check_report("spectrum", 1, spectrum_output)
    assert any("exit code 1" in p for p in problems)


def test_checker_rejects_a_flipped_gate_in_verify():
    argv = workloads.verify_presets()[4]["argv"]  # fig11a, the 0.1 s preset
    rc, text = _cli(argv)
    assert rc == 0 and check.check_report("verify", rc, text)[0] == []
    payload = json.loads(text)
    payload["report"]["checks"]["wronskian_drift"]["pass"] = False
    problems, _ = check.check_report("verify", rc, json.dumps(payload))
    assert any("wronskian_drift" in p for p in problems)


def test_checker_rejects_a_tampered_figure_csv(tmp_path):
    cfg = next(c for c in workloads.figure_export() if c["name"] == "fig7a")
    argv = [a.replace(workloads.OUT, str(tmp_path)) for a in cfg["argv"]]
    rc, text = _cli(argv)
    reference = json.loads((HERE / "reference.json").read_text())
    assert check.check_figure(rc, text, tmp_path, cfg, reference) == []
    path = tmp_path / "fig7a.csv"
    lines = path.read_text().splitlines()
    x, re_v, im_v, v0 = lines[10000].split(",")
    lines[10000] = ",".join((x, re_v, repr(float(im_v) + 1.0), v0))
    path.write_text("\n".join(lines) + "\n")
    problems = check.check_figure(rc, text, tmp_path, cfg, reference)
    assert any("im_v" in p for p in problems)
