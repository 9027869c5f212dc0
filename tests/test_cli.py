"""Command line contract: config resolution, output formats, exit codes.

Cheap paths run in-process through main(); byte-level determinism is checked
through subprocess so module import order and environment are part of the
experiment.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import darboux_lab
from darboux_lab.cli import _THREAD_VARS, _csv_text, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------- usage errors

def test_unknown_family_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--family", "coulomb"])
    assert exc.value.code == 2


def test_unknown_figure_id_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig99"])
    assert exc.value.code == 2


def test_unknown_panel_exits_2(capsys):
    assert main(["figure", "fig3", "--panel", "q"]) == 2


def test_nstates_floor(capsys):
    assert main(["spectrum", "--nstates", "0"]) == 2


def test_npoints_floor_and_dense_cap(capsys):
    assert main(["potential", "--npoints", "10"]) == 2
    assert main(["spectrum", "--npoints", "5000"]) == 2


def test_one_sided_window_rejected(capsys):
    assert main(["potential", "--xmin", "-1.0"]) == 2


def test_states_requires_out(capsys):
    assert main(["states"]) == 2
    assert main(["figure", "fig4"]) == 2


def test_bad_config_file(tmp_path, capsys):
    bad_value = tmp_path / "a.cfg"
    bad_value.write_text("npoints=plenty\n")
    assert main(["potential", "--config", str(bad_value)]) == 2
    bad_key = tmp_path / "b.cfg"
    bad_key.write_text("colour=blue\n")
    assert main(["potential", "--config", str(bad_key)]) == 2
    assert main(["potential", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_thread_cap_env(tmp_path, monkeypatch, capsys):
    # the cap writes the BLAS variables into os.environ; setting them through
    # monkeypatch first makes it restore them for later tests and subprocesses
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setenv("DARBOUX_LAB_THREADS", "soon")
    assert main(["potential", "--npoints", "60"]) == 2
    monkeypatch.setenv("DARBOUX_LAB_THREADS", "0")
    assert main(["potential", "--npoints", "60"]) == 2
    monkeypatch.setenv("DARBOUX_LAB_THREADS", "2")
    out = tmp_path / "v.csv"
    assert main(["potential", "--npoints", "60", "--out", str(out)]) == 0
    assert all(os.environ[var] == "2" for var in _THREAD_VARS)


# ------------------------------------------------------------- output formats

def test_potential_csv_shape(tmp_path, capsys):
    out = tmp_path / "pot.csv"
    code = main(["potential", "--npoints", "150", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,re_v,im_v,v0"
    assert len(lines) == 1 + 150
    xs = [float(row.split(",")[0]) for row in lines[1:]]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    for row in lines[1:3]:
        assert len(row.split(",")) == 4
        [float(cell) for cell in row.split(",")]


def test_csv_text_matches_cell_by_cell_formatting():
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                0.1, 1.0 / 3.0, -2.5e300]
    x = np.linspace(-1.0, 1.0, 20001)
    columns = (x, np.resize(specials, x.size), np.exp(x), -x * 1e-17)
    rows = ["h"] + [",".join("%.17g" % col[i] for col in columns)
                    for i in range(x.size)]
    assert _csv_text("h", columns) == "\n".join(rows) + "\n"


def test_states_outputs(tmp_path, capsys):
    base = tmp_path / "run"
    code, out = run_cli(["states", "--npoints", "140", "--nstates", "2",
                         "--out", str(base)], capsys)
    assert code == 0
    payload = json.loads(out)
    # nstates transformed levels plus the state at the factorization energy
    assert len(payload["states"]) == 3
    for k in range(3):
        csv_lines = (tmp_path / f"run_psi{k}.csv").read_text().splitlines()
        assert csv_lines[0] == "x,re_psi,im_psi"
        assert len(csv_lines) == 1 + 140
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary == payload
    st0 = payload["states"][0]
    for key in ("energy", "binorm", "interlacing", "provenance"):
        assert key in st0


def test_spectrum_json_17_digits(capsys):
    code, out = run_cli(["spectrum", "--npoints", "1200"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"]["passed"]
    # serialization carries every bit of the double
    omega = payload["config"]["omega0"]
    assert f'"omega0": {"%.17g" % omega}' in out
    # keys are emitted sorted so diffs are stable
    assert out.index('"config"') < out.index('"spectrum"')
    assert out.index('"backend"') < out.index('"bigj"') < out.index('"epsilon"')


def test_spectrum_failure_exit_1(capsys):
    # the gap construction at an undersized grid leaves an imaginary residue
    # above the gate; the report must still be printed, with exit code 1
    code, out = run_cli(
        ["spectrum", "--epsilon", "4.55", "--npoints", "1000"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["spectrum"]["passed"] is False


def test_spectrum_embedded_level_judged_by_pair_mean(capsys):
    # epsilon = E1 of the default Morse well: `spectrum` takes the pair-mean
    # path `verify` takes, so the defective pair passes the embedded gate
    code, out = run_cli(
        ["spectrum", "--epsilon", "6.45", "--npoints", "1100"], capsys)
    assert code == 0
    sp = json.loads(out)["spectrum"]
    assert sp["mode"] == "embedded_pair_mean" and sp["passed"]
    assert sum("splitting" in level for level in sp["levels"]) == 1


def test_verify_pass_exit_0(capsys):
    code, out = run_cli(
        ["verify", "--family", "trig_poschl_teller", "--epsilon", "0.25",
         "--lambda", str(math.sqrt(math.pi / 4.0)),
         "--bigj", str(math.pi / 4.0), "--i0", "0.0",
         "--npoints", "900"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["passed"] and payload["report"]["failures"] == []


def test_verify_singular_member_fast_path(capsys):
    code, out = run_cli(
        ["verify", "--epsilon", "4.55", "--lambda", "0.0",
         "--npoints", "800"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["checks"]["singularities"]["count"] == 2
    assert "spectrum" not in payload["report"]["checks"]


# ---------------------------------------------------------- config precedence

def test_flag_beats_config_beats_preset(tmp_path, capsys):
    cfg = tmp_path / "over.cfg"
    cfg.write_text("# comment line\nepsilon=0.3\nnstates=2\n")
    base = tmp_path / "fig8"
    code, out = run_cli(["figure", "fig8", "--config", str(cfg),
                         "--epsilon", "0.7", "--npoints", "120",
                         "--out", str(base)], capsys)
    assert code == 0
    echo = json.loads(out)["config"]
    assert echo["family"] == "trig_poschl_teller"   # preset beat default
    assert echo["nstates"] == 2                     # config beat default
    assert echo["epsilon"] == 0.7                   # flag beat config
    assert echo["lambda"] == math.sqrt(math.pi / 4.0)  # preset untouched


def test_figure_panel_changes_parameters(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["figure", "fig11", "--npoints", "90",
                 "--out", str(out_a)]) == 0
    assert main(["figure", "fig11", "--panel", "b", "--npoints", "90",
                 "--out", str(out_b)]) == 0
    assert out_a.read_text() != out_b.read_text()


# --------------------------------------------------------------- determinism

def test_identical_config_identical_bytes():
    cmd = [sys.executable, "-m", "darboux_lab.cli",
           "figure", "fig7", "--npoints", "300"]
    # the child imports the package the tests import, installed or not
    root = os.path.dirname(os.path.dirname(darboux_lab.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
