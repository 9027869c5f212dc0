"""Correctness checks on every CLI output the benchmark produces.

Each check returns a list of problems (empty when the output is correct)
and, for spectrum-bearing outputs, the error and imaginary-residue ratios to
their tolerances. The expected spectra come from the closed-form ladders
here, not from the package, and the gate values are those of the seed
commit, so a check cannot drift along with the code it judges.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# gate values of the seed commit; the benchmark fails if any moves
TOL_ABS = {"morse": 1e-2, "trig_poschl_teller": 2e-2, "oscillator": 2e-2}
TOL_IMAG = 1e-6
TOL_IMAG_EMBEDDED = 1e-3
_LEVEL_MERGE_RTOL = 1e-9
# relative agreement of recomputed values with the reported ones
_RTOL = 1e-9
# figure CSVs: column sum within FIGURE_RTOL of the column's L1 norm, and
# L2 norm within FIGURE_RTOL of itself, against the seed-commit reference
FIGURE_RTOL = 1e-6


def _close(a: float, b: float, rtol: float = _RTOL, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def ladder(config: dict, count: int) -> list:
    """E_0 .. E_{count-1} of the echoed family, from the closed forms."""
    family = config["family"]
    if family == "morse":
        gamma = config["gamma"]
        d = config["n_max"] + config["delta"] + 0.5
        return [gamma * gamma * ((2 * n + 1) * d - (n + 0.5) ** 2)
                for n in range(count)]
    if family == "trig_poschl_teller":
        return [config["u0"] ** 2 * (n + config["r"]) ** 2 for n in range(count)]
    return [2.0 * n + 1.0 for n in range(count)]


def predicted(config: dict) -> list:
    """(energy, multiplicity) slots: the ladder plus epsilon, merged if equal."""
    eps = config["epsilon"]
    slots = [[e, 1] for e in ladder(config, config["nstates"])]
    for slot in slots:
        if abs(eps - slot[0]) <= _LEVEL_MERGE_RTOL * max(1.0, abs(slot[0])):
            slot[1] = 2
            break
    else:
        slots.append([eps, 1])
    return sorted(slots)


def _complex(entry: dict) -> complex:
    return complex(entry["re"], entry["im"])


def check_spectrum(sp: dict, config: dict) -> tuple[list, float, float]:
    """Problems in one spectrum report, and its error/imag ratios to tolerance."""
    problems = []
    slots = predicted(config)
    tol_abs = TOL_ABS[config["family"]]
    if sp.get("mode") == "embedded_pair_mean":
        tol_imag = TOL_IMAG_EMBEDDED
        levels = sp["levels"]
        if len(levels) != len(slots) or not all(
                _close(lv["energy"], e) and ("splitting" in lv) == (mult == 2)
                for lv, (e, mult) in zip(levels, slots)):
            problems.append("embedded levels differ from the ladder plus epsilon")
        errors = []
        for lv in levels:
            err = abs(_complex(lv["value"]) - lv["energy"])
            if not _close(err, lv["abs_error"]):
                problems.append(f"abs_error of {lv['label']} does not match its value")
            errors.append(lv["abs_error"])
        max_err = sp["max_abs_error"]
        max_imag = sp["max_imag"]
        if not _close(max_err, max(errors)):
            problems.append("max_abs_error is not the largest level error")
        if not _close(max_imag, max(abs(lv["value"]["im"]) for lv in levels)):
            problems.append("max_imag is not the largest level residue")
        verdict = max_err <= tol_abs and max_imag <= tol_imag
    else:
        tol_imag = TOL_IMAG
        expected = [e for e, mult in slots for _ in range(mult)]
        pred = sp["predicted"]
        if len(pred) != len(expected) or not all(
                _close(a, b) for a, b in zip(pred, expected)):
            problems.append(f"predicted {pred} is not the ladder plus epsilon {expected}")
        computed = [_complex(c) for c in sp["computed"]]
        errors = sp["abs_errors"]
        if not len(computed) == len(errors) == len(pred):
            problems.append("predicted, computed and abs_errors differ in length")
        for c, p, e in zip(computed, pred, errors):
            if not _close(abs(c - p), e):
                problems.append(f"abs_error {e!r} does not match |{c} - {p}|")
        max_err = max(errors)
        max_imag = sp["max_imag"]
        if not _close(max_imag, max(abs(c.imag) for c in computed)):
            problems.append("max_imag is not the largest computed residue")
        verdict = all(e <= tol_abs for e in errors) and max_imag <= tol_imag
    if sp["tol_abs"] != tol_abs or sp["tol_imag"] != tol_imag:
        problems.append(f"tolerances moved: {sp['tol_abs']}, {sp['tol_imag']}")
    if sp["passed"] != verdict:
        problems.append(f"passed={sp['passed']} disagrees with errors and tolerances")
    return problems, max_err / tol_abs, max_imag / tol_imag


def check_report(command: str, rc, text: str) -> tuple[list, dict]:
    """Problems in a ``spectrum`` or ``verify`` stdout, plus quality ratios."""
    quality = {}
    if rc not in (0, 1):
        return [f"exit code {rc}"], quality
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"], quality
    config = payload["config"]
    if command == "spectrum":
        sp = payload["spectrum"]
        verdict = sp["passed"]
        problems = []
    else:
        report = payload["report"]
        sp = report["checks"].get("spectrum")
        verdict = report["passed"]
        problems = _check_verify(report)
    if sp is not None:
        found, err, imag = check_spectrum(sp, config)
        problems += found
        quality = {"error_to_tol": err, "imag_to_tol": imag}
    if rc != (0 if verdict else 1):
        problems.append(f"exit code {rc} disagrees with passed={verdict}")
    return problems, quality


def _check_verify(report: dict) -> list:
    problems = []
    failures = report["failures"]
    for name, entry in report["checks"].items():
        if isinstance(entry, dict) and "pass" in entry and "bound" in entry:
            if entry["pass"] != (entry["value"] <= entry["bound"]):
                problems.append(f"gate {name} pass flag disagrees with its value")
            if not entry["pass"] and name not in failures:
                problems.append(f"failing gate {name} missing from failures")
    sp = report["checks"].get("spectrum")
    if sp is not None and (not sp["passed"]) != ("spectrum" in failures):
        problems.append("spectrum verdict and failures list disagree")
    if report["passed"] != (not failures):
        problems.append("passed disagrees with the failures list")
    return problems


def _csv_stats(path: Path) -> tuple[list, dict]:
    text = path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    data = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    columns = header.split(",")
    data = data.reshape(-1, len(columns))
    problems = [] if np.all(np.isfinite(data)) else [f"{path.name}: non-finite values"]
    stats = {"header": header, "rows": int(data.shape[0])}
    for k, name in enumerate(columns):
        col = data[:, k]
        stats[name] = {"sum": math.fsum(col), "l1": math.fsum(np.abs(col)),
                       "l2": math.sqrt(math.fsum(col * col))}
    return problems, stats


def figure_files(outdir: Path, name: str, states: bool) -> list:
    if not states:
        return [outdir / f"{name}.csv"]
    return sorted(outdir.glob(f"{name}_psi*.csv")) + [outdir / f"{name}_summary.json"]


def figure_stats(outdir: Path, name: str, states: bool) -> tuple[list, dict]:
    """Problems found by reading one figure's files, and their column stats."""
    problems, stats = [], {}
    for path in figure_files(outdir, name, states):
        if not path.is_file():
            problems.append(f"{path.name} missing")
        elif path.suffix == ".csv":
            found, stats[path.name] = _csv_stats(path)
            problems += found
    return problems, stats


def check_figure(rc, text: str, outdir: Path, cfg: dict, reference: dict) -> list:
    """Problems in one ``figure`` run: files, rows, finiteness, reference stats."""
    name, states = cfg["name"], cfg["states"]
    if rc != 0:
        return [f"exit code {rc}"]
    problems, stats = figure_stats(outdir, name, states)
    if states:
        summary = outdir / f"{name}_summary.json"
        if summary.is_file():
            if summary.read_text(encoding="utf-8") != text:
                problems.append("stdout differs from the summary file")
            payload = json.loads(text)
            config = payload["config"]
            energies = [s["energy"] for s in payload["states"]]
            expected = [config["epsilon"]] + ladder(config, config["nstates"])
            if len(energies) != len(expected) or not all(
                    _close(a, b) for a, b in zip(energies, expected)):
                problems.append(f"state energies {energies} are not eps plus the ladder")
            if len(stats) != config["nstates"] + 1:
                problems.append(f"{len(stats)} state files for nstates={config['nstates']}")
    elif text:
        problems.append("potential figure wrote to stdout despite --out")
    ref = reference.get(name)
    if ref is None:
        return problems + ["no reference values recorded"]
    if sorted(stats) != sorted(ref):
        return problems + [f"files {sorted(stats)} differ from reference {sorted(ref)}"]
    for fname, got in stats.items():
        want = ref[fname]
        if (got["header"] != want["header"] or got["rows"] != want["rows"]
                or got["rows"] != cfg["rows"]):
            problems.append(f"{fname}: header/rows {got['header']}/{got['rows']}")
            continue
        for col in got["header"].split(","):
            g, w = got[col], want[col]
            if abs(g["sum"] - w["sum"]) > FIGURE_RTOL * w["l1"]:
                problems.append(f"{fname}:{col} sum {g['sum']!r} vs {w['sum']!r}")
            if abs(g["l2"] - w["l2"]) > FIGURE_RTOL * w["l2"]:
                problems.append(f"{fname}:{col} L2 {g['l2']!r} vs {w['l2']!r}")
    return problems
