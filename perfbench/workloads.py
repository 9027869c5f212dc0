"""The benchmark's workloads: argv lists for ``darboux_lab.cli.main``.

Every workload is a fixed, ordered list of configs that one closed-loop
client sends one after another. Each config is a dict with a ``name`` and
the ``argv`` passed to the CLI. A ``figure_export`` argv holds an ``{out}``
placeholder for the runner's scratch directory, and its config carries what
the checker expects (``states``, ``rows``).

Nothing here imports the package, numpy or scipy.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify_presets", "spectrum_sweep", "figure_export")

# configs per spectrum_sweep pass: 3 families x 3 grid sizes x 2 draws
SWEEP_SIZE = 18
SWEEP_NPOINTS = (600, 900, 1200)
FIGURE_NPOINTS = 20001
OUT = "{out}"


def _flags(**kw) -> list:
    """--key value pairs; floats in repr form so they parse back exactly."""
    out = []
    for key, value in kw.items():
        flag = "--lambda" if key == "lam" else "--" + key
        out += [flag, repr(value) if isinstance(value, float) else str(value)]
    return out


def _verify(family: list, epsilon: float, lam: float, bigj: float, i0: float,
            npoints: int = 1200, nstates: int = 3) -> list:
    return (["verify"] + family
            + _flags(epsilon=epsilon, lam=lam, bigj=bigj, i0=i0,
                     npoints=npoints, nstates=nstates, backend="auto"))


_MORSE2 = ["--family", "morse"] + _flags(gamma=1.0, delta=0.4, nmax=2)


def _fig12c() -> list:
    return _verify(_MORSE2, 6.45, 1.0, 1.0, 1.0, npoints=1500)


def verify_presets() -> list:
    """``verify`` on eight fixed configs, spelled out flag by flag.

    The values mirror the figure presets (and CLI defaults) of the seed
    commit, but are written out here so that later edits to the presets or
    defaults cannot change the workload.
    """
    morse4 = ["--family", "morse"] + _flags(gamma=1.0, delta=0.4, nmax=4)
    trig = ["--family", "trig_poschl_teller"] + _flags(u0=1.0, r=3.0)
    configs = [
        ("fig3a", _verify(_MORSE2, 0.0, 1.0, 1.0, 1.0)),
        ("fig3b", _verify(morse4, 0.0, 1.0, 1.0, 1.0, npoints=1500, nstates=5)),
        ("fig7a", _verify(trig, 0.25, math.sqrt(math.pi / 4.0), math.pi / 4.0, 0.0)),
        ("fig9a", _verify(trig, 8.075, math.sqrt(1.34), 1.34, -2.13)),
        ("fig11a", _verify(trig, 5.26, 0.0, 2.74, 3.701)),
        ("fig12a", _verify(_MORSE2, 4.55, 1.0, 1.0, 1.0, npoints=1500)),
        ("fig12c", _fig12c()),
        ("oscillator", _verify(["--family", "oscillator"], 0.0, 1.0, 1.0, 1.0)),
    ]
    return [{"name": name, "argv": argv} for name, argv in configs]


def _levels(family: str, p: dict, count: int) -> list:
    """Closed-form bottom of each family's ladder (the draw needs E0, E1)."""
    if family == "morse":
        d = p["nmax"] + p["delta"] + 0.5
        return [p["gamma"] ** 2 * ((2 * n + 1) * d - (n + 0.5) ** 2)
                for n in range(count)]
    if family == "trig_poschl_teller":
        return [p["u0"] ** 2 * (n + p["r"]) ** 2 for n in range(count)]
    return [2.0 * n + 1.0 for n in range(count)]


def spectrum_sweep(seed: int, n: int = SWEEP_SIZE) -> list:
    """``spectrum`` on n configs drawn from ``seed``.

    Families and grid sizes follow a fixed cycle (each family meets each
    npoints equally often when n is a multiple of 9), so neither the pass
    cost nor the order of allocation sizes depends on the draw; the
    continuous parameters are uniform:
    Morse gamma in [0.8, 1.2], delta in [0.2, 0.8], nmax in {1, 2, 3};
    trigonometric u0 in [0.8, 1.2], r in [2.5, 4.5]; lambda in [0.3, 1.5],
    J in [0.5, 2], I0 in [-2, 2]; epsilon either below E0 (by 0.1 to 1 of
    the first gap) or inside the first gap (0.1 to 0.9 of the way up).
    A fixed last config, ``fig12c_spectrum``, follows the n drawn ones.
    """
    rng = random.Random(seed)
    families = ("morse", "trig_poschl_teller", "oscillator")
    configs = []
    for k in range(n):
        family, npoints = families[k % 3], SWEEP_NPOINTS[(k // 3) % 3]
        if family == "morse":
            p = {"gamma": rng.uniform(0.8, 1.2), "delta": rng.uniform(0.2, 0.8),
                 "nmax": rng.choice((1, 2, 3))}
            head = ["--family", "morse"] + _flags(**p)
            nstates = min(3, p["nmax"] + 1)
        elif family == "trig_poschl_teller":
            p = {"u0": rng.uniform(0.8, 1.2), "r": rng.uniform(2.5, 4.5)}
            head = ["--family", family] + _flags(**p)
            nstates = 3
        else:
            p = {}
            head = ["--family", family]
            nstates = 3
        e0, e1 = _levels(family, p, 2)
        if rng.random() < 0.5:
            epsilon = e0 - rng.uniform(0.1, 1.0) * (e1 - e0)
        else:
            epsilon = e0 + rng.uniform(0.1, 0.9) * (e1 - e0)
        argv = (["spectrum"] + head
                + _flags(epsilon=epsilon, lam=rng.uniform(0.3, 1.5),
                         bigj=rng.uniform(0.5, 2.0), i0=rng.uniform(-2.0, 2.0),
                         npoints=npoints, nstates=nstates))
        configs.append({"name": f"sweep{k:02d}", "argv": argv})
    # fixed last config: fig12c's embedded level through `spectrum`, which
    # the seed commit judges by Richardson instead of the pair mean `verify`
    # uses, and so fails (exit 1); kept so the defect stays in view
    configs.append({"name": "fig12c_spectrum",
                    "argv": ["spectrum"] + _fig12c()[1:]})
    return configs


# id -> panels of the seed commit's figure table
FIGURE_PANELS = {
    "fig3": "ab", "fig4": "ab", "fig7": "ab", "fig8": "ab", "fig9": "ab",
    "fig10": "ab", "fig11": "ab", "fig12": "abcd",
}
# figures whose payload is the eigenfunction set: --out is a basename
STATE_FIGURES = frozenset({"fig4", "fig8", "fig10"})


def figure_export() -> list:
    """``figure`` on all 18 id/panel pairs at 20001 points, written to files."""
    configs = []
    for fid, panels in FIGURE_PANELS.items():
        for panel in panels:
            name = fid + panel
            target = OUT + "/" + name + ("" if fid in STATE_FIGURES else ".csv")
            configs.append({
                "name": name,
                "argv": ["figure", fid, "--panel", panel,
                         "--npoints", str(FIGURE_NPOINTS), "--out", target],
                "states": fid in STATE_FIGURES,
                "rows": FIGURE_NPOINTS,
            })
    return configs


def make(workload: str, seed: int) -> list:
    """The config list of one workload; only spectrum_sweep uses the seed."""
    if workload == "verify_presets":
        return verify_presets()
    if workload == "spectrum_sweep":
        return spectrum_sweep(seed)
    if workload == "figure_export":
        return figure_export()
    raise ValueError(f"unknown workload {workload!r}")
