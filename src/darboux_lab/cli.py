"""Command line front end.

Configuration precedence, lowest to highest: built-in defaults, figure
preset, --config file, explicit flags. The config file is plain text with
one key=value per line; keys match the long flag names.

Exit codes: 0 success, 1 a verification gate failed, 2 bad usage or
configuration.

Heavy imports happen inside main() so that DARBOUX_LAB_THREADS can pin the
BLAS thread pools before numpy comes up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ConfigError(Exception):
    """Unusable configuration; maps to exit code 2."""


def _apply_thread_cap() -> None:
    cap = os.environ.get("DARBOUX_LAB_THREADS")
    if cap is None or cap == "":
        return
    try:
        n = int(cap)
    except ValueError:
        raise ConfigError(f"DARBOUX_LAB_THREADS must be an integer, got {cap!r}")
    if n < 1:
        raise ConfigError("DARBOUX_LAB_THREADS must be >= 1")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


_DEFAULTS = {
    "family": "morse",
    "gamma": 1.0,
    "delta": 0.4,
    "nmax": 2,
    "u0": 1.0,
    "r": 3.0,
    "epsilon": 0.0,
    "lambda": 1.0,
    "bigj": 1.0,
    "i0": 1.0,
    "xmin": None,
    "xmax": None,
    "npoints": 1200,
    "nstates": 3,
    "backend": "auto",
}

_CASTS = {
    "family": str,
    "gamma": float,
    "delta": float,
    "nmax": int,
    "u0": float,
    "r": float,
    "epsilon": float,
    "lambda": float,
    "bigj": float,
    "i0": float,
    "xmin": float,
    "xmax": float,
    "npoints": int,
    "nstates": int,
    "backend": str,
}

# "lambda" is reserved in python, argparse stores it under "lam"
_DEST = {"lambda": "lam"}

_MORSE_N2 = {"family": "morse", "gamma": 1.0, "delta": 0.4, "nmax": 2}
_PT_R3 = {"family": "trig_poschl_teller", "u0": 1.0, "r": 3.0}

# canonical parameter presets; panels select the documented variants
_FIGURES = {
    "fig3": {**_MORSE_N2, "epsilon": 0.0, "lambda": 1.0, "bigj": 1.0, "i0": 1.0},
    "fig4": {**_MORSE_N2, "epsilon": 0.0, "lambda": 1.0, "bigj": 1.0, "i0": 1.0},
    "fig7": {**_PT_R3, "epsilon": 0.25, "lambda": math.sqrt(math.pi / 4.0),
             "bigj": math.pi / 4.0, "i0": 0.0},
    "fig8": {**_PT_R3, "epsilon": 0.25, "lambda": math.sqrt(math.pi / 4.0),
             "bigj": math.pi / 4.0, "i0": 0.0},
    "fig9": {**_PT_R3, "epsilon": 8.075, "lambda": math.sqrt(1.34),
             "bigj": 1.34, "i0": -2.13},
    "fig10": {**_PT_R3, "epsilon": 8.075, "lambda": math.sqrt(1.34),
              "bigj": 1.34, "i0": -2.13},
    "fig11": {**_PT_R3, "epsilon": 5.26, "lambda": 0.0,
              "bigj": 2.74, "i0": 3.701},
    "fig12": {**_MORSE_N2, "epsilon": 4.55, "lambda": 1.0,
              "bigj": 1.0, "i0": 1.0},
}

_PANELS = {
    # the N=4 well needs the finest grid the dense eigensolver allows to push
    # the Richardson imaginary residue under 1e-6
    "fig3": {"a": {"nmax": 2}, "b": {"nmax": 4, "nstates": 5, "npoints": 1500}},
    "fig4": {"a": {"nmax": 2}, "b": {"nmax": 4}},
    "fig7": {"a": {"r": 3.0}, "b": {"r": 4.0}},
    "fig8": {"a": {"r": 3.0}, "b": {"r": 4.0}},
    "fig9": {"a": {"r": 3.0}, "b": {"r": 4.0}},
    "fig10": {"a": {"r": 3.0}, "b": {"r": 4.0}},
    "fig11": {"a": {"bigj": 2.74}, "b": {"bigj": 5.0}},
    # the deep Q dips of the gap construction (and the defective pair of the
    # embedded one) need the finest grid the dense eigensolver allows
    "fig12": {"a": {"epsilon": 4.55, "lambda": 1.0, "npoints": 1500},
              "b": {"epsilon": 4.55, "lambda": 0.0},
              "c": {"epsilon": 6.45, "lambda": 1.0, "npoints": 1500},
              "d": {"epsilon": 6.45, "lambda": 0.0}},
}

# figures whose payload is the eigenfunction set, not the potential
_STATE_FIGURES = frozenset({"fig4", "fig8", "fig10"})

_FAMILIES = ("morse", "trig_poschl_teller", "oscillator")
_BACKENDS = ("auto", "analytic", "numeric")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darboux-lab",
        description="complex-valued partner potentials with prescribed real "
                    "spectra, plus their finite-difference verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--family", choices=_FAMILIES, default=None)
        sp.add_argument("--gamma", type=float, default=None,
                        help="Morse range parameter")
        sp.add_argument("--delta", type=float, default=None,
                        help="Morse depth offset, 0 < delta < 1")
        sp.add_argument("--nmax", type=int, default=None,
                        help="index of the highest Morse bound state")
        sp.add_argument("--u0", type=float, default=None,
                        help="trigonometric well strength")
        sp.add_argument("--r", type=float, default=None,
                        help="trigonometric well exponent, r > 1")
        sp.add_argument("--epsilon", type=float, default=None,
                        help="factorization energy")
        sp.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="imaginary deformation strength")
        sp.add_argument("--bigj", type=float, default=None,
                        help="Ermakov invariant J > 0")
        sp.add_argument("--i0", type=float, default=None,
                        help="mixing constant I0")
        sp.add_argument("--xmin", type=float, default=None)
        sp.add_argument("--xmax", type=float, default=None)
        sp.add_argument("--npoints", type=int, default=None,
                        help="grid points (and CSV rows)")
        sp.add_argument("--nstates", type=int, default=None,
                        help="number of transformed seed levels")
        sp.add_argument("--backend", choices=_BACKENDS, default=None)
        sp.add_argument("--out", default=None,
                        help="output path (basename for states)")
        sp.add_argument("--config", default=None,
                        help="key=value file, overridden by flags")

    add_common(sub.add_parser(
        "spectrum", help="predicted levels vs the Richardson FD spectrum; a "
                         "level equal to epsilon is judged by the pair mean "
                         "under the 1e-3 embedded imaginary gate"))
    add_common(sub.add_parser(
        "potential", help="CSV samples of the partner potential"))
    add_common(sub.add_parser(
        "states", help="per-state CSV series plus a JSON summary"))
    add_common(sub.add_parser(
        "verify", help="full invariant and oracle suite as JSON"))
    fig = sub.add_parser("figure", help="rebuild canonical figure data sets")
    fig.add_argument("id", choices=sorted(_FIGURES))
    fig.add_argument("--panel", default=None,
                     help="figure panel, default 'a'")
    add_common(fig)
    return parser


def _parse_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    out = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CASTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _CASTS[key](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}")
    return out


def _resolve(args) -> dict:
    cfg = dict(_DEFAULTS)
    if args.command == "figure":
        cfg.update(_FIGURES[args.id])
        panels = _PANELS[args.id]
        panel = args.panel if args.panel is not None else "a"
        if panel not in panels:
            raise ConfigError(
                f"{args.id} has panels {'/'.join(sorted(panels))}, got {panel!r}")
        cfg.update(panels[panel])
    if args.config is not None:
        cfg.update(_parse_config_file(args.config))
    for key in _CASTS:
        value = getattr(args, _DEST.get(key, key))
        if value is not None:
            cfg[key] = value
    return cfg


def _validate(cfg: dict, command: str) -> None:
    if cfg["family"] not in _FAMILIES:
        raise ConfigError(f"unknown family {cfg['family']!r}")
    if cfg["backend"] not in _BACKENDS:
        raise ConfigError(f"unknown backend {cfg['backend']!r}")
    if cfg["nstates"] < 1:
        raise ConfigError("nstates must be >= 1")
    floors = {"spectrum": 100, "verify": 800}
    floor = floors.get(command, 50)
    if cfg["npoints"] < floor:
        raise ConfigError(f"{command} needs npoints >= {floor}")
    if command in floors:
        from .oracle import _DENSE_CAP
        if cfg["npoints"] > _DENSE_CAP:
            raise ConfigError(
                f"{command} needs npoints <= {_DENSE_CAP} (dense eigensolver cap)")
    one_sided = (cfg["xmin"] is None) != (cfg["xmax"] is None)
    if one_sided:
        raise ConfigError("xmin and xmax must be given together")


def _make_spec(cfg: dict):
    from .potentials import make_morse, make_oscillator, make_pt
    family = cfg["family"]
    window = None
    if cfg["xmin"] is not None:
        window = (cfg["xmin"], cfg["xmax"])
        if window[0] >= window[1]:
            raise ConfigError("xmin must be below xmax")
    if family == "morse":
        return make_morse(cfg["gamma"], cfg["delta"], cfg["nmax"], window=window)
    if family == "trig_poschl_teller":
        if window is not None:
            raise ConfigError("the trigonometric well fixes its own window")
        return make_pt(cfg["u0"], cfg["r"])
    if window is not None:
        if window[0] != -window[1]:
            raise ConfigError("the oscillator window must be symmetric")
        return make_oscillator(half_width=window[1])
    return make_oscillator()


def _construct(cfg: dict):
    from . import pipeline
    spec = _make_spec(cfg)
    return pipeline.build_construction(
        spec, cfg["epsilon"], cfg["lambda"], cfg["bigj"], cfg["i0"],
        backend=cfg["backend"])


def _echo(cfg: dict, cons) -> dict:
    spec = cons.spec
    out = {
        "family": spec.family,
        "window": [float(spec.window[0]), float(spec.window[1])],
        "epsilon": cons.pair.epsilon,
        "lambda": cons.lam,
        "bigj": cons.big_j,
        "i0": cons.i0,
        "omega0": cons.pair.omega0,
        "backend": cons.pair.backend,
        "npoints": cfg["npoints"],
        "nstates": cfg["nstates"],
    }
    for key in ("gamma", "delta", "n_max", "u0", "r"):
        if key in spec.params:
            out[key] = spec.params[key]
    return out


# json.dumps hardwires float.__repr__, which prints the shortest string that
# round-trips; the output contract wants the same 17-significant-digit form
# the CSV writer uses, so floats detour through a tagged string
_FLOAT_TAG = "\x00f:"


def _tag_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _FLOAT_TAG + ("%.17g" % obj)
    if isinstance(obj, dict):
        return {k: _tag_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag_floats(v) for v in obj]
    return obj


def _json_text(payload) -> str:
    text = json.dumps(_tag_floats(payload), indent=2, sort_keys=True)
    return re.sub(r'"\\u0000f:([^"]*)"', r"\1", text) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_text(header: str, columns) -> str:
    row = ",".join(["%.17g"] * len(columns))
    rows = [row % cells for cells in zip(*(col.tolist() for col in columns))]
    return "\n".join([header] + rows) + "\n"


def _cmd_spectrum(cfg: dict, out: str | None) -> int:
    from . import pipeline
    from .darboux import predict_spectrum
    from .seeds import _sample_window
    cons = _construct(cfg)
    prediction = predict_spectrum(cons.spec, cons.pair.epsilon, cfg["nstates"])
    report = pipeline.spectrum_check(
        cons.spec, pipeline.field_factory(cons), _sample_window(cons.pair),
        prediction, n_fine=cfg["npoints"], n_coarse=cfg["npoints"] // 2)
    payload = {"config": _echo(cfg, cons), "spectrum": report}
    _emit(_json_text(payload), out)
    return 0 if report["passed"] else 1


def _cmd_potential(cfg: dict, out: str | None) -> int:
    import numpy as np

    from . import pipeline
    from .fields import interior_grid
    from .potentials import _v0_vec
    from .seeds import _sample_window
    cons = _construct(cfg)
    lo, hi = _sample_window(cons.pair)
    grid = interior_grid(lo, hi, cfg["npoints"])
    field = pipeline.field_factory(cons)(grid)
    values = np.asarray(field.values, dtype=complex)
    v0 = _v0_vec(cons.spec, grid)
    _emit(_csv_text("x,re_v,im_v,v0",
                    (grid, values.real, values.imag, v0)), out)
    return 0


def _cmd_states(cfg: dict, out: str | None) -> int:
    from . import oracle, pipeline
    from .fields import interior_grid
    from .seeds import _sample_window
    if out is None:
        raise ConfigError("states needs --out BASENAME for the per-state CSV files")
    cons = _construct(cfg)
    lo, hi = _sample_window(cons.pair)
    grid = interior_grid(lo, hi, cfg["npoints"])
    states = pipeline.build_states(cons, grid, cfg["nstates"])
    summary = []
    for k, st in enumerate(states):
        _emit(_csv_text("x,re_psi,im_psi",
                        (st.x, st.samples.real, st.samples.imag)),
              f"{out}_psi{k}.csv")
        inter = oracle.interlacing_check(st)
        summary.append({
            "index": k,
            "energy": st.energy,
            "provenance": st.provenance,
            "binorm": pipeline._complex_pair(st.binorm),
            "zero_binorm": st.zero_binorm,
            "interlacing": inter.ok,
            "interlacing_note": inter.note,
            "re_zeros": len(inter.re_zeros),
            "im_zeros": len(inter.im_zeros),
        })
    payload = {"config": _echo(cfg, cons), "states": summary}
    _emit(_json_text(payload), f"{out}_summary.json")
    sys.stdout.write(_json_text(payload))
    return 0


def _cmd_verify(cfg: dict, out: str | None) -> int:
    from . import pipeline
    cons = _construct(cfg)
    report = pipeline.verification_suite(
        cons, cfg["nstates"], n_fine=cfg["npoints"],
        n_coarse=cfg["npoints"] // 2)
    payload = {"config": _echo(cfg, cons), "report": report}
    _emit(_json_text(payload), out)
    return 0 if report["passed"] else 1


def _dispatch(args) -> int:
    cfg = _resolve(args)
    command = args.command
    if command == "figure":
        command = "states" if args.id in _STATE_FIGURES else "potential"
    _validate(cfg, command)
    handler = {
        "spectrum": _cmd_spectrum,
        "potential": _cmd_potential,
        "states": _cmd_states,
        "verify": _cmd_verify,
    }[command]
    return handler(cfg, args.out)


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    from .seeds import SeedBackendError
    try:
        return _dispatch(args)
    except (ConfigError, ValueError, SeedBackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
