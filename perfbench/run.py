"""darboux-lab benchmark: time the CLI end to end and each module on its own.

    python3 perfbench/run.py --workload verify_presets --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each run starts fresh worker processes
(``worker.py``) with ``DARBOUX_LAB_THREADS`` pinned, measures the set-up of
several of them, lets the last one run the workload as a closed loop for
``--seconds``, and prints every metric by name with its unit. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics that ``BENCHMARK.json`` names (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``). Full results, including the configs used and
every per-config record, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# BLAS threads per process; no larger than the 2 cores of the reference box
THREAD_PIN = "1"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up samples per run: this many fresh processes, the last one measures
SETUPS = 5
# every run must end within 180 s
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "config_s_p50": "s", "slowest_config_s": "s",
    "peak_rss_mb": "MB", "pass_ratio": "ratio", "error_ratio": "ratio",
    "worst_error_to_tol": "ratio", "worst_imag_to_tol": "ratio",
}


class BenchError(Exception):
    """The run could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # the package applies DARBOUX_LAB_THREADS inside cli.main, after the
    # worker has imported numpy; exporting the same value to the pools'
    # own variables makes the pin hold from the first import
    env["DARBOUX_LAB_THREADS"] = THREAD_PIN
    for var in _BLAS_VARS:
        env[var] = THREAD_PIN
    return env


def _spawn(args: list, env: dict, timeout: float):
    """Run the worker to completion; (monotonic start, stdout)."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, env=env,
                            cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return started, out


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = _env()
    begin = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUPS - 1):
        started, out = _spawn(base + ["--setup-only"], env, 60.0)
        setups.append(json.loads(out.decode().strip().splitlines()[-1])["ready"] - started)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    remaining = DEADLINE_S - (time.monotonic() - begin)
    started, _ = _spawn(base + ["--seconds", str(seconds), "--trace", str(trace),
                                "--result", str(result_path)], env, remaining)
    result = json.loads(result_path.read_text())
    setups.append(result["ready"] - started)
    result["setup_samples_s"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    result_path.write_text(json.dumps(result, indent=1))
    result["path"] = result_path
    return result


def _declared() -> dict:
    """Metric names and units that BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def report(result: dict, trace: int) -> dict:
    """Print every metric by name and unit; return the declared ones."""
    import spans
    workload = result["workload"]
    m = result["metrics"]
    print(f"# {workload} seed={result['seed']} passes={m['passes']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"env={json.dumps(result['environment'], sort_keys=True)}")
    for rec in result["records"]:
        if rec["problems"]:
            print(f"# FAILED {rec['name']}: {'; '.join(rec['problems'])}")
    values = {}
    if trace:
        units = dict(spans.LAYER_METRICS, **{"trace.overhead_s": "s",
                                             "trace.overhead_share": "ratio"})
        values = {k: (v, units[k]) for k, v in m["layers"].items()}
    else:
        for name, unit in END_TO_END_UNITS.items():
            values[name] = (m[name], unit)
    for name, (value, unit) in values.items():
        note = (f"  (n={m['config_samples']} configs x {m['passes']} passes)"
                if name == "config_s_p50" else "")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload} {name} = {shown} {unit}{note}")
    print(f"# results: {result['path'].relative_to(ROOT)}")
    declared = _declared()["per_layer" if trace else "end_to_end"]
    out = {}
    for name, unit in declared.items():
        if name not in values or values[name][0] is None:
            raise BenchError(f"metric {name} was not measured")
        if values[name][1] != unit:
            raise BenchError(f"metric {name} measured in {values[name][1]}, declared {unit}")
        out[name] = {"value": values[name][0], "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "darboux_lab" / "cli.py").is_file():
        print(f"error: no darboux_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        metrics = report(result, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
