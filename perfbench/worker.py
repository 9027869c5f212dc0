"""One benchmark run in a fresh process: set-up, closed loop, checks.

``run.py`` starts this script once per run (plus a few set-up-only copies),
with the thread pin already in the environment so it holds from the first
numpy import. The script imports the package, numpy and scipy, generates
the workload's configs, and then acts as one closed-loop client: it calls
``darboux_lab.cli.main(argv)`` on each config in turn, the next only after
the previous returned, and repeats whole passes while the next pass still
fits in ``--seconds``. Every output is checked after its timed call.

With ``--trace 1`` each config runs twice per pass, once plain and once
under the span tracer (alternating which goes first), so the pass gives both
the per-layer metrics and the tracing overhead.

The result is written as JSON to ``--result``; ``run.py`` turns it into
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes

    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "DARBOUX_LAB_THREADS": os.environ.get("DARBOUX_LAB_THREADS"),
    }


class Client:
    """Closed-loop client: runs configs one at a time and checks each output."""

    def __init__(self, workload: str, configs: list, scratch: Path, tracer=None):
        from darboux_lab import cli

        import check
        self.cli = cli
        self.check = check
        self.workload = workload
        self.configs = configs
        self.scratch = scratch
        self.tracer = tracer
        self.reference = {}
        if workload == "figure_export":
            self.reference = json.loads((HERE / "reference.json").read_text())
        self.digests: dict = {}
        self.requests: dict = {}

    def _argv(self, cfg: dict) -> list:
        return [a.replace("{out}", str(self.scratch)) for a in cfg["argv"]]

    def _files(self, cfg: dict) -> list:
        if "states" not in cfg:
            return []
        return self.check.figure_files(self.scratch, cfg["name"], cfg["states"])

    def one(self, cfg: dict, traced: bool = False) -> dict:
        for path in self._files(cfg):
            path.unlink(missing_ok=True)
        argv = self._argv(cfg)
        out, err = io.StringIO(), io.StringIO()
        error = None
        request = len(self.requests)
        self.requests[request] = cfg["name"]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if traced:
                    rc = self.tracer.main(argv, request)
                else:
                    rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught exception is a result, not a crash
            rc = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        record = {"name": cfg["name"], "traced": traced, "rc": rc,
                  "seconds": seconds}
        record.update(self._judge(cfg, rc, out.getvalue(), err.getvalue(), error,
                                  traced))
        return record

    def _judge(self, cfg, rc, text, errtext, error, traced) -> dict:
        blob = hashlib.sha256(text.encode())
        nbytes = len(text.encode())
        for path in self._files(cfg):
            if path.is_file():
                data = path.read_bytes()
                blob.update(path.name.encode() + data)
                nbytes += len(data)
        if traced:
            self.tracer.counters["cli.bytes_written"] += nbytes
        digest = blob.hexdigest()
        seen = self.digests.get(cfg["name"])
        if seen is not None and seen["digest"] == digest and rc == seen["rc"]:
            return {"problems": seen["problems"], "quality": seen["quality"]}
        quality = {}
        if rc is None:
            problems = ["uncaught exception: " + error.strip().splitlines()[-1]]
        elif "states" in cfg:
            problems = self.check.check_figure(rc, text, self.scratch, cfg,
                                               self.reference)
        else:
            problems, quality = self.check.check_report(cfg["argv"][0], rc, text)
        if rc == 2:
            problems.append("exit 2: " + errtext.strip())
        if self.workload == "verify_presets" and rc != 0:
            problems.append(f"verdict changed: exit {rc}, seed commit exits 0")
        if seen is not None:
            problems.append("output differs from an earlier run of this config")
        self.digests[cfg["name"]] = {"digest": digest, "rc": rc,
                                     "problems": problems, "quality": quality}
        return {"problems": problems, "quality": quality}

    def run(self, seconds: float) -> list:
        """Whole passes while the next one (as long as the last) still fits."""
        begin = time.perf_counter()
        passes = []
        while True:
            p0 = time.perf_counter()
            if self.tracer is not None:
                self.tracer.mark()
            records = []
            for i, cfg in enumerate(self.configs):
                if self.tracer is None:
                    records.append(self.one(cfg))
                    continue
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    records.append(self.one(cfg, traced))
            layers = self.tracer.window_metrics() if self.tracer is not None else None
            passes.append({"records": records, "layers": layers})
            now = time.perf_counter()
            if (now - begin) + (now - p0) > seconds:
                return passes


def _median(values):
    return statistics.median(values) if values else None


def summarize(passes: list) -> tuple[dict, int, int]:
    """(metrics, attempted, failed); end-to-end metrics except set-up come
    from the untraced records, per-layer ones from the traced spans."""
    walls, slowest = [], []
    by_config: dict = {}
    records = [r for p in passes for r in p["records"]]
    for p in passes:
        plain = [r for r in p["records"] if not r["traced"]]
        walls.append(sum(r["seconds"] for r in plain))
        slowest.append(max(r["seconds"] for r in plain))
        for r in plain:
            by_config.setdefault(r["name"], []).append(r["seconds"])
    attempted = len(records)
    errors = sum(1 for r in records if r["rc"] in (None, 2) or r["problems"])
    quality = [r["quality"] for r in records if r["quality"]]
    metrics = {
        "wall_s": _median(walls),
        # median over configs of each config's median over passes
        "config_s_p50": _median([_median(t) for t in by_config.values()]),
        "config_samples": len(by_config),
        "slowest_config_s": _median(slowest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": sum(1 for r in records if r["rc"] == 0) / attempted,
        "error_ratio": errors / attempted,
        "worst_error_to_tol": max((q["error_to_tol"] for q in quality), default=None),
        "worst_imag_to_tol": max((q["imag_to_tol"] for q in quality), default=None),
        "passes": len(passes),
    }
    if passes[0]["layers"] is not None:
        import spans
        layers = spans.median_metrics([p["layers"] for p in passes])
        traced = [sum(r["seconds"] for r in p["records"] if r["traced"]) for p in passes]
        over = _median([t - w for t, w in zip(traced, walls)])
        layers["trace.overhead_s"] = over
        layers["trace.overhead_share"] = over / _median(walls)
        metrics["layers"] = layers
    return metrics, attempted, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: everything a run needs before its first timed call
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from darboux_lab import cli, pipeline  # noqa: F401  (loads every module)

    import workloads
    configs = workloads.make(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    try:
        client = Client(args.workload, configs, scratch, tracer)
        passes = client.run(args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics, attempted, errors = summarize(passes)
    spans_file = None
    if tracer is not None:
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_file, client.requests)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ready": ready, "environment": environment(),
        "configs": configs, "attempted": attempted, "failed": errors,
        "metrics": metrics,
        "spans_file": spans_file and str(spans_file.relative_to(ROOT)),
        "untraced_boundaries": sorted(tracer.missing) if tracer else [],
        "records": [dict(r, pass_index=k) for k, p in enumerate(passes)
                    for r in p["records"]],
    }
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
