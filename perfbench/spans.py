"""In-memory spans around the package's cross-module entry points.

A ``Tracer`` replaces, for the duration of a traced call, each function one
module of ``darboux_lab`` looks up in another (``seeds._kummer_vec``,
``darboux.adaptive_simpson``, ``pipeline.richardson_spectrum``, ...) with a
wrapper that records a span: name, parent span, request (config) id, start
and end. Counters that belong to a boundary (points per call, series terms,
matrix sizes) are taken at the same place. Nothing in the package changes:
``install`` patches attributes from here and ``uninstall`` puts the
originals back.

Self time of a span is its duration minus the part of it that its child
spans cover (``self_times``).
"""

from __future__ import annotations

import dataclasses
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# per-layer metric names in report order; (name, unit)
LAYER_METRICS = (
    ("quadrature.adaptive_simpson.calls", "count"),
    ("quadrature.adaptive_simpson.integrand_calls", "count"),
    ("quadrature.adaptive_simpson.s", "s"),
    ("quadrature.adaptive_simpson.self_s", "s"),
    ("specfun.series.calls", "count"),
    ("specfun.series.points", "count"),
    ("specfun.series.points_per_call", "ratio"),
    ("specfun.series.term_points", "count"),
    ("specfun.series.s", "s"),
    ("specfun.series.self_s", "s"),
    ("seeds.eval.calls", "count"),
    ("seeds.eval.points", "count"),
    ("seeds.eval.points_per_call", "ratio"),
    ("seeds.eval.s", "s"),
    ("seeds.analytic_pair.s", "s"),
    ("seeds.numeric_pair.s", "s"),
    ("seeds.fallbacks", "count"),
    ("potentials.v0.calls", "count"),
    ("potentials.v0.points_per_call", "ratio"),
    ("potentials.v0.s", "s"),
    ("potentials.bound_state.calls", "count"),
    ("potentials.bound_state.s", "s"),
    ("ermakov.q_parts.calls", "count"),
    ("ermakov.q_parts.points_per_call", "ratio"),
    ("ermakov.q_parts.self_s", "s"),
    ("ermakov.j_scan.s", "s"),
) + tuple(
    (f"darboux.{op}.{field}", unit)
    for op in ("zero_total_area", "complex_potential", "transform_bound_state",
               "missing_state", "real_family_lambda0")
    for field, unit in (("calls", "count"), ("s", "s"))
) + (
    ("oracle.build_fd.s", "s"),
    ("oracle.eig.calls", "count"),
    ("oracle.eig.s", "s"),
    ("oracle.eig.dim_max", "count"),
    ("oracle.eig.dim_sum", "count"),
    ("oracle.eig.matrix_bytes", "B"),
    ("oracle.schrodinger_residual.calls", "count"),
    ("oracle.schrodinger_residual.s", "s"),
    ("pipeline.build_construction.s", "s"),
    ("pipeline.verification_suite.self_s", "s"),
    ("pipeline.richardson_spectrum.s", "s"),
    ("pipeline.embedded_spectrum.s", "s"),
    ("pipeline.state_ladder.rungs", "count"),
    ("pipeline.state_ladder.max_points", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
)

# counters that hold a maximum, not a running total
_PEAKS = ("oracle.eig.dim_max", "pipeline.state_ladder.max_points")


def self_times(start, end, parent) -> list:
    """Duration minus child cover, for every span.

    ``parent[i]`` is the index of span i's parent or -1. The cover is the
    union of the children's intervals clipped to the parent's, so children
    that overlap each other are not counted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, hi)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Span and counter store for one traced run, plus the patch table."""

    def __init__(self):
        self.names: list = []
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = defaultdict(float)
        self.request_id = -1
        self._stack: list = []
        self._patches: list = []
        self.missing: set = set()
        self._mark = 0
        self._mark_counters: dict = {}

    # ------------------------------------------------------------ recording

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self._stack[-1]] if self._stack else None

    def wrap(self, name: str, fn, count=None):
        """fn with a span around every call; count(args, result) after it."""
        def traced(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if count is not None:
                count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, make) -> None:
        """owner.attr = make(owner.attr); a name the code no longer has is
        listed in ``missing`` and its metrics read zero."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr: str, name: str, count=None) -> None:
        self._patch(owner, attr, lambda fn: self.wrap(name, fn, count))

    def install(self) -> None:
        """Wrap every boundary where the calling module looks the name up."""
        from darboux_lab import darboux, ermakov, oracle, pipeline, potentials, seeds
        from darboux_lab.seeds import SeedBackendError
        if self._patches:
            raise RuntimeError("tracer already installed")
        c = self.counters

        def points(layer, pos):
            def count(args, out):
                c[layer + ".points"] += np.size(args[pos])
            return count

        # quadrature, at every lookup site, with the integrand calls counted
        def quad(fn):
            def adaptive_simpson(f, *args, **kwargs):
                def integrand(t):
                    c["quadrature.adaptive_simpson.integrand_calls"] += 1
                    return f(t)
                return fn(integrand, *args, **kwargs)
            return self.wrap("quadrature.adaptive_simpson", adaptive_simpson)

        for mod in (darboux, potentials, seeds):
            self._patch(mod, "adaptive_simpson", quad)

        # specfun series; term_points from the term counts
        def series(pos, terms):
            def count(args, out):
                n = np.size(args[pos])
                c["specfun.series.points"] += n
                c["specfun.series.term_points"] += terms(args, out) * n
            return count

        # _kummer_vec and _gauss_vec return (values, terms_used, converged);
        # the Laguerre recurrence returns no count, and a degree-n
        # polynomial has n + 1 terms
        self._span(seeds, "_kummer_vec", "specfun.series",
                   series(2, lambda args, out: out[1]))
        self._span(seeds, "_gauss_vec", "specfun.series",
                   series(3, lambda args, out: out[1]))
        self._span(potentials, "_laguerre_vec", "specfun.series",
                   series(2, lambda args, out: int(args[0]) + 1))

        # seeds: pair construction, fallbacks, and the pair's evaluators
        def wrap_pair(pair):
            return dataclasses.replace(
                pair,
                up=self.wrap("seeds.eval", pair.up, points("seeds.eval", 0)),
                v=self.wrap("seeds.eval", pair.v, points("seeds.eval", 0)))

        def analytic(fn):
            def analytic_pair(*args, **kwargs):
                try:
                    return wrap_pair(self.call("seeds.analytic_pair", fn, args, kwargs))
                except SeedBackendError:
                    c["seeds.fallbacks"] += 1
                    raise
            return analytic_pair

        def numeric(fn):
            def numeric_pair(*args, **kwargs):
                return wrap_pair(self.call("seeds.numeric_pair", fn, args, kwargs))
            return numeric_pair

        self._patch(pipeline, "analytic_pair", analytic)
        self._patch(pipeline, "numeric_pair", numeric)

        # potentials
        for mod in (seeds, ermakov, darboux, pipeline, oracle, potentials):
            self._span(mod, "_v0_vec", "potentials.v0", points("potentials.v0", 1))
        self._span(darboux, "_bound_state_with_derivative", "potentials.bound_state")

        # ermakov
        self._span(ermakov.AlphaFunction, "q_parts", "ermakov.q_parts",
                   points("ermakov.q_parts", 1))
        self._span(pipeline, "invariant_j_scan", "ermakov.j_scan")

        # darboux, as pipeline calls it through the module
        for op in ("zero_total_area", "complex_potential", "transform_bound_state",
                   "missing_state", "real_family_lambda0"):
            self._span(darboux, op, "darboux." + op)

        # oracle; matrix_bytes is computed (n^2 x itemsize of the dense copy)
        def eig_count(args, out):
            ham = args[0]
            n = int(ham.diag.size)
            c["oracle.eig.dim_max"] = max(c["oracle.eig.dim_max"], n)
            c["oracle.eig.dim_sum"] += n
            c["oracle.eig.matrix_bytes"] += n * n * (8 if ham.is_real else 16)

        self._span(oracle, "build_fd", "oracle.build_fd")
        self._span(oracle, "eig_complex", "oracle.eig", eig_count)
        self._span(oracle, "schrodinger_residual", "oracle.schrodinger_residual")

        # pipeline: cli looks these up on the module, and so does the
        # module itself, so one patch covers both callers
        def ladder(args, out):
            if self.current() == "pipeline.verification_suite":
                c["pipeline.state_ladder.rungs"] += 1
                c["pipeline.state_ladder.max_points"] = max(
                    c["pipeline.state_ladder.max_points"], np.size(args[1]))

        for op in ("build_construction", "verification_suite",
                   "richardson_spectrum", "embedded_spectrum"):
            self._span(pipeline, op, "pipeline." + op)
        self._span(pipeline, "build_states", "pipeline.build_states", ladder)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def main(self, argv, request_id: int):
        """cli.main(argv) as the root span of request ``request_id``, with
        the boundaries wrapped for its duration only."""
        from darboux_lab import cli
        self.request_id = request_id
        self.install()
        try:
            return self.call("cli.main", cli.main, (argv,), {})
        finally:
            self.uninstall()

    # ------------------------------------------------------------ reporting

    def mark(self) -> None:
        """Start a new reporting window (one pass)."""
        for key in _PEAKS:
            self.counters[key] = 0.0
        self._mark = len(self.names)
        self._mark_counters = dict(self.counters)

    def window_metrics(self) -> dict:
        """Per-layer metrics over the spans and counters since ``mark``."""
        lo = self._mark
        names = self.names[lo:]
        start = self.start[lo:]
        end = self.end[lo:]
        parent = [p - lo if p >= lo else -1 for p in self.parent[lo:]]
        selfs = self_times(start, end, parent)
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, name in enumerate(names):
            calls[name] += 1
            own[name] += selfs[i]
            # inclusive time counts only the outermost span of a name
            p = parent[i]
            while p >= 0 and names[p] != name:
                p = parent[p]
            if p < 0:
                total[name] += end[i] - start[i]
        counts = {k: v if k in _PEAKS else v - self._mark_counters.get(k, 0.0)
                  for k, v in self.counters.items()}
        out = {}
        for metric, unit in LAYER_METRICS:
            layer, field = metric.rsplit(".", 1)
            if field == "calls":
                value = calls.get(layer, 0)
            elif field == "s":
                value = total.get(layer, 0.0)
            elif field == "self_s":
                value = own.get(layer, 0.0)
            elif field == "points_per_call":
                n = calls.get(layer, 0)
                value = counts.get(layer + ".points", 0.0) / n if n else 0.0
            else:
                value = counts.get(metric, 0.0)
            out[metric] = int(value) if unit in ("count", "B") else value
        return out

    def write(self, path, requests) -> None:
        """Every span as a tab-separated row; requests maps id -> config name."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\trequest\tconfig\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                r = self.request[i]
                fh.write(f"{i}\t{self.parent[i]}\t{r}\t{requests.get(r, '')}\t"
                         f"{name}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def median_metrics(windows: list) -> dict:
    """Per-metric median over passes."""
    return {k: statistics.median(w[k] for w in windows) for k in windows[0]}
