"""Per-layer tracing of finlap from outside the library.

Each traced public function is rebound, in every ``finlap.*`` module that
holds it, to a wrapper that records one span per call: name, start, end,
parent span and a size taken from the call's arguments.  Modules use
``from .hilbert import reeb_profile``, so rebinding only the defining
module would miss most calls.  The ``verify`` suites are reached through
the ``SUITES`` dict, so its entries are wrapped in place.

Spans stay in memory, one list per job, and are written out when the run
ends.  A span's self time is its duration minus the durations of its
direct children; calls are nested on one thread, so children never
overlap.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import statistics
import sys
import time

import numpy as np
import scipy.sparse as sp

import finlap
from finlap import measures, spectral, verify
from workloads import variable_randers


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rays(args, kwargs):
    v = np.asarray(_arg(args, kwargs, 2, "v"))
    return int(v.shape[0]) if v.ndim == 2 else 1


def _angles(name):
    def size(args, kwargs):
        return int(np.size(_arg(args, kwargs, 2, name)))
    return size


def _nodes(args, kwargs):
    return int(_arg(args, kwargs, 2, "n", measures.DEFAULT_FIBER_N))


def _dim(args, kwargs):
    return int(_arg(args, kwargs, 0, "problem").dim)


def _written_bytes(args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _solver_label(args, kwargs):
    problem = _arg(args, kwargs, 0, "problem")
    method = _arg(args, kwargs, 2, "method", "auto")
    if method == "auto":
        method = "jacobi" if problem.dim <= spectral.JACOBI_MAX_DENSE else "lanczos"
    return f"spectral.solve_eigen.{method}"


# (defining module, function, span name, size of one call from its arguments)
TRACED = [
    ("metrics", "vertical_derivative", "metrics.vertical_derivative", _rays),
    ("metrics", "indicatrix_point", "metrics.indicatrix_point", _angles("phi")),
    ("hilbert", "reeb_profile", "hilbert.reeb_profile", _angles("phis")),
    ("hilbert", "density_profile", "hilbert.density_profile", _angles("phis")),
    ("hilbert", "geodesic_integrate", "hilbert.geodesic_integrate", None),
    ("measures", "fiber_quadrature", "measures.fiber_quadrature", _nodes),
    ("measures", "volume_density", "measures.volume_density", _nodes),
    ("measures", "fiber_quadrature_adaptive", "measures.fiber_quadrature_adaptive", None),
    ("measures", "volume_density_adaptive", "measures.volume_density_adaptive", None),
    ("measures", "sphere_total_volume", "measures.sphere_total_volume", None),
    ("measures", "dual_norm_sampled", "measures.dual_norm_sampled", None),
    ("measures", "holmes_thompson_density", "measures.holmes_thompson_density", None),
    ("laplace", "operator_coefficients", "laplace.operator_coefficients", None),
    ("laplace", "grid_coefficients", "laplace.grid_coefficients", None),
    ("laplace", "assemble_torus_operator", "laplace.assemble_torus_operator", None),
    ("laplace", "weighted_symmetry_residual", "laplace.weighted_symmetry_residual", None),
    ("katok_ziller", "galerkin_matrices", "katok_ziller.galerkin_matrices", None),
    ("spectral", "assemble_eigenproblem", "spectral.assemble_eigenproblem", None),
    ("spectral", "solve_eigen", _solver_label, _dim),
    ("spectral", "jacobi_eigh", "spectral.jacobi_eigh", None),
    ("spectral", "energy", "spectral.energy", None),
    ("cli", "write_result", "cli.write_result", _written_bytes),
]
# results kept for the pencil diagnostics, computed after the job
KEEP_RESULT = "spectral.assemble_eigenproblem"
ADAPTIVE = ("measures.fiber_quadrature_adaptive", "measures.volume_density_adaptive")
FIBER_EVALS = ("measures.fiber_quadrature", "measures.volume_density")

# layers whose self time is reported, and (layer, count) pairs
SELF_S = [
    "metrics.vertical_derivative", "metrics.indicatrix_point",
    "hilbert.reeb_profile", "hilbert.density_profile", "hilbert.geodesic_integrate",
    "measures.sphere_total_volume", "measures.dual_norm_sampled",
    "measures.holmes_thompson_density",
    "laplace.operator_coefficients", "laplace.grid_coefficients",
    "laplace.assemble_torus_operator", "laplace.weighted_symmetry_residual",
    "katok_ziller.galerkin_matrices",
    "spectral.assemble_eigenproblem", "spectral.solve_eigen.jacobi",
    "spectral.solve_eigen.lanczos", "spectral.jacobi_eigh", "spectral.energy",
] + [f"verify.{suite}" for suite in verify.SUITES] + ["cli.write_result"]
COUNTS = [
    ("metrics.vertical_derivative", "calls"), ("metrics.vertical_derivative", "rays"),
    ("metrics.indicatrix_point", "calls"),
    ("hilbert.reeb_profile", "calls"), ("hilbert.reeb_profile", "angles"),
    ("hilbert.density_profile", "calls"), ("hilbert.density_profile", "angles"),
    ("measures.fiber_quadrature", "calls"), ("measures.fiber_quadrature", "nodes"),
    ("measures.volume_density", "nodes"),
    ("laplace.operator_coefficients", "calls"),
    ("katok_ziller.galerkin_matrices", "calls"),
    ("cli.write_result", "bytes"),
]


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for layer, what in COUNTS:
        out.append((f"{layer}.{what}", "B" if what == "bytes" else "count", "lower"))
    out += [
        ("measures.adaptive.useful_share", "ratio", "higher"),
        ("spectral.dim", "count", "lower"),
        ("spectral.sym_defect", "ratio", "lower"),
        ("spectral.zero_mode_residual", "ratio", "lower"),
    ]
    out += [(f"{layer}.self_s", "s", "lower") for layer in SELF_S]
    out += [("trace.job_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


class Tracer:
    """Wraps the traced functions while installed; one span list per job."""

    def __init__(self):
        self.jobs = []          # per job: list of (name, start, end, parent, size)
        self.problems = []      # per job: SpectralProblems returned by assembly
        self._spans = None
        self._stack = []
        self._patched = []      # (namespace, key, original), restored in reverse

    def _wrap(self, name, fn, size):
        keep = name == KEEP_RESULT

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            spans = self._spans
            idx = len(spans)
            spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                spans[idx] = (label, t0, t1, parent, size(args, kwargs) if size else 0)
            if keep:
                self.problems[-1].append(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _rebind(self, namespace, key, value):
        self._patched.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "finlap" or k.startswith("finlap."))]
        for mod_name, fn_name, span_name, size in TRACED:
            original = getattr(importlib.import_module(f"finlap.{mod_name}"), fn_name)
            wrapper = self._wrap(span_name, original, size)
            for mod in modules:
                ns = vars(mod)
                for key, value in list(ns.items()):
                    if value is original:
                        self._rebind(ns, key, wrapper)
        for suite, fn in list(verify.SUITES.items()):
            self._rebind(verify.SUITES, suite, self._wrap(f"verify.{suite}", fn, None))

    def uninstall(self):
        while self._patched:
            namespace, key, original = self._patched.pop()
            namespace[key] = original

    def begin_job(self):
        if self._stack:
            raise RuntimeError("a traced call is still open")
        self._spans = []
        self.jobs.append(self._spans)
        self.problems.append([])

    def write(self, path, env):
        """All spans as gzip JSON lines, after one line with the environment."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"env": env, "fields": ["job", "name", "start", "end",
                                                        "parent", "size"]}) + "\n")
            for j, spans in enumerate(self.jobs):
                for name, t0, t1, parent, n in spans:
                    fh.write(f'[{j},"{name}",{t0!r},{t1!r},{parent},{n}]\n')


def summarize(spans):
    """name -> {"calls", "size", "self_s"} over one job's spans."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, n in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg = {}
    for i, (name, t0, t1, parent, n) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "size": 0, "self_s": 0.0})
        a["calls"] += 1
        a["size"] += n
        a["self_s"] += (t1 - t0) - child[i]
    return agg


def useful_share(spans):
    """Final fiber node count over all nodes evaluated, summed over the
    adaptive calls; 0.0 when the job makes no adaptive call."""
    last, total = {}, {}
    for name, t0, t1, parent, n in spans:
        if name in FIBER_EVALS and parent >= 0 and spans[parent][0] in ADAPTIVE:
            last[parent] = n
            total[parent] = total.get(parent, 0) + n
    evaluated = sum(total.values())
    return sum(last.values()) / evaluated if evaluated else 0.0


def zero_mode_residual(problem):
    """||S 1||_inf / max|S| for a torus grid pencil, else None."""
    if not isinstance(problem.basis, spectral.TorusGridBasis):
        return None
    S = problem.stiffness
    scale = np.abs(S.data).max() if sp.issparse(S) else np.abs(S).max()
    return float(np.abs(S @ np.ones(problem.dim)).max() / scale)


def layer_metrics(tracer, job_s_untraced, job_s_traced):
    """Per-layer metrics: counts and diagnostics from the first traced job,
    which repeat exactly for a seed; self times as medians per job."""
    per_job = [summarize(spans) for spans in tracer.jobs]
    first, spans0, problems0 = per_job[0], tracer.jobs[0], tracer.problems[0]
    values = {}
    for layer, what in COUNTS:
        a = first.get(layer, {"calls": 0, "size": 0})
        values[f"{layer}.{what}"] = a["calls"] if what == "calls" else a["size"]
    values["measures.adaptive.useful_share"] = useful_share(spans0)
    values["spectral.dim"] = max((n for name, _, _, _, n in spans0
                                  if name.startswith("spectral.solve_eigen.")), default=0)
    values["spectral.sym_defect"] = max((p.sym_defect for p in problems0), default=0.0)
    residuals = [r for r in map(zero_mode_residual, problems0) if r is not None]
    values["spectral.zero_mode_residual"] = max(residuals, default=0.0)
    for layer in SELF_S:
        values[f"{layer}.self_s"] = statistics.median(
            agg.get(layer, {"self_s": 0.0})["self_s"] for agg in per_job)
    values["trace.job_s"] = job_s_traced
    values["trace.overhead_s"] = job_s_traced - job_s_untraced
    return values


def structure_check(fiber_n=measures.DEFAULT_FIBER_N):
    """One operator_coefficients call on a position-dependent torus metric
    must make 7 reeb_profile calls, 1 density_profile call and 52
    vertical_derivative calls of fiber_n rays each.  Returns (ok, detail)."""
    metric = variable_randers(0.0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_job()
        finlap.operator_coefficients(metric, finlap.ChartPoint(finlap.TORUS, 0.3, 0.7), fiber_n)
    finally:
        tracer.uninstall()
    agg = summarize(tracer.jobs[0])
    got = {k: agg.get(k, {"calls": 0})["calls"] for k in
           ("hilbert.reeb_profile", "hilbert.density_profile", "metrics.vertical_derivative")}
    rays = {n for name, _, _, _, n in tracer.jobs[0] if name == "metrics.vertical_derivative"}
    ok = (got == {"hilbert.reeb_profile": 7, "hilbert.density_profile": 1,
                  "metrics.vertical_derivative": 52} and rays == {fiber_n})
    return ok, f"calls {got}, rays per vertical_derivative call {sorted(rays)}"
