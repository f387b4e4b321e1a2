"""Call-site instrumentation of platelab for one job at a time.

Nothing in the package changes. For the length of a job the probe
rebinds names in the modules that call them (``platelab.cli.optimize``,
``platelab.optimizer.principal_pair``, ``platelab.plate.solve_dirichlet``
and so on) to wrappers, and restores them afterwards:

- capture wrappers, always on, keep the objects the output checks need
  (the optimal pair and report, the operator, the radial result);
- span wrappers, only in a traced job, record (name, start, end, parent,
  job, attrs) in memory. Spans of one job share its job id; a layer's
  self time is its span minus its child spans.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time
import types

import numpy as np

from platelab import cli, diagnostics, eigensolver, optimizer, plate

# (calling module, name, span) at the call sites the benchmark wraps
SPAN_SITES = (
    (cli, "optimize", "optimizer.optimize"),
    (cli, "radial_optimize", "radial.radial_optimize"),
    (cli, "build_grid", "geometry.build_grid"),
    (optimizer, "build_grid", "geometry.build_grid"),
    (optimizer, "assemble_laplacian", "poisson.assemble"),
    (optimizer, "principal_pair", "eigensolver.principal_pair"),
    (optimizer, "optimal_density", "rearrange.optimal_density"),
    (eigensolver, "solve_navier", "plate.solve_navier"),
    (plate, "solve_dirichlet", "poisson.solve_dirichlet"),
)
CAPTURE_SITES = (
    (cli, "optimize", "optimize"),
    (cli, "radial_optimize", "radial"),
    (optimizer, "assemble_laplacian", "op"),
)
REPORTED_DIAGNOSTICS = (
    "moving_plane_profile",
    "product_check",
    "normal_derivative_stats",
    "structural_checks",
    "asymmetry",
    "monotonicity_violation",
    "rotation_asymmetry",
)


def _grid_attrs(probe, args, kwargs, grid):
    return {"cut_links": int(np.count_nonzero(grid.theta < 1.0))}


def _solve_attrs(probe, args, kwargs, result):
    op = args[0]
    first = op.has_cut and id(op) not in probe._ops
    probe._ops[id(op)] = op  # held for the job, so ids are not reused
    return {"n": op.n, "cut": op.has_cut, "factorize": first}


def _eigen_attrs(probe, args, kwargs, result):
    return {"its": result.iterations, "cold": kwargs.get("u0") is None}


def _optimize_attrs(probe, args, kwargs, result):
    report = result[1]
    thetas = list(report.restart_thetas)
    return {"outer": report.outer_iterations, "winner": thetas.index(min(thetas))}


def _radial_attrs(probe, args, kwargs, result):
    return {"outer": result.outer_iterations}


ATTRS = {
    "geometry.build_grid": _grid_attrs,
    "poisson.solve_dirichlet": _solve_attrs,
    "eigensolver.principal_pair": _eigen_attrs,
    "optimizer.optimize": _optimize_attrs,
    "radial.radial_optimize": _radial_attrs,
}


class Probe:
    def __init__(self):
        self.spans = []  # (name, start, end, parent, job, attrs)
        self.job_id = -1
        self.captured = {}
        self._tracing = False
        self._stack = []
        self._ops = {}

    @contextlib.contextmanager
    def job(self, trace):
        """Instrument the package for one job; yields the capture dict."""
        self.captured = {}
        self._tracing = trace
        if trace:
            self.job_id += 1
        restore = []
        try:
            for module, name, key in CAPTURE_SITES:
                self._patch(restore, module, name, None, key)
            if trace:
                for module, name, span in SPAN_SITES:
                    self._patch(restore, module, name, span, None)
                self._patch_diagnostics(restore)
            yield self.captured
        finally:
            for module, name, original in reversed(restore):
                setattr(module, name, original)
            self._tracing = False
            self._ops = {}

    def call(self, span, fn, *args, **kwargs):
        """Call ``fn`` from the benchmark's own code, as a span when tracing."""
        if not self._tracing:
            return fn(*args, **kwargs)
        return self._timed(span, fn, args, kwargs)

    def job_count(self, name):
        return sum(1 for s in self.spans if s[4] == self.job_id and s[0] == name)

    def _patch(self, restore, module, name, span, key):
        original = getattr(module, name)
        restore.append((module, name, original))
        setattr(module, name, self._wrap(original, span, key))

    def _patch_diagnostics(self, restore):
        """The CLI reaches the instruments through its ``diagnostics`` name:
        swap it for a copy of the module whose functions are spans."""
        proxy = types.SimpleNamespace(**vars(diagnostics))
        for k, fn in inspect.getmembers(diagnostics, inspect.isfunction):
            if fn.__module__ == diagnostics.__name__:
                setattr(proxy, k, self._wrap(fn, "diagnostics." + k, None))
        restore.append((cli, "diagnostics", cli.diagnostics))
        cli.diagnostics = proxy

    def _wrap(self, fn, span, key):
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                result = self._timed(span, fn, args, kwargs)
            if key is not None:
                self.captured[key] = result
            return result

        return wrapper

    def _timed(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.job_id, None)
        attrs = ATTRS.get(name)
        if attrs is not None:
            self.spans[sid] = (name, t0, t1, parent, self.job_id, attrs(self, args, kwargs, result))
        return result


def layer_metrics(spans, n_jobs, overhead_frac):
    """Per-layer metrics from the spans of ``n_jobs`` traced jobs.

    Times and counts are per job; ``poisson.solve.ms_p50`` is the median of
    the solves that did not factorize.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total, own, calls = {}, {}, {}
    for sid, (name, t0, t1, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (t1 - t0)
        own[name] = own.get(name, 0.0) + (t1 - t0 - child[sid])
        calls[name] = calls.get(name, 0) + 1

    # spans of calls that raised carry no attrs
    def attr_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    def per_job(x):
        return x / n_jobs

    solves = [s for s in spans if s[0] == "poisson.solve_dirichlet" and s[5]]
    plain = [1e3 * (s[2] - s[1]) for s in solves if not s[5]["factorize"]]
    m = {
        "geometry.build_grid.s": ("s", per_job(total.get("geometry.build_grid", 0.0))),
        "geometry.cut_links": ("count", per_job(attr_sum("geometry.build_grid", "cut_links"))),
        "poisson.assemble.s": ("s", per_job(total.get("poisson.assemble", 0.0))),
        "poisson.factorize.s": ("s", per_job(sum(s[2] - s[1] for s in solves if s[5]["factorize"]))),
        "poisson.solve.calls": ("count", per_job(len(solves))),
        "poisson.solve.ms_p50": ("ms", statistics.median(plain) if plain else 0.0),
        "poisson.cg_solves": ("count", per_job(sum(1 for s in solves if not s[5]["cut"]))),
        "poisson.lu_solves": ("count", per_job(sum(1 for s in solves if s[5]["cut"]))),
        "poisson.unknowns": ("count", statistics.median(s[5]["n"] for s in solves) if solves else 0),
        "plate.solve_navier.calls": ("count", per_job(calls.get("plate.solve_navier", 0))),
        "eigensolver.principal_pair.calls": (
            "count", per_job(calls.get("eigensolver.principal_pair", 0))),
        "eigensolver.iterations": ("count", per_job(attr_sum("eigensolver.principal_pair", "its"))),
        "eigensolver.self_s": ("s", per_job(own.get("eigensolver.principal_pair", 0.0))),
        "rearrange.optimal_density.calls": (
            "count", per_job(calls.get("rearrange.optimal_density", 0))),
        "rearrange.optimal_density.s": ("s", per_job(total.get("rearrange.optimal_density", 0.0))),
        "optimizer.outer_iterations": ("count", per_job(attr_sum("optimizer.optimize", "outer"))),
        "optimizer.self_s": ("s", per_job(own.get("optimizer.optimize", 0.0))),
        "optimizer.restart_waste": ("1", restart_waste(spans)),
        "radial.radial_optimize.s": ("s", per_job(total.get("radial.radial_optimize", 0.0))),
        "radial.outer_iterations": ("count", per_job(attr_sum("radial.radial_optimize", "outer"))),
    }
    for k in REPORTED_DIAGNOSTICS:
        m["diagnostics.%s.s" % k] = ("s", per_job(total.get("diagnostics." + k, 0.0)))
    m["cli.self_s"] = ("s", per_job(own.get("cli.main", 0.0)))
    m["trace.overhead_frac"] = ("1", overhead_frac)
    return m


def restart_waste(spans):
    """Share of eigen-iterations spent in starts that did not win.

    A start begins at each cold (``u0=None``) ``principal_pair`` call
    under an ``optimize`` span; the winner is the first start with the
    smallest theta, as ``optimize`` picks it.
    """
    starts = {}  # optimize span id -> iterations per start
    for name, _, _, parent, _, attrs in spans:
        if name == "eigensolver.principal_pair" and attrs:
            per_start = starts.setdefault(parent, [])
            if attrs["cold"] or not per_start:
                per_start.append(0)
            per_start[-1] += attrs["its"]
    wasted = total = 0
    for parent, per_start in starts.items():
        winner = spans[parent][5]["winner"] if parent >= 0 and spans[parent][5] else 0
        total += sum(per_start)
        wasted += sum(per_start) - per_start[winner]
    return wasted / total if total else 0.0
