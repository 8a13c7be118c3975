"""Spans around alleewaves' public functions, recorded from outside the package.

``Tracer.install`` wraps each function in ``SPANNED`` and rebinds every name
in the ``alleewaves.*`` modules that refers to it, so calls through
from-imports (``cli.py`` binds ``simulate``, ``write_csv`` and others at
import time) are seen too.  ``sim.step`` and ``algebraic.least_squares`` are
wrapped with counters only: spans per RK4 step would cost more than a step.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass, field

SPANNED = (
    ("exact", "make_spec"), ("exact", "eval_uv_masked"), ("exact", "find_singularities"),
    ("verify", "ode_residual"), ("verify", "pde_residual"), ("verify", "check_G_ode"),
    ("algebraic", "solve_families"),
    ("sim", "simulate"), ("sim", "measure_wave_speed"),
    ("output", "write_csv"), ("output", "write_svg"),
    ("cli", "main"),
)

# an LM start counts as converged when its residual norm is below this
CONVERGED_TOL = 1e-10


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while installed.

    With ``memory=True`` each ``sim.simulate`` span also records its peak
    traced allocation.  tracemalloc slows the integrator about threefold, so
    a run measures memory in a pass of its own and times the others.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = []
        self.op = None
        self.steps = 0
        self.starts = 0
        self.nfev = 0
        self.converged = 0

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    # -- patching ----------------------------------------------------------

    def install(self):
        for mod_name, fn_name in SPANNED:
            mod = sys.modules[f"alleewaves.{mod_name}"]
            self._rebind(getattr(mod, fn_name), self._spanned(mod_name, fn_name,
                                                              getattr(mod, fn_name)))
        sim = sys.modules["alleewaves.sim"]
        self._rebind(sim.step, self._counted_step(sim.step))
        algebraic = sys.modules["alleewaves.algebraic"]
        self._rebind(algebraic.least_squares, self._counted_lsq(algebraic.least_squares))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _rebind(self, orig, wrapper):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "alleewaves" or name.startswith("alleewaves.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _spanned(self, mod_name, fn_name, fn):
        sig = inspect.signature(fn)
        name = f"{mod_name}.{fn_name}"
        after = getattr(self, f"_after_{mod_name}_{fn_name}", None)
        tracer = self

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span_name = name
            if name == "cli.main":
                argv = bound.arguments["argv"] or sys.argv[1:]
                span_name = f"cli.{argv[0]}"
            span = tracer.begin(span_name)
            mark = (tracer.steps, tracer.starts, tracer.nfev, tracer.converged)
            traced_alloc = tracer.memory and name == "sim.simulate"
            if traced_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if traced_alloc:
                    span.attrs["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.end(span)
            if after is not None:
                after(span, bound.arguments, result, mark)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_step(self, fn):
        def step(*args, **kwargs):
            self.steps += 1
            return fn(*args, **kwargs)
        return step

    def _counted_lsq(self, fn):
        import numpy as np

        def least_squares(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.starts += 1
            self.nfev += int(res.nfev)
            self.converged += bool(np.linalg.norm(res.fun) < CONVERGED_TOL)
            return res
        return least_squares

    # -- per-span attributes ----------------------------------------------

    def _after_exact_eval_uv_masked(self, span, args, result, mark):
        ok = result[2]
        span.attrs.update(samples=int(ok.size), masked=int(ok.size - ok.sum()))

    def _after_exact_find_singularities(self, span, args, result, mark):
        span.attrs["poles"] = len(result)

    def _after_verify_ode_residual(self, span, args, result, mark):
        span.attrs.update(samples=int(args["n_samples"]), excluded=int(result.n_excluded))

    def _after_verify_pde_residual(self, span, args, result, mark):
        span.attrs["points"] = int(args["nx"]) * int(args["nt"])

    def _after_sim_simulate(self, span, args, result, mark):
        span.attrs.update(cells=len(args["initial"].u), steps=self.steps - mark[0])

    def _after_output_write_csv(self, span, args, result, mark):
        first = next(iter(args["columns"].values()))
        span.attrs.update(rows=len(first), bytes=os.path.getsize(args["path"]))

    def _after_output_write_svg(self, span, args, result, mark):
        span.attrs["bytes"] = os.path.getsize(args["path"])

    def _after_algebraic_solve_families(self, span, args, result, mark):
        span.attrs.update(roots=len(result), starts=self.starts - mark[1],
                          nfev=self.nfev - mark[2], converged=self.converged - mark[3])

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


LAYERS = ("exact", "verify", "algebraic", "sim", "output", "cli")


def layer_shares(spans):
    """Each layer's self time as a share of the operations' total time.

    Operation spans are the roots; their own self time is "bench": benchmark
    glue and library code outside every span (match_root, for one).
    """
    own = self_times(spans)
    total = sum(s.duration for s in spans if s.parent is None)
    shares = dict.fromkeys(("bench",) + LAYERS, 0.0)
    for s in spans:
        layer = "bench" if s.parent is None else s.name.split(".")[0]
        shares[layer] += own[s.id] / total if total else 0.0
    return shares


GRID_CELLS = (801, 1601, 3201)

# name -> (unit, better).  Times are per traced pass; a layer the workload
# never calls reads 0.  BENCHMARK.json lists the metrics that are not times
# (counts, ratios, bytes and self-time shares); every traced run's record
# holds them all.
PER_LAYER = {
    **{f"{layer}.self_share": ("ratio", "lower") for layer in ("bench",) + LAYERS},
    "sim.simulate.busy_s": ("s", "lower"),
    **{f"sim.ns_per_cell_step.n{n}": ("ns", "lower") for n in GRID_CELLS},
    "sim.steps": ("count", "lower"),
    "sim.rhs_evals": ("count", "lower"),
    "sim.peak_alloc_bytes": ("bytes", "lower"),
    "sim.measure_wave_speed.busy_s": ("s", "lower"),
    "exact.eval_uv_masked.busy_s": ("s", "lower"),
    "exact.eval_uv_masked.ns_per_sample": ("ns", "lower"),
    "exact.find_singularities.busy_s": ("s", "lower"),
    "exact.find_singularities.calls": ("count", "lower"),
    "exact.poles_found": ("count", "higher"),
    "exact.masked_ratio": ("ratio", "lower"),
    "exact.make_spec.busy_s": ("s", "lower"),
    "verify.ode_residual.busy_s": ("s", "lower"),
    "verify.ode_residual.ns_per_sample": ("ns", "lower"),
    "verify.pde_residual.busy_s": ("s", "lower"),
    "verify.pde_residual.ns_per_point": ("ns", "lower"),
    "verify.check_G_ode.busy_s": ("s", "lower"),
    "verify.excluded_ratio": ("ratio", "lower"),
    "algebraic.solve_families.busy_s": ("s", "lower"),
    "algebraic.starts": ("count", "lower"),
    "algebraic.ms_per_start": ("ms", "lower"),
    "algebraic.nfev": ("count", "lower"),
    "algebraic.converged_ratio": ("ratio", "higher"),
    "algebraic.roots_kept": ("count", "higher"),
    "output.write_csv.busy_s": ("s", "lower"),
    "output.write_csv.rows": ("count", "lower"),
    "output.write_csv.ns_per_row": ("ns", "lower"),
    "output.write_csv.bytes": ("bytes", "lower"),
    "output.write_svg.busy_s": ("s", "lower"),
    "output.write_svg.bytes": ("bytes", "lower"),
    "cli.simulate.self_s": ("s", "lower"),
    "cli.figure.self_s": ("s", "lower"),
    "cli.verify.self_s": ("s", "lower"),
}


# metrics derived from others rather than observed
COMPUTED = {"sim.rhs_evals": "4 x sim.steps (RK4)"}


def per_layer_metrics(spans, passes, memory_spans):
    """The PER_LAYER metrics from the spans of ``passes`` traced passes.

    Busy times, self times and counts are per traced pass; rates and ratios
    pool every call.  ``memory_spans`` come from the pass run with
    ``Tracer(memory=True)``.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(name):
        return sum(s.duration for s in by_name[name]) / passes

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def rate(name, key, scale):
        # only calls that returned carry the work count
        work = total(name, key)
        dur = sum(s.duration for s in by_name[name] if key in s.attrs)
        return dur * scale / work if work else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    sims = by_name["sim.simulate"]
    m = {f"{layer}.self_share": share for layer, share in layer_shares(spans).items()}
    m.update({
        "sim.simulate.busy_s": busy("sim.simulate"),
        "sim.steps": total("sim.simulate", "steps") / passes,
        "sim.rhs_evals": 4 * total("sim.simulate", "steps") / passes,
        "sim.peak_alloc_bytes": max((s.attrs["peak_alloc_bytes"] for s in memory_spans
                                     if s.name == "sim.simulate"), default=0),
        "sim.measure_wave_speed.busy_s": busy("sim.measure_wave_speed"),
        "exact.eval_uv_masked.busy_s": busy("exact.eval_uv_masked"),
        "exact.eval_uv_masked.ns_per_sample": rate("exact.eval_uv_masked", "samples", 1e9),
        "exact.find_singularities.busy_s": busy("exact.find_singularities"),
        "exact.find_singularities.calls": len(by_name["exact.find_singularities"]) / passes,
        "exact.poles_found": total("exact.find_singularities", "poles") / passes,
        "exact.masked_ratio": ratio(total("exact.eval_uv_masked", "masked"),
                                    total("exact.eval_uv_masked", "samples")),
        "exact.make_spec.busy_s": busy("exact.make_spec"),
        "verify.ode_residual.busy_s": busy("verify.ode_residual"),
        "verify.ode_residual.ns_per_sample": rate("verify.ode_residual", "samples", 1e9),
        "verify.pde_residual.busy_s": busy("verify.pde_residual"),
        "verify.pde_residual.ns_per_point": rate("verify.pde_residual", "points", 1e9),
        "verify.check_G_ode.busy_s": busy("verify.check_G_ode"),
        "verify.excluded_ratio": ratio(total("verify.ode_residual", "excluded"),
                                       total("verify.ode_residual", "samples")),
        "algebraic.solve_families.busy_s": busy("algebraic.solve_families"),
        "algebraic.starts": total("algebraic.solve_families", "starts") / passes,
        "algebraic.ms_per_start": rate("algebraic.solve_families", "starts", 1e3),
        "algebraic.nfev": total("algebraic.solve_families", "nfev") / passes,
        "algebraic.converged_ratio": ratio(total("algebraic.solve_families", "converged"),
                                           total("algebraic.solve_families", "starts")),
        "algebraic.roots_kept": total("algebraic.solve_families", "roots") / passes,
        "output.write_csv.busy_s": busy("output.write_csv"),
        "output.write_csv.rows": total("output.write_csv", "rows") / passes,
        "output.write_csv.ns_per_row": rate("output.write_csv", "rows", 1e9),
        "output.write_csv.bytes": total("output.write_csv", "bytes") / passes,
        "output.write_svg.busy_s": busy("output.write_svg"),
        "output.write_svg.bytes": total("output.write_svg", "bytes") / passes,
    })
    for n in GRID_CELLS:
        on_grid = [s for s in sims if s.attrs.get("cells") == n]
        work = sum(s.attrs["cells"] * s.attrs["steps"] for s in on_grid)
        m[f"sim.ns_per_cell_step.n{n}"] = \
            sum(s.duration for s in on_grid) * 1e9 / work if work else 0.0
    for cmd in ("simulate", "figure", "verify"):
        m[f"cli.{cmd}.self_s"] = sum(own[s.id] for s in by_name[f"cli.{cmd}"]) / passes
    return m
