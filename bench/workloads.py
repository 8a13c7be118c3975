"""Seeded workloads of the alleewaves benchmark and their answer checks.

Each workload is a closed loop: one caller issues one operation after
another.  A run repeats passes; a pass is a fixed list of operations whose
inputs come only from ``(seed, workload, pass index)``.  The runner times
each operation, then hands the outputs to ``check``, which returns one
failure cause (or None) per operation.  Checks run untimed and untraced.

The library is always reached through module attributes (``exact.make_spec``
rather than a from-import), so the tracer's patches see every call.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from alleewaves import algebraic, cli, exact, output, verify
from alleewaves.errors import NoConvergenceError, PoleError
from alleewaves.model import CaseKind

WORKLOAD_IDS = {"front": 1, "profiles": 2, "rediscover": 3}

# Failure causes the package is known to produce today.  Operations that fail
# with them count as failed; any other cause makes the run incorrect.
# verify.pde_residual screens for poles at 64 sampled times only, so it
# misses a pole that crosses a narrow window between two of them (ROADMAP
# open item 4).
KNOWN_DEFECT = ("known defect (ROADMAP item 4): pde_residual returned a report"
                " for a window that a pole line crosses")
# solve_families raises NoConvergenceError when its fixed 128-start grid
# reaches no admissible root; about 1 draw in 1500, near k = 8, delta = 4.5,
# where the closed-form beta lies far outside the grid's (0.5, 5).
KNOWN_NO_ROOT = "known limit: solve_families reached no admissible root from its start grid"


def is_known(cause):
    return cause.startswith("known ")


def pass_rng(seed: int, workload: str, pass_index: int):
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], pass_index])


@dataclass(frozen=True)
class Raised:
    """Stands in for the result of an operation that raised."""

    exc: BaseException

    @property
    def cause(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


@dataclass
class Op:
    """One operation: a zero-argument call plus what its check needs."""

    name: str
    call: object
    info: dict = field(default_factory=dict)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            result = self.call()
        self.info["stderr"] = err.getvalue().strip()
        return result


def _flags(**kw):
    argv = []
    for key, val in kw.items():
        argv += ["--" + key.replace("_", "-"), repr(val) if isinstance(val, float) else str(val)]
    return argv


def _cli(argv):
    # looked up at call time, so a traced pass sees the patched cli.main
    return cli.main(argv)


def _cli_cause(result, op):
    if isinstance(result, Raised):
        return result.cause
    if result != cli.EXIT_OK:
        return f"exit code {result}: {op.info.get('stderr', '')[:200]}"
    return None


# ------------------------------------------------------- calibration kernels
#
# Each workload has a fixed kernel that does the same kind of work as its
# operations, on data of the same size, without calling the package.  The
# runner times it from a timer signal while operations run, to follow the
# host's speed (see run.py), so a kernel may start in the middle of any
# operation and must not share state with it: NumPy only, no SciPy solver.
# The kernels must never change along with the package.

def rk4_kernel(n=3201, steps=4, dx=0.025, dt=0.00025):
    """Explicit RK4 over a zero-flux Laplacian for two cubic fields, like sim."""
    x = np.linspace(-40.0, 40.0, n)
    u = 0.5 * (1.0 + np.tanh(x))
    v = 1.0 - u
    inv = 1.0 / (dx * dx)

    def lap(f):
        out = np.empty_like(f)
        out[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) * inv
        out[0] = 2.0 * (f[1] - f[0]) * inv
        out[-1] = 2.0 * (f[-2] - f[-1]) * inv
        return out

    def rhs(u, v):
        return (lap(u) - 0.5 * u + 6.0 * u * u - u ** 3 - u * v,
                lap(v) + 5.0 * u * v - 0.5 * v - 3.0 * v ** 3)

    for _ in range(steps):
        a = rhs(u, v)
        b = rhs(u + 0.5 * dt * a[0], v + 0.5 * dt * a[1])
        c = rhs(u + 0.5 * dt * b[0], v + 0.5 * dt * b[1])
        d = rhs(u + dt * c[0], v + dt * c[1])
        u = u + dt / 6.0 * (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0])
        v = v + dt / 6.0 * (a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1])
    return u, v


def profile_kernel(n=20001, rows=500):
    """Closed-form sampling on a dense grid, then CSV-style row formatting."""
    x = np.linspace(-10.0, 10.0, n)
    g = 1.5 * np.sinh(0.7 * x) + np.cosh(0.7 * x)
    u = np.exp(-0.3 * x) * g / (1.0 + g * g)
    v = np.sqrt(np.abs(u)) * np.sign(g)
    ok = np.isfinite(u) & (np.abs(g) > 1e-3)
    buf = io.StringIO()
    for i in range(rows):
        buf.write(",".join(["%.17g" % x[i], "%.17g" % u[i], "%.17g" % v[i],
                            "0" if ok[i] else "1"]) + "\n")
    return buf.getvalue()


def _lm_fun(y):
    return np.array([y[0] ** 2 + y[1] - 3.0, y[1] * y[2] - 1.0,
                     y[2] + y[3] ** 2 - 2.0, y[0] * y[3] - 0.5])


def _lm_jac(y):
    return np.array([[2.0 * y[0], 1.0, 0.0, 0.0], [0.0, y[2], y[1], 0.0],
                     [0.0, 0.0, 1.0, 2.0 * y[3]], [y[3], 0.0, 0.0, y[0]]])


LM_STARTS = tuple((a, b, 1.0, 0.5) for a in (0.5, 2.0) for b in (0.5, 2.0))


def lm_kernel(iterations=12):
    """Levenberg-Marquardt steps on a small polynomial system from several starts."""
    roots = []
    for y0 in LM_STARTS:
        y, damping = np.array(y0), 1e-3
        for _ in range(iterations):
            f, jac = _lm_fun(y), _lm_jac(y)
            a = jac.T @ jac
            step = np.linalg.solve(a + damping * (np.diag(np.diag(a)) + np.eye(4)),
                                   -jac.T @ f)
            if np.sum(_lm_fun(y + step) ** 2) < np.sum(f ** 2):
                y, damping = y + step, 0.3 * damping
            else:
                damping *= 10.0
        roots.append(y)
    return roots


# --------------------------------------------------------------------- front

FRONT_GRIDS = ((0.1, 0.004), (0.05, 0.001), (0.025, 0.00025))


class Front:
    """Wave-speed experiment: `alleewaves simulate --measure-speed` per grid.

    One pass draws one family-A hyperbolic front near the criterion-5
    parameters (|c2| > |c1|, so no pole in the domain) and runs it on every
    grid, coarse to fine, so the pass can check the dx^2 error ratio.
    """

    name = "front"
    kernel = staticmethod(rk4_kernel)

    def __init__(self, grids=FRONT_GRIDS, x_half=40.0, t_end=2.0, snapshots=11):
        self.grids = grids
        self.x_half = x_half
        self.t_end = t_end
        self.snapshots = snapshots
        self.speed_err = []      # finest grid, one per checked pass
        self.interior_linf = []

    def sizes(self):
        out = []
        for dx, dt in self.grids:
            steps = round(self.t_end / dt)
            out.append({"dx": dx, "dt": dt, "N": int(round(2 * self.x_half / dx)) + 1,
                        "steps": steps, "snapshots": self.snapshots})
        return {"grids": out, "ops_per_pass": len(self.grids)}

    @staticmethod
    def draw(rng):
        return dict(alpha0=1.2 * rng.uniform(0.95, 1.05), mu=0.2 * rng.uniform(0.9, 1.1),
                    k=5.9 * rng.uniform(0.95, 1.05), delta=3.0 * rng.uniform(0.9, 1.1),
                    c1=10.0 * rng.uniform(0.9, 1.1), c2=20.0 * rng.uniform(0.9, 1.1))

    def simulate_argv(self, par, dx, dt, out_dir):
        steps = round(self.t_end / dt)
        return ["simulate", "--family", "A", "--branch", "upper",
                *_flags(**par, x_min=-self.x_half, x_max=self.x_half, dx=dx, dt=dt,
                        t_end=self.t_end,
                        snapshot_every=steps // (self.snapshots - 1)),
                "--measure-speed", "--out", str(out_dir)]

    def make_pass(self, rng, workdir: Path):
        par = self.draw(rng)
        ops = []
        for j, (dx, dt) in enumerate(self.grids):
            out_dir = workdir / f"front_{j}"
            argv = self.simulate_argv(par, dx, dt, out_dir)
            ops.append(Op(f"simulate dx={dx}", partial(_cli, argv),
                          dict(par=par, dx=dx, out=out_dir)))
        return ops

    def check(self, ops, results):
        causes = [None] * len(ops)
        err_u = [None] * len(ops)
        for i, (op, res) in enumerate(zip(ops, results)):
            causes[i] = _cli_cause(res, op)
            if causes[i]:
                continue
            par, out_dir = op.info["par"], op.info["out"]
            spec = exact.make_spec("A", par["alpha0"], par["mu"], par["k"], par["delta"],
                                   branch="upper", c1=par["c1"], c2=par["c2"])
            c = spec.coeffs.c
            hdr, cols = output.read_csv(out_dir / f"snapshot_{self.snapshots - 1:03d}.csv")
            x = cols["x"]
            ue, ve, _ = exact.eval_uv_masked(spec, x, float(hdr["t"]))
            interior = np.abs(x) < 30.0
            err_u[i] = float(np.max(np.abs(cols["u"] - ue)[interior]))
            linf = max(err_u[i], float(np.max(np.abs(cols["v"] - ve)[interior])))
            report = dict(line.split("=", 1) for line in
                          (out_dir / "speed_report.txt").read_text().splitlines())
            try:
                speed = float(report["measured_speed"])
            except ValueError:
                causes[i] = f"measured_speed={report['measured_speed']}"
                continue
            rel = abs(speed - c) / abs(c)
            if op.info["dx"] <= 0.05 and not rel < 0.02:
                causes[i] = f"speed relative error {rel:.3e} >= 2%"
            elif op.info["dx"] <= 0.05 and not linf < 5e-3:
                causes[i] = f"interior Linf {linf:.3e} >= 5e-3"
            if i == len(ops) - 1:
                self.speed_err.append(rel)
                self.interior_linf.append(linf)
        for i in range(1, len(ops)):
            if err_u[i - 1] is None or err_u[i] is None:
                continue
            ratio = err_u[i - 1] / err_u[i]
            if not 3.5 <= ratio <= 4.5 and causes[i] is None:
                causes[i] = f"error ratio {ratio:.3f} to the coarser grid not in [3.5, 4.5]"
        return causes

    def quality(self):
        return {
            "speed_rel_err": (_median(self.speed_err), "1", "lower", len(self.speed_err)),
            "interior_linf": (_median(self.interior_linf), "1", "lower",
                              len(self.interior_linf)),
        }

    def warm_up(self, workdir: Path):
        par = self.draw(np.random.default_rng(0))
        tiny = Front(x_half=10.0, t_end=0.1, snapshots=3)
        argv = tiny.simulate_argv(par, 0.5, 0.05, workdir / "warm")
        Op("warm-up", partial(_cli, argv)).run()
        output.read_csv(workdir / "warm" / "snapshot_000.csv")


# ------------------------------------------------------------------ profiles

_COMBOS = (("A", CaseKind.HYPERBOLIC), ("A", CaseKind.TRIGONOMETRIC),
           ("A", CaseKind.DEGENERATE), ("B", CaseKind.HYPERBOLIC),
           ("B", CaseKind.DEGENERATE))


def draw_profile_spec(rng, family, kind):
    """The criterion-1 generator; hyperbolic draws keep |c2| < |c1| so a pole exists.

    Family B has no trigonometric regime: its discriminant is a square.
    """
    a0 = rng.uniform(0.3, 3.0)
    k = rng.uniform(0.5, 8.0)
    d = rng.uniform(0.5, 5.0)
    if family == "A":
        s = (k - 2.0 * a0) ** 2
        mu = {CaseKind.HYPERBOLIC: s / 8.0 - rng.uniform(0.1, 2.0),
              CaseKind.TRIGONOMETRIC: s / 8.0 + rng.uniform(0.1, 2.0),
              CaseKind.DEGENERATE: s / 8.0}[kind]
    elif kind is CaseKind.DEGENERATE:
        mu = a0 * a0 / 2.0
    else:
        mu = a0 * a0 / 2.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
    branch = "upper" if rng.random() < 0.5 else "lower"
    c1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    c2 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    if kind is CaseKind.HYPERBOLIC and abs(c2) > abs(c1):
        c1, c2 = c2, c1
    return exact.make_spec(family, a0, mu, k, d, branch=branch, c1=c1, c2=c2)


def draw_pde_window(rng, half):
    """A PDE-residual window, drawn without looking at the poles.

    Widths run log-uniformly from 0.01 (the ROADMAP item-4 reproduction) to
    4 (the test suite's windows); durations from 0.2 (test suite) to 100
    (reproduction).
    """
    center = rng.uniform(-half, half)
    width = math.exp(rng.uniform(math.log(0.01), math.log(4.0)))
    duration = math.exp(rng.uniform(math.log(0.2), math.log(100.0)))
    return (center - 0.5 * width, center + 0.5 * width), (0.0, duration)


def pole_crosses(spec, x_window, t_window):
    """Exactly: does some pole line x = xi* + c*t meet the window?

    The window covers xi in [min_t(x0 - c t), max_t(x1 - c t)]; a pole line
    meets it iff its xi* lies in that interval.
    """
    (x0, x1), (t0, t1) = x_window, t_window
    c = spec.coeffs.c
    lo = min(x0 - c * t0, x0 - c * t1)
    hi = max(x1 - c * t0, x1 - c * t1)
    return bool(exact.find_singularities(spec, lo, hi))


FIGURE_POLE_1 = -0.476
FIGURE_PERIOD_2 = 7.114
FIGURE_POLE_3 = -2.0


def check_profile(spec, window, res):
    """Failure cause of one profile operation, or None."""
    if not res["finite"]:
        return "eval_uv_masked gave a non-finite unmasked sample"
    if not res["ode"].worst < 1e-8:
        return f"ode_residual worst {res['ode'].worst:.3e} >= 1e-8"
    if not res["g"].max_abs[0] < 1e-12:
        return f"check_G_ode {res['g'].max_abs[0]:.3e} >= 1e-12"
    crossed = pole_crosses(spec, *window)
    raised = isinstance(res["pde"], PoleError)
    if crossed and not raised:
        return KNOWN_DEFECT
    if raised and not crossed:
        return f"pde_residual raised {res['pde']} for a window no pole crosses"
    if not raised and not math.isfinite(res["pde"].worst):
        return "pde_residual returned a non-finite residual"
    return None


class Profiles:
    """Closed-form sampling, residual checks and figure/verify artifacts.

    A pass draws ``specs_per_pass`` specs cycling over both families and all
    three cases, then runs the CLI for figures 1-3 and for `verify` on the
    pass's first spec.
    """

    name = "profiles"
    kernel = staticmethod(profile_kernel)

    def __init__(self, specs_per_pass=10, pole_half=50.0, dense_n=20001, ode_half=10.0,
                 ode_n=501, g_n=1001, nxnt=32, figures=(1, 2, 3)):
        self.specs_per_pass = specs_per_pass
        self.pole_half = pole_half
        self.dense_x = np.linspace(-ode_half, ode_half, dense_n)
        self.ode_half = ode_half
        self.ode_n = ode_n
        self.g_grid = np.linspace(-ode_half, ode_half, g_n)
        self.nxnt = nxnt
        self.figures = figures

    def op(self, spec, window):
        """One profile operation: pole search, dense sampling, three residual checks."""
        poles = exact.find_singularities(spec, -self.pole_half, self.pole_half)
        u, v, ok = exact.eval_uv_masked(spec, self.dense_x, 0.0)
        ode = verify.ode_residual(spec, -self.ode_half, self.ode_half, self.ode_n)
        co = spec.coeffs
        g = verify.check_G_ode(spec.case, co.lam, co.mu, spec.c1, spec.c2, self.g_grid)
        try:
            pde = verify.pde_residual(spec, window[0], window[1], self.nxnt, self.nxnt)
        except PoleError as exc:
            pde = exc
        finite = bool(np.isfinite(u[ok]).all() and np.isfinite(v[ok]).all())
        return dict(poles=poles, finite=finite, ode=ode, g=g, pde=pde)

    def sizes(self):
        return {"specs_per_pass": self.specs_per_pass, "cli_ops_per_pass": len(self.figures) + 1,
                "pole_window": [-self.pole_half, self.pole_half],
                "samples": len(self.dense_x), "ode_samples": self.ode_n,
                "G_samples": len(self.g_grid), "nx_x_nt": f"{self.nxnt}x{self.nxnt}"}

    def make_pass(self, rng, workdir: Path):
        ops = []
        first = None
        for i in range(self.specs_per_pass):
            spec = draw_profile_spec(rng, *_COMBOS[i % len(_COMBOS)])
            window = draw_pde_window(rng, self.ode_half)
            if first is None:
                first = spec
            ops.append(Op(f"profile {spec.family}/{spec.case.value}",
                          partial(self.op, spec, window),
                          dict(spec=spec, window=window)))
        fig_dir = workdir / "figures"
        for n in self.figures:
            ops.append(Op(f"cli figure {n}", partial(
                _cli, ["figure", str(n), "--out", str(fig_dir)]), dict(figure=n, out=fig_dir)))
        co = first.coeffs
        argv = ["verify", "--family", first.family, "--branch", first.branch,
                *_flags(alpha0=co.alpha0, mu=co.mu, k=co.k, delta=co.delta,
                        c1=first.c1, c2=first.c2), "--out", str(workdir / "verify")]
        ops.append(Op("cli verify", partial(_cli, argv), {}))
        return ops

    def check(self, ops, results):
        return [self._check_one(op, res) for op, res in zip(ops, results)]

    def _check_one(self, op, res):
        if isinstance(res, Raised):
            return res.cause
        if "spec" in op.info:
            return check_profile(op.info["spec"], op.info["window"], res)
        cause = _cli_cause(res, op)
        if cause or "figure" not in op.info:
            return cause
        n, out_dir = op.info["figure"], op.info["out"]
        hdr, cols = output.read_csv(out_dir / f"figure{n}.csv")
        if n == 2:
            period = verify.estimate_period(cols["u"], cols["x"][1] - cols["x"][0])
            if not abs(period - FIGURE_PERIOD_2) < 1e-2:
                return f"figure 2 period {period:.5f}, expected {FIGURE_PERIOD_2} +- 0.01"
            return None
        want, tol = (FIGURE_POLE_1, 1e-3) if n == 1 else (FIGURE_POLE_3, 1e-6)
        if "pole_1_xi" not in hdr or "pole_2_xi" in hdr:
            return f"figure {n} should list exactly one pole"
        if not abs(float(hdr["pole_1_xi"]) - want) < tol:
            return f"figure {n} pole at {hdr['pole_1_xi']}, expected {want}"
        return None

    def quality(self):
        return {}

    def warm_up(self, workdir: Path):
        rng = np.random.default_rng(0)
        tiny = Profiles(specs_per_pass=1, dense_n=101, ode_n=64, g_n=64, nxnt=16, figures=(1,))
        for op in tiny.make_pass(rng, workdir / "warm"):
            op.run()


# ---------------------------------------------------------------- rediscover

class Rediscover:
    """Root search: `solve_families` on seeded (k, delta, mu, alpha0) draws.

    Each operation is one solve_families call (the default 128-start grid)
    followed by match_root against every closed-form target.
    """

    name = "rediscover"
    kernel = staticmethod(lm_kernel)

    def __init__(self, draws_per_pass=8, init_grid=None):
        self.draws_per_pass = draws_per_pass
        self.init_grid = init_grid
        self.targets = 0
        self.recovered = 0

    def sizes(self):
        starts = len(self.init_grid) if self.init_grid is not None \
            else len(algebraic.default_init_grid(1.0, 1.0))
        return {"draws_per_pass": self.draws_per_pass, "starts": starts}

    @staticmethod
    def draw(rng):
        return dict(k=rng.uniform(0.5, 8.0), delta=rng.uniform(0.5, 5.0),
                    mu=rng.uniform(0.1, 3.0), alpha0=rng.uniform(0.5, 3.0))

    def op(self, par):
        roots = algebraic.solve_families(par["k"], par["delta"], par["mu"], par["alpha0"],
                                         init_grid=self.init_grid)
        targets = algebraic.closed_form_targets(par["k"], par["delta"], par["mu"],
                                                par["alpha0"])
        hits = [algebraic.match_root(roots, tgt) is not None for _, tgt in targets]
        return roots, hits

    def make_pass(self, rng, workdir: Path):
        ops = []
        for _ in range(self.draws_per_pass):
            par = self.draw(rng)
            ops.append(Op("solve_families", partial(self.op, par), dict(par=par)))
        return ops

    def check(self, ops, results):
        causes = []
        for res in results:
            if isinstance(res, Raised):
                no_root = isinstance(res.exc, NoConvergenceError)
                causes.append(f"{KNOWN_NO_ROOT} ({res.exc})" if no_root else res.cause)
                continue
            roots, hits = res
            self.targets += len(hits)
            self.recovered += sum(hits)
            causes.append(check_roots(roots))
        return causes

    def quality(self):
        ratio = self.recovered / self.targets if self.targets else math.nan
        return {"recovered_ratio": (ratio, "1", "higher", self.targets)}

    def warm_up(self, workdir: Path):
        par = self.draw(np.random.default_rng(0))
        grid = algebraic.default_init_grid(par["alpha0"], par["delta"])[:2]
        Rediscover(init_grid=grid).op(par)


def check_roots(roots):
    """Failure cause if any returned root misses the coefficient equations."""
    for r in roots:
        worst = algebraic.coeff_residuals(r).max_abs
        if not worst < 1e-10:
            return f"root with c={r.c:.6g} has coefficient residual {worst:.3e} >= 1e-10"
    return None


def _median(values):
    return float(np.median(values)) if values else math.nan


WORKLOADS = {"front": Front, "profiles": Profiles, "rediscover": Rediscover}

