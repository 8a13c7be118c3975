"""Method-of-lines integrator for the full PDE system.

Classical RK4 in time over 2nd-order central differences in space, with
either periodic or zero-flux (ghost-point reflection) boundaries.  Kept
explicit and dependency-free on purpose: the simulator is an independent
oracle for the closed-form solutions, so it must not share machinery with
them.

``simulate`` builds one ``Run`` per call and ``step`` advances it in place.
The run holds (u, v) stacked in (2, N+2) arrays, a ghost cell at each end
of each row, and every buffer, view and constant a step reads; the state is
copied out only at snapshot steps.  Each RK4 stage fills the ghosts,
evaluates the reaction terms in Horner form into scratch and adds the
neighbour sum of both Laplacians, each pass one contiguous NumPy call over
both species.  The Laplacian's diagonal, -2y/dx^2, is folded into the
reaction pass as -(beta + 2/dx^2) in place of -beta, so results match the
textbook form only within a tested tolerance: beta + 2/dx^2 rounds to the
resolution of 2/dx^2, a shift of at most half an ulp of 2/dx^2 (5.7e-14 at
dx = 0.05) that a long run amplifies.

Every state the integrator produces, and the initial one, must be finite
and must keep dt times each local reaction-Jacobian eigenvalue inside RK4's
real stability interval; otherwise the run raises rather than return a
finite but meaningless field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, StabilityError, TrackingError

STABILITY_SAFETY = 0.8
RK4_REAL_INTERVAL = 2.785   # RK4 is stable for real dt*lambda in [-2.785, 0]


@dataclass(frozen=True)
class GridField:
    """Sampled (u, v) on a uniform spatial grid at time t."""

    x0: float
    dx: float
    u: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self):
        for name in ("x0", "dx", "t"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        if len(self.u) != len(self.v) or len(self.u) < 8:
            raise ValueError("u, v must have equal length >= 8")

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self.u))


@dataclass(frozen=True)
class SimConfig:
    """Reaction parameters and integration controls; m = beta by construction."""

    k: float
    delta: float
    beta: float
    dt: float
    t_end: float
    bc: str = "neumann"          # 'neumann' (zero-flux) or 'periodic'
    snapshot_every: int = 100    # in steps

    def __post_init__(self):
        for name in ("k", "delta", "beta", "dt", "t_end"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
        # k = beta = 0 is allowed so the pure-diffusion limit stays runnable
        if self.k < 0 or self.beta < 0 or self.delta <= 0:
            raise ValueError("need k >= 0, beta >= 0, delta > 0")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        n_steps = self.t_end / self.dt
        if abs(n_steps - round(n_steps)) > 1e-9 * n_steps:
            raise ValueError(f"t_end={self.t_end:.6g} is not a whole number"
                             f" of steps of dt={self.dt:.6g}")
        if self.bc not in ("neumann", "periodic"):
            raise ValueError(f"bc must be 'neumann' or 'periodic', got {self.bc!r}")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


def check_stability(cfg: SimConfig, dx: float):
    limit = STABILITY_SAFETY * dx * dx / 2.0
    if cfg.dt > limit:
        raise StabilityError(f"dt={cfg.dt:.6g} exceeds {STABILITY_SAFETY}*dx^2/2={limit:.6g}")


def _check_state(state, t, x0, dx, cfg: SimConfig):
    """Raise unless the (2, N) state is finite and RK4 is stable on it.

    The one reduction per step is each row's max and min, giving max|u| and
    max|v|.  NaN propagates through them, so they flag non-finite cells, and
    by Gershgorin's theorem they bound every local 2x2 reaction Jacobian.
    Only when dt times that bound leaves RK4's real stability interval are
    the per-cell eigenvalue magnitudes computed.
    """
    (hi_u, hi_v), (lo_u, lo_v) = state.max(axis=1).tolist(), state.min(axis=1).tolist()
    big_u, big_v = max(hi_u, -lo_u), max(hi_v, -lo_v)   # NaN stays NaN
    if not (math.isfinite(big_u) and math.isfinite(big_v)):
        bad = np.nonzero(~np.isfinite(state).all(axis=0))[0][0]
        raise BlowUpError(t, x0 + dx * bad)
    k, delta, beta = cfg.k, cfg.delta, cfg.beta
    # row sums of |J|, J = [[2(k+s)u - 3u^2 - v - beta, -u],
    #                       [k v, k u - 3 delta v^2 - beta]]
    bound = max(2.0 * (k + 1.0 / math.sqrt(delta)) * big_u + 3.0 * big_u * big_u
                + big_v + beta + big_u,
                k * big_v + k * big_u + 3.0 * delta * big_v * big_v + beta)
    if cfg.dt * bound <= RK4_REAL_INTERVAL:
        return
    u, v = state
    with np.errstate(over="ignore", invalid="ignore"):
        a = (2.0 * (k + 1.0 / math.sqrt(delta)) - 3.0 * u) * u - v - beta
        d = k * u - 3.0 * delta * v * v - beta
        half_tr = 0.5 * (a + d)
        det = a * d + k * u * v
        disc = half_tr * half_tr - det
        # real pair: |tr/2| + sqrt(disc); complex pair: |lambda|^2 = det
        rho = np.where(disc >= 0.0, np.abs(half_tr) + np.sqrt(np.abs(disc)),
                       np.sqrt(np.abs(det)))
        bad = np.nonzero(~(cfg.dt * rho <= RK4_REAL_INTERVAL))[0]
    if bad.size:
        i = bad[0]
        raise StabilityError(
            f"dt={cfg.dt:.6g} times the reaction Jacobian's spectral radius"
            f" {rho[i]:.6g} exceeds RK4's real stability interval"
            f" {RK4_REAL_INTERVAL} at t={t:.6g}, x={x0 + dx * i:.6g}")


class Run:
    """The RK4 state of one simulate call.  A step reads ``cur``, accumulates
    in ``acc`` and swaps the two; ``y``, ``k`` and ``scratch`` hold the stages.
    Each buffer comes with its views: (flat, prey row, predator row, left and
    right stencil neighbours, stencil target, unpadded (2, N) state)."""

    def __init__(self, initial: GridField, cfg: SimConfig):
        check_stability(cfg, initial.dx)
        m = len(initial.u) + 2
        self.cfg, self.x0, self.dx, self.t0, self.t, self.i, self.m = (
            cfg, initial.x0, initial.dx, initial.t, initial.t, 0, m)
        bufs = np.empty((5, 2 * m))
        bufs[0].reshape(2, m)[:, 1:-1] = initial.u, initial.v
        self.cur, self.acc, self.y, self.k, self.scratch = [
            (b, b[:m], b[m:], b[:-2], b[2:], b[1:-1], b.reshape(2, m)[:, 1:-1])
            for b in bufs]
        # where y[0], y[m-1], y[m], y[-1] are read from: wrapped or reflected
        self.ghosts = ((m - 2, 1, 2 * m - 2, m + 1) if cfg.bc == "periodic"
                       else (2, m - 3, m + 2, 2 * m - 3))
        self.ks = cfg.k + 1.0 / math.sqrt(cfg.delta)
        self.inv_dx2 = 1.0 / (initial.dx * initial.dx)
        self.diag = cfg.beta + 2.0 * self.inv_dx2  # the Laplacian's diagonal term

    def snapshot(self) -> GridField:
        """The current state on a copy of its padded buffer."""
        u, v = self.cur[0].copy().reshape(2, self.m)[:, 1:-1]
        return GridField(self.x0, self.dx, u, v, self.t)


def _stage_rhs(y, out, run: Run):
    """Write the right-hand side at the stage state y into out (view tuples);
    the stencil skips out's two outer entries, which must be finite on entry."""
    y, u, v, left, right = y[:5]
    out, tmp, inner = out[0], out[1], out[5]
    scratch, pu, pv = run.scratch[:3]
    m, (a, b, c, d) = run.m, run.ghosts
    y[0], y[m - 1], y[m], y[-1] = y[a], y[b], y[c], y[d]
    # prey: u*((k+s-u)*u - v - beta), predator: v*(k*u - delta*v^2 - beta)
    np.subtract(run.ks, u, out=pu)
    pu *= u
    pu -= v
    np.multiply(v, v, out=pv)
    pv *= -run.cfg.delta
    np.multiply(u, run.cfg.k, out=tmp)   # tmp is free until the stencil pass
    pv += tmp
    scratch -= run.diag
    scratch *= y
    np.add(left, right, out=inner)
    out *= run.inv_dx2
    out += scratch


def step(run: Run):
    """Advance the run by one classical RK4 step."""
    dt, y0, acc = run.cfg.dt, run.cur, run.acc
    a, y, k = acc[0], run.y[0], run.k[0]
    # each stage scales out's outer entries by 1/dx^2 and the stencil never
    # writes them, so they are zeroed every step before they can overflow
    a[0] = a[-1] = k[0] = k[-1] = 0.0
    # acc collects (k1 + 2 k2 + 2 k3 + k4) / 2; halving is exact, so the
    # sums round as in the textbook form
    _stage_rhs(y0, acc, run)
    a *= 0.5
    np.multiply(a, dt, out=y)            # dt * k1/2 == dt/2 * k1 exactly
    for h in (0.5 * dt, dt):             # stages 2 and 3
        y += y0[0]
        _stage_rhs(run.y, run.k, run)
        a += k
        np.multiply(k, h, out=y)
    y += y0[0]
    _stage_rhs(run.y, run.k, run)
    k *= 0.5
    a += k
    a *= dt / 3.0
    a += y0[0]
    run.cur, run.acc = acc, y0
    run.i += 1
    run.t = run.t0 + run.i * dt
    _check_state(acc[6], run.t, run.x0, run.dx, run.cfg)


def simulate(initial: GridField, cfg: SimConfig):
    """Integrate to t_end, returning snapshots every snapshot_every steps.

    The initial field is always the first snapshot and the final field the
    last one.  Deterministic for identical inputs.
    """
    run = Run(initial, cfg)
    _check_state(run.cur[6], initial.t, initial.x0, initial.dx, cfg)
    n_steps = round(cfg.t_end / cfg.dt)
    snapshots = [initial]
    for i in range(1, n_steps + 1):
        step(run)
        if i % cfg.snapshot_every == 0 or i == n_steps:
            snapshots.append(run.snapshot())
    return snapshots


def _crossing_position(x, f, level):
    d = f - level
    exact = np.nonzero(d == 0)[0]
    sign_change = np.nonzero(d[:-1] * d[1:] < 0)[0]
    n = len(exact) + len(sign_change)
    if n == 0:
        raise TrackingError("level not crossed")
    if n > 1:
        raise TrackingError(f"level crossed {n} times")
    if len(exact):
        return float(x[exact[0]])
    i = sign_change[0]
    frac = d[i] / (d[i] - d[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def measure_wave_speed(snapshots, level) -> float:
    """Least-squares slope of the tracked prey level-crossing position vs time."""
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots")
    ts, xs = [], []
    for i, f in enumerate(snapshots):
        try:
            pos = _crossing_position(f.x, f.u, level)
        except TrackingError as exc:
            raise TrackingError(f"snapshot {i} (t={f.t:.6g}): {exc}") from None
        ts.append(f.t)
        xs.append(pos)
    slope = np.polyfit(ts, xs, 1)[0]
    return float(slope)
