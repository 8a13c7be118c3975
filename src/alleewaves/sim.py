"""Method-of-lines integrator for the full PDE system.

Classical RK4 in time over 2nd-order central differences in space, with
either periodic or zero-flux (ghost-point reflection) boundaries.  Kept
explicit and dependency-free on purpose: the simulator is an independent
oracle for the closed-form solutions, so it must not share machinery with
them.

``simulate`` builds a ``Run`` on its active window and ``step`` advances it
in place.  The run holds (u, v) stacked in one (2, N+2) buffer, a ghost cell
at each end of each row, to which each step adds its RK4 increment, and binds
once every buffer, view and constant (a 0-d array) a step reads.  Each RK4
stage fills the ghosts, evaluates the reaction terms in Horner form into
scratch and adds the neighbour sum of both Laplacians, each pass one
contiguous NumPy call over both species.  The Laplacian's diagonal, -2y/dx^2,
is folded into the reaction pass as -(beta + 2/dx^2) in place of -beta, so
results match the textbook form only within a tested tolerance: beta + 2/dx^2
rounds to the resolution of 2/dx^2, a shift of at most half an ulp of 2/dx^2
(5.7e-14 at dx = 0.05) that a long run amplifies.

The active window is the cells between the two frozen ends plus a margin.  A
frozen end is a run of one (u, v), with no -0.0, whose stage RHS the kernel
computes as exactly +-0.  A step reaches 4 cells, so a zero-flux window whose
edge lies 4K + 2 cells inside a frozen run matches the full grid bit for bit
for K steps, its reflected ghost being the frozen neighbour.  Every K steps the
edges are checked; if one fails, the window is copied back and chosen again.

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
_BLOCK, _MARGIN, _SLACK = 8, 34, 32   # window: K steps per edge check, 4K + 2 cells, spare cells


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


def _coeffs(cfg: SimConfig):
    return cfg.dt, 2.0 * (cfg.k + 1.0 / math.sqrt(cfg.delta)), cfg.k, 3.0 * cfg.delta, cfg.beta


def _check_state(state, t, x0, dx, cfg: SimConfig, coeffs=None):
    """Raise unless the (2, N) state is finite and RK4 is stable on it.

    The one reduction per step is each row's max and min, giving max|u| and
    max|v|.  NaN propagates through them, so they flag non-finite cells, and
    by Gershgorin's theorem they bound every local 2x2 reaction Jacobian, with
    coeffs (a run's ``_coeffs(cfg)``).  Only when dt times that bound leaves
    RK4's real stability interval are the per-cell eigenvalue magnitudes computed.
    """
    dt, two_ks, k, three_delta, beta = coeffs or _coeffs(cfg)
    (hi_u, hi_v), (lo_u, lo_v) = (np.maximum.reduce(state, axis=1).tolist(),
                                  np.minimum.reduce(state, axis=1).tolist())
    big_u, big_v = max(hi_u, -lo_u), max(hi_v, -lo_v)   # NaN stays NaN
    if not (math.isfinite(big_u) and math.isfinite(big_v)):
        bad = np.nonzero(~np.isfinite(state).all(axis=0))[0][0]
        raise BlowUpError(t, x0 + dx * bad)
    # row sums of |J|, J = [[2(k+s)u - 3u^2 - v - beta, -u],
    #                       [k v, k u - 3 delta v^2 - beta]]
    bound = max(two_ks * big_u + 3.0 * big_u * big_u + big_v + beta + big_u,
                k * big_v + k * big_u + three_delta * big_v * big_v + beta)
    if dt * bound <= RK4_REAL_INTERVAL:
        return
    u, v = state
    with np.errstate(over="ignore", invalid="ignore"):
        a = (two_ks - 3.0 * u) * u - v - beta
        d = k * u - three_delta * v * v - beta
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
    """The RK4 state of one simulate call, with each step's views and constants
    bound once.  A step reads the padded state buffer, accumulates its increment
    in ``acc`` and adds that into the buffer; ``y``, ``k`` and ``scratch`` hold
    the stages.  ``state`` is the buffer's unpadded (2, N) view, and ``stages``
    holds the buffers, both stage argument tuples and the step's scalars."""

    def __init__(self, initial: GridField, cfg: SimConfig):
        check_stability(cfg, initial.dx)
        m = len(initial.u) + 2
        self.cfg, self.x0, self.dx, self.t0, self.t, self.i, self.m = (
            cfg, initial.x0, initial.dx, initial.t, initial.t, 0, m)
        y0, acc, y, k, scratch = np.empty((5, 2 * m))
        self.state = y0.reshape(2, m)[:, 1:-1]
        self.state[:] = initial.u, initial.v
        # where y[0], y[m-1], y[m], y[-1] are read from: wrapped or reflected
        src = (m - 2, 1, 2 * m - 2, m + 1) if cfg.bc == "periodic" else (2, m - 3, m + 2, 2 * m - 3)
        inv_dx2 = 1.0 / (initial.dx * initial.dx)
        # scalars as 0-d arrays, which a ufunc takes faster than Python floats;
        # beta + 2/dx^2 folds in the Laplacian's diagonal term
        ks, neg_delta, rate, diag, inv_dx2, half, dt, half_dt, third_dt = map(np.array, (
            cfg.k + 1.0 / math.sqrt(cfg.delta), -cfg.delta, cfg.k, cfg.beta + 2.0 * inv_dx2,
            inv_dx2, 0.5, cfg.dt, 0.5 * cfg.dt, cfg.dt / 3.0))
        first, later = [(i, i[:m], i[m:], i[:-2], i[2:], o, o[:m], o[1:-1], scratch,
                         scratch[:m], scratch[m:], m - 1, m, *src, ks, neg_delta, rate,
                         diag, inv_dx2) for i, o in ((y0, acc), (y, k))]
        self.stages = (y0, acc, first, y, k, later, half, dt, half_dt, third_dt)
        self.coeffs = _coeffs(cfg)

    def snapshot(self) -> GridField:
        """The current state on a copy of its padded buffer."""
        u, v = self.stages[0].copy().reshape(2, self.m)[:, 1:-1]
        return GridField(self.x0, self.dx, u, v, self.t)


def _stage_rhs(y, u, v, left, right, out, tmp, inner, scratch, pu, pv,
               m1, m, a, b, c, d, ks, neg_delta, k, diag, inv_dx2):
    """Write the right-hand side at the stage state y into out (views and
    constants bound by ``Run``); the stencil skips out's two outer entries,
    which must be finite on entry."""
    y[0], y[m1], y[m], y[-1] = y[a], y[b], y[c], y[d]
    # prey: u*((k+s-u)*u - v - beta), predator: v*(k*u - delta*v^2 - beta)
    np.subtract(ks, u, pu)
    pu *= u
    pu -= v
    np.multiply(v, v, pv)
    pv *= neg_delta
    np.multiply(u, k, tmp)   # tmp is free until the stencil pass
    pv += tmp
    scratch -= diag
    scratch *= y
    np.add(left, right, inner)
    out *= inv_dx2
    out += scratch


def step(run: Run):
    """Advance the run by one classical RK4 step."""
    y0, a, first, y, k, later, half, dt, half_dt, third_dt = run.stages
    # each stage scales out's outer entries by 1/dx^2 and the stencil never
    # writes them, so they are zeroed every step before they can overflow
    a[0] = a[-1] = k[0] = k[-1] = 0.0
    # acc collects (k1 + 2 k2 + 2 k3 + k4) / 2; halving is exact, so the
    # sums round as in the textbook form
    _stage_rhs(*first)
    a *= half
    np.multiply(a, dt, y)                # dt * k1/2 == dt/2 * k1 exactly
    for h in (half_dt, dt):              # stages 2 and 3
        y += y0
        _stage_rhs(*later)
        a += k
        np.multiply(k, h, y)
    y += y0
    _stage_rhs(*later)
    k *= half
    a += k
    a *= third_dt
    y0 += a
    run.i += 1
    run.t = run.t0 + run.i * run.cfg.dt
    _check_state(run.state, run.t, run.x0, run.dx, run.cfg, run.coeffs)


def _frozen_len(state, cfg: SimConfig, dx) -> int:
    """Length of state's leading run of one (u, v) with no -0.0 whose stage RHS,
    as ``_stage_rhs`` computes it, is exactly +-0; 0 if none or all of state."""
    pair = state[:, :1]
    acc, first = Run(GridField(0.0, dx, *np.repeat(pair, 8, axis=1), 0.0), cfg).stages[1:3]
    acc[:] = 0.0
    _stage_rhs(*first)
    if acc.reshape(2, 10)[:, 1:-1].any() or (np.signbit(pair) & (pair == 0.0)).any():
        return 0
    return int((state.view(np.int64) == pair.view(np.int64)).all(axis=0).argmin())


def simulate(initial: GridField, cfg: SimConfig):
    """Integrate to t_end, returning snapshots every snapshot_every steps.

    The initial field is always the first snapshot and the final field the
    last one.  Deterministic for identical inputs, and bit for bit the same
    as stepping the whole grid: the module docstring says why.
    """
    n, n_steps = len(initial.u), round(cfg.t_end / cfg.dt)
    win, lo, hi = Run(initial, cfg), 0, n   # the whole grid until the first window
    _check_state(win.state, initial.t, initial.x0, initial.dx, cfg, win.coeffs)
    block = np.empty(2 * (n + 2))   # the padded full (u, v), which snapshots copy
    full = block.reshape(2, n + 2)[:, 1:-1]
    snapshots = [initial]
    for i in range(n_steps):
        if i == 0 or i % _BLOCK == 0 and not all(
                (win.state[s] == frozen).all() for s, frozen in edges):
            full[:, lo:hi] = win.state
            n_lo, n_hi = ([_frozen_len(s, cfg, initial.dx) for s in (full, full[:, ::-1])]
                          if cfg.bc == "neumann" else (0, 0))
            lo, hi = max(n_lo - _MARGIN - _SLACK, 0), min(n - n_hi + _MARGIN + _SLACK, n)
            # each edge inside the grid: the window's edge cells and the frozen cell beyond
            edges = ([(np.s_[:, :_MARGIN], full[:, lo - 1:lo])] if lo else []) + (
                [(np.s_[:, -_MARGIN:], full[:, hi:hi + 1])] if hi < n else [])
            win = Run(GridField(initial.x0, initial.dx, *full[:, lo:hi], initial.t), cfg)
            win.i = i   # so that step sets win.t to initial.t + i*dt
        try:
            step(win)
        except (BlowUpError, StabilityError):
            full[:, lo:hi] = win.state   # the full grid names the t and x
            _check_state(full, win.t, initial.x0, initial.dx, cfg)
            raise
        if (i + 1) % cfg.snapshot_every == 0 or i + 1 == n_steps:
            full[:, lo:hi] = win.state
            snapshots.append(GridField(initial.x0, initial.dx,
                                       *block.copy().reshape(2, n + 2)[:, 1:-1], win.t))
    return snapshots


def _crossing_position(x, f, level):
    d = f - level
    exact = np.nonzero(d == 0)[0]
    sign_change = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]   # d * d can over/underflow
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
