"""Method-of-lines integrator for the full PDE system.

Classical RK4 in time over 2nd-order central differences in space, with
either periodic or zero-flux (ghost-point reflection) boundaries.  Kept
explicit and dependency-free on purpose: the simulator is an independent
oracle for the closed-form solutions, so it must not share machinery with
them.

``step`` is a fused kernel.  It stacks (u, v) into one (2, N+2) array with a
ghost cell at each end of each row and works on its flat view, so every
stencil and reaction pass is one contiguous NumPy call over both species.
Each RK4 stage fills the ghosts (reflected for zero-flux, wrapped for
periodic), evaluates the reaction terms in Horner form into preallocated
scratch with ``out=``, and adds the neighbour sum of both Laplacians in one
pass.  The Laplacian's diagonal, -2y/dx^2, is folded into the reaction pass:
the linear coefficient there is -(beta + 2/dx^2) rather than -beta, so the
stencil itself is only (y[i-1] + y[i+1])/dx^2.  The stages accumulate in
place in five buffers allocated per step.  The method and its checks are
those of the textbook form, but results match it only within a tested
tolerance, not bit for bit: beta + 2/dx^2 rounds to the resolution of
2/dx^2, which shifts the effective beta by at most half an ulp of 2/dx^2
(5.7e-14 at dx = 0.05), and the dynamics amplify that shift over a long run.

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
        raise StabilityError(
            f"dt={cfg.dt:.6g} exceeds {STABILITY_SAFETY}*dx^2/2={limit:.6g}"
        )


def _check_state(state, t, x0, dx, cfg: SimConfig):
    """Raise unless the (2, N) state is finite and RK4 is stable on it.

    The one reduction per step is max|u| and max|v|.  NaN propagates
    through the maximum, so it flags non-finite cells, and by Gershgorin's
    theorem it bounds every local 2x2 reaction Jacobian.  Only when dt times
    that bound leaves RK4's real stability interval are the per-cell
    eigenvalue magnitudes computed.
    """
    big_u, big_v = np.maximum(state.max(axis=1), -state.min(axis=1)).tolist()
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


def _stage_rhs(y, out, scratch, dx, cfg: SimConfig):
    """Write the right-hand side at the stage state y into out.

    All three arrays are flat views of (2, N+2) ghost-padded arrays: prey in
    the first N+2 entries, predator in the last, one ghost cell at each end
    of each row.  Filling y's ghosts first makes every stencil and reaction
    pass one contiguous operation over both species.  The entries of out at
    the ghost cells are meaningless and never read as state.  The stencil
    skips out's two outer entries, so they must hold finite values on entry,
    or the ghost arithmetic raises floating-point warnings.
    """
    m = len(y) // 2
    if cfg.bc == "periodic":
        y[0], y[m - 1], y[m], y[-1] = y[m - 2], y[1], y[-2], y[m + 1]
    else:  # zero-flux: reflect about the end nodes
        y[0], y[m - 1], y[m], y[-1] = y[2], y[m - 3], y[m + 2], y[-3]
    u, v = y[:m], y[m:]
    pu, pv = scratch[:m], scratch[m:]
    tmp = out[:m]                        # free until the stencil pass
    # prey: u*((k+s-u)*u - v - beta), predator: v*(k*u - delta*v^2 - beta)
    np.subtract(cfg.k + 1.0 / math.sqrt(cfg.delta), u, out=pu)
    pu *= u
    pu -= v
    np.multiply(v, v, out=pv)
    pv *= -cfg.delta
    np.multiply(u, cfg.k, out=tmp)
    pv += tmp
    inv_dx2 = 1.0 / (dx * dx)
    scratch -= cfg.beta + 2.0 * inv_dx2  # the Laplacian's diagonal term
    scratch *= y
    np.add(y[:-2], y[2:], out=out[1:-1])
    out *= inv_dx2
    out += scratch


def step(field: GridField, cfg: SimConfig) -> GridField:
    """One classical RK4 step."""
    check_stability(cfg, field.dx)
    dt, dx = cfg.dt, field.dx
    n = len(field.u)
    padded = np.empty((2, n + 2))
    padded[0, 1:-1] = field.u
    padded[1, 1:-1] = field.v
    y0 = padded.ravel()
    y = np.empty_like(y0)
    scratch = np.empty_like(y0)
    k = np.empty_like(y0)
    acc = np.empty_like(y0)              # its own block: snapshots keep it alive
    k[0] = k[-1] = acc[0] = acc[-1] = 0.0  # the stencil skips both ends
    # acc collects (k1 + 2 k2 + 2 k3 + k4) / 2; halving is exact, so the
    # sums round as in the textbook form
    _stage_rhs(y0, acc, scratch, dx, cfg)
    acc *= 0.5
    np.multiply(acc, dt, out=y)          # dt * k1/2 == dt/2 * k1 exactly
    y += y0
    _stage_rhs(y, k, scratch, dx, cfg)
    acc += k
    np.multiply(k, 0.5 * dt, out=y)
    y += y0
    _stage_rhs(y, k, scratch, dx, cfg)
    acc += k
    np.multiply(k, dt, out=y)
    y += y0
    _stage_rhs(y, k, scratch, dx, cfg)
    k *= 0.5
    acc += k
    acc *= dt / 3.0
    acc += y0
    new = acc.reshape(2, n + 2)[:, 1:-1]
    tn = field.t + dt
    _check_state(new, tn, field.x0, dx, cfg)
    return GridField(field.x0, dx, new[0], new[1], tn)


def simulate(initial: GridField, cfg: SimConfig):
    """Integrate to t_end, returning snapshots every snapshot_every steps.

    The initial field is always the first snapshot and the final field the
    last one.  Deterministic for identical inputs.
    """
    check_stability(cfg, initial.dx)
    _check_state(np.stack((initial.u, initial.v)), initial.t, initial.x0,
                 initial.dx, cfg)
    n_steps = round(cfg.t_end / cfg.dt)
    snapshots = [initial]
    f = initial
    for i in range(1, n_steps + 1):
        f = step(f, cfg)
        if i % cfg.snapshot_every == 0 or i == n_steps:
            f = GridField(f.x0, f.dx, f.u, f.v, initial.t + i * cfg.dt)
            snapshots.append(f)
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
