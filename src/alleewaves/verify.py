"""Independent residual checks for the closed-form solutions.

Two deliberately different routes:

* ode_residual / check_G_ode use fully analytic derivatives (via the Riccati
  identity phi' = -(mu + lam*phi + phi^2)), so any nonzero residual is a
  wrong formula, not discretization error.
* pde_residual uses 4th-order finite differences on sampled fields only, so
  it shares no derivative machinery with the analytic route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlleeWavesError, PoleError
from .exact import (SolutionSpec, check_window, eval_amplitude, eval_uv, nearest_pole,
                    phi_derivatives)
from .model import CaseKind

MIN_EXCLUSION_RADIUS = 1e-3


@dataclass(frozen=True)
class ResidualReport:
    """Per-equation residual norms plus the pole-exclusion bookkeeping."""

    eq_names: tuple
    max_abs: tuple
    max_location: tuple
    l2: tuple
    n_excluded: int = 0
    exclusion_radius: float = 0.0
    extra: tuple = field(default_factory=tuple)  # (key, value) diagnostics

    @property
    def worst(self) -> float:
        return max(self.max_abs)

    def to_text(self) -> str:
        lines = ["residual report"]
        for name, mx, loc, l2 in zip(self.eq_names, self.max_abs,
                                     self.max_location, self.l2):
            lines.append(f"  {name}: max_abs={mx:.6e} at {loc} l2={l2:.6e}")
        lines.append(f"  excluded {self.n_excluded} samples"
                     f" (radius {self.exclusion_radius:.3g})")
        for key, val in self.extra:
            lines.append(f"  {key}={val:.6e}")
        return "\n".join(lines)

    def to_kv(self) -> str:
        pairs = []
        for i, name in enumerate(self.eq_names):
            pairs.append(f"max_abs.{name}={self.max_abs[i]:.17g}")
            pairs.append(f"l2.{name}={self.l2[i]:.17g}")
        pairs.append(f"n_excluded={self.n_excluded}")
        pairs.append(f"exclusion_radius={self.exclusion_radius:.17g}")
        for key, val in self.extra:
            pairs.append(f"{key}={val:.17g}")
        return "\n".join(pairs)


def _uv_derivatives(spec: SolutionSpec, xi):
    co = spec.coeffs
    p, dp, d2p = phi_derivatives(spec, xi)
    return (co.alpha1 * p + co.alpha0, co.alpha1 * dp, co.alpha1 * d2p,
            co.beta1 * p + co.beta0, co.beta1 * dp, co.beta1 * d2p)


def _ode_rows(spec: SolutionSpec, u, up, upp, v, vp, vpp):
    co = spec.coeffs
    s = 1.0 / math.sqrt(co.delta)
    r1 = (upp + co.c * up - co.beta_model * u + (co.k + s) * u * u
          - u**3 - u * v)
    r2 = vpp + co.c * vp + co.k * u * v - co.beta_model * v - co.delta * v**3
    return r1, r2


def ode_residual(spec: SolutionSpec, xi_lo, xi_hi, n_samples=2001) -> ResidualReport:
    """Residuals of the traveling-wave ODE system on a pole-excluded grid."""
    if n_samples < 16:
        raise ValueError("need n_samples >= 16")
    check_window("(xi_lo, xi_hi)", xi_lo, xi_hi)
    xi = np.linspace(xi_lo, xi_hi, n_samples)
    h = (xi_hi - xi_lo) / (n_samples - 1)
    radius = max(10.0 * h, MIN_EXCLUSION_RADIUS)
    keep = ~(np.abs(xi - nearest_pole(spec, xi)) <= radius)  # NaN: no pole
    if not keep.any():
        raise AlleeWavesError("entire interval lies in pole-exclusion zones")
    xs = xi[keep]
    derivs = _uv_derivatives(spec, xs)
    r1, r2 = _ode_rows(spec, *derivs)
    u = derivs[0]
    rel_scale = max(float(np.max(np.abs(u)) ** 3), 1.0)
    i1, i2 = int(np.argmax(np.abs(r1))), int(np.argmax(np.abs(r2)))
    return ResidualReport(
        eq_names=("prey", "predator"),
        max_abs=(float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))),
        max_location=(float(xs[i1]), float(xs[i2])),
        l2=(float(np.sqrt(h * np.sum(r1 * r1))),
            float(np.sqrt(h * np.sum(r2 * r2)))),
        n_excluded=int(n_samples - keep.sum()),
        exclusion_radius=radius,
        extra=(("rel_max.prey", float(np.max(np.abs(r1))) / rel_scale),
               ("rel_max.predator", float(np.max(np.abs(r2))) / rel_scale)),
    )


def _fd1(f, h, axis):
    """4th-order first derivative on the interior (2 points trimmed per side)."""
    f = np.moveaxis(f, axis, 0)
    d = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    return np.moveaxis(d, 0, axis)


def _fd2(f, h, axis):
    """4th-order second derivative on the interior."""
    f = np.moveaxis(f, axis, 0)
    d = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) \
        / (12.0 * h * h)
    return np.moveaxis(d, 0, axis)


def pde_residual(spec: SolutionSpec, x_window, t_window, nx=401, nt=101) -> ResidualReport:
    """Residuals of the PDE system from finite differences of sampled fields.

    The window must stay clear of the traveling pole trajectories for the
    whole time range; otherwise PoleError reports where a pole line enters it.
    """
    if nx < 8 or nt < 8:
        raise ValueError("need nx, nt >= 8")
    x0, x1 = x_window
    t0, t1 = t_window
    check_window("x_window", x0, x1)
    check_window("t_window", t0, t1)
    co = spec.coeffs
    # the window covers exactly xi in [lo, hi], so a pole line x = xi* + c*t
    # meets it iff xi* lies there, and then so does the pole nearest the middle
    lo = min(x0 - co.c * t0, x0 - co.c * t1)
    hi = max(x1 - co.c * t0, x1 - co.c * t1)
    p = float(nearest_pole(spec, 0.5 * (lo + hi)))
    if lo <= p <= hi:
        raise PoleError(min(max(p + co.c * t0, x0), x1), p)

    x = np.linspace(x0, x1, nx)
    t = np.linspace(t0, t1, nt)
    hx = (x1 - x0) / (nx - 1)
    ht = (t1 - t0) / (nt - 1)
    X, T = np.meshgrid(x, t, indexing="ij")
    u, v = eval_uv(spec, X, T)

    it = slice(2, -2)
    ui, vi = u[it, 2:-2], v[it, 2:-2]
    ut = _fd1(u, ht, 1)[it, :]
    vt = _fd1(v, ht, 1)[it, :]
    uxx = _fd2(u, hx, 0)[:, 2:-2]
    vxx = _fd2(v, hx, 0)[:, 2:-2]
    s = 1.0 / math.sqrt(co.delta)
    r1 = ut - (uxx - co.beta_model * ui + (co.k + s) * ui * ui - ui**3 - ui * vi)
    r2 = vt - (vxx + co.k * ui * vi - co.beta_model * vi - co.delta * vi**3)

    xi_, ti_ = x[2:-2], t[2:-2]

    def loc(r):
        i, j = np.unravel_index(int(np.argmax(np.abs(r))), r.shape)
        return (float(xi_[i]), float(ti_[j]))

    return ResidualReport(
        eq_names=("prey", "predator"),
        max_abs=(float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))),
        max_location=(loc(r1), loc(r2)),
        l2=(float(np.sqrt(hx * ht * np.sum(r1 * r1))),
            float(np.sqrt(hx * ht * np.sum(r2 * r2)))),
        extra=(("fd_truncation_scale", max(hx, ht) ** 4),),
    )


def check_G_ode(case: CaseKind, lam, mu, c1, c2, xi_grid) -> ResidualReport:
    """Residual of G'' + lam*G' + mu*G from the closed form's own second derivative.

    G, G' and G'' are formed divided by E*s, E = exp(-lam*xi/2), from the
    case's bounded amplitude (A, A', A'')/s, so no finite window overflows;
    A'' comes from the case formula, never from the ODE.  The residual is
    normalized by max|A/s| on the grid.  Raises AlleeWavesError where the
    amplitude is not finite, as at a non-finite xi.
    """
    xi = np.asarray(xi_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        A, Ap, App = eval_amplitude(case, lam, mu, c1, c2, xi)
    finite = np.isfinite(A) & np.isfinite(Ap) & np.isfinite(App)
    if not finite.all():
        raise AlleeWavesError(f"G or its derivatives are not finite at"
                              f" xi={xi[~finite][0]:.6g}")
    # G'/(E*s) and G''/(E*s) by the chain rule; G/(E*s) is A
    Gp = Ap - 0.5 * lam * A
    Gpp = App - lam * Ap + 0.25 * lam * lam * A
    res = Gpp + lam * Gp + mu * A
    scale = float(np.max(np.abs(A)))
    norm = np.abs(res) / (scale if scale > 0 else 1.0)
    i = int(np.argmax(norm))
    return ResidualReport(
        eq_names=("G_ode",),
        max_abs=(float(norm[i]),),
        max_location=(float(xi[i]),),
        l2=(float(np.sqrt(np.mean(norm * norm))),),
    )


def estimate_period(values, spacing) -> float:
    """Period of a sampled periodic signal by autocorrelation peak picking.

    Pole-adjacent samples may be NaN; they are filled with the median and the
    signal is clipped to its 5-95 percentile range so poles cannot dominate
    the correlation.  The peak nearest the largest usable lag multiple is
    refined parabolically and divided back down for precision.
    """
    w = np.asarray(values, dtype=float).copy()
    good = np.isfinite(w)
    if good.sum() < 16:
        raise ValueError("too few finite samples")
    med = float(np.median(w[good]))
    w[~good] = med
    lo, hi = np.percentile(w[good], [5.0, 95.0])
    w = np.clip(w, lo, hi)
    w = w - w.mean()
    n = len(w)
    ac = np.correlate(w, w, "full")[n - 1:]
    ac /= np.arange(n, 0, -1)  # unbiased

    neg = np.nonzero(ac < 0)[0]
    if len(neg) == 0:
        raise ValueError("signal shows no periodicity in the window")
    first = int(neg[0])
    imax = max(first + 2, int(0.9 * n))
    search = ac[first:imax]
    peak = float(np.max(search))
    if peak <= 0:
        raise ValueError("no positive autocorrelation peak past the first dip")
    # fundamental = spacing of the strong local maxima (ripple peaks from
    # clipping sit far below them)
    peaks = [k for k in range(first + 1, imax - 1)
             if ac[k] >= ac[k - 1] and ac[k] >= ac[k + 1] and ac[k] >= 0.5 * peak]

    def refine(kk):
        if 0 < kk < n - 1:
            denom = ac[kk - 1] - 2.0 * ac[kk] + ac[kk + 1]
            if denom != 0:
                return kk + 0.5 * (ac[kk - 1] - ac[kk + 1]) / denom
        return float(kk)

    if not peaks:
        p1 = refine(first + int(np.argmax(search)))
    elif len(peaks) == 1:
        p1 = refine(peaks[0])
    else:
        p1 = float(np.median(np.diff(peaks)))
    # use the highest clean multiple of the fundamental still inside the window
    m = max(1, int((n - 2) // max(p1, 1.0) * 0.75))
    km = int(round(m * p1))
    if km >= n - 1:
        raise ValueError("period exceeds the usable window")
    lo_k = max(1, km - max(2, int(0.2 * p1)))
    hi_k = min(n - 1, km + max(2, int(0.2 * p1)) + 1)
    kbest = lo_k + int(np.argmax(ac[lo_k:hi_k]))
    return refine(kbest) * spacing / m
