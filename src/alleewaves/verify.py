"""Independent residual checks for the closed-form solutions.

ode_residual and pde_residual both evaluate the model's two rows (_rows) and
build the same prey/predator report (_report); they differ only in how they
take derivatives:

* ode_residual / check_G_ode use fully analytic derivatives (via the Riccati
  identity phi' = -(mu + lam*phi + phi^2)), so any nonzero residual is a
  wrong formula, not discretization error.
* pde_residual uses 4th-order finite differences on sampled fields only, so
  it shares no derivative machinery with the analytic route.

Only pde_residual checks the profile phi(xi): with phi' and phi'' from the
Riccati identity, ode_residual's rows are cubics in phi with the coefficients
of algebraic._rows, and A' cancels from check_G_ode, so both stay at rounding
level with A' scaled by 1.01, where pde_residual reads 0.25 (figure-1 spec).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlleeWavesError, NonFiniteError, PoleError
from .exact import (SolutionSpec, check_window, eval_amplitude, eval_uv, near_pole,
                    phi_derivatives, pole_between, require_finite)
from .model import CaseKind

MIN_EXCLUSION_RADIUS = 1e-3


@dataclass(frozen=True)
class ResidualReport:
    """Per-equation residual norms plus the pole-exclusion bookkeeping; NonFiniteError
    names the first norm or diagnostic (by its to_kv key) that is not finite."""

    eq_names: tuple
    max_abs: tuple
    max_location: tuple
    l2: tuple
    n_excluded: int = 0
    exclusion_radius: float = 0.0
    extra: tuple = field(default_factory=tuple)  # (key, value) diagnostics

    def __post_init__(self):
        keys = [f"{kind}.{n}" for kind in ("max_abs", "l2") for n in self.eq_names]
        for key, val in zip(keys + [k for k, _ in self.extra],
                            (*self.max_abs, *self.l2, *(v for _, v in self.extra))):
            if not math.isfinite(val):
                raise NonFiniteError(f"{key} is not finite")

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


def _rows(co, du, dv, u, v):
    """The prey and predator rows of the model, each led by its derivative terms du, dv."""
    s = 1.0 / math.sqrt(co.delta)
    return (du - co.beta_model * u + (co.k + s) * u * u - u**3 - u * v,
            dv + co.k * u * v - co.beta_model * v - co.delta * v**3)


def _report(r1, r2, where, weight, extra=lambda max_abs: (), **fields) -> ResidualReport:
    """Max |r|, where(its flat index) and sqrt(weight * sum r^2) of each row,
    and the diagnostics extra(max_abs)."""
    rows = (r1, r2)
    absr = [np.abs(r).ravel() for r in rows]
    at = [int(a.argmax()) for a in absr]
    with np.errstate(over="ignore", invalid="ignore"):  # the report names an overflow
        l2 = tuple(math.sqrt(weight * (r * r).sum()) for r in rows)
    max_abs = tuple(float(a[i]) for a, i in zip(absr, at))
    return ResidualReport(eq_names=("prey", "predator"), max_abs=max_abs,
                          max_location=tuple(map(where, at)), l2=l2,
                          extra=extra(max_abs), **fields)


def ode_residual(spec: SolutionSpec, xi_lo, xi_hi, n_samples=2001) -> ResidualReport:
    """Residuals of the traveling-wave ODE system on a pole-excluded grid.

    NonFiniteError names the first xi where u, v or a row is not finite.
    """
    if n_samples < 16:
        raise ValueError("need n_samples >= 16")
    check_window("(xi_lo, xi_hi)", xi_lo, xi_hi)
    xi, h = np.linspace(xi_lo, xi_hi, n_samples, retstep=True)
    radius = max(10.0 * h, MIN_EXCLUSION_RADIUS)
    keep = ~near_pole(spec, xi, radius)
    if not keep.any():
        raise AlleeWavesError("entire interval lies in pole-exclusion zones")
    xs = xi[keep]
    co = spec.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        p, dp, d2p = phi_derivatives(spec, xs)
        u, v = co.alpha1 * p + co.alpha0, co.beta1 * p + co.beta0
        r1, r2 = _rows(co, co.alpha1 * d2p + co.c * (co.alpha1 * dp),
                       co.beta1 * d2p + co.c * (co.beta1 * dp), u, v)
    # a non-finite u or v makes both rows non-finite at the same xi
    require_finite(xs, {"the prey row": r1, "the predator row": r2})
    rel_scale = max(float(np.abs(u).max() ** 3), 1.0)
    return _report(r1, r2, lambda i: float(xs[i]), h,
                   n_excluded=int(n_samples - keep.sum()), exclusion_radius=radius,
                   extra=lambda mx: (("rel_max.prey", mx[0] / rel_scale),
                                     ("rel_max.predator", mx[1] / rel_scale)))


def _fd1(f, h):
    """4th-order first derivative along the last axis (2 points trimmed per end)."""
    return (f[:, :-4] - 8.0 * f[:, 1:-3] + 8.0 * f[:, 3:-1] - f[:, 4:]) / (12.0 * h)


def _fd2(f, h):
    """4th-order second derivative along the first axis (2 points trimmed per end)."""
    return (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)


def pde_residual(spec: SolutionSpec, x_window, t_window, nx=401, nt=101) -> ResidualReport:
    """Residuals of the PDE system from finite differences of sampled fields.

    The window must stay clear of the traveling pole trajectories for the
    whole time range; otherwise PoleError reports where a pole line enters it.
    NonFiniteError names the first xi = x - c*t where a row is not finite.
    """
    if nx < 8 or nt < 8:
        raise ValueError("need nx, nt >= 8")
    x0, x1 = x_window
    t0, t1 = t_window
    check_window("x_window", x0, x1)
    check_window("t_window", t0, t1)
    co = spec.coeffs
    # the window spans exactly these xi: a pole line x = xi* + c*t meets it iff xi* is one
    p = pole_between(spec, min(x0 - co.c * t0, x0 - co.c * t1),
                     max(x1 - co.c * t0, x1 - co.c * t1))
    if p is not None:
        raise PoleError(min(max(p + co.c * t0, x0), x1), p)

    x, hx = np.linspace(x0, x1, nx, retstep=True)
    t, ht = np.linspace(t0, t1, nt, retstep=True)
    inner = (slice(2, -2), slice(2, -2))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u, v = eval_uv(spec, x[:, None], t[None, :])
        r1, r2 = _rows(co, _fd2(u, hx)[:, 2:-2], _fd2(v, hx)[:, 2:-2], u[inner], v[inner])
        r1, r2 = _fd1(u, ht)[2:-2] - r1, _fd1(v, ht)[2:-2] - r2
        weight, trunc = hx * ht, max(hx, ht) ** 4
    require_finite(lambda: x[2:-2, None] - co.c * t[None, 2:-2],
                   {"the prey row": r1, "the predator row": r2})
    return _report(r1, r2, lambda i: (float(x[2 + i // (nt - 4)]), float(t[2 + i % (nt - 4)])),
                   weight, extra=lambda mx: (("fd_truncation_scale", trunc),))


def check_G_ode(case: CaseKind, lam, mu, c1, c2, xi_grid) -> ResidualReport:
    """Residual of G'' + lam*G' + mu*G from the closed form's own second derivative.

    G, G' and G'' are formed divided by E*s, E = exp(-lam*xi/2), from the
    case's bounded amplitude (A, A', A'')/s, so no finite window overflows;
    A'' comes from the case formula, never from the ODE.  The residual is
    normalized by max|A/s| on the grid.  Raises NonFiniteError where the
    amplitude (as at a non-finite xi) or the normalized residual is not finite.
    """
    xi = np.asarray(xi_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        A, Ap, App = eval_amplitude(case, lam, mu, c1, c2, xi)
        require_finite(xi, {"G": A, "G'": Ap, "G''": App})
        # G'/(E*s) and G''/(E*s) by the chain rule; G/(E*s) is A
        Gp = Ap - 0.5 * lam * A
        Gpp = App - lam * Ap + 0.25 * lam * lam * A
        scale = float(np.abs(A).max())
        norm = np.abs(Gpp + lam * Gp + mu * A) / (scale if scale > 0 else 1.0)
        l2 = math.sqrt((norm * norm).mean())
    require_finite(xi, {"the G residual": norm})
    i = int(norm.argmax())
    return ResidualReport(eq_names=("G_ode",), max_abs=(float(norm[i]),),
                          max_location=(float(xi[i]),), l2=(l2,))


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
