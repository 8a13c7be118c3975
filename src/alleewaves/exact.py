"""Closed-form traveling-wave solutions and their building blocks.

The solution fields are linear in the logarithmic derivative phi = G'/G of
the auxiliary oscillator G'' + lam*G' + mu*G = 0:

    u(xi) = alpha1*phi(xi) + alpha0,   v(xi) = beta1*phi(xi) + beta0,

with xi = x - c*t.  Two coefficient families close the algebraic system:

Set A:  alpha1 = +-sqrt(2), beta1 = +-sqrt(2/delta), beta0 = alpha0/sqrt(delta),
        c = -+k/sqrt(2), lam = -+(k - 2*alpha0)/sqrt(2),
        beta = k*alpha0 - alpha0**2 + 2*mu

Set B:  alpha1 = +-sqrt(2), beta1 = +-sqrt(2/delta), beta0 = alpha0/sqrt(delta),
        lam = +-(alpha0**2 + 2*mu)/(sqrt(2)*alpha0),
        c = +-(2*k - 3*alpha0 + 6*mu/alpha0)/sqrt(2),
        beta = -(alpha0**2 - 2*mu)*(-k*alpha0 + alpha0**2 - 2*mu)/alpha0**2

The "upper" branch takes the top sign throughout; "lower" the bottom one.

Note: Set B's discriminant is (alpha0**2 - 2*mu)**2 / (2*alpha0**2) >= 0,
so Set B admits only the hyperbolic and degenerate regimes.

A SolutionSpec classifies its case from lam^2 - 4*mu once, when it is built,
and eval_phi, phi_derivatives, eval_uv, eval_uv_masked, find_singularities
and nearest_pole all take the spec.  eval_amplitude(case, lam, mu, c1, c2, xi)
is the one raw entry, and the one place that checks a case it is given:
verify.check_G_ode tests the auxiliary oscillator from those numbers alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (CaseMismatchError, NonFiniteError, PoleError, PoleIndexError,
                     SingularParameterError)
from .model import CaseKind, classify_case, discriminant

SQRT2 = math.sqrt(2.0)

# Relative denominator floor triggering PoleError (times |c1|+|c2|)
POLE_FLOOR = 1e-6

def _branch_sign(branch: str) -> float:
    if branch not in ("upper", "lower"):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    return 1.0 if branch == "upper" else -1.0


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Full parameterization of one traveling-wave solution.

    No invariants are enforced here: the residual machinery must accept
    deliberately inconsistent coefficients.  Outputs of derive_set_a /
    derive_set_b satisfy alpha1**2 = 2, delta*beta1**2 = 2 and
    beta0 = alpha0/sqrt(delta).
    """

    alpha1: float
    alpha0: float
    beta1: float
    beta0: float
    lam: float
    mu: float
    c: float
    beta_model: float
    k: float
    delta: float


def _family_coeffs(sg, alpha0, mu, k, delta, lam, c, beta_model) -> ExpansionCoeffs:
    """Complete a family's (lam, c, beta) with the coefficients both families share."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    sd = math.sqrt(delta)
    return ExpansionCoeffs(alpha1=sg * SQRT2, alpha0=alpha0, beta1=sg * SQRT2 / sd,
                           beta0=alpha0 / sd, lam=lam, mu=mu, c=c,
                           beta_model=beta_model, k=k, delta=delta)


def derive_set_a(alpha0, mu, k, delta, branch="upper") -> ExpansionCoeffs:
    """Family (a): wave speed c = -+k/sqrt(2)."""
    sg = _branch_sign(branch)
    return _family_coeffs(sg, alpha0, mu, k, delta,
                          lam=-sg * (k - 2.0 * alpha0) / SQRT2,
                          c=-sg * k / SQRT2,
                          beta_model=k * alpha0 - alpha0 * alpha0 + 2.0 * mu)


def derive_set_b(alpha0, mu, k, delta, branch="upper") -> ExpansionCoeffs:
    """Family (b): wave speed c = +-(2k - 3*alpha0 + 6*mu/alpha0)/sqrt(2).

    Raises SingularParameterError where alpha0**2 rounds to 0 (the family
    divides by it) or lam, c or beta is not finite.
    """
    a0sq = alpha0 * alpha0
    if a0sq == 0:
        raise SingularParameterError(
            f"Set B requires alpha0**2 != 0 (it divides), got alpha0={alpha0!r}")
    sg = _branch_sign(branch)
    lam = sg * (a0sq + 2.0 * mu) / (SQRT2 * alpha0)
    c = sg * (2.0 * k - 3.0 * alpha0 + 6.0 * mu / alpha0) / SQRT2
    beta_model = -(a0sq - 2.0 * mu) * (-k * alpha0 + a0sq - 2.0 * mu) / a0sq
    if not all(map(math.isfinite, (lam, c, beta_model))):
        raise SingularParameterError(
            f"Set B is not finite at alpha0={alpha0!r}: lambda={lam}, c={c}, beta={beta_model}")
    return _family_coeffs(sg, alpha0, mu, k, delta, lam=lam, c=c, beta_model=beta_model)


FAMILIES = {"A": derive_set_a, "B": derive_set_b}


@dataclass(frozen=True)
class SolutionSpec:
    """One fully-specified solution; its case is classified from lambda and mu, once, here."""

    family: str          # 'A' or 'B'
    branch: str          # 'upper' or 'lower'
    case: CaseKind = field(init=False)
    c1: float
    c2: float
    coeffs: ExpansionCoeffs

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be 'A' or 'B', got {self.family!r}")
        _branch_sign(self.branch)
        for name, val in (("c1", self.c1), ("c2", self.c2)):
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.c1 == 0 and self.c2 == 0:
            raise ValueError("(c1, c2) must not both be zero")
        object.__setattr__(self, "case", classify_case(self.coeffs.lam, self.coeffs.mu))

    @property
    def period(self):
        """Period of the profile in xi, or None when the case is not periodic."""
        forms, q = _forms(self.case, self.coeffs.lam, self.coeffs.mu)
        return forms.period(q)


def make_spec(family, alpha0, mu, k, delta, branch="upper", c1=1.0, c2=0.0) -> SolutionSpec:
    """Derive the family coefficients and build their spec in one step."""
    if family not in FAMILIES:
        raise ValueError(f"family must be 'A' or 'B', got {family!r}")
    coeffs = FAMILIES[family](alpha0, mu, k, delta, branch)
    return SolutionSpec(family, branch, float(c1), float(c2), coeffs)


def check_window(name, lo, hi):
    """ValueError naming the window unless both ends are finite and lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"{name} must have finite ends in increasing order, got ({lo}, {hi})")


def require_finite(xi, values: dict, where=True):
    """NonFiniteError naming the first xi, and the first of values (name -> array
    shaped like xi) there, that is not finite; samples where `where` is False
    do not count."""
    finite = {name: np.isfinite(val) for name, val in values.items()}
    if all(ok.all() for ok in finite.values()):
        return
    bad = np.ravel(where & ~np.logical_and.reduce(list(finite.values())))
    if bad.any():
        i = int(np.argmax(bad))
        name = next(name for name, ok in finite.items() if not np.ravel(ok)[i])
        raise NonFiniteError(f"{name} is not finite at xi={np.ravel(xi)[i]:.6g}")


def _hyperbolic_amp(q, c1, c2, xi):
    # A = (P*e^(q*xi) + M*e^(-q*xi))/2, so A/s = h + d*tanh(q*xi - theta) with
    # e^(2*theta) = |M/P|: constant unless sign P != sign M, when A has a zero
    P, M = c1 + c2, c2 - c1
    with np.errstate(divide="ignore"):
        theta = 0.5 * (np.log(abs(M)) - np.log(abs(P)))  # +-inf when |c1| = |c2|
    w = 0.5 * (abs(c1) + abs(c2))
    h, d = w * (np.sign(P) + np.sign(M)), w * (np.sign(P) - np.sign(M))
    T = np.tanh(q * xi - theta)
    A = h + d * T
    return A, q * (d + h * T), q * q * A


def _trigonometric_amp(q, c1, c2, xi):
    s, co = np.sin(q * xi), np.cos(q * xi)
    A = c1 * co + c2 * s
    return A, q * (-c1 * s + c2 * co), -q * q * A


class _Forms(NamedTuple):
    """The closed forms of one regime of G'' + lam*G' + mu*G = 0.

    G = exp(-lam*xi/2) * A(xi), and each form takes the rate
    q = sqrt(|lam^2 - 4*mu|)/2.  amp gives (A, A', A'')/s on arrays, with a
    positive scale s in the hyperbolic row and s = 1 in the others, so all
    three stay bounded and phi = -lam/2 + A'/A.  The zeros of A, the poles of
    phi, are numbered in increasing order: zero(q, c1, c2, n) gives the n-th,
    NaN where A has none, and index(q, c1, c2, xi) the real n at xi, 0 where
    A has at most one zero.  period gives the period of phi, None if aperiodic.
    """

    amp: Callable
    zero: Callable
    index: Callable = lambda q, c1, c2, xi: 0
    period: Callable = lambda q: None


_CASES = {
    # A = c1*sinh(q*xi) + c2*cosh(q*xi), q = sqrt(lam^2 - 4*mu)/2
    CaseKind.HYPERBOLIC: _Forms(
        amp=_hyperbolic_amp,
        # tanh(q*xi) = -c2/c1 has a root only when |c2| < |c1|, at
        # e^(2*q*xi) = (c1 - c2)/(c1 + c2); atanh(-c2/c1) would round the
        # ratio and lose the digits of a nearly cancelling c1 + c2
        zero=lambda q, c1, c2, n: (
            0.5 * (math.log(abs(c1 - c2)) - math.log(abs(c1 + c2))) / q
            if abs(c2) < abs(c1) else math.nan)),
    # A = c1*cos(q*xi) + c2*sin(q*xi), q = sqrt(4*mu - lam^2)/2
    CaseKind.TRIGONOMETRIC: _Forms(
        amp=_trigonometric_amp,
        # A = R*cos(q*xi - p0), p0 = atan2(c2, c1), vanishes at q*xi = p0 + pi/2 + n*pi
        zero=lambda q, c1, c2, n: (math.atan2(c2, c1) + 0.5 * math.pi + n * math.pi) / q,
        index=lambda q, c1, c2, xi: (q * xi - math.atan2(c2, c1) - 0.5 * math.pi) / math.pi,
        period=lambda q: math.pi / q),
    # A = c1 + c2*xi
    CaseKind.DEGENERATE: _Forms(
        amp=lambda q, c1, c2, xi: (c1 + c2 * xi, np.full_like(xi, float(c2)),
                                   np.zeros_like(xi)),
        zero=lambda q, c1, c2, n: -c1 / c2 if c2 != 0 else math.nan),
}


def _forms(case: CaseKind, lam, mu):
    """The table entry of case and its rate q."""
    return _CASES[case], 0.5 * math.sqrt(abs(lam * lam - 4.0 * mu))


def eval_amplitude(case: CaseKind, lam, mu, c1, c2, xi):
    """The bounded amplitude (A, A', A'')/s of G = exp(-lam*xi/2) * A at xi.

    Hyperbolic:     A = c1*sinh(q*xi) + c2*cosh(q*xi),
                    s = (|P|*e^(q*xi) + |M|*e^(-q*xi)) / (2*(|c1| + |c2|)),
                    P = c1 + c2, M = c2 - c1
    Trigonometric:  A = c1*cos(q*xi) + c2*sin(q*xi),    s = 1
    Degenerate:     A = c1 + c2*xi,                     s = 1

    with q = sqrt(|lam^2 - 4*mu|)/2.  A'' is differentiated from the case
    formula, never taken from the ODE.  A case that disagrees with
    lam^2 - 4*mu raises CaseMismatchError.
    """
    actual = classify_case(lam, mu)
    if actual is not case:
        raise CaseMismatchError(case, discriminant(lam, mu), actual)
    forms, q = _forms(case, lam, mu)
    return forms.amp(q, c1, c2, np.asarray(xi, dtype=float))


def _phi(spec: SolutionSpec, xi):
    """phi and a validity mask (False where the pole floor is hit).

    The exponential prefactor of G and the scale s cancel in phi = G'/G,
    which leaves phi = -lam/2 + A'/A on the bounded amplitude.  The mask
    means "near a pole" and nothing else: an unmasked phi that is not
    finite (A' overflowed, say) raises NonFiniteError.
    """
    co = spec.coeffs
    forms, q = _forms(spec.case, co.lam, co.mu)
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        A, Ap, _ = forms.amp(q, spec.c1, spec.c2, xi)
        phi = -0.5 * co.lam + Ap / A
    ok = ~(np.abs(A) < POLE_FLOOR * (abs(spec.c1) + abs(spec.c2)))
    require_finite(xi, {"phi": phi}, where=ok)
    return phi, ok


def eval_phi(spec: SolutionSpec, xi):
    """phi = G'/G; raises PoleError if any sample hits the pole floor.

    The error names the zero of A nearest to the first such sample.
    """
    phi, ok = _phi(spec, xi)
    if not np.all(ok):
        bad = float(np.atleast_1d(np.asarray(xi, float))[~np.atleast_1d(ok)][0])
        raise PoleError(bad, float(nearest_pole(spec, bad)))
    return float(phi) if np.ndim(xi) == 0 else phi


def phi_derivatives(spec: SolutionSpec, xi):
    """(phi, phi', phi'') using the Riccati identity phi' = -(mu + lam*phi + phi^2)."""
    co = spec.coeffs
    phi = eval_phi(spec, xi)
    dphi = -(co.mu + co.lam * phi + phi * phi)
    d2phi = -(co.lam + 2.0 * phi) * dphi
    return phi, dphi, d2phi


def eval_uv(spec: SolutionSpec, x, t):
    """The solution fields (u, v) at (x, t); xi = x - c*t."""
    co = spec.coeffs
    phi = eval_phi(spec, np.asarray(x, dtype=float) - co.c * np.asarray(t, dtype=float))
    return co.alpha1 * phi + co.alpha0, co.beta1 * phi + co.beta0


def eval_uv_masked(spec: SolutionSpec, x, t):
    """(u, v, ok) with pole-adjacent samples masked out instead of raising."""
    co = spec.coeffs
    phi, ok = _phi(spec, np.asarray(x, dtype=float) - co.c * np.asarray(t, dtype=float))
    return co.alpha1 * phi + co.alpha0, co.beta1 * phi + co.beta0, ok


# find_singularities lists the poles of at most this many indices
MAX_POLE_INDICES = 10**7


def _pole_index(spec: SolutionSpec, xi):
    """The forms and q of spec's case and the real pole index n at each xi;
    PoleIndexError names the first xi (NaN, or too far out) where n is not finite."""
    forms, q = _forms(spec.case, spec.coeffs.lam, spec.coeffs.mu)
    with np.errstate(over="ignore", invalid="ignore"):
        n = forms.index(q, spec.c1, spec.c2, xi)
    if not np.isfinite(n).all():
        bad = float(np.asarray(xi, float)[~np.isfinite(n)].flat[0])
        raise PoleIndexError(f"the pole index at xi={bad:.6g} is not finite")
    return forms, q, n


def find_singularities(spec: SolutionSpec, xi_lo, xi_hi):
    """Poles of the solution profile (closed-form zeros of A) in [xi_lo, xi_hi], sorted.

    A window spanning more than MAX_POLE_INDICES pole indices raises
    PoleIndexError instead of listing them; nearest_pole reads any one pole.
    """
    check_window("(xi_lo, xi_hi)", xi_lo, xi_hi)
    forms, q, n_lo = _pole_index(spec, xi_lo)
    ns = range(math.floor(n_lo), math.ceil(_pole_index(spec, xi_hi)[2]) + 1)
    if len(ns) > MAX_POLE_INDICES:
        raise PoleIndexError(f"the window [{xi_lo:.6g}, {xi_hi:.6g}] spans {len(ns)} pole"
                             f" indices, more than {MAX_POLE_INDICES}; nearest_pole finds"
                             " the pole nearest any xi")
    return [x for x in (forms.zero(q, spec.c1, spec.c2, n) for n in ns) if xi_lo <= x <= xi_hi]


def nearest_pole(spec: SolutionSpec, xi):
    """The pole of the solution profile nearest to each xi; NaN where it has none."""
    forms, q, n = _pole_index(spec, xi)
    return forms.zero(q, spec.c1, spec.c2, np.rint(n))
