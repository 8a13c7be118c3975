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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import CaseMismatchError, PoleError, SingularParameterError
from .model import CaseKind, classify_case, discriminant

SQRT2 = math.sqrt(2.0)

# Relative denominator floor triggering PoleError (times |c1|+|c2|)
POLE_FLOOR = 1e-6

_BRANCH_SIGN = {"upper": 1.0, "lower": -1.0}


def _branch_sign(branch: str) -> float:
    try:
        return _BRANCH_SIGN[branch]
    except KeyError:
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}") from None


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

    def as_tuple(self):
        return (
            self.alpha1, self.alpha0, self.beta1, self.beta0,
            self.lam, self.mu, self.c, self.beta_model, self.k, self.delta,
        )


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


def _check_case(case: CaseKind, lam, mu):
    actual = classify_case(lam, mu)
    if actual is not case:
        raise CaseMismatchError(
            f"case {case.value} inconsistent with lambda^2-4mu="
            f"{discriminant(lam, mu):.6g} ({actual.value})"
        )


@dataclass(frozen=True)
class SolutionSpec:
    """One fully-specified solution: family, sign branch, case, c1/c2, coefficients."""

    family: str          # 'A' or 'B'
    branch: str          # 'upper' or 'lower'
    case: CaseKind
    c1: float
    c2: float
    coeffs: ExpansionCoeffs

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be 'A' or 'B', got {self.family!r}")
        _branch_sign(self.branch)
        if self.c1 == 0 and self.c2 == 0:
            raise ValueError("(c1, c2) must not both be zero")
        _check_case(self.case, self.coeffs.lam, self.coeffs.mu)

    @property
    def period(self):
        """Period of the profile in xi, or None when the case is not periodic."""
        forms, q = _forms(self.case, self.coeffs.lam, self.coeffs.mu)
        return forms.period(q)


def make_spec(family, alpha0, mu, k, delta, branch="upper", c1=1.0, c2=0.0) -> SolutionSpec:
    """Derive the family coefficients and classify the case in one step."""
    if family not in FAMILIES:
        raise ValueError(f"family must be 'A' or 'B', got {family!r}")
    coeffs = FAMILIES[family](alpha0, mu, k, delta, branch)
    case = classify_case(coeffs.lam, coeffs.mu)
    return SolutionSpec(family=family, branch=branch, case=case,
                        c1=float(c1), c2=float(c2), coeffs=coeffs)


def _hyperbolic_amp(q, c1, c2, xi):
    T = np.tanh(q * xi)  # the row is divided by cosh(q*xi), bounded where cosh overflows
    A = c1 * T + c2
    return A, q * (c1 + c2 * T), q * q * A


def _trigonometric_amp(q, c1, c2, xi):
    s, co = np.sin(q * xi), np.cos(q * xi)
    A = c1 * co + c2 * s
    return A, q * (-c1 * s + c2 * co), -q * q * A


def _trigonometric_zeros(q, c1, c2, xi_lo, xi_hi):
    # A = R*cos(q*xi - p0) vanishes at q*xi = p0 + pi/2 + n*pi
    p0 = math.atan2(c2, c1)
    n_lo = math.floor((q * xi_lo - p0 - 0.5 * math.pi) / math.pi) - 1
    n_hi = math.ceil((q * xi_hi - p0 - 0.5 * math.pi) / math.pi) + 1
    return [(p0 + 0.5 * math.pi + n * math.pi) / q for n in range(n_lo, n_hi + 1)]


class _Forms(NamedTuple):
    """The closed forms of one regime of G'' + lam*G' + mu*G = 0.

    G = exp(-lam*xi/2) * A(xi), and each form takes the rate
    q = sqrt(|lam^2 - 4*mu|)/2.  amp gives (A, A', A'')/s on arrays, with
    s = cosh(q*xi) in the hyperbolic row and s = 1 in the others, so all
    three stay bounded and phi = -lam/2 + A'/A; zeros gives the closed-form
    zeros of A, the poles of phi, covering [xi_lo, xi_hi]; period gives the
    period of phi, None if aperiodic.
    """

    amp: Callable
    zeros: Callable
    period: Callable = lambda q: None


_CASES = {
    # A = c1*sinh(q*xi) + c2*cosh(q*xi), q = sqrt(lam^2 - 4*mu)/2
    CaseKind.HYPERBOLIC: _Forms(
        amp=_hyperbolic_amp,
        # tanh(q*xi) = -c2/c1 has a root only when |c2| < |c1|
        zeros=lambda q, c1, c2, xi_lo, xi_hi: (
            [math.atanh(-c2 / c1) / q] if c1 != 0 and abs(c2) < abs(c1) else [])),
    # A = c1*cos(q*xi) + c2*sin(q*xi), q = sqrt(4*mu - lam^2)/2
    CaseKind.TRIGONOMETRIC: _Forms(
        amp=_trigonometric_amp,
        zeros=_trigonometric_zeros,
        period=lambda q: math.pi / q),
    # A = c1 + c2*xi
    CaseKind.DEGENERATE: _Forms(
        amp=lambda q, c1, c2, xi: (c1 + c2 * xi, np.full_like(xi, float(c2)),
                                   np.zeros_like(xi)),
        zeros=lambda q, c1, c2, xi_lo, xi_hi: [-c1 / c2] if c2 != 0 else []),
}


def _forms(case: CaseKind, lam, mu):
    """The table entry of case, checked against (lam, mu), and its rate q."""
    _check_case(case, lam, mu)
    return _CASES[case], 0.5 * math.sqrt(abs(lam * lam - 4.0 * mu))


def eval_amplitude(case: CaseKind, lam, mu, c1, c2, xi):
    """The bounded amplitude (A, A', A'')/s of G = exp(-lam*xi/2) * A at xi.

    Hyperbolic:     A = c1*sinh(q*xi) + c2*cosh(q*xi),  s = cosh(q*xi)
    Trigonometric:  A = c1*cos(q*xi) + c2*sin(q*xi),    s = 1
    Degenerate:     A = c1 + c2*xi,                     s = 1

    with q = sqrt(|lam^2 - 4*mu|)/2.  A'' is differentiated from the case
    formula, never taken from the ODE.
    """
    forms, q = _forms(case, lam, mu)
    return forms.amp(q, c1, c2, np.asarray(xi, dtype=float))


def phi_with_mask(case: CaseKind, lam, mu, c1, c2, xi):
    """phi and a validity mask (False where the pole floor is hit).

    The exponential prefactor of G and the scale s cancel in phi = G'/G,
    which leaves phi = -lam/2 + A'/A on the bounded amplitude.
    """
    A, Ap, _ = eval_amplitude(case, lam, mu, c1, c2, xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = -0.5 * lam + Ap / A
    ok = np.abs(A) >= POLE_FLOOR * (abs(c1) + abs(c2))
    return phi, ok


def eval_phi(case: CaseKind, lam, mu, c1, c2, xi):
    """phi = G'/G; raises PoleError if any sample hits the pole floor.

    The error names the zero of A nearest to the first such sample, wherever
    it lies: within one period when A is periodic, else on the whole line,
    where A has at most one zero.
    """
    phi, ok = phi_with_mask(case, lam, mu, c1, c2, xi)
    if not np.all(ok):
        bad = float(np.atleast_1d(np.asarray(xi, float))[~np.atleast_1d(ok)][0])
        forms, q = _forms(case, lam, mu)
        reach = forms.period(q) or math.inf
        poles = find_singularities_raw(case, lam, mu, c1, c2, bad - reach, bad + reach)
        nearest = min(poles, key=lambda p: abs(p - bad)) if poles else None
        raise PoleError(bad, nearest)
    if np.ndim(xi) == 0:
        return float(phi)
    return phi


def phi_derivatives(case: CaseKind, lam, mu, c1, c2, xi):
    """(phi, phi', phi'') using the Riccati identity phi' = -(mu + lam*phi + phi^2)."""
    phi = eval_phi(case, lam, mu, c1, c2, xi)
    dphi = -(mu + lam * phi + phi * phi)
    d2phi = -(lam + 2.0 * phi) * dphi
    return phi, dphi, d2phi


def eval_uv(spec: SolutionSpec, x, t):
    """The solution fields (u, v) at (x, t); xi = x - c*t."""
    co = spec.coeffs
    xi = np.asarray(x, dtype=float) - co.c * np.asarray(t, dtype=float)
    phi = eval_phi(spec.case, co.lam, co.mu, spec.c1, spec.c2, xi)
    u = co.alpha1 * phi + co.alpha0
    v = co.beta1 * phi + co.beta0
    return u, v


def eval_uv_masked(spec: SolutionSpec, x, t):
    """(u, v, ok) with pole-adjacent samples masked out instead of raising."""
    co = spec.coeffs
    xi = np.asarray(x, dtype=float) - co.c * np.asarray(t, dtype=float)
    phi, ok = phi_with_mask(spec.case, co.lam, co.mu, spec.c1, spec.c2, xi)
    u = co.alpha1 * phi + co.alpha0
    v = co.beta1 * phi + co.beta0
    return u, v, ok


def find_singularities_raw(case: CaseKind, lam, mu, c1, c2, xi_lo, xi_hi):
    """All zeros of the case amplitude in [xi_lo, xi_hi], sorted.

    The zeros are the case's closed forms; an empty list is a valid result.
    A case that disagrees with lam^2 - 4*mu raises CaseMismatchError.
    """
    if xi_lo >= xi_hi:
        raise ValueError("need xi_lo < xi_hi")
    forms, q = _forms(case, lam, mu)
    return sorted(x for x in forms.zeros(q, c1, c2, xi_lo, xi_hi) if xi_lo <= x <= xi_hi)


def find_singularities(spec: SolutionSpec, xi_lo, xi_hi):
    """Poles of the solution profile (zeros of G) in [xi_lo, xi_hi]."""
    co = spec.coeffs
    return find_singularities_raw(spec.case, co.lam, co.mu, spec.c1, spec.c2,
                                  xi_lo, xi_hi)
