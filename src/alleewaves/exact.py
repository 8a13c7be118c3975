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
and keeps that case's row of _CASES and its rate q; pole_between and near_pole
answer the other modules' pole questions.  eval_amplitude(case, lam, mu, c1, c2, xi)
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


def _family_coeffs(family, sg, alpha0, mu, k, delta, lam, c, beta_model) -> ExpansionCoeffs:
    """Complete a family's (lam, c, beta) with the coefficients both families share;
    SingularParameterError names the family inputs where any of them is not finite."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    sd = math.sqrt(delta)
    co = ExpansionCoeffs(alpha1=sg * SQRT2, alpha0=alpha0, beta1=sg * SQRT2 / sd,
                         beta0=alpha0 / sd, lam=lam, mu=mu, c=c,
                         beta_model=beta_model, k=k, delta=delta)
    bad = [f"{name}={val}" for name, val in vars(co).items() if not math.isfinite(val)]
    if bad:
        why = (f"Set {family} is not finite at alpha0={alpha0!r}, mu={mu!r}, k={k!r},"
               f" delta={delta!r}: {', '.join(bad)}")
        if math.isfinite(lam) and math.isfinite(mu) and not math.isfinite(lam * lam - 4.0 * mu):
            # named first, as SolutionSpec names it where every field is finite
            why = f"lambda^2 - 4*mu overflows at lambda={lam!r}, mu={mu!r}; {why}"
        raise SingularParameterError(why)
    return co


def derive_set_a(alpha0, mu, k, delta, branch="upper") -> ExpansionCoeffs:
    """Family (a): wave speed c = -+k/sqrt(2)."""
    sg = _branch_sign(branch)
    return _family_coeffs("A", sg, alpha0, mu, k, delta,
                          lam=-sg * (k - 2.0 * alpha0) / SQRT2,
                          c=-sg * k / SQRT2,
                          beta_model=k * alpha0 - alpha0 * alpha0 + 2.0 * mu)


def derive_set_b(alpha0, mu, k, delta, branch="upper") -> ExpansionCoeffs:
    """Family (b): wave speed c = +-(2k - 3*alpha0 + 6*mu/alpha0)/sqrt(2).

    Raises SingularParameterError where alpha0**2 rounds to 0 (the family
    divides by it).
    """
    a0sq = alpha0 * alpha0
    if a0sq == 0:
        raise SingularParameterError(
            f"Set B requires alpha0**2 != 0 (it divides), got alpha0={alpha0!r}")
    sg = _branch_sign(branch)
    lam = sg * (a0sq + 2.0 * mu) / (SQRT2 * alpha0)
    c = sg * (2.0 * k - 3.0 * alpha0 + 6.0 * mu / alpha0) / SQRT2
    beta_model = -(a0sq - 2.0 * mu) * (-k * alpha0 + a0sq - 2.0 * mu) / a0sq
    return _family_coeffs("B", sg, alpha0, mu, k, delta, lam=lam, c=c, beta_model=beta_model)


FAMILIES = {"A": derive_set_a, "B": derive_set_b}


@dataclass(frozen=True)
class SolutionSpec:
    """One fully-specified solution; its case, row of _CASES and q are set once, here."""

    family: str          # 'A' or 'B'
    branch: str          # 'upper' or 'lower'
    case: CaseKind = field(init=False)
    c1: float
    c2: float
    coeffs: ExpansionCoeffs
    forms: _Forms = field(init=False, repr=False, compare=False)
    q: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be 'A' or 'B', got {self.family!r}")
        _branch_sign(self.branch)
        for name, val in (("c1", self.c1), ("c2", self.c2)):
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.c1 == 0 and self.c2 == 0:
            raise ValueError("(c1, c2) must not both be zero")
        for name, val in zip(("case", "forms", "q"), _forms(self.coeffs.lam, self.coeffs.mu)):
            object.__setattr__(self, name, val)

    @property
    def period(self):
        """Period of the profile in xi, or None when the case is not periodic."""
        return self.forms.period(self.q)


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
    do not count.  xi may be a function building it, called only to name one."""
    finite = {name: np.isfinite(val) for name, val in values.items()}
    if all(ok.all() for ok in finite.values()):
        return
    bad = np.ravel(where & ~np.logical_and.reduce(list(finite.values())))
    if bad.any():
        i = int(np.argmax(bad))
        name = next(name for name, ok in finite.items() if not np.ravel(ok)[i])
        with np.errstate(over="ignore", invalid="ignore"):  # x - c*t may overflow
            xi = np.ravel(xi() if callable(xi) else xi)
        raise NonFiniteError(f"{name} is not finite at xi={xi[i]:.6g}")


def _hyperbolic_amp(q, c1, c2, xi):
    # A = (P*e^(q*xi) + M*e^(-q*xi))/2, so A/s = h + d*tanh(q*xi - theta) with
    # e^(2*theta) = |M/P|: constant unless sign P != sign M, when A has a zero
    P, M = c1 + c2, c2 - c1
    with np.errstate(divide="ignore"):
        theta = 0.5 * (np.log(abs(M)) - np.log(abs(P)))  # +-inf when |c1| = |c2|
    w = 0.5 * (abs(c1) + abs(c2))
    h, d = w * (np.sign(P) + np.sign(M)), w * (np.sign(P) - np.sign(M))
    # in place, rounding as T = tanh(q*xi - theta), A = h + d*T, A' = q*(d + h*T)
    xi *= q
    xi -= theta
    T = np.tanh(xi, out=xi)
    A = np.multiply(d, T, out=np.empty_like(T))
    A += h
    T *= h
    T += d
    T *= q
    return A, T


def _trigonometric_amp(q, c1, c2, xi):
    # in place, rounding as A = c1*cos(q*xi) + c2*sin(q*xi), A' = q*(-c1*sin + c2*cos)
    xi *= q
    s = np.sin(xi, out=np.empty_like(xi))
    co = np.cos(xi, out=xi)
    A = np.multiply(c1, co, out=np.empty_like(co))
    A += c2 * s
    s *= -c1
    co *= c2
    s += co
    s *= q
    return A, s


class _Forms(NamedTuple):
    """The closed forms of one regime of G'' + lam*G' + mu*G = 0.

    G = exp(-lam*xi/2) * A(xi), and each form takes the rate
    q = sqrt(|lam^2 - 4*mu|)/2.  amp(q, c1, c2, xi) gives (A, A')/s, writing
    into the fresh float array xi, with a positive scale s in the hyperbolic
    row and s = 1 in the others, so both stay bounded and phi = -lam/2 + A'/A;
    amp2(q, A) gives A''/s from A by the case formula.  The zeros of A, the
    poles of phi, are numbered in increasing order: zero(q, c1, c2, n) gives
    the n-th, NaN where A has none, and index(q, c1, c2, xi) the real n at xi,
    0 where A has at most one zero.  period gives the period of phi, None if
    aperiodic, and advice how to seed a domain with no pole (it may read {period}).
    """

    amp: Callable
    amp2: Callable
    zero: Callable
    advice: str
    index: Callable = lambda q, c1, c2, xi: 0
    period: Callable = lambda q: None


_CASES = {
    # A = c1*sinh(q*xi) + c2*cosh(q*xi), q = sqrt(lam^2 - 4*mu)/2
    CaseKind.HYPERBOLIC: _Forms(
        amp=_hyperbolic_amp,
        amp2=lambda q, A: q * q * A,
        # tanh(q*xi) = -c2/c1 has a root only when |c2| < |c1|, at
        # e^(2*q*xi) = (c1 - c2)/(c1 + c2); atanh(-c2/c1) would round the
        # ratio and lose the digits of a nearly cancelling c1 + c2
        zero=lambda q, c1, c2, n: (
            0.5 * (math.log(abs(c1 - c2)) - math.log(abs(c1 + c2))) / q
            if abs(c2) < abs(c1) else math.nan),
        advice="choose |c2| >= |c1|, which leaves a hyperbolic seed pole-free"),
    # A = c1*cos(q*xi) + c2*sin(q*xi), q = sqrt(4*mu - lam^2)/2
    CaseKind.TRIGONOMETRIC: _Forms(
        amp=_trigonometric_amp,
        amp2=lambda q, A: -q * q * A,
        # A = R*cos(q*xi - p0), p0 = atan2(c2, c1), vanishes at q*xi = p0 + pi/2 + n*pi
        zero=lambda q, c1, c2, n: (math.atan2(c2, c1) + 0.5 * math.pi + n * math.pi) / q,
        advice="a trigonometric seed has a pole every {period:.6g} in xi, and c1, c2 only"
               " shift them: choose a domain shorter than that between two poles, or"
               " parameters with lambda^2 >= 4*mu",
        index=lambda q, c1, c2, xi: (q * xi - math.atan2(c2, c1) - 0.5 * math.pi) / math.pi,
        period=lambda q: math.pi / q),
    # A = c1 + c2*xi
    CaseKind.DEGENERATE: _Forms(
        amp=lambda q, c1, c2, xi: (np.add(np.multiply(xi, c2, out=xi), c1, out=xi),
                                   np.full_like(xi, float(c2))),
        amp2=lambda q, A: np.zeros_like(A),
        zero=lambda q, c1, c2, n: -c1 / c2 if c2 != 0 else math.nan,
        advice="a degenerate seed's one pole is at xi=-c1/c2: choose c1, c2 that put it"
               " outside the domain, or c2 = 0 for a constant seed"),
}


def _forms(lam, mu):
    """The case of (lam, mu), its table entry and its rate q."""
    case = classify_case(lam, mu)
    return case, _CASES[case], 0.5 * math.sqrt(abs(lam * lam - 4.0 * mu))


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
    actual, forms, q = _forms(lam, mu)
    if actual is not case:
        raise CaseMismatchError(case, discriminant(lam, mu), actual)
    A, Ap = forms.amp(q, c1, c2, np.array(xi, dtype=float))
    return A, Ap, forms.amp2(q, A)


def _phi(spec: SolutionSpec, xi):
    """phi and a validity mask (False where the pole floor is hit) at xi(),
    a function building a fresh float array for the amplitude row to
    overwrite, so no second copy of xi lives while the row runs; it runs
    again only to name a sample that is not finite.

    The exponential prefactor of G and the scale s cancel in phi = G'/G,
    which leaves phi = -lam/2 + A'/A on the bounded amplitude.  The mask
    means "near a pole" and nothing else: an unmasked phi that is not
    finite (A' overflowed, say) raises NonFiniteError.
    """
    co = spec.coeffs
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        A, phi = spec.forms.amp(spec.q, spec.c1, spec.c2, xi())
        phi /= A
        phi += -0.5 * co.lam
    ok = np.less(np.abs(A, out=A), POLE_FLOOR * (abs(spec.c1) + abs(spec.c2)),
                 out=np.empty(A.shape, dtype=bool))
    require_finite(xi, {"phi": phi}, where=np.logical_not(ok, out=ok))
    return phi, ok


def eval_phi(spec: SolutionSpec, xi):
    """phi = G'/G; raises PoleError if any sample hits the pole floor.

    The error names the zero of A nearest to the first such sample.
    """
    phi, ok = _phi(spec, lambda: np.array(xi, dtype=float))
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


def _uv(co: ExpansionCoeffs, phi, xi, ok=True):
    """u = alpha1*phi + alpha0 in a fresh array and v = beta1*phi + beta0 in
    phi's; NonFiniteError names the first xi where ok and either overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = co.alpha1 * phi
        u += co.alpha0
        phi *= co.beta1
        phi += co.beta0
    require_finite(xi, {"u": u, "v": phi}, where=ok)
    return u, phi


def eval_uv(spec: SolutionSpec, x, t):
    """The solution fields (u, v) at (x, t); xi = x - c*t."""
    co = spec.coeffs
    xi = np.asarray(x, dtype=float) - co.c * np.asarray(t, dtype=float)
    return _uv(co, eval_phi(spec, xi), xi)


def eval_uv_masked(spec: SolutionSpec, x, t):
    """(u, v, ok) with pole-adjacent samples masked out instead of raising."""
    co = spec.coeffs
    xi = lambda: np.asarray(np.asarray(x, dtype=float) - co.c * np.asarray(t, dtype=float))
    phi, ok = _phi(spec, xi)
    return (*_uv(co, phi, xi, ok), ok)


# find_singularities lists the poles of at most this many indices
MAX_POLE_INDICES = 10**7


def _pole_index(spec: SolutionSpec, xi):
    """The real pole index n at each xi; PoleIndexError names the first xi (NaN,
    or too far out) where n is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        n = spec.forms.index(spec.q, spec.c1, spec.c2, xi)
    if not np.isfinite(n).all():
        bad = float(np.asarray(xi, float)[~np.isfinite(n)].flat[0])
        raise PoleIndexError(f"the pole index at xi={bad:.6g} is not finite")
    return n


def find_singularities(spec: SolutionSpec, xi_lo, xi_hi):
    """Poles of the solution profile (closed-form zeros of A) in [xi_lo, xi_hi], sorted.

    A window spanning more than MAX_POLE_INDICES pole indices raises
    PoleIndexError instead of listing them; nearest_pole reads any one pole.
    """
    check_window("(xi_lo, xi_hi)", xi_lo, xi_hi)
    ns = range(math.floor(_pole_index(spec, xi_lo)), math.ceil(_pole_index(spec, xi_hi)) + 1)
    if len(ns) > MAX_POLE_INDICES:
        raise PoleIndexError(f"the window [{xi_lo:.6g}, {xi_hi:.6g}] spans {len(ns)} pole"
                             f" indices, more than {MAX_POLE_INDICES}; nearest_pole finds"
                             " the pole nearest any xi")
    zero = spec.forms.zero
    return [x for x in (zero(spec.q, spec.c1, spec.c2, n) for n in ns) if xi_lo <= x <= xi_hi]


def nearest_pole(spec: SolutionSpec, xi):
    """The pole of the solution profile nearest to each xi; NaN where it has none."""
    return spec.forms.zero(spec.q, spec.c1, spec.c2, np.rint(_pole_index(spec, xi)))


def pole_between(spec: SolutionSpec, lo, hi):
    """The pole nearest (lo + hi)/2 if it lies in [lo, hi], else None: if any
    pole lies in the window, so does the one nearest its middle."""
    p = float(nearest_pole(spec, 0.5 * (lo + hi)))
    return p if lo <= p <= hi else None


def near_pole(spec: SolutionSpec, xi, radius):
    """True at each xi within radius of a pole; False where the profile has none."""
    return np.abs(xi - nearest_pole(spec, xi)) <= radius  # NaN compares False
