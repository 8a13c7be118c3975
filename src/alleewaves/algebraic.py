"""The eight coefficient equations and numerical rediscovery of the families.

Substituting u = alpha1*phi + alpha0, v = beta1*phi + beta0 (phi = G'/G)
into the traveling-wave ODE system and collecting powers of phi gives four
equations per field, ordered by descending power (3, 2, 1, 0):

prey:
    2*a1 - a1^3
    3*a1*L - c*a1 + (k+s)*a1^2 - 3*a1^2*a0 - a1*b1
    (2*mu + L^2)*a1 - c*L*a1 - B*a1 + 2*(k+s)*a0*a1 - 3*a0^2*a1 - a1*b0 - a0*b1
    mu*a1*L - c*mu*a1 - B*a0 + (k+s)*a0^2 - a0^3 - a0*b0
predator:
    2*b1 - d*b1^3
    3*b1*L - c*b1 + k*a1*b1 - 3*d*b1^2*b0
    (2*mu + L^2)*b1 - c*L*b1 - B*b1 + k*a0*b1 + k*a1*b0 - 3*d*b0^2*b1
    mu*b1*L - c*mu*b1 - B*b0 + k*a0*b0 - d*b0^3

with s = 1/sqrt(d), L = lambda, B = beta.  Each row is exactly what
substituting the ansatz and the Riccati relation into the traveling-wave
ODEs produces; both closed-form families annihilate all eight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import NoConvergenceError, SingularParameterError
from .exact import FAMILIES, ExpansionCoeffs

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class CoeffResiduals:
    """The eight residuals, prey rows (powers 3..0) then predator rows."""

    r: tuple

    @property
    def max_abs(self) -> float:
        return max(abs(x) for x in self.r)


def _rows(a1, a0, b1, b0, L, mu, c, B, k, d):
    s = 1.0 / math.sqrt(d)
    ks = k + s
    return (
        2.0 * a1 - a1**3,
        3.0 * a1 * L - c * a1 + ks * a1**2 - 3.0 * a1**2 * a0 - a1 * b1,
        (2.0 * mu + L * L) * a1 - c * L * a1 - B * a1 + 2.0 * ks * a0 * a1
        - 3.0 * a0 * a0 * a1 - a1 * b0 - a0 * b1,
        mu * a1 * L - c * mu * a1 - B * a0 + ks * a0 * a0 - a0**3 - a0 * b0,
        2.0 * b1 - d * b1**3,
        3.0 * b1 * L - c * b1 + k * a1 * b1 - 3.0 * d * b1 * b1 * b0,
        (2.0 * mu + L * L) * b1 - c * L * b1 - B * b1 + k * a0 * b1
        + k * a1 * b0 - 3.0 * d * b0 * b0 * b1,
        mu * b1 * L - c * mu * b1 - B * b0 + k * a0 * b0 - d * b0**3,
    )


def coeff_residuals(coeffs: ExpansionCoeffs) -> CoeffResiduals:
    """Evaluate all eight rows at the given coefficients."""
    vals = coeffs.as_tuple()
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("all coefficient fields must be finite")
    a1, a0, b1, b0, L, mu, c, B, k, d = vals
    return CoeffResiduals(r=_rows(a1, a0, b1, b0, L, mu, c, B, k, d))


def _fun(y, k, d, mu, a0):
    a1, b1, b0, L, c, B = y
    return np.array(_rows(a1, a0, b1, b0, L, mu, c, B, k, d))


def _jac(y, k, d, mu, a0):
    """Analytic 8x6 Jacobian w.r.t. (a1, b1, b0, L, c, B)."""
    a1, b1, b0, L, c, B = y
    s = 1.0 / math.sqrt(d)
    ks = k + s
    J = np.zeros((8, 6))
    # row 0: 2 a1 - a1^3
    J[0, 0] = 2.0 - 3.0 * a1 * a1
    # row 1
    J[1, 0] = 3.0 * L - c + 2.0 * ks * a1 - 6.0 * a1 * a0 - b1
    J[1, 1] = -a1
    J[1, 3] = 3.0 * a1
    J[1, 4] = -a1
    # row 2
    J[2, 0] = (2.0 * mu + L * L) - c * L - B + 2.0 * ks * a0 - 3.0 * a0 * a0 - b0
    J[2, 1] = -a0
    J[2, 2] = -a1
    J[2, 3] = 2.0 * L * a1 - c * a1
    J[2, 4] = -L * a1
    J[2, 5] = -a1
    # row 3
    J[3, 0] = mu * L - c * mu
    J[3, 2] = -a0
    J[3, 3] = mu * a1
    J[3, 4] = -mu * a1
    J[3, 5] = -a0
    # row 4: 2 b1 - d b1^3
    J[4, 1] = 2.0 - 3.0 * d * b1 * b1
    # row 5
    J[5, 0] = k * b1
    J[5, 1] = 3.0 * L - c + k * a1 - 6.0 * d * b1 * b0
    J[5, 2] = -3.0 * d * b1 * b1
    J[5, 3] = 3.0 * b1
    J[5, 4] = -b1
    # row 6
    J[6, 0] = k * b0
    J[6, 1] = (2.0 * mu + L * L) - c * L - B + k * a0 - 3.0 * d * b0 * b0
    J[6, 2] = k * a1 - 6.0 * d * b0 * b1
    J[6, 3] = 2.0 * L * b1 - c * b1
    J[6, 4] = -L * b1
    J[6, 5] = -b1
    # row 7
    J[7, 1] = mu * L - c * mu
    J[7, 2] = -B + k * a0 - 3.0 * d * b0 * b0
    J[7, 3] = mu * b1
    J[7, 4] = -mu * b1
    J[7, 5] = -b0
    return J


def default_init_grid(alpha0, delta):
    """Deterministic multi-start grid over (a1, b1, b0, lam, c, beta)."""
    b0 = alpha0 / math.sqrt(delta)
    return [
        np.array([a1, b1, b0, L, c, B])
        for a1, b1, L, c, B in itertools.product(
            (-1.5, 1.5), (-1.5, 1.5), (-5.0, -1.0, 1.0, 5.0),
            (-5.0, -1.0, 1.0, 5.0), (0.5, 5.0),
        )
    ]


def solve_families(k, delta, mu, alpha0, init_grid=None):
    """Multi-start root search for the coefficient system.

    Unknowns are (alpha1, beta1, beta0, lambda, c, beta) with (k, delta, mu,
    alpha0) held fixed; 8 equations over 6 unknowns, consistent exactly on
    the family points.  Returns deduplicated ExpansionCoeffs roots sorted
    lexicographically; raises NoConvergenceError if nothing converges.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if init_grid is None:
        init_grid = default_init_grid(alpha0, delta)

    roots = []
    best = math.inf
    for y0 in init_grid:
        res = least_squares(
            _fun, y0, jac=_jac, method="lm", args=(k, delta, mu, alpha0),
            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=400,
        )
        rnorm = float(np.linalg.norm(_fun(res.x, k, delta, mu, alpha0)))
        best = min(best, rnorm)
        if rnorm < RESIDUAL_TOL:
            roots.append(res.x)
    if not roots:
        raise NoConvergenceError(best)

    # a1 = 0 or b1 = 0 kills the leading ansatz term and leaves lambda and c
    # undetermined (non-isolated manifolds); the expansion requires both nonzero
    roots = [y for y in roots if abs(y[0]) > 1e-6 and abs(y[1]) > 1e-6]
    if not roots:
        raise NoConvergenceError(best)

    roots.sort(key=lambda y: tuple(y))
    kept = []
    for y in roots:
        if all(np.max(np.abs(y - z)) > DEDUP_TOL for z in kept):
            kept.append(y)

    out = []
    for a1, b1, b0, L, c, B in kept:
        out.append(ExpansionCoeffs(
            alpha1=a1, alpha0=alpha0, beta1=b1, beta0=b0,
            lam=L, mu=mu, c=c, beta_model=B, k=k, delta=delta,
        ))
    return out


def deviation(a: ExpansionCoeffs, b: ExpansionCoeffs) -> float:
    """Largest componentwise difference of two roots on the six unknowns."""
    va = np.array([a.alpha1, a.beta1, a.beta0, a.lam, a.c, a.beta_model])
    vb = np.array([b.alpha1, b.beta1, b.beta0, b.lam, b.c, b.beta_model])
    return float(np.max(np.abs(va - vb)))


def match_root(roots, target: ExpansionCoeffs, tol=1e-6):
    """The first root matching target componentwise on the six unknowns, or None."""
    for r in roots:
        if deviation(r, target) < tol:
            return r
    return None


def closed_form_targets(k, delta, mu, alpha0):
    """The closed-form family roots available at these inputs, labeled."""
    out = []
    for family, derive in FAMILIES.items():
        for branch in ("upper", "lower"):
            try:
                out.append((f"Set {family} {branch}", derive(alpha0, mu, k, delta, branch)))
            except SingularParameterError:  # Set B at alpha0 = 0
                break
    return out
