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

``solve_families`` finds every root without the closed forms, by
elimination (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
ch. 3).  An admissible root has a1 != 0 and b1 != 0, so rows 0 and 4 fix
a1 = +-sqrt(2) and b1 = +-sqrt(2/d): four sign branches.  In each branch
row 1 / a1 gives w = 3L - c = b1 - (k+s)*a1 + 3*a1*a0, row 5 / b1 gives
b0 = (w + k*a1) / (3*d*b1), and row 2 is linear in B with slope -a1, which
gives B as a quadratic in L.  Rows 3, 6 and 7 are then polynomials in L of
degree <= 2 (row 6 is constant); their coefficients come from ``_rows`` at
four L nodes by exact cubic interpolation, so each row stays written once.
The real roots of those polynomials, filtered on all eight rows, are the
candidates; MINPACK, through SciPy's ``least_squares``, polishes each
distinct one and ``RESIDUAL_TOL`` decides.  The candidates are complete,
so an empty result proves that no admissible root passes RESIDUAL_TOL.  If
all three polynomials vanish identically in a branch, L is free there and
the roots are not isolated: ``NonIsolatedRootsError`` names the branch.

Importing this module loads no SciPy.  The first polish imports
``least_squares`` and binds it as the module global of that name, so only a
root search (``solve_families``, the ``solve`` command) pays for SciPy.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import astuple, dataclass

import numpy as np

from .errors import NonIsolatedRootsError, SingularParameterError
from .exact import FAMILIES, ExpansionCoeffs

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-6
# a candidate's eight rows must be below this times max(1, |y|)^3 to be polished
_CANDIDATE_TOL = 1e-6
# rows 3, 6 and 7 vanish identically when all their polynomial coefficients
# are below this times max(1, |y at the nodes|)^3; a leading coefficient below
# this times its polynomial's largest one is dropped
_NOISE = 1e-12
# L nodes, and the map from values at them to cubic coefficients (highest power first)
_NODES = np.arange(4.0)
_FROM_NODES = np.linalg.inv(np.vander(_NODES))
# MINPACK's ftol = xtol = gtol and its evaluation limit per polish
_LM_TOL = 1e-15
_MAX_NFEV = 400


def __getattr__(name):
    # PEP 562: SciPy's least_squares is bound as a module global on first use
    if name == "least_squares":
        global least_squares
        from scipy.optimize import least_squares
        return least_squares
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    vals = astuple(coeffs)
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("all coefficient fields must be finite")
    a1, a0, b1, b0, L, mu, c, B, k, d = vals
    return CoeffResiduals(r=_rows(a1, a0, b1, b0, L, mu, c, B, k, d))


def _fun(y, k, d, mu, a0):
    """The eight rows at y = (a1, b1, b0, L, c, B), or along the last axis of a stack."""
    a1, b1, b0, L, c, B = y.T
    return np.array(_rows(a1, a0, b1, b0, L, mu, c, B, k, d)).T


def _jac(y, k, d, mu, a0):
    """Jacobian of the eight rows w.r.t. (a1, b1, b0, L, c, B), 8x6.

    The rows are polynomials, so a complex step of 1e-30 gives each column
    exactly to rounding, with no cancellation, from ``_rows`` itself.
    """
    return _fun(y + 1e-30j * np.eye(6), k, d, mu, a0).imag.T * 1e30


def default_init_grid(alpha0, delta):
    """128 deterministic starts over (a1, b1, b0, lam, c, beta), for ``init_grid``."""
    b0 = alpha0 / math.sqrt(delta)
    return [
        np.array([a1, b1, b0, L, c, B])
        for a1, b1, L, c, B in itertools.product(
            (-1.5, 1.5), (-1.5, 1.5), (-5.0, -1.0, 1.0, 5.0),
            (-5.0, -1.0, 1.0, 5.0), (0.5, 5.0),
        )
    ]


def _branch(a1, b1, k, d, mu, a0):
    """The points where rows 0, 1, 2, 4 and 5 vanish in one sign branch, as a function of L."""
    w = b1 - (k + 1.0 / math.sqrt(d)) * a1 + 3.0 * a1 * a0  # row 1 / a1: w = 3L - c
    b0 = (w + k * a1) / (3.0 * d * b1)  # row 5 / b1

    def at(L):
        c = 3.0 * L - w
        B = _rows(a1, a0, b1, b0, L, mu, c, 0.0, k, d)[2] / a1  # row 2 is (row 2 at B=0) - a1*B
        return np.stack(np.broadcast_arrays(a1, b1, b0, L, c, B), axis=-1)
    return at


def _candidates(k, d, mu, a0):
    """Every point (a1, b1, b0, L, c, B) with a1, b1 != 0 near which all eight rows vanish.

    Raises SingularParameterError, before any branch is searched, when the
    rows' coefficients in L or their scale max(1, |y at the nodes|)^3 overflow.
    """
    branches = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for a1, b1 in itertools.product((math.sqrt(2.0), -math.sqrt(2.0)),
                                            (math.sqrt(2.0 / d), -math.sqrt(2.0 / d))):
                at = _branch(a1, b1, k, d, mu, a0)
                ys = at(_NODES)
                branches.append((a1, b1, at, _FROM_NODES @ _fun(ys, k, d, mu, a0)[:, [3, 6, 7]],
                                 max(1.0, np.max(np.abs(ys))) ** 3))
        finite = all(np.isfinite(coeffs).all() and np.isfinite(scale)
                     for *_, coeffs, scale in branches)
    except OverflowError:  # Python's float ** raises where NumPy's returns inf
        finite = False
    if not finite:
        raise SingularParameterError(f"the coefficient rows overflow at k={k!r}, delta={d!r},"
                                     f" mu={mu!r}, alpha0={a0!r}")
    out = []
    for a1, b1, at, coeffs, scale in branches:
        if np.all(np.abs(coeffs) <= _NOISE * scale):
            raise NonIsolatedRootsError(a1, b1)
        # leading coefficients at rounding level next to the largest would put roots near infinity
        lead = np.argmax(np.abs(coeffs) > _NOISE * np.max(np.abs(coeffs), axis=0), axis=0)
        ys = at(np.concatenate([np.roots(p[i:]).real for p, i in zip(coeffs.T, lead)]))
        worst = np.max(np.abs(_fun(ys, k, d, mu, a0)), axis=-1)
        out.extend(ys[worst <= _CANDIDATE_TOL * np.maximum(1.0, np.max(np.abs(ys), axis=-1)) ** 3])
    return out


def _distinct(ys):
    """The admissible points among ys in a stable order, one per DEDUP_TOL cluster.

    a1 = 0 or b1 = 0 kills the leading ansatz term and leaves lambda and c
    undetermined (non-isolated manifolds); the expansion requires both
    nonzero.  The order is lexicographic on components rounded to 1e-9, so
    rounding noise in the shared a1 = +-sqrt(2) cannot decide it.
    """
    ys = sorted((y for y in ys if abs(y[0]) > 1e-6 and abs(y[1]) > 1e-6),
                key=lambda y: tuple(np.round(y, 9)))
    kept = []
    for y in ys:
        if all(np.max(np.abs(y - z)) > DEDUP_TOL for z in kept):
            kept.append(y)
    return kept


def solve_families(k, delta, mu, alpha0, init_grid=None):
    """Every admissible root of the coefficient system, by elimination.

    Unknowns are (alpha1, beta1, beta0, lambda, c, beta) with (k, delta, mu,
    alpha0) held fixed; 8 equations over 6 unknowns.  Each distinct
    candidate from the elimination is polished by MINPACK through
    ``least_squares``, and so is each start of ``init_grid`` if one is given
    (starts that are not finite, or whose rows are not, are skipped).
    Returns the deduplicated ExpansionCoeffs roots with residual norm below
    RESIDUAL_TOL, sorted lexicographically; an empty list means that no
    admissible root passes RESIDUAL_TOL.  Raises ValueError for a
    non-finite parameter or delta <= 0, and NonIsolatedRootsError when the
    roots of a sign branch form a curve in lambda (mu = alpha0 = 0).
    """
    for name, value in (("k", k), ("delta", delta), ("mu", mu), ("alpha0", alpha0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    args = (k, delta, mu, alpha0)
    starts = _distinct(_candidates(*args))
    with np.errstate(all="ignore"):
        for y0 in init_grid if init_grid is not None else ():
            y0 = np.asarray(y0, dtype=float)
            if y0.shape != (6,):
                raise ValueError(f"an init_grid start has 6 entries, got shape {y0.shape}")
            if np.isfinite(y0).all() and np.isfinite(_fun(y0, *args)).all():
                starts.append(y0)
        roots = []
        this = sys.modules[__name__]  # read least_squares as an attribute: __getattr__ loads it
        for y0 in starts:
            res = this.least_squares(_fun, y0, jac=_jac, method="lm", args=args, xtol=_LM_TOL,
                                     ftol=_LM_TOL, gtol=_LM_TOL, max_nfev=_MAX_NFEV)
            if np.linalg.norm(_fun(res.x, *args)) < RESIDUAL_TOL:
                roots.append(res.x)
    return [ExpansionCoeffs(alpha1=a1, alpha0=alpha0, beta1=b1, beta0=b0, lam=L, mu=mu, c=c,
                            beta_model=B, k=k, delta=delta)
            for a1, b1, b0, L, c, B in _distinct(roots)]


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
            except SingularParameterError:  # Set B at alpha0 = 0 or too small
                break
    return out
