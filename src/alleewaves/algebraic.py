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
The four branches are evaluated together, as length-4 columns, so each
stage evaluates the rows once for all of them.  The real roots of those
polynomials, the eigenvalues of np.roots' companion matrices from one
``eigvals`` call per matrix size, filtered on all eight rows, are the
candidates; ``least_squares`` polishes each distinct one by Gauss-Newton
steps and ``RESIDUAL_TOL`` decides.  The candidates are complete,
so an empty result proves that no admissible root passes RESIDUAL_TOL.  If
all three polynomials vanish identically in a branch, L is free there and
the roots are not isolated: ``NonIsolatedRootsError`` names the branch.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
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
# the signs of a1 (first row) and b1 in the four branches
_SIGNS = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
# Gauss-Newton steps per polish, at most
_GN_STEPS = 8
# a polished point, its eight rows, and how many times the rows were evaluated
_Polish = namedtuple("_Polish", "x fun nfev")


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
    exactly to rounding, with no cancellation, from ``_rows`` itself.  The
    step runs on Python scalars, one ``_rows`` call per column; where
    Python's ``**`` overflows, the matrix is NaN.
    """
    y = y.tolist()
    cols = []
    try:
        for j in range(6):
            a1, b1, b0, L, c, B = y[:j] + [y[j] + 1e-30j] + y[j + 1:]
            cols.append(_rows(a1, a0, b1, b0, L, mu, c, B, k, d))
    except OverflowError:
        return np.full((8, 6), np.nan)
    return np.array(cols).imag.T * 1e30


def least_squares(y, *args):
    """Polish y = (a1, b1, b0, L, c, B) by at most _GN_STEPS undamped Gauss-Newton steps.

    Each step solves J dy = -r in least squares (Nocedal & Wright, *Numerical
    Optimization*, 2nd ed., section 10.3).  Returns the iterate of least row
    norm as a ``_Polish``.  Stops early on a non-finite iterate, or once that
    norm is below RESIDUAL_TOL and a step fails to lower it.
    """
    r = _fun(y, *args)
    norm = np.linalg.norm(r)
    best, nfev = (norm, y, r), 1
    for _ in range(_GN_STEPS):
        jac = _jac(y, *args)
        if not (np.isfinite(norm) and np.isfinite(jac).all()):  # lstsq raises on NaN, hangs on inf
            break
        y = y - np.linalg.lstsq(jac, r, rcond=None)[0]
        r = _fun(y, *args)
        norm = np.linalg.norm(r)
        nfev += 1
        if norm < best[0]:
            best = (norm, y, r)
        elif best[0] < RESIDUAL_TOL:
            break
    return _Polish(best[1], best[2], nfev)


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


def _candidates(k, d, mu, a0):
    """The points (a1, b1, b0, L, c, B), a1, b1 != 0, near which all eight rows vanish, as rows.

    Raises SingularParameterError, before any branch is searched, when the
    rows' coefficients in L or their scale max(1, |y at the nodes|)^3 overflow.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            a1, b1 = math.sqrt(2.0) * _SIGNS[0], math.sqrt(2.0 / d) * _SIGNS[1]
            w = b1 - (k + 1.0 / math.sqrt(d)) * a1 + 3.0 * a1 * a0  # row 1 / a1: w = 3L - c
            b0 = (w + k * a1) / (3.0 * d * b1)  # row 5 / b1

            def at(i, L):
                """The points at L in branches i where rows 0, 1, 2, 4 and 5 vanish."""
                c = 3.0 * L - w[i]
                # row 2 is (row 2 at B=0) - a1*B
                B = _rows(a1[i], a0, b1[i], b0[i], L, mu, c, 0.0, k, d)[2] / a1[i]
                return np.stack([a1[i], b1[i], b0[i], L, c, B], axis=-1)

            ys = at(np.repeat(np.arange(4), 4), np.tile(_NODES, 4)).reshape(4, 4, 6)
            coeffs = _FROM_NODES @ _fun(ys, k, d, mu, a0)[..., [3, 6, 7]]  # (branch, power, row)
            scale = np.maximum(1.0, np.max(np.abs(ys), axis=(1, 2))) ** 3
        finite = np.isfinite(coeffs).all() and np.isfinite(scale).all()
    except OverflowError:  # Python's float ** raises where NumPy's returns inf
        finite = False
    if not finite:
        raise SingularParameterError(f"the coefficient rows overflow at k={k!r}, delta={d!r},"
                                     f" mu={mu!r}, alpha0={a0!r}")
    flat = np.all(np.abs(coeffs) <= _NOISE * scale[:, None, None], axis=(1, 2))
    if flat.any():
        raise NonIsolatedRootsError(*(float(x[np.argmax(flat)]) for x in (a1, b1)))
    # one polynomial per (branch, row), highest power first; as np.roots does, exact
    # trailing zeros give zero roots, and leading coefficients at rounding level next
    # to the largest are dropped, which would put roots near infinity
    p = coeffs.transpose(0, 2, 1).reshape(12, 4)
    big = np.abs(p) > _NOISE * np.max(np.abs(p), axis=1, keepdims=True)
    lead, last = np.argmax(big, axis=1), 3 - np.argmax(p[:, ::-1] != 0, axis=1)
    size = np.where(big.any(axis=1), last - lead, 0)
    roots = [np.zeros(3 - i) for i in last]
    for n in set(size.tolist()) - {0}:
        j = np.flatnonzero(size == n)
        q = p[j[:, None], lead[j, None] + np.arange(n + 1)]
        comp = np.zeros((len(j), n, n))  # np.roots' companion matrices, one eigvals call
        comp[:, 0] = -q[:, 1:] / q[:, :1]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        for jj, r in zip(j, np.linalg.eigvals(comp).real):
            roots[jj] = np.concatenate([r, roots[jj]])
    ys = at(np.repeat(np.arange(12) // 3, [len(r) for r in roots]), np.concatenate(roots))
    worst = np.max(np.abs(_fun(ys, k, d, mu, a0)), axis=-1)
    return ys[worst <= _CANDIDATE_TOL * np.maximum(1.0, np.max(np.abs(ys), axis=-1)) ** 3]


def _distinct(ys):
    """The admissible points among ys in a stable order, one per DEDUP_TOL cluster.

    a1 = 0 or b1 = 0 kills the leading ansatz term and leaves lambda and c
    undetermined (non-isolated manifolds); the expansion requires both
    nonzero.  The order is lexicographic on components rounded to 1e-9, so
    rounding noise in the shared a1 = +-sqrt(2) cannot decide it.
    """
    ys = np.reshape(ys, (-1, 6))
    ys = ys[(np.abs(ys[:, 0]) > 1e-6) & (np.abs(ys[:, 1]) > 1e-6)]
    ys = ys[np.lexsort(np.round(ys, 9).T[::-1])]
    far = np.max(np.abs(ys[:, None] - ys), axis=-1) > DEDUP_TOL
    kept = []
    for j in range(len(ys)):
        if far[j, kept].all():
            kept.append(j)
    return list(ys[kept])


def solve_families(k, delta, mu, alpha0, init_grid=None):
    """Every admissible root of the coefficient system, by elimination.

    Unknowns are (alpha1, beta1, beta0, lambda, c, beta) with (k, delta, mu,
    alpha0) held fixed; 8 equations over 6 unknowns.  Each distinct
    candidate from the elimination is polished by Gauss-Newton steps in
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
        for y0 in starts:
            res = least_squares(y0, *args)
            if np.linalg.norm(res.fun) < RESIDUAL_TOL:
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
            except SingularParameterError:  # the family is singular here, on either branch
                break
    return out
