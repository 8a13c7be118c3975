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

``solve_families`` finds the roots without the closed forms, in two stages.
A screen runs Levenberg-Marquardt from all starts of a grid at once, as one
NumPy iteration over a (starts, 6) array that follows MINPACK ``lmder``'s
rules (Moré, LNM 630, 1978).  Then MINPACK itself, through SciPy's
``least_squares``, polishes each distinct admissible point the screen brings
near a root.  ``_rows`` and ``_jac`` evaluate one point or a stack of them,
so both stages share one copy of each formula.
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
# screen points below this residual norm are polished; the polish decides
SCREEN_TOL = 1e-8
# both stages: MINPACK's ftol = xtol = gtol and its evaluation limit per start
_LM_TOL = 1e-15
_MAX_NFEV = 400
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


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
    """The eight rows at y = (a1, b1, b0, L, c, B), or along the last axis of a stack."""
    a1, b1, b0, L, c, B = y.T
    return np.array(_rows(a1, a0, b1, b0, L, mu, c, B, k, d)).T


def _jac(y, k, d, mu, a0):
    """Analytic Jacobian w.r.t. (a1, b1, b0, L, c, B): 8x6, or (S, 8, 6) for a stack."""
    a1, b1, b0, L, c, B = y.T
    s = 1.0 / math.sqrt(d)
    ks = k + s
    J = np.zeros(np.shape(y)[:-1] + (8, 6))
    # row 0: 2 a1 - a1^3
    J[..., 0, 0] = 2.0 - 3.0 * a1 * a1
    # row 1
    J[..., 1, 0] = 3.0 * L - c + 2.0 * ks * a1 - 6.0 * a1 * a0 - b1
    J[..., 1, 1] = -a1
    J[..., 1, 3] = 3.0 * a1
    J[..., 1, 4] = -a1
    # row 2
    J[..., 2, 0] = (2.0 * mu + L * L) - c * L - B + 2.0 * ks * a0 - 3.0 * a0 * a0 - b0
    J[..., 2, 1] = -a0
    J[..., 2, 2] = -a1
    J[..., 2, 3] = 2.0 * L * a1 - c * a1
    J[..., 2, 4] = -L * a1
    J[..., 2, 5] = -a1
    # row 3
    J[..., 3, 0] = mu * L - c * mu
    J[..., 3, 2] = -a0
    J[..., 3, 3] = mu * a1
    J[..., 3, 4] = -mu * a1
    J[..., 3, 5] = -a0
    # row 4: 2 b1 - d b1^3
    J[..., 4, 1] = 2.0 - 3.0 * d * b1 * b1
    # row 5
    J[..., 5, 0] = k * b1
    J[..., 5, 1] = 3.0 * L - c + k * a1 - 6.0 * d * b1 * b0
    J[..., 5, 2] = -3.0 * d * b1 * b1
    J[..., 5, 3] = 3.0 * b1
    J[..., 5, 4] = -b1
    # row 6
    J[..., 6, 0] = k * b0
    J[..., 6, 1] = (2.0 * mu + L * L) - c * L - B + k * a0 - 3.0 * d * b0 * b0
    J[..., 6, 2] = k * a1 - 6.0 * d * b0 * b1
    J[..., 6, 3] = 2.0 * L * b1 - c * b1
    J[..., 6, 4] = -L * b1
    J[..., 6, 5] = -b1
    # row 7
    J[..., 7, 1] = mu * L - c * mu
    J[..., 7, 2] = -B + k * a0 - 3.0 * d * b0 * b0
    J[..., 7, 3] = mu * b1
    J[..., 7, 4] = -mu * b1
    J[..., 7, 5] = -b0
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


def _lm_parameter(lam, g, delta, par):
    """MINPACK ``lmpar`` for a batch, on the eigenform of the scaled normal matrix.

    With D^-1 J^T J D^-1 = V diag(lam) V^T and g = V^T D^-1 J^T f, the scaled
    step D p is V w with w = -g / (lam + par).  Returns the parameter par >= 0
    and w: par = 0 when the Gauss-Newton step fits in 1.1 delta, otherwise the
    safeguarded Newton iteration of Moré (1978) on ||w(par)|| - delta, stopped
    once that is within 10% of delta or after ten iterations.
    """
    lam = np.maximum(lam, 0.0)
    singular = lam <= _EPS * lam.max(axis=-1, keepdims=True)
    inv = np.where(singular, 0.0, 1.0 / lam)  # pseudo-inverse: MINPACK drops a singular R's tail
    w = -g * inv
    dxnorm = np.linalg.norm(w, axis=-1)
    fp = dxnorm - delta
    gauss_newton = fp <= 0.1 * delta
    if gauss_newton.all():
        return np.zeros_like(par), w
    done = gauss_newton
    # lower bound: the Newton step from par = 0 when the matrix is nonsingular
    parl = np.where(singular.any(axis=-1), 0.0,
                    fp * dxnorm**2 / (delta * np.sum(w * w * inv, axis=-1)))
    gnorm = np.linalg.norm(g, axis=-1)
    paru = gnorm / delta
    paru = np.where(paru == 0.0, _TINY / np.minimum(delta, 0.1), paru)
    par = np.minimum(np.maximum(par, parl), paru)
    par = np.where(par == 0.0, gnorm / dxnorm, par)
    for it in range(10):
        if done.all():
            break
        par = np.where(done, par, np.where(par == 0.0, np.maximum(_TINY, 0.001 * paru), par))
        shifted = lam + par[:, None]
        w = np.where(done[:, None], w, -g / shifted)
        dxnorm = np.linalg.norm(w, axis=-1)
        prev, fp = fp, np.where(done, fp, dxnorm - delta)
        done = done | (np.abs(fp) <= 0.1 * delta) | ((parl == 0.0) & (fp <= prev) & (prev < 0.0)) \
            | (it == 9)
        parc = fp * dxnorm**2 / (delta * np.sum(w * w / shifted, axis=-1))
        parl = np.where(fp > 0.0, np.maximum(parl, par), parl)
        paru = np.where(fp < 0.0, np.minimum(paru, par), paru)
        par = np.where(done, par, np.maximum(parl, par + parc))
    return np.where(gauss_newton, 0.0, par), w


def _screen(y0, k, d, mu, a0):
    """Levenberg-Marquardt from every row of y0 at once, by MINPACK ``lmder``'s rules.

    Each start keeps the column scaling, trust radius, parameter updates and
    ftol / xtol / gtol tests of lmder with diag=None and factor=100 (Moré 1978);
    an eigendecomposition of the scaled normal matrix takes the place of its
    QR factorization.  Starts leave the batch when they stop; a start whose
    point, residual or Jacobian is not finite stops at once.  Every step
    evaluates the residuals of all running starts, so evaluations are counted
    once for the batch.  Returns each start's last accepted point and its
    residual norm (inf when the start itself is not finite).
    """
    tol = max(_LM_TOL, _EPS)
    with np.errstate(all="ignore"):
        x_out = np.array(y0, dtype=float).reshape(len(y0), 6)
        f = _fun(x_out, k, d, mu, a0)
        fn_out = np.linalg.norm(f, axis=-1)
        fn_out[~np.isfinite(fn_out) | ~np.isfinite(x_out).all(axis=-1)] = np.inf
        n = len(x_out)
        ids, x, fnorm = np.arange(n), x_out.copy(), fn_out.copy()
        stop = ~np.isfinite(fnorm)
        first = np.ones(n, dtype=bool)  # no step accepted yet
        fresh = np.ones(n, dtype=bool)  # the accepted point has no Jacobian yet
        diag, V, lam, g = np.zeros((n, 6)), np.zeros((n, 6, 6)), np.zeros((n, 6)), np.zeros((n, 6))
        delta, par, xnorm = np.zeros(n), np.zeros(n), np.zeros(n)
        nfev = 1
        while True:
            j = np.flatnonzero(fresh & ~stop)
            if j.size:
                J = _jac(x[j], k, d, mu, a0)
                cn = np.linalg.norm(J, axis=-2)
                init, ji = first[j], j[first[j]]
                diag[ji] = np.where(cn[init] == 0.0, 1.0, cn[init])
                xnorm[ji] = np.linalg.norm(diag[ji] * x[ji], axis=-1)
                delta[ji] = 100.0 * np.where(xnorm[ji] == 0.0, 1.0, xnorm[ji])
                Jtf = np.einsum("sij,si->sj", J, f[j])
                gnorm = np.max(np.where(cn == 0.0, 0.0, np.abs(Jtf) / (cn * fnorm[j, None])),
                               axis=-1, initial=0.0)
                diag[j] = np.maximum(diag[j], cn)
                Js = J / diag[j, None, :]
                lam[j], V[j] = np.linalg.eigh(np.einsum("sij,sik->sjk", Js, Js))
                g[j] = np.einsum("sjk,sj->sk", V[j], Jtf / diag[j])
                stop[j] |= (gnorm <= tol) | (fnorm[j] == 0.0) | ~np.isfinite(J).all(axis=(-2, -1))
            if stop.any():
                keep = ~stop
                ids, x, f, fnorm, first, diag, V, lam, g, delta, par, xnorm = (
                    a[keep] for a in (ids, x, f, fnorm, first, diag, V, lam, g, delta, par, xnorm))
                if not ids.size:
                    break

            par, w = _lm_parameter(lam, g, delta, par)
            step = np.einsum("sjk,sk->sj", V, w) / diag
            pnorm = np.linalg.norm(w, axis=-1)
            delta = np.where(first, np.minimum(delta, pnorm), delta)
            x1 = x + step
            f1 = _fun(x1, k, d, mu, a0)
            fnorm1 = np.linalg.norm(f1, axis=-1)
            nfev += 1

            actred = np.where(0.1 * fnorm1 < fnorm, 1.0 - (fnorm1 / fnorm) ** 2, -1.0)
            t1 = np.sum(lam * w * w, axis=-1) / fnorm**2
            t2 = par * pnorm**2 / fnorm**2
            prered = t1 + 2.0 * t2
            dirder = -(t1 + t2)
            ratio = np.where(prered != 0.0, actred / prered, 0.0)

            low = ratio <= 0.25
            temp = np.where(actred >= 0.0, 0.5, 0.5 * dirder / (dirder + 0.5 * actred))
            temp = np.where((0.1 * fnorm1 >= fnorm) | (temp < 0.1), 0.1, temp)
            grow = ~low & ((par == 0.0) | (ratio >= 0.75))
            delta = np.where(low, temp * np.minimum(delta, pnorm / 0.1),
                             np.where(grow, pnorm / 0.5, delta))
            par = np.where(low, par / temp, np.where(grow, 0.5 * par, par))

            fresh = ratio >= 1e-4
            x[fresh], f[fresh], fnorm[fresh] = x1[fresh], f1[fresh], fnorm1[fresh]
            xnorm[fresh] = np.linalg.norm(diag[fresh] * x1[fresh], axis=-1)
            first = first & ~fresh
            x_out[ids[fresh]], fn_out[ids[fresh]] = x1[fresh], fnorm1[fresh]

            stop = ((np.abs(actred) <= tol) & (prered <= tol) & (0.5 * ratio <= 1.0)) \
                | (delta <= tol * xnorm) | (nfev >= _MAX_NFEV) \
                | ~np.isfinite(delta) | ~np.isfinite(par)
    return x_out, fn_out


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
    """Multi-start root search for the coefficient system.

    Unknowns are (alpha1, beta1, beta0, lambda, c, beta) with (k, delta, mu,
    alpha0) held fixed; 8 equations over 6 unknowns, consistent exactly on
    the family points.  A batched Levenberg-Marquardt screen runs every start
    of the grid at once; each distinct admissible point it brings below
    SCREEN_TOL is then polished by MINPACK through ``least_squares``.  Returns
    the deduplicated ExpansionCoeffs roots with residual norm below
    RESIDUAL_TOL, sorted lexicographically; raises NoConvergenceError with the
    smallest residual norm either stage saw if there are none.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if init_grid is None:
        init_grid = default_init_grid(alpha0, delta)

    xs, fnorms = _screen(init_grid, k, delta, mu, alpha0)
    best = float(np.min(fnorms, initial=math.inf))
    roots = []
    for y0 in _distinct(xs[fnorms < SCREEN_TOL]):
        res = least_squares(
            _fun, y0, jac=_jac, method="lm", args=(k, delta, mu, alpha0),
            xtol=_LM_TOL, ftol=_LM_TOL, gtol=_LM_TOL, max_nfev=_MAX_NFEV,
        )
        rnorm = float(np.linalg.norm(_fun(res.x, k, delta, mu, alpha0)))
        best = min(best, rnorm)
        if rnorm < RESIDUAL_TOL:
            roots.append(res.x)
    kept = _distinct(roots)
    if not kept:
        raise NoConvergenceError(best)

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
