import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import alleewaves.algebraic as alg
from alleewaves.algebraic import (DEDUP_TOL, RESIDUAL_TOL, _fun, _jac,
                                  closed_form_targets, coeff_residuals,
                                  default_init_grid, match_root,
                                  solve_families)
from alleewaves.errors import (NoConvergenceError, NonIsolatedRootsError,
                               SingularParameterError)
from alleewaves.exact import ExpansionCoeffs, derive_set_a, derive_set_b

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny

# a rediscover-range draw from which no start of the 128-start grid reaches
# an admissible root (the closed-form beta lies far outside the grid's
# (0.5, 5)); all four closed forms are roots
NO_ROOT = dict(k=7.92716605802171, delta=4.425510927931301,
               mu=1.2872475159527776, alpha0=1.5249218747823625)

# one input each, changed from (k, delta, mu, alpha0) = (1, 2, 0.5, 0.7), whose
# rows overflow: Python's float ** on alpha0 and on b1 = sqrt(2/delta), and
# the scale max(1, |y|)^3 on c (from k) and on beta (from mu)
OVERFLOWING = [("alpha0", 1e110), ("delta", 1e-300), ("k", 1e200), ("mu", 1e300)]


def reference_solve_families(k, delta, mu, alpha0, init_grid=None):
    """The per-start loop: one MINPACK least_squares call from every start."""
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


def _unknowns(r):
    return np.array([r.alpha1, r.beta1, r.beta0, r.lam, r.c, r.beta_model])


def _stable_sorted(roots):
    return sorted((_unknowns(r) for r in roots), key=lambda y: tuple(np.round(y, 9)))


def _row_terms(co):
    """The monomials of each coefficient row, as listed in the algebraic module docstring."""
    a1, a0, b1, b0, L, mu, c, B, k, d = co.as_tuple()
    ks = k + 1.0 / math.sqrt(d)
    return (
        (2 * a1, a1**3),
        (3 * a1 * L, c * a1, ks * a1**2, 3 * a1**2 * a0, a1 * b1),
        (2 * mu * a1, L * L * a1, c * L * a1, B * a1, 2 * ks * a0 * a1, 3 * a0**2 * a1,
         a1 * b0, a0 * b1),
        (mu * a1 * L, c * mu * a1, B * a0, ks * a0**2, a0**3, a0 * b0),
        (2 * b1, d * b1**3),
        (3 * b1 * L, c * b1, k * a1 * b1, 3 * d * b1**2 * b0),
        (2 * mu * b1, L * L * b1, c * L * b1, B * b1, k * a0 * b1, k * a1 * b0,
         3 * d * b0**2 * b1),
        (mu * b1 * L, c * mu * b1, B * b0, k * a0 * b0, d * b0**3),
    )


class TestCoeffResiduals:
    def test_set_a_is_exact_root(self):
        co = derive_set_a(1.2, 0.2, 5.9, 3.0, "upper")
        assert coeff_residuals(co).max_abs < 1e-12

    def test_set_b_is_exact_root(self):
        co = derive_set_b(1.0, 0.5, 1.0, 1.0, "upper")
        assert coeff_residuals(co).max_abs < 1e-12

    def test_violated_cubic_row(self):
        co = replace(derive_set_a(1.2, 0.2, 5.9, 3.0, "upper"), alpha1=1.0)
        r = coeff_residuals(co).r
        assert r[0] == 1.0  # 2*1 - 1**3

    def test_random_closure_both_families(self):
        rng = np.random.RandomState(21)
        for _ in range(250):
            a0 = rng.uniform(-5, 5)
            mu = rng.uniform(-5, 5)
            k = rng.uniform(0.01, 10)
            d = rng.uniform(0.1, 10)
            for br in ("upper", "lower"):
                assert coeff_residuals(derive_set_a(a0, mu, k, d, br)).max_abs < 1e-12
                if abs(a0) >= 0.1:
                    assert coeff_residuals(derive_set_b(a0, mu, k, d, br)).max_abs < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(a0=st.floats(-5, 5), mu=st.floats(-5, 5), k=st.floats(0.01, 10),
           d=st.floats(0.1, 10), family=st.sampled_from("AB"),
           branch=st.sampled_from(("upper", "lower")))
    def test_closure_is_rounding_at_term_scale(self, a0, mu, k, d, family, branch):
        # each row cancels to rounding of its largest monomial, not to an
        # absolute 1e-12: Set B upper at a0=0.25, mu=4, k=0.25, d=0.109375 has
        # terms near 6e3 and a row-6 residual of 1.3e-12.  TINY covers
        # underflow: a0 = 4e-162 leaves subnormal terms and a 5e-324 residual
        if family == "B" and abs(a0) < 0.1:
            return
        derive = derive_set_a if family == "A" else derive_set_b
        co = derive(a0, mu, k, d, branch)
        for r, terms in zip(coeff_residuals(co).r, _row_terms(co)):
            assert abs(r) <= 16 * (EPS * max(abs(t) for t in terms) + TINY)

    def test_nonfinite_rejected(self):
        co = replace(derive_set_a(1.2, 0.2, 5.9, 3.0, "upper"), c=math.nan)
        with pytest.raises(ValueError):
            coeff_residuals(co)


class TestSolveFamilies:
    def test_figure1_inputs_recover_set_a(self):
        roots = solve_families(5.9, 3.0, 0.2, 1.2)
        target = derive_set_a(1.2, 0.2, 5.9, 3.0, "upper")
        assert match_root(roots, target, tol=1e-6) is not None

    def test_unit_inputs_recover_both_families(self):
        roots = solve_families(1.0, 1.0, 0.5, 1.0)
        for _, target in closed_form_targets(1.0, 1.0, 0.5, 1.0):
            assert match_root(roots, target, tol=1e-6) is not None

    def test_alpha0_zero_set_b_not_applicable(self):
        targets = closed_form_targets(1.0, 1.0, 0.2, 0.0)
        assert all(name.startswith("Set A") for name, _ in targets)
        roots = solve_families(1.0, 1.0, 0.2, 0.0)
        for _, target in targets:
            assert match_root(roots, target, tol=1e-6) is not None

    def test_all_roots_pass_residuals(self):
        for r in solve_families(5.9, 3.0, 0.2, 1.2):
            assert coeff_residuals(r).max_abs < 1e-10

    def test_deterministic(self):
        a = solve_families(1.0, 1.0, 0.5, 1.0)
        b = solve_families(1.0, 1.0, 0.5, 1.0)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.as_tuple() == rb.as_tuple()

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            solve_families(1.0, -1.0, 0.5, 1.0)

    @pytest.mark.parametrize("name", ["k", "delta", "mu", "alpha0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_parameter(self, name, value):
        par = dict(k=1.0, delta=1.0, mu=0.5, alpha0=1.0) | {name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            solve_families(**par)

    @pytest.mark.parametrize("name, value", OVERFLOWING)
    def test_overflowing_rows_are_singular(self, name, value):
        par = dict(k=1.0, delta=2.0, mu=0.5, alpha0=0.7) | {name: value}
        with pytest.raises(SingularParameterError) as exc:
            solve_families(**par)
        assert str(exc.value) == "the coefficient rows overflow at " + \
            ", ".join(f"{n}={v!r}" for n, v in par.items())

    def test_bad_grid(self):
        # a start of init_grid is one extra point to polish: six unknowns
        with pytest.raises(ValueError, match="6 entries"):
            solve_families(1.0, 1.0, 0.5, 1.0, init_grid=[np.zeros(12)])

    def test_former_no_root_draw_has_four_roots(self):
        roots = solve_families(**NO_ROOT)
        targets = closed_form_targets(**NO_ROOT)
        labels = sorted(name for r in roots for name, t in targets
                        if match_root([r], t) is not None)
        assert len(roots) == 4
        assert labels == sorted(name for name, _ in targets)

    def test_nonfinite_starts_are_skipped_quietly(self):
        # extra starts whose point or rows are not finite are dropped, and the
        # enumerated roots come back unchanged
        grid = [np.full(6, np.nan), np.array([np.inf, 1.0, 1.0, 1.0, 1.0, 1.0]),
                np.full(6, 1e300)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = solve_families(1.0, 1.0, 0.5, 1.0, init_grid=grid)
        assert [r.as_tuple() for r in roots] == \
            [r.as_tuple() for r in solve_families(1.0, 1.0, 0.5, 1.0)]

    def test_non_isolated_branch_raises(self, monkeypatch):
        # mu = alpha0 = 0: rows 3, 6 and 7 vanish for every lambda where b1 = a1/sqrt(d)
        with pytest.raises(NonIsolatedRootsError, match=r"alpha1=\+1.41421, beta1=\+1.41421"):
            solve_families(1.0, 1.0, 0.0, 0.0)
        monkeypatch.setattr(alg, "_rows", lambda a1, a0, b1, b0, L, *_: (0.0 * L,) * 8)
        with pytest.raises(NonIsolatedRootsError, match=r"alpha1=\+1.41421, beta1=\+0.707107"):
            solve_families(1.0, 4.0, 0.5, 1.0)

    def test_polishes_each_distinct_root_once(self, monkeypatch):
        calls = []

        def spy(fun, x0, **kw):
            calls.append(np.array(x0))
            return least_squares(fun, x0, **kw)

        monkeypatch.setattr(alg, "least_squares", spy)
        roots = solve_families(5.9, 3.0, 0.2, 1.2)
        assert len(calls) == len(roots) == 4
        for x0, r in zip(calls, roots):
            assert np.max(np.abs(x0 - _unknowns(r))) < 1e-8

    def test_root_order_is_stable(self):
        # Set A and Set B share a1 = +-sqrt(2), b1 and b0 here; rounding noise
        # in a1 must not decide their order
        roots = solve_families(5.9, 3.0, 0.2, 1.2)
        targets = closed_form_targets(5.9, 3.0, 0.2, 1.2)
        labels = [next(name for name, t in targets if match_root([r], t) is not None)
                  for r in roots]
        assert labels == ["Set B lower", "Set A lower", "Set A upper", "Set B upper"]


def _rediscover_draws(n, seed=12):
    rng = np.random.default_rng(seed)
    return [dict(k=rng.uniform(0.5, 8.0), delta=rng.uniform(0.5, 5.0),
                 mu=rng.uniform(0.1, 3.0), alpha0=rng.uniform(0.5, 3.0)) for _ in range(n)]


EQUIVALENCE_INPUTS = [
    dict(k=5.9, delta=3.0, mu=0.2, alpha0=1.2),  # figure 1
    dict(k=1.0, delta=1.0, mu=0.5, alpha0=1.0),  # unit
    dict(k=1.0, delta=1.0, mu=0.2, alpha0=0.0),  # Set B not applicable
    NO_ROOT,
] + _rediscover_draws(12)


@pytest.mark.parametrize("par", EQUIVALENCE_INPUTS, ids=lambda p: "k={k:.4g}-a0={alpha0:.4g}".format(**p))
def test_matches_reference_loop(par):
    # every root the per-start loop reaches, the enumeration returns too
    try:
        ref = reference_solve_families(**par)
    except NoConvergenceError:
        ref = []
    new = solve_families(**par)
    for b in ref:
        assert min(np.max(np.abs(_unknowns(a) - _unknowns(b))) for a in new) < 1e-10
    # solve_families itself returns the stable order
    assert all((_unknowns(a) == b).all() for a, b in zip(new, _stable_sorted(new)))


@settings(max_examples=75, deadline=None)
@given(k=st.floats(0.0, 10.0), delta=st.floats(0.2, 8.0), mu=st.floats(-2.0, 10.0),
       alpha0=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
def test_enumeration_is_complete(k, delta, mu, alpha0):
    # alpha0 in (0, 1e-3) is left out: there Set B's own rows round far above
    # the tolerance anyway, and below about 1e-160 derive_set_b overflows or
    # divides by an underflowed alpha0^2
    try:
        roots = solve_families(k, delta, mu, alpha0)
    except NonIsolatedRootsError:
        # exactly at mu = alpha0 = 0 only; to rounding, for |mu| up to ~1e-8
        assert alpha0 == 0.0 and abs(mu) < 1e-6
        return
    for r in roots:
        assert coeff_residuals(r).max_abs < RESIDUAL_TOL
    for name, target in closed_form_targets(k, delta, mu, alpha0):
        # a closed form whose own rows round above the tolerance cannot pass
        # it: Set B's beta grows like 4 mu^2 / alpha0^2
        if np.linalg.norm(coeff_residuals(target).r) < 0.1 * RESIDUAL_TOL:
            assert match_root(roots, target) is not None, name
