import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import alleewaves.exact as exact
from alleewaves.errors import (AlleeWavesError, CaseMismatchError, PoleError,
                               PoleIndexError, SingularParameterError)
from alleewaves.exact import (SolutionSpec, derive_set_a, derive_set_b, eval_amplitude,
                              eval_phi, eval_uv, eval_uv_masked, find_singularities,
                              make_spec, nearest_pole, phi_derivatives)
from alleewaves.model import CaseKind, discriminant
from alleewaves.verify import ode_residual

SQRT2 = math.sqrt(2.0)

# the three reference parameter bundles used throughout
FIG1 = dict(alpha0=1.2, mu=0.2, k=5.9, delta=3.0, c1=20.0, c2=10.0)
FIG2 = dict(alpha0=3.0, mu=5.0, k=12.2, delta=2.0, c1=20.0, c2=-10.0)
FIG3 = dict(alpha0=SQRT2, mu=1.0, k=2.03, delta=3.0, c1=20.0, c2=10.0)


def fig1_spec(branch="upper"):
    return make_spec("A", FIG1["alpha0"], FIG1["mu"], FIG1["k"], FIG1["delta"],
                     branch, FIG1["c1"], FIG1["c2"])


def spec_of(lam, mu, c1, c2):
    """A spec with arbitrary (lam, mu, c1, c2); its case is classified from lam and mu."""
    return SolutionSpec("A", "upper", c1, c2, replace(fig1_spec().coeffs, lam=lam, mu=mu))


class TestDeriveSetA:
    def test_figure1_values(self):
        co = derive_set_a(1.2, 0.2, 5.9, 3.0, "upper")
        assert co.alpha1 == pytest.approx(SQRT2)
        assert co.beta1 == pytest.approx(math.sqrt(2.0 / 3.0))
        assert co.beta0 == pytest.approx(1.2 / math.sqrt(3.0))
        assert co.c == pytest.approx(-5.9 / SQRT2)
        assert co.lam == pytest.approx(-(5.9 - 2.4) / SQRT2)
        assert co.beta_model == pytest.approx(5.9 * 1.2 - 1.44 + 0.4)

    def test_figure2_values(self):
        co = derive_set_a(3.0, 5.0, 12.2, 2.0, "upper")
        assert co.lam == pytest.approx(-4.38406, abs=1e-5)
        assert co.beta_model == pytest.approx(37.6)
        assert co.c == pytest.approx(-8.62670, abs=1e-5)

    def test_degenerate_inputs(self):
        co = derive_set_a(0.0, 0.0, 1.0, 1.0, "upper")
        assert co.lam == pytest.approx(-1.0 / SQRT2)
        assert co.c == pytest.approx(-1.0 / SQRT2)
        assert co.beta_model == 0.0
        assert co.beta0 == 0.0

    def test_lower_branch_signs(self):
        up = derive_set_a(1.2, 0.2, 5.9, 3.0, "upper")
        lo = derive_set_a(1.2, 0.2, 5.9, 3.0, "lower")
        assert lo.alpha1 == -up.alpha1
        assert lo.beta1 == -up.beta1
        assert lo.c == -up.c
        assert lo.lam == -up.lam
        assert lo.beta_model == up.beta_model

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            derive_set_a(1.0, 1.0, 1.0, -1.0)

    def test_invariants_random(self):
        rng = np.random.RandomState(11)
        for _ in range(300):
            a0 = rng.uniform(-5, 5)
            mu = rng.uniform(-5, 5)
            k = rng.uniform(0.01, 10)
            d = rng.uniform(0.1, 10)
            for br in ("upper", "lower"):
                co = derive_set_a(a0, mu, k, d, br)
                assert co.alpha1**2 == pytest.approx(2.0, rel=1e-14)
                assert d * co.beta1**2 == pytest.approx(2.0, rel=1e-13)
                assert co.beta0 == pytest.approx(a0 / math.sqrt(d), rel=1e-14)
                assert math.copysign(1, co.alpha1) == math.copysign(1, co.beta1)


class TestDeriveSetB:
    def test_figure3_values(self):
        co = derive_set_b(SQRT2, 1.0, 2.03, 3.0, "upper")
        assert co.lam == pytest.approx(2.0)
        assert co.c == pytest.approx(4.06 / SQRT2)
        assert co.beta_model == pytest.approx(0.0, abs=1e-12)

    def test_sqrt_two_mu_is_degenerate(self):
        rng = np.random.RandomState(5)
        for _ in range(100):
            mu = rng.uniform(0.01, 10)
            co = derive_set_b(math.sqrt(2 * mu), mu, rng.uniform(0.1, 5),
                              rng.uniform(0.1, 5), "upper")
            assert co.lam == pytest.approx(2 * math.sqrt(mu), rel=1e-12)
            assert abs(discriminant(co.lam, co.mu)) < 1e-9

    def test_unit_inputs(self):
        co = derive_set_b(1.0, 0.5, 1.0, 1.0, "upper")
        assert co.lam == pytest.approx(SQRT2)
        assert co.c == pytest.approx(SQRT2)
        assert co.beta_model == 0.0

    def test_alpha0_zero_is_singular(self):
        with pytest.raises(SingularParameterError):
            derive_set_b(0.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("alpha0", [1e-163, -1e-163, 5e-324])
    def test_alpha0_squared_underflow_is_singular(self, alpha0):
        # alpha0**2 rounds to 0, so the family divides by zero
        with pytest.raises(SingularParameterError, match=f"alpha0={alpha0!r}"):
            derive_set_b(alpha0, 0.5, 1.0, 2.0)

    @pytest.mark.parametrize("alpha0", [1e-160, -1e-160])
    def test_overflowing_beta_is_singular(self, alpha0):
        # beta ~ -4*mu^2/alpha0^2 overflows to -inf
        with pytest.raises(SingularParameterError, match="not finite"):
            derive_set_b(alpha0, 0.5, 1.0, 2.0, "lower")

    def test_discriminant_never_negative(self):
        # family (b) admits no trigonometric regime for real parameters
        rng = np.random.RandomState(6)
        for _ in range(500):
            a0 = rng.uniform(0.1, 5) * rng.choice([-1, 1])
            co = derive_set_b(a0, rng.uniform(-5, 5), rng.uniform(0.1, 5),
                              rng.uniform(0.1, 5), "upper")
            assert discriminant(co.lam, co.mu) >= -1e-12


def textbook_G(case, lam, mu, c1, c2, xi):
    """G = exp(-lam*xi/2) * A(xi) with G' and G'', written out per case."""
    xi = np.asarray(xi, dtype=float)
    E = np.exp(-0.5 * lam * xi)
    q = 0.5 * math.sqrt(abs(lam * lam - 4.0 * mu))
    if case is CaseKind.HYPERBOLIC:
        A = c1 * np.sinh(q * xi) + c2 * np.cosh(q * xi)
        Ap, App = q * (c1 * np.cosh(q * xi) + c2 * np.sinh(q * xi)), q * q * A
    elif case is CaseKind.TRIGONOMETRIC:
        A = c1 * np.cos(q * xi) + c2 * np.sin(q * xi)
        Ap, App = q * (-c1 * np.sin(q * xi) + c2 * np.cos(q * xi)), -q * q * A
    else:
        A, Ap, App = c1 + c2 * xi, c2 + 0.0 * xi, 0.0 * xi
    return E * A, E * (Ap - 0.5 * lam * A), E * (App - lam * Ap + 0.25 * lam * lam * A)


def G_from_amplitude(case, lam, mu, c1, c2, xi):
    """G, G', G'' rebuilt from eval_amplitude's (A, A', A'')/s."""
    xi = np.asarray(xi, dtype=float)
    A, Ap, App = eval_amplitude(case, lam, mu, c1, c2, xi)
    q = 0.5 * math.sqrt(abs(lam * lam - 4.0 * mu))
    s = 1.0
    if case is CaseKind.HYPERBOLIC:
        P, M = abs(c1 + c2), abs(c2 - c1)
        s = (P * np.exp(q * xi) + M * np.exp(-q * xi)) / (2.0 * (abs(c1) + abs(c2)))
    Es = np.exp(-0.5 * lam * xi) * s
    return Es * A, Es * (Ap - 0.5 * lam * A), Es * (App - lam * Ap + 0.25 * lam * lam * A)


def random_case(rng):
    """(case, lam, mu, c1, c2) with the case chosen uniformly."""
    lam = rng.uniform(-2, 2)
    kind = rng.randint(3)
    if kind == 0:
        mu = lam * lam / 4 - rng.uniform(0.05, 2)
        case = CaseKind.HYPERBOLIC
    elif kind == 1:
        mu = lam * lam / 4 + rng.uniform(0.05, 2)
        case = CaseKind.TRIGONOMETRIC
    else:
        mu = lam * lam / 4
        case = CaseKind.DEGENERATE
    c1, c2 = rng.uniform(-3, 3, 2)
    if abs(c1) + abs(c2) < 0.1:
        c1 = 1.0
    return case, lam, mu, c1, c2


class TestEvalG:
    """G and its derivatives rebuilt from the bounded amplitude."""

    def test_degenerate_at_origin(self):
        G, Gp, _ = G_from_amplitude(CaseKind.DEGENERATE, 2.0, 1.0, 1.0, 0.0, 0.0)
        assert G == 1.0
        assert Gp == -1.0

    def test_hyperbolic_pure_cosh(self):
        G, Gp, _ = G_from_amplitude(CaseKind.HYPERBOLIC, 0.0, -1.0, 0.0, 1.0, 0.0)
        assert G == 1.0
        assert Gp == 0.0

    def test_trigonometric_cos(self):
        G, Gp, _ = G_from_amplitude(CaseKind.TRIGONOMETRIC, 0.0, 1.0, 1.0, 0.0, math.pi)
        assert G == pytest.approx(-1.0)
        assert Gp == pytest.approx(0.0, abs=1e-15)

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatchError):
            eval_amplitude(CaseKind.HYPERBOLIC, 0.0, 1.0, 1.0, 0.0, 0.0)

    def test_matches_textbook_G(self):
        rng = np.random.RandomState(11)
        xi = np.linspace(-8, 8, 401)
        for _ in range(50):
            case, lam, mu, c1, c2 = random_case(rng)
            got = G_from_amplitude(case, lam, mu, c1, c2, xi)
            for g, want in zip(got, textbook_G(case, lam, mu, c1, c2, xi)):
                scale = float(np.max(np.abs(want)))
                np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12 * scale)


class TestEvalPhi:
    def test_degenerate_constant(self):
        xi = np.linspace(-30, 30, 101)
        phi = eval_phi(spec_of(2.0, 1.0, 1.0, 0.0), xi)
        np.testing.assert_allclose(phi, -1.0)

    def test_hyperbolic_asymptote(self):
        lam, mu = -2.47487, 0.2
        got = eval_phi(spec_of(lam, mu, 20.0, 10.0), 50.0)
        assert got == pytest.approx(-lam / 2 + math.sqrt(lam * lam - 4 * mu) / 2,
                                    rel=1e-12)

    def test_trigonometric_tan(self):
        got = eval_phi(spec_of(0.0, 1.0, 1.0, 0.0), math.pi / 4)
        assert got == pytest.approx(-1.0)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            eval_phi(spec_of(2.0, 1.0, 1.0, 1.0), -1.0)

    @pytest.mark.parametrize("case, lam, mu, c1, c2, xi, pole", [
        # A = 1 + 1e-8*xi stays below the floor for 100 either side of its zero
        (CaseKind.DEGENERATE, 2.0, 1.0, 1.0, 1e-8, -1e8 + 50, -1e8),
        # A = cos(1e-4*xi): the nearest of the zeros within one period of 31416
        (CaseKind.TRIGONOMETRIC, 0.0, 1e-8, 1.0, 0.0, 15707.97, 0.5e4 * math.pi),
    ])
    def test_pole_error_names_the_nearest_zero(self, case, lam, mu, c1, c2, xi, pole):
        spec = spec_of(lam, mu, c1, c2)
        assert spec.case is case
        with pytest.raises(PoleError) as exc:
            eval_phi(spec, xi)
        assert exc.value.xi == xi
        assert exc.value.xi_pole == pytest.approx(pole, rel=1e-15)

    def test_matches_G_quotient(self):
        rng = np.random.RandomState(12)
        for _ in range(50):
            case, lam, mu, c1, c2 = random_case(rng)
            xi = np.linspace(-8, 8, 401)
            G, Gp, _ = textbook_G(case, lam, mu, c1, c2, xi)
            spec = spec_of(lam, mu, c1, c2)
            assert spec.case is case
            keep = eval_uv_masked(spec, xi, 0.0)[2] & (np.abs(G) > 1e-6 * (abs(c1) + abs(c2)))
            np.testing.assert_allclose(eval_phi(spec, xi[keep]), Gp[keep] / G[keep],
                                       rtol=1e-12, atol=1e-12)

    def test_no_overflow_far_out(self):
        # the raw cosh/sinh forms overflow here; the ratio must not
        lam = -2.47487
        val = eval_phi(spec_of(lam, 0.2, 20.0, 10.0), 2000.0)
        assert math.isfinite(val)


class TestRiccatiIdentity:
    def test_against_finite_differences(self):
        # phi' = -(mu + lam*phi + phi^2), checked on 1000 samples per case
        h = 1e-3
        cases = [
            (CaseKind.HYPERBOLIC, -2.47487, 0.2, 20.0, 10.0, (1.0, 5.0)),
            (CaseKind.TRIGONOMETRIC, -4.38406, 5.0, 20.0, -10.0, (0.3, 1.2)),
            (CaseKind.DEGENERATE, 2.0, 1.0, 20.0, 10.0, (0.0, 5.0)),
        ]
        for case, lam, mu, c1, c2, (lo, hi) in cases:
            spec = spec_of(lam, mu, c1, c2)
            assert spec.case is case
            xi = np.linspace(lo, hi, 1000)
            phi, dphi, _ = phi_derivatives(spec, xi)
            fd = (eval_phi(spec, xi - 2 * h) - 8 * eval_phi(spec, xi - h)
                  + 8 * eval_phi(spec, xi + h) - eval_phi(spec, xi + 2 * h)) / (12 * h)
            np.testing.assert_allclose(dphi, fd, rtol=1e-10, atol=1e-8)


class TestEvalUV:
    def test_figure1_point_value(self):
        # oracle: the closed ratio at xi=0 is c1/c2
        spec = fig1_spec()
        lam = -(5.9 - 2.4) / SQRT2
        r = math.sqrt(lam * lam - 4 * 0.2)
        phi0 = -lam / 2 + (r / 2) * (20.0 / 10.0)
        u, v = eval_uv(spec, 0.0, 0.0)
        assert u == pytest.approx(SQRT2 * phi0 + 1.2, rel=1e-14)
        assert u == pytest.approx(6.2134337744, abs=1e-9)
        assert v == pytest.approx(u / math.sqrt(3.0), rel=1e-14)

    def test_extinction_state(self):
        mu = 1.0
        spec = make_spec("B", math.sqrt(2 * mu), mu, 2.03, 3.0, "upper",
                         c1=1.0, c2=0.0)
        x = np.linspace(-10, 10, 101)
        u, v = eval_uv(spec, x, 3.0)
        np.testing.assert_allclose(u, 0.0, atol=1e-14)
        np.testing.assert_allclose(v, 0.0, atol=1e-14)

    def test_traveling_invariance(self):
        spec = fig1_spec()
        rng = np.random.RandomState(13)
        c = spec.coeffs.c
        for _ in range(50):
            x0, t0, s = rng.uniform(-3, 3, 3)
            u0, v0 = eval_uv(spec, x0, t0)
            u1, v1 = eval_uv(spec, x0 + c * s, t0 + s)
            assert u1 == pytest.approx(u0, rel=1e-12, abs=1e-12)
            assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-12)

    def test_set_b_extinction_wave(self):
        # the README example: a pole-free Set B front with c > 0 leaves the
        # empty state behind it and moves into coexistence, so u = v = 0 invades
        spec = make_spec("B", 2.2568, 0.36149, 3.7485, 2.6557, "upper", c1=0.0, c2=1.0)
        assert spec.coeffs.c == pytest.approx(1.1934, abs=1e-4)
        assert spec.coeffs.beta_model > 0
        assert find_singularities(spec, -60.0, 60.0) == []
        np.testing.assert_allclose(eval_uv(spec, -60.0, 0.0), (0.0, 0.0), atol=1e-12)
        np.testing.assert_allclose(eval_uv(spec, 60.0, 0.0), (1.936, 1.188), atol=1e-3)

    def test_v_is_u_over_sqrt_delta(self):
        rng = np.random.RandomState(14)
        for fam in ("A", "B"):
            spec = make_spec(fam, 1.2, 0.2, 5.9, 3.0, "upper", 20.0, 10.0)
            x = rng.uniform(2, 8, 200)
            u, v = eval_uv(spec, x, 0.5)
            np.testing.assert_allclose(v * math.sqrt(3.0), u, rtol=1e-14)

    def test_branch_contract(self):
        up = fig1_spec("upper")
        lo = fig1_spec("lower")
        assert lo.coeffs.alpha1 == -up.coeffs.alpha1
        assert lo.coeffs.beta1 == -up.coeffs.beta1
        assert lo.coeffs.c == -up.coeffs.c
        assert lo.coeffs.lam == -up.coeffs.lam
        rep = ode_residual(lo, -5.0, 5.0, 1001)
        assert rep.worst < 1e-8


class TestSolutionSpec:
    def test_zero_constants_rejected(self):
        with pytest.raises(ValueError):
            make_spec("A", 1.2, 0.2, 5.9, 3.0, "upper", 0.0, 0.0)

    def test_case_consistency_enforced(self):
        spec = fig1_spec()
        assert spec.case is CaseKind.HYPERBOLIC
        with pytest.raises(TypeError):
            SolutionSpec("A", "upper", CaseKind.HYPERBOLIC, 20.0, 10.0, spec.coeffs)
        with pytest.raises(TypeError):
            SolutionSpec("A", "upper", 20.0, 10.0, spec.coeffs, case=CaseKind.HYPERBOLIC)
        # a spec rebuilt with new coefficients is classified again
        assert replace(spec, coeffs=replace(spec.coeffs, mu=5.0)).case is CaseKind.TRIGONOMETRIC

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["c1", "c2"])
    def test_non_finite_constant_rejected(self, name, value):
        # the figure-2 parameters are trigonometric, where an infinite c1 gave
        # (nan, nan) from eval_uv and a NaN c1 an untyped error from the pole search
        consts = {"c1": 1.0, "c2": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            make_spec("A", 3.0, 5.0, 12.2, 2.0, **consts)

    def test_near_tie_classified_by_the_checked_threshold(self):
        # lam^2 - 4*mu = -4e-7; SolutionSpec classifies with the one
        # threshold, and make_spec takes no other
        spec = make_spec("A", 1.0, 0.5 + 1e-7, 4.0, 3.0)
        assert spec.case is CaseKind.TRIGONOMETRIC
        with pytest.raises(TypeError):
            make_spec("A", 1.0, 0.5 + 1e-7, 4.0, 3.0, eps_disc=1e-3)


class TestFindSingularities:
    def test_hyperbolic_single_pole(self):
        spec = fig1_spec()
        lam = spec.coeffs.lam
        r = math.sqrt(lam * lam - 4 * 0.2)
        expected = 2.0 * math.atanh(-0.5) / r
        got = find_singularities(spec, -5.0, 5.0)
        assert len(got) == 1
        assert got[0] == pytest.approx(expected, abs=1e-12)
        assert got[0] == pytest.approx(-0.47614, abs=1e-4)

    def test_hyperbolic_pole_bisection_oracle(self):
        spec = fig1_spec()
        lam, mu = spec.coeffs.lam, spec.coeffs.mu
        r = math.sqrt(lam * lam - 4 * mu)

        def den(xi):
            th = r * xi / 2
            return 20.0 * math.sinh(th) + 10.0 * math.cosh(th)

        lo, hi = -2.0, 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if den(lo) * den(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert find_singularities(spec, -5, 5)[0] == pytest.approx(lo, abs=1e-12)

    def test_hyperbolic_pole_of_nearly_cancelling_coefficients(self):
        # c1 + c2 = 2**-49: the pole sits where e^(2*q*xi) = (c1 - c2)/(c1 + c2);
        # atanh(-c2/c1) rounded the ratio and put it 0.034 too early
        lam, mu, c1, c2 = 0.0, -3.0, 9.0, -8.999999999999998
        q = math.sqrt(3.0)
        expected = 0.5 * math.log((c1 - c2) / 2.0**-49) / q
        assert c1 + c2 == 2.0**-49
        got = find_singularities(spec_of(lam, mu, c1, c2), 0.0, 11.0)
        assert len(got) == 1 and got[0] == pytest.approx(expected, rel=1e-14)

    def test_degenerate_pole(self):
        got = find_singularities(spec_of(2.0, 1.0, 1.0, 1.0), -5.0, 5.0)
        assert got == [pytest.approx(-1.0)]

    def test_trigonometric_cos_zeros(self):
        got = find_singularities(spec_of(0.0, 1.0, 1.0, 0.0), 0.0, 7.0)
        assert len(got) == 2
        np.testing.assert_allclose(got, [math.pi / 2, 3 * math.pi / 2],
                                   rtol=1e-12)

    def test_bounded_branch_has_none(self):
        spec = make_spec("A", 1.2, 0.2, 5.9, 3.0, "upper", 10.0, 20.0)
        assert find_singularities(spec, -50.0, 50.0) == []

    def test_degenerate_c2_zero_has_none(self):
        got = find_singularities(spec_of(2.0, 1.0, 1.0, 0.0), -5.0, 5.0)
        assert got == []

    def test_bad_interval(self):
        with pytest.raises(ValueError, match=r"\(xi_lo, xi_hi\) must have finite ends"):
            find_singularities(spec_of(2.0, 1.0, 1.0, 1.0), 5.0, -5.0)

    @pytest.mark.parametrize("spec, lo, hi", [
        # a NaN end compared false both ways and gave [] on the figure-1 spec
        (fig1_spec(), math.nan, 1.0),
        (fig1_spec(), -1.0, math.nan),
        # an infinite end overflowed the pole index of a trigonometric spec
        (spec_of(0.0, 1.0, 1.0, 0.0), -math.inf, 0.0),
        (spec_of(0.0, 1.0, 1.0, 0.0), 0.0, math.inf),
    ], ids=["nan-lo", "nan-hi", "trig-inf-lo", "trig-inf-hi"])
    def test_non_finite_window_rejected(self, spec, lo, hi):
        with pytest.raises(ValueError, match=r"\(xi_lo, xi_hi\) must have finite ends"):
            find_singularities(spec, lo, hi)

    def test_overflowing_pole_index_is_a_typed_error(self):
        # q*xi/pi overflowed on a finite window and math.floor raised OverflowError
        spec = make_spec("A", 3.0, 1e12, 12.2, 2.0, c1=20.0, c2=-10.0)
        with pytest.raises(PoleIndexError, match=r"pole index at xi=-1e\+303 is not finite"):
            find_singularities(spec, -1e303, -0.999999e303)

    def test_window_with_too_many_poles_is_a_typed_error(self):
        # +-1e12 on the figure-2 spec (period 7.11) spans 2.8e11 pole indices;
        # listing their poles would exhaust memory
        start = time.perf_counter()
        with pytest.raises(PoleIndexError, match=r"the window \[-1e\+12, 1e\+12\] spans"
                                                 r" 281123679618 pole indices"):
            find_singularities(fig2_spec(), -1e12, 1e12)
        assert time.perf_counter() - start < 0.1

    def test_pole_index_bound(self, monkeypatch):
        # eight periods of the figure-2 spec span nine or ten pole indices
        spec = fig2_spec()
        monkeypatch.setattr(exact, "MAX_POLE_INDICES", 10)
        assert len(find_singularities(spec, 0.0, 8 * spec.period)) >= 8
        monkeypatch.setattr(exact, "MAX_POLE_INDICES", 8)
        with pytest.raises(PoleIndexError, match="indices, more than 8;"):
            find_singularities(spec, 0.0, 8 * spec.period)

class TestNearestPole:
    SPEC = make_spec("A", 3.0, 1e12, 12.2, 2.0, c1=20.0, c2=-10.0)

    # the first three returned -inf, the array with a NumPy overflow warning
    @pytest.mark.parametrize("xi, shown", [
        (-1e303, r"-1e\+303"), (np.float64(-1e303), r"-1e\+303"),
        (np.array([0.0, -1e303]), r"-1e\+303"), (math.nan, "nan"),
    ], ids=["float", "numpy-scalar", "array", "nan"])
    def test_non_finite_pole_index_is_a_typed_error(self, xi, shown):
        with pytest.raises(PoleIndexError, match=f"pole index at xi={shown} is not finite") \
                as info:
            nearest_pole(self.SPEC, xi)
        assert isinstance(info.value, AlleeWavesError) and isinstance(info.value, ValueError)


@st.composite
def amplitude_windows(draw):
    """(case, lam, mu, c1, c2, xi_lo, xi_hi) over all three cases."""
    case = draw(st.sampled_from(list(CaseKind)))
    lam = draw(st.floats(-5.0, 5.0))
    mu = lam * lam / 4.0  # lam^2 - 4*mu vanishes exactly in binary arithmetic
    if case is not CaseKind.DEGENERATE:
        gap = draw(st.floats(1e-6, 4.0))
        mu += -gap if case is CaseKind.HYPERBOLIC else gap
    c1, c2 = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    assume(abs(c1) + abs(c2) >= 0.1)
    lo = draw(st.floats(-35.0, 35.0))
    return case, lam, mu, c1, c2, lo, lo + draw(st.floats(0.01, 30.0))


@settings(max_examples=200, deadline=None)
@given(draw=amplitude_windows())
def test_pole_search_misses_no_zero(draw):
    # every sign change of the bounded amplitude in a dense scan has a pole
    # within one scan spacing, and every pole has such a sign change; a zero
    # within one spacing of a window end may round to either side of it
    case, lam, mu, c1, c2, lo, hi = draw
    xi = np.linspace(lo, hi, 20001)
    h = xi[1] - xi[0]
    A = eval_amplitude(case, lam, mu, c1, c2, xi)[0]
    nz = np.nonzero(A)[0]  # a sample that rounds to 0 carries no sign
    sign = np.sign(A[nz])
    i = np.nonzero(sign[:-1] != sign[1:])[0]
    changes = 0.5 * (xi[nz[i]] + xi[nz[i + 1]])
    poles = np.array(find_singularities(spec_of(lam, mu, c1, c2), lo, hi))
    for a, b in ((changes, poles), (poles, changes)):
        for x in a[(a > lo + h) & (a < hi - h)]:
            # rounding of A, about 1e-15*(|c1| + |c2|), moves its sign by that over |A'|
            slope = abs(eval_amplitude(case, lam, mu, c1, c2, x)[1])
            slack = h + 1e-15 * (abs(c1) + abs(c2)) / slope
            assert b.size and np.min(np.abs(b - x)) <= slack, (x, b)


@settings(max_examples=200, deadline=None)
@given(draw=amplitude_windows())
def test_poles_match_a_brentq_oracle(draw):
    # brentq polishes each sign change of the bounded amplitude in a dense
    # scan; the closed-form zeros must agree with it in number and to within
    # its own tolerance (about 4 ulp) plus the rounding of A over |A'|
    case, lam, mu, c1, c2, lo, hi = draw

    def amp(x):
        return float(eval_amplitude(case, lam, mu, c1, c2, x)[0])

    def tol(x):
        slope = abs(eval_amplitude(case, lam, mu, c1, c2, x)[1])
        return 4 * math.ulp(x) + 1e-15 * (abs(c1) + abs(c2)) / slope

    xi = np.linspace(lo, hi, 20001)
    A = eval_amplitude(case, lam, mu, c1, c2, xi)[0]
    nz = np.nonzero(A)[0]
    i = np.nonzero(np.sign(A[nz[:-1]]) != np.sign(A[nz[1:]]))[0]
    oracle = [brentq(amp, xi[a], xi[b], xtol=1e-17, rtol=4 * np.finfo(float).eps)
              for a, b in zip(nz[i], nz[i + 1])]
    poles = find_singularities(spec_of(lam, mu, c1, c2), lo, hi)

    def interior(xs):
        # a zero within its tolerance of a window end may round to either side
        return [x for x in xs if lo + tol(x) < x < hi - tol(x)]

    oracle, poles = interior(oracle), interior(poles)
    assert len(poles) == len(oracle), (poles, oracle)
    for p, o in zip(poles, oracle):
        assert abs(p - o) <= tol(p), (p, o, abs(p - o) / tol(p))


@settings(max_examples=200, deadline=None)
@given(draw=amplitude_windows())
def test_nearest_pole_is_the_closest_listed_zero(draw):
    # the nearest pole, read by index, is the closest of the zeros listed
    # within one period (on the whole line when A is aperiodic); a sample
    # halfway between two zeros may round to either
    case, lam, mu, c1, c2, lo, hi = draw
    spec = spec_of(lam, mu, c1, c2)
    assert spec.case is case
    xi = np.linspace(lo, hi, 7)
    got = nearest_pole(spec, xi)
    # the widest finite window stands for the whole line; a degenerate zero
    # -c1/c2 beyond it rounds to an infinite nearest pole
    reach = spec.period or sys.float_info.max
    for x, g in zip(xi, np.broadcast_to(got, xi.shape)):
        poles = find_singularities(spec, x - reach, x + reach)
        if not poles:
            assert math.isnan(g) or (case is CaseKind.DEGENERATE and math.isinf(g))
            continue
        assert g in poles
        assert abs(g - x) <= min(abs(p - x) for p in poles) + 1e-12 * (spec.period or 0.0)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(-5.0, 5.0), gap=st.floats(1e-3, 4.0), c1=st.floats(-10.0, 10.0),
       excess=st.sampled_from([0.0, 1e-12, 1e-7, 1e-5]) | st.floats(0.0, 10.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_pole_free_hyperbolic_profile_is_never_masked(lam, gap, c1, excess, sign):
    # |c2| >= |c1| leaves A = c1*sinh + c2*cosh without a zero, down to
    # |c2| = |c1|, where G is a single exponential; both tails stay unmasked
    c2 = sign * (abs(c1) + excess)
    assume(abs(c1) + abs(c2) >= 0.1)
    mu = lam * lam / 4.0 - gap
    q = 0.5 * math.sqrt(lam * lam - 4.0 * mu)
    xi = np.linspace(-200.0, 200.0, 4001) / q
    spec = spec_of(lam, mu, c1, c2)
    assert spec.case is CaseKind.HYPERBOLIC
    u, v, ok = eval_uv_masked(spec, xi, 0.0)
    assert ok.all()
    assert np.isfinite(u).all() and np.isfinite(v).all()


def trig_period(spec):
    """2*pi/sqrt(4*mu - lambda^2), the period of phi in the trigonometric case."""
    co = spec.coeffs
    return 2 * math.pi / math.sqrt(4 * co.mu - co.lam ** 2)


def fig2_spec():
    return make_spec("A", 3.0, 5.0, 12.2, 2.0, "upper", 20.0, -10.0)


class TestPeriodCase2:
    def test_figure2_value(self):
        spec = fig2_spec()
        assert spec.period == pytest.approx(trig_period(spec), rel=1e-12)
        assert spec.period == pytest.approx(2 * math.pi / math.sqrt(0.78), abs=1e-4)

    def test_tan_period(self):
        # k = 2*alpha0 gives lambda = 0, so phi = tan(xi) at mu = 1
        spec = make_spec("A", 1.0, 1.0, 2.0, 1.0, "upper", 1.0, 0.5)
        assert spec.coeffs.lam == 0.0
        assert spec.period == pytest.approx(math.pi)

    def test_half_angle(self):
        spec = make_spec("A", 1.0, 0.25, 2.0, 1.0, "upper", 1.0, 0.5)
        assert spec.period == pytest.approx(2 * math.pi)

    @pytest.mark.parametrize("alpha0, mu, k, delta, branch", [
        (2.0, 3.0, 1.0, 1.0, "upper"),
        (0.5, 1.5, 2.0, 0.7, "upper"),
        (1.0, 4.0, 3.0, 2.0, "lower"),
    ])
    def test_other_trigonometric_specs(self, alpha0, mu, k, delta, branch):
        # family B is never trigonometric (test_discriminant_never_negative)
        spec = make_spec("A", alpha0, mu, k, delta, branch, 1.0, 0.5)
        assert spec.case is CaseKind.TRIGONOMETRIC
        assert spec.period == pytest.approx(trig_period(spec), rel=1e-12)

    def test_spec_period_only_when_periodic(self):
        assert fig2_spec().period == trig_period(fig2_spec())
        assert fig1_spec().period is None

    def test_phi_periodicity(self):
        spec = fig2_spec()
        T = spec.period
        xi = np.linspace(0.2, 0.2 + T * 0.8, 500)
        a = eval_phi(spec, xi)
        b = eval_phi(spec, xi + T)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)
