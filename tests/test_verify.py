import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from test_sim import hyperbolic_fronts

from alleewaves.errors import AlleeWavesError, NonFiniteError, PoleError
from alleewaves.exact import eval_phi, eval_uv, make_spec, phi_derivatives
from alleewaves.model import CaseKind
from alleewaves.verify import (check_G_ode, estimate_period, ode_residual,
                               pde_residual)

SQRT2 = math.sqrt(2.0)


def derivative_crosscheck(fn, dfn, xi_grid, h) -> float:
    """Max relative deviation of analytic vs 4th-order finite-difference derivative.

    fn and dfn sample a closed form and its claimed derivative; grid points
    must sit >= 10h from any pole.  Deviations are measured relative to
    max(1, |analytic|) pointwise.
    """
    xi = np.asarray(xi_grid, dtype=float)
    fd = (fn(xi - 2 * h) - 8.0 * fn(xi - h) + 8.0 * fn(xi + h) - fn(xi + 2 * h)) \
        / (12.0 * h)
    ana = dfn(xi)
    return float(np.max(np.abs(fd - ana) / np.maximum(1.0, np.abs(ana))))


def fig1_spec():
    return make_spec("A", 1.2, 0.2, 5.9, 3.0, "upper", 20.0, 10.0)


def fig2_spec():
    return make_spec("A", 3.0, 5.0, 12.2, 2.0, "upper", 20.0, -10.0)


def extinction_spec():
    return make_spec("B", SQRT2, 1.0, 2.03, 3.0, "upper", 1.0, 0.0)


class TestOdeResidual:
    def test_figure1_exactness(self):
        rep = ode_residual(fig1_spec(), -5.0, 5.0, 2001)
        assert rep.worst < 1e-8

    def test_extinction_near_machine_zero(self):
        # lam rounds so u is ~1e-16 rather than exactly 0; the linear terms
        # keep the residual at that scale
        rep = ode_residual(extinction_spec(), -5.0, 5.0, 501)
        assert rep.worst < 1e-13

    def test_detects_wrong_wave_speed(self):
        spec = fig1_spec()
        bad = replace(spec, coeffs=replace(spec.coeffs, c=spec.coeffs.c + 0.1))
        assert ode_residual(bad, -5.0, 5.0, 2001).worst > 1e-2

    def test_pole_samples_excluded(self):
        rep = ode_residual(fig1_spec(), -5.0, 5.0, 2001)
        assert rep.n_excluded > 0
        assert rep.exclusion_radius == pytest.approx(max(10 * 10 / 2000, 1e-3))

    def test_interval_inside_pole_zone(self):
        spec = fig1_spec()
        pole = -0.47608516238456572
        with pytest.raises(AlleeWavesError):
            ode_residual(spec, pole - 1e-4, pole + 1e-4, 16)

    def test_reports_reproducible(self):
        a = ode_residual(fig1_spec(), -5.0, 5.0, 1001)
        b = ode_residual(fig1_spec(), -5.0, 5.0, 1001)
        assert a == b

    def test_small_sample_count_rejected(self):
        with pytest.raises(ValueError):
            ode_residual(fig1_spec(), -5.0, 5.0, 8)

    def test_non_finite_row_raises(self):
        # u ~ 1e150, so u**3 overflows and both rows were NaN
        spec = make_spec("A", -1e150, -1e-150, 0.6541924612081553, 2.6136175372372232,
                         "lower", 1e-300, -11.789830727053094)
        with np.errstate(all="raise"):  # and no overflow escapes as a warning
            with pytest.raises(NonFiniteError,
                               match=r"^the prey row is not finite at xi=-12\.76$"):
                ode_residual(spec, -12.76, 5.38)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 5.0), (0.0, math.nan),
                                        (0.0, math.inf), (5.0, -5.0), (5.0, 5.0)])
    def test_window_ends_finite_and_increasing(self, lo, hi):
        with pytest.raises(ValueError, match=re.escape(f"(xi_lo, xi_hi) must have finite"
                                                       f" ends in increasing order, got ({lo}, {hi})")):
            ode_residual(fig1_spec(), lo, hi, 101)


class TestPdeResidual:
    def test_figure1_truncation_level(self):
        rep = pde_residual(fig1_spec(), (1.0, 5.0), (0.0, 0.2), 401, 101)
        assert rep.worst < 1e-5

    def test_fourth_order_refinement(self):
        coarse = pde_residual(fig1_spec(), (1.0, 5.0), (0.0, 0.2), 401, 101)
        fine = pde_residual(fig1_spec(), (1.0, 5.0), (0.0, 0.2), 801, 201)
        for c, f in zip(coarse.max_abs, fine.max_abs):
            assert 12.0 <= c / f <= 20.0

    def test_extinction_near_machine_zero(self):
        rep = pde_residual(extinction_spec(), (-3.0, 3.0), (0.0, 1.0), 64, 64)
        assert rep.worst < 1e-28

    def test_detects_wrong_beta(self):
        spec = fig1_spec()
        bad = replace(spec, coeffs=replace(spec.coeffs,
                                           beta_model=spec.coeffs.beta_model + 1.0))
        assert pde_residual(bad, (1.0, 5.0), (0.0, 0.2), 101, 33).worst > 1e-1

    def test_pole_in_window_rejected(self):
        with pytest.raises(PoleError):
            pde_residual(fig1_spec(), (-2.0, 2.0), (0.0, 0.2), 64, 33)

    def test_pole_crossing_between_time_samples_rejected(self):
        # the pole line x = -0.476 + c*t (c ~ -4.17) enters this 0.01-wide
        # window at x = -49.99, t ~ 11.9, and leaves it 0.0024 later
        with pytest.raises(PoleError) as exc:
            pde_residual(fig1_spec(), (-50.0, -49.99), (0.0, 100.0), 16, 16)
        assert exc.value.xi == -49.99
        assert exc.value.xi_pole == pytest.approx(-0.476085, abs=1e-5)

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            pde_residual(fig1_spec(), (1.0, 5.0), (0.0, 0.2), 4, 33)

    @pytest.mark.parametrize("name, window", [
        ("t_window", (0.1, 0.0)), ("t_window", (0.0, math.nan)), ("t_window", (0.0, math.inf)),
        ("x_window", (math.nan, 5.0)), ("x_window", (-math.inf, 5.0)), ("x_window", (5.0, 1.0)),
    ])
    def test_window_ends_finite_and_increasing(self, name, window):
        windows = {"x_window": (1.0, 5.0), "t_window": (0.0, 0.2)} | {name: window}
        with pytest.raises(ValueError, match=re.escape(f"{name} must have finite ends in"
                                                       f" increasing order, got {window}")):
            pde_residual(fig1_spec(), windows["x_window"], windows["t_window"], 16, 16)


@settings(max_examples=20, deadline=None)
@given(front=hyperbolic_fronts())
def test_both_routes_hold_the_exact_front_and_flag_a_shifted_beta(front):
    # the ODE route is exact to rounding, the PDE route to its truncation
    # error; beta + 1e-2 adds -1e-2*u and -1e-2*v to the two rows
    spec, q = front
    co = spec.coeffs
    shifted = replace(spec, coeffs=replace(co, beta_model=co.beta_model + 1e-2))
    half = 8.0 / q
    ode, ode_shifted = (ode_residual(s, -half, half) for s in (spec, shifted))
    assert max(val for _, val in ode.extra) < 1e-12  # rel_max.prey, rel_max.predator
    u, v = eval_uv(spec, np.linspace(-half, half, 2001), 0.0)
    assert ode_shifted.max_abs == pytest.approx((1e-2 * np.max(np.abs(u)),
                                                 1e-2 * np.max(np.abs(v))), rel=1e-6)
    t_window = (0.0, 1.0 / (q * (abs(co.c) + 1.0)))
    pde, pde_shifted = (pde_residual(s, (-half, half), t_window) for s in (spec, shifted))
    assert 10.0 * pde.worst <= pde_shifted.worst


class TestCheckGOde:
    def test_hyperbolic_reference(self):
        rep = check_G_ode(CaseKind.HYPERBOLIC, -2.47487, 0.2, 20.0, 10.0,
                          np.linspace(-10, 10, 1001))
        assert rep.max_abs[0] < 1e-12

    def test_degenerate_pure_exponential(self):
        rep = check_G_ode(CaseKind.DEGENERATE, 2.0, 1.0, 1.0, 0.0,
                          np.linspace(-5, 5, 201))
        assert rep.max_abs[0] < 1e-15

    def test_trigonometric(self):
        rep = check_G_ode(CaseKind.TRIGONOMETRIC, 0.0, 1.0, 1.0, 1.0,
                          np.linspace(-10, 10, 501))
        assert rep.max_abs[0] < 1e-13


    @pytest.mark.parametrize("half", [300.0, 5000.0])
    def test_wide_window(self, half):
        # exp(-lam*xi/2)*cosh(q*xi/2) exceeds the largest double near xi = 295;
        # the residual is formed divided by it
        rep = check_G_ode(CaseKind.HYPERBOLIC, -2.47487, 0.2, 20.0, 10.0,
                          np.linspace(-half, half, 1001))
        assert rep.max_abs[0] < 1e-12

    def test_nonfinite_xi_raises(self):
        xi = np.linspace(-5, 5, 11)
        xi[3] = np.nan
        with pytest.raises(AlleeWavesError, match=r"xi=nan"):
            check_G_ode(CaseKind.HYPERBOLIC, -2.47487, 0.2, 20.0, 10.0, xi)


class TestDerivativeCrosscheck:
    def test_phi_figure1(self):
        spec = fig1_spec()

        def fn(xi):
            return eval_phi(spec, xi)

        def dfn(xi):
            return phi_derivatives(spec, xi)[1]

        dev = derivative_crosscheck(fn, dfn, np.linspace(1, 5, 200), 1e-3)
        assert dev < 1e-9

    def test_constant_phi_exact(self):
        spec = extinction_spec()

        def fn(xi):
            return eval_phi(spec, xi)

        def dfn(xi):
            return phi_derivatives(spec, xi)[1]

        assert derivative_crosscheck(fn, dfn, np.linspace(-5, 5, 100), 1e-3) < 1e-12

    def test_u_figure2_one_period(self):
        spec = fig2_spec()

        def fn(xi):
            # u as a function of xi (t=0 makes x = xi)
            return eval_uv(spec, xi, 0.0)[0]

        def dfn(xi):
            return spec.coeffs.alpha1 * phi_derivatives(spec, xi)[1]

        # poles sit near xi = 2.507 + n*T; stay well inside one clear stretch
        grid = np.linspace(-4.4, 2.3, 300)
        assert derivative_crosscheck(fn, dfn, grid, 1e-3) < 1e-8


class TestEstimatePeriod:
    def test_pure_cosine(self):
        x = np.linspace(0, 30, 6000)
        assert estimate_period(np.cos(2.1 * x), x[1] - x[0]) == pytest.approx(
            2 * math.pi / 2.1, abs=5e-3)

    def test_tan_with_poles_as_nan(self):
        x = np.linspace(0, 40, 8000)
        vals = np.tan(x)
        vals[np.abs(np.cos(x)) < 1e-3] = np.nan
        assert estimate_period(vals, x[1] - x[0]) == pytest.approx(math.pi,
                                                                  abs=5e-3)

    def test_aperiodic_rejected(self):
        with pytest.raises(ValueError):
            estimate_period(np.linspace(0, 1, 200) ** 2, 0.01)

    def test_period_beyond_window_rejected(self):
        vals = np.cos(2 * np.pi * np.arange(64) / 59.5) ** 3
        with pytest.raises(ValueError, match="usable window"):
            estimate_period(vals, 1.0)
