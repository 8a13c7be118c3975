"""Every library route either returns finite numbers or raises a typed error.

Both coefficient families either derive ten finite coefficients or raise
SingularParameterError naming the family inputs.

The strategy draws each float from its normal range or from a set of extreme
values.  eval_uv_masked, ode_residual, check_G_ode and pde_residual must then
raise AlleeWavesError or ValueError, or return only finite values at the
samples they do not mask; pytest turns any NumPy RuntimeWarning into a
failure, so no overflow may escape either.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alleewaves.errors import AlleeWavesError, SingularParameterError
from alleewaves.exact import derive_set_a, derive_set_b, eval_uv_masked, make_spec
from alleewaves.verify import check_G_ode, ode_residual, pde_residual

EXTREME = (0.0, 1e-300, -1e-300, 1e12, -1e12, 1e150, -1e150, 1e300, -1e300, 5e-324)


def num(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from(EXTREME))


def finite_report(rep):
    return all(map(math.isfinite, rep.max_abs + rep.l2 + tuple(v for _, v in rep.extra)))


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from("AB"), branch=st.sampled_from(("upper", "lower")),
       alpha0=num(0.3, 3.0), mu=num(-2.0, 10.0), k=num(0.5, 8.0), delta=num(0.5, 5.0),
       c1=num(-2.0, 2.0), c2=num(-2.0, 2.0), lo=num(-20.0, 0.0), width=num(0.1, 20.0),
       t=num(0.0, 2.0))
def test_library_is_finite_or_typed(family, branch, alpha0, mu, k, delta, c1, c2, lo,
                                    width, t):
    try:
        spec = make_spec(family, alpha0, mu, k, delta, branch, c1, c2)
    except (AlleeWavesError, ValueError):
        return
    co = spec.coeffs
    x = np.linspace(lo, lo + width, 64)
    routes = {
        "eval_uv_masked": lambda: eval_uv_masked(spec, x, t),
        "ode_residual": lambda: ode_residual(spec, lo, lo + width, 64),
        "check_G_ode": lambda: check_G_ode(spec.case, co.lam, co.mu, c1, c2, x),
        "pde_residual": lambda: pde_residual(spec, (lo, lo + width), (0.0, t), 12, 12),
    }
    for name, route in routes.items():
        try:
            out = route()
        except (AlleeWavesError, ValueError):
            continue
        if name == "eval_uv_masked":
            u, v, ok = out
            assert np.isfinite(u[ok]).all() and np.isfinite(v[ok]).all(), name
        else:
            assert finite_report(out), (name, out)


@pytest.mark.parametrize("branch", ["upper", "lower"])
@pytest.mark.parametrize("derive", [derive_set_a, derive_set_b], ids=["A", "B"])
def test_overflowing_beta0_is_singular(derive, branch):
    # beta0 = alpha0/sqrt(delta) overflowed to inf, and make_spec built the spec
    with pytest.raises(SingularParameterError, match=r"^Set [AB] is not finite at alpha0=1e\+150,"
                                                     r" mu=0.2, k=5.9, delta=5e-324: .*beta0=inf"):
        derive(1e150, 0.2, 5.9, 5e-324, branch)


@settings(max_examples=300, deadline=None)
@given(derive=st.sampled_from([derive_set_a, derive_set_b]),
       branch=st.sampled_from(("upper", "lower")), alpha0=num(0.3, 3.0), mu=num(-2.0, 10.0),
       k=num(0.5, 8.0), delta=num(0.5, 5.0))
def test_family_coefficients_are_finite_or_singular(derive, branch, alpha0, mu, k, delta):
    try:
        co = derive(alpha0, mu, k, delta, branch)
    except SingularParameterError:
        return
    except ValueError:
        assert delta <= 0
        return
    assert all(map(math.isfinite, vars(co).values())), co
