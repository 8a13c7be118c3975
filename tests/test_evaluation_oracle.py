"""The closed-form evaluation and the residual reports keep their numbers bit for bit.

The reference functions below are frozen copies of the earlier, straightforward
versions: each operation makes a fresh array, and every amplitude row returns
A'' as well.  The package now writes in place and forms A'' only in
eval_amplitude, so u, v, the mask, A, A', A'' and every report field must come
out identical, byte for byte, on the bench generator's ranges.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alleewaves.errors import NonFiniteError
from alleewaves.exact import (POLE_FLOOR, eval_amplitude, eval_uv_masked,
                              find_singularities, make_spec, require_finite)
from alleewaves.model import CaseKind
from alleewaves.verify import ResidualReport, _report, check_G_ode


def ref_hyperbolic_amp(q, c1, c2, xi):
    P, M = c1 + c2, c2 - c1
    with np.errstate(divide="ignore"):
        theta = 0.5 * (np.log(abs(M)) - np.log(abs(P)))
    w = 0.5 * (abs(c1) + abs(c2))
    h, d = w * (np.sign(P) + np.sign(M)), w * (np.sign(P) - np.sign(M))
    T = np.tanh(q * xi - theta)
    A = h + d * T
    return A, q * (d + h * T), q * q * A


def ref_trigonometric_amp(q, c1, c2, xi):
    s, co = np.sin(q * xi), np.cos(q * xi)
    A = c1 * co + c2 * s
    return A, q * (-c1 * s + c2 * co), -q * q * A


REF_AMP = {
    CaseKind.HYPERBOLIC: ref_hyperbolic_amp,
    CaseKind.TRIGONOMETRIC: ref_trigonometric_amp,
    CaseKind.DEGENERATE: lambda q, c1, c2, xi: (c1 + c2 * xi, np.full_like(xi, float(c2)),
                                                np.zeros_like(xi)),
}


def ref_eval_amplitude(case, lam, mu, c1, c2, xi):
    q = 0.5 * math.sqrt(abs(lam * lam - 4.0 * mu))
    return REF_AMP[case](q, c1, c2, np.asarray(xi, dtype=float))


def ref_phi(spec, xi):
    co = spec.coeffs
    q = 0.5 * math.sqrt(abs(co.lam * co.lam - 4.0 * co.mu))
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        A, Ap, _ = REF_AMP[spec.case](q, spec.c1, spec.c2, xi)
        phi = -0.5 * co.lam + Ap / A
    ok = ~(np.abs(A) < POLE_FLOOR * (abs(spec.c1) + abs(spec.c2)))
    require_finite(xi, {"phi": phi}, where=ok)
    return phi, ok


def ref_eval_uv_masked(spec, x, t):
    co = spec.coeffs
    phi, ok = ref_phi(spec, np.asarray(x, dtype=float) - co.c * np.asarray(t, dtype=float))
    return co.alpha1 * phi + co.alpha0, co.beta1 * phi + co.beta0, ok


def ref_report(r1, r2, where, weight, **fields):
    rows = (r1, r2)
    return ResidualReport(
        eq_names=("prey", "predator"),
        max_abs=tuple(float(np.max(np.abs(r))) for r in rows),
        max_location=tuple(where(int(np.argmax(np.abs(r)))) for r in rows),
        l2=tuple(float(np.sqrt(weight * np.sum(r * r))) for r in rows),
        **fields)


def ref_check_G_ode(case, lam, mu, c1, c2, xi_grid):
    xi = np.asarray(xi_grid, dtype=float)
    A, Ap, App = ref_eval_amplitude(case, lam, mu, c1, c2, xi)
    Gp = Ap - 0.5 * lam * A
    Gpp = App - lam * Ap + 0.25 * lam * lam * A
    res = Gpp + lam * Gp + mu * A
    scale = float(np.max(np.abs(A)))
    norm = np.abs(res) / (scale if scale > 0 else 1.0)
    i = int(np.argmax(norm))
    return ResidualReport(eq_names=("G_ode",), max_abs=(float(norm[i]),),
                          max_location=(float(xi[i]),),
                          l2=(float(np.sqrt(np.mean(norm * norm))),))


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def signed(lo, hi):
    return st.builds(lambda s, m: s * m, st.sampled_from((-1.0, 1.0)), st.floats(lo, hi))


@st.composite
def bench_specs(draw):
    """A spec from the profiles workload's generator ranges, any family and case."""
    family = draw(st.sampled_from("AB"))
    a0, k, d = draw(st.floats(0.3, 3.0)), draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 5.0))
    if family == "A":
        s = (k - 2.0 * a0) ** 2 / 8.0
        mu = s + draw(st.sampled_from((-1.0, 0.0, 1.0))) * draw(st.floats(0.1, 2.0))
    else:
        mu = a0 * a0 / 2.0 + draw(st.sampled_from((0.0, 1.0))) * draw(signed(0.2, 2.0))
    c1, c2 = draw(signed(0.5, 2.0)), draw(signed(0.5, 2.0))
    return make_spec(family, a0, mu, k, d, draw(st.sampled_from(("upper", "lower"))), c1, c2)


def uv_both(spec, x, t):
    """(new, reference) results of eval_uv_masked; an error counts as its message."""
    out = []
    for fn in (eval_uv_masked, ref_eval_uv_masked):
        try:
            out.append(fn(spec, x, t))
        except NonFiniteError as exc:
            out.append(str(exc))
    return out


@settings(max_examples=150, deadline=None)
@given(spec=bench_specs(), t=st.floats(0.0, 2.0), scalar=st.floats(-20.0, 20.0))
def test_eval_uv_masked_matches_the_reference_bitwise(spec, t, scalar):
    poles = find_singularities(spec, -10.0, 10.0)
    x = np.concatenate([np.linspace(-10.0, 10.0, 401), poles, [-1e6, -1e15, 1e6, 1e15]])
    x += spec.coeffs.c * t  # so xi = x - c*t lands on the poles: masked samples count too
    t_col = np.array([[0.0], [t], [2.0 * t]])
    for xx, tt in [(x, t), (x[None, :], t_col), (scalar, t), (np.array(scalar), np.array(t))]:
        new, ref = uv_both(spec, xx, tt)
        assert all(same_bytes(a, b) for a, b in zip(new, ref))
    new, ref = uv_both(spec, np.array([0.0, math.nan, 1.0]), t)
    assert new == ref == "phi is not finite at xi=nan"


@settings(max_examples=150, deadline=None)
@given(spec=bench_specs(), scalar=st.floats(-20.0, 20.0))
def test_eval_amplitude_matches_the_reference_bitwise(spec, scalar):
    co = spec.coeffs
    x = np.concatenate([np.linspace(-10.0, 10.0, 401), find_singularities(spec, -10.0, 10.0),
                        [-1e6, 1e6, math.nan]])
    for xx in (x, x[:400].reshape(20, 20), scalar, np.array(scalar)):
        new = eval_amplitude(spec.case, co.lam, co.mu, spec.c1, spec.c2, xx)
        ref = ref_eval_amplitude(spec.case, co.lam, co.mu, spec.c1, spec.c2, xx)
        assert all(same_bytes(a, b) for a, b in zip(new, ref))
    assert check_G_ode(spec.case, co.lam, co.mu, spec.c1, spec.c2, x[:-1]) \
        == ref_check_G_ode(spec.case, co.lam, co.mu, spec.c1, spec.c2, x[:-1])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(501,), (28, 28), (16,)]),
       scale=st.sampled_from([1e-14, 1.0, 1e100]), weight=st.floats(1e-6, 1.0))
def test_report_matches_the_reference(seed, shape, scale, weight):
    rng = np.random.default_rng(seed)
    r1, r2 = scale * rng.standard_normal(shape), scale * rng.standard_normal(shape)
    r2.flat[rng.integers(r2.size)] = -r2.flat[int(np.argmax(np.abs(r2)))]  # a tied max
    where = (lambda i: float(i) / 3.0) if len(shape) == 1 else (lambda i: divmod(i, shape[1]))
    extra = (("rel_max.prey", 1e-16),)
    new = _report(r1, r2, where, weight, n_excluded=3, exclusion_radius=0.4,
                  extra=lambda max_abs: extra)
    assert new == ref_report(r1, r2, where, weight, n_excluded=3, exclusion_radius=0.4,
                             extra=extra)


def case_specs():
    return {"hyperbolic": make_spec("A", 1.2, 0.2, 5.9, 3.0, "upper", 20.0, 10.0),
            "trigonometric": make_spec("A", 1.5, 2.0, 5.0, 2.0, "upper", 1.0, 0.5),
            "degenerate": make_spec("A", 1.0, 1.125, 5.0, 2.0, "upper", 1.0, 0.5)}


@pytest.mark.parametrize("case", list(case_specs()))
def test_eval_uv_masked_allocates_at_most_4_5_samples_of_floats(case):
    # the earlier version peaked at 6.13 (7.01 trigonometric) floats per sample
    spec = case_specs()[case]
    assert spec.case.value == case
    n = 20001
    x = np.linspace(-10.0, 10.0, n)
    before = x.copy()
    eval_uv_masked(spec, x, 0.37)
    tracemalloc.start()
    try:
        eval_uv_masked(spec, x, 0.37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * n * 8
    co = spec.coeffs
    eval_amplitude(spec.case, co.lam, co.mu, spec.c1, spec.c2, x)
    assert x.tobytes() == before.tobytes()  # the caller's samples are never written
