import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import alleewaves.sim as sim
from alleewaves.errors import BlowUpError, StabilityError, TrackingError
from alleewaves.exact import eval_uv_masked, make_spec
from alleewaves.sim import (RK4_REAL_INTERVAL, STABILITY_SAFETY, GridField,
                            Run, SimConfig, _check_state, check_stability,
                            measure_wave_speed, simulate, step)


def uniform_field(u0, v0, n=64, x0=-5.0, dx=0.1):
    return GridField(x0=x0, dx=dx, t=0.0,
                     u=np.full(n, u0), v=np.full(n, v0))


def scalar_rk4(u, v, k, delta, beta, dt, n_steps):
    """Reference ODE integrator for spatially uniform states."""
    s = 1.0 / math.sqrt(delta)

    def rhs(u, v):
        return (-beta * u + (k + s) * u * u - u**3 - u * v,
                k * u * v - beta * v - delta * v**3)

    for _ in range(n_steps):
        k1 = rhs(u, v)
        k2 = rhs(u + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1])
        k3 = rhs(u + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1])
        k4 = rhs(u + dt * k3[0], v + dt * k3[1])
        u += (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v += (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return u, v


def _laplacian(f, dx, bc):
    lap = np.empty_like(f)
    inv = 1.0 / (dx * dx)
    lap[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) * inv
    if bc == "periodic":
        lap[0] = (f[-1] - 2.0 * f[0] + f[1]) * inv
        lap[-1] = (f[-2] - 2.0 * f[-1] + f[0]) * inv
    else:  # ghost-point reflection: f[-1] := f[1], f[n] := f[n-2]
        lap[0] = 2.0 * (f[1] - f[0]) * inv
        lap[-1] = 2.0 * (f[-2] - f[-1]) * inv
    return lap


def _rhs(u, v, dx, cfg: SimConfig):
    s = 1.0 / math.sqrt(cfg.delta)
    fu = _laplacian(u, dx, cfg.bc) - cfg.beta * u + (cfg.k + s) * u * u \
        - u**3 - u * v
    fv = _laplacian(v, dx, cfg.bc) + cfg.k * u * v - cfg.beta * v \
        - cfg.delta * v**3
    return fu, fv


def reference_step(field: GridField, cfg: SimConfig) -> GridField:
    """One classical RK4 step of the unfused kernel, one temporary per term.

    The reference the fused ``step`` is held to: same scheme, same checks,
    only the order of the floating-point operations differs.
    """
    check_stability(cfg, field.dx)
    dt = cfg.dt
    u, v = field.u, field.v
    k1u, k1v = _rhs(u, v, field.dx, cfg)
    k2u, k2v = _rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, field.dx, cfg)
    k3u, k3v = _rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, field.dx, cfg)
    k4u, k4v = _rhs(u + dt * k3u, v + dt * k3v, field.dx, cfg)
    un = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    vn = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    tn = field.t + dt
    if not (np.isfinite(un).all() and np.isfinite(vn).all()):
        bad = np.nonzero(~(np.isfinite(un) & np.isfinite(vn)))[0][0]
        raise BlowUpError(tn, field.x0 + field.dx * bad)
    return replace(field, u=un, v=vn, t=tn)



# Frozen copies of the per-step kernel simulate used before it kept one run
# state per call: same arithmetic, but every buffer, view and GridField is
# rebuilt on each step.  simulate must match them bit for bit.
def _frozen_stage_rhs(y, out, scratch, dx, cfg: SimConfig):
    m = len(y) // 2
    if cfg.bc == "periodic":
        y[0], y[m - 1], y[m], y[-1] = y[m - 2], y[1], y[-2], y[m + 1]
    else:  # zero-flux: reflect about the end nodes
        y[0], y[m - 1], y[m], y[-1] = y[2], y[m - 3], y[m + 2], y[-3]
    u, v = y[:m], y[m:]
    pu, pv = scratch[:m], scratch[m:]
    tmp = out[:m]
    np.subtract(cfg.k + 1.0 / math.sqrt(cfg.delta), u, out=pu)
    pu *= u
    pu -= v
    np.multiply(v, v, out=pv)
    pv *= -cfg.delta
    np.multiply(u, cfg.k, out=tmp)
    pv += tmp
    inv_dx2 = 1.0 / (dx * dx)
    scratch -= cfg.beta + 2.0 * inv_dx2
    scratch *= y
    np.add(y[:-2], y[2:], out=out[1:-1])
    out *= inv_dx2
    out += scratch


def frozen_step(field: GridField, cfg: SimConfig) -> GridField:
    check_stability(cfg, field.dx)
    dt, dx = cfg.dt, field.dx
    n = len(field.u)
    padded = np.empty((2, n + 2))
    padded[0, 1:-1] = field.u
    padded[1, 1:-1] = field.v
    y0 = padded.ravel()
    y = np.empty_like(y0)
    scratch = np.empty_like(y0)
    k = np.empty_like(y0)
    acc = np.empty_like(y0)
    k[0] = k[-1] = acc[0] = acc[-1] = 0.0
    _frozen_stage_rhs(y0, acc, scratch, dx, cfg)
    acc *= 0.5
    np.multiply(acc, dt, out=y)
    y += y0
    _frozen_stage_rhs(y, k, scratch, dx, cfg)
    acc += k
    np.multiply(k, 0.5 * dt, out=y)
    y += y0
    _frozen_stage_rhs(y, k, scratch, dx, cfg)
    acc += k
    np.multiply(k, dt, out=y)
    y += y0
    _frozen_stage_rhs(y, k, scratch, dx, cfg)
    k *= 0.5
    acc += k
    acc *= dt / 3.0
    acc += y0
    new = acc.reshape(2, n + 2)[:, 1:-1]
    tn = field.t + dt
    _check_state(new, tn, field.x0, dx, cfg)
    return GridField(field.x0, dx, new[0], new[1], tn)


def frozen_simulate(initial: GridField, cfg: SimConfig):
    """simulate's snapshots, by chaining frozen_step."""
    n_steps = round(cfg.t_end / cfg.dt)
    snapshots = [initial]
    f = initial
    for i in range(1, n_steps + 1):
        f = frozen_step(f, cfg)
        if i % cfg.snapshot_every == 0 or i == n_steps:
            f = GridField(f.x0, f.dx, f.u, f.v, initial.t + i * cfg.dt)
            snapshots.append(f)
    return snapshots


class TestConfigAndGrid:
    def test_grid_requires_positive_dx(self):
        with pytest.raises(ValueError):
            GridField(x0=0.0, dx=0.0, u=np.zeros(16), v=np.zeros(16), t=0.0)

    def test_grid_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            GridField(x0=0.0, dx=0.1, u=np.zeros(16), v=np.zeros(8), t=0.0)

    @pytest.mark.parametrize("name, bad", [("x0", math.nan), ("dx", math.inf),
                                           ("dx", math.nan), ("t", math.nan),
                                           ("t", -math.inf)])
    def test_grid_rejects_nonfinite(self, name, bad):
        kw = dict(x0=0.0, dx=0.1, u=np.zeros(16), v=np.zeros(16), t=0.0)
        kw[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            GridField(**kw)

    def test_x_property(self):
        f = uniform_field(0.0, 0.0, n=16, x0=-1.0, dx=0.25)
        assert f.x[0] == -1.0
        assert f.x[-1] == pytest.approx(-1.0 + 15 * 0.25)

    def test_config_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            SimConfig(k=-1.0, delta=1.0, beta=1.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            SimConfig(k=1.0, delta=0.0, beta=1.0, dt=1e-3, t_end=1.0)

    @pytest.mark.parametrize("name, bad", [("k", math.nan), ("delta", math.nan),
                                           ("beta", math.nan), ("dt", math.nan),
                                           ("t_end", math.inf)])
    def test_config_rejects_nonfinite(self, name, bad):
        # t_end=inf used to raise OverflowError from round()
        kw = dict(k=1.0, delta=1.0, beta=1.0, dt=1e-3, t_end=1.0)
        kw[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SimConfig(**kw)

    def test_config_allows_pure_diffusion_limit(self):
        SimConfig(k=0.0, delta=1.0, beta=0.0, dt=1e-3, t_end=1.0)

    def test_bad_bc(self):
        with pytest.raises(ValueError):
            SimConfig(k=1.0, delta=1.0, beta=1.0, dt=1e-3, t_end=1.0,
                      bc="dirichlet")

    def test_stability_guard(self):
        cfg = SimConfig(k=1.0, delta=1.0, beta=1.0, dt=0.01, t_end=1.0)
        with pytest.raises(StabilityError):
            check_stability(cfg, dx=0.1)  # limit is 0.8*0.01/2 = 0.004
        check_stability(cfg, dx=0.2)

    def test_t_end_must_be_whole_steps(self):
        with pytest.raises(ValueError, match="whole number"):
            SimConfig(k=1.0, delta=1.0, beta=1.0, dt=0.3, t_end=1.0)
        for t_end, dt in ((2.0, 0.004), (2.0, 0.001), (2.0, 0.00025),
                          (0.1, 0.05), (0.05, 1e-3)):
            SimConfig(k=1.0, delta=1.0, beta=1.0, dt=dt, t_end=t_end)

    def test_simulate_checks_stability(self):
        cfg = SimConfig(k=1.0, delta=1.0, beta=1.0, dt=0.01, t_end=0.1)
        with pytest.raises(StabilityError):
            simulate(uniform_field(0.1, 0.1, dx=0.1), cfg)


class TestDynamics:
    def test_zero_is_fixed_point(self):
        cfg = SimConfig(k=1.0, delta=2.0, beta=0.5, dt=1e-3, t_end=0.05)
        final = simulate(uniform_field(0.0, 0.0), cfg)[-1]
        assert np.all(final.u == 0.0)
        assert np.all(final.v == 0.0)

    def test_prey_only_steady_state(self):
        # with delta=1 the prey nullcline roots are u^2 - (k+1)u + beta = 0;
        # k=1, beta=0.75 gives u* in {0.5, 1.5}
        for u_star in (0.5, 1.5):
            cfg = SimConfig(k=1.0, delta=1.0, beta=0.75, dt=1e-3, t_end=0.2)
            final = simulate(uniform_field(u_star, 0.0), cfg)[-1]
            assert np.max(np.abs(final.u - u_star)) < 1e-12
            assert np.all(final.v == 0.0)

    def test_uniform_state_matches_scalar_rk4(self):
        cfg = SimConfig(k=2.0, delta=3.0, beta=0.4, dt=1e-3, t_end=0.1)
        for bc in ("neumann", "periodic"):
            final = simulate(uniform_field(0.3, 0.2, dx=0.1), cfg)[-1]
            u_ref, v_ref = scalar_rk4(0.3, 0.2, 2.0, 3.0, 0.4, 1e-3, 100)
            assert np.max(np.abs(final.u - u_ref)) < 1e-12
            assert np.max(np.abs(final.v - v_ref)) < 1e-12
            assert np.ptp(final.u) == 0.0  # stays uniform

    def test_heat_eigenmode_decay(self):
        # tiny amplitude so the reaction terms are negligible; the periodic
        # cosine mode decays at the discrete-Laplacian rate
        n, L = 200, 10.0
        dx = L / n
        x = dx * np.arange(n)
        q = 2 * math.pi / L
        amp = 1e-6
        cfg = SimConfig(k=0.0, delta=1.0, beta=0.0, dt=5e-4, t_end=0.5,
                        bc="periodic")
        f0 = GridField(x0=0.0, dx=dx, u=amp * np.cos(q * x),
                       v=np.zeros(n), t=0.0)
        final = simulate(f0, cfg)[-1]
        rate = -2.0 * (1.0 - math.cos(q * dx)) / (dx * dx)
        expected = amp * math.exp(rate * cfg.t_end)
        measured = 0.5 * np.ptp(final.u)
        assert measured == pytest.approx(expected, rel=1e-4)
        assert np.all(final.v == 0.0)

    def test_nonfinite_state_raises_blowup(self):
        cfg = SimConfig(k=1.0, delta=1.0, beta=1.0, dt=1e-3, t_end=1.0)
        f = uniform_field(1e160, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                step(Run(f, cfg))

    @pytest.mark.parametrize("spike", [1e6, 1e20])
    def test_blowup_names_the_bad_cell(self, spike):
        # one huge interior value overflows there first; the report names
        # that cell or its neighbour, as the unfused kernel does
        j = 23
        u = np.full(64, 0.1)
        u[j] = spike
        f = GridField(x0=-5.0, dx=0.1, u=u, v=np.full(64, 0.1), t=0.25)
        cfg = SimConfig(k=1.0, delta=1.0, beta=1.0, dt=1e-3, t_end=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as got:
                step(Run(f, cfg))
            with pytest.raises(BlowUpError) as want:
                reference_step(f, cfg)
        assert got.value.t == 0.25 + 1e-3
        assert abs(got.value.x - f.x[j]) <= 1.001 * f.dx
        assert got.value.x == want.value.x

    def test_deterministic(self):
        cfg = SimConfig(k=1.2, delta=2.0, beta=0.3, dt=1e-3, t_end=0.05)
        rng = np.random.RandomState(11)
        u0 = 0.1 * rng.rand(64)
        f0 = GridField(x0=-5.0, dx=0.1, u=u0, v=0.5 * u0, t=0.0)
        a = simulate(f0, cfg)[-1]
        b = simulate(f0, cfg)[-1]
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)

    def test_snapshot_cadence(self):
        cfg = SimConfig(k=1.0, delta=1.0, beta=1.0, dt=1e-3, t_end=0.05,
                        snapshot_every=10)
        snaps = simulate(uniform_field(0.1, 0.1), cfg)
        assert len(snaps) == 6  # initial + every 10 of 50 steps
        assert snaps[0].t == 0.0
        assert snaps[-1].t == pytest.approx(0.05)


    def test_snapshot_times_are_exact(self):
        # t is i*dt, not a running sum: 2000 sums of 1e-3 give 1.99999999999989
        cfg = SimConfig(k=1.0, delta=1.0, beta=1.0, dt=1e-3, t_end=2.0,
                        snapshot_every=500)
        snaps = simulate(uniform_field(0.1, 0.1, n=8), cfg)
        assert [f.t for f in snaps] == [0.0, 0.5, 1.0, 1.5, 2.0]


    def test_simulate_calls_step_once_per_step(self, monkeypatch):
        # the tracer counts sim.steps and sim.rhs_evals through sim.step
        calls = []

        def counting_step(run):
            calls.append(run.t)
            return step(run)

        monkeypatch.setattr(sim, "step", counting_step)
        cfg = SimConfig(k=1.0, delta=1.0, beta=1.0, dt=1e-3, t_end=0.05,
                        snapshot_every=7)
        simulate(uniform_field(0.1, 0.1), cfg)
        assert len(calls) == round(cfg.t_end / cfg.dt) == 50

    def test_snapshots_pin_only_their_own_state(self):
        # each kept snapshot holds its step's result buffer alive, so that
        # buffer must be no larger than the padded (u, v) state
        n = 64
        cfg = SimConfig(k=1.0, delta=1.0, beta=1.0, dt=1e-3, t_end=0.05,
                        snapshot_every=10)
        snaps = simulate(uniform_field(0.1, 0.1, n=n), cfg)
        for f in snaps[1:]:
            assert f.u.base is f.v.base
            assert f.u.base.shape == (2 * (n + 2),)
            assert f.u.base.base is None


    def test_interleaved_runs_match_solo_runs(self):
        # each Run binds its own views and constants: two runs stepped in turn
        # must each match a solo run of itself by the frozen kernel, which
        # shares no state with Run, bit for bit
        def field_cfg(dx, dt, k, delta, bc, n=48):
            x = dx * np.arange(n)
            u0 = 0.6 + 0.3 * np.cos(2.0 * math.pi * x / (n * dx))
            cfg = SimConfig(k=k, delta=delta, beta=0.5, dt=dt, t_end=300 * dt,
                            bc=bc, snapshot_every=300)
            return GridField(x0=-1.0, dx=dx, u=u0, v=0.5 * u0, t=0.0), cfg

        cases = [field_cfg(0.1, 0.004, 1.0, 1.0, "neumann"),
                 field_cfg(0.2, 0.01, 2.5, 3.0, "periodic")]
        runs = [Run(f, cfg) for f, cfg in cases]
        for _ in range(300):
            for run in runs:
                step(run)
        for run, (f, cfg) in zip(runs, cases):
            got, want = run.snapshot(), frozen_simulate(f, cfg)[-1]
            assert got.t == want.t
            assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


class TestReactionStiffness:
    """dt times a local reaction-Jacobian eigenvalue must stay inside RK4's
    real stability interval; the diffusion bound alone lets these through."""

    def stiff(self, v):
        # dx = 1 keeps dt = 0.4 on the diffusion limit 0.8 * 1 / 2
        return (GridField(x0=-3.5, dx=1.0, u=np.zeros(8), v=v, t=0.0),
                SimConfig(k=1.0, delta=10.0, beta=0.0, dt=0.4, t_end=0.4))

    def test_simulate_rejects_stiff_initial_state(self):
        # dt * 3 delta v^2 = 48: this used to return v ~ 1.9e35
        f, cfg = self.stiff(np.full(8, 2.0))
        with pytest.raises(StabilityError, match=r"at t=0, x=-3\.5$"):
            simulate(f, cfg)

    def test_step_rejects_stiff_result(self):
        f, cfg = self.stiff(np.full(8, 2.0))
        with pytest.raises(StabilityError, match=r"at t=0\.4, x=-3\.5$"):
            step(Run(f, cfg))

    def test_names_first_offending_cell(self):
        v = np.full(8, 0.1)
        v[5:7] = 2.0
        f, cfg = self.stiff(v)
        with pytest.raises(StabilityError, match=r"at t=0, x=1\.5$"):
            simulate(f, cfg)

    def test_gershgorin_bound_alone_does_not_reject(self):
        # eigenvalues -2 and -120 but row sum 122: dt = 0.023 sits between
        f = GridField(x0=0.0, dx=1.0, u=np.zeros(8), v=np.full(8, 2.0), t=0.0)
        cfg = SimConfig(k=1.0, delta=10.0, beta=0.0, dt=0.023, t_end=0.023)
        assert cfg.dt * 122 > RK4_REAL_INTERVAL > cfg.dt * 120
        final = simulate(f, cfg)[-1]
        assert np.all((0.0 < final.v) & (final.v < 2.0))

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(-3.0, 3.0), v=st.floats(-3.0, 3.0),
           k=st.floats(0.0, 10.0), delta=st.floats(0.1, 10.0),
           beta=st.floats(0.0, 5.0), side=st.sampled_from([0.99, 1.01]))
    def test_limit_is_the_local_spectral_radius(self, u, v, k, delta, beta,
                                                side):
        s = 1.0 / math.sqrt(delta)
        jac = [[2 * (k + s) * u - 3 * u * u - v - beta, -u],
               [k * v, k * u - 3 * delta * v * v - beta]]
        rho = np.max(np.abs(np.linalg.eigvals(jac)))
        assume(rho > 1e-6)
        dt = side * RK4_REAL_INTERVAL / rho
        cfg = SimConfig(k=k, delta=delta, beta=beta, dt=dt, t_end=dt)
        state = np.array([np.full(8, u), np.full(8, v)])
        if side > 1.0:
            with pytest.raises(StabilityError, match="at t=0, x=0$"):
                _check_state(state, 0.0, 0.0, 1.0, cfg)
        else:
            _check_state(state, 0.0, 0.0, 1.0, cfg)

    def test_nonfinite_initial_state_raises_blowup(self):
        u = np.full(8, 0.1)
        u[3] = np.nan
        f = GridField(x0=0.0, dx=1.0, u=u, v=np.zeros(8), t=0.5)
        cfg = SimConfig(k=1.0, delta=1.0, beta=0.0, dt=0.1, t_end=0.1)
        with pytest.raises(BlowUpError) as got:
            simulate(f, cfg)
        assert (got.value.t, got.value.x) == (0.5, 3.0)


class TestReferenceKernel:
    """The fused step against the unfused reference_step."""

    # dx <= 0.2 keeps dt times the reaction Jacobian (up to ~150 for these
    # ranges) inside RK4's stability interval too, so one step cannot grow
    # the state by orders of magnitude and a relative bound stays meaningful
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(8, 400), dx=st.floats(0.01, 0.2),
           k=st.floats(0.0, 10.0), delta=st.floats(0.1, 10.0),
           beta=st.floats(0.0, 5.0), dt_frac=st.floats(0.01, 1.0),
           bc=st.sampled_from(["neumann", "periodic"]), data=st.data())
    def test_one_step_matches(self, n, dx, k, delta, beta, dt_frac, bc, data):
        state = arrays(np.float64, n, elements=st.floats(-2.0, 2.0))
        u, v = data.draw(state), data.draw(state)
        dt = dt_frac * (STABILITY_SAFETY * dx * dx / 2.0)
        cfg = SimConfig(k=k, delta=delta, beta=beta, dt=dt, t_end=dt, bc=bc)
        f = GridField(x0=-1.0, dx=dx, u=u, v=v, t=0.0)
        run = Run(f, cfg)
        step(run)
        got, want = run.snapshot(), reference_step(f, cfg)
        scale = max(np.max(np.abs(a)) for a in (u, v, want.u, want.v))
        assert np.max(np.abs(got.u - want.u)) <= 1e-12 * scale
        assert np.max(np.abs(got.v - want.v)) <= 1e-12 * scale
        assert got.t == want.t

    @pytest.mark.parametrize("dx, dt", [(0.1, 0.004), (0.05, 0.001)])
    def test_criterion_5_set_matches(self, dx, dt):
        # the acceptance wave-speed run (N=1601) and its coarse grid (N=801)
        spec = make_spec("A", 1.2, 0.2, 5.9, 3.0, "upper", 10.0, 20.0)
        x = np.arange(-40.0, 40.0 + 0.5 * dx, dx)
        u0, v0, _ = eval_uv_masked(spec, x, 0.0)
        cfg = SimConfig(k=5.9, delta=3.0, beta=spec.coeffs.beta_model,
                        dt=dt, t_end=2.0, snapshot_every=10**9)
        f0 = GridField(x0=float(x[0]), dx=dx, u=u0, v=v0, t=0.0)
        got = simulate(f0, cfg)[-1]
        want = f0
        for _ in range(round(cfg.t_end / dt)):
            want = reference_step(want, cfg)
        assert np.max(np.abs(got.u - want.u)) <= 1e-10
        assert np.max(np.abs(got.v - want.v)) <= 1e-10


    def test_periodic_many_steps_match(self):
        # 500 steps at N=801 with a front and a predator bump on the seam,
        # where the wrapped ghosts carry the stencil; the criterion-5 bound
        n, dx, dt = 801, 0.1, 0.004
        x = -40.0 + dx * np.arange(n)
        phase = 2.0 * math.pi * x / (n * dx)
        u0 = 0.5 * (1.0 + np.tanh(4.0 * np.sin(phase)))
        v0 = 0.4 * (1.0 - np.cos(phase))
        cfg = SimConfig(k=5.9, delta=3.0, beta=0.4, dt=dt, t_end=500 * dt,
                        bc="periodic", snapshot_every=10**9)
        f0 = GridField(x0=float(x[0]), dx=dx, u=u0, v=v0, t=0.0)
        got = simulate(f0, cfg)[-1]
        want = f0
        for _ in range(500):
            want = reference_step(want, cfg)
        assert np.max(np.abs(got.u - want.u)) <= 1e-10
        assert np.max(np.abs(got.v - want.v)) <= 1e-10



class TestFrozenKernel:
    """simulate against frozen_simulate, bit for bit."""

    def assert_identical(self, f0, cfg):
        got, want = simulate(f0, cfg), frozen_simulate(f0, cfg)
        assert [f.t for f in got] == [f.t for f in want]
        for g, w in zip(got, want):
            assert np.array_equal(g.u, w.u) and np.array_equal(g.v, w.v)
            # array_equal takes -0.0 for 0.0, which a snapshot writes as -0
            assert g.u.tobytes() == w.u.tobytes() and g.v.tobytes() == w.v.tobytes()
        return got

    @pytest.mark.parametrize("bc", ["neumann", "periodic"])
    def test_criterion_5_grid(self, bc):
        # the acceptance wave-speed run: N=1601, 2000 steps
        spec = make_spec("A", 1.2, 0.2, 5.9, 3.0, "upper", 10.0, 20.0)
        dx = 0.05
        x = np.arange(-40.0, 40.0 + 0.5 * dx, dx)
        u0, v0, _ = eval_uv_masked(spec, x, 0.0)
        cfg = SimConfig(k=5.9, delta=3.0, beta=spec.coeffs.beta_model,
                        dt=0.001, t_end=2.0, bc=bc, snapshot_every=250)
        self.assert_identical(GridField(x0=float(x[0]), dx=dx, u=u0, v=v0, t=0.0), cfg)

    def test_periodic_front_crosses_the_seam(self):
        # the high prey state on (-2, 38) invades the low one to its right,
        # across the seam at x = 40 = -40, where the wrapped ghosts carry it
        n, dx, dt = 801, 0.1, 0.004
        x = -40.0 + dx * np.arange(n)
        phase = 2.0 * math.pi * (x + 2.0) / (n * dx)
        u0 = 0.5 * (1.0 + np.tanh(4.0 * np.sin(phase)))
        v0 = 0.4 * (1.0 - np.cos(phase))
        cfg = SimConfig(k=5.9, delta=3.0, beta=0.4, dt=dt, t_end=500 * dt,
                        bc="periodic", snapshot_every=50)
        f0 = GridField(x0=float(x[0]), dx=dx, u=u0, v=v0, t=0.0)
        final = self.assert_identical(f0, cfg)[-1]
        assert f0.u[0] < 1.0 < final.u[0] and f0.u[-1] < 1.0 < final.u[-1]

    def test_long_run_keeps_stage_buffer_ends_finite(self):
        # the stencil never writes the stage buffers' outer entries and each
        # stage scales them by 1/dx^2 = 100; zeroed only once, they overflow
        # after about 50 steps and filterwarnings = error fails this run
        n, dx, dt = 16, 0.1, 0.004
        x = dx * np.arange(n)
        u0 = 0.6 + 0.3 * np.cos(2.0 * math.pi * x / (n * dx))
        cfg = SimConfig(k=1.0, delta=1.0, beta=0.5, dt=dt, t_end=20000 * dt,
                        snapshot_every=5000)
        self.assert_identical(GridField(x0=0.0, dx=dx, u=u0, v=0.5 * u0, t=0.0), cfg)


class TestActiveWindow:
    """simulate steps only the cells between frozen ends, byte for byte as
    frozen_simulate steps the whole grid."""

    # with k = delta = beta = 1 and dx = 0.5 the kernel's stage RHS is exactly
    # 0 at (0, 0) and (1, 0); (0.5, 0.25) is flat but moves, and a -0.0 end
    # turns into +0.0 on the first step
    ENDS = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.25), (-0.0, 0.0), (1.0, -0.0)]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), bc=st.sampled_from(["neumann", "neumann", "periodic"]),
           n_steps=st.integers(1, 120), every=st.integers(1, 60))
    def test_matches_the_full_grid(self, data, bc, n_steps, every):
        # ends from 0 cells to well past the 66 the window keeps beyond each
        # edge; the middle's noise reaches the (0, 0) ends within the run
        mid = data.draw(st.integers(8, 40))
        u = data.draw(arrays(np.float64, mid, elements=st.floats(-0.5, 1.5)))
        v = data.draw(arrays(np.float64, mid, elements=st.floats(-0.5, 1.0)))
        for side in (0, -1):
            ue, ve = data.draw(st.sampled_from(self.ENDS + self.ENDS[:2] * 2))
            length = data.draw(st.integers(0, 200))
            ends = np.full(length, ue), np.full(length, ve)
            u, v = [np.concatenate((e, a) if side == 0 else (a, e)) for a, e in zip((u, v), ends)]
        cfg = SimConfig(k=1.0, delta=1.0, beta=1.0, dt=0.05, t_end=n_steps * 0.05, bc=bc,
                        snapshot_every=every)
        TestFrozenKernel().assert_identical(GridField(x0=-3.0, dx=0.5, u=u, v=v, t=0.0), cfg)

    def test_blowup_in_the_window_names_the_full_grid_cell(self):
        # (0, 0) ends start the window at cell 150 - 66 = 84; u^3 at the spike
        # overflows on the first step, and the first non-finite cell is 203,
        # where -40 + 0.1*203 differs from (-40 + 0.1*84) + 0.1*(203 - 84)
        u, v = np.zeros(400), np.zeros(400)
        u[150:250], u[206] = 0.5, 1e150
        f = GridField(x0=-40.0, dx=0.1, u=u, v=v, t=0.25)
        cfg = SimConfig(k=1.0, delta=1.0, beta=1.0, dt=1e-301, t_end=1e-300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as got:
                simulate(f, cfg)
            with pytest.raises(BlowUpError) as want:
                frozen_simulate(f, cfg)
        assert (got.value.t, got.value.x) == (want.value.t, want.value.x)
        assert got.value.x == f.x[203]

    def test_stiff_cell_in_the_window_is_named_as_on_the_full_grid(self):
        # the prey grows toward its upper root near 21 until dt times the
        # local Jacobian leaves RK4's interval, after some steps in a window
        u, v = np.zeros(400), np.zeros(400)
        u[180:220], v[180:220], u[203] = 0.5, 0.1, 1.0
        f = GridField(x0=-40.0, dx=0.2, u=u, v=v, t=0.0)
        cfg = SimConfig(k=20.0, delta=1.0, beta=1.0, dt=0.016, t_end=1.6, snapshot_every=10)
        with pytest.raises(StabilityError) as got:
            simulate(f, cfg)
        with pytest.raises(StabilityError) as want:
            frozen_simulate(f, cfg)
        assert "at t=0.096," in str(got.value) and str(got.value) == str(want.value)

    def test_criterion_5_run_steps_a_narrow_window(self, monkeypatch):
        widths = []

        def recording_step(run):
            widths.append(run.state.shape[1])
            return step(run)

        monkeypatch.setattr(sim, "step", recording_step)
        spec = make_spec("A", 1.2, 0.2, 5.9, 3.0, "upper", 10.0, 20.0)
        dx = 0.05
        x = np.arange(-40.0, 40.0 + 0.5 * dx, dx)
        u0, v0, _ = eval_uv_masked(spec, x, 0.0)
        cfg = SimConfig(k=5.9, delta=3.0, beta=spec.coeffs.beta_model,
                        dt=0.001, t_end=2.0, snapshot_every=250)
        simulate(GridField(x0=float(x[0]), dx=dx, u=u0, v=v0, t=0.0), cfg)
        assert len(widths) == 2000 and max(widths) < 0.7 * len(x)


class TestWaveSpeed:
    def make_front_snapshots(self, c, n_snaps=6):
        # analytic tanh front sampled so each snapshot shifts by exactly
        # 20 grid cells; the crossing then sits on a node and linear
        # interpolation is exact
        dx = 0.05
        x = -10.0 + dx * np.arange(401)
        dt_snap = 20 * dx / abs(c)
        snaps = []
        for i in range(n_snaps):
            t = i * dt_snap
            u = np.tanh(x - c * t)
            snaps.append(GridField(x0=-10.0, dx=dx, u=u,
                                   v=np.zeros_like(u), t=t))
        return snaps

    def test_recovers_speed_exactly(self):
        for c in (1.7, -0.85):
            snaps = self.make_front_snapshots(c)
            assert measure_wave_speed(snaps, 0.0) == pytest.approx(c, abs=1e-10)

    def test_interpolated_crossing(self):
        # off-node level still recovers the speed to interpolation accuracy
        snaps = self.make_front_snapshots(1.7)
        assert measure_wave_speed(snaps, 0.3) == pytest.approx(1.7, rel=1e-3)

    def test_static_uniform_raises(self):
        snaps = [uniform_field(1.0, 0.0), uniform_field(1.0, 0.0)]
        with pytest.raises(TrackingError):
            measure_wave_speed(snaps, 0.5)

    def test_multiple_crossings_raise(self):
        x = np.linspace(0, 10, 200)
        f = GridField(x0=0.0, dx=x[1] - x[0], u=np.sin(x),
                      v=np.zeros_like(x), t=0.0)
        with pytest.raises(TrackingError):
            measure_wave_speed([f, f], 0.5)

    @pytest.mark.parametrize("scale", [1.0, 1e170])
    def test_crossing_of_a_tiny_or_huge_profile(self, scale):
        # d[:-1] * d[1:] underflows to 0 at 1e-180 and overflows at 1e170;
        # the level lies between the samples at x = 5 and x = 6
        f = scale * np.array([0, 0, 0, 1e-300, 1e-250, 1e-200, 1e-150, 1e-100, 1, 1])
        pos = sim._crossing_position(np.arange(10.0), f, scale * 1e-180)
        assert 5.0 <= pos <= 6.0

    def test_needs_two_snapshots(self):
        with pytest.raises(ValueError):
            measure_wave_speed([uniform_field(1.0, 0.0)], 0.5)


@st.composite
def hyperbolic_fronts(draw):
    """A pole-free hyperbolic front of either family and branch, with its rate q.

    Drawn over k in [0.5, 8], delta in [0.5, 5], mu in [0.05, 2] and
    alpha0 in [0.2, 3], kept when beta >= 0 and q = sqrt(lam^2 - 4*mu)/2
    >= 0.1; c1 = 10, c2 = 20 keeps A = c1*sinh + c2*cosh free of zeros.
    """
    spec = make_spec(draw(st.sampled_from("AB")), draw(st.floats(0.2, 3.0)),
                     draw(st.floats(0.05, 2.0)), draw(st.floats(0.5, 8.0)),
                     draw(st.floats(0.5, 5.0)), draw(st.sampled_from(["upper", "lower"])),
                     c1=10.0, c2=20.0)
    co = spec.coeffs
    q = 0.5 * math.sqrt(max(co.lam * co.lam - 4.0 * co.mu, 0.0))
    assume(co.beta_model >= 0.0 and q >= 0.1)
    return spec, q


@settings(max_examples=20, deadline=None)
@given(front=hyperbolic_fronts())
def test_both_wave_speeds_by_simulation(front):
    # the measured speed of each family's front matches its closed-form c
    spec, q = front
    co = spec.coeffs
    dx, dt = 0.1, 0.004
    half = max(40.0, 12.0 / q)
    x = np.arange(-half, half + 0.5 * dx, dx)
    n_steps = max(1, round(min(4.0, half / (4.0 * abs(co.c))) / dt))
    u0, v0, _ = eval_uv_masked(spec, x, 0.0)
    cfg = SimConfig(k=co.k, delta=co.delta, beta=co.beta_model, dt=dt,
                    t_end=n_steps * dt, snapshot_every=max(1, n_steps // 8))
    snaps = simulate(GridField(x0=float(x[0]), dx=dx, u=u0, v=v0, t=0.0), cfg)
    speed = measure_wave_speed(snaps, 0.5 * (float(u0.min()) + float(u0.max())))
    assert abs(speed - co.c) <= 1e-2 * abs(co.c)
