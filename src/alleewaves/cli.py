"""Command-line front end.

Subcommands:
    eval      sample a closed-form solution to CSV
    figure    emit the three reference profile figures (CSV + SVG)
    verify    residual-check a solution, write reports, gate on thresholds
    simulate  integrate the PDE from an exact seed, optionally measure speed
    solve     rediscover the coefficient families numerically

Exit codes: 0 success, 1 verification failure, 2 usage/validation error,
3 numerical failure (blow-up / no convergence / pole).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .algebraic import closed_form_targets, deviation, match_root, solve_families
from .errors import (AlleeWavesError, BlowUpError, NoConvergenceError,
                     PoleError, StabilityError, TrackingError)
from .exact import (FAMILIES, eval_uv_masked, find_singularities, make_spec,
                    set_b_reference_alpha0)
from .model import CaseKind
from .output import write_csv, write_svg
from .sim import GridField, SimConfig, measure_wave_speed, simulate
from .verify import check_G_ode, ode_residual

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Reference figure parameter bundles.  Figure 3 lists no alpha0; it is the
# unique value sqrt(2*mu) that makes the family-(b) lambda equal 2*sqrt(mu),
# which that figure requires.  The inference is echoed in the output header.
FIGURES = {
    1: dict(family="A", branch="upper", alpha0=1.2, mu=0.2, k=5.9, delta=3.0,
            c1=20.0, c2=10.0, t=0.0, x_min=-5.0, x_max=5.0, n=1001),
    2: dict(family="A", branch="upper", alpha0=3.0, mu=5.0, k=12.2, delta=2.0,
            c1=20.0, c2=-10.0, t=50.0, x_min=-15.0, x_max=15.0, n=6001),
    3: dict(family="B", branch="upper", alpha0=set_b_reference_alpha0(1.0), mu=1.0,
            k=2.03, delta=3.0, c1=20.0, c2=10.0, t=10.0,
            xi_min=-5.0, xi_max=5.0, n=1001, alpha0_inferred=True),
}


def _spec_args(p):
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    p.add_argument("--branch", choices=["upper", "lower"], default="upper")
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=0.0)


def build_parser():
    p = argparse.ArgumentParser(prog="alleewaves",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("eval", help="sample a closed-form solution to CSV")
    _spec_args(pe)
    pe.add_argument("--case", choices=[case.value for case in CaseKind],
                    help="assert the case; usage error on mismatch")
    pe.add_argument("--x-min", type=float, default=-5.0)
    pe.add_argument("--x-max", type=float, default=5.0)
    pe.add_argument("--t", type=float, default=0.0)
    pe.add_argument("--n", type=int, default=1001)
    pe.add_argument("--out", default=".")

    pf = sub.add_parser("figure", help="reproduce a reference figure")
    pf.add_argument("n", type=int, choices=[1, 2, 3])
    pf.add_argument("--out", default=".")

    pv = sub.add_parser("verify", help="residual-check a solution")
    _spec_args(pv)
    pv.add_argument("--xi-min", type=float, default=-10.0)
    pv.add_argument("--xi-max", type=float, default=10.0)
    pv.add_argument("--n-samples", type=int, default=2001)
    pv.add_argument("--tol", type=float, default=1e-8,
                    help="ODE residual threshold")
    pv.add_argument("--tol-g", type=float, default=1e-12,
                    help="normalized auxiliary-ODE residual threshold")
    pv.add_argument("--out", default=".")

    ps = sub.add_parser("simulate", help="integrate the PDE from an exact seed")
    ps.add_argument("--config", help="flat key=value file; flags override")
    _spec_args_optional(ps)
    ps.add_argument("--x-min", type=float)
    ps.add_argument("--x-max", type=float)
    ps.add_argument("--dx", type=float)
    ps.add_argument("--dt", type=float)
    ps.add_argument("--t-end", type=float)
    ps.add_argument("--snapshot-every", type=int)
    ps.add_argument("--bc", choices=["neumann", "periodic"])
    ps.add_argument("--measure-speed", action="store_true", default=None)
    ps.add_argument("--level", type=float)
    ps.add_argument("--out", default=".")

    po = sub.add_parser("solve", help="numerically rediscover the families")
    po.add_argument("--k", type=float, required=True)
    po.add_argument("--delta", type=float, required=True)
    po.add_argument("--mu", type=float, required=True)
    po.add_argument("--alpha0", type=float, required=True)
    po.add_argument("--tol", type=float, default=1e-6,
                    help="componentwise match tolerance against closed forms")
    return p


def _spec_args_optional(p):
    p.add_argument("--family", choices=list(FAMILIES))
    p.add_argument("--branch", choices=["upper", "lower"])
    p.add_argument("--alpha0", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--k", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--c1", type=float)
    p.add_argument("--c2", type=float)


def _base_header(args_dict):
    hdr = {"artifact": "alleewaves", "version": __version__}
    hdr.update(args_dict)
    return hdr


def _make_spec_from(par):
    return make_spec(par["family"], par["alpha0"], par["mu"], par["k"],
                     par["delta"], branch=par["branch"], c1=par["c1"], c2=par["c2"])


def _sample_profile(spec, x, t):
    """(u, v, mask, pole header) of the profile sampled at (x, t).

    Besides the pole floor of eval_uv_masked, samples within one grid
    spacing of a pole are masked.  The header lists the poles whose xi lies
    in the sampled window, with their x at time t.
    """
    u, v, ok = eval_uv_masked(spec, x, t)
    c = spec.coeffs.c
    xi = x - c * t
    spacing = float(x[1] - x[0]) if len(x) > 1 else 1.0
    lo, hi = float(xi.min()), float(xi.max())
    poles = find_singularities(spec, lo - spacing, hi + spacing)
    for p in poles:
        ok = ok & (np.abs(xi - p) > spacing)
    hdr = {}
    for i, p in enumerate([p for p in poles if lo <= p <= hi], 1):
        hdr[f"pole_{i}_xi"] = p
        hdr[f"pole_{i}_x"] = p + c * t
    return u, v, ok, hdr


def cmd_eval(ns) -> int:
    spec = _make_spec_from(vars(ns))
    if ns.case is not None:  # the spec's own case check rejects a mismatch
        replace(spec, case=CaseKind(ns.case))
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    x = np.linspace(ns.x_min, ns.x_max, ns.n)
    u, v, ok, pole_hdr = _sample_profile(spec, x, ns.t)
    hdr = _base_header({
        "command": "eval", "family": ns.family, "branch": ns.branch,
        "case": spec.case.value, "alpha0": ns.alpha0, "mu": ns.mu,
        "k": ns.k, "delta": ns.delta, "c1": ns.c1, "c2": ns.c2,
        "x_min": ns.x_min, "x_max": ns.x_max, "t": ns.t, "n": ns.n,
        "c": spec.coeffs.c, "lambda": spec.coeffs.lam,
        "beta": spec.coeffs.beta_model,
    })
    hdr.update(pole_hdr)
    write_csv(out / "eval.csv", hdr, {"x": x, "u": u, "v": v}, mask=ok)
    print(f"wrote {out / 'eval.csv'}")
    return EXIT_OK


def cmd_figure(ns) -> int:
    par = dict(FIGURES[ns.n])
    inferred = par.pop("alpha0_inferred", False)
    n = par["n"]
    spec = _make_spec_from(par)
    c = spec.coeffs.c
    if "x_min" in par:
        x = np.linspace(par["x_min"], par["x_max"], n)
    else:  # figure 3 is specified by its xi window
        x = np.linspace(par["xi_min"] + c * par["t"],
                        par["xi_max"] + c * par["t"], n)
    t = par["t"]
    u, v, ok, pole_hdr = _sample_profile(spec, x, t)
    xi = x - c * t

    hdr = _base_header({"command": f"figure {ns.n}", "case": spec.case.value})
    hdr.update(par)
    hdr["c"] = c
    hdr["lambda"] = spec.coeffs.lam
    hdr["beta"] = spec.coeffs.beta_model
    if inferred:
        hdr["alpha0_note"] = ("inferred as sqrt(2*mu): the unique value giving"
                              " lambda=2*sqrt(mu) for family B")
    if spec.period is not None:
        hdr["period"] = spec.period
    hdr.update(pole_hdr)

    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"figure{ns.n}.csv"
    svg_path = out / f"figure{ns.n}.svg"
    uplot = np.where(ok, u, np.nan)
    vplot = np.where(ok, v, np.nan)
    write_csv(csv_path, hdr, {"x": x, "xi": xi, "u": u, "v": v}, mask=ok)
    write_svg(svg_path, x, [uplot, vplot], ["prey u", "predator v"],
              [False, True],
              title=f"figure {ns.n}: {spec.case.value} profile at t={t:g}")
    print(f"wrote {csv_path} and {svg_path}")
    return EXIT_OK


def cmd_verify(ns) -> int:
    spec = _make_spec_from(vars(ns))
    rep = ode_residual(spec, ns.xi_min, ns.xi_max, ns.n_samples)
    grid = np.linspace(ns.xi_min, ns.xi_max, min(ns.n_samples, 1001))
    grep = check_G_ode(spec.case, spec.coeffs.lam, spec.coeffs.mu,
                       ns.c1, ns.c2, grid)
    failures = [name for name, mx in zip(rep.eq_names, rep.max_abs)
                if mx > ns.tol]
    if grep.max_abs[0] > ns.tol_g:
        failures.append("G_ode")

    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    status = "PASS" if not failures else "FAIL: " + ", ".join(failures)
    text = "\n".join([
        f"alleewaves verify ({__version__})",
        f"spec: family={ns.family} branch={ns.branch} case={spec.case.value}"
        f" alpha0={ns.alpha0} mu={ns.mu} k={ns.k} delta={ns.delta}"
        f" c1={ns.c1} c2={ns.c2}",
        f"window: [{ns.xi_min}, {ns.xi_max}] n={ns.n_samples}"
        f" tol={ns.tol:g} tol_g={ns.tol_g:g}",
        rep.to_text(),
        grep.to_text(),
        f"result: {status}",
    ])
    (out / "verify_report.txt").write_text(text + "\n")
    kv = "\n".join([
        rep.to_kv(), grep.to_kv(),
        f"pass={0 if failures else 1}",
        f"failed_equations={','.join(failures)}",
    ])
    (out / "verify_report.kv").write_text(kv + "\n")
    print(text)
    return EXIT_OK if not failures else EXIT_VERIFY


def _parse_config(path):
    cfg = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        cfg[key.strip()] = val.strip()
    return cfg


_SIM_FLOAT = ("alpha0", "mu", "k", "delta", "c1", "c2", "x_min", "x_max",
              "dx", "dt", "t_end", "level")
_SIM_DEFAULTS = dict(branch="upper", c1=1.0, c2=0.0, snapshot_every=200,
                     bc="neumann", measure_speed=False, level=None)


def _sim_params(ns):
    par = dict(_SIM_DEFAULTS)
    if ns.config:
        cfg = _parse_config(ns.config)
        for key, val in cfg.items():
            if key in _SIM_FLOAT:
                par[key] = float(val)
            elif key == "snapshot_every":
                par[key] = int(val)
            elif key == "measure_speed":
                par[key] = val.lower() in ("1", "true", "yes")
            else:
                par[key] = val
    for key in ("family", "branch", "alpha0", "mu", "k", "delta", "c1", "c2",
                "x_min", "x_max", "dx", "dt", "t_end", "snapshot_every", "bc",
                "measure_speed", "level"):
        val = getattr(ns, key)
        if val is not None:
            par[key] = val
    missing = [key for key in ("family", "alpha0", "mu", "k", "delta",
                               "x_min", "x_max", "dx", "dt", "t_end")
               if key not in par or par[key] is None]
    if missing:
        raise ValueError(f"missing simulate parameters: {', '.join(missing)}")
    return par


def cmd_simulate(ns) -> int:
    par = _sim_params(ns)
    spec = _make_spec_from(par)
    co = spec.coeffs
    x = np.arange(par["x_min"], par["x_max"] + 0.5 * par["dx"], par["dx"])
    poles = find_singularities(spec, float(x.min()), float(x.max()))
    if poles:
        print(f"error: seed profile has a pole at xi={poles[0]:.6g} inside"
              " the domain; choose |c2|>|c1| with matching signs",
              file=sys.stderr)
        return EXIT_USAGE
    u0, v0 = np.asarray(eval_uv_masked(spec, x, 0.0)[:2])
    field = GridField(x0=float(x[0]), dx=par["dx"], u=u0, v=v0, t=0.0)
    cfg = SimConfig(k=par["k"], delta=par["delta"], beta=co.beta_model,
                    dt=par["dt"], t_end=par["t_end"], bc=par["bc"],
                    snapshot_every=par["snapshot_every"])
    snaps = simulate(field, cfg)

    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    hdr = _base_header({"command": "simulate", **{key: par[key] for key in sorted(par)
                                                 if par[key] is not None},
                        "c": co.c, "beta": co.beta_model})
    for i, f in enumerate(snaps):
        hdr_i = dict(hdr)
        hdr_i["t"] = f.t
        write_csv(out / f"snapshot_{i:03d}.csv", hdr_i,
                  {"x": f.x, "u": f.u, "v": f.v})
    print(f"wrote {len(snaps)} snapshots to {out}")

    if par["measure_speed"]:
        umin, umax = float(np.min(u0)), float(np.max(u0))
        report = [f"predicted_c={co.c:.17g}"]
        if umax - umin < 1e-12:
            report.append("measured_speed=no front")
        else:
            level = par["level"] if par["level"] is not None \
                else 0.5 * (umin + umax)
            try:
                speed = measure_wave_speed(snaps, level)
            except TrackingError as exc:
                report.append(f"measured_speed=no front ({exc})")
            else:
                report.append(f"level={level:.17g}")
                report.append(f"measured_speed={speed:.17g}")
                report.append(
                    f"relative_error={abs(speed - co.c) / abs(co.c):.17g}")
        (out / "speed_report.txt").write_text("\n".join(report) + "\n")
        print("\n".join(report))
    return EXIT_OK


def cmd_solve(ns) -> int:
    roots = solve_families(ns.k, ns.delta, ns.mu, ns.alpha0)
    targets = closed_form_targets(ns.k, ns.delta, ns.mu, ns.alpha0)
    fields = ("alpha1", "beta1", "beta0", "lambda", "c", "beta")
    print(f"{len(roots)} admissible root(s) at k={ns.k} delta={ns.delta}"
          f" mu={ns.mu} alpha0={ns.alpha0}")
    matched = set()
    for r in roots:
        rvec = (r.alpha1, r.beta1, r.beta0, r.lam, r.c, r.beta_model)
        print("  root: " + " ".join(f"{f}={v:.8g}"
                                    for f, v in zip(fields, rvec)))
        hit = next(((name, tgt) for name, tgt in targets
                    if match_root([r], tgt, ns.tol) is not None), None)
        if hit is None:
            print("        (no closed-form match; extra root)")
        else:
            matched.add(hit[0])
            print(f"        matches {hit[0]}, max componentwise dev"
                  f" {deviation(r, hit[1]):.3e}")
    if ns.alpha0 == 0:
        print("  Set B: not applicable: alpha0=0")
    for name, _ in targets:
        if name not in matched:
            print(f"  warning: closed form {name} not recovered")
    return EXIT_OK


_DISPATCH = {"eval": cmd_eval, "figure": cmd_figure, "verify": cmd_verify,
             "simulate": cmd_simulate, "solve": cmd_solve}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return _DISPATCH[ns.cmd](ns)
    except (BlowUpError, NoConvergenceError, PoleError, TrackingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (StabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AlleeWavesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
