"""Command-line front end.

Subcommands:
    eval      sample a closed-form solution to CSV
    figure    emit the three reference profile figures (CSV + SVG)
    verify    residual-check a solution, write reports, gate on thresholds
    simulate  integrate the PDE from an exact seed, optionally measure speed
    solve     rediscover the coefficient families numerically

Exit codes: 0 success, 1 verification failure, 2 usage/validation error
(also a bad path), 3 numerical failure (blow-up / no convergence / pole /
a non-finite sample or residual).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .algebraic import closed_form_targets, deviation, match_root, solve_families
from .errors import (AlleeWavesError, BlowUpError, CaseMismatchError, NonFiniteError,
                     PoleError, SingularParameterError, StabilityError, TrackingError)
from .exact import FAMILIES, eval_uv_masked, find_singularities, make_spec, near_pole, pole_between
from .model import CaseKind, discriminant
from .output import FLOAT_FMT, write_csv, write_svg
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
    3: dict(family="B", branch="upper", alpha0=math.sqrt(2.0), mu=1.0,
            k=2.03, delta=3.0, c1=20.0, c2=10.0, t=10.0,
            xi_min=-5.0, xi_max=5.0, n=1001, alpha0_inferred=True),
}

_ARTIFACT = {"artifact": "alleewaves", "version": __version__}
REQUIRED = object()  # a Param default: the command cannot run without it


@dataclass(frozen=True)
class Param:
    """One CLI parameter.  ``defaults`` maps each command that takes it to
    its default, REQUIRED, or None (optional, unset).  Floats must be finite
    and ints >= 1; ``check`` adds "positive" or "non-negative".  A parameter
    named after a command is that command's positional argument."""

    name: str
    type: type
    defaults: dict
    check: str = ""
    choices: tuple = ()
    help: str = None

    @property
    def flag(self):
        return self.name if self.name in COMMANDS else "--" + self.name.replace("_", "-")


_SPEC = ("eval", "verify", "simulate")
_COEF = dict.fromkeys(_SPEC + ("solve",), REQUIRED)

PARAMS = (
    Param("family", str, dict.fromkeys(_SPEC, REQUIRED), choices=tuple(FAMILIES)),
    Param("branch", str, dict.fromkeys(_SPEC, "upper"), choices=("upper", "lower")),
    Param("case", str, {"eval": None}, choices=tuple(c.value for c in CaseKind),
          help="assert the case; usage error on mismatch"),
    Param("alpha0", float, _COEF),
    Param("mu", float, _COEF),
    Param("k", float, _COEF),
    Param("delta", float, _COEF, "positive"),
    Param("c1", float, dict.fromkeys(_SPEC, 1.0)),
    Param("c2", float, dict.fromkeys(_SPEC, 0.0)),
    Param("x_min", float, {"eval": -5.0, "simulate": REQUIRED}),
    Param("x_max", float, {"eval": 5.0, "simulate": REQUIRED}),
    Param("xi_min", float, {"verify": -10.0}),
    Param("xi_max", float, {"verify": 10.0}),
    Param("t", float, {"eval": 0.0}),
    Param("n", int, {"eval": 1001}),
    Param("n_samples", int, {"verify": 2001}, "an integer >= 16"),
    Param("dx", float, {"simulate": REQUIRED}, "positive"),
    Param("dt", float, {"simulate": REQUIRED}, "positive"),
    Param("t_end", float, {"simulate": REQUIRED}, "positive"),
    Param("snapshot_every", int, {"simulate": 200}),
    Param("bc", str, {"simulate": "neumann"}, choices=("neumann", "periodic")),
    Param("measure_speed", bool, {"simulate": False}),
    Param("level", float, {"simulate": None},
          help="front level; default midway between the seed's extremes"),
    Param("tol", float, {"verify": 1e-8, "solve": 1e-6}, "non-negative",
          help="ODE residual (verify) or root match (solve) tolerance"),
    Param("tol_g", float, {"verify": 1e-12}, "non-negative",
          help="normalized auxiliary-ODE residual threshold"),
    Param("figure", int, {"figure": REQUIRED}, choices=tuple(FIGURES)),
)

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_CHECKS = {"": lambda v: True, "positive": lambda v: v > 0,
           "non-negative": lambda v: v >= 0, "an integer >= 16": lambda v: v >= 16}


def _violation(p, val):
    """The constraint of p that val breaks, or None."""
    if p.choices:
        ok, want = val in p.choices, "one of " + ", ".join(map(str, p.choices))
    elif p.type is int and not p.check:
        ok, want = val >= 1, "an integer >= 1"
    elif not math.isfinite(val):
        ok, want = False, "finite"
    else:
        ok, want = _CHECKS[p.check](val), p.check
    return None if ok else want


def _parse_config(path, params):
    """Flat key=value file with '#' comments; keys are parameter names."""
    by_name = {p.name: p for p in params}
    cfg = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = (s.strip() for s in line.partition("="))
        p = by_name.get(key)
        if p is None:
            raise ValueError(f"{path}: unknown key {key!r}")
        try:
            cfg[key] = _BOOLS[val.lower()] if p.type is bool else p.type(val)
        except (KeyError, ValueError):
            raise ValueError(f"{path}: {key} must be of type {p.type.__name__},"
                             f" got {val!r}") from None
    return cfg


def resolve(ns) -> dict:
    """The command's parameter values: defaults, then --config, then flags;
    ValueError names what is missing, the flag whose value is out of range,
    or the two flags of a window in the wrong order or too wide."""
    params = [p for p in PARAMS if ns.cmd in p.defaults]
    par = {p.name: p.defaults[ns.cmd] for p in params}
    if getattr(ns, "config", None):
        par.update(_parse_config(ns.config, params))
    par.update((p.name, getattr(ns, p.name)) for p in params
               if getattr(ns, p.name) is not None)
    missing = [name for name, val in par.items() if val is REQUIRED]
    if missing:
        raise ValueError(f"missing {ns.cmd} parameters: {', '.join(missing)}")
    for p in params:
        want = None if par[p.name] is None else _violation(p, par[p.name])
        if want:
            raise ValueError(f"{p.flag}: {p.name} must be {want}, got {par[p.name]}")
    flag = {p.name: p.flag for p in params}
    for lo, hi in (("x_min", "x_max"), ("xi_min", "xi_max")):  # window ends
        if lo in par and not 0.0 < par[hi] - par[lo] < math.inf:  # the width must not overflow
            raise ValueError(f"{flag[lo]} {par[lo]} must be less than {flag[hi]} {par[hi]}"
                             " by a finite width")
    return par


def _join_negative_values(argv):
    """argv with `--flag -1e-3` of a value flag passed as `--flag=-1e-3`: argparse
    takes a token that starts with '-' for an option unless it reads like -1 or -.5."""
    flags = {"--out", "--config", *(p.flag for p in PARAMS if p.type is not bool)} - set(COMMANDS)
    args = []
    for tok in argv:
        if args and args[-1] in flags and re.fullmatch(r"-[\d.]+e[-+]?\d+", tok, re.IGNORECASE):
            tok = args.pop() + "=" + tok
        args.append(tok)
    return args


def build_parser(argv=()):
    """The parser of every command, with flags only for the first token of argv
    that names one (or for all, when none does: --help, --version, no argv)."""
    p = argparse.ArgumentParser(prog="alleewaves",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)
    invoked = next((tok for tok in argv if tok in COMMANDS), None)
    for cmd, (_, text) in COMMANDS.items():
        sp = sub.add_parser(cmd, help=text)
        if invoked not in (None, cmd):
            continue
        if cmd == "simulate":
            sp.add_argument("--config", help="flat key=value file; flags override")
        for par in (p for p in PARAMS if cmd in p.defaults):
            if par.type is bool:
                sp.add_argument(par.flag, action="store_true", default=None)
            else:  # choices are listed here and checked by resolve()
                names = ",".join(map(str, par.choices))
                sp.add_argument(par.flag, type=par.type, help=par.help,
                                metavar="{%s}" % names if par.choices else None)
        if cmd != "solve":
            sp.add_argument("--out", default=".")
    return p


def _make_spec_from(par):
    """The spec of par; a SingularParameterError also names the flags it came from."""
    try:
        return make_spec(par["family"], par["alpha0"], par["mu"], par["k"],
                         par["delta"], branch=par["branch"], c1=par["c1"], c2=par["c2"])
    except SingularParameterError as exc:
        flags = " ".join(f"--{name} {par[name]!r}" for name in ("alpha0", "mu", "k", "delta"))
        raise SingularParameterError(f"{exc} (from {flags})") from None


def _sample_profile(spec, x, t):
    """(u, v, mask, pole header) of the profile sampled at (x, t).

    Besides the pole floor of eval_uv_masked, samples within one grid
    spacing of a pole are masked, so a period of at most two spacings is a
    ValueError, as is an x - c*t that overflows.  The header lists the poles
    whose xi lies in the sampled window, with their x at time t.
    """
    spacing = float(x[1] - x[0]) if len(x) > 1 else 1.0
    if spec.period is not None and spec.period <= 2.0 * spacing:
        raise ValueError(f"the period {spec.period:.6g} is at most two sample spacings"
                         f" ({spacing:.6g}), so every sample would be masked")
    c = spec.coeffs.c
    with np.errstate(over="ignore"):
        xi = x - c * t
    if not np.isfinite(xi).all():
        raise ValueError(f"x - c*t overflows at c={c:.6g}, t={t:.6g}; choose --t, --x-min"
                         " and --x-max so that it stays finite")
    u, v, ok = eval_uv_masked(spec, x, t)
    ok = ok & ~near_pole(spec, xi, spacing)
    lo, hi = float(xi.min()), float(xi.max())
    poles = find_singularities(spec, lo - spacing, hi + spacing)  # lo = hi at one sample
    hdr = {}
    for i, p in enumerate([p for p in poles if lo <= p <= hi], 1):
        hdr[f"pole_{i}_xi"] = p
        hdr[f"pole_{i}_x"] = p + c * t
    return u, v, ok, hdr


def cmd_eval(par, out) -> int:
    spec = _make_spec_from(par)
    if par["case"] not in (None, spec.case.value):
        co = spec.coeffs
        raise CaseMismatchError(CaseKind(par["case"]), discriminant(co.lam, co.mu), spec.case)
    x = np.linspace(par["x_min"], par["x_max"], par["n"])
    u, v, ok, pole_hdr = _sample_profile(spec, x, par["t"])
    hdr = {**_ARTIFACT, "command": "eval", **par, "case": spec.case.value,
           "c": spec.coeffs.c, "lambda": spec.coeffs.lam,
           "beta": spec.coeffs.beta_model, **pole_hdr}
    write_csv(out / "eval.csv", hdr, {"x": x, "u": u, "v": v}, mask=ok)
    print(f"wrote {out / 'eval.csv'}")
    return EXIT_OK


def cmd_figure(par, out) -> int:
    fig = par["figure"]
    bundle = dict(FIGURES[fig])
    inferred = bundle.pop("alpha0_inferred", False)
    spec = _make_spec_from(bundle)
    c, t = spec.coeffs.c, bundle["t"]
    if "x_min" in bundle:
        x = np.linspace(bundle["x_min"], bundle["x_max"], bundle["n"])
    else:  # figure 3 is specified by its xi window
        x = np.linspace(bundle["xi_min"] + c * t, bundle["xi_max"] + c * t,
                        bundle["n"])
    u, v, ok, pole_hdr = _sample_profile(spec, x, t)
    xi = x - c * t

    hdr = {**_ARTIFACT, "command": f"figure {fig}", "case": spec.case.value,
           **bundle, "c": c, "lambda": spec.coeffs.lam,
           "beta": spec.coeffs.beta_model}
    if inferred:
        hdr["alpha0_note"] = ("inferred as sqrt(2*mu): the unique value giving"
                              " lambda=2*sqrt(mu) for family B")
    if spec.period is not None:
        hdr["period"] = spec.period
    hdr.update(pole_hdr)

    csv_path = out / f"figure{fig}.csv"
    svg_path = out / f"figure{fig}.svg"
    uplot = np.where(ok, u, np.nan)
    vplot = np.where(ok, v, np.nan)
    write_csv(csv_path, hdr, {"x": x, "xi": xi, "u": u, "v": v}, mask=ok)
    write_svg(svg_path, x, [uplot, vplot], ["prey u", "predator v"],
              [False, True],
              title=f"figure {fig}: {spec.case.value} profile at t={t:g}")
    print(f"wrote {csv_path} and {svg_path}")
    return EXIT_OK


def cmd_verify(par, out) -> int:
    spec = _make_spec_from(par)
    rep = ode_residual(spec, par["xi_min"], par["xi_max"], par["n_samples"])
    grid = np.linspace(par["xi_min"], par["xi_max"], min(par["n_samples"], 1001))
    grep = check_G_ode(spec.case, spec.coeffs.lam, spec.coeffs.mu,
                       par["c1"], par["c2"], grid)
    failures = [name for name, mx in zip(rep.eq_names, rep.max_abs)
                if not mx <= par["tol"]]  # so NaN never passes
    if not grep.max_abs[0] <= par["tol_g"]:
        failures.append("G_ode")

    status = "PASS" if not failures else "FAIL: " + ", ".join(failures)
    text = "\n".join([
        f"alleewaves verify ({__version__})",
        f"spec: family={par['family']} branch={par['branch']}"
        f" case={spec.case.value} alpha0={par['alpha0']} mu={par['mu']}"
        f" k={par['k']} delta={par['delta']} c1={par['c1']} c2={par['c2']}",
        f"window: [{par['xi_min']}, {par['xi_max']}] n={par['n_samples']}"
        f" tol={par['tol']:g} tol_g={par['tol_g']:g}",
        rep.to_text(),
        grep.to_text(),
        f"result: {status}",
    ])
    (out / "verify_report.txt").write_text(text + "\n")
    kv = "\n".join([
        rep.to_kv(), grep.to_kv(),
        f"pass={0 if failures else 1}",
        f"failed_equations={','.join(failures)}",
        # the inputs, so the report can be replayed
        *(f"{key}={FLOAT_FMT % val if isinstance(val, float) else val}"
          for key, val in par.items()),
    ])
    (out / "verify_report.kv").write_text(kv + "\n")
    print(text)
    return EXIT_OK if not failures else EXIT_VERIFY


def cmd_simulate(par, out) -> int:
    spec = _make_spec_from(par)
    co = spec.coeffs
    n = len(np.arange(par["x_min"], par["x_max"] + 0.5 * par["dx"], par["dx"]))
    if n < 8:  # the fewest cells a GridField takes
        raise ValueError(f"--x-min {par['x_min']}, --x-max {par['x_max']} and --dx {par['dx']}"
                         f" give a grid of {n} cells; simulate needs at least 8")
    # the seed is sampled on the x that GridField.x and every snapshot record
    x = par["x_min"] + par["dx"] * np.arange(n)
    p = pole_between(spec, x[0], x[-1])
    if p is not None:
        raise ValueError(f"seed profile has a pole at xi={p:.6g} inside the domain;"
                         f" {spec.forms.advice.format(period=spec.period)}")
    u0, v0, _ = eval_uv_masked(spec, x, 0.0)
    field = GridField(x0=float(x[0]), dx=par["dx"], u=u0, v=v0, t=0.0)
    cfg = SimConfig(k=par["k"], delta=par["delta"], beta=co.beta_model,
                    dt=par["dt"], t_end=par["t_end"], bc=par["bc"],
                    snapshot_every=par["snapshot_every"])
    snaps = simulate(field, cfg)

    hdr = {**_ARTIFACT, "command": "simulate",
           **{key: par[key] for key in sorted(par) if par[key] is not None},
           "c": co.c, "beta": co.beta_model}
    xs = np.array([FLOAT_FMT % val for val in x.tolist()])  # all snapshots' grid
    for i, f in enumerate(snaps):
        write_csv(out / f"snapshot_{i:03d}.csv", {**hdr, "t": f.t},
                  {"x": xs, "u": f.u, "v": f.v})
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


def cmd_solve(par, _out) -> int:
    roots = solve_families(par["k"], par["delta"], par["mu"], par["alpha0"])
    targets = closed_form_targets(par["k"], par["delta"], par["mu"], par["alpha0"])
    fields = ("alpha1", "beta1", "beta0", "lambda", "c", "beta")
    print(f"{len(roots)} admissible root(s) at k={par['k']} delta={par['delta']}"
          f" mu={par['mu']} alpha0={par['alpha0']}")
    matched = set()
    for r in roots:
        rvec = (r.alpha1, r.beta1, r.beta0, r.lam, r.c, r.beta_model)
        print("  root: " + " ".join(f"{f}={v:.8g}"
                                    for f, v in zip(fields, rvec)))
        hit = next(((name, tgt) for name, tgt in targets
                    if match_root([r], tgt, par["tol"]) is not None), None)
        if hit is None:
            print("        (no closed-form match; extra root)")
        else:
            matched.add(hit[0])
            print(f"        matches {hit[0]}, max componentwise dev"
                  f" {deviation(r, hit[1]):.3e}")
    for family in sorted(set(FAMILIES) - {name.split()[1] for name, _ in targets}):
        print(f"  Set {family}: not applicable: alpha0={par['alpha0']:g}")
    for name, _ in targets:
        if name not in matched:
            print(f"  warning: closed form {name} not recovered")
    return EXIT_OK


COMMANDS = {
    "eval": (cmd_eval, "sample a closed-form solution to CSV"),
    "figure": (cmd_figure, "reproduce a reference figure"),
    "verify": (cmd_verify, "residual-check a solution"),
    "simulate": (cmd_simulate, "integrate the PDE from an exact seed"),
    "solve": (cmd_solve, "numerically rediscover the families"),
}


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    ns = build_parser(argv).parse_args(argv)
    out = Path(ns.out) if "out" in ns else None
    try:
        par = resolve(ns)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[ns.cmd][0](par, out)
    except (BlowUpError, NonFiniteError, PoleError, TrackingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (StabilityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AlleeWavesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
