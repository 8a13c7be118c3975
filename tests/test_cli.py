import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from alleewaves import cli
from alleewaves.cli import COMMANDS, FIGURES, PARAMS, build_parser, main
from alleewaves.exact import eval_uv_masked, make_spec
from alleewaves.output import read_csv, write_csv
from alleewaves.sim import simulate

FIG1 = ["--family", "A", "--alpha0", "1.2", "--mu", "0.2", "--k", "5.9",
        "--delta", "3", "--c1", "20", "--c2", "10"]


class TestEval:
    def test_writes_matching_samples(self, tmp_path):
        assert main(["eval", *FIG1, "--x-min", "1", "--x-max", "5",
                     "--n", "101", "--out", str(tmp_path)]) == 0
        hdr, cols = read_csv(tmp_path / "eval.csv")
        assert hdr["case"] == "hyperbolic"
        spec = make_spec("A", 1.2, 0.2, 5.9, 3.0, "upper", 20.0, 10.0)
        u, v, ok = eval_uv_masked(spec, cols["x"], 0.0)
        assert ok.all()
        # %.17g formatting round-trips doubles bitwise
        assert np.array_equal(cols["u"], u)
        assert np.array_equal(cols["v"], v)

    def test_rewrite_is_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["eval", *FIG1, "--out", str(out)]) == 0
        assert (a / "eval.csv").read_bytes() == (b / "eval.csv").read_bytes()

    def test_pole_rows_masked(self, tmp_path):
        assert main(["eval", *FIG1, "--out", str(tmp_path)]) == 0
        hdr, cols = read_csv(tmp_path / "eval.csv")
        assert float(hdr["pole_1_xi"]) == pytest.approx(-0.476085, abs=1e-5)
        flagged = np.nonzero(np.isnan(cols["u"]))[0]
        assert len(flagged) > 0
        x_flagged = cols["x"][flagged]
        assert np.all(np.abs(x_flagged - (-0.476085)) < 0.05)

    def test_single_sample(self, tmp_path):
        assert main(["eval", *FIG1, "--n", "1", "--out", str(tmp_path)]) == 0
        _, cols = read_csv(tmp_path / "eval.csv")
        assert len(cols["x"]) == 1 and np.isfinite(cols["u"]).all()

    def test_case_mismatch_is_usage_error(self, tmp_path, capsys):
        assert main(["eval", *FIG1, "--case", "trigonometric",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "trigonometric" in err and "hyperbolic" in err

    @pytest.mark.parametrize("alpha0", ["0", "1e-163", "1e-160"])
    def test_singular_set_b_is_usage_error(self, tmp_path, capsys, alpha0):
        assert main(["eval", "--family", "B", "--alpha0", alpha0, "--mu", "0.5",
                     "--k", "1", "--delta", "2", "--out", str(tmp_path)]) == 2
        assert f"alpha0={float(alpha0)!r}" in capsys.readouterr().err


    def test_overflow_names_the_flag(self, tmp_path, capsys):
        args = list(FIG1)
        args[args.index("--alpha0") + 1] = "1e200"
        assert main(["eval", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lambda^2 - 4*mu overflows at lambda=1.41")
        assert "--alpha0 1e+200" in err

    def test_overflowing_xi_names_the_flags(self, tmp_path, capsys):
        # x - c*t overflows to -inf; the error named the pole window (xi_lo, xi_hi)
        assert main(["eval", "--family", "A", "--alpha0", "1", "--mu", "0.2", "--k", "1e150",
                     "--delta", "2", "--t", "1e300", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: x - c*t overflows at c=-7.07107e+149, t=1e+300;")
        assert all(flag in err for flag in ("--t", "--x-min", "--x-max"))
        assert "xi_lo" not in err and not (tmp_path / "eval.csv").exists()

    @pytest.mark.parametrize("values", [["--c2", "-1e-3"], ["--x-min", "-1e1", "--x-max", "1e1"]],
                             ids=["c2", "window"])
    def test_negative_e_notation_value(self, tmp_path, values):
        # argparse took -1e-3 for an option and exited 2: "expected one argument"
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        pairs = [f"{flag}={val}" for flag, val in zip(values[::2], values[1::2])]
        assert main(["eval", *FIG1, *values, "--out", str(spaced)]) == 0
        assert main(["eval", *FIG1, *pairs, "--out", str(joined)]) == 0
        assert (spaced / "eval.csv").read_bytes() == (joined / "eval.csv").read_bytes()

    def test_option_like_value_still_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", *FIG1, "--c2", "-x", "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "argument --c2: expected one argument" in capsys.readouterr().err


class TestFigure:
    def test_figure1(self, tmp_path):
        assert main(["figure", "1", "--out", str(tmp_path)]) == 0
        hdr, cols = read_csv(tmp_path / "figure1.csv")
        assert (tmp_path / "figure1.svg").exists()
        assert hdr["case"] == "hyperbolic"
        assert float(hdr["pole_1_xi"]) == pytest.approx(-0.476085, abs=1e-5)
        assert "pole_2_xi" not in hdr
        assert len(cols["x"]) == 1001

    def test_figure2_reports_period(self, tmp_path):
        assert main(["figure", "2", "--out", str(tmp_path)]) == 0
        hdr, _ = read_csv(tmp_path / "figure2.csv")
        assert hdr["case"] == "trigonometric"
        assert float(hdr["period"]) == pytest.approx(7.114306, abs=1e-5)

    def test_figure3_inferred_alpha0(self, tmp_path):
        assert main(["figure", "3", "--out", str(tmp_path)]) == 0
        hdr, cols = read_csv(tmp_path / "figure3.csv")
        assert hdr["case"] == "degenerate"
        assert "alpha0_note" in hdr
        assert float(hdr["alpha0"]) == pytest.approx(math.sqrt(2.0))
        assert float(hdr["pole_1_xi"]) == pytest.approx(-2.0, abs=1e-6)
        # xi column spans the documented window
        assert cols["xi"][0] == pytest.approx(-5.0)
        assert cols["xi"][-1] == pytest.approx(5.0)


class TestVerify:
    def test_pass(self, tmp_path, capsys):
        assert main(["verify", *FIG1, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "verify_report.txt").read_text()
        assert "result: PASS" in text
        kv = (tmp_path / "verify_report.kv").read_text()
        assert "pass=1" in kv

    def test_unreachable_tolerance_fails(self, tmp_path):
        assert main(["verify", *FIG1, "--tol", "1e-30",
                     "--out", str(tmp_path)]) == 1
        text = (tmp_path / "verify_report.txt").read_text()
        assert "result: FAIL" in text
        assert "prey" in text and "predator" in text


    @pytest.mark.parametrize("half", ["300", "5000"])
    def test_wide_window_passes(self, tmp_path, half):
        assert main(["verify", *FIG1, "--xi-min", "-" + half, "--xi-max", half,
                     "--out", str(tmp_path)]) == 0
        kv = (tmp_path / "verify_report.kv").read_text()
        assert "pass=1" in kv
        g = float(next(line for line in kv.splitlines()
                       if line.startswith("max_abs.G_ode=")).split("=")[1])
        assert g < 1e-12

    def test_too_few_samples_names_the_flag(self, tmp_path, capsys):
        assert main(["verify", *FIG1, "--n-samples", "10", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: --n-samples: n_samples must be an integer >= 16, got 10" in err
        assert not (tmp_path / "out").exists()  # rejected before any work


def run_quiet(argv):
    """(exit code, warnings) of main(argv), with every warning recorded, none raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, [str(w.message) for w in caught]


class TestNonFinite:
    """A non-finite sample or residual is a numerical failure, never an answer."""

    def test_nan_residual_never_passes(self, tmp_path, capsys):
        # u**3 overflows in the prey row, so both rows were NaN and PASSed
        code, caught = run_quiet([
            "verify", "--family", "A", "--branch", "lower", "--alpha0", "-1e150",
            "--mu", "-1e-150", "--k", "0.6541924612081553", "--delta", "2.6136175372372232",
            "--c1", "1e-300", "--c2", "-11.789830727053094", "--xi-min", "-12.76",
            "--xi-max", "5.38", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 3 and caught == []
        assert err == "numerical failure: the prey row is not finite at xi=-12.76\n"
        assert "PASS" not in out and not (tmp_path / "verify_report.txt").exists()

    def test_overflowed_sample_is_not_written(self, tmp_path, capsys):
        # A' overflows where A does not, so every row was written as -inf,-inf,0
        code, caught = run_quiet([
            "eval", "--family", "A", "--alpha0", "1e-100", "--mu", "-1e300",
            "--k", "3.1047126486809624", "--delta", "5.437926657808131", "--c1", "1e200",
            "--c2", "18.66259793362022", "--x-min", "-18.77", "--x-max", "-16.88",
            "--n", "5", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3 and caught == [] and "Warning" not in err
        assert err == "numerical failure: phi is not finite at xi=-18.77\n"
        assert not (tmp_path / "eval.csv").exists()


SIM_BASE = ["--family", "A", "--alpha0", "1.2", "--mu", "0.2", "--k", "5.9",
            "--delta", "3", "--c1", "10", "--c2", "20",
            "--x-min", "-10", "--x-max", "10", "--dx", "0.1"]


class TestSimulate:
    def test_small_run(self, tmp_path):
        assert main(["simulate", *SIM_BASE, "--dt", "0.004",
                     "--t-end", "0.1", "--snapshot-every", "5",
                     "--measure-speed", "--out", str(tmp_path)]) == 0
        snaps = sorted(tmp_path.glob("snapshot_*.csv"))
        assert len(snaps) == 6  # initial + 25 steps / 5
        hdr, cols = read_csv(snaps[-1])
        assert float(hdr["t"]) == pytest.approx(0.1)
        assert np.isfinite(cols["u"]).all()
        report = (tmp_path / "speed_report.txt").read_text()
        assert "predicted_c=" in report and "measured_speed=" in report

    def test_stability_rejected(self, tmp_path, capsys):
        assert main(["simulate", *SIM_BASE, "--dt", "0.1",
                     "--t-end", "1", "--out", str(tmp_path)]) == 2
        assert "dt" in capsys.readouterr().err

    def test_too_few_cells_names_the_flags(self, tmp_path, capsys):
        argv = [*SIM_BASE[:-6], "--x-min", "-1", "--x-max", "1", "--dx", "0.5"]
        assert main(["simulate", *argv, "--dt", "0.001", "--t-end", "0.01",
                     "--out", str(tmp_path)]) == 2
        assert ("error: --x-min -1.0, --x-max 1.0 and --dx 0.5 give a grid of 5 cells;"
                " simulate needs at least 8") in capsys.readouterr().err

    def test_infinite_t_end_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", *SIM_BASE, "--dt", "0.004",
                     "--t-end", "inf", "--out", str(tmp_path)]) == 2
        assert "t_end must be finite" in capsys.readouterr().err

    def test_pole_in_domain_rejected(self, tmp_path, capsys):
        # Set A is hyperbolic for mu < 1.53125, degenerate at it and
        # trigonometric above; the advice must hold for the seed's case
        for mu, c1, c2, advice in [
            ("0.2", "20", "10", "choose |c2| >= |c1|, which leaves a hyperbolic seed pole-free"),
            ("5", "10", "20", "a trigonometric seed has a pole every 1.6868 in xi,"
                              " and c1, c2 only shift them"),
            ("1.53125", "1", "1", "a degenerate seed's one pole is at xi=-c1/c2"),
        ]:
            args = list(SIM_BASE)
            for flag, value in (("--mu", mu), ("--c1", c1), ("--c2", c2)):
                args[args.index(flag) + 1] = value
            assert main(["simulate", *args, "--dt", "0.004", "--t-end", "0.1",
                         "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: seed profile has a pole at xi=") and advice in err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# seed and grid\n"
            "family=A\nalpha0=1.2\nmu=0.2\nk=5.9\ndelta=3\n"
            "c1=10\nc2=20\n"
            "x_min=-10\nx_max=10\ndx=0.1\ndt=0.004\nt_end=0.2\n"
            "snapshot_every=25\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--t-end", "0.1",
                     "--out", str(out)]) == 0
        hdr, _ = read_csv(sorted(out.glob("snapshot_*.csv"))[-1])
        assert float(hdr["t"]) == pytest.approx(0.1)  # flag beat the file

    def test_flat_seed_has_no_front(self, tmp_path):
        # mu = 1.53125 makes Set A degenerate, and c2 = 0 makes phi constant
        args = list(SIM_BASE)
        for flag, value in (("--mu", "1.53125"), ("--c1", "1"), ("--c2", "0")):
            args[args.index(flag) + 1] = value
        assert main(["simulate", *args, "--dt", "0.004", "--t-end", "0.1",
                     "--measure-speed", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "speed_report.txt").read_text().splitlines()
        assert report[1:] == ["measured_speed=no front"]

    def test_front_leaving_the_domain_has_no_speed(self, tmp_path):
        # c = -4.17: the front leaves x in [-10, 10] before t = 2.4
        assert main(["simulate", *SIM_BASE, "--dt", "0.004", "--t-end", "4",
                     "--snapshot-every", "100", "--measure-speed",
                     "--out", str(tmp_path)]) == 0
        report = (tmp_path / "speed_report.txt").read_text().splitlines()
        assert report[1:] == ["measured_speed=no front (snapshot 6 (t=2.4): level not crossed)"]

    def test_missing_parameters(self, tmp_path, capsys):
        assert main(["simulate", "--family", "A", "--out", str(tmp_path)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_snapshots_match_a_float_path_write(self, tmp_path, monkeypatch):
        # cmd_simulate formats x once for all snapshots; each file must keep the
        # bytes write_csv gives the snapshot's own floats
        snaps = []

        def keep(*args):
            snaps.extend(simulate(*args))
            return snaps

        monkeypatch.setattr(cli, "simulate", keep)
        assert main(["simulate", *SIM_BASE, "--dt", "0.004", "--t-end", "0.1",
                     "--snapshot-every", "5", "--out", str(tmp_path)]) == 0
        assert len(snaps) == 6
        for i, f in enumerate(snaps):
            path, direct = tmp_path / f"snapshot_{i:03d}.csv", tmp_path / "direct.csv"
            write_csv(direct, read_csv(path)[0], {"x": f.x, "u": f.u, "v": f.v})
            assert path.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("dx, dt", [(0.1, 0.004), (0.05, 0.001), (0.025, 0.00025)])
    def test_seed_is_sampled_on_the_recorded_grid(self, tmp_path, dx, dt):
        # the initial snapshot's u, v must be the profile at the x it records,
        # not at np.arange's points, which drift from x0 + dx*i by rounding
        args = list(SIM_BASE)
        for flag, value in (("--x-min", "-40"), ("--x-max", "40"), ("--dx", str(dx))):
            args[args.index(flag) + 1] = value
        assert main(["simulate", *args, "--dt", str(dt), "--t-end", str(dt),
                     "--out", str(tmp_path)]) == 0
        _, cols = read_csv(tmp_path / "snapshot_000.csv")
        assert len(cols["x"]) == round(80 / dx) + 1
        spec = make_spec("A", 1.2, 0.2, 5.9, 3.0, "upper", 10.0, 20.0)
        u, v, _ = eval_uv_masked(spec, cols["x"], 0.0)
        assert np.array_equal(cols["u"], u) and np.array_equal(cols["v"], v)

    def test_single_exponential_seed_is_pole_free(self, tmp_path):
        # c1 = c2 makes G one exponential: phi is constant and finite on the
        # whole line, far tails included
        args = list(SIM_BASE)
        args[args.index("--c1") + 1] = "1"
        args[args.index("--c2") + 1] = "1"
        args[args.index("--x-min") + 1] = "-40"
        args[args.index("--x-max") + 1] = "40"
        assert main(["simulate", *args, "--dt", "0.004", "--t-end", "0.1",
                     "--measure-speed", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "speed_report.txt").read_text().splitlines()
        assert report[1:] == ["measured_speed=no front"]


def _limited_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# a mu this large makes Set A trigonometric with a pole every pi/sqrt(mu)
@pytest.mark.parametrize("mu", ["1e12", "1e300"])
@pytest.mark.parametrize("argv, code, message", [
    (["eval"], 2, "every sample would be masked"),
    (["verify"], 3, "pole-exclusion zones"),
    (["simulate", "--x-min", "-10", "--x-max", "10", "--dx", "0.1", "--dt", "0.004",
      "--t-end", "0.1"], 2, "seed profile has a pole"),
], ids=["eval", "verify", "simulate"])
def test_pole_dense_profile_fails_fast_with_one_line(tmp_path, mu, argv, code, message):
    # run apart, under a 1 GB address-space limit and a timeout, so that a
    # search whose cost grows with the number of poles fails without
    # exhausting the machine
    args = list(FIG1)
    args[args.index("--mu") + 1] = mu
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-m", "alleewaves.cli", *argv, *args,
                          "--out", str(tmp_path)], capture_output=True, text=True,
                         env=env, timeout=20, preexec_fn=_limited_memory)
    assert res.returncode == code, res.stderr
    assert res.stderr.count("\n") == 1 and message in res.stderr


# solve inputs, changed from --k 1 --delta 2 --mu 0.5 --alpha0 0.7, whose coefficient rows overflow
OVERFLOWING = [("alpha0", 1e110), ("delta", 1e-300), ("k", 1e200), ("mu", 1e300)]


class TestSolve:
    def test_recovers_families(self, capsys):
        assert main(["solve", "--k", "5.9", "--delta", "3", "--mu", "0.2",
                     "--alpha0", "1.2"]) == 0
        out = capsys.readouterr().out
        assert "matches Set A upper" in out
        assert "matches Set B upper" in out
        assert "warning" not in out

    def test_alpha0_zero_notes_set_b(self, capsys):
        assert main(["solve", "--k", "1", "--delta", "1", "--mu", "0.2",
                     "--alpha0", "0"]) == 0
        out = capsys.readouterr().out
        assert "Set B: not applicable: alpha0=0" in out

    def test_alpha0_squared_underflow_lists_set_a(self, capsys):
        # alpha0**2 rounds to 0: Set B is left out as at alpha0 = 0
        assert main(["solve", "--k", "1", "--delta", "2", "--mu", "0.5",
                     "--alpha0", "1e-163"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("2 admissible root(s)")
        assert "matches Set A upper" in out and "matches Set A lower" in out
        assert "Set B: not applicable: alpha0=1e-163" in out
        assert "warning" not in out

    def test_former_no_root_draw(self, capsys):
        # a local solver from any of the 128 default_init_grid starts reaches no root
        # here; the elimination finds all four
        assert main(["solve", "--k", "7.92716605802171", "--delta", "4.425510927931301",
                     "--mu", "1.2872475159527776", "--alpha0", "1.5249218747823625"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("4 admissible root(s)")
        assert out.count("  root: ") == 4
        assert "not recovered" not in out

    def test_zero_tolerance_matches_nothing(self, capsys):
        assert main(["solve", "--k", "5.9", "--delta", "3", "--mu", "0.2",
                     "--alpha0", "1.2", "--tol", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("(no closed-form match; extra root)") == out.count("  root: ") == 4
        for name in ("Set A upper", "Set A lower", "Set B upper", "Set B lower"):
            assert f"  warning: closed form {name} not recovered" in out

    @pytest.mark.parametrize("name, value", OVERFLOWING)
    def test_overflowing_rows_are_usage_error(self, capsys, name, value):
        par = dict(k=1.0, delta=2.0, mu=0.5, alpha0=0.7) | {name: value}
        assert main(["solve", *(f"--{n}={v!r}" for n, v in par.items())]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the coefficient rows overflow at ")
        assert f"{name}={value!r}" in err

    def test_non_isolated_roots_exit_3(self, capsys):
        assert main(["solve", "--k", "1", "--delta", "1", "--mu", "0", "--alpha0", "0"]) == 3
        assert "branch alpha1=+1.41421, beta1=+1.41421" in capsys.readouterr().err


def table_argv(cmd, values):
    """argv for cmd from {parameter name: value}, built from cli.PARAMS.

    Every name must be a parameter of cmd.  Flags use the --flag=value form
    so that values such as -inf are not taken for options.
    """
    params = {p.name: p for p in PARAMS if cmd in p.defaults}
    argv = [cmd]
    for name, val in values.items():
        p = params[name]
        if p.type is bool:
            argv += [p.flag] if str(val) == "True" else []
        elif p.flag == name:  # a positional
            argv.append(str(val))
        else:
            argv.append(f"{p.flag}={val}")
    return argv


FIG1_VALUES = dict(family="A", alpha0="1.2", mu="0.2", k="5.9", delta="3",
                   c1="20", c2="10")
VALID = {
    "eval": FIG1_VALUES,
    "figure": {"figure": "1"},
    "verify": FIG1_VALUES,
    "simulate": dict(FIG1_VALUES, c1="10", c2="20", x_min="-10", x_max="10",
                     dx="0.1", dt="0.004", t_end="0.1", snapshot_every="5",
                     measure_speed=True),
    "solve": dict(k="5.9", delta="3", mu="0.2", alpha0="1.2"),
}
BAD_VALUES = {float: ("nan", "inf", "-inf"), int: ("0",)}
BAD_CASES = [(cmd, p, bad) for cmd in COMMANDS for p in PARAMS if cmd in p.defaults
             for bad in BAD_VALUES.get(p.type, ())]


def test_valid_values_run(tmp_path):
    for cmd, values in VALID.items():
        out = [] if cmd == "solve" else ["--out", str(tmp_path / cmd)]
        assert main(table_argv(cmd, values) + out) == 0, cmd


@pytest.mark.parametrize("cmd, p, bad", BAD_CASES,
                         ids=[f"{c}-{p.name}={b}" for c, p, b in BAD_CASES])
def test_out_of_range_value_is_usage_error(tmp_path, capsys, cmd, p, bad):
    out = tmp_path / "out"
    argv = table_argv(cmd, {**VALID[cmd], p.name: bad})
    assert main(argv + ([] if cmd == "solve" else ["--out", str(out)])) == 2
    err = capsys.readouterr().err
    assert p.flag in err and f"got {bad}" in err
    assert not out.exists()  # rejected before any work


def test_bad_value_cases_cover_the_reported_silent_answers():
    cases = {(cmd, p.name, bad) for cmd, p, bad in BAD_CASES}
    assert {("verify", "tol", "nan"), ("solve", "tol", "nan"), ("eval", "t", "nan"),
            ("simulate", "level", "nan"), ("simulate", "dx", "nan")} <= cases
    assert {cmd for cmd, _, _ in cases} == set(COMMANDS)


WINDOWS = {"eval": ("x_min", "x_max"), "simulate": ("x_min", "x_max"),
           "verify": ("xi_min", "xi_max")}


@pytest.mark.parametrize("cmd", WINDOWS)
@pytest.mark.parametrize("lo, hi", [("5", "-5"), ("1", "1"), ("-1.7e308", "1.7e308")],
                         ids=["reversed", "equal", "width-overflows"])
def test_window_order_is_usage_error(tmp_path, capsys, cmd, lo, hi):
    # an overflowing width made eval print two NumPy RuntimeWarnings and blame
    # --t, and simulate stop with NumPy's bare "Maximum allowed size exceeded"
    out = tmp_path / "out"
    name_lo, name_hi = WINDOWS[cmd]
    argv = table_argv(cmd, {**VALID[cmd], name_lo: lo, name_hi: hi})
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    flag_lo, flag_hi = ("--" + name.replace("_", "-") for name in WINDOWS[cmd])
    assert err == (f"error: {flag_lo} {float(lo)} must be less than {flag_hi} {float(hi)}"
                   " by a finite width\n")
    assert not out.exists()  # rejected before any work


SIM_CONFIG = ("family=A\nalpha0=1.2\nmu=0.2\nk=5.9\ndelta=3\nc1=10\nc2=20\n"
              "x_min=-10\nx_max=10\ndx=0.1\ndt=0.004\nt_end=0.1\n")


@pytest.mark.parametrize("line, key", [
    ("colour=blue", "colour"),
    ("t-end=0.1", "t-end"),
    ("measure_speed=ture", "measure_speed"),
    ("alpha0=", "alpha0"),
])
def test_config_rejects_bad_entry(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SIM_CONFIG + line + "\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and key in err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert str(cfg) in capsys.readouterr().err


def test_out_under_a_regular_file_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["figure", "1", "--out", str(blocker / "sub")]) == 2
    assert str(blocker / "sub") in capsys.readouterr().err


# header keys that are computed, not parameters
DERIVED = {"artifact", "version", "command", "c", "lambda", "beta", "period",
           "alpha0_note"}


def replay(hdr, out):
    """Rerun the command that wrote a provenance header, into out."""
    cmd, *number = hdr["command"].split()
    values = {k: v for k, v in hdr.items()
              if k not in DERIVED and not k.startswith("pole_")}
    if cmd == "figure":  # the header echoes the figure's fixed parameter bundle
        bundle = FIGURES[int(number[0])].keys() - {"alpha0_inferred"}
        assert values.keys() == bundle | {"case"}
        values = {"figure": number[0]}
    if cmd == "simulate":
        del values["t"]  # the snapshot's time
    assert main(table_argv(cmd, values) + ["--out", str(out)]) == 0


def same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("argv", [
    ["eval", *FIG1, "--x-min", "-3", "--n", "301", "--t", "0.5"],
    ["figure", "1"], ["figure", "2"], ["figure", "3"],
    ["simulate", *SIM_BASE, "--dt", "0.004", "--t-end", "0.1",
     "--snapshot-every", "5", "--measure-speed"],
], ids=["eval", "figure1", "figure2", "figure3", "simulate"])
def test_artifact_replays_from_its_header(tmp_path, argv):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*argv, "--out", str(first)]) == 0
    hdr, _ = read_csv(sorted(first.glob("*.csv"))[-1])
    replay(hdr, second)
    same_files(first, second)


def test_verify_report_replays_from_its_parameters(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["verify", *FIG1, "--xi-min", "1", "--tol", "1e-9",
                 "--out", str(first)]) == 0
    lines = (first / "verify_report.kv").read_text().splitlines()
    params = lines[lines.index("failed_equations=") + 1:]
    replay(dict(line.split("=", 1) for line in ["command=verify", *params]), second)
    same_files(first, second)


def help_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


PARAM_FLAGS = {p.flag for p in PARAMS if p.flag.startswith("--")}


class TestOneCommandParser:
    """main builds flags only for the command it runs; --help still shows all."""

    def test_help_lists_every_command(self, capsys):
        text = help_text(capsys, ["--help"])
        assert "{" + ",".join(COMMANDS) + "}" in text
        for cmd, (_, summary) in COMMANDS.items():
            assert re.search(rf"^ +{cmd} +{summary}$", text, re.MULTILINE), cmd

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_command_help_lists_its_flags(self, capsys, cmd):
        shown = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", help_text(capsys, [cmd, "--help"])))
        assert shown & PARAM_FLAGS == {p.flag for p in PARAMS
                                       if cmd in p.defaults and p.flag in PARAM_FLAGS}

    def test_other_commands_get_no_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser(["figure"]).parse_args(["eval", "--n", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 3" in capsys.readouterr().err
