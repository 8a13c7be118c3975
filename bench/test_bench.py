"""Tests of the benchmark itself: tiny smoke runs and deliberately corrupted inputs.

Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from alleewaves import algebraic, cli, exact, output  # noqa: E402
from alleewaves.errors import NoConvergenceError  # noqa: E402


def run_pass(wl, workdir, seed=1, index=0):
    ops = wl.make_pass(workloads.pass_rng(seed, wl.name, index), workdir)
    return ops, wl.check(ops, [op.run() for op in ops])


def fig1_spec():
    return exact.make_spec("A", 1.2, 0.2, 5.9, 3.0, "upper", 20.0, 10.0)


def profile(spec, window, nxnt=32):
    res = workloads.Profiles(dense_n=201, nxnt=nxnt).op(spec, window)
    return workloads.check_profile(spec, window, res)


def test_front_smoke_and_corrupted_speed(tmp_path):
    wl = workloads.Front(grids=workloads.FRONT_GRIDS[:2])
    ops, causes = run_pass(wl, tmp_path)
    assert causes == [None, None]
    assert wl.speed_err[0] < 0.02 and wl.interior_linf[0] < 5e-3

    report = ops[1].info["out"] / "speed_report.txt"
    c = exact.make_spec("A", **{k: ops[1].info["par"][k] for k in
                                ("alpha0", "mu", "k", "delta", "c1", "c2")}).coeffs.c
    report.write_text(f"measured_speed={1.05 * c!r}\n")
    assert wl.check(ops, [0, 0])[1].startswith("speed relative error")


def test_profiles_smoke(tmp_path):
    wl = workloads.Profiles(specs_per_pass=5, dense_n=201)
    _, causes = run_pass(wl, tmp_path)
    assert len(causes) == 5 + 4
    assert all(c in (None, workloads.KNOWN_DEFECT) for c in causes)
    assert causes[5:] == [None] * 4  # figures 1-3 and verify


def test_rediscover_smoke(tmp_path):
    wl = workloads.Rediscover(draws_per_pass=1)
    _, causes = run_pass(wl, tmp_path)
    assert causes == [None]
    assert wl.targets == 4 and wl.recovered >= 1


def test_failing_cli_op_counts_as_failed(tmp_path):
    op = workloads.Op("bad simulate", lambda: cli.main(
        ["simulate", "--family", "A", "--alpha0", "1.2", "--mu", "0.2", "--k", "5.9",
         "--delta", "3", "--x-min", "-5", "--x-max", "5", "--dx", "0.1", "--dt", "0.1",
         "--t-end", "1", "--out", str(tmp_path)]))
    assert workloads._cli_cause(op.run(), op).startswith("exit code 2")
    assert workloads._cli_cause(workloads.Raised(ValueError("x")), op) == "raised ValueError: x"


def test_corrupted_coefficients_miss_the_ode_gate():
    window = ((1.0, 5.0), (0.0, 0.2))
    spec = fig1_spec()
    assert profile(spec, window) is None
    bad = replace(spec, coeffs=replace(spec.coeffs, alpha1=spec.coeffs.alpha1 + 1e-3))
    assert profile(bad, window).startswith("ode_residual worst")


def test_pole_windows_are_judged_from_the_pole_lines():
    spec = fig1_spec()
    # crossed and caught by the 64-time screen: PoleError is the right answer
    assert profile(spec, ((-2.0, 2.0), (0.0, 0.2))) is None
    # the ROADMAP item-4 reproduction: a width-0.01 window over t in [0, 100]
    # is crossed between two screened times, and a report comes back
    window = ((-100.0, -99.99), (0.0, 100.0))
    assert workloads.pole_crosses(spec, *window)
    assert profile(spec, window, nxnt=16) == workloads.KNOWN_DEFECT


def test_perturbed_root_fails():
    roots = algebraic.solve_families(5.9, 3.0, 0.2, 1.2)
    assert workloads.check_roots(roots) is None
    bad = [replace(roots[0], c=roots[0].c + 1e-3)] + roots[1:]
    assert "coefficient residual" in workloads.check_roots(bad)


def test_draw_without_a_reachable_root_is_a_known_failure():
    wl = workloads.Rediscover()
    par = dict(k=7.92716605802171, delta=4.425510927931301, mu=1.2872475159527776,
               alpha0=1.5249218747823625)
    with pytest.raises(NoConvergenceError) as exc:
        wl.op(par)
    [cause] = wl.check([workloads.Op("solve_families", None)], [workloads.Raised(exc.value)])
    assert cause.startswith(workloads.KNOWN_NO_ROOT) and workloads.is_known(cause)
    assert not workloads.is_known("raised ValueError: x")


def test_same_seed_same_passes_and_failures(tmp_path):
    wl = workloads.Profiles(specs_per_pass=5, dense_n=201)
    first = run_pass(wl, tmp_path, seed=7, index=3)[1]
    assert run_pass(wl, tmp_path, seed=7, index=3)[1] == first
    args = run.parse_args(["--workload", "profiles", "--seconds", "20"])
    assert run.pass_count(args) == 130
    assert run.pass_count(run.parse_args(["--workload", "front", "--seconds", "0.1",
                                          "--trace", "1"])) == 2


def test_calibration_kernels_and_scaling():
    for wl in workloads.WORKLOADS.values():
        wl.kernel()
    assert all(np.max(np.abs(workloads._lm_fun(y))) < 1e-12 for y in workloads.lm_kernel())
    u, v = workloads.rk4_kernel()
    assert np.isfinite(u).all() and np.isfinite(v).all()

    # kernel timings at t = 0..19: 2 ms up to t = 9, then 4 ms (a slower host)
    sampler = run.SpeedSampler(kernel=None)
    sampler.at = [float(t) for t in range(20)]
    sampler.samples = [0.002] * 10 + [0.004] * 10
    passes = [{"span_s": [(0.5, 0.6), (9.5, 19.5)], "raw_op_s": [0.1, 2.0]}]
    run.scale_passes(passes, sampler)
    # a short operation takes the 9 nearest timings; a long one those inside it
    assert passes[0]["op_s"] == pytest.approx([0.1 * run.REF_S / 0.002,
                                               2.0 * run.REF_S / 0.004])
    assert passes[0]["wall_s"] == pytest.approx(sum(passes[0]["op_s"]))


def test_tracer_sees_calls_through_cli_imports(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["figure", "1", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert cli.write_csv is output.write_csv and not hasattr(cli.main, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.figure"
    assert {"exact.make_spec", "exact.find_singularities", "exact.eval_uv_masked",
            "output.write_csv", "output.write_svg"} <= set(names)
    assert all(s.parent == 0 for s in tracer.spans[1:])
    m = tracing.per_layer_metrics(tracer.spans, 1, [])
    assert set(m) == set(tracing.PER_LAYER)
    assert m["output.write_csv.rows"] == 1001 and m["cli.figure.self_s"] > 0
    assert m["exact.poles_found"] >= 1 and m["sim.steps"] == 0


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rediscover", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "front", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
