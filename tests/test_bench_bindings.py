"""The package names the benchmark tracer binds (bench/tracing.py) must exist,
and the argv the workloads (bench/workloads.py) send to the CLI must pass it.

The tracer wraps names at run time and the workloads build argv at run
time, so a refactor that breaks either would otherwise only show in a
benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def _spanned():
    return _load_bench("tracing").SPANNED


@pytest.mark.parametrize("mod_name, fn_name", _spanned(), ids=lambda v: v)
def test_spanned_function_exists(mod_name, fn_name):
    mod = importlib.import_module(f"alleewaves.{mod_name}")
    assert callable(getattr(mod, fn_name, None))


def test_counted_names_exist():
    from alleewaves import algebraic, sim
    assert callable(sim.step)
    assert algebraic.least_squares is scipy.optimize.least_squares


def test_simulate_takes_initial_first():
    from alleewaves.sim import simulate
    assert next(iter(inspect.signature(simulate).parameters)) == "initial"


def test_output_writers_take_the_traced_parameters():
    # the tracer reads these arguments by name to count rows and bytes
    from alleewaves.output import write_csv, write_svg
    assert {"path", "columns"} <= set(inspect.signature(write_csv).parameters)
    assert "path" in inspect.signature(write_svg).parameters


def test_bench_argv_passes_the_cli_resolver(tmp_path):
    # an argv the CLI rejects would turn each benchmark operation into a failure
    from alleewaves import cli
    workloads = _load_bench("workloads")
    par = workloads.Front.draw(np.random.default_rng(0))
    argvs = [workloads.Front().simulate_argv(par, dx, dt, tmp_path)
             for dx, dt in workloads.FRONT_GRIDS]
    argvs.append(workloads.Front(x_half=10.0, t_end=0.1, snapshots=3)
                 .simulate_argv(par, 0.5, 0.05, tmp_path))  # the warm-up run
    ops = workloads.Profiles().make_pass(np.random.default_rng(0), tmp_path)
    argvs += [op.call.args[0] for op in ops if op.call.func is workloads._cli]
    assert [argv[0] for argv in argvs] == ["simulate"] * 4 + ["figure"] * 3 + ["verify"]
    for argv in argvs:
        cli.resolve(cli.build_parser().parse_args(argv))
