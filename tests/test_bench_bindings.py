"""The package names the benchmark tracer binds (bench/tracing.py) and the
attributes the workloads and the runner (bench/workloads.py, bench/run.py)
read must exist, and the argv the workloads send to the CLI must pass it.

The tracer wraps names at run time and the workloads build argv at run
time, so a refactor that breaks either would otherwise only show in a
benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

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
    # the tracer wraps sim.step and algebraic.least_squares, and reads the
    # polish result's fun and nfev
    from alleewaves import algebraic, sim
    assert callable(sim.step)
    y0 = algebraic._distinct(algebraic._candidates(5.9, 3.0, 0.2, 1.2))[0]
    res = algebraic.least_squares(y0, 5.9, 3.0, 0.2, 1.2)
    assert res.x.shape == (6,) and res.fun.shape == (8,)
    assert isinstance(res.nfev, int) and res.nfev >= 1


def _bench_attribute_reads():
    """(module, name) of each package attribute the workloads and the runner read."""
    mods = {"algebraic", "cli", "exact", "output", "verify"}
    reads = set()
    for name in ("workloads", "run"):
        for node in ast.walk(ast.parse((BENCH / f"{name}.py").read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in mods):
                reads.add((node.value.id, node.attr))
    return sorted(reads)


@pytest.mark.parametrize("mod_name, attr", _bench_attribute_reads(), ids=lambda v: v)
def test_bench_attribute_exists(mod_name, attr):
    # a name missing here would fail every benchmark operation that reads it
    assert hasattr(importlib.import_module(f"alleewaves.{mod_name}"), attr)


def test_solve_families_takes_the_bench_start_grid():
    from alleewaves.algebraic import solve_families
    assert "init_grid" in inspect.signature(solve_families).parameters


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


def test_bench_argv_resolves_alike_from_the_one_command_parser(tmp_path):
    # main parses with build_parser(argv), which adds only the invoked
    # command's flags; the full parser must read each bench argv the same
    from alleewaves import cli
    workloads = _load_bench("workloads")
    par = workloads.Front.draw(np.random.default_rng(0))
    argvs = [workloads.Front().simulate_argv(par, dx, dt, tmp_path)
             for dx, dt in workloads.FRONT_GRIDS]
    ops = workloads.Profiles().make_pass(np.random.default_rng(0), tmp_path)
    argvs += [op.call.args[0] for op in ops if op.call.func is workloads._cli]
    for argv in argvs:
        assert (cli.resolve(cli.build_parser(argv).parse_args(argv))
                == cli.resolve(cli.build_parser().parse_args(argv)))


def test_tracer_counts_every_rk4_step(tmp_path):
    # sim.steps, sim.rhs_evals and sim.ns_per_cell_step.* all read the
    # tracer's count of sim.step calls, so simulate must call the module's
    # step once per RK4 step or they silently read 0
    import alleewaves.algebraic  # noqa: F401  the tracer binds its least_squares
    from alleewaves import cli
    tracing, workloads = _load_bench("tracing"), _load_bench("workloads")
    par = workloads.Front.draw(np.random.default_rng(0))
    t_end, dt = 1.0, 0.05
    argv = workloads.Front(x_half=10.0, t_end=t_end, snapshots=5).simulate_argv(
        par, 0.5, dt, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    n_steps = round(t_end / dt)
    assert tracer.steps == n_steps == 20
    metrics = tracing.per_layer_metrics(tracer.spans, 1, [])
    assert (metrics["sim.steps"], metrics["sim.rhs_evals"]) == (n_steps, 4 * n_steps)
