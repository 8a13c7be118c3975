"""The package names the benchmark tracer binds (bench/tracing.py) must exist.

The tracer wraps them by name at run time, so a refactor that renames one
would otherwise only show in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest
import scipy.optimize

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _spanned():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod.SPANNED


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
