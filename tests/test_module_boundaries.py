"""Checks on what the package modules import, in the source and at run time.

``sim.py`` is an independent check of the closed forms in ``exact.py``, so it
must share no machinery with them, directly or through another module.
``exact.py`` writes every pole in closed form and needs no SciPy solver.
Only the polish of the root search in ``algebraic.py`` needs SciPy, so no
module loads it on import, the package, ``algebraic`` and the CLI included:
the first polish does, and binds ``algebraic.least_squares`` as it does.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alleewaves"


def package_imports(source):
    """Names of the alleewaves modules that source imports.

    A bare ``import alleewaves`` counts as ``__init__``, the package itself.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "alleewaves":
                    found.add(rest.split(".")[0] or "__init__")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "alleewaves":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # "from . import exact" or "from alleewaves import exact"
                found.update(a.name for a in node.names)
    return sorted(found)


def top_level_imports(source):
    """Top-level names of the absolute imports in source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found)


def test_sim_imports_only_errors():
    assert package_imports((PACKAGE / "sim.py").read_text()) == ["errors"]


def test_exact_imports_no_scipy():
    assert "scipy" not in top_level_imports((PACKAGE / "exact.py").read_text())


def run_fresh(code):
    """The standard output of code run by a fresh interpreter that finds the package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def loaded_modules(module):
    """The names in sys.modules after a fresh interpreter imports module."""
    return run_fresh(f"import sys, {module}; print(*sys.modules)").split()


@pytest.mark.parametrize("module", ["alleewaves"] + [
    f"alleewaves.{name}" for name in ("algebraic", "cli", "exact", "verify", "sim", "output")],
    ids=lambda module: module.partition(".")[2] or "package")
def test_import_loads_no_scipy(module):
    assert [m for m in loaded_modules(module) if m.split(".")[0] == "scipy"] == []


# the figure-1 inputs k, delta, mu, alpha0
FIG1 = (5.9, 3.0, 0.2, 1.2)


def test_first_polish_loads_and_binds_scipy():
    out = run_fresh(
        "import sys\n"
        "from alleewaves import algebraic\n"
        "before = 'scipy.optimize' in sys.modules\n"
        f"algebraic.solve_families{FIG1}\n"
        "import scipy.optimize\n"
        "print(before, algebraic.least_squares is scipy.optimize.least_squares)\n")
    assert out.split() == ["False", "True"]


def test_tracer_installed_before_any_polish_counts_every_polish():
    # bench/tracing.py rebinds algebraic.least_squares when it installs; the
    # polish must call that binding even though SciPy had not loaded yet
    bench = PACKAGE.parents[1] / "bench" / "tracing.py"
    out = run_fresh(
        "import importlib.util, sys\n"
        "import alleewaves.cli, alleewaves.output, alleewaves.sim, alleewaves.verify\n"
        "from alleewaves import algebraic\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracing', {str(bench)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "sys.modules[spec.name] = tracing\n"
        "spec.loader.exec_module(tracing)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        f"roots = algebraic.solve_families{FIG1}\n"
        "tracer.uninstall()\n"
        f"print(tracer.starts, len(algebraic._distinct(algebraic._candidates{FIG1})), len(roots))\n")
    starts, candidates, roots = map(int, out.split())
    assert starts == candidates == roots == 4


def test_sim_loads_only_errors():
    # the run-time counterpart of test_sim_imports_only_errors
    assert sorted(m for m in loaded_modules("alleewaves.sim") if m.split(".")[0] == "alleewaves") \
        == ["alleewaves", "alleewaves.errors", "alleewaves.sim"]


def test_top_level_imports_sees_every_form():
    src = ("import scipy.optimize\nfrom scipy import linalg\nimport numpy as np\n"
           "from .errors import E\nfrom . import model\n")
    assert top_level_imports(src) == ["numpy", "scipy"]


def test_detects_every_import_form():
    src = ("import numpy\nimport alleewaves.exact\nfrom .errors import E\n"
           "from . import model\nfrom alleewaves.verify import r\n"
           "from alleewaves import output\nfrom .algebraic.sub import s\n"
           "import alleewaves as aw\nfrom numpy import linalg\n")
    assert package_imports(src) == ["__init__", "algebraic", "errors", "exact",
                                    "model", "output", "verify"]
