"""Checks on what the package modules import, in the source and at run time.

``sim.py`` is an independent check of the closed forms in ``exact.py``, so it
must share no machinery with them, directly or through another module.
``exact.py`` writes every pole in closed form and needs no SciPy solver.
Only the root search in ``algebraic.py`` needs SciPy, so importing any other
module, the CLI included, must not load it.
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


def loaded_modules(module):
    """The names in sys.modules after a fresh interpreter imports module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", f"import sys, {module}; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    return run.stdout.split()


@pytest.mark.parametrize("module", ["cli", "exact", "verify", "sim", "output"])
def test_import_loads_no_scipy(module):
    assert [m for m in loaded_modules(f"alleewaves.{module}") if m.split(".")[0] == "scipy"] == []


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
