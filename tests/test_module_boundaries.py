"""Checks on what the package modules import, in the source and at run time.

``sim.py`` is an independent check of the closed forms in ``exact.py``, so it
must share no machinery with them, directly or through another module.
``exact.py`` writes every pole in closed form and needs no SciPy solver, and
``algebraic.py`` polishes its roots by its own Gauss-Newton steps: the
package runs on NumPy alone, so no module loads SciPy, on import or in a
root search.
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


def test_root_search_loads_no_scipy():
    # the polish is the package's own: a root search and the solve command
    # run on NumPy alone
    k, delta, mu, alpha0 = FIG1
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from alleewaves import algebraic, cli\n"
        f"algebraic.solve_families{FIG1}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['solve', '--k', '{k}', '--delta', '{delta}', '--mu', '{mu}',"
        f" '--alpha0', '{alpha0}'])\n"
        "print(code, *(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert out.split() == ["0"]


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


def test_figure_loads_no_numpy_ma(tmp_path):
    # np.percentile would import numpy.ma (through np.unique) on a command's
    # first call; write_svg takes its order statistics without it
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from alleewaves import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['figure', '1', '--out', {str(tmp_path)!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n")
    assert out.split() == ["0", "False"]


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


# public names that no src/ module references, each with its reason; the
# guard below fails on any other, and on an entry that is gone or now used
UNREFERENCED = {
    ("errors", "NoConvergenceError"): "an errors.* type for callers to catch; bench/ reads it",
    **dict.fromkeys([("algebraic", "coeff_residuals"), ("algebraic", "default_init_grid"),
                     ("output", "read_csv"), ("verify", "estimate_period"),
                     ("verify", "pde_residual")],
                    "read by bench/; goes with ROADMAP item 1, 2 or 9"),
}


def referenced_names(node):
    """Every name, attribute and imported name that node mentions."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rpartition(".")[2])
    return found


def unreferenced_public_api(trees):
    """(module, name) of each top-level public function and class in trees
    that no module mentions outside the name's own definition."""
    defs = [(mod, node) for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    return sorted((mod, d.name) for mod, d in defs
                  if not any(d.name in referenced_names(top)
                             for tree in trees.values() for top in tree.body if top is not d))


def test_no_public_api_goes_unreferenced():
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(PACKAGE.glob("*.py"))}
    assert len(UNREFERENCED) <= 10
    # each allow-listed name still exists and is still unreferenced, so the
    # list cannot go stale; every other public name is used inside src/
    assert unreferenced_public_api(trees) == sorted(UNREFERENCED)


def test_unreferenced_public_api_sees_every_reference():
    trees = {
        "a": ast.parse("import b\ndef used():\n    pass\ndef recursive():\n    recursive()\n"
                       "class Lone:\n    pass\ndef _private():\n    pass\n"),
        "b": ast.parse("from a import used as u\n"),
        "c": ast.parse("import a\nX = a.Lone\n"),
    }
    assert unreferenced_public_api(trees) == [("a", "recursive")]
