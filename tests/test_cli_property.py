"""Every CLI run exits 0-3 and, on success, writes only finite numbers.

Hypothesis builds each argv from cli.PARAMS itself, so a new flag is drawn
without a test edit.  A float comes from its normal range or from a set of
extreme values; simulate's grid flags stay in their normal ranges, so its
cell and step counts stay small.  Runs go in process through cli.main.

A run must exit 0-3 with no traceback and no Warning in its output (pytest
turns any Python warning into an error, which would escape main).  On exit 0
no number in what it wrote, files or standard output, is NaN or infinite: a
sample near a pole is written as empty cells with pole_flag=1.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from alleewaves.cli import COMMANDS, PARAMS, REQUIRED, main

EXTREME = (0.0, 1e-300, -1e-300, 1e12, -1e12, 1e150, -1e150, 1e300, -1e300, 5e-324)
# normal float ranges by name; a flag not listed draws from the range of its check
NORMAL = {"alpha0": (0.3, 3.0), "mu": (-2.0, 10.0), "k": (0.5, 8.0), "delta": (0.5, 5.0),
          "c1": (-20.0, 20.0), "c2": (-20.0, 20.0), "x_min": (-20.0, -1.0),
          "x_max": (1.0, 20.0), "xi_min": (-20.0, -1.0), "xi_max": (1.0, 20.0),
          "dx": (0.05, 0.5)}
# simulate's steps: t_end must be a whole number of them
STEPS = {"dt": (5e-4, 1e-3, 2e-3), "t_end": (0.01, 0.02)}
BY_CHECK = {"": (-10.0, 10.0), "positive": (1e-3, 10.0), "non-negative": (0.0, 1e-3)}
INTS = {"n": (1, 40), "n_samples": (16, 64), "snapshot_every": (1, 20)}
# simulate's cell count follows from these, so they never take an extreme
GRID = {("simulate", name) for name in ("x_min", "x_max", "dx")}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def values(cmd, p):
    """A strategy for the value of parameter p of command cmd."""
    if p.choices:
        return st.sampled_from(p.choices)
    if p.type is bool:
        return st.booleans()
    if p.type is int:
        return st.integers(*INTS.get(p.name, (1, 20)))
    if p.name in STEPS:
        return st.sampled_from(STEPS[p.name])
    normal = st.floats(*NORMAL.get(p.name, BY_CHECK[p.check]))
    if (cmd, p.name) in GRID:
        return normal
    # about one value in four is extreme, so that most runs get past validation
    return st.one_of(normal, normal, normal, st.sampled_from(EXTREME))


@st.composite
def argvs(draw):
    """The argv of one run: every required flag, and each other flag or its default."""
    cmd = draw(st.sampled_from(list(COMMANDS)))
    argv = [cmd]
    for p in (p for p in PARAMS if cmd in p.defaults):
        if p.defaults[cmd] is not REQUIRED and draw(st.booleans()):
            continue
        val = draw(values(cmd, p))
        if p.type is bool:
            argv += [p.flag] if val else []
        else:  # a parameter named after its command is positional
            argv += [] if p.name == cmd else [p.flag]
            argv.append(repr(val) if p.type is float else str(val))
    return argv


def run(argv, out):
    """(exit code, stdout + stderr) of argv run through cli.main, writing to out."""
    if argv[0] != "solve":
        argv = argv + ["--out", str(out)]
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits 2 on a usage error
            code = exc.code
    return code, text.getvalue()


@settings(max_examples=40, deadline=None)
@given(argv=argvs())
def test_cli_exits_0_to_3_with_finite_artifacts(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, text = run(argv, Path(tmp))
        assert code in (0, 1, 2, 3), (code, text)
        assert "Traceback" not in text and "Warning" not in text, text
        if code == 0:
            written = [text] + [f.read_text() for f in sorted(Path(tmp).iterdir())]
            assert not any(NON_FINITE.search(w) for w in written), argv

