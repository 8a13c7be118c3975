"""The README's examples run as written: its python session and its CLI lines."""

import re
import shlex
from pathlib import Path

import pytest

from alleewaves.cli import COMMANDS, build_parser, main, resolve

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_blocks(lang):
    """The bodies of README's fenced blocks tagged lang, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def cli_lines():
    """Each `alleewaves ...` command of the sh blocks as argv, continuations joined."""
    commands = []
    for block in code_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["alleewaves"]:
                commands.append(argv[1:])
    return commands


def test_python_session_prints_what_it_says(capsys):
    (session,) = code_blocks("python")
    exec(compile(session, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    case, c = lines[0].split()
    assert case == "hyperbolic" and float(c) == pytest.approx(-4.1719, abs=1e-4)
    assert float(lines[-1]) < 1e-10  # the worst ODE residual


@pytest.mark.parametrize("argv", cli_lines(), ids=lambda argv: " ".join(argv[:2]))
def test_cli_line_runs(tmp_path, argv):
    argv = list(argv)
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    assert main(argv) == 0


@pytest.mark.parametrize("argv", cli_lines(), ids=lambda argv: " ".join(argv[:2]))
def test_cli_line_resolves_alike_from_the_one_command_parser(argv):
    assert resolve(build_parser(argv).parse_args(argv)) == resolve(build_parser().parse_args(argv))


def test_every_command_has_a_line():
    assert {argv[0] for argv in cli_lines()} == set(COMMANDS)
