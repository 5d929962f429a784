"""The differential script (tests/differential.py) on a small slice of its grid, in process.

The cross-revision runs stay out of this suite; this keeps the script's grid
and comparison from rotting.  The same slice is also run under each other
installed interpreter that pyproject.toml's requires-python admits.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

import pytest

import recurseq
from differential import compare, lines
from recurseq.cli import build_parser

SLICE = {"r": 1, "n_max": 6}
TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(recurseq.__file__)))


def test_two_runs_print_the_same_lines():
    first = list(lines(**SLICE))
    assert first == list(lines(**SLICE))
    assert all(line.count("\t") == 1 and line.split("\t")[1][0] in "=!" for line in first)


def test_every_public_function_is_in_the_grid():
    functions = {name for name in recurseq.__all__
                 if not isinstance(getattr(recurseq, name), type) and name != "DEFAULT_INDEX_CAP"}
    assert len(functions) == 33
    called = {line.partition("(")[0] for line in lines(**SLICE)}
    assert functions <= called


def test_every_subcommand_and_error_exit_is_in_the_cli_slice():
    (subparsers,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    verify = subparsers.choices["verify"]
    (identities,) = [action.choices for action in verify._actions if action.dest == "identity"]
    cli = [line for line in lines(**SLICE) if line.startswith("cli(")]
    argvs = [line.partition("\t")[0] for line in cli]
    assert {argv.split("'")[1] for argv in argvs} == set(subparsers.choices)
    assert {argv.split("'")[3] for argv in argvs if argv.startswith("cli('verify'")} == set(identities)
    assert {int(line.partition("\t= [")[2].partition(",")[0]) for line in cli} == {0, 2, 3, 4, 5}


def test_compare_counts_values_exceptions_and_mismatches():
    ref = ["f(1)\t= 2", "f(0)\t! ValueError: no", "g(1)\t= 1/2", "g(2)\t= 3"]
    new = ["f(1)\t= 2", "f(0)\t! ValueError: no", "g(1)\t= 1/3"]
    assert compare(ref, new) == (4, 1, 1, [("g(1)\t= 1/2", "g(1)\t= 1/3"), ("g(2)\t= 3", "<missing>")])


def other_interpreters():
    """Each Python 3.10-3.13 other than this one, found as python3.10 ... python3.13 on PATH
    or as ~/.pyenv/versions/*/bin/python.  A candidate that does not start is skipped."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
    candidates += sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/*/bin/python")))
    probe = "import sys; print(sys.version_info[:2] >= (3, 10) and sys.version_info[:2] <= (3, 13), sys.executable)"
    found = {os.path.realpath(sys.executable): None}
    for path in filter(None, candidates):
        try:
            result = subprocess.run([path, "-c", probe], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        admitted, _, executable = result.stdout.strip().partition(" ")
        if result.returncode == 0 and admitted == "True":
            found.setdefault(os.path.realpath(executable), path)
    return sorted(filter(None, found.values()))


def test_slice_is_the_same_under_other_interpreters():
    """requires-python >= 3.10: the slice's lines under every other interpreter found equal this one's."""
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other Python 3.10-3.13 interpreter starts here")
    expected = list(lines(**SLICE))
    code = f"import sys\nfrom differential import lines\nsys.stdout.writelines(line + '\\n' for line in lines(**{SLICE!r}))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]), PYTHONDONTWRITEBYTECODE="1",
               PYTHONIOENCODING="utf-8")
    for python in pythons:
        result = subprocess.run([python, "-c", code], capture_output=True, text=True, encoding="utf-8", env=env,
                                timeout=120)
        assert result.returncode == 0, f"{python}: {result.stderr}"
        assert result.stdout.splitlines() == expected, python
