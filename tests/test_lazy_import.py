"""The package loads a module only when one of its names is first used.

Import-cost checks run in fresh interpreters, since this one has long since
loaded everything; the public-surface checks hold however much is loaded.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recurseq

SRC = Path(recurseq.__file__).resolve().parent.parent

# The public surface, by defining module.
EXPORTS = {
    "accel": {
        "AccelerationEntry", "IndexSequenceParams", "accelerate_general", "arithmetic_index_accel",
        "double_ratio", "fibonacci_index_accel", "general_ratio_y", "ratio_x", "shift_ratio",
        "verify_cubic_fibonacci_identity", "verify_fkn_identity", "verify_nested_fibonacci_identity",
    },
    "cf": {
        "ConvergentRecord", "PeriodicQuadCF", "RationalCF", "convergents_direct", "convergents_integer",
        "method_subsequence", "quad_cf_convergent",
    },
    "core": {
        "DEFAULT_INDEX_CAP", "LinRecSequence", "Matrix2", "RecurrenceParams", "basis_ut", "companion_power",
        "decimated_params", "fibonacci", "lucas_v", "term",
    },
    "errors": {
        "DegenerateConvergent", "DegenerateRatio", "DegenerateStep", "IndexCapExceeded", "InverseUnavailable",
        "NonRealRoots", "NoProgress", "RecurseqError",
    },
    "formatting": {"format_decimal", "format_rational", "parse_rational"},
    "roots": {
        "QuadraticABC", "QuadraticPQ", "approximate_root", "approximate_root_with_trace", "halley_index",
        "halley_step", "householder_index", "householder_step", "newton_index", "newton_step",
        "secant_index_sequence", "secant_step",
    },
}
SUBMODULES = sorted(EXPORTS)


def modules_after(code: str, *flags: str) -> set[str]:
    """Names in sys.modules of a fresh interpreter, started with flags, after it runs code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, *flags, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def run_cli(*argv: str) -> str:
    return f"from recurseq.cli import main\nassert main({list(argv)!r}) == 0"


class TestColdStart:
    def test_bare_import_loads_no_submodule(self):
        assert {m for m in modules_after("import recurseq") if m.startswith("recurseq.")} == set()

    def test_seq_loads_only_core_errors_formatting(self):
        loaded = modules_after(run_cli("seq", "-p", "1", "-q", "-1", "-n", "10"))
        assert {"recurseq.core", "recurseq.errors", "recurseq.formatting"} <= loaded
        assert {"recurseq.accel", "recurseq.cf", "recurseq.roots", "json"}.isdisjoint(loaded)

    def test_root_leaves_accel_unloaded(self):
        loaded = modules_after(run_cli("root", "-a", "1", "-b", "1", "-c", "1", "--method", "newton", "--digits", "5"))
        assert "recurseq.roots" in loaded and "recurseq.accel" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ("seq", "-p", "1", "-q", "-1", "-n", "10"),
            ("ratio", "-p", "1", "-q", "-1", "-n", "10"),
            ("accelerate", "-p", "1", "-q", "-1", "--scheme", "double", "--count", "3"),
            ("root", "-a", "1", "-b", "1", "-c", "1", "--method", "newton", "--digits", "5"),
            ("verify", "method-maps", "--n-max", "3"),
            ("verify", "nested-fib", "--n-max", "3"),
        ],
        ids=["seq", "ratio", "accelerate", "root", "verify-method-maps", "verify-nested-fib"],
    )
    def test_subcommand_loads_no_dataclasses(self, argv):
        """Only cf's ConvergentRecord and core's Matrix2 are dataclasses."""
        assert {"dataclasses", "inspect"}.isdisjoint(modules_after(run_cli(*argv)))

    def test_seq_loads_no_typing(self):
        # -S: a site .pth hook may import typing before the probe runs.
        assert "typing" not in modules_after(run_cli("seq", "-p", "1", "-q", "-1", "-n", "10"), "-S")

    def test_dir_star_import_and_submodules_after_bare_import(self):
        code = (
            "import recurseq\n"
            "assert {'__version__', *recurseq.__all__, *SUBMODULES} <= set(dir(recurseq))\n"
            "for name in SUBMODULES:\n"
            "    assert getattr(recurseq, name) is __import__('recurseq.' + name, fromlist=['_'])\n"
            "from recurseq import *\n"
            "assert all(globals()[name] is getattr(recurseq, name) for name in recurseq.__all__)\n"
        ).replace("SUBMODULES", repr(SUBMODULES))
        assert {f"recurseq.{name}" for name in SUBMODULES} <= modules_after(code)


class TestPublicSurface:
    def test_all_holds_the_52_names(self):
        names = set().union(*EXPORTS.values())
        assert len(names) == 52
        assert recurseq.__all__ == sorted(names)

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_each_name_is_its_defining_modules_object(self, module):
        home = importlib.import_module(f"recurseq.{module}")
        assert getattr(recurseq, module) is home
        for name in EXPORTS[module]:
            assert getattr(recurseq, name) is getattr(home, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError) as info:
            recurseq.x
        assert str(info.value) == "module 'recurseq' has no attribute 'x'"
