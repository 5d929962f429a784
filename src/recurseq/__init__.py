"""Exact arithmetic for order-2 recurrent sequences.

Ratio sequences of generalized Fibonacci numbers, closed-form convergence
accelerations along arbitrary order-2 index recurrences, the index maps
realized by the secant/Newton/Halley/Householder methods on quadratics, and
period-2 continued fractions with rational partial quotients.  Everything is
computed over Python ints and fractions.Fraction; nothing here is ever
approximate except the final decimal rendering, which is correctly rounded.

`import recurseq` loads none of the modules below.  Each public name, and each
module name, is imported on first use (PEP 562) and then kept in the package
namespace, so a call pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Every public name, under the module that defines it.
_EXPORTS = {
    "accel": (
        "AccelerationEntry", "IndexSequenceParams", "accelerate_general", "arithmetic_index_accel",
        "double_ratio", "fibonacci_index_accel", "general_ratio_y", "ratio_x", "shift_ratio",
        "verify_cubic_fibonacci_identity", "verify_fkn_identity", "verify_nested_fibonacci_identity",
    ),
    "cf": (
        "ConvergentRecord", "PeriodicQuadCF", "RationalCF", "convergents_direct", "convergents_integer",
        "method_subsequence", "quad_cf_convergent",
    ),
    "core": (
        "DEFAULT_INDEX_CAP", "LinRecSequence", "Matrix2", "RecurrenceParams", "basis_ut", "companion_power",
        "decimated_params", "fibonacci", "lucas_v", "term",
    ),
    "errors": (
        "DegenerateConvergent", "DegenerateRatio", "DegenerateStep", "IndexCapExceeded", "InverseUnavailable",
        "NonRealRoots", "NoProgress", "RecurseqError",
    ),
    "formatting": ("format_decimal", "format_rational", "parse_rational"),
    "roots": (
        "QuadraticABC", "QuadraticPQ", "approximate_root", "approximate_root_with_trace", "halley_index",
        "halley_step", "householder_index", "householder_step", "newton_index", "newton_step",
        "secant_index_sequence", "secant_step",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # the import system binds the submodule in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
