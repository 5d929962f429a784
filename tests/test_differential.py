"""The differential script (tests/differential.py) on a small slice of its grid, in process.

The cross-revision and cross-interpreter runs stay out of this suite; this keeps
the script's grid and comparison from rotting.
"""

import recurseq
from differential import compare, lines

SLICE = {"r": 1, "n_max": 6}


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


def test_compare_counts_values_exceptions_and_mismatches():
    ref = ["f(1)\t= 2", "f(0)\t! ValueError: no", "g(1)\t= 1/2", "g(2)\t= 3"]
    new = ["f(1)\t= 2", "f(0)\t! ValueError: no", "g(1)\t= 1/3"]
    assert compare(ref, new) == (4, 1, 1, [("g(1)\t= 1/2", "g(1)\t= 1/3"), ("g(2)\t= 3", "<missing>")])
