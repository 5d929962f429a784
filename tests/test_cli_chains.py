"""`recurseq accelerate --scheme double / fib-index` through the one chain
engine (accelerate_general on W(k, 2k, 2, 0) and W(2, 3, 1, -1)), against
the CLI's former inline loops over double_ratio and fibonacci_index_accel.

The two agree on exit code and stdout except for three deliberate changes,
each pinned below: q = 0 exits 4 (the recurrence is first-order, there is
nothing to accelerate), seed indices are held to --max-index like every later
index, and a failing chain prints nothing instead of the lines before the
failure.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from recurseq import (
    DegenerateRatio,
    IndexCapExceeded,
    LinRecSequence,
    RecurrenceParams,
    double_ratio,
    fibonacci_index_accel,
    format_rational,
    general_ratio_y,
    ratio_x,
)
from recurseq.cli import OutputFormat, main
from recurseq.core import _check_index


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def chain_argv(scheme, p, q, start, count, cap, fmt):
    argv = ["accelerate", f"-p={p}", f"-q={q}", f"--scheme={scheme}", f"--count={count}", f"--format={fmt}"]
    if scheme == "double":
        argv.append(f"--start={start}")
    if cap is not None:
        argv.append(f"--max-index={cap}")
    return argv


# -- the oracle: the former inline loops, streaming as they did ----------------

def former_chain(scheme, p, q, start, count, cap, fmt):
    """(exit code, stdout, index being produced when it stopped) of the former loops."""
    params = RecurrenceParams(p, q)
    fmt = OutputFormat.parse(fmt)
    lines = []

    def emit(idx, x):
        if fmt.mode == "records":
            lines.append(json.dumps({"index": idx, "value": format_rational(x), "method": scheme}) + "\n")
        else:
            lines.append(f"{idx} {fmt.render(x)}\n")

    idx = start if scheme == "double" else 2
    try:
        if scheme == "double":
            x = ratio_x(params, idx, cap)
            emit(idx, x)
            for _ in range(count - 1):
                idx *= 2
                _check_index(idx, cap)
                x = double_ratio(params, x)
                emit(idx, x)
        else:
            indices = [2, 3]
            values = [ratio_x(params, 2, cap)]
            if count >= 2:
                idx = 3
                values.append(ratio_x(params, 3, cap))
            for _ in range(2, count):
                idx = indices[-1] + indices[-2]
                _check_index(idx, cap)
                indices.append(idx)
                values.append(fibonacci_index_accel(params, values[-1], values[-2]))
            for i, x in zip(indices, values):
                emit(i, x)
    except IndexCapExceeded:
        return 3, "".join(lines), idx
    except DegenerateRatio:
        return 4, "".join(lines), idx
    except ValueError:
        return 2, "".join(lines), idx
    return 0, "".join(lines), idx


def seeds(scheme, start, count):
    if scheme == "double":
        return [start, 2 * start][:count]
    return [2, 3][:count]


small = st.integers(-6, 6)
nonzero = small.filter(bool)
formats = st.sampled_from(["rational", "records", "decimal:7"])


class TestAgainstFormerLoops:
    @given(p=small, q=nonzero, scheme=st.sampled_from(["double", "fib-index"]), start=st.integers(0, 6),
           count=st.integers(1, 8), cap_slack=st.none() | st.integers(0, 300), fmt=formats)
    @example(p=2, q=4, scheme="double", start=2, count=3, cap_slack=None, fmt="rational")  # U_3 = 0
    @example(p=0, q=1, scheme="fib-index", start=2, count=4, cap_slack=None, fmt="rational")  # U_2 = 0
    @example(p=1, q=1, scheme="fib-index", start=2, count=6, cap_slack=None, fmt="records")  # U_12 = 0
    @example(p=3, q=-2, scheme="double", start=5, count=8, cap_slack=0, fmt="decimal:7")
    def test_same_exit_code_and_stdout(self, p, q, scheme, start, count, cap_slack, fmt):
        # Caps at or above the seed indices: below them is a deliberate change.
        cap = None if cap_slack is None else max([1] + seeds(scheme, start, count)) + cap_slack
        code, out, idx = former_chain(scheme, p, q, start, count, cap, fmt)
        got_code, got_out, err = run_main(*chain_argv(scheme, p, q, start, count, cap, fmt))
        assert got_code == code, err
        if code == 0:
            assert got_out == out
        else:
            assert got_out == ""  # no partial output
        if code == 4:
            assert "denominator" in err and f"index {idx}" in err, err

    @pytest.mark.parametrize("scheme", ["double", "fib-index"])
    def test_small_grid(self, scheme):
        for p in range(-4, 5):
            for q in (-4, -3, -2, -1, 1, 2, 3, 4):
                code, out, _ = former_chain(scheme, p, q, 2, 6, None, "rational")
                got_code, got_out, _ = run_main(*chain_argv(scheme, p, q, 2, 6, None, "rational"))
                assert (got_code, got_out) == (code, out if code == 0 else "")


# -- the three deliberate changes ---------------------------------------------

Q_ZERO_SCHEMES = {
    "double": ["--start=2"],
    "fib-index": [],
    "arith": ["--h=2", "--k=3"],
    "general": ["--i=2", "--j=3", "--s=1", "--t=-1"],
}


class TestDeliberateChanges:
    @pytest.mark.parametrize("scheme", sorted(Q_ZERO_SCHEMES))
    @pytest.mark.parametrize("p", [-3, 0, 1, 5])
    @pytest.mark.parametrize("count", [1, 4])
    def test_q_zero_exits_4(self, scheme, p, count):
        code, out, err = run_main("accelerate", f"-p={p}", "-q=0", f"--scheme={scheme}", f"--count={count}",
                                  *Q_ZERO_SCHEMES[scheme])
        assert (code, out) == (4, "")
        assert "q != 0" in err

    def test_q_zero_was_a_constant_chain(self):
        # What the former loops printed: x = p at every index.
        assert former_chain("double", 3, 0, 2, 3, None, "rational") == (0, "2 3\n4 3\n8 3\n", 8)

    @pytest.mark.parametrize("scheme, start, count, cap", [
        ("double", 2, 1, 1),  # the former loop checked only index 1 and printed index 2
        ("double", 5, 1, 4),
        ("double", 3, 2, 5),  # second seed 6 > 5
        ("fib-index", 2, 1, 1),
        ("fib-index", 2, 2, 2),  # second seed 3 > 2
    ])
    def test_cap_below_a_seed_exits_3(self, scheme, start, count, cap):
        code, out, err = run_main(*chain_argv(scheme, 1, -1, start, count, cap, "rational"))
        assert (code, out) == (3, "")
        assert f"cap {cap}" in err

    @given(p=small, q=nonzero, scheme=st.sampled_from(["double", "fib-index"]), start=st.integers(2, 6),
           count=st.integers(1, 4), data=st.data())
    def test_any_cap_below_a_seed_exits_3(self, p, q, scheme, start, count, data):
        first, *rest = seeds(scheme, start, count)
        cap = data.draw(st.integers(1, max([first, *rest]) - 1))
        # A cap between the seeds lets a degenerate first seed fail first.
        expected = 4 if cap >= first and outcome(ratio_x, RecurrenceParams(p, q), first)[0] is DegenerateRatio else 3
        code, out, _ = run_main(*chain_argv(scheme, p, q, start, count, cap, "rational"))
        assert (code, out) == (expected, "")

    def test_failing_double_chain_prints_nothing(self):
        # U = 0, 1, 2, 0, ... for (p, q) = (2, 4): x_4 is undefined.
        assert former_chain("double", 2, 4, 2, 3, None, "rational") == (4, "2 2\n", 4)
        code, out, err = run_main(*chain_argv("double", 2, 4, 2, 3, None, "rational"))
        assert (code, out) == (4, "")
        assert err == "error: U_3 = 0, ratio x_4 undefined (denominator vanished at index 4)\n"

    def test_failing_chain_step_names_its_index(self):
        # (p, q) = (1, 1): U has period 6 and U_12 = 0, so the step to x_13 fails.
        assert former_chain("fib-index", 1, 1, 2, 5, None, "rational")[::2] == (4, 13)
        code, out, err = run_main(*chain_argv("fib-index", 1, 1, 2, 5, None, "rational"))
        assert (code, out) == (4, "")
        assert err == "error: U_12 = 0, ratio x_13 undefined (denominator vanished at index 13)\n"


# -- cmd_ratio: general_ratio_y on (0, 1) is ratio_x ---------------------------

def outcome(fn, *args):
    try:
        value = fn(*args)
    except (DegenerateRatio, IndexCapExceeded, ValueError) as exc:
        return type(exc), str(exc)
    return type(value), value.numerator, value.denominator


class TestRatioDispatch:
    @given(p=st.integers(-8, 8), q=st.integers(-8, 8),
           n=st.integers(0, 39) | st.sampled_from([200, 1001]), cap=st.sampled_from([None, 5, 39]))
    @example(p=0, q=1, n=3, cap=None)  # U_2 = 0
    @example(p=2, q=4, n=1001, cap=None)  # gcd(p, q) > 1
    @example(p=1, q=-1, n=40, cap=39)
    def test_general_ratio_y_on_u_is_ratio_x(self, p, q, n, cap):
        params = RecurrenceParams(p, q)
        assert outcome(general_ratio_y, LinRecSequence(0, 1, params), n, cap) == outcome(ratio_x, params, n, cap)

    def test_cli_ratio_on_u(self):
        assert run_main("ratio", "-p=1", "-q=-1", "-n=10") == (0, "55/34\n", "")
        assert run_main("ratio", "-p=1", "-q=-1", "-n=10", "--count=2") == (0, "10 55/34\n11 89/55\n", "")
        assert run_main("ratio", "-p=1", "-q=-1", "-n=10", "--format=records")[1] == (
            '{"index": 10, "value": "55/34", "method": "ratio"}\n')
