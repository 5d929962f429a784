import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from recurseq import PeriodicQuadCF, cf, core, format_rational, parse_rational, quad_cf_convergent, roots
from recurseq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_fibonacci(self, capsys):
        code, out, _ = run(capsys, "seq", "-p", "1", "-q", "-1", "--a0", "0", "--a1", "1", "-n", "10")
        assert (code, out) == (0, "55\n")

    def test_initial_condition(self, capsys):
        code, out, _ = run(capsys, "seq", "-p", "1", "-q", "-1", "--a0", "2", "--a1", "1", "-n", "0")
        assert (code, out) == (0, "2\n")

    def test_mersenne(self, capsys):
        code, out, _ = run(capsys, "seq", "-p", "3", "-q", "2", "-n", "5")
        assert (code, out) == (0, "31\n")

    def test_records_mode(self, capsys):
        code, out, _ = run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "10", "--format", "records")
        assert code == 0
        assert json.loads(out) == {"index": 10, "value": "55", "method": "seq"}

    def test_parse_error_exit_2(self, capsys):
        assert run(capsys, "seq", "-p", "x", "-q", "1", "-n", "3")[0] == 2

    def test_resource_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "60", "--max-index", "10")
        assert code == 3 and "cap" in err

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("RECURSEQ_MAX_INDEX", "5")
        assert run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "10")[0] == 3
        monkeypatch.setenv("RECURSEQ_MAX_INDEX", "not-a-number")
        assert run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "10")[0] == 2

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RECURSEQ_MAX_INDEX", "5")
        code, out, _ = run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "10", "--max-index", "100")
        assert (code, out) == (0, "55\n")


    @pytest.mark.parametrize("digits", [10**19, 10**11, 10**7 + 1])
    def test_huge_decimal_digits_exit_3_before_any_term(self, capsys, monkeypatch, digits):
        def unreachable(*args):
            raise AssertionError("a term was computed")

        monkeypatch.setattr(core, "term", unreachable)
        code, out, err = run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "10", "--format", f"decimal:{digits}")
        assert (code, out, err) == (3, "", "error: decimal digits must be <= 10000000\n")

    def test_digits_bound_does_not_follow_max_index(self, capsys):
        code, out, _ = run(capsys, "seq", "-p", "1", "-q", "-1", "-n", "10", "--max-index", "20", "--format", "decimal:40")
        assert (code, out) == (0, "55." + "0" * 40 + "\n")


class TestRatio:
    def test_single_value(self, capsys):
        assert run(capsys, "ratio", "-p", "1", "-q", "-1", "-n", "4") == (0, "3/2\n", "")

    def test_general_sequence_run(self, capsys):
        code, out, _ = run(
            capsys, "ratio", "-p", "1", "-q", "-1", "-n", "3", "--a0", "2", "--a1", "1", "--count", "2"
        )
        assert code == 0
        assert out == "3 4/3\n4 7/4\n"

    def test_decimal_format(self, capsys):
        code, out, _ = run(capsys, "ratio", "-p", "1", "-q", "-1", "-n", "10", "--format", "decimal:6")
        assert (code, out) == (0, "1.617647\n")


class TestAccelerate:
    def test_double_chain(self, capsys):
        code, out, _ = run(
            capsys, "accelerate", "-p", "1", "-q", "-1", "--scheme", "double", "--start", "2", "--count", "3"
        )
        assert code == 0
        assert out == "2 1\n4 3/2\n8 21/13\n"

    def test_fib_index_seed_only(self, capsys):
        code, out, _ = run(capsys, "accelerate", "-p", "1", "-q", "-1", "--scheme", "fib-index", "--count", "1")
        assert (code, out) == (0, "2 1\n")

    def test_arith_chain(self, capsys):
        code, out, _ = run(
            capsys, "accelerate", "-p", "1", "-q", "-1", "--scheme", "arith", "--h", "2", "--k", "2", "--count", "3"
        )
        assert code == 0
        assert out.splitlines()[-1] == "6 8/5"

    def test_general_chain(self, capsys):
        code, out, _ = run(
            capsys,
            "accelerate", "-p", "1", "-q", "-1", "--scheme", "general",
            "--i", "2", "--j", "3", "--s", "1", "--t", "-1", "--count", "3",
        )
        assert code == 0
        assert out == "2 1\n3 2\n5 5/3\n"

    def test_shift(self, capsys):
        code, out, _ = run(
            capsys, "accelerate", "-p", "1", "-q", "-1", "--scheme", "shift", "--n", "3", "--m", "2"
        )
        assert (code, out) == (0, "5 5/3\n")

    def test_degenerate_exit_4_names_failing_index(self, capsys):
        code, _, err = run(
            capsys, "accelerate", "-p", "2", "-q", "4", "--scheme", "double", "--start", "2", "--count", "2"
        )
        assert code == 4 and "denominator" in err and "index 4" in err

    def test_missing_scheme_args_exit_2(self, capsys):
        assert run(capsys, "accelerate", "-p", "1", "-q", "-1", "--scheme", "arith", "--count", "2")[0] == 2

    def test_records_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            "accelerate", "-p", "1", "-q", "-1", "--scheme", "double",
            "--start", "2", "--count", "4", "--format", "records",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["index"] for r in records] == [2, 4, 8, 16]
        assert parse_rational(records[-1]["value"]) == Fraction(987, 610)


class TestRoot:
    def test_newton_golden(self, capsys):
        code, out, _ = run(capsys, "root", "-a", "1", "-b", "1", "-c", "1", "--method", "newton", "--digits", "10")
        assert (code, out) == (0, "1.6180339887\n")

    def test_integer_root(self, capsys):
        code, out, _ = run(capsys, "root", "-a", "1", "-b", "0", "-c", "4", "--method", "newton", "--digits", "3")
        assert (code, out) == (0, "2.000\n")

    def test_halley_trace(self, capsys):
        code, out, _ = run(
            capsys, "root", "-a", "1", "-b", "1", "-c", "1", "--method", "halley", "--digits", "8", "--trace"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["idx 0 → 1", "idx 2 → 3/2", "idx 8 → 55/34"]
        assert lines[-1] == "1.61803399"

    def test_householder_trace_indices(self, capsys):
        code, out, _ = run(
            capsys,
            "root", "-a", "1", "-b", "1", "-c", "1", "--method", "householder",
            "--order", "3", "--digits", "12", "--trace",
        )
        assert code == 0
        indexed = [line for line in out.splitlines() if line.startswith("idx")]
        assert [line.split()[1] for line in indexed[:3]] == ["0", "3", "15"]

    def test_secant_trace_with_b_zero_is_numbered_by_step(self, capsys):
        # The seeds [0, 1] are not convergents: [b/a, b/c] needs b != 0.
        code, out, _ = run(capsys, "root", "-a", "1", "-b", "0", "-c", "2", "--method", "secant", "--digits", "5",
                           "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[:4] == ["step 0 → 0", "step 1 → 1", "step 2 → 2", "step 3 → 4/3"]
        assert lines[-1] == "1.41421"
        assert not [line for line in lines if line.startswith("idx")]

    def test_step_trace_records(self, capsys):
        code, out, _ = run(capsys, "root", "-a", "1", "-b", "0", "-c", "2", "--method", "newton", "--digits", "5",
                           "--trace", "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"step": 0, "value": "1", "method": "newton"}
        assert records[1] == {"step": 1, "value": "3/2", "method": "newton"}
        assert [r["step"] for r in records[:-1]] == list(range(len(records) - 1))
        assert records[-1] == {"method": "newton", "digits": 5, "value": "1.41421"}

    def test_convergent_trace_records(self, capsys):
        code, out, _ = run(capsys, "root", "-a", "1", "-b", "1", "-c", "1", "--method", "halley", "--digits", "8",
                           "--trace", "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[:3] == [{"index": 0, "value": "1", "method": "halley"},
                               {"index": 2, "value": "3/2", "method": "halley"},
                               {"index": 8, "value": "55/34", "method": "halley"}]

    def test_non_real_exit_5(self, capsys):
        assert run(capsys, "root", "-a", "1", "-b", "1", "-c", "-1", "--method", "newton", "--digits", "5")[0] == 5

    def test_zero_leading_coefficient_exit_2(self, capsys):
        assert run(capsys, "root", "-a", "0", "-b", "1", "-c", "1", "--method", "newton", "--digits", "5")[0] == 2


def run_quiet(*argv):
    """main(argv) with its output captured, for tests that run many cases."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


small_nonzero = st.integers(-6, 6).filter(bool)
trace_methods = st.sampled_from(["secant", "newton", "halley"]) | st.integers(1, 4).map(lambda d: f"householder:{d}")


class TestTraceLabels:
    """Every "idx L → v" line of root --trace is the convergent C_L of [b/a, b/c]."""

    @given(a=small_nonzero, b=st.integers(-6, 6), c=small_nonzero, method=trace_methods, digits=st.integers(1, 12))
    @example(a=1, b=0, c=2, method="secant", digits=5)
    @example(a=1, b=0, c=2, method="halley", digits=5)
    @example(a=1, b=1, c=1, method="householder:3", digits=12)
    @example(a=2, b=-3, c=5, method="secant", digits=9)
    def test_idx_lines_are_convergents(self, a, b, c, method, digits):
        name, _, order = method.partition(":")
        argv = ["root", "-a", str(a), "-b", str(b), "-c", str(c), "--method", name, "--digits", str(digits),
                "--trace"] + (["--order", order] if order else [])
        code, out = run_quiet(*argv)
        lines = out.splitlines()
        if code:
            assert code in (4, 5) and not lines
            return
        labelled = [line.split() for line in lines if line.startswith("idx ")]
        stepped = [line for line in lines if line.startswith("step ")]
        assert len(labelled) + len(stepped) == len(lines) - 1
        assert not (labelled and stepped)
        seed = parse_rational(lines[0].split()[-1])
        assert bool(labelled) == (b != 0 and seed == Fraction(b, a))  # a shifted seed walks no convergents
        for _, label, arrow, value in labelled:
            assert arrow == "→"
            assert parse_rational(value) == quad_cf_convergent(PeriodicQuadCF(a, b, c), int(label))


class TestCf:
    def test_golden_convergents(self, capsys):
        code, out, _ = run(capsys, "cf", "1/1 | period=1", "--count", "4")
        assert code == 0
        assert out == "0 1\n1 2\n2 3/2\n3 5/3\n"

    def test_integer_form_matches(self, capsys):
        _, direct, _ = run(capsys, "cf", "2/2, 2/1 | period=2", "--count", "6")
        _, integer, _ = run(capsys, "cf", "2/2, 2/1 | period=2", "--count", "6", "--integer")
        assert direct == integer

    def test_finite_cf_exhausted_exit_2(self, capsys):
        assert run(capsys, "cf", "1/2, 1/3", "--count", "5")[0] == 2

    def test_malformed_cf_exit_2(self, capsys):
        assert run(capsys, "cf", "1/2, zebra", "--count", "2")[0] == 2


class TestVerify:
    def test_nested_fib(self, capsys):
        code, out, _ = run(capsys, "verify", "nested-fib", "--n-max", "20")
        assert (code, out.splitlines()[-1]) == (0, "PASS 18/18")

    def test_fkn_boundary(self, capsys):
        code, out, _ = run(capsys, "verify", "fkn", "--k-max", "1", "--n-max", "2")
        assert (code, out.splitlines()[-1]) == (0, "PASS 1/1")

    def test_method_maps(self, capsys):
        code, out, _ = run(capsys, "verify", "method-maps", "-p", "1", "-q", "-1", "--k-max", "32")
        assert code == 0
        assert out.splitlines()[-1] == "PASS 217/217"

    def test_cubic_fib(self, capsys):
        code, out, _ = run(capsys, "verify", "cubic-fib", "--n-max", "50")
        assert (code, out.splitlines()[-1]) == (0, "PASS 48/48")

    def test_cf_threeway(self, capsys):
        code, out, _ = run(capsys, "verify", "cf-threeway", "-a", "2", "-b", "2", "-c", "1", "--n-max", "30")
        assert (code, out.splitlines()[-1]) == (0, "PASS 31/31")

    def test_failure_exits_1_with_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "recurseq.accel.verify_nested_fibonacci_identity", lambda n, max_index=None: n != 7
        )
        code, out, _ = run(capsys, "verify", "nested-fib", "--n-max", "10")
        assert code == 1
        assert "FAIL nested-fib n=7" in out
        assert out.splitlines()[-1] == "FAIL 7/8"


def run_guarded(capsys, *argv):
    """run, then check that main left the int-to-str digit guard where the test set it."""
    result = run(capsys, *argv)
    assert sys.get_int_max_str_digits() == 4300, "main changed the int-to-str digit guard"
    return result


class TestUnderDefaultStrGuard:
    """main leaves the interpreter's 4300-digit guard alone and works under it."""

    def test_main_leaves_the_guard_unchanged(self, capsys, default_str_guard):
        assert run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "10")[:2] == (0, "55\n")

    def test_integer_argument_past_the_guard_exit_2(self, capsys, default_str_guard):
        assert run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "1" + "0" * 4300)[0] == 2
        assert run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "1" + "0" * 4299)[0] == 3

    def test_refused_huge_argument_is_not_echoed(self, capsys, default_str_guard):
        code, _, err = run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "1" + "0" * 4300)
        assert code == 2 and len(err.encode()) < 300
        assert err.splitlines()[-1] == "recurseq seq: error: argument -n: invalid int value of 4301 characters"

    def test_malformed_argument_messages(self, capsys, default_str_guard):
        code, _, err = run_guarded(capsys, "root", "-a", "1", "-b", "9" * 150 + "x", "-c", "1", "--method", "newton",
                                   "--digits", "5")
        assert code == 2 and "9" * 150 not in err
        assert err.splitlines()[-1] == "recurseq root: error: argument -b: invalid int value of 151 characters"
        code, _, err = run_guarded(capsys, "verify", "fkn", "--k-max", "abc")
        assert code == 2
        assert err.splitlines()[-1] == "recurseq verify: error: argument --k-max: invalid int value: 'abc'"
        code, _, err = run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "9" * 99 + "x")
        assert code == 2
        assert err.splitlines()[-1] == f"recurseq seq: error: argument -n: invalid int value: '{'9' * 99}x'"

    def test_malformed_env_cap_is_reported_by_length(self, capsys, monkeypatch, default_str_guard):
        monkeypatch.setenv("RECURSEQ_MAX_INDEX", "1" * 5000)
        code, _, err = run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "5")
        assert code == 2 and len(err.encode()) < 300
        assert err == "error: RECURSEQ_MAX_INDEX is not an integer: invalid int value of 5000 characters\n"
        monkeypatch.setenv("RECURSEQ_MAX_INDEX", "9" * 99 + "x")
        code, _, err = run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "5")
        assert (code, err) == (2, f"error: RECURSEQ_MAX_INDEX='{'9' * 99}x' is not an integer\n")

    def test_long_decimal_format_is_reported_by_length(self, capsys, default_str_guard):
        code, _, err = run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "5", "--format", "decimal:" + "1" * 5000)
        assert code == 2 and len(err.encode()) < 300
        assert err.splitlines()[-1] == "recurseq seq: error: argument --format: invalid int value of 5000 characters"
        code, _, err = run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "5", "--format", "decimal:1x")
        assert code == 2
        assert err.splitlines()[-1] == "recurseq seq: error: argument --format: invalid parse value: 'decimal:1x'"

    def test_long_method_is_reported_by_length(self, capsys, default_str_guard):
        code, _, err = run_guarded(capsys, "root", "-a", "1", "-b", "1", "-c", "1", "--digits", "5",
                                   "--method", "x" * 5000)
        assert code == 2 and len(err.encode()) < 400
        assert err.splitlines()[-1] == "recurseq root: error: argument --method: invalid choice of 5000 characters"
        code, _, err = run_guarded(capsys, "root", "-a", "1", "-b", "1", "-c", "1", "--digits", "5",
                                   "--method", "x" * 100)
        assert code == 2 and f"invalid choice: '{'x' * 100}' (choose from" in err

    def test_long_scheme_is_reported_by_length(self, capsys, default_str_guard):
        code, _, err = run_guarded(capsys, "accelerate", "-p", "1", "-q", "-1", "--scheme", "x" * 5000)
        assert code == 2 and len(err.encode()) < 500
        assert err.splitlines()[-1] == (
            "recurseq accelerate: error: argument --scheme: invalid choice of 5000 characters")
        code, _, err = run_guarded(capsys, "accelerate", "-p", "1", "-q", "-1", "--scheme", "bogus")
        assert code == 2 and "invalid choice: 'bogus' (choose from" in err

    def test_long_identity_is_reported_by_length(self, capsys, default_str_guard):
        code, _, err = run_guarded(capsys, "verify", "x" * 5000)
        assert code == 2 and len(err.encode()) < 400
        assert err.splitlines()[-1] == "recurseq verify: error: argument identity: invalid choice of 5000 characters"
        code, _, err = run_guarded(capsys, "verify", "bogus")
        assert code == 2 and "invalid choice: 'bogus' (choose from" in err

    def test_long_format_is_reported_by_length(self, capsys, default_str_guard):
        code, _, err = run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "5", "--format", "x" * 5000)
        assert code == 2 and len(err.encode()) < 300
        assert err.splitlines()[-1] == "recurseq seq: error: argument --format: invalid format of 5000 characters"
        code, _, err = run_guarded(capsys, "seq", "-p", "1", "-q", "-1", "-n", "5", "--format", "x" * 100)
        assert code == 2
        assert err.splitlines()[-1] == f"recurseq seq: error: argument --format: invalid parse value: '{'x' * 100}'"

    def test_long_partial_quotient_is_reported_by_length(self, capsys, default_str_guard):
        code, _, err = run_guarded(capsys, "cf", "1/1, " + "x" * 5000, "--count", "2")
        assert (code, err) == (2, "error: malformed partial quotient of 5000 characters\n")
        code, _, err = run_guarded(capsys, "cf", "1/1, " + "x" * 100, "--count", "2")
        assert (code, err) == (2, f"error: malformed partial quotient '{'x' * 100}'\n")

    def test_long_period_suffix_is_reported_by_length(self, capsys, default_str_guard):
        code, _, err = run_guarded(capsys, "cf", "1/1 | " + "x" * 5000, "--count", "2")
        assert (code, err) == (2, "error: malformed period suffix of 5000 characters\n")
        code, _, err = run_guarded(capsys, "cf", "1/1 | " + "x" * 100, "--count", "2")
        assert (code, err) == (2, f"error: malformed period suffix '{'x' * 100}'\n")

    def test_non_real_root_with_huge_coefficients_exit_5(self, capsys, default_str_guard):
        big = "1" + "0" * 2200
        code, _, err = run_guarded(capsys, "root", "-a", big, "-b", "1", "-c", "-" + big, "--method", "newton",
                                   "--digits", "5")
        assert code == 5 and "no real distinct roots" in err

    def test_cf_threeway_with_huge_b(self, capsys, default_str_guard):
        code, out, _ = run_guarded(capsys, "verify", "cf-threeway", "-a", "1", "-b", "1" + "0" * 100, "-c", "1",
                                   "--n-max", "50")
        assert (code, out) == (0, "PASS 51/51\n")

    def test_method_maps_failure_prints_full_values(self, capsys, monkeypatch, default_str_guard):
        wrong = Fraction(10**5000 + 1, 3)
        monkeypatch.setattr(roots, "newton_step", lambda f, y: wrong)
        code, out, _ = run_guarded(capsys, "verify", "method-maps", "--k-max", "2", "--d-max", "0")
        assert code == 1
        assert out.splitlines() == [
            f"FAIL method-maps newton k=2: step gave {format_rational(wrong)}, ratio x_3 = 2",
            "FAIL 1/2",
        ]

    def test_cf_threeway_failure_prints_full_values(self, capsys, monkeypatch, default_str_guard):
        wrong = Fraction(-(10**5000))
        monkeypatch.setattr(cf, "quad_cf_convergent", lambda qcf, n, max_index=None: wrong)
        code, out, _ = run_guarded(capsys, "verify", "cf-threeway", "-a", "1", "-b", "1", "-c", "1", "--n-max", "0")
        assert code == 1
        assert out.splitlines() == [
            f"FAIL cf-threeway n=0: direct 1, integer 1, sigma {format_rational(wrong)}",
            "FAIL 0/1",
        ]


class TestNegativeIterationFlags:
    def test_negative_max_iterations_exit_2(self, capsys):
        code, _, err = run(capsys, "root", "-a", "1", "-b", "1", "-c", "1", "--method", "newton", "--digits", "5",
                           "--max-iterations", "-1")
        assert code == 2 and "max_iterations" in err
        assert run(capsys, "root", "-a", "1", "-b", "1", "-c", "1", "--method", "newton", "--digits", "5",
                   "--max-iterations", "0")[0] == 4

    def test_negative_d_max_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "method-maps", "--d-max", "-1")
        assert (code, out) == (2, "") and "--d-max" in err
        assert run(capsys, "verify", "method-maps", "--k-max", "2", "--d-max", "0")[:2] == (0, "PASS 2/2\n")


class TestSubprocessEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "recurseq", "seq", "-p", "1", "-q", "-1", "-n", "10"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "55\n"

    def test_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "recurseq", "frobnicate"], capture_output=True, text=True
        )
        assert result.returncode == 2

    def test_big_term_prints_fully(self):
        result = subprocess.run(
            [sys.executable, "-m", "recurseq", "seq", "-p", "1", "-q", "-1", "-n", "100000"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert len(result.stdout.strip()) == 20899
