"""Differential run of the public API: a git revision's src/ against the working tree.

    python tests/differential.py --ref REV [--python PATH]

REV's src/ is extracted with git archive into a temporary directory.  One
deterministic grid of calls (grid below) then runs in two subprocesses, one
importing REV's package and one the working tree's.  Each writes one canonical
line per call: the value, or the exception's type and message.  The script
prints how many calls gave identical values and how many the same exception,
lists the first mismatches, and exits 1 if there is any.  --python runs REV's
side under another interpreter, so --ref HEAD on a clean tree compares one
tree across interpreters.

The grid covers every public function that computes a value:
- |p|, |q| <= 8 (q = 0, D = 0 and gcd(p, q) > 1 among them) for the
  sequences, ratios, step maps and accelerations;
- |a|, |b|, |c| <= 8 for the quadratics, steps and period-2 fractions;
- caps None, 1-5, 10, 20 and 40;
- the CLI, cli.main(argv) run in process over CLI_ARGVS: every subcommand,
  exits 0 and 2-5, a few caps.  Its line is the exit code, stdout and stderr.
  argparse's own usage errors are left out, since their text depends on the
  terminal width and the interpreter version.
Inputs are built from plain integers here, not by the code under test.
tests/test_differential.py runs a small slice of it in process; this file is
not collected by pytest.
"""

from __future__ import annotations

import argparse
import io
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAPS = (None, 1, 2, 3, 4, 5, 10, 20, 40)
SHOWN = 10  # mismatches printed


def _near(n):
    """None, and the caps within 2 of |n|: each side of every cap check an index meets."""
    return (None,) + tuple(c for c in CAPS[1:] if abs(c - abs(n)) <= 2)


def _ratios(p, q, k_max):
    """x_k = U_k/U_{k-1} for k = 2..k_max where U_{k-1} != 0, by plain iteration."""
    u = [0, 1]
    while len(u) <= k_max:
        u.append(p * u[-1] - q * u[-2])
    return [Fraction(u[k], u[k - 1]) for k in range(2, k_max + 1) if u[k - 1]]


FRACTIONS = sorted({Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)})
FEW = [Fraction(-5, 3), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(3)]
CHAINS = [(2, 3, 1, -1), (2, 4, 2, 0), (2, 3, 3, 0), (3, 5, 2, 1), (2, 3, 2, -1), (3, 2, -1, -1),
          (2, 2, 0, 1), (1, 3, 1, 0), (4, 3, -2, -3)]
TEXTS = ["3/4", "-6/8", "7", " 2 / -3 ", "1/0", "x", "", "0/5", "1.5", "10/-4"]
CF_TEXTS = ["1/1 | period=1", "1/2, 1/3", "5/1", "2, -3/2, 1/4 | period=2", "1/1, 1/-1", "3/2, 1/1, 2/5"]
# Each is split with shlex; the comment after a case is the exit it gives.
CLI_ARGVS = [
    "seq -p 1 -q -1 -n 10",
    "seq -p 3 -q 2 --a0 2 --a1 1 -n 5 --format records",
    "seq -p 1 -q -1 -n 30 --format decimal:3",
    "seq -p 1 -q -1 -n 11 --max-index 10",  # 3
    "seq -p 1 -q -1 -n -1",  # 2
    "seq -p 1 -q -1 -n 5 --format decimal:20000000",  # 3
    "ratio -p 1 -q -1 -n 10 --count 3",
    "ratio -p 4 -q 2 --a0 1 --a1 3 -n 6 --format decimal:8",
    "ratio -p 0 -q 1 -n 3",  # 4
    "ratio -p 1 -q -1 -n 5 --count 0",  # 2
    "accelerate -p 1 -q -1 --scheme double --count 4",
    "accelerate -p 1 -q -1 --scheme fib-index --count 5 --format records",
    "accelerate -p 3 -q -5 --scheme arith --h 2 --k 3 --count 3",
    "accelerate -p 1 -q -1 --scheme general --i 2 --j 3 --s 2 --t 0 --count 4",
    "accelerate -p 2 -q 3 --scheme shift --n 5 --m 3",
    "accelerate -p 1 -q 0 --scheme double",  # 4
    "accelerate -p 1 -q -1 --scheme general --i 2",  # 2
    "accelerate -p 1 -q -1 --scheme double --count 6 --max-index 20",  # 3
    "root -a 1 -b 1 -c 1 --method newton --digits 10",
    "root -a 1 -b 1 -c 1 --method secant --digits 8 --trace",
    "root -a 2 -b 3 -c 5 --method halley --digits 12 --format records",
    "root -a 1 -b 1 -c 1 --method householder --order 2 --digits 10 --trace --format records",
    "root -a 1 -b 1 -c 1 --method householder --order 0 --digits 5",  # 2
    "root -a 1 -b 0 -c -1 --method newton --digits 5",  # 5
    "root -a 1 -b 1 -c 1 --method newton --digits 20000000",  # 3
    "root -a 1 -b 1 -c 1 --method newton --digits 30 --max-iterations 1",  # 4
    "cf '1/1 | period=1' --count 6",
    "cf '2, -3/2, 1/4 | period=2' --count 5 --integer --format decimal:5",
    "cf '1/1, 1/-1 | period=2' --count 4",  # 4
    "cf x --count 2",  # 2
    "cf '1/1 | period=1' --count 30 --max-index 20",  # 3
    "verify nested-fib --n-max 10",
    "verify nested-fib --n-max 12 --max-index 40",  # 3
    "verify nested-fib --n-max 2",  # 2
    "verify fkn --k-max 3 --n-max 4",
    "verify fkn --k-max 3 --n-max 4 --max-index 11",  # 3
    "verify cubic-fib --n-max 30",
    "verify cubic-fib --n-max 30 --max-index 20",  # 3
    "verify method-maps -p 1 -q -1 --k-max 4 --d-max 2",
    "verify method-maps -p 0 -q 1 --k-max 3 --d-max 1",  # 4
    "verify cf-threeway -a 2 -b 2 -c 1 --n-max 8",
    "verify cf-threeway -a 1 -b 1 -c -1 --n-max 5",  # 4
]


def grid(r: int = 8, n_max: int = 40):
    """Yield (label, call) for every call of the grid: coefficients up to r in absolute
    value, indices up to n_max.  Each label is the function's name and its arguments."""
    import recurseq as R

    def call(name, fn, *args):
        return f"{name}({', '.join(map(canon, args))})", lambda: fn(*args)

    span = range(-r, r + 1)
    for n in range(-12, n_max + 1):
        for cap in _near(n):
            yield call("fibonacci", R.fibonacci, n, cap)
    for n in range(0, 10):
        for cap in CAPS:
            yield call("verify_nested_fibonacci_identity", R.verify_nested_fibonacci_identity, n, cap)
    for k in range(-1, 6):
        for n in range(0, 7):
            for cap in (None, 10, 20):
                yield call("verify_fkn_identity", R.verify_fkn_identity, k, n, cap)
    for n in range(0, n_max + 1):
        for cap in _near(n):
            yield call("verify_cubic_fibonacci_identity", R.verify_cubic_fibonacci_identity, n, cap)
    for k in range(-2, 11):
        yield call("newton_index", R.newton_index, k)
        yield call("halley_index", R.halley_index, k)
        for d in range(-1, 6):
            yield call("householder_index", R.householder_index, k, d)
    for count in range(-1, 13):
        yield call("secant_index_sequence", R.secant_index_sequence, count)
    for x in FRACTIONS + [10**30, -7]:
        yield call("format_rational", R.format_rational, x)
        for digits in (0, 1, 3, 6, 20):
            yield call("format_decimal", R.format_decimal, x, digits)
    for text in TEXTS:
        yield call("parse_rational", R.parse_rational, text)
    for text in CF_TEXTS:
        for count in range(0, 7):
            for name in ("convergents_direct", "convergents_integer"):
                yield call(name, lambda t, c, fn=getattr(R, name): fn(R.RationalCF.parse(t), c), text, count)

    for p in span:
        for q in span:
            params = R.RecurrenceParams(p, q)
            seq = R.LinRecSequence(2, 1, params)
            other = R.LinRecSequence(-3, 5, params)
            for n in range(-12, n_max + 1):
                for cap in _near(n):
                    yield call("basis_ut", R.basis_ut, params, n, cap)
                    yield call("companion_power", R.companion_power, params, n, cap)
                    if n >= -1:
                        yield call("term", R.term, seq, n, cap)
                        yield call("lucas_v", R.lucas_v, params, n, cap)
                    if n >= 0:
                        yield call("ratio_x", R.ratio_x, params, n, cap)
                        yield call("general_ratio_y", R.general_ratio_y, other, n, cap)
            for m in range(-1, 9):
                for cap in (None, 4):
                    yield call("decimated_params", R.decimated_params, params, m, cap)
            xs = _ratios(p, q, 5) + FEW
            for x in xs:
                yield call("double_ratio", R.double_ratio, params, x)
                for y in xs:
                    yield call("shift_ratio", R.shift_ratio, params, x, y)
                    yield call("fibonacci_index_accel", R.fibonacci_index_accel, params, x, y)
            for i, j, s, t in CHAINS:
                g = R.IndexSequenceParams(i, j, s, t)
                for cap in CAPS:
                    yield call("accelerate_general", R.accelerate_general, params, g, 6, cap)
            yield call("accelerate_general", R.accelerate_general, params, R.IndexSequenceParams(2, 3, 1, -1), 0)
            for h, k in ((2, 1), (3, 2), (2, -1), (1, 1), (5, -3), (2, 0)):
                for count in (0, 1, 5):
                    for cap in (None, 5, 10):
                        yield call("arithmetic_index_accel", R.arithmetic_index_accel, params, h, k, count, cap)
            pq = R.QuadraticPQ(p, q)
            for y in _ratios(p, q, 4) + FRACTIONS[::2]:
                yield call("halley_step", R.halley_step, pq, y)
                for d in range(0, 5):
                    yield call("householder_step", R.householder_step, pq, y, d)

    def on_qcf(fn):
        return lambda a, b, c, *rest: fn(R.PeriodicQuadCF(a, b, c), *rest)

    def on_expanded(fn):
        return lambda a, b, c, count: fn(R.PeriodicQuadCF(a, b, c).to_rational_cf(), count)

    methods = (("secant", None), ("newton", None), ("halley", None), ("householder", 1), ("householder", 3))
    for a in span:
        for b in span:
            for c in span:
                for n in range(-1, 7):
                    for cap in _near(n + 1):
                        yield call("quad_cf_convergent", on_qcf(R.quad_cf_convergent), a, b, c, n, cap)
                yield call("PeriodicQuadCF.sigma", on_qcf(R.PeriodicQuadCF.sigma), a, b, c, 5, 4)
                for method in ("secant", "newton", "halley"):
                    for cap in (None, 10, 40):
                        yield call("method_subsequence", on_qcf(R.method_subsequence), a, b, c, method, 6, cap)
                if a and b and c:
                    yield call("convergents_direct", on_expanded(R.convergents_direct), a, b, c, 8)
                    yield call("convergents_integer", on_expanded(R.convergents_integer), a, b, c, 8)
                if not a:
                    yield call("QuadraticABC", R.QuadraticABC, a, b, c)
                    continue
                f = R.QuadraticABC(a, b, c)
                ys = _ratios(b, -a * c, 4) + FEW
                for i, y in enumerate(ys):
                    yield call("newton_step", R.newton_step, f, y)
                    yield call("secant_step", R.secant_step, f, y, ys[i - 1])
                for method, order in methods:
                    for digits in (4, 25):
                        yield call("approximate_root_with_trace", R.approximate_root_with_trace, f, method, digits, order)
                yield call("approximate_root", R.approximate_root, f, "newton", 12, None, 3)
    yield call("approximate_root", R.approximate_root, R.QuadraticABC(1, 1, 1), "householder", 5, None)
    yield call("method_subsequence", on_qcf(R.method_subsequence), 1, 1, 1, "bisection", 2)
    for argv in CLI_ARGVS:
        yield call("cli", _cli, *shlex.split(argv))


def _cli(*argv):
    """(exit code, stdout, stderr) of recurseq.cli.main(argv), run in process."""
    from recurseq.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def canon(value) -> str:
    """One line for a value: Fractions as n/d, containers and value types by their fields."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        fields = value._fields
    elif isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(canon, value)) + "]"
    else:
        fields = getattr(value, "__dataclass_fields__", None) or type(value).__slots__
    return f"{type(value).__name__}(" + ", ".join(f"{f}={canon(getattr(value, f))}" for f in fields) + ")"


def lines(r: int = 8, n_max: int = 40):
    """The grid's canonical lines: label, a tab, then '= value' or '! Type: message'."""
    for label, fn in grid(r, n_max):
        try:
            yield f"{label}\t= {canon(fn())}"
        except Exception as exc:  # every exception is part of the behaviour compared
            message = str(exc).replace("\n", "\\n")
            yield f"{label}\t! {type(exc).__name__}: {message}"


def compare(ref, new):
    """(calls, identical values, same exceptions, mismatched (ref, new) line pairs);
    a side that ran out of lines reads as '<missing>'."""
    calls = values = errors = 0
    mismatches = []
    ref, new = iter(ref), iter(new)
    while True:
        a, b = next(ref, None), next(new, None)
        if a is None and b is None:
            return calls, values, errors, mismatches
        calls += 1
        if a != b:
            mismatches.append((a or "<missing>", b or "<missing>"))
        elif a.partition("\t")[2].startswith("="):
            values += 1
        else:
            errors += 1


def _emit(src: str) -> None:
    sys.path.insert(0, src)
    import recurseq

    if not os.path.abspath(recurseq.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"imported recurseq from {recurseq.__file__}, not from {src}")
    out = sys.stdout
    for line in lines():
        out.write(line + "\n")


def _extract(rev: str, into: str) -> str:
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"], stdout=subprocess.PIPE)
    if archive.returncode:  # git has said why
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return os.path.join(into, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", help="git revision whose src/ is compared with the working tree")
    parser.add_argument("--python", default=sys.executable, help="interpreter for REV's side (default: this one)")
    parser.add_argument("--emit", metavar="SRC", help=argparse.SUPPRESS)  # one side: print the grid's lines
    args = parser.parse_args(argv)
    if args.emit:
        _emit(args.emit)
        return 0
    if not args.ref:
        parser.error("--ref is required")
    with tempfile.TemporaryDirectory(prefix="recurseq-differential-") as tmp:
        sides = [(args.ref, args.python, _extract(args.ref, tmp)), ("working tree", sys.executable, os.path.join(ROOT, "src"))]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="")
        outputs = [os.path.join(tmp, f"side{i}.txt") for i in range(len(sides))]
        procs = []
        for (_, python, src), path in zip(sides, outputs):
            with open(path, "w") as out:  # the child writes through its own copy of the descriptor
                procs.append(subprocess.Popen([python, os.path.abspath(__file__), "--emit", src],
                                              stdout=out, stderr=subprocess.PIPE, env=env, text=True))
        failed = [(name, python, proc.returncode, err)
                  for (name, python, _), proc in zip(sides, procs) for err in [proc.communicate()[1]] if proc.returncode]
        for name, python, code, err in failed:
            print(f"{name} ({python}) failed with exit {code}:\n{err}", file=sys.stderr)
        if failed:
            return 2
        with open(outputs[0]) as ref, open(outputs[1]) as new:
            calls, values, errors, mismatches = compare((line.rstrip("\n") for line in ref),
                                                        (line.rstrip("\n") for line in new))
    print(f"{calls} calls: {values} identical values, {errors} the same exception, {len(mismatches)} mismatches")
    for a, b in islice(mismatches, SHOWN):
        print(f"  {args.ref}: {a}\n  working tree: {b}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
