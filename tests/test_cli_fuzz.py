"""The CLI's exit-code contract under fuzzed argv: every invocation of every
subcommand returns 0-5 and never prints a traceback.

Each subcommand gets well-formed argv (optional flags left out a third of the
time); a mangled variant overwrites one token with a bad value, and a garbage
variant strings tokens together at random.  Inputs stay small (indices <= 500,
counts <= 10, digits <= 40, --order <= 6) so that the run is about the
contract, not about cost: `root --order` and the general scheme's step
coefficients have no cost bound yet, and `accelerate` always runs under an
explicit --max-index.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from recurseq.cli import main


def flag(name, values):
    """[] or ["name=value"]: an option that is left out a third of the time."""
    given_ = values.map(lambda v: [f"{name}={v}"])
    return st.one_of(st.just([]), given_, given_)


def required(name, values):
    return values.map(lambda v: [f"{name}={v}"])


def switch(name):
    return st.sampled_from([[], [name]])


def command(name, *parts):
    return st.tuples(*parts).map(lambda lists: [name] + [token for part in lists for token in part])


coef = st.integers(-9, 9)
index = st.integers(2, 500)
count = st.integers(1, 10)
fmt = flag("--format", st.sampled_from(["rational", "records", "decimal:6", "decimal:40"]))
cap = flag("--max-index", st.integers(1, 500))

COMMANDS = {
    "seq": command("seq", required("-p", coef), required("-q", coef), flag("--a0", coef), flag("--a1", coef),
                   required("-n", st.integers(0, 500)), fmt, cap),
    "ratio": command("ratio", required("-p", coef), required("-q", coef), flag("--a0", coef),
                     flag("--a1", coef), required("-n", index), flag("--count", count), fmt, cap),
    "accelerate": command(
        "accelerate", required("-p", coef), required("-q", coef),
        required("--scheme", st.sampled_from(["double", "fib-index", "arith", "general", "shift"])),
        flag("--count", count), flag("--start", index), flag("--h", index), flag("--k", st.integers(-3, 500)),
        flag("--i", index), flag("--j", index), flag("--s", st.integers(-3, 3)), flag("--t", st.integers(-3, 3)),
        flag("--n", index), flag("--m", st.integers(1, 500)), fmt,
        required("--max-index", st.integers(1, 500)),
    ),
    "root": command(
        "root", required("-a", coef), required("-b", coef), required("-c", coef),
        required("--method", st.sampled_from(["secant", "newton", "halley", "householder"])),
        required("--digits", st.integers(1, 40)), flag("--order", st.integers(1, 6)),
        flag("--max-iterations", st.integers(1, 64)), switch("--trace"), fmt, cap,
    ),
    "cf": command(
        "cf",
        st.tuples(st.lists(st.sampled_from(["1", "2/3", "-5/2", "7", "4/9", "-1", "3/-2"]), min_size=1, max_size=4),
                  st.sampled_from(["", " | period=1", " | period=2"])).map(lambda t: [", ".join(t[0]) + t[1]]),
        required("--count", count), switch("--integer"), fmt, cap,
    ),
    "verify": command(
        "verify", st.sampled_from(["nested-fib", "fkn", "cubic-fib", "method-maps", "cf-threeway"]).map(
            lambda v: [v]),
        flag("--n-max", st.integers(0, 25)), flag("--k-max", st.integers(1, 8)), flag("--d-max", st.integers(1, 5)),
        flag("-p", coef), flag("-q", coef), flag("-a", coef), flag("-b", coef), flag("-c", coef), fmt, cap,
    ),
}
well_formed = st.one_of(*COMMANDS.values())

BAD = ["-1", "0", "1/0", "x", "", "decimal:0", "--bogus", "--max-index=0", "--count=-1", "--digits=0",
       "--scheme=triple", "--format=text", "-n=-3", "0, 1 | period=5", "--n-max=-1", "--", "-h"]


@st.composite
def mangled(draw):
    argv = draw(well_formed)
    argv[draw(st.integers(0, len(argv) - 1))] = draw(st.sampled_from(BAD))
    return argv


garbage = st.lists(st.sampled_from(list(COMMANDS) + ["-p", "1", "-q=-1", "-n", "--count", "x", "--bogus", "--",
                                                     "-h", "--scheme=shift"]), max_size=6)


@settings(max_examples=300)
@given(argv=st.one_of(well_formed, mangled(), garbage))
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in range(6), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
