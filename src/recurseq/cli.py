"""Command-line interface: sequence terms, ratio accelerations, root approximation,
identity verification, and continued-fraction convergents, all in exact arithmetic.

Exit codes: 0 ok, 1 verification failure, 2 usage, 3 resource cap,
4 degenerate computation, 5 non-real roots.
"""

from __future__ import annotations

import argparse
import os
import sys

# Every subcommand needs these three; accel, roots, cf and json are imported by
# the handlers that use them, so a call loads only the modules it runs.
from . import core
from .core import LinRecSequence, RecurrenceParams, _Value
from .errors import (
    DegenerateConvergent,
    DegenerateRatio,
    DegenerateStep,
    IndexCapExceeded,
    InverseUnavailable,
    NonRealRoots,
    NoProgress,
)
from .formatting import _MAX_ECHO, format_decimal, format_rational

ENV_MAX_INDEX = "RECURSEQ_MAX_INDEX"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DEGENERATE = 4
EXIT_NONREAL = 5


class OutputFormat(_Value):
    """Rendering mode: reduced fractions, fixed-digit decimals, or JSON records."""

    __slots__ = ("mode", "digits")

    def __init__(self, mode: str = "rational", digits: int | None = None):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "digits", digits)

    @classmethod
    def parse(cls, text: str) -> "OutputFormat":
        if text == "rational":
            return cls("rational")
        if text == "records":
            return cls("records")
        if text.startswith("decimal:"):
            digits = _int_argument(text.split(":", 1)[1])
            if digits < 1:
                raise ValueError("decimal digits must be >= 1")
            return cls("decimal", digits)
        _refuse_long(text, "format")
        raise ValueError(f"unknown format {text!r}; expected rational, decimal:N, or records")

    def render(self, value) -> str:
        if self.mode == "decimal":
            return format_decimal(value, self.digits)
        return format_rational(value)


def _print_record(record: dict) -> None:
    import json
    print(json.dumps(record))


def _emit_pair(fmt: OutputFormat, index: int, value, method: str, bare: bool = False) -> None:
    """One result: a JSON record, or the text line "index value" ("value" when bare)."""
    if fmt.mode == "records":
        _print_record({"index": index, "value": format_rational(value), "method": method})
    else:
        print(fmt.render(value) if bare else f"{index} {fmt.render(value)}")


def _resolve_max_index(args) -> int | None:
    limit = getattr(args, "max_index", None)
    if limit is None:
        env = os.environ.get(ENV_MAX_INDEX)
        if not env:
            return None
        try:
            limit = _int_argument(env)
        except ValueError:
            raise ValueError(f"{ENV_MAX_INDEX}={env!r} is not an integer") from None
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{ENV_MAX_INDEX} is not an integer: {exc}") from None
    if limit < 1:
        raise ValueError(f"index cap must be >= 1, got {limit}")
    return limit


def cmd_seq(args, max_index) -> int:
    seq = LinRecSequence(args.a0, args.a1, RecurrenceParams(args.p, args.q))
    value = core.term(seq, args.n, max_index)
    _emit_pair(args.format, args.n, value, "seq", bare=True)
    return EXIT_OK


def cmd_ratio(args, max_index) -> int:
    from . import accel
    seq = LinRecSequence(args.a0, args.a1, RecurrenceParams(args.p, args.q))
    _require(args.count >= 1, "--count must be >= 1")
    for n in range(args.n, args.n + args.count):
        _emit_pair(args.format, n, accel.general_ratio_y(seq, n, max_index), "ratio", bare=args.count == 1)
    return EXIT_OK


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def cmd_accelerate(args, max_index) -> int:
    from . import accel
    params = RecurrenceParams(args.p, args.q)
    scheme = args.scheme
    _require(args.count >= 1, "--count must be >= 1")

    if scheme == "shift":
        _require(args.n is not None and args.m is not None, "shift scheme needs --n and --m")
        _require(args.m >= 1, "shift offset --m must be >= 1 (x_{m+1} needs m+1 >= 2)")
        x_n = accel.ratio_x(params, args.n, max_index)
        x_m1 = accel.ratio_x(params, args.m + 1, max_index)
        try:
            shifted = accel.shift_ratio(params, x_n, x_m1)
        except DegenerateRatio as exc:
            raise DegenerateRatio(f"{exc} (producing index {args.n + args.m})") from None
        _emit_pair(args.format, args.n + args.m, shifted, scheme)
        return EXIT_OK

    if scheme == "arith":
        _require(args.h is not None and args.k is not None, "arith scheme needs --h and --k")
        entries = accel.arithmetic_index_accel(params, args.h, args.k, args.count, max_index)
    else:
        if scheme == "double":
            g = accel.IndexSequenceParams(args.start, 2 * args.start, 2, 0)
        elif scheme == "fib-index":
            g = accel.IndexSequenceParams(2, 3, 1, -1)
        else:  # general
            missing = [flag for flag in ("i", "j", "s", "t") if getattr(args, flag) is None]
            _require(not missing, f"general scheme needs --{', --'.join(missing)}")
            g = accel.IndexSequenceParams(args.i, args.j, args.s, args.t)
        entries = accel.accelerate_general(params, g, args.count, max_index)
    for entry in entries:
        _emit_pair(args.format, entry.index, entry.x, scheme)
    return EXIT_OK


def cmd_root(args, max_index) -> int:
    from . import roots
    f = roots.QuadraticABC(args.a, args.b, args.c)
    decimal, iterates = roots.approximate_root_with_trace(
        f, args.method, args.digits, order=args.order, max_iterations=args.max_iterations
    )
    if args.trace:
        labels = roots._convergent_indices(f, args.method, args.order, iterates)
        key, word = ("index", "idx") if labels else ("step", "step")
        for n, y in zip(labels or range(len(iterates)), iterates):
            if args.format.mode == "records":
                _print_record({key: n, "value": format_rational(y), "method": args.method})
            else:
                print(f"{word} {n} → {format_rational(y)}")
    if args.format.mode == "records":
        _print_record({"method": args.method, "digits": args.digits, "value": decimal})
    else:
        print(decimal)
    return EXIT_OK


def cmd_cf(args, max_index) -> int:
    from . import cf
    cfobj = cf.RationalCF.parse(args.cf)
    make = cf.convergents_integer if args.integer else cf.convergents_direct
    method = "cf-integer" if args.integer else "cf-direct"
    for record in make(cfobj, args.count):
        _emit_pair(args.format, record.index, record.value, method)
    return EXIT_OK


def _verify_nested_fib(args, max_index):
    from . import accel
    _require(args.n_max >= 3, "--n-max must be >= 3")
    for n in range(3, args.n_max + 1):
        ok = accel.verify_nested_fibonacci_identity(n, max_index)
        yield f"nested-fib n={n}", ok, "identity sides differ"


def _verify_fkn(args, max_index):
    from . import accel
    _require(args.k_max >= 1 and args.n_max >= 2, "--k-max must be >= 1 and --n-max >= 2")
    for k in range(1, args.k_max + 1):
        for n in range(2, args.n_max + 1):
            ok = accel.verify_fkn_identity(k, n, max_index)
            yield f"fkn k={k} n={n}", ok, "identity sides differ"


def _verify_cubic(args, max_index):
    from . import accel
    _require(args.n_max >= 3, "--n-max must be >= 3")
    for n in range(3, args.n_max + 1):
        ok = accel.verify_cubic_fibonacci_identity(n, max_index)
        yield f"cubic-fib n={n}", ok, "identity sides differ"


def _verify_method_maps(args, max_index):
    from . import accel, roots
    _require(args.k_max >= 2 and args.d_max >= 0, "--k-max must be >= 2 and --d-max >= 0")
    params = RecurrenceParams(args.p, args.q)
    abc = roots.QuadraticABC(1, args.p, -args.q)
    pq = roots.QuadraticPQ(args.p, args.q)
    for k in range(2, args.k_max + 1):
        x_k = accel.ratio_x(params, k, max_index)
        checks = [("newton", roots.newton_step(abc, x_k), roots.newton_index(k)),
                  ("halley", roots.halley_step(pq, x_k), roots.halley_index(k))]
        checks += [
            (f"householder(d={d})", roots.householder_step(pq, x_k, d), roots.householder_index(k, d))
            for d in range(1, args.d_max + 1)
        ]
        for name, stepped, target in checks:
            expected = accel.ratio_x(params, target, max_index)
            ok = stepped == expected
            yield f"method-maps {name} k={k}", ok, None if ok else (
                f"step gave {format_rational(stepped)}, ratio x_{target} = {format_rational(expected)}"
            )


def _verify_cf_threeway(args, max_index):
    from . import cf
    _require(args.n_max >= 0, "--n-max must be >= 0")
    qcf = cf.PeriodicQuadCF(args.a, args.b, args.c)
    expanded = qcf.to_rational_cf()
    direct = cf.convergents_direct(expanded, args.n_max + 1)
    integer = cf.convergents_integer(expanded, args.n_max + 1)
    for n in range(args.n_max + 1):
        sigma_value = cf.quad_cf_convergent(qcf, n, max_index)
        ok = direct[n].value == integer[n].value == sigma_value
        yield f"cf-threeway n={n}", ok, None if ok else (
            f"direct {format_rational(direct[n].value)}, integer {format_rational(integer[n].value)}, "
            f"sigma {format_rational(sigma_value)}"
        )


# Each verifier yields (label, ok, detail).  A detail that shows values is built only for
# a failed check, through format_rational: str() refuses ints past the interpreter's digit guard.
_VERIFIERS = {
    "nested-fib": _verify_nested_fib,
    "fkn": _verify_fkn,
    "cubic-fib": _verify_cubic,
    "method-maps": _verify_method_maps,
    "cf-threeway": _verify_cf_threeway,
}


def cmd_verify(args, max_index) -> int:
    total = passed = 0
    for label, ok, detail in _VERIFIERS[args.identity](args, max_index):
        total += 1
        if ok:
            passed += 1
        else:
            print(f"FAIL {label}: {detail}")
    status = "PASS" if passed == total else "FAIL"
    print(f"{status} {passed}/{total}")
    return EXIT_OK if passed == total else EXIT_VERIFY_FAIL


def _refuse_long(text: str, what: str) -> None:
    """Refuse a value past _MAX_ECHO characters by its length alone, so argparse does not echo it."""
    if len(text) > _MAX_ECHO:
        raise argparse.ArgumentTypeError(f"invalid {what} of {len(text)} characters")


def _int_argument(text: str) -> int:
    """int(text), refusing a malformed value past _MAX_ECHO characters by its length alone."""
    try:
        return int(text)
    except ValueError:
        _refuse_long(text, "int value")
        raise  # argparse reports "invalid int value: 'text'"


def _choice_argument(text: str) -> str:
    """text, which argparse then checks against the choices, refused by length past _MAX_ECHO."""
    _refuse_long(text, "choice")
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.register("type", int, _int_argument)
    parser.add_argument(
        "--format",
        type=OutputFormat.parse,
        default=OutputFormat(),
        help="output mode: rational (default), decimal:N, or records",
    )
    parser.add_argument(
        "--max-index",
        type=int,
        default=None,
        help=f"refuse sequence indices beyond this bound "
        f"(default {core.DEFAULT_INDEX_CAP}, env {ENV_MAX_INDEX})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurseq",
        description="Exact arithmetic for order-2 recurrent sequences: "
        "ratio accelerations, root-finding index maps, and period-2 continued fractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="evaluate one term of a sequence")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--a0", type=int, default=0)
    p.add_argument("--a1", type=int, default=1)
    p.add_argument("-n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_seq)

    p = sub.add_parser("ratio", help="consecutive-term ratios x_n or a_n/a_{n-1}")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--a0", type=int, default=0)
    p.add_argument("--a1", type=int, default=1)
    p.add_argument("--count", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=cmd_ratio)

    p = sub.add_parser("accelerate", help="closed-form subsequences of the ratio sequence")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument(
        "--scheme",
        required=True,
        type=_choice_argument,
        choices=["double", "fib-index", "arith", "general", "shift"],
    )
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--start", type=int, default=2, help="first index for --scheme double")
    p.add_argument("--h", type=int, default=None, help="arith: offset of g_n = k*n + h")
    p.add_argument("--k", type=int, default=None, help="arith: step of g_n = k*n + h")
    p.add_argument("--i", type=int, default=None, help="general: g_0")
    p.add_argument("--j", type=int, default=None, help="general: g_1")
    p.add_argument("--s", type=int, default=None, help="general: g_n = s*g_{n-1} - t*g_{n-2}")
    p.add_argument("--t", type=int, default=None, help="general: see --s")
    p.add_argument("--n", type=int, default=None, help="shift: base index")
    p.add_argument("--m", type=int, default=None, help="shift: offset")
    _add_common(p)
    p.set_defaults(handler=cmd_accelerate)

    p = sub.add_parser("root", help="approximate the larger real root of a*t^2 - b*t - c")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.add_argument(
        "--method", required=True, type=_choice_argument, choices=["secant", "newton", "halley", "householder"]
    )
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--order", type=int, default=3, help="derivative order for householder")
    p.add_argument("--max-iterations", type=int, default=64)
    p.add_argument("--trace", action="store_true", help="print convergent indices and exact iterates")
    _add_common(p)
    p.set_defaults(handler=cmd_root)

    p = sub.add_parser("cf", help="convergents of a continued fraction with rational quotients")
    p.add_argument("cf", help="text form: 'a0/b0, a1/b1, ... | period=k'")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--integer", action="store_true", help="use the integer s/t/u recursion")
    _add_common(p)
    p.set_defaults(handler=cmd_cf)

    p = sub.add_parser("verify", help="batch-check identities and method equivalences")
    p.add_argument("identity", type=_choice_argument, choices=sorted(_VERIFIERS))
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--d-max", type=int, default=5)
    p.add_argument("-p", type=int, default=1)
    p.add_argument("-q", type=int, default=-1)
    p.add_argument("-a", type=int, default=1)
    p.add_argument("-b", type=int, default=1)
    p.add_argument("-c", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if (args.format.digits or 0) > core.DEFAULT_INDEX_CAP:  # a fixed bound, not --max-index
            raise IndexCapExceeded(f"decimal digits must be <= {core.DEFAULT_INDEX_CAP}")
        max_index = _resolve_max_index(args)
        return args.handler(args, max_index)
    except IndexCapExceeded as exc:
        return _fail(EXIT_RESOURCE, exc)
    except (DegenerateRatio, DegenerateStep, DegenerateConvergent, InverseUnavailable, NoProgress) as exc:
        return _fail(EXIT_DEGENERATE, exc)
    except NonRealRoots as exc:
        return _fail(EXIT_NONREAL, exc)
    except ValueError as exc:
        return _fail(EXIT_USAGE, exc)


def _fail(code: int, exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main_entry() -> None:
    sys.exit(main())
