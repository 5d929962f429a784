"""One-shot re-timing of the ROADMAP baseline table, printed beside its figures.

    python3 bench/baseline.py

Each row is timed once with time.perf_counter, as the table was.  Rows that
take minutes (arith count 300, general W(2,1002,2,1) count 300, the gcd at
n = 2^23, method_subsequence newton 24 / halley 15) and the pair-doubling
prototype, which is not in the library, are listed as skipped.  This listing
is not a workload and has no bound; it takes about a minute.
"""

from __future__ import annotations

import math
import sys
import time

from run import cli_import_seconds, invoke_subprocess, stamp  # puts the checkout's src/ on sys.path
from recurseq import (
    IndexSequenceParams,
    LinRecSequence,
    QuadraticABC,
    RecurrenceParams,
    accelerate_general,
    approximate_root,
    companion_power,
    double_ratio,
    ratio_x,
    term,
)

FIB = RecurrenceParams(1, -1)
F = LinRecSequence(0, 1, FIB)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def doubling_chain():
    x = ratio_x(FIB, 2)
    for _ in range(20):
        x = double_ratio(FIB, x)


def direct_doubling_indices():
    for k in range(1, 22):
        ratio_x(FIB, 2**k)


def main() -> int:
    sys.set_int_max_str_digits(0)  # the library's renderers need it past 4300 digits
    print(f"# stamp: {stamp()}")
    m = companion_power(FIB, 10**6)
    u_n, u_next = m.e12, m.e22  # F_{10^6}, F_{10^6 + 1}
    golden = QuadraticABC(1, 1, 1)
    rows = [
        ("term F_{10^5}", "8 ms", lambda: term(F, 10**5)),
        ("term F_{10^6}", "420 ms", lambda: term(F, 10**6)),
        ("term F_{10^7}", "15.8 s", lambda: term(F, 10**7)),
        ("pair doubling n = 10^6 / 2^23 (scratch prototype)", "130 ms / 3.3 s", None),
        ("math.gcd(U_n, U_{n+1}), n = 10^6", "1.0 s", lambda: math.gcd(u_n, u_next)),
        ("math.gcd(U_n, U_{n+1}), n = 2^23", "55 s", None),
        ("ratio_x F, n = 10^6", "1.0 s", lambda: ratio_x(FIB, 10**6)),
        ("str(F_{10^6})", "813 ms", lambda: str(u_n)),
        ("doubling chain to 2^21: double_ratio recurrence", "13.1 s", doubling_chain),
        ("doubling chain to 2^21: direct ratio_x per index", "5.9 s", direct_doubling_indices),
        ("accelerate_general W(2,4,2,0), count 21", "19.0 s",
         lambda: accelerate_general(FIB, IndexSequenceParams(2, 4, 2, 0), 21)),
        ("arithmetic_index_accel h=2, k=1000, count 300", "400 s", None),
        ("accelerate_general W(2,1002,2,1), count 300", "206 s", None),
        ("approximate_root golden 50k digits: newton", "0.33 s",
         lambda: approximate_root(golden, "newton", 50_000)),
        ("approximate_root golden 50k digits: secant", "0.30 s",
         lambda: approximate_root(golden, "secant", 50_000)),
        ("approximate_root golden 50k digits: halley", "1.39 s",
         lambda: approximate_root(golden, "halley", 50_000)),
        ("method_subsequence golden: newton count 24 / halley count 15", "100 s / 33 s", None),
        ("CLI seq -n 10 end to end", "about 0.25 s",
         lambda: invoke_subprocess(["seq", "-p", "1", "-q", "-1", "-n", "10"])),
    ]
    width = max(len(label) for label, _, _ in rows)
    print(f"{'path':{width}}  {'ROADMAP':>15}  {'now':>10}")
    for label, roadmap, fn in rows:
        now = "skipped" if fn is None else f"{timed(fn):.3f} s"
        print(f"{label:{width}}  {roadmap:>15}  {now:>10}", flush=True)
    print(f"{'import of recurseq.cli (fresh interpreter minus bare start)':{width}}  {'about 65 ms':>15}  "
          f"{cli_import_seconds():.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
