"""recurseq benchmark: one workload, one seed, one closed loop with a single caller.

    python3 bench/run.py --workload big-terms --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from ``src/``
(nothing is installed).  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs the stream untraced for half the time, then
the same requests traced, and reports the per-layer metrics.  Every output is
checked outside the timed region.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
status is 0 only when every call was correct.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_BATCHES, SETUP_REPEATS = 5, 5  # set-up is sampled at the start, 1/5, 2/5, ... of the run
IMPORT_REPEATS = 7
WALL_LIMIT_S = 130  # the loop stops here even if checks made it slow: a run must end within 180 s
MIN_ABOVE_P90 = 10  # fewer samples above p90 make the percentile too thin to report
MIN_CALLS = 10 * MIN_ABOVE_P90  # an untraced run goes past --seconds until it has this many

_WARMUP = {
    "big-terms": "recurseq.format_decimal(recurseq.ratio_x(recurseq.RecurrenceParams(1, -1), 50), 10)",
    "ratio-chains": "recurseq.accelerate_general(recurseq.RecurrenceParams(1, -1), "
                    "recurseq.IndexSequenceParams(2, 3, 1, -1), 6)",
    "root-digits": "recurseq.approximate_root(recurseq.QuadraticABC(1, 1, 1), 'newton', 20)",
    "cli-mix": "import recurseq.cli, io, contextlib\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    recurseq.cli.main(['seq', '-p', '1', '-q', '-1', '-n', '10'])",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_library():
    """Import recurseq from this checkout's src/, refusing any other copy."""
    if not (SRC / "recurseq" / "__init__.py").is_file():
        raise SystemExit(f"error: no recurseq sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import recurseq
    if Path(recurseq.__file__).resolve().parent != (SRC / "recurseq").resolve():
        raise SystemExit(f"error: imported recurseq from {recurseq.__file__}, not from {SRC}")
    return recurseq


import_library()
import tracing  # noqa: E402  (both import recurseq)
import workloads  # noqa: E402


# -- set-up and start-up timings -------------------------------------------------

def _run_child(code: str) -> float:
    """Wall time of a fresh interpreter running `code` (raises if it fails)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - start


def setup_seconds(workload: str) -> list[float]:
    """Import recurseq and finish one warm-up call, SETUP_REPEATS times, each in
    a fresh interpreter, timed inside the child from just before the import."""
    code = ("import time\nt0 = time.perf_counter()\nimport recurseq\n" + _WARMUP[workload]
            + "\nimport sys\nsys.stderr.write(repr(time.perf_counter() - t0))")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        samples.append(float(done.stderr.strip().splitlines()[-1]))
    return samples


def cli_import_seconds() -> float:
    """Median wall time of `import recurseq.cli` in a fresh interpreter minus that
    of a bare interpreter start, sampled alternately."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(_run_child("pass"))
        full.append(_run_child("import recurseq.cli"))
    return statistics.median(full) - statistics.median(bare)


def invoke_subprocess(argv):
    done = subprocess.run([sys.executable, "-m", "recurseq", *argv], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


# -- the closed loop -------------------------------------------------------------

def _key_coprime(key):
    """gcd(p, q) = 1 for the recurrence the request runs on; None when it has none."""
    if len(key) == 2 and all(isinstance(k, int) for k in key):
        return math.gcd(*key) == 1
    if len(key) == 3 and all(isinstance(k, int) for k in key):
        a, b, c = key  # sigma = W(0, 1, b, -a*c)
        return math.gcd(b, a * c) == 1
    return None


class Phase:
    """Latencies, failures and input properties of one pass over a call stream."""

    def __init__(self):
        self.latencies = []
        self.busy = 0.0  # seconds spent inside requests
        self.failed = 0
        self.failures = []
        self.fn_calls = Counter()
        self.coprime = Counter()
        self.repeats = 0
        self._keys = set()
        self.max_index = 0
        self.max_bits = 0
        self.max_text = 0
        self.exit_nonzero = 0
        self.cut = False  # the wall-clock deadline ended the loop early

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, call, output, seconds):
        self.latencies.append(seconds)
        self.busy += seconds
        ok = not isinstance(output, Exception)
        if ok:
            try:
                ok = bool(call.check(output))
            except Exception as exc:  # a malformed output must count as a failure, not stop the run
                output, ok = exc, False
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{call.fn} {call.key} index {call.index}: {output!r:.200}")
        if isinstance(output, tuple) and len(output) == 2 and isinstance(output[0], int) \
                and isinstance(output[1], str) and output[0] != 0:
            self.exit_nonzero += 1
        self.fn_calls[call.fn] += 1
        coprime = _key_coprime(call.key)
        if coprime is not None:
            self.coprime[coprime] += 1
        self.repeats += call.key in self._keys
        self._keys.add(call.key)
        self.max_index = max(self.max_index, call.index)
        if ok:
            bits, text = tracing.size_of(output)
            self.max_bits, self.max_text = max(self.max_bits, bits), max(self.max_text, text)

    def properties(self) -> dict:
        with_pq = sum(self.coprime.values())
        return {
            "calls_per_function": dict(sorted(self.fn_calls.items())),
            "share_gcd_pq_1": round(self.coprime[True] / with_pq, 4) if with_pq else None,
            "share_repeated_input": round(self.repeats / self.attempted, 4) if self.attempted else None,
            "largest_index": self.max_index,
            "largest_output_bits": self.max_bits,
            "largest_output_digits": max(self.max_text, math.ceil(self.max_bits * math.log10(2))),
        }


def run_phase(stream, lib, seconds, deadline, tracer=None, phase=None, min_calls=0) -> Phase:
    """Closed loop with one caller: next request only after the previous returns.

    Only ``call.run`` is timed; generating inputs and checking outputs are not,
    and do not count toward ``seconds``.  Stops when the stream ends, when
    ``phase`` holds ``seconds`` of calls and at least ``min_calls`` calls, or
    at the wall-clock ``deadline``.
    """
    phase = phase or Phase()
    for call in stream:
        if tracer is not None:
            tracer.request += 1
            tracer.recording = True
        start = time.perf_counter()
        try:
            output = call.run(lib)
        except Exception as exc:
            output = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        phase.record(call, output, elapsed)
        if phase.busy >= seconds and phase.attempted >= min_calls:
            break
        if time.monotonic() >= deadline:
            phase.cut = True
            break
    return phase


# -- reporting --------------------------------------------------------------------

def stamp() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "commit": commit, "nproc": os.cpu_count(), "cpu": cpu}


def latency_metrics(phase: Phase) -> tuple[dict, bool]:
    """p50 and p90, and whether at least MIN_ABOVE_P90 samples lie above p90."""
    cuts = statistics.quantiles(phase.latencies, n=100, method="inclusive")
    p50, p90 = cuts[49], cuts[89]
    above = sum(lat > p90 for lat in phase.latencies)
    print(f"# latency over {phase.attempted} calls: p50 {p50 * 1e3:.3f} ms, "
          f"p90 {p90 * 1e3:.3f} ms with {above} samples above it")
    if above < MIN_ABOVE_P90:
        print(f"# INVALID: only {above} samples above p90 (at least {MIN_ABOVE_P90} needed)")
    return {"latency_p50_ms": (p50 * 1e3, "ms"), "latency_p90_ms": (p90 * 1e3, "ms")}, above >= MIN_ABOVE_P90


def complete(phase_list) -> bool:
    """False, with a note, when the wall-clock deadline cut a phase short."""
    cut = [p for p in phase_list if p.cut]
    for p in cut:
        print(f"# INVALID: the {WALL_LIMIT_S} s wall-clock limit ended a phase after "
              f"{p.attempted} calls and {p.busy:.3f} s of request time")
    return not cut


def emit(phase_list, metrics: dict, valid: bool = True) -> int:
    """Print the result line; nonzero status on a failed call or an invalid measurement."""
    attempted = sum(p.attempted for p in phase_list)
    failed = sum(p.failed for p in phase_list)
    for p in phase_list:
        for line in p.failures:
            print(f"# FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 and attempted > 0 and valid else 1


def peak_rss_mb(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (self-tests shrink it)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + WALL_LIMIT_S
    workload, cli = args.workload, args.workload == "cli-mix"
    print(f"# recurseq benchmark: workload={workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} (closed loop, 1 caller)")
    print(f"# stamp: {json.dumps(stamp())}")

    lib = workloads.library_table()
    if not args.trace:
        if not tracing.pristine():
            raise SystemExit("error: library functions are patched during an untraced run")
        lib.invoke = invoke_subprocess if cli else workloads.invoke_in_process(lib.main)
        stream, phase, setup = workloads.calls(workload, args.seed, args.scale), Phase(), []
        for batch in range(1, SETUP_BATCHES + 1):
            # Set-up samples spread over the run, so that their median does not
            # hang on the machine's state in a single second.
            setup += setup_seconds(workload)
            run_phase(stream, lib, args.seconds * batch / SETUP_BATCHES, deadline, phase=phase,
                      min_calls=MIN_CALLS if batch == SETUP_BATCHES else 0)
        if not tracing.pristine():
            raise SystemExit("error: library functions were patched during an untraced run")
        print(f"# inputs: {json.dumps({'seed': args.seed, **phase.properties()})}")
        latency, thick = latency_metrics(phase)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "calls_per_s": (phase.attempted / phase.busy, "1/s"),
            **latency,
            "peak_rss_mb": (peak_rss_mb(children=cli), "MB"),
        }
        return emit([phase], metrics, valid=complete([phase]) and thick)

    # Traced run: half the time untraced, then the very same requests traced,
    # so both halves do identical work and per-layer counts belong to a known
    # request set.  cli-mix runs main(argv) in process here, to see its layers.
    lib.invoke = workloads.invoke_in_process(lib.main)
    plain = run_phase(workloads.calls(workload, args.seed, args.scale), lib, args.seconds / 2, deadline)
    if not tracing.pristine():
        raise SystemExit("error: library functions were patched during an untraced phase")
    tracer = tracing.Tracer()
    traced_lib = workloads.library_table()
    for name, fn in vars(traced_lib).items():
        setattr(traced_lib, name, tracer.wrap(fn))
    traced_lib.invoke = workloads.invoke_in_process(traced_lib.main)
    replay = itertools.islice(workloads.calls(workload, args.seed, args.scale), plain.attempted)
    with tracer:
        traced = run_phase(replay, traced_lib, math.inf, deadline, tracer)
    print(f"# inputs: {json.dumps({'seed': args.seed, **traced.properties()})}")
    print(f"# traced {traced.attempted} requests, {traced.busy:.3f} s; the same untraced: {plain.busy:.3f} s")

    metrics = tracer.layer_metrics()
    metrics["cli.import_s"] = (cli_import_seconds() if cli else 0.0, "s")
    metrics["cli.main_s"] = (plain.busy / plain.attempted if cli else 0.0, "s")
    metrics["cli.exit_nonzero"] = (traced.exit_nonzero if cli else 0, "count")
    metrics["trace.overhead_ratio"] = (
        (traced.attempted / traced.busy) / (plain.attempted / plain.busy), "ratio")
    RESULTS.mkdir(exist_ok=True)
    spans_file = RESULTS / f"spans-{workload}-seed{args.seed}.jsonl"
    with open(spans_file, "w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")
    print(f"# {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    return emit([plain, traced], metrics, valid=complete([plain, traced]))


if __name__ == "__main__":
    sys.exit(main())
