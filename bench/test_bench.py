"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They are not part of the library's suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import run  # puts the checkout's src/ on sys.path
import tracing
import workloads
from recurseq.core import Matrix2

TINY = 0.01
CALLS_PER_WORKLOAD = 40


def tiny_calls(workload, seed=7, count=CALLS_PER_WORKLOAD):
    return list(itertools.islice(workloads.calls(workload, seed, scale=TINY), count))


def in_process_lib():
    lib = workloads.library_table()
    lib.invoke = workloads.invoke_in_process(lib.main)
    return lib


def corrupt(output):
    """The same output with its last number or digit changed."""
    if isinstance(output, bool):
        return not output
    if isinstance(output, int):
        return output + 1
    if isinstance(output, Fraction):
        return output + Fraction(1, 7)
    if isinstance(output, str):
        digits = [i for i, ch in enumerate(output) if ch.isdigit()]
        if not digits:
            return output + "x"
        i = digits[-1]
        return output[:i] + str((int(output[i]) + 1) % 10) + output[i + 1:]
    if isinstance(output, Matrix2):
        return dataclasses.replace(output, e22=corrupt(output.e22))
    if dataclasses.is_dataclass(output):
        return dataclasses.replace(output, value=corrupt(output.value))
    if isinstance(output, tuple):
        return output[:-1] + (corrupt(output[-1]),)
    if isinstance(output, list):
        return output[:-1] + [corrupt(output[-1])]
    raise TypeError(f"cannot corrupt {type(output)}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes(workload):
    phase = run.run_phase(iter(tiny_calls(workload)), in_process_lib(), seconds=60, deadline=float("inf"))
    assert phase.attempted == CALLS_PER_WORKLOAD
    assert phase.failed == 0, phase.failures


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_results_count_as_failed(workload):
    lib = in_process_lib()
    for call in tiny_calls(workload, count=20):
        output = call.run(lib)
        assert call.check(output), call
        bad = corrupt(output)
        assert not call.check(bad), call
        phase = run.Phase()
        phase.record(call, bad, 0.001)
        assert phase.failed == 1


def test_big_terms_checker_rejects_a_wrong_value():
    lib = in_process_lib()
    for call in tiny_calls("big-terms", count=12):
        value, texts = call.run(lib)
        assert not call.check((corrupt(value), texts)), call


def test_raised_and_malformed_outputs_count_as_failed():
    call = tiny_calls("ratio-chains", count=1)[0]
    phase = run.Phase()
    phase.record(call, ValueError("boom"), 0.001)
    phase.record(call, object(), 0.001)  # the checker itself raises on it
    assert phase.failed == 2


def test_untraced_phase_runs_the_original_functions():
    seen = []

    def probe(lib):
        seen.append(tracing.pristine())
        return True

    probes = iter([workloads.Call("probe", probe, lambda output: output)] * 3)
    run.run_phase(probes, in_process_lib(), seconds=60, deadline=float("inf"))
    assert seen == [True, True, True]


def test_tracer_patches_only_inside_its_block():
    tracer = tracing.Tracer()
    assert tracing.pristine()
    with tracer:
        assert not tracing.pristine()
    assert tracing.pristine()


def test_traced_phase_attributes_self_time_to_layers():
    tracer = tracing.Tracer()
    lib = workloads.library_table()
    for name, fn in vars(lib).items():
        setattr(lib, name, tracer.wrap(fn))
    lib.invoke = workloads.invoke_in_process(lib.main)
    calls = tiny_calls("ratio-chains") + tiny_calls("big-terms") + tiny_calls("cli-mix")
    with tracer:
        phase = run.run_phase(iter(calls), lib, seconds=60, deadline=float("inf"), tracer=tracer)
    assert phase.failed == 0, phase.failures
    metrics = tracer.layer_metrics()
    for layer in ("core", "accel", "cf", "roots", "formatting", "cli"):
        assert metrics[f"{layer}.calls"][0] > 0
        assert metrics[f"{layer}.self_s"][0] > 0
    assert metrics["fractions.gcd_calls"][0] > 0
    total_self = sum(v for k, (v, _) in metrics.items() if k.endswith("self_s")) + metrics["fractions.gcd_s"][0]
    assert total_self <= phase.busy * 1.01
    spans = {span[1]: span for span in tracer.spans}
    for request, span_id, parent, layer, name, start, end, raised in tracer.spans:
        assert start <= end
        if parent is not None:
            assert spans[parent][0] == request and spans[parent][5] <= start and end <= spans[parent][6]


def test_thin_percentile_or_cut_run_is_invalid():
    phase = run.Phase()
    phase.latencies = [i / 1000 for i in range(1, 51)]
    assert not run.latency_metrics(phase)[1]  # 50 samples leave 5 above p90
    phase.latencies = [i / 1000 for i in range(1, 101)]
    assert run.latency_metrics(phase)[1]  # 100 samples leave 10
    cut = run.run_phase(iter(tiny_calls("big-terms")), in_process_lib(), seconds=60, deadline=0)
    assert cut.cut and cut.attempted == 1 and not run.complete([cut])
    assert run.emit([cut], {}, valid=False) == 1


def test_convergents_checker_compares_every_record():
    lib = in_process_lib()
    call = next(c for c in workloads.calls("ratio-chains", 7) if c.fn == "convergents_direct")
    output = call.run(lib)
    assert len(output) > 2 and call.check(output)
    middle = len(output) // 2
    bad = output[:middle] + [dataclasses.replace(output[middle], value=output[middle].value + 1)] \
        + output[middle + 1:]
    assert not call.check(bad)


def test_same_seed_gives_same_inputs():
    def describe(calls):
        return [(c.fn, c.key, c.index) for c in calls]

    assert describe(tiny_calls("big-terms", seed=3)) == describe(tiny_calls("big-terms", seed=3))
    assert describe(tiny_calls("big-terms", seed=3)) != describe(tiny_calls("big-terms", seed=4))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_line(workload, trace):
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", str(TINY)],
        capture_output=True, text=True, timeout=180, cwd=run.ROOT)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:  # cli-mix issues fewer than 100 requests in 1 s, and goes on to 100
        assert result["attempted"] >= run.MIN_CALLS
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
