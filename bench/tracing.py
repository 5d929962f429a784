"""Span tracing of recurseq's layers from outside the library.

Layers are the package's modules (core, accel, roots, cf, formatting, cli)
plus one pseudo-layer under them all: the gcd that ``fractions.Fraction``
runs on every construction and operation.  Nothing inside the library is
edited.  A traced phase instead

* wraps every library function the workload calls (through its ``Lib``
  table),
* rebinds, inside each library module's namespace, every function that
  module takes from another recurseq module (``accel.companion_power``,
  ``roots.format_decimal``, ...) and replaces the module objects the CLI
  holds (``cli.accel``, ...) with proxies whose functions are wrapped, and
* replaces the ``math`` name inside ``fractions`` with a proxy whose ``gcd``
  is timed.

Each wrapped call records a span (request, span id, parent, layer, name,
start, end, raised); a layer's self time is its spans' time minus the time
of their child spans and of the gcds run directly under them.  Spans stay in
memory until the run writes them out.  Everything runs on one thread, so no
layer ever waits on another and no wait time is reported.
"""

from __future__ import annotations

import fractions
import math
import types
from fractions import Fraction
from time import perf_counter_ns

import recurseq
from recurseq import accel, cf, cli, core, formatting, roots

MODULES = {"core": core, "accel": accel, "roots": roots, "cf": cf,
           "formatting": formatting, "cli": cli}
LAYERS = tuple(MODULES)


def layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _cross_module_bindings():
    """(module, name, value) for every recurseq function or module a module holds
    under a name it took from another recurseq module."""
    found = []
    for mod in MODULES.values():
        for name, value in vars(mod).items():
            if isinstance(value, types.FunctionType):
                if value.__module__.startswith("recurseq.") and value.__module__ != mod.__name__:
                    found.append((mod, name, value))
            elif isinstance(value, types.ModuleType) and value.__name__.startswith("recurseq.") \
                    and value is not mod:
                found.append((mod, name, value))
    return found


# Snapshot taken at import, before any phase can patch anything.
_ORIGINAL_BINDINGS = _cross_module_bindings()
_ORIGINAL_PUBLIC = {name: getattr(recurseq, name) for name in recurseq.__all__}


def pristine() -> bool:
    """True when no tracing patch is in place: ``fractions.math`` is ``math``,
    every cross-module binding is the original object, and so is every public
    name of the package."""
    if fractions.math is not math:
        return False
    if any(getattr(mod, name) is not value for mod, name, value in _ORIGINAL_BINDINGS):
        return False
    return all(getattr(recurseq, name) is value for name, value in _ORIGINAL_PUBLIC.items())


def size_of(value) -> tuple[int, int]:
    """(bits of the largest number, characters of the longest text) in a result."""
    if isinstance(value, bool):
        return 0, 0
    if isinstance(value, int):
        return abs(value).bit_length(), 0
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length()), 0
    if isinstance(value, str):
        return 0, len(value)
    if isinstance(value, core.Matrix2):
        value = (value.e11, value.e12, value.e21, value.e22)
    elif hasattr(value, "value") and not isinstance(value, (tuple, list)):  # ConvergentRecord
        return size_of(value.value)
    if isinstance(value, (tuple, list)):
        sizes = [size_of(v) for v in value]
        return max((b for b, _ in sizes), default=0), max((c for _, c in sizes), default=0)
    return 0, 0


class Tracer:
    """Collects spans and per-layer counters for one traced phase."""

    def __init__(self):
        self.spans = []          # (request, span, parent, layer, name, start_ns, end_ns, raised)
        self.request = 0
        self.recording = False   # off while the benchmark generates inputs or checks outputs
        self._stack = []         # [span id, child ns] of the open spans
        self._next_id = 0
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.raised = dict.fromkeys(LAYERS, 0)
        self.core_max_bits = 0
        self.digits_out = 0
        self.gcd_calls = 0
        self.gcd_ns = 0
        self.gcd_trivial = 0
        self.gcd_max_bits = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def wrap(self, fn):
        """fn, recording a span of its module's layer while ``recording`` is on."""
        layer = layer_of(fn)
        name = f"{layer}.{fn.__name__}"
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            raised = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_ns[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                tracer.raised[layer] += raised
                tracer.spans.append((tracer.request, span_id, parent, layer, name, start, end, raised))
            if layer == "core":
                tracer.core_max_bits = max(tracer.core_max_bits, size_of(result)[0])
            elif layer == "formatting" and isinstance(result, str):
                tracer.digits_out += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _gcd(self, *args):
        if not self.recording:
            return math.gcd(*args)
        start = perf_counter_ns()
        g = math.gcd(*args)
        duration = perf_counter_ns() - start
        if self._stack:
            self._stack[-1][1] += duration
        self.gcd_calls += 1
        self.gcd_ns += duration
        self.gcd_trivial += g == 1
        self.gcd_max_bits = max(self.gcd_max_bits, *(abs(a).bit_length() for a in args))
        return g

    # -- patching ----------------------------------------------------------

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        wrapped = {}

        def wrapped_fn(fn):
            if fn not in wrapped:
                wrapped[fn] = self.wrap(fn)
            return wrapped[fn]

        for mod, name, value in _ORIGINAL_BINDINGS:
            if isinstance(value, types.ModuleType):
                proxy = types.ModuleType(value.__name__)
                for attr, member in vars(value).items():
                    if isinstance(member, types.FunctionType) and member.__module__ == value.__name__:
                        member = wrapped_fn(member)
                    setattr(proxy, attr, member)
                self._set(mod, name, proxy)
            else:
                self._set(mod, name, wrapped_fn(value))

        math_proxy = types.ModuleType("math")
        math_proxy.__dict__.update(vars(math))
        math_proxy.gcd = self._gcd
        self._set(fractions, "math", math_proxy)
        return self

    def __exit__(self, *exc):
        self.recording = False
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)
        return False

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        metrics = {}
        for layer in ("core", "accel", "cf", "roots", "formatting", "cli"):
            metrics[f"{layer}.calls"] = (self.calls[layer], "count")
            metrics[f"{layer}.self_s"] = (self.self_ns[layer] / 1e9, "s")
            if layer in ("accel", "cf", "roots"):
                metrics[f"{layer}.raised"] = (self.raised[layer], "count")
        metrics["core.max_bits"] = (self.core_max_bits, "bits")
        metrics["formatting.digits_out"] = (self.digits_out, "count")
        metrics["fractions.gcd_calls"] = (self.gcd_calls, "count")
        metrics["fractions.gcd_s"] = (self.gcd_ns / 1e9, "s")
        metrics["fractions.gcd_max_bits"] = (self.gcd_max_bits, "bits")
        metrics["fractions.gcd_trivial_ratio"] = (
            self.gcd_trivial / self.gcd_calls if self.gcd_calls else 0.0, "ratio")
        return metrics
