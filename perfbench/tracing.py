"""Span tracer that wraps greedycert's public functions from the outside.

Every public function defined in one of the layer modules is replaced, under
every name it is bound to in the package (for example both
`greedycert.projection.project_atoms` and `greedycert.greedy.project_atoms`),
by a wrapper that records a span: name, start, end, parent span and the
operation it belongs to.  A span's self time is its duration minus the time
its child spans cover.  The per-layer counts (selections, ties, supports,
calibration runs, trials, IO bytes) are read from the arguments and results
of the wrapped calls.  Nothing in `src/` changes.
"""

import functools
import importlib
import inspect
import math
import os
import time
from collections import Counter, defaultdict

LAYERS = ("dictionary", "projection", "greedy", "guarantees", "worstcase", "sweep", "cli")
SPAN_CAP = 50_000  # spans kept for the trace file; aggregates count every call

# pursuit runs made by these functions are calibration attempts
CALIBRATORS = ("worstcase.reach_input", "worstcase.build_scenario")


def _count_run(tracer, args, trace):
    tracer.counts["greedy.selections"] += len(trace.selected) - trace.seeded
    tracer.counts["greedy.ties"] += trace.tie_at is not None
    owner = next((s[0] for s in reversed(tracer.stack) if s[0].startswith("worstcase.")), None)
    if owner in CALIBRATORS:
        tracer.counts["worstcase.calibration_runs"] += 1


def _count_supports(tracer, args, _result):
    tracer.counts["guarantees.supports_enumerated"] += math.comb(args["d"].n, args["l"])


def _count_sweep(tracer, args, report):
    config = args["config"]
    tracer.counts["sweep.trials_attempted"] += len(config.cells()) * config.trials
    first = report.cells[0].variant  # every variant of a cell shares the same trials
    tracer.counts["sweep.trials_accepted"] += sum(c.accepted for c in report.cells
                                                  if c.variant == first)


def _count_io(tracer, args, _result):
    tracer.counts["dictionary.io.bytes"] += os.path.getsize(args["path"])


HOOKS = {
    "greedy.run": _count_run,
    "guarantees.projected_coherence": _count_supports,
    "guarantees.prip_exact": _count_supports,
    "sweep.run_sweep": _count_sweep,
    "dictionary.save_dictionary": _count_io,
    "dictionary.load_dictionary": _count_io,
    "dictionary.save_vector": _count_io,
    "dictionary.load_vector": _count_io,
}


class Tracer:
    """Collects spans and counts while `enabled` is true; wrappers pass
    straight through otherwise, so checks can run untraced in between."""

    def __init__(self):
        self.enabled = False
        self.op = None          # identifier shared by every span of one operation
        self.stack = []         # open spans: [name, start, child seconds, span id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self._ids = 0

    def install(self, package) -> None:
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}")
                               for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or hasattr(fn, "__traced__")):
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, attr, wrapped)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook:
                hook(tracer, signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__traced__ = True
        return traced

    def _open(self, name):
        self._ids += 1
        self.stack.append([name, time.perf_counter(), 0.0, self._ids])

    def _close(self):
        end = time.perf_counter()
        name, start, child, sid = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = None
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op, sid, parent, name, start, end))

    def snapshot(self) -> dict:
        """Flat totals so far: `<fn>.calls`, `<fn>.self_ms` and every count."""
        flat = dict(self.counts)
        for name, calls in self.calls.items():
            flat[f"{name}.calls"] = calls
            flat[f"{name}.self_ms"] = 1000.0 * self.self_s[name]
        return flat
