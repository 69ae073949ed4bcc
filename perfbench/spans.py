"""Spans around the calls into phaseq's layers, and the arithmetic on them.

The layers are phaseq's public modules.  ``Recorder.install`` wraps every
public function a layer module defines and rebinds the wrapper in every
phaseq namespace that bound the original, including names imported with
``from .x import y``.  Calls inside a module go through its globals, so they
are wrapped too.  Private modules (``_kernels``, ``_spectral``) are not
layers: their time is part of the public function that called them.

Spans stay in memory and are written once, when the traced process ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

PACKAGE = "phaseq"
LAYERS = ("cli", "report", "phasespace", "wigner", "schrodinger", "madelung",
          "canonical", "fock", "spin", "io")


def _points(result, *args, **kwargs):
    return result.values.size


def _step_points(result, phi, t, n_steps, *args, **kwargs):
    return n_steps * phi.grid.n


def _bytes_written(result, *args, **kwargs):
    paths = result if isinstance(result, tuple) else (result,)
    return sum(os.path.getsize(path) for path in paths)


def _entries(result, *args, **kwargs):
    return len(result)


# Work counted at the boundary of the functions whose per-unit cost the
# benchmark reports.  Each returns a number from the call's result and
# arguments; a counter that no longer fits the function records nothing.
WORK = {
    "phasespace.liouville_propagate": _points,
    "wigner.wavefunction_to_slice": _points,
    "schrodinger.split_step_evolve": _step_points,
    "io.save_phase_density": _bytes_written,
    "io.save_wavefunction": _bytes_written,
    "io.save_spin_csv": _bytes_written,
    "io.save_spectrum_csv": _bytes_written,
    "report.run_suite": _entries,
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str            # "<layer>.<function>"
    start: float
    end: float
    parent: int | None
    invocation: int
    error: bool = False
    work: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one traced process in memory, as plain tuples."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.records: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, func):
        work = WORK.get(name)
        records, stack, ids = self.records, self._stack, self._ids

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stack.pop()
                records.append((span_id, name, start, time.perf_counter(), parent, True, None))
                raise
            end = time.perf_counter()
            stack.pop()
            try:
                amount = None if work is None else work(result, *args, **kwargs)
            except (AttributeError, TypeError, OSError):
                amount = None
            records.append((span_id, name, start, end, parent, False, amount))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function and rebind it everywhere it is bound."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, value in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self.wrap(f"{layer}.{name}", value))
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, name, found[1])

    @property
    def spans(self) -> list[Span]:
        return [Span(i, name, start, end, parent, self.invocation, error, work)
                for i, name, start, end, parent, error, work in self.records]

    def dump(self, path, **extra) -> None:
        payload = dict(extra, spans=[span.__dict__ for span in self.spans])
        with open(path, "w") as handle:
            json.dump(payload, handle)


def load_spans(path) -> tuple[list[Span], dict]:
    with open(path) as handle:
        payload = json.load(handle)
    spans = [Span(**fields) for fields in payload.pop("spans")]
    return spans, payload


def _covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of intervals, clipped to [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Span duration minus the part of its interval that child spans cover.

    Keys are (invocation, span id), since ids restart in every invocation.
    """
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.invocation, span.parent), []).append((span.start, span.end))
    return {
        (span.invocation, span.id): span.duration
        - _covered(children.get((span.invocation, span.id), []), span.start, span.end)
        for span in spans
    }


def layer_metrics(spans: list[Span], invocations: int, own: dict) -> dict[str, float]:
    """Per-layer counts and times, as means per traced invocation.

    ``own`` holds the spans' self times.  ``<layer>.errors`` counts
    exceptions that left the layer: a failing span whose caller is in
    another layer, or which has no traced caller.
    """
    by_id = {(span.invocation, span.id): span for span in spans}
    metrics = {}
    for layer in LAYERS:
        mine = [span for span in spans if span.layer == layer]
        errors = sum(
            1 for span in mine
            if span.error and (span.parent is None
                               or by_id[(span.invocation, span.parent)].layer != layer)
        )
        metrics[f"{layer}.calls"] = len(mine) / invocations
        metrics[f"{layer}.self_s"] = sum(own[(s.invocation, s.id)] for s in mine) / invocations
        metrics[f"{layer}.errors"] = errors / invocations
    return metrics


def function_totals(spans: list[Span], name: str, own: dict) -> dict[str, float]:
    """Calls, self time, inclusive time and counted work of one function."""
    mine = [span for span in spans if span.name == name]
    return {
        "calls": len(mine),
        "self_s": sum(own[(s.invocation, s.id)] for s in mine),
        "total_s": sum(s.duration for s in mine),
        "work": sum(s.work for s in mine if s.work is not None),
    }
