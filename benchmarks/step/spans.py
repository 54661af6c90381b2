"""Benchmark-owned spans around the layers' public entry points.

The program's own ``Tracer``/``PhaseProfiler``/``Stopwatch`` are never
read: the traced run wraps the public calls into each layer from here,
so per-layer numbers survive any rewrite of the program's
instrumentation.  A span is ``[name, start_s, end_s, parent, step,
args]``; a layer's self time is its span minus its children, so the
per-step budget closes by construction.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from repro.md.simulation import Simulation

#: span name -> the module ("layer") whose code runs in that span's self time
LAYER_OF_SPAN = {
    "step": "md.simulation",
    "compute_forces": "md.simulation",
    "ensure_neighbor_list": "md.neighbor",
    "on_neighbor_rebuild": "parallel.backends",
    "compute": "core.strategies",
    "first_half": "md.integrators",
    "second_half": "md.integrators",
    "apply": "md.thermostats",
}

NAME, START, END, PARENT, STEP, ARGS = range(6)


class _Span:
    __slots__ = ("_recorder", "_record")

    def __init__(self, recorder: "SpanRecorder", record: list) -> None:
        self._recorder = recorder
        self._record = record

    def __enter__(self) -> dict:
        recorder, record = self._recorder, self._record
        record[PARENT] = recorder._stack[-1] if recorder._stack else -1
        recorder._stack.append(len(recorder.spans))
        recorder.spans.append(record)
        record[START] = time.perf_counter()
        return record[ARGS]

    def __exit__(self, *exc: object) -> None:
        self._record[END] = time.perf_counter()
        self._recorder._stack.pop()


class SpanRecorder:
    """In-memory span list; single-threaded (the driver's thread)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.step = -1

    def span(self, name: str) -> _Span:
        return _Span(self, [name, 0.0, 0.0, -1, self.step, {}])

    def clear(self) -> None:
        self.spans.clear()

    def self_ms_by_step(self, n_steps: int) -> Dict[str, List[float]]:
        """Per-step self time of every span name, in ms.

        ``sum(out[name][i] for name in out) == step span i`` exactly.
        """
        self_s = [s[END] - s[START] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                self_s[span[PARENT]] -= span[END] - span[START]
        out: Dict[str, List[float]] = {}
        for span, value in zip(self.spans, self_s):
            per_step = out.setdefault(span[NAME], [0.0] * n_steps)
            per_step[span[STEP]] += value * 1e3
        return out

    def dump_chrome_trace(self, path: str) -> None:
        pid = os.getpid()
        events = [
            {
                "name": s[NAME],
                "cat": LAYER_OF_SPAN[s[NAME]],
                "ph": "X",
                "ts": s[START] * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"id": i, "parent": s[PARENT], "step": s[STEP], **s[ARGS]},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class SpanProxy:
    """Forwards everything to ``inner``; the named methods run in a span.

    A method the inner object lacks stays missing, so the driver's
    duck-typed ``getattr(calculator, "on_neighbor_rebuild", None)`` sees
    the same object shape with and without tracing.
    """

    def __init__(self, inner, recorder: SpanRecorder, methods) -> None:
        self._inner = inner
        self._recorder = recorder
        self._methods = frozenset(methods)

    def __getattr__(self, name: str):
        target = getattr(self._inner, name)
        if name not in self._methods:
            return target
        recorder = self._recorder

        def traced(*args, **kwargs):
            with recorder.span(name):
                return target(*args, **kwargs)

        return traced


class TracedSimulation(Simulation):
    """``Simulation`` with spans around its two public force-path calls."""

    def __init__(self, *args, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._recorder = recorder

    def ensure_neighbor_list(self):
        before = self.nlist
        with self._recorder.span("ensure_neighbor_list") as args:
            nlist = super().ensure_neighbor_list()
            args["rebuilt"] = nlist is not before
        return nlist

    def compute_forces(self):
        with self._recorder.span("compute_forces"):
            return super().compute_forces()
