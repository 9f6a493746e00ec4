"""Spans and counts at optiqft's layer boundaries, recorded from outside the
library.

``install`` replaces module attributes with wrappers; ``Tracer.restore``
puts the originals back. A wrapper counts each call and, above the 3x3
matrix level, records a span ``[name, start, end, parent, op]``. Spans stay
in memory until the run writes them out. A wrapped attribute that no longer
exists is listed in ``Tracer.absent`` and skipped, never an error.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import optiqft
import optiqft.calibration
import optiqft.cli
import optiqft.experiment
import optiqft.fitting


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def reset(self):
        self.spans, self.counts, self._stack = [], Counter(), []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, owner, attr: str, name: str, span: bool = True,
             points: bool = False, on_result=None):
        """Replace owner.attr by a recording wrapper.

        points adds the size of the second argument (a dx grid) to the
        count ``name + ".points"``; on_result(result) runs after each
        traced call.
        """
        raw = owner.__dict__.get(attr)
        if raw is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            if points:
                dx = args[1] if len(args) > 1 else kwargs.get("dx")
                tracer.counts[name + ".points"] += getattr(dx, "size", 1)
            if not span:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []


def _record(tracer: Tracer, name: str, field: str, measure):
    """on_result hook adding measure(result.field) to counts[name]."""
    def hook(result):
        value = getattr(result, field, None)
        if value is None:
            if name not in tracer.absent:
                tracer.absent.append(name)
            return
        tracer.counts[name] += measure(value)
    return hook


def install(tracer: Tracer):
    """Wrap the layer boundaries the per-layer metrics are read from."""
    fit_starts = _record(tracer, "fitting.fit.starts", "starts", int)
    roots = _record(tracer, "calibration.solve_step.roots", "roots", len)
    # Calls the benchmark itself makes, through the package namespace.
    tracer.wrap(optiqft, "fit", "fitting.fit", on_result=fit_starts)
    tracer.wrap(optiqft, "calibrate", "calibration.calibrate")
    tracer.wrap(optiqft, "solve_step", "calibration.solve_step", on_result=roots)
    tracer.wrap(optiqft, "simulated_step_intensity",
                "calibration.signal.simulated", span=False, points=True)
    # fitting -> experiment
    tracer.wrap(optiqft.fitting, "detector_intensity_curves",
                "experiment.forward")
    # experiment -> elements
    for attr in ("splitter_matrix", "phase_matrix", "loss_matrix"):
        tracer.wrap(optiqft.experiment, attr, "elements.matrix_build",
                    span=False)
    # calibration internals and calibration -> experiment
    tracer.wrap(optiqft.calibration, "solve_step", "calibration.solve_step",
                on_result=roots)
    tracer.wrap(optiqft.calibration, "target_intensity",
                "calibration.target_intensity")
    tracer.wrap(optiqft.calibration, "step_curve",
                "calibration.signal.closed_form", span=False, points=True)
    tracer.wrap(optiqft.calibration, "block_matrices",
                "experiment.block_matrices", span=False)
    # cli -> library
    for attr, name in (("synthesize_measured_trace", "experiment.synth"),
                       ("theoretical_curves", "experiment.theoretical_curves"),
                       ("residual_report", "fitting.residual_report"),
                       ("calibrate", "calibration.calibrate"),
                       ("reck_decompose", "synthesis.reck_decompose"),
                       ("compose", "elements.compose")):
        tracer.wrap(optiqft.cli, attr, name)
    tracer.wrap(optiqft.cli, "fit", "fitting.fit", on_result=fit_starts)
    tracer.wrap(optiqft.experiment.DetectorTrace, "to_csv",
                "experiment.csv_write")
    tracer.wrap(optiqft.experiment.DetectorTrace, "from_csv",
                "experiment.csv_read")


def durations(spans: list, name: str) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def children_of(spans: list, parent_name: str, name: str) -> int:
    return sum(1 for s in spans
               if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name)
