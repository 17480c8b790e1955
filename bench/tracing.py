"""Spans around calls into the program, recorded from outside it.

The tracer replaces public functions of the ``secnn`` modules by wrappers
that time each call, and replaces ``record_op`` by a wrapper that times the
backward closure each stage hands to the tape, so backward time is charged
to the stage that recorded the op.  Wrappers call the originals with the
same arguments, so traced results are bitwise equal to untraced ones.

A *stage* span does not nest: a stage function called inside another stage
(``conv1d_valid`` inside ``conv1d_same``, say) belongs to the outer one.
Other spans (the forward pass, the backward pass) contain stage spans.
A function the program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# (module, attribute) -> span name.  Stage spans charge backward time.
STAGES = {
    ("secnn.model", "lookup"): "embeddings.lookup",
    ("secnn.tensor", "index_axis0"): "model.conv",  # filter slicing
    ("secnn.model", "conv1d_valid"): "model.conv",
    ("secnn.model", "conv1d_same"): "model.conv",  # includes same-padding
    ("secnn.model", "stack_channels"): "model.stack",
    ("secnn.model", "se_squeeze"): "model.squeeze",
    ("secnn.model", "se_excite"): "model.excite",
    ("secnn.model", "se_scale"): "model.scale",
    ("secnn.model", "se_sum"): "model.sum",
    ("secnn.model", "piecewise_maxpool"): "model.pool",
    ("secnn.tensor", "reshape"): "model.head",  # flatten
    ("secnn.model", "dropout"): "model.head",
    ("secnn.model", "dense"): "model.head",
    ("secnn.training", "cross_entropy_loss"): "training.loss",
}
CALLS = {
    ("secnn.model", "forward"): "model.forward",
    ("secnn.training", "forward"): "model.forward",
    ("secnn.tensor", "backward"): "tensor.backward",
    ("secnn.training", "backward"): "tensor.backward",
    ("secnn.training", "adam_step"): "training.adam",
    ("secnn.training", "save_checkpoint"): "checkpoint.save",
    ("secnn.cli", "load_checkpoint"): "checkpoint.load",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    phase: str  # the benchmark phase: setup, steps, epoch, eval, predict
    sample: int  # which step / call / repetition of the phase
    out_bytes: int = 0  # size of a stage's output tensor


class Tracer:
    """In-memory spans plus the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self.sample = 0
        self._stage: str | None = None  # the open stage span, if any
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        span = Span(name, time.perf_counter(), 0.0, self.phase, self.sample)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def _stage_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stage is not None:
                return fn(*args, **kwargs)
            self._stage = name
            try:
                with self.span(name + ".fwd") as span:
                    out = fn(*args, **kwargs)
                data = getattr(out, "data", None)
                span.out_bytes = getattr(data, "nbytes", 0)
                return out
            finally:
                self._stage = None

        return traced

    def _call_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if name == "model.forward":
                label += ".train" if kwargs.get("training") else ".eval"
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    def _record_op_wrapper(self, record_op: Callable) -> Callable:
        @functools.wraps(record_op)
        def traced(out, inputs, backward_fn):
            if self._stage is None:
                return record_op(out, inputs, backward_fn)
            stage = self._stage + ".bwd"

            def timed(g):
                with self.span(stage):
                    return backward_fn(g)

            return record_op(out, inputs, timed)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for table, make in ((STAGES, self._stage_wrapper), (CALLS, self._call_wrapper)):
            for (module_name, attr), name in table.items():
                module = sys.modules.get(module_name)
                if module is not None and hasattr(module, attr):
                    self._patch(module, attr, make(name, getattr(module, attr)))
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("secnn.") and hasattr(module, "record_op"):
                self._patch(module, "record_op", self._record_op_wrapper(module.record_op))

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- aggregation ---------------------------------------------------------

    def per_sample(self, phase: str) -> list[dict[str, float]]:
        """Seconds per span name, one dict per sample of `phase`, in sample order."""
        totals: dict[int, dict[str, float]] = {}
        for s in self.spans:
            if s.phase == phase:
                sample = totals.setdefault(s.sample, {})
                sample[s.name] = sample.get(s.name, 0.0) + (s.end - s.start)
        return [totals[k] for k in sorted(totals)]

    def durations(self, phase: str, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.phase == phase and s.name == name]

    def out_bytes(self, phase: str, name: str) -> list[int]:
        return [s.out_bytes for s in self.spans if s.phase == phase and s.name == name]
