"""Spans around the calls into each rankmix layer, recorded from outside.

``Tracer.installed`` replaces, for the duration of one operation, the
module-level names that ``rankmix.pipeline``, ``rankmix.experiments`` and
``rankmix.cli`` look up at call time (plus ``rankmix.generators.embed`` and
the ``ObservationMatrix`` constructors) with wrappers that record a span per
call: name, start, end, parent span and operation id. Nothing in the library
is edited, and untraced operations run the original functions.

A span's name is ``<layer>.<function>``; the layer is the rankmix module
that defines the function (``seeding`` counts as ``generators``). A span's
self time is its duration minus the durations of its direct children.

Some wrappers also add computed counts, derived from argument and result
shapes rather than measured; ``design.json`` states each formula.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from rankmix import cli, experiments, generators, pipeline
from rankmix.estimation import ObservationMatrix

LAYERS = (
    "generators", "rankings", "estimation", "clustering", "evaluation",
    "pipeline", "experiments", "fileio", "cli",
)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_rows(counts, args, kwargs, out):
    counts["generators.rows"] += len(out)


def _count_svd(counts, args, kwargs, out):
    N, d = out.U.shape[0], out.Vt.shape[1]
    counts["estimation.svd.values_computed"] += int(out.singular_values.size)
    counts["estimation.svd.flops"] += 4 * N * d * min(N, d)


def _count_m_hat(counts, args, kwargs, out):
    counts["estimation.m_hat.bytes"] += int(out.m_hat.nbytes)


def _count_distances(counts, args, kwargs, out):
    N, cols = np.shape(_first_arg(args, kwargs, "rows"))
    counts["clustering.dist_coords"] += N * N * cols
    counts["clustering.bytes_scanned"] += N * N * cols * 8


def _count_file(counts, args, kwargs, out):
    counts["fileio.bytes"] += os.path.getsize(_first_arg(args, kwargs, "path"))


# Names looked up in rankmix.pipeline, rankmix.experiments and rankmix.cli:
# attribute -> (span name, count hook). Each is wrapped in every one of the
# three modules that holds it.
_CALLS = {
    "run_pipeline": ("pipeline.run_pipeline", None),
    "run_pipeline_samples": ("pipeline.run_pipeline_samples", None),
    "run_experiment": ("experiments.run_experiment", None),
    "main": ("cli.main", None),
    "sample_mixture": ("generators.sample_mixture", _count_rows),
    "sample_embedded_batch": ("generators.sample_embedded_batch", _count_rows),
    "mask": ("generators.mask", None),
    "cluster_mean": ("generators.cluster_mean", None),
    "normal_utilities": ("generators.normal_utilities", None),
    "substream": ("generators.seeding", None),
    "child_seed": ("generators.seeding", None),
    "compute_svd": ("estimation.compute_svd", _count_svd),
    "select_threshold": ("estimation.select_threshold", None),
    "hsvt": ("estimation.hsvt", _count_m_hat),
    "select_t2": ("clustering.select_t2", _count_distances),
    "single_linkage": ("clustering.single_linkage", _count_distances),
    "misclassification_rate": ("evaluation.misclassification_rate", None),
    "separation_gamma": ("evaluation.separation_gamma", None),
    "read_mixture_spec": ("fileio.read_mixture_spec", None),
    "read_matrix": ("fileio.read_matrix", None),
    "write_matrix": ("fileio.write_matrix", _count_file),
    "read_labels": ("fileio.read_labels", None),
    "write_labels": ("fileio.write_labels", _count_file),
    "write_key_values": ("fileio.write_key_values", _count_file),
}
_CALLERS = (pipeline, experiments, cli)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Spans and computed counts of the traced operations of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self._op)
            if count is not None:
                count(self.counts[self._op], args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self, op: int):
        """Trace every call made inside the block as part of operation ``op``."""
        self._op = op
        self.counts[op] = Counter()
        saved = []
        for module in _CALLERS:
            for attr, (name, count) in _CALLS.items():
                if attr in vars(module):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self._wrap(name, getattr(module, attr), count))
        saved.append((generators, "embed", generators.embed))
        generators.embed = self._wrap("rankings.embed", generators.embed, None)
        for attr in ("from_samples", "from_dense"):
            method = vars(ObservationMatrix)[attr]
            saved.append((ObservationMatrix, attr, method))
            setattr(ObservationMatrix, attr, classmethod(self._wrap("estimation.stack", method.__func__, None)))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> Counter:
        """Self time summed per span name over all traced operations."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals = Counter()
        for span, child in zip(self.spans, covered):
            totals[span.name] += span.end - span.start - child
        return totals

    def layer_times(self) -> dict:
        """Self time summed per layer; over all layers this is the traced time."""
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_times().items():
            layers[name.split(".")[0]] += value
        return layers

    def inclusive_time(self, names) -> float:
        return sum(s.end - s.start for s in self.spans if s.name in names)

    def calls(self, names, ops) -> int:
        return sum(1 for s in self.spans if s.name in names and s.op in ops)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
