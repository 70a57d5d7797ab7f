"""In-memory span tracing of lfpp's layers, installed from outside the package.

``Tracer.install`` replaces each layer's public functions and methods by a
recording wrapper at every name an lfpp module looks them up by, and
``uninstall`` puts the originals back.  A span is [name, start, end, parent
index]; a layer's self time is its spans' durations minus the time their
child spans cover.  Exact work counts are taken from the wrapped calls'
arguments and results.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

import lfpp.cli
import lfpp.experiments
import lfpp.field
import lfpp.io
import lfpp.metric
import lfpp.mollify


def _msd_reached(tracer, args, result):
    tracer.counts["metric.sweep.reached"] += int(np.count_nonzero(np.isfinite(result)))


def _build_edges(tracer, args, result):
    tracer.counts["metric.build.edges"] += int(result[0].nnz)


def _query_path_len(tracer, args, result):
    tracer.counts["metric.query.path_len"] += len(result.path)


def _bytes_written(tracer, args, result):
    tracer.counts["io.bytes_written"] += os.path.getsize(args[0])


# (span name, module, function, count hook): the function is patched at every
# lfpp module attribute bound to it.  _METHODS are patched on MetricProblem.
_FUNCTIONS = (
    ("field.whole_plane", lfpp.field, "sample_whole_plane_gff", None),
    ("mollify.heat", lfpp.mollify, "mollify_heat", None),
    ("mollify.truncated", lfpp.mollify, "mollify_truncated", None),
    ("metric.build", lfpp.metric, "build_lattice_graph", _build_edges),
    ("io.load_field", lfpp.io, "load_field", None),
    ("io.save_field", lfpp.io, "save_field", _bytes_written),
    ("io.write", lfpp.io, "write_json", _bytes_written),
    ("io.write", lfpp.io, "write_geodesic_csv", _bytes_written),
    ("cli", lfpp.cli, "main", None),
)
_METHODS = (
    ("metric.sweep", "crossing_distance", None),
    ("metric.sweep", "multi_source_distance", _msd_reached),
    ("metric.query", "distance", _query_path_len),
    ("metric.path_cost", "path_cost", None),
    ("metric.ball", "metric_ball", None),
    ("metric.annulus_cycle", "distance_around_annulus", None),
)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer entry point; the experiments protocols are wrapped
        where the benchmark looks them up, in ``EXPERIMENTS``."""
        modules = [m for k, m in sys.modules.items() if k == "lfpp" or k.startswith("lfpp.")]
        for name, owner, attr, count in _FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        cls = lfpp.metric.MetricProblem
        for name, attr, count in _METHODS:
            self._restore.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr], count))
        table = lfpp.experiments.EXPERIMENTS
        for key, fn in list(table.items()):
            self._restore.append((table, key, fn))
            table[key] = self.wrap("experiments", fn)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        children: Dict[int, List[int]] = {}
        for idx, span in enumerate(self.spans):
            children.setdefault(span[3], []).append(idx)
        out: Dict[str, float] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            covered, edge = 0.0, start
            for c in sorted(children.get(idx, ()), key=lambda c: self.spans[c][1]):
                c_start, c_end = max(self.spans[c][1], edge), self.spans[c][2]
                if c_end > c_start:
                    covered += c_end - c_start
                    edge = c_end
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def calls(self) -> Dict[str, int]:
        """Per span name: spans not nested inside a span of the same name."""
        out: Dict[str, int] = {}
        for name, _, _, parent in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] = out.get(name, 0) + 1
        return out
