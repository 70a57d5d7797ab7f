"""The benchmark's tracer looks up layer functions and ``MetricProblem``
methods by name, so a rename in the package would first show as a
``KeyError`` in a traced benchmark run; installing it here catches that."""

import importlib.util
from pathlib import Path

import numpy as np

import lfpp.experiments
import lfpp.metric
from lfpp.field import DETERMINISTIC, GridSpec, LatticeField
from lfpp.metric import MetricProblem
from lfpp.params import LqgParams

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    methods = dict(vars(MetricProblem))
    protocols = dict(lfpp.experiments.EXPERIMENTS)
    builder = lfpp.metric.build_lattice_graph
    field = LatticeField(spec=GridSpec(n=8, spacing=0.1), values=np.zeros((8, 8)), kind=DETERMINISTIC)
    tracer = spans.Tracer()
    tracer.install()
    try:
        MetricProblem(field, LqgParams.pure_gravity()).distance((0, 0), (7, 7))
    finally:
        tracer.uninstall()
    assert tracer.calls() == {"metric.query": 1, "metric.build": 1}
    assert tracer.counts["metric.query.path_len"] == 8
    assert dict(vars(MetricProblem)) == methods
    assert lfpp.experiments.EXPERIMENTS == protocols
    assert lfpp.metric.build_lattice_graph is builder
