"""The tracer wraps wrlab from outside, nests spans, and restores the program."""
import json
import os

import numpy as np
import pytest

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)


@pytest.fixture
def tracer():
    import wrlab.cli  # noqa: F401  (imports every traced module)

    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_spans_nest_and_self_time_excludes_children(tracer):
    from wrlab import percolation
    from wrlab.geometry import Configuration, Window

    rng = np.random.default_rng(0)
    conf = Configuration(rng.uniform(0.0, 10.0, size=(400, 2)))
    percolation.largest_component_fraction(conf, 0.5, Window.cube(10.0, 2))
    spans = tracer.aggregate()
    outer = spans["percolation.largest_component_fraction"]
    inner = spans["geometry.build_components"]
    assert outer["calls"] == inner["calls"] == 1
    assert spans["geometry.Configuration"]["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    assert tracer.counts["geometry.build_components.points"] == 400
    assert set(tracer.parent) <= {-1, 0, 1, 2}


def test_uninstall_restores_every_binding():
    import wrlab.cli  # noqa: F401
    from wrlab import geometry, percolation, runner

    def bindings():
        return (percolation.build_components, runner.sample_poisson, geometry.Configuration.__init__)

    before = bindings()
    t = tracing.Tracer()
    t.install()
    try:
        assert percolation.build_components is not before[0]
        assert percolation.build_components is geometry.build_components
    finally:
        t.uninstall()
    assert bindings() == before


def test_unused_layers_report_zero():
    metrics = tracing.per_layer_metrics(tracing.Tracer(), 0.5, 100, 0.1)
    assert list(metrics) == [name for name, _, _ in tracing.LAYER_METRICS]
    assert metrics["wr_gibbs.run_wr_chain.calls"] == 0
    assert metrics["wr_gibbs.ess_per_s"] == 0.0
