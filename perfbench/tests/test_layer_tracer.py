"""Tests of the benchmark's layer tracer.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import pkgutil
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jsonschema  # noqa: E402
import pytest  # noqa: E402

import layer_tracer  # noqa: E402
import repro  # noqa: E402
from layer_tracer import (CALLS, INCL, ITEMS, LAYERS, POOL_WAIT,  # noqa: E402
                          SELF, LayerTracer, layer_of, repro_modules)
from repro.campaign import (ScenarioSpec, TraceSpec, execute_spec,  # noqa: E402
                            run_campaign)

SCHEMA = ROOT / "tests" / "data" / "chrome_trace_event.schema.json"


def tiny_spec(seed: int = 1) -> ScenarioSpec:
    return ScenarioSpec(trace=TraceSpec.for_family("W2", duration=4.0,
                                                   seed=seed),
                        protocol="rtp", cca="gcc", ap_mode="zhuge",
                        duration=2.0, warmup=0.5, seed=seed)


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def keep_every_span(monkeypatch):
    monkeypatch.setattr(layer_tracer, "MIN_SPAN_NS", 0)


class TestSelfTime:
    def test_nested_spans(self, keep_every_span):
        clock = FakeClock()
        tracer = LayerTracer(clock=clock)
        inner = tracer._wrap(lambda: clock.advance(30), "q.inner", "net")

        def outer_body():
            clock.advance(10)
            inner()
            clock.advance(5)
            inner()
            clock.advance(7)

        tracer._wrap(outer_body, "q.outer", "sim")()
        assert tracer.stats["q.inner"][CALLS] == 2
        assert tracer.stats["q.inner"][SELF] == 60
        assert tracer.stats["q.outer"][INCL] == 82
        assert tracer.stats["q.outer"][SELF] == 22
        by_layer = tracer.self_ns_by_layer()
        assert by_layer["sim"] == 22 and by_layer["net"] == 60
        assert tracer.top_ns[0] == 82
        assert len(tracer.spans) == 3

    def test_three_levels_and_recursion(self):
        clock = FakeClock()
        tracer = LayerTracer(clock=clock)
        leaf = tracer._wrap(lambda: clock.advance(4), "q.leaf", "cca")

        def rec(depth):
            clock.advance(1)
            if depth:
                recurse(depth - 1)
            leaf()

        recurse = tracer._wrap(rec, "q.rec", "transport")
        tracer._wrap(lambda: (clock.advance(2), recurse(2)), "q.root",
                     "sim")()
        # rec runs 3 times, 1 ns of its own each; leaf 3 x 4 ns.
        assert tracer.stats["q.rec"][SELF] == 3
        assert tracer.stats["q.leaf"][SELF] == 12
        assert tracer.stats["q.root"][SELF] == 2
        assert sum(tracer.self_ns_by_layer().values()) == tracer.top_ns[0]
        assert tracer.top_ns[0] == 17

    def test_exception_still_closes_the_span(self):
        clock = FakeClock()
        tracer = LayerTracer(clock=clock)

        def boom():
            clock.advance(9)
            raise KeyError("x")

        wrapped = tracer._wrap(boom, "q.boom", "core")
        with pytest.raises(KeyError):
            tracer._wrap(wrapped, "q.outer", "sim")()
        assert tracer.stats["q.boom"][SELF] == 9
        assert tracer.stats["q.outer"][SELF] == 0
        assert tracer._stack == []

    def test_batch_calls_count_items(self):
        tracer = LayerTracer()

        class Teller:
            def observe_departure_batch(self, packets):
                return len(packets)

        wrapped = tracer._wrap(Teller.observe_departure_batch,
                               "q.observe_departure_batch", "core")
        wrapped(Teller(), [1, 2, 3])
        wrapped(Teller(), [4])
        stat = tracer.stats["q.observe_departure_batch"]
        assert stat[CALLS] == 2 and stat[ITEMS] == 4


class TestLayers:
    def test_every_subpackage_is_a_layer(self):
        subpackages = [info.name for info in pkgutil.iter_modules(
            repro.__path__) if info.ispkg]
        assert subpackages
        for name in subpackages:
            assert layer_of(f"repro.{name}") == name
            assert name in LAYERS

    def test_every_module_maps(self):
        for module in repro_modules():
            assert layer_of(module.__name__) in LAYERS

    def test_non_repro_module_rejected(self):
        with pytest.raises(ValueError):
            layer_of("numpy.linalg")


CALLABLE_KINDS = (types.FunctionType, staticmethod, classmethod, property)


def _callables(namespace) -> dict:
    return {name: value for name, value in namespace.items()
            if isinstance(value, CALLABLE_KINDS)}


def _attribute_snapshot() -> dict:
    """Every function-like attribute of every repro module and class."""
    snap = {}
    for module in repro_modules():
        snap[module.__name__] = _callables(vars(module))
        for obj in list(vars(module).values()):
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                snap[f"{module.__name__}:{obj.__qualname__}"] = _callables(
                    vars(obj))
    return snap


class TestInstall:
    def test_uninstall_restores_everything(self):
        before = _attribute_snapshot()
        tracer = LayerTracer()
        with tracer:
            assert tracer._patches
            summary = execute_spec(tiny_spec())
        assert not tracer._patches
        after = _attribute_snapshot()
        assert before.keys() == after.keys()
        for owner, attrs in before.items():
            for name, value in attrs.items():
                assert after[owner][name] is value, f"{owner}.{name}"
        for attrs in after.values():
            for value in attrs.values():
                for fn in (value, getattr(value, "__func__", None),
                           getattr(value, "fget", None)):
                    assert getattr(fn, "__layer_tracer__", None) is None
        # The traced run simulated exactly what an untraced one does.
        assert summary.digest() == execute_spec(tiny_spec()).digest()
        assert tracer.stats["repro.sim.engine.Simulator.run"][CALLS] == 1

    def test_one_tracer_at_a_time(self):
        with LayerTracer():
            with pytest.raises(RuntimeError):
                LayerTracer().install()


class TestChromeTrace:
    def test_trace_validates_against_schema(self, tmp_path,
                                            keep_every_span, monkeypatch):
        monkeypatch.setattr(layer_tracer, "MAX_SPANS", 5000)
        tracer = LayerTracer()
        with tracer:
            origin = tracer.clock()
            execute_spec(tiny_spec())
        path = tmp_path / "layers.json"
        tracer.write_chrome_trace(path, origin)
        trace = json.loads(path.read_text())
        jsonschema.validate(trace, json.loads(SCHEMA.read_text()))
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 5000
        assert {e["cat"] for e in spans} <= set(LAYERS) | {POOL_WAIT}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in spans)


class TestPoolWorkers:
    def test_worker_spans_are_collected(self):
        tracer = LayerTracer()
        with tracer:
            spool = tracer._spool
            start = tracer.clock()
            result = run_campaign([tiny_spec(1), tiny_spec(2)], jobs=2)
            wall = tracer.clock() - start
        assert result.ok == 2
        assert not spool.exists()
        assert len(tracer.workers) == 2
        stats = tracer.merged_stats()
        assert stats["repro.sim.engine.Simulator.run"][CALLS] == 2
        # The whole pool attempt is recorded, not only the cell body:
        # spec decoding and the summary payload are worker work too.
        assert stats["repro.campaign.runner._pool_cell"][CALLS] == 2
        assert stats["repro.campaign.spec.ScenarioSpec.from_dict"][CALLS] >= 2
        by_layer = tracer.self_ns_by_layer()
        assert by_layer[POOL_WAIT] > 0
        # Main-process self time covers its top-level spans; each worker
        # record's spans cover nearly all of its window.
        worker_self = sum(stat[SELF] for record in tracer.workers
                          for stat in record["stats"].values())
        assert sum(by_layer.values()) == tracer.top_ns[0] + worker_self
        assert 0.95 * tracer.worker_ns() <= worker_self <= tracer.worker_ns()
        assert tracer.top_ns[0] <= wall
