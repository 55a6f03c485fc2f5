"""Wrapper hygiene: what the tracer patches, restores and counts."""

import importlib
import sys
from time import perf_counter

import pytest
from helpers import reduced, run_pass
from tracer import LAYERS, SELF_LAYERS, Tracer, import_program

from repro.obs.registry import MetricsRegistry, using_registry

import_program()


def _bindings():
    """Every ``repro`` module global and class attribute, by identity."""
    seen = {}
    for name in sorted(sys.modules):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(sys.modules[name]).items()):
            seen[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for key, member in list(vars(value).items()):
                    seen[(name, attr, key)] = id(member)
    return seen


def test_function_patched_at_every_module_that_bound_it():
    from repro.crypto.hashing import packet_identifier

    # The package re-exports the function ``mac``, which shadows the module.
    mac = importlib.import_module("repro.crypto.mac")
    prf = importlib.import_module("repro.crypto.prf")

    original = mac.hmac_sha256
    assert prf.hmac_sha256 is original  # bound by name in repro.crypto.prf
    with Tracer():
        for name in sorted(sys.modules):
            if name.startswith("repro"):
                for value in vars(sys.modules[name]).values():
                    assert value is not original, name
                    assert value is not packet_identifier, name
        assert prf.hmac_sha256.__wrapped__ is original
        assert mac.hmac_sha256.__wrapped__ is original


def test_methods_patched_on_every_overriding_subclass():
    from repro.net.node import Node
    from repro.protocols.fullack import FullAckSource

    with Tracer():
        assert hasattr(vars(FullAckSource)["on_packet"], "__wrapped__")
        assert hasattr(vars(Node)["on_packet"], "__wrapped__")


def test_uninstall_restores_every_original_exactly():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    assert _bindings() != before
    tracer.uninstall()
    assert _bindings() == before


def test_install_twice_is_refused():
    with Tracer() as tracer:
        with pytest.raises(RuntimeError):
            tracer.install()


def test_every_layer_target_resolves():
    from tracer import _resolve

    for target, *_ in LAYERS:
        assert _resolve(target), target


def test_counts_equal_registry_counters_on_a_small_unit():
    from repro.net.simulator import Simulator
    from repro.workloads.scenarios import paper_scenario

    scenario = paper_scenario()
    registry = MetricsRegistry()
    tracer = Tracer()
    with using_registry(registry), tracer:
        for name, packets in (("full-ack", 60), ("paai1", 60), ("paai2", 40)):
            protocol = scenario.build_protocol(name, Simulator(seed=3))
            protocol.run_traffic(packets, 1000.0)
    counts = tracer.metrics()
    assert counts["sim.events"] == registry.counter_total("sim.events") > 0
    assert counts["crypto.hmac.calls"] == registry.counter_total("crypto.hmac.calls") > 0
    assert counts["crypto.prf.calls"] == registry.counter_total("crypto.prf.calls") > 0


@pytest.mark.parametrize("workload", ["wire-traffic", "wire-fastpath", "model-mc"])
def test_two_traced_runs_give_identical_counts(workload):
    counts = []
    for _ in range(2):
        bench = reduced(workload, seed=5)
        tracer = Tracer()
        with tracer:
            run_pass(bench)
        counts.append(tracer.work_counts())
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def _traced(workload):
    bench = reduced(workload)
    tracer = Tracer()
    with tracer:
        run_pass(bench)
    return tracer


def test_model_mc_touches_no_wire_layer():
    metrics = _traced("model-mc").metrics()
    for name in ("events.popped", "sim.events", "crypto.hmac.calls", "link.transmits",
                 "node.deliveries", "agent.handler_calls", "fastpath.rounds",
                 "backend.runs"):
        assert metrics[name] == 0, name
    assert metrics["model.shards"] > 0 and metrics["models.probabilities_calls"] > 0


def test_wire_fastpath_runs_events_only_inside_fallback_requests():
    tracer = _traced("wire-fastpath")
    metrics = tracer.metrics()
    assert tracer.events_outside_backend == 0
    assert metrics["sim.events"] > 0  # paai2/combo fall back today
    assert metrics["backend.fallback_runs"] == 3
    assert metrics["fastpath.rounds"] > 0 and metrics["fastpath.draws"] > 0
    assert metrics["model.shards"] == 0


def test_wire_traffic_touches_no_backend_or_model_layer():
    metrics = _traced("wire-traffic").metrics()
    for name in ("backend.runs", "fastpath.rounds", "fastpath.draws",
                 "model.shards", "models.probabilities_calls"):
        assert metrics[name] == 0, name
    for name in ("events.popped", "crypto.hmac.calls", "crypto.sig.calls",
                 "crypto.onion.calls", "crypto.oblivious.calls", "link.transmits",
                 "agent.handler_calls", "adversary.decisions", "scoring.calls"):
        assert metrics[name] > 0, name
    assert metrics["events.popped"] == metrics["sim.events"]


def test_self_times_fit_inside_the_traced_pass():
    bench = reduced("wire-traffic")
    tracer = Tracer()
    start = perf_counter()
    with tracer:
        run_pass(bench)
    wall = perf_counter() - start
    metrics = tracer.metrics()
    self_times = [metrics[f"{layer}.self_s"] for layer in SELF_LAYERS]
    assert all(value >= 0 for value in self_times)
    assert 0 < sum(self_times) <= wall
    assert 0 < metrics["events.self_s"] < metrics["sim.run_s"] <= wall


def test_per_layer_metrics_match_benchmark_json():
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = {metric["name"] for metric in spec["per_layer"]}
    assert names == set(Tracer().metrics()) | {"trace.overhead_frac"}
