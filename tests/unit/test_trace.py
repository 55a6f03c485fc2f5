"""Packet-level checks of path tracing through RoundTraceCollector."""

import pytest

from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.net.packets import PacketKind
from repro.net.simulator import Simulator
from repro.obs.tracing import DELIVER, LOSS, SEND, RoundTraceCollector
from repro.protocols.registry import make_protocol


def traced_run(natural_loss=0.0, count=20, seed=0, capacity=10_000):
    params = ProtocolParams(path_length=3, natural_loss=natural_loss, alpha=0.8)
    simulator = Simulator(seed=seed)
    protocol = make_protocol("full-ack", simulator, params)
    collector = RoundTraceCollector(capacity=capacity)
    collector.attach(protocol.path)
    packets = []
    original_send = protocol.source.send_data

    def capture():
        packets.append(original_send())

    for index in range(count):
        simulator.schedule_at(index * 0.001, capture)
    simulator.run(until=count * 0.001 + 4 * params.r0)
    return protocol, collector, packets


def all_events(collector):
    return [event for span in collector.spans() for event in span.events]


class TestTracing:
    def test_records_full_round(self):
        _, collector, packets = traced_run()
        events = collector.span_for(packets[0].identifier).events
        # Data forward over 3 links + e2e ack back over 3 links, each with
        # a send and a deliver event.
        sends = [e for e in events if e["kind"] == SEND]
        delivers = [e for e in events if e["kind"] == DELIVER]
        assert len(sends) == 6
        assert len(delivers) == 6
        assert all(e["kind"] != LOSS for e in events)

    def test_time_ordered(self):
        _, collector, packets = traced_run(count=10)
        events = collector.span_for(packets[3].identifier).events
        times = [event["t"] for event in events]
        assert times == sorted(times)

    def test_losses_recorded(self):
        _, collector, _ = traced_run(natural_loss=0.5, count=50, seed=3)
        losses = [e for e in all_events(collector) if e["kind"] == LOSS]
        assert losses
        assert all(event["link"] is not None for event in losses)

    def test_probe_traffic_traced_on_lossy_path(self):
        _, collector, _ = traced_run(natural_loss=0.4, count=50, seed=4)
        kinds = {event["packet"] for event in all_events(collector)}
        assert PacketKind.PROBE.value in kinds
        assert PacketKind.ACK.value in kinds

    def test_ring_buffer_bounded(self):
        _, collector, _ = traced_run(count=50, capacity=10)
        assert len(collector) == 10

    def test_tracing_does_not_change_behavior(self):
        """A traced run and an untraced run with the same seed must end in
        identical score boards."""
        params = ProtocolParams(path_length=3, natural_loss=0.2, alpha=0.5)

        def run(traced):
            simulator = Simulator(seed=9)
            protocol = make_protocol("full-ack", simulator, params)
            if traced:
                RoundTraceCollector().attach(protocol.path)
            protocol.run_traffic(count=100, rate=1000.0)
            return protocol.board.scores

        assert run(traced=True) == run(traced=False)

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            RoundTraceCollector(capacity=0)
        with pytest.raises(ConfigurationError):
            RoundTraceCollector(capacity=-1)


class TestInstallLifecycle:
    def make(self):
        params = ProtocolParams(path_length=2)
        simulator = Simulator(seed=0)
        protocol = make_protocol("full-ack", simulator, params)
        collector = RoundTraceCollector()
        collector.attach(protocol.path)
        return protocol, collector

    def test_double_install_never_double_records(self):
        protocol, collector = self.make()
        collector.attach(protocol.path)  # idempotent: no second hook
        protocol.run_traffic(count=1, rate=1000.0)
        (span,) = collector.spans()
        sends = [e for e in span.events if e["kind"] == SEND]
        # Data forward over 2 links + ack back over 2 links, once each.
        assert len(sends) == 4

    def test_two_tracers_record_independently(self):
        protocol, collector = self.make()
        second = RoundTraceCollector()
        second.attach(protocol.path)
        protocol.run_traffic(count=2, rate=1000.0)
        assert len(collector) == len(second) == 2
        assert [s.to_dict() for s in collector.spans()] == [
            s.to_dict() for s in second.spans()
        ]
