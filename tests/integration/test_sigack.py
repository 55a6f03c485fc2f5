"""Integration tests for the sig-ack protocol (footnote 1's asymmetric
variant): same localization behavior as full-ack, radically worse
overhead — which is the point."""

import pytest

from repro.core.params import ProtocolParams
from repro.metrics.comm import summarize_communication
from repro.net.simulator import Simulator
from repro.protocols.registry import make_protocol
from repro.workloads.scenarios import paper_scenario


def small_params(**overrides):
    defaults = dict(path_length=4, natural_loss=0.0, alpha=0.03)
    defaults.update(overrides)
    return ProtocolParams(**defaults)


class TestLocalization:
    def test_lossless_path_no_blame(self):
        simulator = Simulator(seed=1)
        protocol = make_protocol("sig-ack", simulator, small_params())
        protocol.run_traffic(count=100, rate=1000.0)
        assert protocol.board.scores == [0, 0, 0, 0]
        assert protocol.path.stats.data_delivered == 100

    @pytest.mark.parametrize("bad_link", [0, 1, 2, 3])
    def test_dead_link_localized(self, bad_link):
        loss = [0.0] * 4
        loss[bad_link] = 1.0
        simulator = Simulator(seed=2)
        protocol = make_protocol(
            "sig-ack", simulator, small_params(), natural_loss=loss
        )
        protocol.run_traffic(count=40, rate=1000.0)
        scores = protocol.board.scores
        assert scores[bad_link] == protocol.board.rounds
        assert protocol.identify().convicted == {bad_link}

    def test_paper_scenario_convicts_l4(self):
        scenario = paper_scenario()
        simulator = Simulator(seed=3)
        protocol = scenario.build_protocol("sig-ack", simulator)
        protocol.run_traffic(count=1500, rate=1000.0)
        assert protocol.identify().convicted == {4}, protocol.estimates()


class TestSameRoundAsFullAck:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("rate", [100.0, 1000.0])
    def test_paper_scenario_matches_full_ack(self, seed, rate):
        """Sig-ack runs full-ack's agents with signatures in place of MACs;
        signatures draw nothing from the simulator's streams, so every
        score, round, estimate and event matches full-ack exactly."""
        scenario = paper_scenario()

        def outcome(name):
            simulator = Simulator(seed=seed)
            protocol = scenario.build_protocol(name, simulator)
            protocol.run_traffic(count=300, rate=rate)
            board = protocol.board
            return (board.scores, board.rounds, protocol.estimates(),
                    simulator.events_processed)

        assert outcome("sig-ack") == outcome("full-ack")


class TestSignatureSecurity:
    def test_forged_report_cannot_shift_blame_upstream(self):
        """A malicious F2 that replaces the report with junk is cut off at
        depth 2: the source blames l2, adjacent to the forger."""
        from repro.adversary.forge import ReportForger

        simulator = Simulator(seed=4)
        protocol = make_protocol(
            "sig-ack", simulator, small_params(natural_loss=0.02, alpha=0.05)
        )
        protocol.path.nodes[2].adversary = ReportForger(
            rate=1.0, rng=simulator.rng.stream("forger"), mode="replace",
            targets="reports",
        )
        protocol.run_traffic(count=300, rate=1000.0)
        estimates = protocol.estimates()
        # Report acks exist only for probed (lost) rounds; all of them get
        # forged and cut off at l1 (the link where the valid chain ends).
        assert estimates.index(max(estimates)) in (1, 2)

    def test_pool_exhaustion_regenerates(self):
        """On a lossless path the destination signs every e2e ack, so a
        tiny pool (2^3 keys) is exhausted dozens of times; regeneration
        must be seamless — every ack still verifies, no blame appears."""
        simulator = Simulator(seed=5)
        protocol = make_protocol(
            "sig-ack", simulator, small_params(),
            pool_height=3,
        )
        protocol.run_traffic(count=200, rate=1000.0)
        assert protocol.total_key_regenerations() >= 20
        assert protocol.board.scores == [0, 0, 0, 0]
        assert protocol.board.rounds == 200
        assert protocol.identify().convicted == set()


class TestOverheadComparison:
    def test_signature_overhead_dwarfs_symmetric(self):
        """The quantified footnote 1: sig-ack's wire overhead exceeds
        full-ack's by >100x on the same workload (multi-KiB signatures vs
        8-byte MACs)."""
        scenario = paper_scenario()

        def overhead(name):
            simulator = Simulator(seed=6)
            protocol = scenario.build_protocol(name, simulator)
            protocol.run_traffic(count=300, rate=1000.0)
            return summarize_communication(protocol).overhead_ratio

        sig = overhead("sig-ack")
        mac = overhead("full-ack")
        assert sig > 1.0         # more control bytes than data bytes
        assert mac < 0.05        # a few percent
        assert sig / mac > 50
