"""Tests of the Monte-Carlo detection engine: FP/FN curves behave like
Figure 2, convergence scales match Table 2's ordering, and the engine's
verdicts line up with wire-simulation ground truth."""

import numpy as np
import pytest

from repro.crypto.hashing import hash_bytes
from repro.exceptions import ConfigurationError
from repro.mc.detection import DetectionExperiment, default_checkpoints
from repro.protocols import models
from repro.workloads.scenarios import paper_scenario

SCENARIO = paper_scenario()


class TestDefaultCheckpoints:
    def test_log_spaced_and_capped(self):
        points = default_checkpoints(100_000, points=20)
        assert points[0] >= 10
        assert points[-1] == 100_000
        assert points == sorted(points)
        assert len(set(points)) == len(points)

    def test_small_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            default_checkpoints(5)


class TestFullAckDetection:
    def test_converges_near_table2(self):
        """Full-ack: theory bound 1500 packets; the simulated average is
        'nearly twice better' (Table 2: ~1000 packets). Accept the band
        [200, 1500] for the population convergence point."""
        experiment = DetectionExperiment(
            "full-ack", SCENARIO, runs=2000, horizon=4000, seed=1
        )
        result = experiment.run()
        converged = result.convergence_packets(SCENARIO.params.sigma)
        assert converged is not None
        assert 200 <= converged <= 1500, converged

    def test_fp_fn_decay_monotonically_in_trend(self):
        experiment = DetectionExperiment(
            "full-ack", SCENARIO, runs=1000, horizon=4000, seed=2
        )
        curve = experiment.run().curve
        # Late rates must be far below early rates.
        assert curve.fn_rates[0] > 0.5
        assert curve.fn_rates[-1] < 0.01
        assert curve.fp_rates[-1] < 0.01

    def test_final_estimates_concentrate_correctly(self):
        experiment = DetectionExperiment(
            "full-ack", SCENARIO, runs=500, horizon=4000, seed=3
        )
        result = experiment.run()
        means = result.estimates_last.mean(axis=0)
        # Malicious link ~ 2*rho + 2*beta ~ 0.058; honest ~ 2*rho ~ 0.02.
        assert 0.045 < means[4] < 0.07
        for link in (0, 1, 2, 3):
            assert 0.012 < means[link] < 0.027, (link, means)


class TestPaai1Detection:
    def test_converges_near_table2(self):
        """PAAI-1 at p=1/36: bound 5.4e4, simulated average ~2.5e4."""
        experiment = DetectionExperiment(
            "paai1", SCENARIO, runs=800, horizon=80_000, seed=4
        )
        result = experiment.run()
        converged = result.convergence_packets(SCENARIO.params.sigma)
        assert converged is not None
        assert 8_000 <= converged <= 60_000, converged

    def test_average_detection_faster_than_bound(self):
        experiment = DetectionExperiment(
            "paai1", SCENARIO, runs=400, horizon=80_000, seed=5
        )
        result = experiment.run()
        average = result.average_detection_packets()
        assert average < 5.4e4  # beats the theory bound on average


class TestPaai2Detection:
    def test_slower_than_paai1(self):
        paai1 = DetectionExperiment(
            "paai1", SCENARIO, runs=300, horizon=120_000, seed=6
        ).run()
        paai2 = DetectionExperiment(
            "paai2", SCENARIO, runs=300, horizon=120_000, seed=6
        ).run()
        c1 = paai1.convergence_packets(0.05)
        c2 = paai2.convergence_packets(0.05)
        assert c1 is not None
        # PAAI-2 either converges later or not at all within this horizon.
        assert c2 is None or c2 > c1

    def test_distant_links_converge_slower(self):
        """Figure 2(c)'s observation: estimates for links farther from the
        source carry more variance under interval scoring."""
        experiment = DetectionExperiment(
            "paai2", SCENARIO, runs=600, horizon=30_000, seed=7
        )
        result = experiment.run()
        variances = result.estimates_last.var(axis=0)
        assert variances[4] > variances[0], variances


class TestStatFLDetection:
    def test_far_slower_than_paai1(self):
        statfl = DetectionExperiment(
            "statfl", SCENARIO, runs=300, horizon=200_000, seed=8,
            fl_sampling=0.01,
        ).run()
        converged = statfl.convergence_packets(SCENARIO.params.sigma)
        # At 2e5 packets statFL (detection rate ~2e7) must NOT be converged.
        assert converged is None or converged > 100_000

    def test_estimates_unbiased(self):
        statfl = DetectionExperiment(
            "statfl", SCENARIO, runs=400, horizon=100_000, seed=9,
            fl_sampling=0.05,
        ).run()
        means = statfl.estimates_last.mean(axis=0)
        # Forward rates: rho everywhere except the combined rate at l4.
        assert abs(means[0] - 0.01) < 0.01
        assert abs(means[4] - 0.0296) < 0.012


class TestCombinationProtocols:
    def test_combo1_matches_paai1_scale(self):
        combo1 = DetectionExperiment(
            "combo1", SCENARIO, runs=300, horizon=80_000, seed=10
        ).run()
        converged = combo1.convergence_packets(0.05)
        assert converged is not None
        assert converged <= 80_000

    def test_combo2_slowest(self):
        combo2 = DetectionExperiment(
            "combo2", SCENARIO, runs=200, horizon=100_000, seed=11
        ).run()
        # Combination 2 (PAAI-2 / p) cannot converge at 1e5 packets.
        assert combo2.convergence_packets(SCENARIO.params.sigma) is None


class TestValidation:
    def test_bad_runs(self):
        with pytest.raises(ConfigurationError):
            DetectionExperiment("full-ack", SCENARIO, runs=0)

    def test_bad_checkpoints(self):
        with pytest.raises(ConfigurationError):
            DetectionExperiment(
                "full-ack", SCENARIO, checkpoints=[100, 10], horizon=1000
            )
        with pytest.raises(ConfigurationError):
            DetectionExperiment(
                "full-ack", SCENARIO, checkpoints=[100, 2000], horizon=1000
            )


#: sha256 of (convictions, estimates_last, FP rates, FN rates), recorded
#: before the model plan existed: 90 runs, horizon 2000, seed 7, on the
#: default grid and on a grid whose repeated checkpoint is a zero-length
#: block.
PLAN_DIGESTS = [
    ("full-ack", 1, "default", "69b3e7590ec4b423c119d556e7c52a11bb0d5fefc4c0178b1b04a5eca0bf920a"),
    ("full-ack", 1, "repeat", "2e1692faa173a12a6a9da901981cd162ed3d39d54f54147ef3f7000e236dc6a8"),
    ("full-ack", 3, "default", "fd313765ce2f6989f6ab4ba5b91c4dcaf057f926f6e6823432c442fb33a821c0"),
    ("full-ack", 3, "repeat", "82fdbc78c4a837537f927e4c5aa96263c3036a60beef0ca4302f1b0df5591209"),
    ("sig-ack", 1, "default", "69b3e7590ec4b423c119d556e7c52a11bb0d5fefc4c0178b1b04a5eca0bf920a"),
    ("sig-ack", 1, "repeat", "2e1692faa173a12a6a9da901981cd162ed3d39d54f54147ef3f7000e236dc6a8"),
    ("sig-ack", 3, "default", "fd313765ce2f6989f6ab4ba5b91c4dcaf057f926f6e6823432c442fb33a821c0"),
    ("sig-ack", 3, "repeat", "82fdbc78c4a837537f927e4c5aa96263c3036a60beef0ca4302f1b0df5591209"),
    ("paai1", 1, "default", "9f3f7e1f26f1e22036b91f68af9186938cccf0841f86d5a6f10bdb536ce7859b"),
    ("paai1", 1, "repeat", "a78ad3f092d4ef20705f09dec599fe93b93048bdef687642c035329f0641514b"),
    ("paai1", 3, "default", "82ad18b399a9ec96cd32add48303845921bea4adc8d3e9a26d7a7fea59f6eeba"),
    ("paai1", 3, "repeat", "9b05d7eb17a595da09baf19fe5a5e0357d68ba50779802dfb048ae6beb130ed9"),
    ("paai2", 1, "default", "a5be00c966d6dd20ed81a907640b6359b7dae831e205b25c6961db4bf5278fc8"),
    ("paai2", 1, "repeat", "423b91e852074495be4a24e291fc43e30ab1e132dfe7377158b240a135a65e58"),
    ("paai2", 3, "default", "49471294e741fc5fb3b23db9f6c9c323042340655503942b54436a951eb2652e"),
    ("paai2", 3, "repeat", "03447e3c55df97f945e171f25006cced54294a4c2767cdfdb7b2224f4baaafed"),
    ("combo1", 1, "default", "f3f9dc6248cfc8b95cc5977e372788f69def99432851c133f0d05f9b21c81c9d"),
    ("combo1", 1, "repeat", "a40edc16c594053d4ab25b87cf29705c2c1c36049d55bece12e0240b336017fa"),
    ("combo1", 3, "default", "8463526c07a8f9a80e7f5aa54b65b089fa6bbfb47ff0fadbfd7f5dafc63461f3"),
    ("combo1", 3, "repeat", "3597aa86cc8f51aa7f55d8da78c5e6282bcc7bddff65154ab4d07c60a8aad253"),
    ("combo2", 1, "default", "595f6a54aa9e028a613f6bafc0a55854857533fe2a815836b5869104506664d5"),
    ("combo2", 1, "repeat", "c72eed29bcc796c71d5fb7b747a2754ed01c2ebc55c2cc79e7a67f27307667a1"),
    ("combo2", 3, "default", "553ad7997dbb22e11b917e31dfea0b809733774a5b0d1aa6a84c8b7c0dc1e43f"),
    ("combo2", 3, "repeat", "1830ad433954a88157f0afdf46c702679513d32dc51802310d9a9df9a06d789b"),
    ("statfl", 1, "default", "f9835fcfad0638f8eb43a2bda7dbcf9b3eb33a882904c73cfed913bbb707ceb5"),
    ("statfl", 1, "repeat", "1db06ac95c98f8453c28a3e1f2084339bb43dcda25ea96e9fd8f07598f7affea"),
    ("statfl", 3, "default", "ff0c03b768f1938d7c4e3931baa60dff120c9d2378861ebd1100899259f3da6b"),
    ("statfl", 3, "repeat", "31fc88c6a265c9af07dd62a45de8a9c228ee336574103158c9f0df1060216257"),
]

REPEATED_GRID = [10, 50, 50, 400, 2000]


def _result_digest(result):
    """sha256 over each array's dtype, shape and bytes, in order."""
    parts = []
    for value in (
        result.convictions,
        result.estimates_last,
        np.asarray(result.curve.fp_rates),
        np.asarray(result.curve.fn_rates),
    ):
        array = np.ascontiguousarray(value)
        parts += [f"{array.dtype.str}{array.shape}".encode(), array.tobytes()]
    return hash_bytes(b"".join(parts)).hex()


class TestModelPlan:
    """The draw-independent model inputs are built once per ``run()``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"build_model": 0, "calibrated_thresholds": 0}
        for name in counts:
            original = getattr(models, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(models, name, counted)
        return counts

    @pytest.mark.parametrize("protocol", ["full-ack", "paai2", "statfl"])
    def test_thresholds_once_per_run(self, calls, protocol):
        DetectionExperiment(
            protocol, SCENARIO, runs=40, horizon=500, seed=1, shards=4
        ).run(jobs=1)
        assert calls["calibrated_thresholds"] == 1

    def test_build_model_count_independent_of_shards(self, calls):
        per_shards = {}
        for shards in (1, 4):
            calls["build_model"] = 0
            DetectionExperiment(
                "paai1", SCENARIO, runs=40, horizon=500, seed=1, shards=shards
            ).run(jobs=1)
            per_shards[shards] = calls["build_model"]
        # One for the plan, d + 1 = 7 inside calibrated_thresholds.
        assert per_shards == {1: 8, 4: 8}

    @pytest.mark.parametrize("protocol, shards, grid, expected", PLAN_DIGESTS)
    def test_outputs_unchanged(self, protocol, shards, grid, expected):
        result = DetectionExperiment(
            protocol,
            SCENARIO,
            runs=90,
            horizon=2000,
            checkpoints=REPEATED_GRID if grid == "repeat" else None,
            seed=7,
            shards=shards,
        ).run()
        assert _result_digest(result) == expected
