"""Unit coverage for the fast-path building blocks: DrawStream's
bit-identity with ``random.Random``, HotPRF's identity with PRF,
CounterBatch semantics, and the backend-seam plumbing."""

import random

import pytest

from repro.crypto.prf import PRF, HotPRF
from repro.exceptions import ConfigurationError
from repro.net.backend import (
    BACKEND_NAMES,
    DetectionRequest,
    EventBackend,
    get_backend,
    run_seed,
    wire_send_interval,
)
from repro.net.fastpath import DrawStream, FastpathBackend, stream_seed
from repro.net.rng import RngFactory
from repro.obs.registry import (
    CounterBatch,
    MetricsRegistry,
    NullRegistry,
    using_registry,
)
from repro.workloads.scenarios import paper_scenario


class TestDrawStream:
    def test_matches_random_random_large_seed(self):
        seed = (37 << 32) | 12345  # numpy two-word path
        stream = DrawStream(seed)
        reference = random.Random(seed)
        assert [stream.random() for _ in range(10_000)] == [
            reference.random() for _ in range(10_000)
        ]

    def test_matches_random_random_small_seed(self):
        seed = 12345  # below 2**32: scalar fallback path
        stream = DrawStream(seed)
        reference = random.Random(seed)
        assert [stream.random() for _ in range(5_000)] == [
            reference.random() for _ in range(5_000)
        ]

    def test_matches_factory_stream(self):
        factory = RngFactory(982451653)
        for label in ("link-0", "link-5", "adversary-4"):
            stream = DrawStream(stream_seed(982451653, label))
            reference = factory.stream(label)
            assert [stream.random() for _ in range(100)] == [
                reference.random() for _ in range(100)
            ]

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            DrawStream(1 << 64)

    def test_stream_seed_matches_factory_method(self):
        assert stream_seed(7, "link-3") == RngFactory(7).stream_seed("link-3")


class TestHotPRF:
    def test_identical_to_prf(self):
        prf = PRF(b"k" * 32, label="statfl-sketch")
        hot = prf.hot()
        for index in range(200):
            data = b"packet-%d" % index
            assert hot.digest(data) == prf.digest(data)
            assert hot.fraction(data) == prf.fraction(data)
            for probability in (0.0, 0.01, 0.5, 1.0):
                assert hot.bernoulli(data, probability) == prf.bernoulli(
                    data, probability
                )

    @pytest.mark.parametrize("label", ["", "paai1-secure-sampling"])
    @pytest.mark.parametrize("key", [b"", b"k" * 16, bytes(range(64))])
    def test_identical_to_prf_for_labels_and_keys(self, label, key):
        prf = PRF(key, label=label)
        hot = prf.hot()
        for index in range(50):
            data = b"packet-%d" % index
            assert hot.digest(data) == prf.digest(data)
            assert hot.bernoulli(data, 0.3) == prf.bernoulli(data, 0.3)

    def test_long_key_hashed_like_hmac(self):
        key = bytes(range(200))  # above the 64-byte HMAC block
        prf = PRF(key, label="x")
        assert prf.hot().digest(b"data") == prf.digest(b"data")

    def test_bernoulli_validates_probability(self):
        hot = HotPRF(b"key")
        with pytest.raises(ValueError):
            hot.bernoulli(b"data", 1.5)


class TestCounterBatch:
    def test_batches_and_flushes_sums(self):
        registry = MetricsRegistry()
        batch = CounterBatch(registry)
        for _ in range(5):
            batch.inc("net.link.transmissions", link="0", kind="data")
        batch.inc("net.link.transmissions", 3, link="0", kind="data")
        batch.inc("net.link.transmissions", 2, link="1", kind="data")
        assert len(batch) == 2  # two pending label sets, not 10 events
        batch.flush()
        assert registry.counter_value(
            "net.link.transmissions", link="0", kind="data"
        ) == 8
        assert registry.counter_value(
            "net.link.transmissions", link="1", kind="data"
        ) == 2
        assert len(batch) == 0

    def test_zero_amount_is_dropped(self):
        batch = CounterBatch(MetricsRegistry())
        batch.inc("protocol.rounds", 0, protocol="full-ack")
        assert len(batch) == 0

    def test_disabled_registry_is_noop(self):
        batch = CounterBatch(NullRegistry())
        assert not batch.enabled
        batch.inc("protocol.rounds", 5, protocol="full-ack")
        assert len(batch) == 0
        batch.flush()  # must not raise

    def test_binds_active_registry_by_default(self):
        registry = MetricsRegistry()
        with using_registry(registry):
            batch = CounterBatch()
            batch.inc("protocol.rounds", 4, protocol="paai1")
            batch.flush()
        assert registry.counter_value(
            "protocol.rounds", protocol="paai1"
        ) == 4


class TestBackendSeam:
    def test_backend_names_resolve(self):
        assert BACKEND_NAMES == ("model", "fastpath", "event")
        assert isinstance(get_backend("event"), EventBackend)
        assert isinstance(get_backend("fastpath"), FastpathBackend)
        with pytest.raises(ConfigurationError):
            get_backend("model")  # handled by repro.mc.detection directly
        with pytest.raises(ConfigurationError):
            get_backend("warp")

    def test_request_validation(self):
        scenario = paper_scenario()
        with pytest.raises(ConfigurationError):
            DetectionRequest("full-ack", scenario, runs=0, horizon=10,
                             checkpoints=[10], seed=0)
        with pytest.raises(ConfigurationError):
            DetectionRequest("full-ack", scenario, runs=1, horizon=10,
                             checkpoints=[10, 5], seed=0)
        with pytest.raises(ConfigurationError):
            DetectionRequest("full-ack", scenario, runs=1, horizon=10,
                             checkpoints=[], seed=0)
        with pytest.raises(ConfigurationError):
            DetectionRequest("full-ack", scenario, runs=1, horizon=10,
                             checkpoints=[10], seed=0, run_offset=-1)

    def test_run_seed_is_stable_and_distinct(self):
        assert run_seed(0, 0) == run_seed(0, 0)
        assert run_seed(0, 0) != run_seed(0, 1)
        assert run_seed(0, 0) != run_seed(1, 0)

    def test_send_interval_serializes_rounds(self):
        params = paper_scenario().params
        assert wire_send_interval(params) == 6.0 * params.r0
