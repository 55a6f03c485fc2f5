"""Output references: stored digests, and fastpath == event at one seed."""

import json
import os
from dataclasses import replace

import pytest
from helpers import reduced, run_pass
from workloads import FASTPATH_REQUESTS, Workload, digest, make_units

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(HERE, "references.json")) as handle:
    REFERENCES = json.load(handle)

#: The default seed and one seed held out while the benchmark was written.
STORED_SEEDS = ("0", "20081209")


def test_references_cover_every_unit_at_both_seeds():
    for workload, by_seed in REFERENCES.items():
        assert sorted(by_seed) == sorted(STORED_SEEDS)
        names = {unit.name for unit in make_units(workload, 0)}
        for seed in STORED_SEEDS:
            assert set(by_seed[seed]) == names


@pytest.mark.parametrize("seed", STORED_SEEDS)
@pytest.mark.parametrize("workload", ["wire-traffic", "wire-fastpath", "model-mc"])
def test_stored_references_match(workload, seed):
    bench = Workload(workload, int(seed))
    assert run_pass(bench) == REFERENCES[workload][seed]


def test_fastpath_outputs_equal_event_backend_at_the_same_seed():
    from repro.net.backend import get_backend

    bench = reduced("wire-fastpath", seed=0)
    assert [unit.protocol for unit in bench.units] == [p for p, _, _ in FASTPATH_REQUESTS]
    for unit in bench.units:
        backend, request = bench.prepare(unit)
        fast = bench.check(unit, backend.run(request))
        event = bench.check(unit, get_backend("event").run(request))
        assert fast.digest == event.digest, unit.name
        assert not fast.problems and not event.problems


def test_digest_ignores_work_counts_and_engine():
    from repro.net.backend import BackendRunResult

    bench = reduced("wire-fastpath")
    unit = bench.units[0]
    result = bench.run(unit, bench.prepare(unit))
    relabelled = BackendRunResult(
        convictions=result.convictions,
        estimates_last=result.estimates_last,
        engines=["event"] * unit.runs,
        reasons=["ported elsewhere"],
    )
    assert bench.check(unit, relabelled).digest == bench.check(unit, result).digest


def test_changed_output_changes_digest():
    bench = reduced("wire-fastpath")
    unit = bench.units[0]
    result = bench.run(unit, bench.prepare(unit))
    original = bench.check(unit, result).digest
    result.estimates_last[0, 0] += 1e-12
    assert digest(result.convictions, result.estimates_last) != original


def test_unit_inputs_follow_the_seed():
    assert make_units("model-mc", 1) == make_units("model-mc", 1)
    assert make_units("model-mc", 1) != make_units("model-mc", 2)
    sizes = [replace(unit, seed=0) for unit in make_units("wire-traffic", 1)]
    assert sizes == [replace(unit, seed=0) for unit in make_units("wire-traffic", 2)]
