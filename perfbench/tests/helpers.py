"""Reduced workloads for the benchmark's own tests."""

from dataclasses import replace

from workloads import Workload

#: Wire unit sizes small enough for a test, large enough to reach every
#: layer; statfl keeps one full report interval of 1000 packets.
REDUCED_SIZE = {"wire-traffic": 40, "wire-fastpath": 300}


def reduced(workload: str, seed: int = 0) -> Workload:
    """``workload`` with small units: fewer packets on the wire, fewer
    runs (at the full horizons) on the model."""
    bench = Workload(workload, seed)
    if workload == "model-mc":
        bench.units = [replace(unit, runs=50) for unit in bench.units]
        return bench
    size = REDUCED_SIZE[workload]
    bench.units = [
        replace(unit, size=1000 if unit.protocol == "statfl" else size)
        for unit in bench.units
    ]
    return bench


def run_pass(bench) -> dict:
    """Run every unit once; unit name -> digest (asserting clean outputs)."""
    digests = {}
    for unit in bench.units:
        outcome = bench.check(unit, bench.run(unit, bench.prepare(unit)))
        assert not outcome.problems, (unit.name, outcome.problems)
        digests[unit.name] = outcome.digest
    return digests
