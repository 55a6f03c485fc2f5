"""The benchmark's three workloads and the units each one runs.

A *unit* is one call into a public entry point of the program:

``wire-traffic``
    ``WireProtocol.run_traffic`` on a freshly built ``paper_scenario()``
    protocol. Building the protocol is outside the unit's timer (it is
    part of the pass's wall time).
``wire-fastpath``
    ``get_backend("fastpath").run(DetectionRequest)``.
``model-mc``
    ``DetectionExperiment(..., backend="model").run(jobs=1)``.

Every unit's inputs derive from the workload seed (:func:`unit_seed`);
sizes are fixed so each seed does the same amount of work. A unit's
*digest* covers only its detection outputs — never work counts or the
engine that produced them — so a change that removes work, or ports a
protocol off the event fallback, keeps the digests as long as its outputs
are byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Every workload name, in the order the benchmark documents them.
WORKLOADS = ("wire-traffic", "wire-fastpath", "model-mc")

#: Paper sending rates (pkt/s) the wire-traffic units alternate between.
RATES = (100.0, 1000.0)


@dataclass(frozen=True)
class Unit:
    """One unit of a workload: what to run and with which inputs."""

    name: str
    protocol: str
    seed: int
    #: wire-traffic: packets sent; otherwise the horizon (rounds per run).
    size: int
    runs: int = 1
    rate: float = 0.0

    @property
    def packets(self) -> int:
        """Simulated data packets: packets sent, or runs x horizon."""
        return self.size * self.runs


def unit_seed(workload: str, seed: int, index: int) -> int:
    """Per-unit 32-bit seed derived from the workload seed."""
    data = f"perfbench/{workload}/{seed}/{index}".encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:4], "big")


def digest(*arrays) -> str:
    """sha256 over the dtype, shape and bytes of each array."""
    hasher = hashlib.sha256()
    for value in arrays:
        array = np.ascontiguousarray(value)
        hasher.update(f"{array.dtype.str}{array.shape}".encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


# -- unit lists ----------------------------------------------------------------

#: wire-traffic packet counts per protocol, sized so the units take about
#: the same host time; statfl needs 1000 packets for one report interval,
#: and a sig-ack unit is short because building the protocol (its Merkle
#: key pools) is most of its cost.
TRAFFIC_PACKETS = {
    "full-ack": 740,
    "paai1": 1240,
    "paai2": 550,
    "statfl": 1000,
    "combo1": 1150,
    "combo2": 1050,
    "sig-ack": 60,
}

#: wire-fastpath ``(protocol, runs, horizon)``: the four protocols with a
#: ported round replay at long horizons (two of them also as multi-run
#: requests), then short requests for the protocols that fall back to the
#: event engine: a third of the units, each unit about the same host time.
FASTPATH_REQUESTS = (
    ("full-ack", 1, 20_000),
    ("sig-ack", 1, 20_000),
    ("paai1", 1, 19_000),
    ("statfl", 1, 9_000),
    ("full-ack", 2, 10_000),
    ("paai1", 2, 10_000),
    ("paai2", 1, 540),
    ("combo1", 1, 1_150),
    ("combo2", 1, 1_000),
)

#: model-mc ``(label, protocol, runs, horizon)``: Figure 2 at 10,000 runs,
#: the Table 2 detection averages at 5,000 runs, and statfl.
MODEL_EXPERIMENTS = (
    ("figure2", "full-ack", 10_000, 6_000),
    ("figure2", "paai1", 10_000, 150_000),
    ("figure2", "paai2", 10_000, 600_000),
    ("table2", "full-ack", 5_000, 6_000),
    ("table2", "paai1", 5_000, 150_000),
    ("table2", "paai2", 5_000, 600_000),
    ("table2", "combo1", 5_000, 150_000),
    ("table2", "combo2", 5_000, 1_000_000),
    ("table2", "statfl", 5_000, 1_000_000),
)

#: Figure 2 protocols converge well inside these horizons (§8); a final
#: FP+FN rate above this means the model path computed something else.
FIGURE2_MAX_FINAL_ERROR = 0.05


def make_units(workload: str, seed: int) -> List[Unit]:
    """The fixed, ordered unit list of one pass of ``workload``."""
    units: List[Unit] = []
    if workload == "wire-traffic":
        for protocol, packets in TRAFFIC_PACKETS.items():
            for rate in RATES:
                units.append(
                    Unit(f"{protocol}@{rate:g}", protocol,
                         unit_seed(workload, seed, len(units)), packets,
                         rate=rate)
                )
    elif workload == "wire-fastpath":
        for protocol, runs, horizon in FASTPATH_REQUESTS:
            units.append(
                Unit(f"{protocol}x{runs}@{horizon}", protocol,
                     unit_seed(workload, seed, len(units)), horizon, runs=runs)
            )
    elif workload == "model-mc":
        for label, protocol, runs, horizon in MODEL_EXPERIMENTS:
            units.append(
                Unit(f"{label}:{protocol}", protocol,
                     unit_seed(workload, seed, len(units)), horizon, runs=runs)
            )
    else:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}"
        )
    return units


# -- running units ---------------------------------------------------------------

@dataclass
class Outcome:
    """A unit's outputs: its digest and any failed output check."""

    digest: str
    problems: List[str]


class Workload:
    """Builds, runs and checks the units of one workload.

    ``prepare`` does the per-unit construction that is not the unit
    itself; ``run`` is the timed unit; ``check`` digests the outputs and
    tests what must hold for every seed.
    """

    def __init__(self, name: str, seed: int) -> None:
        from repro.net.backend import decision_thresholds
        from repro.workloads.scenarios import paper_scenario

        self.name = name
        self.seed = seed
        self.scenario = paper_scenario()
        self.params = self.scenario.params
        self.units = make_units(name, seed)
        # Thresholds are computed once here, so the timed wire-traffic
        # units run only the wire engine.
        self.thresholds: Dict[str, np.ndarray] = {
            unit.protocol: np.asarray(decision_thresholds(unit.protocol, self.params))
            for unit in self.units
        }

    # -- per-unit ------------------------------------------------------------

    def prepare(self, unit: Unit):
        if self.name == "wire-traffic":
            from repro.net.simulator import Simulator

            return self.scenario.build_protocol(unit.protocol, Simulator(seed=unit.seed))
        if self.name == "wire-fastpath":
            from repro.mc.detection import default_checkpoints
            from repro.net.backend import DetectionRequest, get_backend

            request = DetectionRequest(
                protocol=unit.protocol,
                scenario=self.scenario,
                runs=unit.runs,
                horizon=unit.size,
                checkpoints=default_checkpoints(unit.size, points=10),
                seed=unit.seed,
            )
            return get_backend("fastpath"), request
        from repro.mc.detection import DetectionExperiment

        return DetectionExperiment(
            unit.protocol, self.scenario, runs=unit.runs,
            horizon=unit.size, seed=unit.seed, backend="model",
        )

    def run(self, unit: Unit, prepared):
        if self.name == "wire-traffic":
            prepared.run_traffic(unit.size, unit.rate)
            return prepared
        if self.name == "wire-fastpath":
            backend, request = prepared
            return backend.run(request)
        return prepared.run(jobs=1)

    def check(self, unit: Unit, result) -> Outcome:
        thresholds = self.thresholds[unit.protocol]
        d = self.params.path_length
        problems: List[str] = []
        if self.name == "wire-traffic":
            estimates = np.asarray(result.source.estimates(), dtype=float)
            convicted = estimates > thresholds
            sent = result.path.stats.data_sent
            if sent != unit.size:
                problems.append(f"sent {sent} packets, expected {unit.size}")
            _check_estimates(estimates.reshape(1, -1), d, problems)
            return Outcome(digest(estimates, convicted), problems)
        convictions = np.asarray(result.convictions)
        estimates = np.asarray(result.estimates_last)
        if convictions.dtype != bool or convictions.ndim != 3 or convictions.shape[1:] != (unit.runs, d):
            problems.append(f"conviction tensor shape {convictions.shape}")
        _check_estimates(estimates, d, problems)
        if not problems and not np.array_equal(convictions[-1], estimates > thresholds):
            problems.append("final convictions disagree with estimates > thresholds")
        if self.name == "wire-fastpath":
            return Outcome(digest(convictions, estimates), problems)
        curve = result.curve
        rates = np.asarray([curve.fp_rates, curve.fn_rates], dtype=float)
        if not np.all((rates >= 0.0) & (rates <= 1.0)):
            problems.append("FP/FN rate outside [0, 1]")
        if unit.name.startswith("figure2:") and rates[:, -1].sum() > FIGURE2_MAX_FINAL_ERROR:
            problems.append(
                f"figure 2 final FP+FN {rates[:, -1].sum():.4f} > {FIGURE2_MAX_FINAL_ERROR}"
            )
        return Outcome(digest(convictions, estimates, rates), problems)

    # -- set-up ----------------------------------------------------------------

    def warm_up(self) -> None:
        """Run one tiny unit per protocol so lazy imports and caches fill
        before anything is timed. sig-ack is left out of wire-traffic's
        warm-up: building it generates Merkle key pools (about 1 s), which
        a pass pays per unit anyway."""
        seen = set()
        for unit in self.units:
            if unit.protocol in seen or (self.name == "wire-traffic" and unit.protocol == "sig-ack"):
                continue
            seen.add(unit.protocol)
            small = Unit(unit.name, unit.protocol, unit.seed,
                         size=20 if self.name == "wire-traffic" else 200,
                         runs=min(unit.runs, 20), rate=unit.rate)
            self.check(small, self.run(small, self.prepare(small)))


def _check_estimates(estimates: np.ndarray, d: int, problems: List[str]) -> None:
    if estimates.ndim != 2 or estimates.shape[1] != d:
        problems.append(f"estimates shape {estimates.shape}")
    elif not np.all(np.isfinite(estimates)) or np.any(estimates < 0.0):
        problems.append("estimates not finite and non-negative")


def tail_percentile(samples: Sequence[float], beyond: int = 10) -> Optional[tuple]:
    """``(value, percentile)``: the highest percentile that still has at
    least ``beyond`` samples above it, or None with too few samples."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= beyond:
        return None
    index = count - beyond - 1
    return ordered[index], 100.0 * (index + 1) / count

