"""The detection experiment: §8's 10,000-run FP/FN study, vectorized.

Running 10,000 independent event-driven simulations of up to 6x10^5
packets each is far beyond laptop-Python budgets. Instead we use the
exact per-round outcome distributions of :mod:`repro.protocols.models`
(cross-validated against the wire simulator): for each run and each
inter-checkpoint block we draw a multinomial over outcome categories and
apply the protocol's scoring semantics with numpy, reproducing the score
boards of thousands of wire runs in milliseconds.

The statistical FL baseline has no per-round category distribution; its
runs are simulated by binomial thinning of per-node arrival counts plus
binomial counter sampling — again exact with respect to the wire
semantics, up to report-collection staleness of at most one interval.

Each :meth:`DetectionExperiment.run` builds the inputs that do not depend
on the draws (a :class:`ModelPlan`: outcome model and thresholds) once and
hands them to every shard in its payload, so neither shards nor pool
workers rebuild the outcome model.

Run batches **shard**: the runs split into contiguous chunks of at most
:data:`DEFAULT_SHARD_RUNS`, each chunk seeded independently from the root
seed via :func:`repro.parallel.shard_seed`, and the chunk results are
concatenated in shard order. The decomposition depends only on
``(runs, shards)`` — never on worker count — so ``run(jobs=N)`` produces
byte-identical output for every ``N``, and a sharded batch can fan out
over a process pool for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.metrics.confusion import FpFnCurve, curve_from_convictions
from repro.metrics.convergence import first_exact_round
from repro.net.backend import BACKEND_NAMES, DetectionRequest, get_backend
from repro.obs.ledger import get_ledger
from repro.obs.profile import phase as profile_phase
from repro.parallel.engine import (
    resolve_jobs,
    run_tasks,
    shard_seed,
    shard_sizes,
)
from repro.protocols import models
from repro.workloads.scenarios import Scenario

#: Target runs per shard: small enough that full-scale batches decompose
#: into many parallelizable chunks, large enough that batches at or below
#: this size take the single-shard path (identical to the historical
#: single-generator behavior).
DEFAULT_SHARD_RUNS = 256


def resolve_shards(runs: int, shards: Optional[int] = None) -> int:
    """Shard count for a batch: explicit, or ``ceil(runs / 256)`` by
    default. Deterministic in ``runs`` alone — worker count never enters."""
    if shards is None:
        return max(1, math.ceil(runs / DEFAULT_SHARD_RUNS))
    if shards <= 0:
        raise ConfigurationError(f"shards must be positive, got {shards}")
    return min(shards, runs)


@dataclass(frozen=True)
class ModelPlan:
    """The draw-independent inputs of a model-backend run: per-link
    conviction thresholds, plus the outcome model's probabilities,
    ``(d+1, d)`` 0/1 score matrix (``int64``, so ``counts @ score_matrix``
    is exact), kind and rounds per packet — or, for statfl, the forward
    link rates."""

    thresholds: np.ndarray
    probabilities: Optional[np.ndarray] = None
    score_matrix: Optional[np.ndarray] = None
    kind: Optional[str] = None
    rounds_per_packet: float = 1.0
    forward: Optional[np.ndarray] = None


def model_plan(protocol: str, scenario: Scenario) -> ModelPlan:
    """Build the :class:`ModelPlan` for ``protocol`` under ``scenario``."""
    params = scenario.params
    thresholds = np.asarray(models.calibrated_thresholds(protocol, params))
    if protocol == "statfl":
        return ModelPlan(
            thresholds=thresholds,
            forward=np.asarray(scenario.forward_link_rates()),
        )
    f, b_ack, b_report = scenario.model_rates()
    model = models.build_model(protocol, f, b_ack, b_report, params)
    return ModelPlan(
        thresholds=thresholds,
        probabilities=model.probabilities,
        score_matrix=model.score_matrix().astype(np.int64),
        kind=model.kind,
        rounds_per_packet=model.rounds_per_packet,
    )


def default_checkpoints(horizon: int, points: int = 30) -> List[int]:
    """Log-spaced packet-count checkpoints (Figure 2 uses log axes)."""
    if horizon < 10:
        raise ConfigurationError("horizon too small")
    raw = np.unique(
        np.geomspace(10, horizon, num=points).astype(np.int64)
    )
    return [int(x) for x in raw]


@dataclass
class DetectionResult:
    """Everything the Figure 2 / Table 2 experiments need.

    Attributes
    ----------
    curve:
        FP/FN rates over time.
    convictions:
        Boolean tensor ``(checkpoints, runs, links)``.
    estimates_last:
        Per-link estimates at the final checkpoint, shape
        ``(runs, links)`` — used for distributional sanity checks.
    """

    protocol: str
    checkpoints: List[int]
    curve: FpFnCurve
    convictions: np.ndarray
    estimates_last: np.ndarray
    malicious_links: List[int] = field(default_factory=list)
    #: Execution backend the experiment selected ("model", "fastpath",
    #: or "event").
    backend: str = "model"
    #: Engine that actually produced each run. Wire backends may fall
    #: back per request (e.g. fastpath routes fault schedules to the
    #: event engine), so this is the audit trail; empty for "model".
    engines: List[str] = field(default_factory=list)
    #: Why runs fell back to the event engine (empty when none did).
    reasons: List[str] = field(default_factory=list)

    def convergence_packets(self, sigma: float) -> Optional[int]:
        return self.curve.convergence_packets(sigma)

    def average_detection_packets(self) -> float:
        """Mean per-run packets to a stable exact verdict (Table 2's
        'average'); runs that never converge count at the horizon."""
        first = first_exact_round(
            self.checkpoints, self.convictions, self.malicious_links
        )
        horizon = self.checkpoints[-1]
        resolved = np.where(first < 0, horizon, first)
        return float(resolved.mean())

    def per_link_error_rates(self) -> np.ndarray:
        """Per-link verdict error rate at each checkpoint.

        Shape ``(checkpoints, links)``: for an honest link, the fraction
        of runs convicting it (its false-positive rate); for a malicious
        link, the fraction of runs *not* convicting it (its
        false-negative rate). This is what Figure 2(c) plots per link:
        under PAAI-2's interval scoring, links farther from the source
        take visibly longer to settle.
        """
        malicious = np.zeros(self.convictions.shape[2], dtype=bool)
        for index in self.malicious_links:
            malicious[index] = True
        errors = self.convictions.mean(axis=1)  # conviction frequency
        errors = np.where(malicious[None, :], 1.0 - errors, errors)
        return errors


class DetectionExperiment:
    """Multi-run detection-rate experiment for one protocol.

    Parameters
    ----------
    protocol:
        Registry name.
    scenario:
        Evaluation scenario (parameters + adversary placement).
    runs:
        Number of independent simulated runs (the paper uses 10,000).
    horizon:
        Total data packets per run.
    checkpoints:
        Packet counts at which verdicts are evaluated; defaults to a
        log-spaced grid up to the horizon.
    seed:
        Seed for the numpy generator.
    fl_sampling / fl_interval:
        Statistical FL parameters (ignored for other protocols).
    shards:
        Number of independently seeded run chunks; ``None`` (default)
        resolves via :func:`resolve_shards`. A single shard reproduces
        the historical single-generator behavior exactly.
    backend:
        Execution engine: ``"model"`` (closed-form outcome models, the
        historical default, byte-identical to before the seam existed),
        ``"fastpath"`` (vectorized wire replay with automatic event
        fallback), or ``"event"`` (full discrete-event simulation).
    faults:
        Optional fault schedule, only supported by the wire backends
        (the closed-form models cannot express fault injection).
    """

    def __init__(
        self,
        protocol: str,
        scenario: Scenario,
        runs: int = 1000,
        horizon: int = 10_000,
        checkpoints: Optional[Sequence[int]] = None,
        seed: int = 0,
        fl_sampling: float = 0.01,
        shards: Optional[int] = None,
        fl_interval: int = 1000,
        backend: str = "model",
        faults=None,
    ) -> None:
        if runs <= 0:
            raise ConfigurationError("runs must be positive")
        if backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
            )
        if faults is not None and backend == "model":
            raise ConfigurationError(
                "fault schedules require a wire backend "
                "(backend='fastpath' or 'event')"
            )
        self.protocol = protocol
        self.scenario = scenario
        self.runs = runs
        self.horizon = horizon
        self.checkpoints = (
            list(checkpoints) if checkpoints is not None
            else default_checkpoints(horizon)
        )
        if sorted(self.checkpoints) != self.checkpoints:
            raise ConfigurationError("checkpoints must be ascending")
        if self.checkpoints[-1] > horizon:
            raise ConfigurationError("checkpoints exceed horizon")
        self.seed = seed
        self.fl_sampling = fl_sampling
        self.fl_interval = fl_interval
        self.backend = backend
        self.faults = faults
        self.shards = resolve_shards(runs, shards)

    # -- public API ----------------------------------------------------------

    def run(self, jobs: int = 1) -> DetectionResult:
        """Execute the batch; ``jobs`` workers process shards concurrently.

        The result is identical for every ``jobs`` value: shards are
        seeded from the root seed by shard index (model backend) or
        partitioned by absolute run offset (wire backends) and
        concatenated in shard order, so parallelism only changes
        wall-clock time.
        """
        jobs = resolve_jobs(jobs)
        engines: List[str] = []
        reasons: List[str] = []
        plan = (
            model_plan(self.protocol, self.scenario)
            if self.backend == "model" else None
        )
        if self.shards == 1:
            if plan is not None:
                with profile_phase("scoring"):
                    convictions, estimates = self._run_arrays(plan)
            else:
                convictions, estimates, engines, reasons = self._run_wire(
                    self.runs, run_offset=0
                )
        else:
            sizes = shard_sizes(self.runs, self.shards)
            offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
            payloads = [
                (
                    self.protocol,
                    self.scenario,
                    size,
                    self.horizon,
                    self.checkpoints,
                    # Model shards draw from independently derived seeds;
                    # wire shards share the root seed and partition the
                    # absolute run-index space instead, so every shard
                    # decomposition is byte-identical to shards=1.
                    self.seed
                    if self.backend != "model"
                    else shard_seed(self.seed, index, label="mc-shard"),
                    self.fl_sampling,
                    self.fl_interval,
                    self.backend,
                    self.faults,
                    int(offset),
                    plan,
                )
                for index, (size, offset) in enumerate(zip(sizes, offsets))
            ]
            parts = run_tasks(_run_detection_shard, payloads, jobs=jobs)
            convictions = np.concatenate([part[0] for part in parts], axis=1)
            estimates = np.concatenate([part[1] for part in parts], axis=0)
            engines = [engine for part in parts for engine in part[2]]
            reasons = sorted({reason for part in parts for reason in part[3]})
        with profile_phase("conviction"):
            curve = curve_from_convictions(
                self.checkpoints, convictions, self.scenario.malicious_links
            )
        ledger = get_ledger()
        if ledger.enabled:
            ledger.record(
                "experiment",
                protocol=self.protocol,
                runs=self.runs,
                horizon=self.horizon,
                seed=self.seed,
                shards=self.shards,
                backend=self.backend,
                malicious_links=self.scenario.malicious_links,
                final_false_positive=float(curve.fp_rates[-1]),
                final_false_negative=float(curve.fn_rates[-1]),
                engine_fallbacks=reasons,
            )
        return DetectionResult(
            protocol=self.protocol,
            checkpoints=self.checkpoints,
            curve=curve,
            convictions=convictions,
            estimates_last=estimates,
            malicious_links=self.scenario.malicious_links,
            backend=self.backend,
            engines=engines,
            reasons=reasons,
        )

    def _run_arrays(self, plan: ModelPlan) -> Tuple[np.ndarray, np.ndarray]:
        """One generator, all runs: ``(convictions, estimates_last)``."""
        if self.protocol == "statfl":
            return self._run_statfl(plan)
        return self._run_modelled(plan)

    # -- wire backends ---------------------------------------------------------

    def _run_wire(self, runs: int, run_offset: int):
        """Delegate ``runs`` wire runs to the selected backend.

        Returns ``(convictions, estimates_last, engines, reasons)``. Run
        seeds derive from ``(seed, run_offset + i)``, so shards that
        partition the offset space reproduce the unsharded batch.
        """
        request = DetectionRequest(
            protocol=self.protocol,
            scenario=self.scenario,
            runs=runs,
            horizon=self.horizon,
            checkpoints=self.checkpoints,
            seed=self.seed,
            fl_sampling=self.fl_sampling,
            fl_interval=self.fl_interval,
            faults=self.faults,
            run_offset=run_offset,
        )
        result = get_backend(self.backend).run(request)
        return (
            result.convictions,
            result.estimates_last,
            result.engines,
            result.reasons,
        )

    # -- model-driven protocols ------------------------------------------------

    def _run_modelled(self, plan: ModelPlan):
        d = self.scenario.params.path_length
        rng = np.random.default_rng(self.seed)
        scores = np.zeros((self.runs, d), dtype=np.int64)
        rounds = np.zeros(self.runs, dtype=np.int64)
        convictions = np.zeros(
            (len(self.checkpoints), self.runs, d), dtype=bool
        )
        estimates = np.zeros((self.runs, d))

        previous = 0
        for index, checkpoint in enumerate(self.checkpoints):
            block = checkpoint - previous
            previous = checkpoint
            if block > 0:
                if plan.rounds_per_packet >= 1.0:
                    block_rounds = np.full(self.runs, block, dtype=np.int64)
                else:
                    block_rounds = rng.binomial(
                        block, plan.rounds_per_packet, size=self.runs
                    )
                counts = _grouped_multinomial(
                    rng, block_rounds, plan.probabilities
                )
                scores += counts @ plan.score_matrix
                rounds += block_rounds
            estimates = self._estimates(scores, rounds, plan.kind, d)
            convictions[index] = estimates > plan.thresholds[None, :]
        return convictions, estimates

    @staticmethod
    def _estimates(scores, rounds, kind, d):
        safe_rounds = np.maximum(rounds, 1)[:, None].astype(float)
        if kind == models.KIND_BLAME:
            return scores / safe_rounds
        # Interval scoring: cumulative difference estimator, vectorized.
        padded = np.concatenate(
            [scores, np.zeros((scores.shape[0], 1), dtype=scores.dtype)], axis=1
        )
        cumulative = d * (padded[:, :-1] - padded[:, 1:]) / safe_rounds
        shifted = np.concatenate(
            [np.zeros((scores.shape[0], 1)), cumulative[:, :-1]], axis=1
        )
        return np.maximum(0.0, cumulative - shifted)

    # -- statistical FL -----------------------------------------------------------

    def _run_statfl(self, plan: ModelPlan):
        d = self.scenario.params.path_length
        rng = np.random.default_rng(self.seed)
        # Cumulative arrivals per node 0..d and sampled-counter values.
        arrivals = np.zeros((self.runs, d + 1), dtype=np.int64)
        counters = np.zeros((self.runs, d), dtype=np.int64)  # nodes 1..d
        convictions = np.zeros(
            (len(self.checkpoints), self.runs, d), dtype=bool
        )
        estimates = np.zeros((self.runs, d))

        previous = 0
        for index, checkpoint in enumerate(self.checkpoints):
            block = checkpoint - previous
            previous = checkpoint
            if block > 0:
                new_arrivals = np.full(self.runs, block, dtype=np.int64)
                arrivals[:, 0] += new_arrivals
                for link in range(d):
                    new_arrivals = rng.binomial(new_arrivals, 1.0 - plan.forward[link])
                    arrivals[:, link + 1] += new_arrivals
                    counters[:, link] += rng.binomial(
                        new_arrivals, 0.0 + self.fl_sampling
                    )
            # Survival fractions: node 0 exact, nodes 1..d from counters.
            sent = np.maximum(arrivals[:, 0], 1).astype(float)
            fractions = np.concatenate(
                [
                    np.ones((self.runs, 1)),
                    counters / (self.fl_sampling * sent[:, None]),
                ],
                axis=1,
            )
            upstream = np.maximum(fractions[:, :-1], 1e-12)
            estimates = np.maximum(0.0, 1.0 - fractions[:, 1:] / upstream)
            convictions[index] = estimates > plan.thresholds[None, :]
        return convictions, estimates


def _run_detection_shard(payload):
    """Execute one shard of a sharded batch (possibly in a worker).

    Module-level so payloads pickle by reference; a shard is simply a
    single-shard :class:`DetectionExperiment` at the shard's derived seed
    (model backend, running the experiment's :class:`ModelPlan`) or at the
    root seed plus a run offset (wire backends). Returns ``(convictions,
    estimates, engines, reasons)``.
    """
    (
        protocol,
        scenario,
        runs,
        horizon,
        checkpoints,
        seed,
        fl_sampling,
        fl_interval,
        backend,
        faults,
        run_offset,
        plan,
    ) = payload
    shard = DetectionExperiment(
        protocol,
        scenario,
        runs=runs,
        horizon=horizon,
        checkpoints=checkpoints,
        seed=seed,
        fl_sampling=fl_sampling,
        shards=1,
        fl_interval=fl_interval,
        backend=backend,
        faults=faults,
    )
    if backend == "model":
        convictions, estimates = shard._run_arrays(plan)
        return convictions, estimates, [], []
    return shard._run_wire(runs, run_offset=run_offset)


def _grouped_multinomial(rng, trials, pvals):
    """Draw one multinomial per run with per-run trial counts.

    numpy's ``Generator.multinomial`` broadcasts over a trials array, so
    this is a thin wrapper kept for clarity (and a single place to change
    the strategy if the dependency floor moves).
    """
    return rng.multinomial(trials, pvals)
