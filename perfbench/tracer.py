"""Per-layer tracing by wrapping the program's public functions from outside.

Nothing under ``src/`` changes: :class:`Tracer.install` replaces each
target listed in :data:`LAYERS` with a wrapper that counts calls and,
for span targets, measures *self time* — a call's duration minus the time
covered by nested wrapped calls. :meth:`Tracer.uninstall` puts every
original object back exactly.

Targets are patched wherever they are bound:

* a module-level function is replaced in *every* loaded ``repro`` module
  whose globals hold it (``repro.crypto.prf`` imports ``hmac_sha256``
  directly, so patching ``repro.crypto.mac`` alone would miss PRF calls);
* a method is replaced on its class and on every subclass that defines
  its own override (each protocol agent overrides ``on_packet``).

Wrapper modes:

``span``
    Count every call and time every call.
``sampled``
    Count every call, time one call in :data:`SAMPLE_EVERY`. For the
    functions called more than about 10^5 times per pass, where timing
    every call would make the wrapper the cost. The self time of the
    untimed calls is estimated from the timed ones and moved out of the
    caller's layer into this one.
``count``
    Count calls only; their time stays with the caller.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: One timed call per this many calls of a ``sampled`` target.
SAMPLE_EVERY = 16

SPAN, SAMPLED, COUNT = "span", "sampled", "count"

#: Metric prefix -> module the layer lives in.
LAYER_MODULES = {
    "events": "repro.net.events",
    "sim": "repro.net.simulator",
    "crypto.hmac": "repro.crypto.mac",
    "crypto.prf": "repro.crypto.prf",
    "crypto.hotprf": "repro.crypto.prf",
    "crypto.onion": "repro.crypto.onion",
    "crypto.oblivious": "repro.crypto.oblivious",
    "crypto.sig": "repro.crypto.merkle",
    "crypto.hash": "repro.crypto.hashing",
    "link": "repro.net.link / repro.net.loss",
    "node": "repro.net.node",
    "stats": "repro.net.stats",
    "agent": "repro.protocols",
    "adversary": "repro.adversary",
    "scoring": "repro.core.scoring / repro.core.estimators",
    "backend": "repro.net.backend",
    "fastpath": "repro.net.fastpath",
    "model": "repro.mc.detection",
    "models": "repro.protocols.models",
    "confusion": "repro.metrics.confusion",
}

#: ``(target, layer, count metric, mode)``. A target is
#: ``"module:function"``, ``"module:Class.method"`` (patched on the class
#: and every subclass overriding it) or ``"module:*"`` (every public
#: function the module defines).
LAYERS: List[Tuple[str, str, str, str]] = [
    ("repro.net.events:EventQueue.schedule", "events", "events.scheduled", SAMPLED),
    ("repro.net.events:EventQueue.pop", "events", "events.popped", SAMPLED),
    ("repro.net.events:EventHandle.cancel", "events", "events.cancelled", SAMPLED),
    ("repro.net.simulator:Simulator.run", "sim", "sim.runs", SPAN),
    ("repro.crypto.mac:hmac_sha256", "crypto.hmac", "crypto.hmac.calls", SPAN),
    ("repro.crypto.prf:PRF.digest", "crypto.prf", "crypto.prf.calls", SPAN),
    ("repro.crypto.prf:HotPRF.bernoulli", "crypto.hotprf", "crypto.hotprf.calls", SPAN),
    ("repro.crypto.prf:HotPRF.digest", "crypto.hotprf", "crypto.hotprf.calls", SPAN),
    ("repro.crypto.onion:OnionReport.originate", "crypto.onion", "crypto.onion.calls", SPAN),
    ("repro.crypto.onion:OnionReport.wrap", "crypto.onion", "crypto.onion.calls", SPAN),
    ("repro.crypto.onion:OnionVerifier.verify", "crypto.onion", "crypto.onion.calls", SPAN),
    ("repro.crypto.oblivious:ObliviousReport.originate", "crypto.oblivious", "crypto.oblivious.calls", SPAN),
    ("repro.crypto.oblivious:ObliviousReport.reencrypt", "crypto.oblivious", "crypto.oblivious.calls", SPAN),
    ("repro.crypto.oblivious:ObliviousDecoder.decode", "crypto.oblivious", "crypto.oblivious.calls", SPAN),
    ("repro.crypto.merkle:MerkleSigner.__init__", "crypto.sig", "crypto.sig.calls", SPAN),
    ("repro.crypto.merkle:MerkleSigner.sign", "crypto.sig", "crypto.sig.calls", SPAN),
    ("repro.crypto.merkle:MerkleVerifier.verify", "crypto.sig", "crypto.sig.calls", SPAN),
    ("repro.crypto.hashing:packet_identifier", "crypto.hash", "crypto.hash.calls", COUNT),
    ("repro.net.link:Link.transmit", "link", "link.transmits", SPAN),
    ("repro.net.loss:LossModel.is_lost", "link", "link.loss_draws", COUNT),
    ("repro.net.node:Node.deliver", "node", "node.deliveries", SPAN),
    ("repro.net.stats:LinkStats.record_transmission", "stats", "stats.updates", SPAN),
    ("repro.net.stats:LinkStats.record_natural_loss", "stats", "stats.updates", SPAN),
    ("repro.net.stats:PathStats.record_data_sent", "stats", "stats.updates", SPAN),
    ("repro.net.stats:PathStats.record_data_delivered", "stats", "stats.updates", SPAN),
    ("repro.net.stats:PathStats.record_overhead", "stats", "stats.updates", SPAN),
    ("repro.net.stats:NodeDropStats.record", "stats", "stats.updates", SPAN),
    ("repro.net.node:Node.on_packet", "agent", "agent.handler_calls", SPAN),
    ("repro.protocols.base:SourceAgent.send_data", "agent", "agent.handler_calls", SPAN),
    ("repro.adversary.base:AdversaryStrategy.process", "adversary", "adversary.decisions", SPAN),
    ("repro.adversary.base:AdversaryStrategy.process_ingress", "adversary", "adversary.decisions", SPAN),
    ("repro.core.scoring:ScoreBoard.record_round", "scoring", "scoring.calls", SPAN),
    ("repro.core.scoring:ScoreBoard.add", "scoring", "scoring.calls", SPAN),
    ("repro.core.scoring:ScoreBoard.add_range", "scoring", "scoring.calls", SPAN),
    ("repro.core.scoring:ScoreBoard.add_upstream_interval", "scoring", "scoring.calls", SPAN),
    ("repro.core.estimators:DirectEstimator.estimates", "scoring", "scoring.calls", SPAN),
    ("repro.core.estimators:SurvivalCorrectedEstimator.estimates", "scoring", "scoring.calls", SPAN),
    ("repro.core.estimators:DifferenceEstimator.estimates", "scoring", "scoring.calls", SPAN),
    ("repro.protocols.base:SourceAgent.estimates", "scoring", "scoring.calls", SPAN),
    ("repro.net.fastpath:_RoundReplay.estimates", "scoring", "scoring.calls", SPAN),
    ("repro.net.backend:EventBackend.run", "backend", "backend.event_requests", SPAN),
    ("repro.net.fastpath:FastpathBackend.run", "fastpath", "fastpath.requests", SPAN),
    ("repro.net.fastpath:DrawStream.random", "fastpath", "fastpath.draws", COUNT),
    ("repro.mc.detection:DetectionExperiment.run", "model", "model.experiments", SPAN),
    ("repro.protocols.models:build_model", "models", "models.probabilities_calls", SPAN),
    ("repro.protocols.models:*", "models", "models.calls", SPAN),
    ("repro.protocols.models:OutcomeModel.expected_estimates", "models", "models.calls", SPAN),
    ("repro.protocols.models:OutcomeModel.score_matrix", "models", "models.calls", SPAN),
    ("repro.metrics.confusion:curve_from_convictions", "confusion", "confusion.calls", SPAN),
    ("repro.metrics.confusion:FpFnCurve.convergence_packets", "confusion", "confusion.calls", SPAN),
]

#: Per-layer metrics the traced run reports, in print order.
COUNT_METRICS = [
    "events.scheduled", "events.popped", "events.cancelled",
    "sim.events",
    "crypto.hmac.calls", "crypto.prf.calls", "crypto.hotprf.calls",
    "crypto.onion.calls", "crypto.oblivious.calls", "crypto.sig.calls",
    "crypto.hash.calls",
    "link.transmits", "link.lost",
    "node.deliveries", "stats.updates",
    "agent.handler_calls", "adversary.decisions",
    "scoring.calls",
    "backend.runs", "backend.fallback_runs",
    "fastpath.rounds", "fastpath.draws",
    "model.shards", "models.probabilities_calls",
]
SELF_LAYERS = [
    "events", "crypto.hmac", "crypto.prf", "crypto.hotprf", "crypto.onion",
    "crypto.oblivious", "crypto.sig", "link", "node", "stats", "agent",
    "adversary", "scoring", "fastpath", "model", "models", "confusion",
]
TIME_METRICS = ["sim.run_s", "sim.host_s_per_event", "backend.fallback_s"] + [
    f"{layer}.self_s" for layer in SELF_LAYERS
]


def _resolve(target: str):
    """What one target names: ``("function", fn)`` entries, patched
    wherever bound, or ``("method", (cls, name))`` entries, one per class
    that defines the method itself."""
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    if attr == "*":
        return [
            ("function", value)
            for name, value in sorted(vars(module).items())
            if callable(value)
            and not isinstance(value, type)
            and not name.startswith("_")
            and getattr(value, "__module__", None) == module_name
        ]
    if "." not in attr:
        return [("function", getattr(module, attr))]
    class_name, method = attr.split(".", 1)
    base = getattr(module, class_name)
    classes = [base] + _subclasses(base)
    return [("method", (cls, method)) for cls in classes if method in vars(cls)]


def _subclasses(cls) -> list:
    found, stack = [], list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        if sub not in found:
            found.append(sub)
            stack.extend(sub.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def import_program() -> None:
    """Import every module whose classes the layer table patches, so
    subclass discovery sees all protocol agents and adversaries."""
    for name in ("repro.crypto", "repro.mc.detection", "repro.net.fastpath"):
        importlib.import_module(name)
    for name in ("repro.adversary", "repro.protocols"):
        package = importlib.import_module(name)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{name}.{info.name}")


class Tracer:
    """Counts, self times and layer-specific tallies for one traced pass."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYER_MODULES}
        self.sim_run_s = 0.0
        self.fallback_s = 0.0
        #: Simulator events dispatched outside any backend request.
        self.events_outside_backend = 0
        self._stack: List[list] = [[0.0, None]]  # [child seconds, layer]
        self._sampled: Dict[str, list] = {}
        self._patches: List[tuple] = []

    # -- results -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric, with sampled self times extrapolated."""
        self_s = dict(self.self_s)
        for layer, timed_calls, timed_self, untimed in self._sampled.values():
            self_s[layer] += timed_self
            if not timed_calls:
                continue
            per_call = timed_self / timed_calls
            for parent, calls in untimed.items():
                estimate = per_call * calls
                self_s[layer] += estimate
                if parent is not None:
                    self_s[parent] -= estimate
        counts = self.counts
        events = counts.get("sim.events", 0)
        result: Dict[str, float] = {
            name: counts.get(name, 0) for name in COUNT_METRICS
        }
        result["sim.run_s"] = self.sim_run_s
        result["sim.host_s_per_event"] = self.sim_run_s / events if events else 0.0
        result["backend.fallback_s"] = self.fallback_s
        for layer in SELF_LAYERS:
            result[f"{layer}.self_s"] = max(0.0, self_s[layer])
        return result

    def work_counts(self) -> Dict[str, int]:
        """Every counted quantity, including internal ones (for determinism
        checks: two traced passes over the same inputs must agree)."""
        counts = dict(self.counts)
        counts["events_outside_backend"] = self.events_outside_backend
        return counts

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import_program()
        try:
            for target, layer, key, mode in LAYERS:
                for kind, what in _resolve(target):
                    if kind == "function":
                        self._patch_bindings(what, self._wrap(what, layer, key, mode))
                        continue
                    cls, name = what
                    raw = vars(cls)[name]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(raw.__func__, layer, key, mode))
                    else:
                        wrapped = self._wrap(raw, layer, key, mode)
                    self._patch(cls, name, raw, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch_bindings(self, function, wrapper) -> None:
        """Replace ``function`` in every loaded ``repro`` module binding it."""
        for name in sorted(sys.modules):
            if name != "repro" and not name.startswith("repro."):
                continue
            namespace = vars(sys.modules[name])
            for attr, value in list(namespace.items()):
                if value is function:
                    self._patch(sys.modules[name], attr, value, wrapper)

    def _patch(self, owner, name, original, replacement) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, key: str, mode: str) -> Callable:
        counts = self.counts
        counts.setdefault(key, 0)
        hook = _HOOKS.get(key)
        if mode == COUNT:
            return self._count_wrapper(fn, key, hook)
        if mode == SAMPLED:
            return self._sampled_wrapper(fn, layer, key)
        stack = self._stack
        self_s = self.self_s
        tracer = self
        clock = perf_counter

        def span(*args, **kwargs):
            counts[key] += 1
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                stack[-1][0] += elapsed
            if hook is not None:
                hook(tracer, args, result, elapsed)
            return result

        span.__wrapped__ = fn
        return span

    def _count_wrapper(self, fn, key, hook):
        counts = self.counts
        tracer = self
        if hook is None:
            def count(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            def count(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                hook(tracer, args, result, 0.0)
                return result

        count.__wrapped__ = fn
        return count

    def _sampled_wrapper(self, fn, layer, key):
        counts = self.counts
        stack = self._stack
        # [layer, timed calls, timed self seconds, {parent layer: untimed calls}]
        tally = self._sampled.setdefault(key, [layer, 0, 0.0, {}])
        unsampled = tally[3]
        clock = perf_counter
        every = SAMPLE_EVERY

        def sampled(*args, **kwargs):
            calls = counts[key] = counts[key] + 1
            if calls % every:
                parent = stack[-1][1]
                unsampled[parent] = unsampled.get(parent, 0) + 1
                return fn(*args, **kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                tally[1] += 1
                tally[2] += elapsed - frame[0]
                stack[-1][0] += elapsed

        sampled.__wrapped__ = fn
        return sampled

    def in_layer(self, layer: str) -> bool:
        return any(frame[1] == layer for frame in self._stack)


# -- result hooks: layer tallies read from a call's arguments and result ------

def _bump(tracer: Tracer, key: str, amount: int) -> None:
    tracer.counts[key] = tracer.counts.get(key, 0) + amount


def _simulator_run(tracer, args, processed, elapsed) -> None:
    _bump(tracer, "sim.events", processed)
    tracer.sim_run_s += elapsed
    if not tracer.in_layer("backend"):
        tracer.events_outside_backend += processed


def _loss_draw(tracer, args, lost, elapsed) -> None:
    if lost:
        _bump(tracer, "link.lost", 1)


def _event_backend_run(tracer, args, result, elapsed) -> None:
    if not tracer.in_layer("fastpath"):
        _bump(tracer, "backend.runs", args[1].runs)


def _fastpath_run(tracer, args, result, elapsed) -> None:
    request = args[1]
    _bump(tracer, "backend.runs", request.runs)
    fallback = result.engines.count("event")
    if fallback:
        _bump(tracer, "backend.fallback_runs", fallback)
        tracer.fallback_s += elapsed
    else:
        _bump(tracer, "fastpath.rounds", request.runs * request.checkpoints[-1])


def _experiment_run(tracer, args, result, elapsed) -> None:
    _bump(tracer, "model.shards", args[0].shards)


_HOOKS: Dict[str, Callable] = {
    "sim.runs": _simulator_run,
    "link.loss_draws": _loss_draw,
    "backend.event_requests": _event_backend_run,
    "fastpath.requests": _fastpath_run,
    "model.experiments": _experiment_run,
}

