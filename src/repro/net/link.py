"""Lossy, delaying links.

A :class:`Link` joins adjacent path nodes ``F_i`` and ``F_{i+1}``. Each
traversal independently draws (a) a loss decision from the link's loss
model for that direction and (b) a propagation delay from the latency
model, matching §8.1's simulation setup. Delivery is an engine event, so
in-flight packets are naturally interleaved with timers.

Links are FIFO per direction: a packet sent after another on the same link
and direction never overtakes it (its arrival is clamped to the earlier
packet's arrival time). Real links do not reorder a flow, and the PAAI
protocols implicitly rely on this — a probe sent right after its data
packet must reach each node after the data packet did.

Links model only *natural* loss; adversarial drops happen at nodes (the
paper emulates a compromised node that drops traffic flowing through it).

Observability: links expose a **public hook API** — register a
:class:`LinkObserver` with :meth:`Link.add_listener` to see every
transmission, natural loss, and delivery without touching link
internals. Listeners registered at any time see all subsequent
events: the delivery callback is resolved when the packet *arrives*, not
when it was sent. With a metrics registry active at construction, links
also publish per-link transmission/loss/byte counters.

Fault injection: a second, *mutating* hook stage — :class:`LinkInterceptor`
via :meth:`Link.add_interceptor` — runs at the head of ``transmit`` and may
consume or replace the packet (blackouts, corruption, jitter/duplication in
``repro.faults``). Interceptors see the packet before any accounting, so
injected faults never pollute the natural-loss statistics the estimators
are calibrated against.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.net.latency import LatencyModel
from repro.net.loss import LossModel
from repro.net.packets import Direction, Packet, PacketKind
from repro.net.stats import LinkStats
from repro.obs.registry import get_registry


class LinkObserver:
    """Base class for link event listeners (all hooks default to no-ops).

    Subclass and override any of the three hooks; every hook receives the
    link itself, so one observer can watch many links.
    """

    def on_transmit(self, link: "Link", packet: Packet,
                    direction: Direction) -> None:
        """``packet`` entered the link (before the loss draw)."""

    def on_loss(self, link: "Link", packet: Packet,
                direction: Direction) -> None:
        """``packet`` was consumed by natural loss on the link."""

    def on_deliver(self, link: "Link", packet: Packet,
                   direction: Direction) -> None:
        """``packet`` is being handed to the receiving node."""


class LinkInterceptor:
    """Mutating hook consulted at the head of :meth:`Link.transmit`.

    Observers (:class:`LinkObserver`) are read-only by contract; fault
    injection needs to *change* traffic — swallow a packet during a
    blackout window, replace it with a corrupted copy, or hold it back and
    re-inject it later (``repro.faults``). Interceptors run before the
    link's stats/listeners/loss draw, so a consumed packet never counts as
    a transmission: injected faults are accounted by the injector's own
    metrics, not by the link's natural-loss statistics.
    """

    def before_transmit(self, link: "Link", packet: Packet,
                        direction: Direction) -> Optional[Packet]:
        """Return the packet to carry (possibly replaced), or None to
        consume it before it enters the link."""
        return packet


class _LinkMetrics:
    """Pre-bound per-link counters, one series per (kind, direction).

    Series carry the owning path's id so two paths sharing a simulator
    never merge their counters (the labels are ``link`` — the hop index
    on the path — plus ``path``, ``kind``, ``direction``).
    """

    __slots__ = ("tx", "loss", "bytes")

    def __init__(self, registry, index: int, path_id: int) -> None:
        link = str(index)
        path = str(path_id)
        self.tx = {}
        self.loss = {}
        self.bytes = {}
        for kind in PacketKind:
            for direction in Direction:
                labels = {
                    "link": link,
                    "path": path,
                    "kind": kind.value,
                    "direction": direction.value,
                }
                self.tx[kind, direction] = registry.counter(
                    "net.link.transmissions", **labels
                )
                self.loss[kind, direction] = registry.counter(
                    "net.link.natural_losses", **labels
                )
                self.bytes[kind, direction] = registry.counter(
                    "net.link.bytes", **labels
                )


class Link:
    """One bidirectional link ``l_index`` between ``F_index`` and
    ``F_index+1``.

    Parameters
    ----------
    index:
        Link position on the path (0-based; ``l_i`` in the paper).
    simulator:
        The engine (provides ``now`` and event scheduling).
    loss_models:
        Per-direction loss models. Separate instances per direction keep
        stateful models (Gilbert-Elliott) independent.
    latency_model:
        Shared latency model (stateless).
    rng:
        Random stream dedicated to this link.
    path_id:
        Identifier of the owning path (-1 when standalone). Known at
        construction so the link's metric series carry it — counters
        from two paths sharing a simulator must never merge.
    """

    def __init__(
        self,
        index: int,
        simulator,
        loss_models: Dict[Direction, LossModel],
        latency_model: LatencyModel,
        rng: random.Random,
        path_id: int = -1,
    ) -> None:
        if set(loss_models) != {Direction.FORWARD, Direction.REVERSE}:
            raise ConfigurationError("loss_models must cover both directions")
        self.index = index
        self.path_id = path_id
        self._simulator = simulator
        self._loss = loss_models
        self._latency = latency_model
        self._rng = rng
        self.stats = LinkStats()
        self._last_arrival: Dict[Direction, float] = {
            Direction.FORWARD: 0.0,
            Direction.REVERSE: 0.0,
        }
        self._receivers: Dict[Direction, Optional[Callable[[Packet, Direction], None]]] = {
            Direction.FORWARD: None,
            Direction.REVERSE: None,
        }
        self._listeners: List[LinkObserver] = []
        self._interceptors: List[LinkInterceptor] = []
        registry = get_registry()
        self._metrics: Optional[_LinkMetrics] = (
            _LinkMetrics(registry, index, path_id) if registry.enabled else None
        )

    # -- hooks -------------------------------------------------------------

    def add_listener(self, listener: LinkObserver) -> None:
        """Register a :class:`LinkObserver`; adding twice is a no-op."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: LinkObserver) -> None:
        """Unregister a listener; removing an absent one is a no-op."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    @property
    def listeners(self) -> List[LinkObserver]:
        return list(self._listeners)

    def add_interceptor(self, interceptor: LinkInterceptor) -> None:
        """Register a :class:`LinkInterceptor`; adding twice is a no-op."""
        if interceptor not in self._interceptors:
            self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: LinkInterceptor) -> None:
        """Unregister an interceptor; removing an absent one is a no-op."""
        try:
            self._interceptors.remove(interceptor)
        except ValueError:
            pass

    @property
    def interceptors(self) -> List[LinkInterceptor]:
        return list(self._interceptors)

    # -- wiring ------------------------------------------------------------

    def connect(
        self,
        forward_receiver: Callable[[Packet, Direction], None],
        reverse_receiver: Callable[[Packet, Direction], None],
    ) -> None:
        """Attach endpoint delivery callbacks.

        ``forward_receiver`` is the downstream node (receives packets
        traveling FORWARD); ``reverse_receiver`` the upstream node.
        """
        self._receivers[Direction.FORWARD] = forward_receiver
        self._receivers[Direction.REVERSE] = reverse_receiver

    # -- traffic -----------------------------------------------------------

    def transmit(self, packet: Packet, direction: Direction) -> bool:
        """Send ``packet`` across the link.

        Returns True when the packet will be delivered (an event has been
        scheduled), False when natural loss consumed it. The return value
        exists for tracing; protocol code must not branch on it — real
        nodes cannot observe downstream loss.
        """
        if self._receivers[direction] is None:
            raise ConfigurationError(f"link {self.index} has no {direction} receiver")
        for interceptor in self._interceptors:
            replacement = interceptor.before_transmit(self, packet, direction)
            if replacement is None:
                return False
            packet = replacement
        self.stats.record_transmission(packet, direction)
        metrics = self._metrics
        if metrics is not None:
            metrics.tx[packet.kind, direction].inc()
            metrics.bytes[packet.kind, direction].inc(packet.size)
        for listener in self._listeners:
            listener.on_transmit(self, packet, direction)
        if self._loss[direction].is_lost(self._rng):
            self.stats.record_natural_loss(packet, direction)
            if metrics is not None:
                metrics.loss[packet.kind, direction].inc()
            for listener in self._listeners:
                listener.on_loss(self, packet, direction)
            return False
        arrival = self._simulator.now + self._latency.delay(self._rng)
        # FIFO per direction: never overtake the previous packet.
        arrival = max(arrival, self._last_arrival[direction])
        self._last_arrival[direction] = arrival
        def deliver() -> None:
            self._deliver(packet, direction)

        self._simulator.schedule_at(arrival, deliver)
        return True

    def _deliver(self, packet: Packet, direction: Direction) -> None:
        """Engine callback: hand ``packet`` to the receiving node.

        The receiver is looked up at delivery time, so listeners and
        re-wired endpoints installed while the packet was in flight are
        honored.
        """
        for listener in self._listeners:
            listener.on_deliver(self, packet, direction)
        receiver = self._receivers[direction]
        if receiver is not None:
            receiver(packet, direction)

    @property
    def max_one_way_latency(self) -> float:
        return self._latency.maximum

    @property
    def simulator(self):
        """The engine this link schedules on (for interceptor tooling)."""
        return self._simulator
