"""Mesh wire layer: concurrent protocol instances over shared links.

The single-path world of :mod:`repro.net.path` gives every protocol its
own private links. A mesh run instead hosts N protocol instances in ONE
:class:`~repro.net.simulator.Simulator`, each monitoring a
:class:`~repro.topology.graph.Route`, while the routes *physically share*
the underlying :class:`SharedLink` objects — one loss model, one latency
FIFO, one adversary per topology link, no matter how many routes cross
it. A compromised shared link therefore damages every route that
traverses it, which is exactly the correlation the fusion layer
(:mod:`repro.topology.fusion`) exploits.

Three layers keep the existing protocol stack unmodified:

* :class:`SharedLink` — the physical link: per-physical-direction loss
  models drawing from one ``mesh-link-{id}`` stream, one FIFO arrival
  clamp per physical direction (a burst from route A delays route B's
  packets on the same link), shared :class:`~repro.net.stats.LinkStats`,
  and an optional link adversary (``mesh-adversary-{id}`` stream) that
  deliberately drops crossings at the topology's composed rate.
* :class:`RouteLinkView` — what a protocol's nodes see: hop index *on the
  route*, the route's path id, per-route listeners/receivers/metrics.
  The view maps route direction (forward = toward the route's
  destination) onto the link's physical orientation, so two routes
  traversing the same wire in opposite senses still share the same
  physical loss and FIFO state.
* :class:`RoutePath` — a drop-in for :class:`repro.net.path.Path` built
  from views; it is handed to :class:`~repro.protocols.base.WireProtocol`
  through the ``path=`` injection seam.

Determinism: every random draw comes from labeled streams of the
simulator's seeded :class:`~repro.net.simulator.RngFactory`, and the
event engine orders deliveries deterministically, so a mesh run is a
pure function of (seed, topology, routes, params).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Union

from repro.constants import DEFAULT_MAX_LINK_LATENCY
from repro.exceptions import ConfigurationError
from repro.net.clock import NodeClock
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.link import LinkInterceptor, LinkObserver, _LinkMetrics
from repro.net.loss import BernoulliLoss, LossModel
from repro.net.node import Node
from repro.net.packets import Direction, Packet
from repro.net.path import PathObserver
from repro.net.simulator import Simulator
from repro.net.stats import LinkStats, PathStats
from repro.obs import tracing
from repro.obs.registry import get_registry
from repro.topology.graph import Route, Topology


class SharedLink:
    """One physical topology link, shared by every route crossing it.

    State that is *physical* — loss models, the latency FIFO, stats, the
    adversary — is keyed by the link's canonical orientation (``u -> v``
    is the FORWARD physical direction). Per-route state (listeners,
    receivers, metrics) lives on the :class:`RouteLinkView` instances.
    """

    def __init__(
        self,
        link_id: int,
        simulator: Simulator,
        loss_models: Dict[Direction, LossModel],
        latency_model: LatencyModel,
        adversary_rate: float = 0.0,
    ) -> None:
        if set(loss_models) != {Direction.FORWARD, Direction.REVERSE}:
            raise ConfigurationError("loss_models must cover both directions")
        if not 0.0 <= adversary_rate <= 1.0:
            raise ConfigurationError(
                f"adversary rate must be in [0, 1], got {adversary_rate}"
            )
        self.link_id = link_id
        self.simulator = simulator
        self._loss = loss_models
        self._latency = latency_model
        self._rng = simulator.rng.stream(f"mesh-link-{link_id}")
        self.adversary_rate = adversary_rate
        self._adversary_rng = (
            simulator.rng.stream(f"mesh-adversary-{link_id}")
            if adversary_rate > 0.0
            else None
        )
        #: Pooled over every route crossing this wire.
        self.stats = LinkStats()
        #: Deliberate (adversarial) drops, keyed (kind, direction) in
        #: physical orientation — LinkStats only knows natural losses.
        self.adversarial_drops: Counter = Counter()
        self._last_arrival: Dict[Direction, float] = {
            Direction.FORWARD: 0.0,
            Direction.REVERSE: 0.0,
        }
        self.views: List["RouteLinkView"] = []

    @property
    def max_one_way_latency(self) -> float:
        return self._latency.maximum

    def carry(
        self, view: "RouteLinkView", packet: Packet, route_direction: Direction
    ) -> bool:
        """Carry ``packet`` across the physical wire for ``view``.

        Returns True when delivery was scheduled, False when the packet
        was consumed (natural loss or adversarial drop). Accounting and
        hooks fire on the *originating view* so metrics and spans stay
        attributed to the route that sent the packet, while every random
        draw and the FIFO clamp use shared physical state.
        """
        physical = view.physical_direction(route_direction)
        if self._adversary_rng is not None:
            if self._adversary_rng.random() < self.adversary_rate:
                self.adversarial_drops[(packet.kind, physical)] += 1
                view.account_adversarial_drop(packet, route_direction)
                return False
        if self._loss[physical].is_lost(self._rng):
            self.stats.record_natural_loss(packet, physical)
            view.account_natural_loss(packet, route_direction)
            return False
        arrival = self.simulator.now + self._latency.delay(self._rng)
        # FIFO per physical direction: a packet never overtakes an
        # earlier one on the same wire, regardless of which route sent it.
        arrival = max(arrival, self._last_arrival[physical])
        self._last_arrival[physical] = arrival

        def deliver() -> None:
            view.deliver(packet, route_direction)

        self.simulator.schedule_at(arrival, deliver)
        return True

    def total_adversarial_drops(self) -> int:
        return sum(self.adversarial_drops.values())


class RouteLinkView:
    """One route's view of a :class:`SharedLink` — the ``Link`` interface.

    Exposes exactly the surface protocol nodes, path observers, and the
    tracing collector use (``index``, ``path_id``, ``transmit``,
    listener/interceptor registration, ``_simulator``), while delegating
    loss, latency, and FIFO behavior to the shared physical link.
    """

    def __init__(
        self,
        shared: SharedLink,
        index: int,
        path_id: int,
        forward_on_wire: bool,
    ) -> None:
        self.shared = shared
        self.index = index
        self.path_id = path_id
        #: True when the route traverses the wire in its canonical
        #: ``u -> v`` orientation.
        self.forward_on_wire = forward_on_wire
        self._simulator = shared.simulator
        self._receivers: Dict[Direction, Optional[object]] = {
            Direction.FORWARD: None,
            Direction.REVERSE: None,
        }
        self._listeners: List[LinkObserver] = []
        self._interceptors: List[LinkInterceptor] = []
        registry = get_registry()
        self._metrics: Optional[_LinkMetrics] = (
            _LinkMetrics(registry, index, path_id) if registry.enabled else None
        )
        self._obs_adversarial = (
            {
                (kind, direction): registry.counter(
                    "net.link.adversarial_drops",
                    link=str(index),
                    path=str(path_id),
                    kind=kind.value,
                    direction=direction.value,
                )
                for (kind, direction) in self._metrics.loss
            }
            if self._metrics is not None and shared.adversary_rate > 0.0
            else None
        )
        shared.views.append(self)

    # -- direction mapping -------------------------------------------------

    def physical_direction(self, route_direction: Direction) -> Direction:
        if self.forward_on_wire:
            return route_direction
        return (
            Direction.REVERSE
            if route_direction is Direction.FORWARD
            else Direction.FORWARD
        )

    # -- Link interface: hooks ---------------------------------------------

    def add_listener(self, listener: LinkObserver) -> None:
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: LinkObserver) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    @property
    def listeners(self) -> List[LinkObserver]:
        return list(self._listeners)

    def add_interceptor(self, interceptor: LinkInterceptor) -> None:
        if interceptor not in self._interceptors:
            self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: LinkInterceptor) -> None:
        try:
            self._interceptors.remove(interceptor)
        except ValueError:
            pass

    @property
    def interceptors(self) -> List[LinkInterceptor]:
        return list(self._interceptors)

    # -- Link interface: wiring and traffic --------------------------------

    def connect(self, forward_receiver, reverse_receiver) -> None:
        self._receivers[Direction.FORWARD] = forward_receiver
        self._receivers[Direction.REVERSE] = reverse_receiver

    def transmit(self, packet: Packet, direction: Direction) -> bool:
        if self._receivers[direction] is None:
            raise ConfigurationError(
                f"route link {self.index} has no {direction} receiver"
            )
        for interceptor in self._interceptors:
            replacement = interceptor.before_transmit(self, packet, direction)
            if replacement is None:
                return False
            packet = replacement
        self.shared.stats.record_transmission(
            packet, self.physical_direction(direction)
        )
        metrics = self._metrics
        if metrics is not None:
            metrics.tx[packet.kind, direction].inc()
            metrics.bytes[packet.kind, direction].inc(packet.size)
        for listener in self._listeners:
            listener.on_transmit(self, packet, direction)
        return self.shared.carry(self, packet, direction)

    def account_natural_loss(self, packet: Packet, direction: Direction) -> None:
        if self._metrics is not None:
            self._metrics.loss[packet.kind, direction].inc()
        for listener in self._listeners:
            listener.on_loss(self, packet, direction)

    def account_adversarial_drop(
        self, packet: Packet, direction: Direction
    ) -> None:
        if self._obs_adversarial is not None:
            self._obs_adversarial[packet.kind, direction].inc()
        # Spans still see a loss event: the protocol under test cannot
        # distinguish adversarial from natural consumption on the wire.
        for listener in self._listeners:
            listener.on_loss(self, packet, direction)

    def deliver(self, packet: Packet, direction: Direction) -> None:
        for listener in self._listeners:
            listener.on_deliver(self, packet, direction)
        receiver = self._receivers[direction]
        if receiver is not None:
            receiver(packet, direction)

    @property
    def max_one_way_latency(self) -> float:
        return self.shared.max_one_way_latency

    @property
    def simulator(self):
        return self._simulator


class RoutePath:
    """A :class:`repro.net.path.Path` stand-in built over shared links.

    Satisfies everything :class:`~repro.protocols.base.WireProtocol` and
    its agents need from a path — ``length``, ``path_id``, ``stats``,
    ``attach_nodes``, ``rtt_bound``/``r0``, ``notify_node_drop``,
    ``schedule_in`` — while hop ``i`` is a :class:`RouteLinkView` onto
    the topology link the route's walk crosses at that hop.
    """

    def __init__(
        self,
        simulator: Simulator,
        route: Route,
        shared_links: Sequence[SharedLink],
        topology: Topology,
    ) -> None:
        if route.length != len(shared_links):
            raise ConfigurationError(
                f"route {route.route_id} has {route.length} hops but "
                f"{len(shared_links)} shared links were supplied"
            )
        self.simulator = simulator
        self.route = route
        self.length = route.length
        self.path_id = simulator.next_path_id()
        self.stats = PathStats(route.length)
        self.nodes: List[Node] = []
        self._observers: List[PathObserver] = []
        registry = get_registry()
        self._metrics = registry if registry.enabled else None
        self.links: List[RouteLinkView] = []
        for hop, shared in enumerate(shared_links):
            topo_link = topology.link(shared.link_id)
            forward_on_wire = route.nodes[hop] == topo_link.u
            self.links.append(
                RouteLinkView(
                    shared,
                    index=hop,
                    path_id=self.path_id,
                    forward_on_wire=forward_on_wire,
                )
            )
        collector = tracing.get_collector()
        if collector is not None:
            collector.attach(self)

    # -- observability hooks ----------------------------------------------

    def add_observer(self, observer: PathObserver) -> None:
        if observer not in self._observers:
            self._observers.append(observer)
        for link in self.links:
            link.add_listener(observer)

    def notify_node_drop(self, node: Node, packet: Packet,
                         direction: Direction, cause: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "net.node.drops",
                node=str(node.position),
                path=str(self.path_id),
                kind=packet.kind.value,
                direction=direction.value,
                cause=cause,
            ).inc()
        for observer in self._observers:
            observer.on_node_drop(node, packet, direction, cause)

    # -- node attachment ---------------------------------------------------

    def attach_nodes(self, nodes: Sequence[Node]) -> None:
        if len(nodes) != self.length + 1:
            raise ConfigurationError(
                f"need {self.length + 1} nodes, got {len(nodes)}"
            )
        for position, node in enumerate(nodes):
            if node.position != position:
                raise ConfigurationError(
                    f"node at slot {position} reports position {node.position}"
                )
            uplink = self.links[position - 1] if position > 0 else None
            downlink = self.links[position] if position < self.length else None
            clock = NodeClock(self.simulator.clock, 0.0)
            node.attach(self, clock, uplink, downlink)
        for index, link in enumerate(self.links):
            link.connect(
                forward_receiver=nodes[index + 1].deliver,
                reverse_receiver=nodes[index].deliver,
            )
        self.nodes = list(nodes)

    # -- timing ------------------------------------------------------------

    def schedule_in(self, delay: float, action) -> object:
        return self.simulator.schedule_in(delay, action)

    @property
    def max_link_latency(self) -> float:
        return max(link.max_one_way_latency for link in self.links)

    def rtt_bound(self, position: int) -> float:
        if not 0 <= position <= self.length:
            raise ConfigurationError(f"position {position} off route")
        return 2.0 * sum(
            link.max_one_way_latency for link in self.links[position:]
        )

    @property
    def r0(self) -> float:
        return self.rtt_bound(0)

    def true_link_rates(self) -> List[float]:
        """Natural loss per hop, in the route's forward direction."""
        return [
            link.shared._loss[
                link.physical_direction(Direction.FORWARD)
            ].average_rate
            for link in self.links
        ]

    def describe(self) -> str:
        """ASCII rendering of the route over topology node ids."""
        parts = [f"N{self.route.nodes[0]}"]
        for hop in range(self.length):
            parts.append(
                f"──L{self.links[hop].shared.link_id}── "
                f"N{self.route.nodes[hop + 1]}"
            )
        return " ".join(parts)


class MeshNetwork:
    """Shared physical substrate plus per-route protocol instantiation.

    Builds one :class:`SharedLink` per topology link (loss model,
    latency, adversary rate from the topology's compromise marks), then
    hands out :class:`RoutePath` objects whose hops are views onto those
    shared links. All protocol instances created through
    :meth:`instantiate` live in the one simulator and are driven
    *concurrently* by :meth:`run_traffic`.
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: Topology,
        natural_loss: Union[float, Dict[int, float]] = 0.0,
        max_latency: Union[float, LatencyModel] = DEFAULT_MAX_LINK_LATENCY,
    ) -> None:
        self.simulator = simulator
        self.topology = topology
        latency = (
            max_latency
            if isinstance(max_latency, LatencyModel)
            else UniformLatency(high=float(max_latency))
        )
        self._latency = latency

        def loss_rate(link_id: int) -> float:
            if isinstance(natural_loss, dict):
                return float(natural_loss.get(link_id, 0.0))
            return float(natural_loss)

        self.links: Dict[int, SharedLink] = {}
        for topo_link in topology.links:
            rate = loss_rate(topo_link.link_id)
            self.links[topo_link.link_id] = SharedLink(
                link_id=topo_link.link_id,
                simulator=simulator,
                loss_models={
                    Direction.FORWARD: BernoulliLoss(rate),
                    Direction.REVERSE: BernoulliLoss(rate),
                },
                latency_model=latency,
                adversary_rate=topology.adversarial_rate(topo_link.link_id),
            )
        self.protocols: List[object] = []
        self._route_paths: Dict[int, RoutePath] = {}

    def route_path(self, route: Route) -> RoutePath:
        """Build a :class:`RoutePath` whose hops view this mesh's links."""
        shared = [self.links[link_id] for link_id in route.links]
        path = RoutePath(self.simulator, route, shared, self.topology)
        self._route_paths[route.route_id] = path
        return path

    def instantiate(self, name: str, route: Route, params, **kwargs):
        """Create a protocol instance monitoring ``route``.

        ``params.path_length`` must equal the route's hop count; the
        protocol is built through the registry with the mesh path
        injected, so its agents run unmodified over shared links.
        """
        from repro.protocols.registry import make_protocol

        path = self.route_path(route)
        protocol = make_protocol(
            name, self.simulator, params, path=path, **kwargs
        )
        self.protocols.append(protocol)
        return protocol

    def run_traffic(
        self,
        count: int,
        rate: float,
        drain: Optional[float] = None,
    ) -> None:
        """Drive every instantiated protocol concurrently.

        Unlike :meth:`WireProtocol.run_traffic`, the engine runs ONCE for
        all instances: every source's sends are scheduled first, then the
        simulator advances to the latest deadline, so packets from
        different routes genuinely interleave on shared links.
        """
        if not self.protocols:
            raise ConfigurationError("no protocol instances to drive")
        if count <= 0:
            raise ConfigurationError("count must be positive")
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        interval = 1.0 / rate
        start = self.simulator.now
        for protocol in self.protocols:
            for index in range(count):
                self.simulator.schedule_at(
                    start + index * interval, protocol.source.send_data
                )
        if drain is None:
            drain = 4.0 * max(p.params.r0 for p in self.protocols)
        self.simulator.run(until=start + count * interval + drain)

    def total_adversarial_drops(self) -> int:
        return sum(
            link.total_adversarial_drops() for link in self.links.values()
        )
