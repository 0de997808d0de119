"""The simulated Ethernet segment.

Every simulated machine attaches one :class:`Nic`. Sending costs
simulated time per the :class:`~repro.sim.latency.NetworkLatency`
model; a multicast is *one* frame on the wire (as with Ethernet
hardware multicast, which Amoeba's FLIP exploits) taken only by the
NICs that listen for its kind. The frame kind plays the role of the
multicast address: ``grp.<group>.*`` kinds are a FLIP group address,
``rpc.locate`` is the address every machine with a server endpoint
listens on. A NIC that does not listen costs the sender, the wire and
the simulator nothing — no delivery event, no link meter, no policy
draw. A bare :class:`Nic` nobody has put a demultiplexer on listens
for nothing. The receivers of a multicast are read, in attach order,
from an index of the listening addresses per kind; anything that
changes what a NIC listens for (attaching one, assigning
:attr:`Nic.interest`, a :class:`~repro.rpc.transport.Transport`
registering or clearing a handler) drops that index, and the next
multicast of each kind rebuilds its entry.

A frame that arrives is handed to the receiving NIC's one *sink*
inside the delivery event itself: the machine's
:meth:`repro.rpc.transport.Transport._dispatch`, which runs the
protocol handler there and then, as FLIP hands a packet to the RPC or
group code inside the Amoeba kernel; there is no second receive path
(no queue a process drains). Frames arriving at one NIC in one instant
therefore reach their handlers in the order their deliveries were
scheduled, and whatever a handler schedules for that instant runs after
everything already scheduled for it (DESIGN.md §5, "What a schedule
change may move").

Failure model, mirroring the paper's assumptions:

* fail-stop machines — a down NIC neither sends nor receives;
* clean partitions via :class:`~repro.net.partition.PartitionController`.

Beyond the paper's assumptions, an adversarial per-*delivery*
interceptor chain (:mod:`repro.net.policy`, installed with
:meth:`Network.add_policy`) can drop, duplicate, delay, and reorder
individual frames per (src, dst) link and per frame kind — the chaos
layer (:mod:`repro.chaos`) drives it, and a ``Drop`` policy is the one
way to lose a frame at random.

Reachability is evaluated at *delivery* time, so a partition that
forms while a frame is in flight drops the frame.

Every frame goes through :meth:`Network.transmit` and every receiver
of it through :meth:`Packet._deliver`, so both are written for the
host: :class:`Packet` is a slotted class, the counters are bumped in
place, and a delivery checks reachability inline. The delivery event
is the bound ``_deliver`` of the packet built for that receiver, and a
unicast frame with no link policy goes straight to
:meth:`Network._launch`, the one place a delivery is metered, held
FIFO and scheduled.
"""

from __future__ import annotations

from heapq import heappush
from random import Random
from typing import Any, Callable, Container, Hashable

from repro.errors import NetworkError
from repro.net.partition import PartitionController
from repro.net.policy import LinkContext, LinkDecision, LinkPolicy
from repro.sim.latency import LatencyModel
from repro.sim.scheduler import Simulator

Address = Hashable

#: Destination constant for link-level broadcast frames.
BROADCAST = "<broadcast>"


class Packet:
    """One frame as seen by a receiving NIC (read-only by convention);
    its bound :meth:`_deliver` is its delivery event."""

    __slots__ = ("src", "dst", "kind", "payload", "size", "multicast", "network")

    def __init__(
        self,
        src: Address,
        dst: Address,
        kind: str,
        payload: Any,
        size: int,
        multicast: bool = False,
        network: "Network | None" = None,
    ):
        self.src = src
        self.dst = dst  # the NIC it was delivered to (not BROADCAST)
        self.kind = kind  # protocol discriminator, e.g. "rpc.request", "grp.bc"
        self.payload = payload
        self.size = size  # bytes, for wire-time accounting
        self.multicast = multicast
        self.network = network

    def _deliver(self) -> None:
        """The delivery event: hand the frame to its NIC's sink if both
        ends are up and connected, else drop it (and maybe refuse it)."""
        network = self.network
        src = self.src
        dst = self.dst
        nics = network._nics
        nic = nics.get(dst)  # None: a unicast to an address never attached
        # Network.reachable(), inline: both NICs up and, unless the
        # segment is whole, in the same partition component.
        components = network.partitions._component
        tracer = network._obs.tracer
        if not (
            nic is not None
            and nic.up
            and nics[src].up
            and (not components or components.get(src, 0) == components.get(dst, 0))
        ):
            network._c_dropped.value += 1
            if tracer.enabled:
                tracer.emit(
                    str(src), "net", "net.drop",
                    dst=str(dst), kind=self.kind,
                    reason="unreachable",
                )
            network._maybe_refuse(self)
            return
        if tracer.enabled:
            tracer.emit(
                str(dst), "net", "net.deliver",
                src=str(src), kind=self.kind,
            )
        nic.sink(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Packet {self.kind} {self.src!r}->{self.dst!r} {self.payload!r}>"


class _Link:
    """One directed link: its own jitter/loss stream (made at its first
    frame; a frame on one link never re-times another), its meters (made
    at its first delivery) and its last arrival (one segment: FIFO)."""

    __slots__ = ("rng", "bytes", "busy", "last_arrival")

    def __init__(self):
        self.rng: Random | None = None
        self.bytes = None
        self.busy = None
        self.last_arrival = 0.0


class NetworkStats:
    """What the registry has no instrument for: frames per kind and
    drops per link policy. Every scalar wire count (one frame counted
    once, however many receivers) is a ``net.*`` counter under the
    pseudo-node ``"net"``, and lives there alone."""

    def __init__(self, registry):
        self._registry = registry
        self.frames_by_kind: dict[str, int] = {}
        # Link-policy drops by policy name (per delivery, not per frame).
        self.policy_drops: dict[str, int] = {}

    def snapshot(self) -> dict[str, int]:
        """Copy of the per-kind counters (for before/after diffs)."""
        return dict(self.frames_by_kind)

    def full_snapshot(self) -> dict:
        """Every wire count, copied — the determinism tests and every
        chaos verdict's ``net_stats`` compare this."""
        counter = self._registry.counter

        def net(name: str):
            return counter("net", "net." + name).value

        return {
            "frames_sent": net("frames_sent"),
            "bytes_sent": net("bytes_sent"),
            "frames_dropped": net("frames_dropped"),
            "frames_by_kind": dict(self.frames_by_kind),
            "frames_duplicated": net("frames_duplicated"),
            "frames_delayed": net("frames_delayed"),
            "frames_reordered": net("frames_reordered"),
            "policy_drops": dict(self.policy_drops),
        }


class Network:
    """A single Ethernet-like segment."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
    ):
        self.sim = sim
        self.latency = latency or LatencyModel.paper_testbed()
        self._wire = self.latency.network
        self.link_policies: list[LinkPolicy] = []
        self.partitions = PartitionController()
        # Segment-wide registry counters under the pseudo-node "net".
        registry = sim.obs.registry
        self._obs = sim.obs
        self._c_frames = registry.counter("net", "net.frames_sent")
        self._c_bytes = registry.counter("net", "net.bytes_sent")
        self._c_dropped = registry.counter("net", "net.frames_dropped")
        self._c_delayed = registry.counter("net", "net.frames_delayed")
        self._c_duplicated = registry.counter("net", "net.frames_duplicated")
        self._c_reordered = registry.counter("net", "net.frames_reordered")
        self._c_policy_drops = registry.counter("net", "net.policy_drops")
        self.stats = NetworkStats(registry)
        # Segment occupancy: transmit_time (size-proportional, jitter
        # excluded) summed over every frame put on the wire. A window
        # delta over the window length is the segment's offered-load
        # fraction; it can exceed 1.0 because the model does not make
        # senders contend for the cable (docs/OBSERVABILITY.md §10).
        self._c_wire = registry.counter("net", "net.wire_ms")
        self._registry = registry
        # (src, dst) -> _Link; a multicast draws on (src, BROADCAST).
        self._links: dict[tuple, _Link] = {}
        self._nics: dict[Address, "Nic"] = {}
        # Per multicast kind: the addresses listening for it, in attach
        # order (the sender included; transmit skips it). Built on first
        # use, dropped whole by interest_changed().
        self._listeners: dict[str, list[Address]] = {}
        # Per sender: latest arrival time of any multicast it put on
        # the wire. A multicast occupies the cable whether or not a
        # given NIC takes it, so a later frame from the same sender is
        # FIFO behind it even at a NIC that ignored it.
        self._multicast_horizon: dict[Address, float] = {}

    # -- topology --------------------------------------------------------

    def attach(self, address: Address) -> "Nic":
        """Create and register the NIC for *address*."""
        if address in self._nics:
            raise NetworkError(f"address {address!r} already attached")
        nic = Nic(self, address)
        self._nics[address] = nic
        self.interest_changed()
        return nic

    def interest_changed(self) -> None:
        """Drop the multicast listener index: some NIC's filter changed."""
        self._listeners = {}

    def reachable(self, src: Address, dst: Address) -> bool:
        """Whether a frame from *src* would currently reach *dst*."""
        dst_nic = self._nics.get(dst)
        if dst_nic is None or not dst_nic.up:
            return False
        src_nic = self._nics.get(src)
        if src_nic is None or not src_nic.up:
            return False
        return self.partitions.connected(src, dst)

    # -- link policies ----------------------------------------------------

    def add_policy(self, policy: LinkPolicy) -> LinkPolicy:
        """Append *policy* to the interceptor chain; returns it."""
        self.link_policies.append(policy)
        return policy

    def remove_policy(self, policy: "LinkPolicy | str") -> None:
        """Remove a policy (by instance or name); unknown names no-op."""
        self.link_policies = [
            p
            for p in self.link_policies
            if p is not policy and p.name != policy
        ]

    def _intercept(
        self, src: Address, dst: Address, kind: str, size: int, multicast: bool
    ) -> LinkDecision:
        """Run the policy chain over one candidate delivery."""
        decision = LinkDecision()
        ctx = LinkContext(src, dst, kind, size, multicast, self.sim.now)
        for policy in self.link_policies:
            policy.apply(ctx, decision, self.sim.rng)
        return decision

    # -- transmission ------------------------------------------------------

    def transmit(
        self,
        src: Address,
        dst: Address,
        kind: str,
        payload: Any,
        size: int,
    ) -> None:
        """Put one frame on the wire (unicast, or BROADCAST)."""
        src_nic = self._nics.get(src)
        if src_nic is None:
            raise NetworkError(f"no NIC at address {src!r}")
        if not src_nic.up:
            raise NetworkError(f"NIC {src!r} is down")
        by_kind = self.stats.frames_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        self._c_frames.value += 1
        self._c_bytes.value += size
        tracer = self._obs.tracer
        if tracer.enabled:
            tracer.emit(
                str(src), "net", "net.send",
                dst=str(dst), kind=kind, size=size,
            )
        links = self._links
        link = links.get((src, dst))
        if link is None:
            link = links[src, dst] = _Link()
        rng = link.rng
        if rng is None:
            rng = link.rng = self.sim.rng.stream(f"net.link({src}->{dst})")
        wire = self._wire
        wire_ms = wire.packet_overhead_ms + size * wire.per_byte_ms
        self._c_wire.value += wire_ms
        delay = wire_ms
        if wire.jitter_ms > 0.0:
            # The same bits as rng.uniform(0.0, jitter_ms).
            delay += wire.jitter_ms * rng.random()
        now = self.sim.now
        horizon = self._multicast_horizon.get(src, 0.0)
        policies = self.link_policies
        multicast = dst == BROADCAST
        if multicast:
            receivers = self._listeners.get(kind)
            if receivers is None:
                receivers = self._listeners[kind] = [
                    address
                    for address, nic in self._nics.items()
                    if nic.listens(kind)
                ]
            if now + delay > horizon:
                self._multicast_horizon[src] = now + delay
        elif not policies:
            # The common frame: one receiver, nothing to decide.
            self._launch(
                link, Packet(src, dst, kind, payload, size, False, self),
                wire_ms, now, now + delay, horizon, 1, False,
            )
            return
        else:
            receivers = (dst,)
        for receiver in receivers:
            if multicast:
                if receiver == src:
                    continue  # the sender never hears itself
                link = links.get((src, receiver))
                if link is None:
                    link = links[src, receiver] = _Link()
            arrival = now + delay
            copies = 1
            reorder = False
            if policies:
                decision = self._intercept(src, receiver, kind, size, multicast)
                if decision.drop:
                    self._c_dropped.value += 1
                    self._c_policy_drops.value += 1
                    name = decision.dropped_by or "?"
                    drops = self.stats.policy_drops
                    drops[name] = drops.get(name, 0) + 1
                    if tracer.enabled:
                        tracer.emit(
                            str(src), "net", "net.drop",
                            dst=str(receiver), kind=kind, reason=name,
                        )
                    continue
                if decision.extra_delay_ms > 0.0:
                    arrival += decision.extra_delay_ms
                    self._c_delayed.value += 1
                copies += decision.duplicates
                self._c_duplicated.value += decision.duplicates
                reorder = decision.allow_reorder
            self._launch(
                link, Packet(src, receiver, kind, payload, size, multicast, self),
                wire_ms, now, arrival, horizon, copies, reorder,
            )

    def _launch(self, link: _Link, packet: Packet, wire_ms: float, now: float,
                arrival: float, horizon: float, copies: int, reorder: bool) -> None:
        """Meter one delivery on its link, hold it FIFO behind the
        link's last arrival and the sender's last multicast, and
        schedule *copies* of it."""
        if link.bytes is None:
            link_node = f"link({packet.src}->{packet.dst})"
            link.bytes = self._registry.counter(link_node, "net.bytes")
            link.busy = self._registry.counter(link_node, "net.busy_ms")
        link.bytes.value += packet.size
        link.busy.value += wire_ms
        previous = link.last_arrival
        if horizon > previous:
            previous = horizon
        if reorder:
            # Exempt from per-pair FIFO: this delivery may be overtaken
            # by later frames (bounded by the policy's delay ceiling).
            # Do not advance the FIFO horizon.
            if arrival < previous:
                self._c_reordered.value += 1
        else:
            if arrival < previous:
                arrival = previous  # keep per-pair delivery FIFO
            link.last_arrival = arrival
        # A delivery is never cancelled (crash and partition are judged
        # at arrival), so it needs no Timer handle. The key is the
        # delay added back to now, as a scheduled delay is: it can
        # differ from *arrival* in the last bit.
        when = now + (arrival - now)
        sim = self.sim
        deliver = packet._deliver
        heappush(sim._heap, (when, sim._sequence, None, deliver))
        sim._sequence += 1
        while copies > 1:  # the duplicates a link policy added
            heappush(sim._heap, (when, sim._sequence, None, deliver))
            sim._sequence += 1
            copies -= 1

    def _maybe_refuse(self, packet: Packet) -> None:
        """Connection refused: an RPC request — or an enquiry about
        one — whose destination NIC is down (machine crashed or shut
        off) earns an immediate ``rpc.unreach`` control frame back to
        the sender, modelling a link-layer refusal. Only NIC-down
        counts — a *partitioned* destination stays a silent timeout
        (the sender cannot tell a cut cable from a dead host), and
        multicast is never refused.
        """
        if packet.kind not in ("rpc.request", "rpc.enquiry") or packet.multicast:
            return
        dst_nic = self._nics.get(packet.dst)
        if dst_nic is not None and dst_nic.up:
            return  # dropped for another reason (e.g. partition)
        src_nic = self._nics.get(packet.src)
        if src_nic is None or not src_nic.up:
            return
        if not self.partitions.connected(packet.src, packet.dst):
            return
        payload = packet.payload
        if not isinstance(payload, dict) or "txid" not in payload:
            return
        refusal = Packet(
            packet.dst, packet.src, "rpc.unreach", {"txid": payload["txid"]}, 64
        )
        delay = self._wire.transmit_time(64)

        def deliver_refusal() -> None:
            # The refusal's nominal src is the dead machine, so the
            # reachable() check would drop it; deliver directly,
            # requiring only a live receiver and no new partition.
            nic = self._nics.get(refusal.dst)
            if (
                nic is not None
                and nic.up
                and self.partitions.connected(refusal.src, refusal.dst)
            ):
                nic.sink(refusal)

        by_kind = self.stats.frames_by_kind
        by_kind["rpc.unreach"] = by_kind.get("rpc.unreach", 0) + 1
        self._c_frames.inc()
        self._c_bytes.inc(64)
        self.sim.schedule(delay, deliver_refusal)


class Nic:
    """One machine's network interface.

    An arriving frame is handed to :attr:`sink`, which the machine's
    demultiplexer (:mod:`repro.rpc.transport`) binds to its dispatcher
    once; a bare NIC drops what it is sent. Unicast frames addressed to
    the NIC always arrive; multicast frames arrive only for the kinds
    in :attr:`interest`.
    """

    def __init__(self, network: Network, address: Address):
        self.network = network
        self.address = address
        self.up = True
        self._interest: Container[str] = ()
        #: Where :meth:`Packet._deliver` hands an arriving frame.
        self.sink: Callable[[Packet], None] = _drop

    @property
    def interest(self) -> Container[str]:
        """The frame kinds this NIC takes off the wire when they are
        multicast — its multicast address filter (a bare NIC's is
        empty). A demultiplexer installs its *live* handler table here,
        so registering a handler is what joins the multicast address;
        whoever changes that table in place tells the network
        (:meth:`Network.interest_changed`), assigning a new filter here
        does it itself."""
        return self._interest

    @interest.setter
    def interest(self, kinds: Container[str]) -> None:
        self._interest = kinds
        self.network.interest_changed()

    def listens(self, kind: str) -> bool:
        """Whether a multicast frame of *kind* is taken by this NIC."""
        return kind in self._interest


def _drop(packet: Packet) -> None:
    """A bare NIC's sink: the frame arrives and nothing takes it."""
