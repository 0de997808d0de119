"""Per-machine packet demultiplexer (the FLIP layer stand-in).

One :class:`Transport` serves each simulated machine. It is the sink of
the machine's NIC: the network hands it every arriving packet inside
the delivery event, and :meth:`Transport._dispatch` calls the handler
registered for the packet's ``kind`` there and then — no process, no
queue, as FLIP hands a packet to the RPC or group code inside the
Amoeba kernel. The RPC client, RPC server, and group-communication
kernel all register handlers on the same transport, exactly as they
share one FLIP instance.

A handler runs on the simulator's own stack, so one that raises is
loud: the exception propagates out of ``sim.run`` (it is a bug in
protocol code, not a fault the simulated system is meant to survive —
a handler that wants to drop a malformed frame returns).

The handler table is also the NIC's multicast address filter
(:attr:`repro.net.network.Nic.interest`): a multicast frame reaches
this machine only if some handler is registered for its kind, so
``dropped_unroutable`` counts unicast frames (and multicasts whose
handler a restart cleared while they were in flight). The table is
changed in place, so every change tells the network to drop its
multicast listener index.
"""

from __future__ import annotations

from typing import Callable

from repro.net.network import BROADCAST, Nic, Packet
from repro.sim.resources import Cpu
from repro.sim.scheduler import Simulator


class Transport:
    """Dispatches incoming packets by kind; survives NIC restarts."""

    def __init__(self, sim: Simulator, nic: Nic):
        self.sim = sim
        self.nic = nic
        self.cpu = Cpu(sim, f"cpu({nic.address})", node=str(nic.address))
        self._handlers: dict[str, Callable[[Packet], None]] = {}
        nic.interest = self._handlers  # live: see the module docstring
        nic.sink = self._dispatch  # for good: a restart keeps it
        self.dropped_unroutable = 0
        # Frames go straight onto the wire; the NIC's up check is the
        # network's (a down NIC refuses to transmit).
        self._transmit = nic.network.transmit

    @property
    def address(self):
        """The machine's network address."""
        return self.nic.address

    @property
    def alive(self) -> bool:
        """True while the machine's NIC is up."""
        return self.nic.up

    # -- handler registry ---------------------------------------------------

    def register(self, kind: str, handler: Callable[[Packet], None]) -> None:
        """Route packets of *kind* to *handler* (replacing any previous).

        This also makes the NIC take multicast frames of *kind* — for a
        ``grp.<group>.*`` kind, joining the group's FLIP address."""
        self._handlers[kind] = handler
        self.nic.network.interest_changed()

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self) -> None:
        """Crash the machine's network stack (with its NIC): it neither
        sends nor receives, and frames in flight to it are lost."""
        self.nic.up = False

    def restart(self) -> None:
        """Bring the stack back up after a crash. Handlers must be
        re-registered by the restarted services."""
        self._handlers.clear()
        self.nic.network.interest_changed()
        kernel = getattr(self, "_rpc_kernel", None)
        if kernel is not None:
            kernel.attached = False  # force a fresh RPC kernel after reboot
        self.nic.up = True

    def _dispatch(self, packet: Packet) -> None:
        """The NIC's sink: run the handler for *packet*'s kind, now."""
        handler = self._handlers.get(packet.kind)
        if handler is None:
            self.dropped_unroutable += 1
        else:
            handler(packet)

    # -- convenience -----------------------------------------------------------

    def send(self, dst, kind: str, payload, size: int = 128) -> None:
        """Unicast from this machine's NIC."""
        self._transmit(self.nic.address, dst, kind, payload, size)

    def broadcast(self, kind: str, payload, size: int = 128) -> None:
        """Multicast from this machine's NIC."""
        self._transmit(self.nic.address, BROADCAST, kind, payload, size)
