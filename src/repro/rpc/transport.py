"""Per-machine packet demultiplexer (the FLIP layer stand-in).

One :class:`Transport` serves each simulated machine. Its handler table
is the NIC's: the network runs the handler registered for an arriving
packet's ``kind`` inside the delivery event, there and then — no
process, no queue, as FLIP hands a packet to the RPC or group code
inside the Amoeba kernel — and hands a packet no handler takes to
:meth:`Transport._dispatch`, the NIC's sink, which counts it. The RPC
client, RPC server, and group-communication kernel all register
handlers on the same transport, exactly as they share one FLIP
instance.

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

Sending is the network's :meth:`~repro.net.network.Network.transmit`
with this machine's address bound (``functools.partial``): ``send(dst,
kind, payload, size=128)`` and ``broadcast(kind, payload, size=128)``
cost no call of their own.
"""

from __future__ import annotations

from functools import partial
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
        #: The machine's network address.
        self.address = nic.address
        self._handlers: dict[str, Callable[[Packet], None]] = {}
        # Live, and for good (a restart keeps them): see the module
        # docstring.
        nic.interest = nic.handlers = self._handlers
        nic.sink = self._dispatch
        self.dropped_unroutable = 0
        # Frames go straight onto the wire; the NIC's up check is the
        # network's (a down NIC refuses to transmit).
        transmit = nic.network.transmit
        #: Unicast from this machine's NIC.
        self.send = partial(transmit, self.address)
        #: Multicast from this machine's NIC.
        self.broadcast = partial(transmit, self.address, BROADCAST)

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
        """The NIC's sink: run the handler for *packet*'s kind, now, or
        count it unroutable (a delivery calls a registered handler
        itself, so a frame lands here when there is none)."""
        handler = self._handlers.get(packet.kind)
        if handler is None:
            self.dropped_unroutable += 1
        else:
            handler(packet)
