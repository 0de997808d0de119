"""Per-machine packet demultiplexer (the FLIP layer stand-in).

One :class:`Transport` runs per simulated machine. It drains the
machine's NIC inbox in a background process and dispatches each packet
to the handler registered for the packet's ``kind``. The RPC client,
RPC server, and group-communication kernel all register handlers on
the same transport, exactly as they share one FLIP instance inside an
Amoeba kernel.

The handler table is also the NIC's multicast address filter
(:attr:`repro.net.network.Nic.interest`): a multicast frame reaches
this machine only if some handler is registered for its kind, so
``dropped_unroutable`` counts unicast frames (and multicasts whose
handler was withdrawn while they were in flight).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import Interrupted, NetworkError
from repro.net.network import Nic, Packet
from repro.sim.resources import Cpu
from repro.sim.scheduler import Simulator


class Transport:
    """Dispatches incoming packets by kind; survives NIC restarts."""

    def __init__(self, sim: Simulator, nic: Nic, cpu: Cpu | None = None):
        self.sim = sim
        self.nic = nic
        self.cpu = cpu or Cpu(sim, f"cpu({nic.address})", node=str(nic.address))
        self._handlers: dict[str, Callable[[Packet], None]] = {}
        nic.interest = self._handlers  # live: see the module docstring
        self._pump = None
        self.dropped_unroutable = 0
        self.start()

    @property
    def address(self):
        """The machine's network address."""
        return self.nic.address

    @property
    def alive(self) -> bool:
        """True while the demux pump is running (machine is up)."""
        return self._pump is not None and not self._pump.resolved

    # -- handler registry ---------------------------------------------------

    def register(self, kind: str, handler: Callable[[Packet], None]) -> None:
        """Route packets of *kind* to *handler* (replacing any previous).

        This also makes the NIC take multicast frames of *kind* — for a
        ``grp.<group>.*`` kind, joining the group's FLIP address."""
        self._handlers[kind] = handler

    def unregister(self, kind: str) -> None:
        """Stop routing packets of *kind* (and taking its multicasts)."""
        self._handlers.pop(kind, None)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """(Re)start the demux pump; used at boot and after restart()."""
        if self.alive:
            return
        self._pump = self.sim.spawn(self._run(), f"transport({self.nic.address})")

    def shutdown(self) -> None:
        """Crash the machine's network stack (with its NIC)."""
        if self.nic.up:
            self.nic.shutdown()
        if self._pump is not None:
            self._pump.kill("transport shutdown")
            self._pump = None

    def restart(self) -> None:
        """Bring the stack back up after a crash. Handlers must be
        re-registered by the restarted services."""
        self._handlers.clear()
        kernel = getattr(self, "_rpc_kernel", None)
        if kernel is not None:
            kernel.attached = False  # force a fresh RPC kernel after reboot
        self.nic.restart()
        self._pump = None
        self.start()

    def _run(self):
        while True:
            try:
                packet: Packet = yield self.nic.recv()
            except (NetworkError, Interrupted):
                return  # NIC went down; a restart spawns a fresh pump
            handler = self._handlers.get(packet.kind)
            if handler is None:
                self.dropped_unroutable += 1
                continue
            handler(packet)

    # -- convenience -----------------------------------------------------------

    def send(self, dst, kind: str, payload, size: int = 128) -> None:
        """Unicast via this machine's NIC."""
        self.nic.send(dst, kind, payload, size)

    def broadcast(self, kind: str, payload, size: int = 128) -> None:
        """Multicast via this machine's NIC."""
        self.nic.broadcast(kind, payload, size)
