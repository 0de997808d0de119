"""The per-machine demultiplexer: a frame reaches its handler inside
the event that delivers it (no process, no queue in between)."""

import pytest

from tests.helpers import TestBed, wire_count

KIND = "t.ping"


class TestDispatch:
    def test_a_raising_handler_is_loud(self):
        """It used to kill the pump silently and leave the machine up
        but deaf for good."""
        bed = TestBed(["a", "b"])

        def broken(packet):
            raise ValueError(f"cannot parse {packet.payload!r}")

        bed["b"].transport.register(KIND, broken)
        bed["a"].transport.send("b", KIND, "junk")
        with pytest.raises(ValueError, match="cannot parse 'junk'"):
            bed.sim.run()
        # The machine is not deaf: the next frame is dispatched too.
        got = []
        bed["b"].transport.register(KIND, got.append)
        bed["a"].transport.send("b", KIND, "fine")
        bed.sim.run()
        assert [p.payload for p in got] == ["fine"]

    def test_frames_of_one_instant_reach_their_handlers_in_scheduling_order(self):
        bed = TestBed(["a", "b", "c"])
        bed.network.latency.network.jitter_ms = 0.0
        order = []

        def handler(packet):
            order.append((bed.sim.now, packet.src, packet.payload))
            # Scheduled from inside a delivery for this very instant:
            # runs after everything already scheduled for it.
            bed.sim.call_soon(lambda: order.append((bed.sim.now, "soon", packet.payload)))

        bed["c"].transport.register(KIND, handler)
        for n in range(3):  # same size, same instant: equal arrival times
            bed["b" if n % 2 else "a"].transport.send("c", KIND, n)
        bed.sim.run()
        assert len({at for at, _, _ in order}) == 1
        assert [(who, n) for _, who, n in order] == [
            ("a", 0), ("b", 1), ("a", 2), ("soon", 0), ("soon", 1), ("soon", 2),
        ]

    def test_a_frame_in_flight_to_a_nic_that_went_down_is_dropped_and_counted(self):
        bed = TestBed(["a", "b"])
        got = []
        bed["b"].transport.register(KIND, got.append)
        bed["a"].transport.send("b", KIND, 1)
        bed["b"].crash()  # before the frame arrives
        bed.sim.run()
        assert got == [] and wire_count(bed.network, "net.frames_dropped") == 1
        assert not bed["b"].nic.up

    def test_restart_rebinds_the_sink_and_empties_the_handler_table(self):
        bed = TestBed(["a", "b"])
        old, new = [], []
        transport = bed["b"].transport
        transport.register(KIND, old.append)
        bed["b"].crash()
        bed["b"].restart()
        assert transport.nic.up
        bed["a"].transport.send("b", KIND, 1)
        bed.sim.run()
        assert old == [] and transport.dropped_unroutable == 1
        transport.register(KIND, new.append)
        bed["a"].transport.send("b", KIND, 2)
        bed.sim.run()
        assert [p.payload for p in new] == [2]
