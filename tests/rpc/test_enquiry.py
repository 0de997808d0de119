"""The enquiry: a client whose reply is overdue asks the server's
kernel "are you still working on this?" instead of sitting out its
whole reply timeout.

What each kind of trouble looks like to the waiting client:

* a **slow server** answers ``rpc.alive`` and is waited for;
* a **dead NIC** refuses the enquiry (``rpc.unreach``);
* a **rebooted kernel** answers that it does not know the transaction;
* a **partition** answers nothing, and a fixed number of silent
  enquiries ends the wait;
* ``reply_timeout_ms`` bounds all of it from outside.
"""

import pytest

from repro.amoeba import Port
from repro.cluster import GroupServiceCluster
from repro.errors import RpcError
from repro.rpc import RpcClient, RpcServer
from repro.rpc.client import RpcTimings
from repro.rpc.kernel import ENQUIRY_LIMIT, ENQUIRY_MS

from tests.helpers import TestBed, counter_total

SLOW = Port.for_service("slow")
#: One frame each way on the paper's LAN, generously.
ROUND_TRIP_MS = 5.0


def start_server(machine, hold_ms=0.0, name="slow"):
    """One thread that holds each request *hold_ms* before replying."""
    server = RpcServer(machine.transport, SLOW, name)
    sim = machine.transport.sim

    def thread():
        while True:
            body, handle = yield server.getreq()
            if hold_ms:
                yield sim.sleep(hold_ms)
            handle.reply({"echo": body})

    return server, sim.spawn(thread(), f"{name}.t")


def one_attempt_client(machine, reply_timeout_ms=10_000.0):
    """A client that reports the first failed attempt (no fail-over)."""
    client = RpcClient(
        machine.transport,
        RpcTimings(reply_timeout_ms=reply_timeout_ms, max_attempts=1),
    )
    client._kernel.port_cache[SLOW] = ["server"]  # pinned: no locate
    return client


def timed_trans(bed, client):
    """Run one trans; (reply or the exception, when it ended)."""

    def run():
        try:
            reply = yield from client.trans(SLOW, "x")
        except RpcError as exc:
            return exc, bed.sim.now
        return reply, bed.sim.now

    return bed.run_until(bed.sim.spawn(run()))


def frames(bed, kind):
    return bed.network.stats.frames_by_kind.get(kind, 0)


class TestSlowServerIsWaitedFor:
    def test_alive_keeps_the_client_waiting_through_a_long_hold(self):
        bed = TestBed(["client", "server"])
        start_server(bed["server"], hold_ms=2_500.0)
        client = one_attempt_client(bed["client"])
        reply, ended = timed_trans(bed, client)
        assert reply == {"echo": "x"}
        assert 2_500.0 < ended < 2_500.0 + ROUND_TRIP_MS
        # Asked at 1 s and at 2 s, answered both times.
        assert frames(bed, "rpc.enquiry") == frames(bed, "rpc.alive") == 2
        assert counter_total(bed.sim, "rpc.enquiries") == 2
        assert counter_total(bed.sim, "rpc.enquiry_failed") == 0

    def test_reply_timeout_stays_the_outer_bound(self):
        """A server that says "alive" forever is still given up on."""
        bed = TestBed(["client", "server"])
        start_server(bed["server"], hold_ms=60_000.0)
        client = one_attempt_client(bed["client"], reply_timeout_ms=3_500.0)
        outcome, ended = timed_trans(bed, client)
        assert isinstance(outcome, RpcError)
        assert ended == pytest.approx(3_500.0, abs=ROUND_TRIP_MS)
        assert frames(bed, "rpc.alive") == 3  # every enquiry was answered
        assert counter_total(bed.sim, "rpc.enquiry_failed") == 0

    def test_a_timeout_no_longer_than_the_enquiry_delay_never_enquires(self):
        bed = TestBed(["client", "server"])
        start_server(bed["server"], hold_ms=60_000.0)
        client = one_attempt_client(bed["client"], reply_timeout_ms=ENQUIRY_MS)
        outcome, ended = timed_trans(bed, client)
        assert isinstance(outcome, RpcError)
        assert ended == pytest.approx(ENQUIRY_MS, abs=ROUND_TRIP_MS)
        assert frames(bed, "rpc.enquiry") == 0

    def test_a_patient_caller_is_asked_as_soon_as_anyone(self):
        """The Fig. 6 state transfer allows 30 s; it is asked after the
        same second as everyone else (each link has its own jitter
        stream, so the frames this puts on a slow boot re-time nobody)."""
        bed = TestBed(["client", "server"])
        start_server(bed["server"], hold_ms=2_900.0)
        client = one_attempt_client(bed["client"], reply_timeout_ms=30_000.0)
        reply, ended = timed_trans(bed, client)
        assert reply == {"echo": "x"} and ended > 2 * ENQUIRY_MS
        assert frames(bed, "rpc.enquiry") == frames(bed, "rpc.alive") == 2


class TestDeadServerIsNot:
    def test_dead_nic_fails_within_one_enquiry_and_a_round_trip(self):
        bed = TestBed(["client", "server"])
        start_server(bed["server"], hold_ms=60_000.0)
        client = one_attempt_client(bed["client"])
        bed.sim.schedule(100.0, bed["server"].crash)  # request is inside
        outcome, ended = timed_trans(bed, client)
        assert isinstance(outcome, RpcError)
        assert "unreachable" in str(outcome)
        # One enquiry delay, one refused frame, one retry backoff.
        assert ENQUIRY_MS < ended < ENQUIRY_MS + ROUND_TRIP_MS
        assert frames(bed, "rpc.enquiry") == 1
        assert frames(bed, "rpc.unreach") == 1
        assert counter_total(bed.sim, "rpc.enquiry_failed") == 1

    def test_rebooted_server_fails_the_transaction_at_once(self):
        bed = TestBed(["client", "server"])
        start_server(bed["server"], hold_ms=60_000.0)
        client = one_attempt_client(bed["client"])

        def reboot():
            bed["server"].crash()
            bed["server"].restart()
            start_server(bed["server"], name="slow.rebooted")

        bed.sim.schedule(100.0, reboot)
        outcome, ended = timed_trans(bed, client)
        assert isinstance(outcome, RpcError)
        assert "does not hold the transaction" in str(outcome)
        assert ENQUIRY_MS < ended < ENQUIRY_MS + ROUND_TRIP_MS
        assert frames(bed, "rpc.enquiry") == frames(bed, "rpc.alive") == 1
        assert counter_total(bed.sim, "rpc.enquiry_failed") == 1

    def test_partition_fails_after_the_fixed_number_of_silent_enquiries(self):
        bed = TestBed(["client", "server"])
        start_server(bed["server"], hold_ms=60_000.0)
        client = one_attempt_client(bed["client"])
        bed.sim.schedule(
            100.0, lambda: bed.network.partitions.split([["server"]])
        )
        outcome, ended = timed_trans(bed, client)
        assert isinstance(outcome, RpcError)
        # ENQUIRY_LIMIT enquiries, each given one period to be answered.
        assert ended == pytest.approx((ENQUIRY_LIMIT + 1) * ENQUIRY_MS, abs=ROUND_TRIP_MS)
        assert frames(bed, "rpc.enquiry") == ENQUIRY_LIMIT
        assert frames(bed, "rpc.alive") == frames(bed, "rpc.unreach") == 0
        assert counter_total(bed.sim, "rpc.enquiry_failed") == 1

    def test_partition_never_outlasts_the_reply_timeout(self):
        bed = TestBed(["client", "server"])
        start_server(bed["server"], hold_ms=60_000.0)
        client = one_attempt_client(bed["client"], reply_timeout_ms=2_500.0)
        bed.sim.schedule(
            100.0, lambda: bed.network.partitions.split([["server"]])
        )
        outcome, ended = timed_trans(bed, client)
        assert isinstance(outcome, RpcError)
        assert ended == pytest.approx(2_500.0, abs=ROUND_TRIP_MS)

    def test_fail_over_reaches_a_live_replica_after_one_enquiry(self):
        """The point of it all: trans() moves on after ~1 s, not 10."""
        bed = TestBed(["client", "dead", "live"])
        start_server(bed["dead"], hold_ms=60_000.0, name="dead")
        start_server(bed["live"], name="live")
        client = RpcClient(
            bed["client"].transport, RpcTimings(reply_timeout_ms=10_000.0)
        )
        client._kernel.port_cache[SLOW] = ["dead", "live"]
        bed.sim.schedule(100.0, bed["dead"].crash)

        def run():
            reply = yield from client.trans(SLOW, "x")
            return reply, bed.sim.now

        reply, ended = bed.run_until(bed.sim.spawn(run()))
        assert reply == {"echo": "x"}
        assert ended < ENQUIRY_MS + 20.0
        assert list(client._kernel.port_cache.get(SLOW, ())) == ["live"]


class TestHarmlessWhenNothingIsWrong:
    def test_enquiry_crossing_the_reply_on_the_wire(self):
        """The server replies an instant before the enquiry arrives:
        its kernel no longer knows the id and says so, but the client
        has the reply by then (links are FIFO) and ignores the answer."""
        # The enquiry leaves at 1000 ms plus the client's start-up
        # overhead; find the hold that makes the reply leave while the
        # enquiry is in flight by trying the few candidates around it.
        for hold in (999.0, 999.5, 1_000.0, 1_000.5, 1_001.0):
            bed = TestBed(["client", "server"])
            start_server(bed["server"], hold_ms=hold)
            client = one_attempt_client(bed["client"])
            reply, _ = timed_trans(bed, client)
            bed.run(until=bed.sim.now + 50.0)
            assert reply == {"echo": "x"}
            assert counter_total(bed.sim, "rpc.enquiry_failed") == 0
            assert not client._kernel._pending
            assert not client._kernel._unanswered
            if frames(bed, "rpc.enquiry"):
                break
        else:
            pytest.fail("no hold made the enquiry cross the reply")
        assert frames(bed, "rpc.alive") == 1

    def test_kernel_tables_are_empty_after_the_reply(self):
        bed = TestBed(["client", "server"])
        server, _ = start_server(bed["server"], hold_ms=1_500.0)
        client = one_attempt_client(bed["client"])
        reply, _ = timed_trans(bed, client)
        assert reply == {"echo": "x"}
        assert not client._kernel._pending
        assert not client._kernel._unanswered
        assert not server._kernel._in_progress

    def test_fault_free_writers_put_no_enquiry_on_the_wire(self):
        cluster = GroupServiceCluster(seed=11, server_threads=8)
        cluster.start()
        cluster.wait_operational()
        root = cluster.root_capability
        before = dict(cluster.network.stats.frames_by_kind)
        assert "rpc.enquiry" not in before  # nor did the boot

        def writer(i):
            client = cluster.add_client(f"w{i}", retry_safe=True)
            for n in range(6):
                yield from client.append_row(root, f"w{i}-{n}", (root,))
                yield from client.delete_row(root, f"w{i}-{n}")

        writers = [cluster.sim.spawn(writer(i), f"w{i}") for i in range(8)]
        for process in writers:
            cluster.sim.run_until_complete(process)
        kinds = cluster.network.stats.frames_by_kind
        assert kinds["rpc.request"] - before["rpc.request"] >= 8 * 12
        assert "rpc.enquiry" not in kinds and "rpc.alive" not in kinds
