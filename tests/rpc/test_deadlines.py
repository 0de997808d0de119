"""The RPC kernel's deadline table: every wait for a reply is one entry
in it, and one timer per kernel — armed for the earliest deadline,
never cancelled — fails the waits that are due.

The client here has no start-up overhead, so a transaction's request
leaves at 0 ms and its waits end at whole milliseconds; the ``mute``
machine has no RPC kernel, so nothing answers a request sent there
unless a test hands the client's kernel a reply itself.
"""

from repro.amoeba import Port
from repro.errors import RpcError
from repro.net.network import Packet
from repro.rpc import RpcClient, RpcServer
from repro.rpc.client import RpcTimings
from repro.rpc.kernel import ENQUIRY_MS, rpc_kernel
from repro.sim.latency import CpuLatency, LatencyModel

from tests.helpers import TestBed

MUTE = Port.for_service("mute")


def bed_without_overhead(*extra):
    return TestBed(
        ["client", "mute", *extra],
        latency=LatencyModel(cpu=CpuLatency(client_overhead_ms=0.0)),
    )


def client_on(bed, reply_timeout_ms):
    """One attempt per trans, pinned to the mute machine."""
    client = RpcClient(
        bed["client"].transport,
        RpcTimings(reply_timeout_ms=reply_timeout_ms, max_attempts=1),
    )
    client._kernel.port_cache[MUTE] = ["mute"]
    return client


def transaction(bed, client, ended, key):
    """One trans; ``ended[key]`` is (its reply or exception type, when)."""
    try:
        reply = yield from client.trans(MUTE, key)
    except RpcError as exc:
        ended[key] = (type(exc), bed.sim.now)
    else:
        ended[key] = (reply, bed.sim.now)


def reply_to_the_pending_transaction(kernel, body):
    """What the reply's arrival event does on the client's machine."""
    [txid] = kernel._pending
    kernel._on_reply(
        Packet("mute", "client", "rpc.reply", {"txid": txid, "body": body, "error": None}, 64)
    )


def frames(bed, kind):
    return bed.network.stats.frames_by_kind.get(kind, 0)


def assert_tables_empty(kernel):
    assert not kernel._pending
    assert not kernel._deadlines
    assert not kernel._unanswered


class TestAReplyAtTheDeadline:
    def test_one_queued_before_the_wait_began_is_taken(self):
        bed = bed_without_overhead()
        client = client_on(bed, reply_timeout_ms=10_000.0)
        ended = {}
        bed.sim.schedule(
            ENQUIRY_MS,
            lambda: reply_to_the_pending_transaction(client._kernel, "in time"),
        )
        bed.run_until(bed.sim.spawn(transaction(bed, client, ended, "x")))
        assert ended["x"] == ("in time", ENQUIRY_MS)
        assert frames(bed, "rpc.enquiry") == 0
        assert_tables_empty(client._kernel)

    def test_one_queued_after_it_ends_the_attempt_unasked(self):
        """The timer was in the heap first, so the wait runs out first;
        the reply then settles the transaction before the caller
        resumes, and the attempt ends as a timeout with no enquiry sent
        — as it did when each wait was a future of its own."""
        bed = bed_without_overhead()
        client = client_on(bed, reply_timeout_ms=10_000.0)
        ended = {}
        process = bed.sim.spawn(transaction(bed, client, ended, "x"))
        bed.sim.schedule(
            1.0,
            lambda: bed.sim.schedule(
                ENQUIRY_MS - 1.0,
                lambda: reply_to_the_pending_transaction(client._kernel, "late"),
            ),
        )
        bed.run_until(process)
        assert ended["x"] == (RpcError, ENQUIRY_MS)
        assert frames(bed, "rpc.enquiry") == 0
        assert_tables_empty(client._kernel)


class TestOneTimerForManyWaits:
    def test_deadlines_out_of_order_each_fail_at_their_own_instant(self):
        """Registered 600, 200, then (at 100 ms) 400 ms out: one kernel,
        three waits, each failed exactly when it is due."""
        bed = bed_without_overhead()
        ended = {}
        spawn = bed.sim.spawn
        spawn(transaction(bed, client_on(bed, 600.0), ended, "first"))
        spawn(transaction(bed, client_on(bed, 200.0), ended, "second"))
        bed.sim.schedule(
            100.0, lambda: spawn(transaction(bed, client_on(bed, 400.0), ended, "third"))
        )
        bed.run(until=1_000.0)
        assert ended == {
            "second": (RpcError, 200.0),
            "third": (RpcError, 500.0),
            "first": (RpcError, 600.0),
        }
        assert list(ended) == ["second", "third", "first"]
        assert_tables_empty(rpc_kernel(bed["client"].transport))

    def test_a_killed_waiter_leaves_the_table_at_once(self):
        bed = bed_without_overhead()
        kernel = rpc_kernel(bed["client"].transport)
        ended = {}
        doomed = bed.sim.spawn(transaction(bed, client_on(bed, 500.0), ended, "doomed"))
        bed.sim.spawn(transaction(bed, client_on(bed, 800.0), ended, "other"))
        bed.run(until=100.0)
        assert len(kernel._deadlines) == len(kernel._pending) == 2
        doomed.kill("crash")
        assert len(kernel._deadlines) == len(kernel._pending) == 1
        bed.run(until=1_000.0)
        assert ended == {"other": (RpcError, 800.0)}
        assert_tables_empty(kernel)

    def test_the_old_kernels_timer_fires_harmlessly_after_a_restart(self):
        """A reboot replaces the machine's kernel; the replaced one's
        timer is still in the heap, and fires on a table the kill
        emptied, while the new kernel's transaction — asked about at
        its own second, and answered — goes on."""
        bed = bed_without_overhead("server")
        server = RpcServer(bed["server"].transport, MUTE, "slow")

        def slow_thread():
            while True:
                body, handle = yield server.getreq()
                yield bed.sim.sleep(1_500.0)
                handle.reply(body)

        bed.sim.spawn(slow_thread())
        old_kernel = rpc_kernel(bed["client"].transport)
        ended = {}
        victim = bed.sim.spawn(transaction(bed, client_on(bed, 10_000.0), ended, "old"))
        later = {}

        def reboot():
            victim.kill("reboot")
            bed["client"].crash()
            bed["client"].restart()
            client = RpcClient(bed["client"].transport, RpcTimings(max_attempts=1))
            client._kernel.port_cache[MUTE] = ["server"]
            later["kernel"] = client._kernel
            later["process"] = bed.sim.spawn(transaction(bed, client, ended, "new"))

        bed.sim.schedule(100.0, reboot)
        bed.run(until=ENQUIRY_MS + 1.0)
        assert old_kernel._alarm_at == float("inf")  # fired, found nothing
        bed.run_until(later["process"])
        reply, when = ended["new"]
        assert reply == "new" and 1_600.0 < when < 1_610.0
        assert frames(bed, "rpc.enquiry") == frames(bed, "rpc.alive") == 1
        assert "old" not in ended
        assert later["kernel"] is not old_kernel
        assert_tables_empty(old_kernel)
        assert_tables_empty(later["kernel"])
