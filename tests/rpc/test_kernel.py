"""Unit tests for RPC-kernel edge cases."""

import pytest

from repro.amoeba import Port
from repro.errors import Interrupted
from repro.rpc import RpcClient, RpcServer
from repro.rpc.kernel import rpc_kernel

from tests.helpers import TestBed

ECHO = Port.for_service("echo")


def start_echo(machine, name="echo"):
    server = RpcServer(machine.transport, ECHO, name)
    sim = machine.transport.sim

    def thread():
        while True:
            body, handle = yield server.getreq()
            handle.reply({"echo": body})

    process = sim.spawn(thread(), f"{name}.thread")
    return server, process


class TestKernelLifecycle:
    def test_kernel_is_shared_per_machine(self):
        bed = TestBed(["m"])
        first = rpc_kernel(bed["m"].transport)
        second = rpc_kernel(bed["m"].transport)
        assert first is second

    def test_restart_creates_fresh_kernel(self):
        bed = TestBed(["m"])
        first = rpc_kernel(bed["m"].transport)
        bed["m"].transport.restart()
        second = rpc_kernel(bed["m"].transport)
        assert first is not second
        assert not first.attached

    def test_port_cache_per_machine_not_per_client(self):
        bed = TestBed(["client", "server"])
        start_echo(bed["server"])
        c1 = RpcClient(bed["client"].transport)
        c2 = RpcClient(bed["client"].transport)

        def run():
            yield from c1.trans(ECHO, 1)
            # The second client reuses the first one's located server.
            before = bed.network.stats.frames_by_kind.get("rpc.locate", 0)
            yield from c2.trans(ECHO, 2)
            after = bed.network.stats.frames_by_kind.get("rpc.locate", 0)
            return after - before

        assert bed.run_until(bed.sim.spawn(run())) == 0


class TestLateAndDuplicatePackets:
    def test_late_reply_after_timeout_is_dropped(self):
        """A reply landing after the client gave up must not confuse a
        later transaction."""
        bed = TestBed(["client", "server"])
        server = RpcServer(bed["server"].transport, ECHO)
        sim = bed.sim

        def slow_thread():
            body, handle = yield server.getreq()
            yield sim.sleep(500.0)  # slower than the client's patience
            handle.reply("too late")
            while True:
                body, handle = yield server.getreq()
                handle.reply("prompt")

        sim.spawn(slow_thread())
        from repro.rpc.client import RpcTimings

        client = RpcClient(
            bed["client"].transport,
            RpcTimings(reply_timeout_ms=100.0, max_attempts=3),
        )

        def run():
            from repro.errors import RpcError, TimeoutError as SimTimeout

            try:
                yield from client.trans(ECHO, "first")
            except (RpcError, SimTimeout):
                pass
            yield sim.sleep(1_000.0)  # the late reply lands harmlessly here
            # locate again (cache was dropped on timeout)
            reply = yield from client.trans(ECHO, "second")
            return reply

        assert bed.run_until(bed.sim.spawn(run())) == "prompt"

    def test_reply_to_crashed_client_vanishes(self):
        bed = TestBed(["client", "server"])
        server = RpcServer(bed["server"].transport, ECHO)
        sim = bed.sim

        def thread():
            body, handle = yield server.getreq()
            yield sim.sleep(100.0)
            handle.reply("nobody listens")  # client machine is gone

        sim.spawn(thread())
        client = RpcClient(bed["client"].transport)

        def run():
            try:
                yield sim.timeout(
                    sim.spawn(_trans(client), "inner"), 50.0
                )
            except Exception:
                pass

        def _trans(c):
            yield from c.trans(ECHO, "x")

        bed.sim.spawn(run())
        bed.sim.schedule(60.0, bed["client"].crash)
        bed.run(until=2_000.0)  # must not blow up anywhere

    def test_unroutable_packets_counted(self):
        bed = TestBed(["a", "b"])
        bed["a"].transport.send("b", "no.such.kind", {"x": 1})
        bed.run()
        assert bed["b"].transport.dropped_unroutable == 1


class TestServerThreadPool:
    def test_listening_reflects_waiting_threads(self):
        bed = TestBed(["m"])
        server = RpcServer(bed["m"].transport, ECHO)
        assert not server.listening
        fut = server.getreq()
        assert server.listening
        fut.interrupt()
        assert not server.listening

    def test_interrupted_getreqs_stop_counting_wherever_they_queue(self):
        """An interrupted getreq in the middle of the queue or at its
        head counts for nothing, and is handed no request."""
        bed = TestBed(["m"])
        server = RpcServer(bed["m"].transport, ECHO)
        head, middle, tail = (server.getreq() for _ in range(3))
        middle.interrupt()
        assert server.listening
        server.deliver("first", "client", ("client", 1))
        assert head.value[0] == "first"
        assert server.listening  # the tail waits behind the interrupted one
        server.deliver("second", "client", ("client", 2))
        assert tail.value[0] == "second"
        assert not server.listening and not server._waiting
        first, second = server.getreq(), server.getreq()
        first.interrupt()
        assert server.listening
        second.interrupt()
        assert not server.listening and not server._waiting

    def test_concurrent_requests_need_concurrent_threads(self):
        """With one thread, the second simultaneous request bounces;
        with two threads both are served."""

        def serve_with(threads):
            bed = TestBed(["c1", "c2", "server"])
            server = RpcServer(bed["server"].transport, ECHO)
            sim = bed.sim

            def worker():
                while True:
                    body, handle = yield server.getreq()
                    yield sim.sleep(50.0)
                    handle.reply("done")

            for _ in range(threads):
                sim.spawn(worker())
            bounced = {"n": 0}

            def client_run(machine):
                client = RpcClient(machine.transport)
                try:
                    yield from client.trans(ECHO, "x")
                finally:
                    bounced["n"] += client.bounces

            p1 = sim.spawn(client_run(bed["c1"]))
            p2 = sim.spawn(client_run(bed["c2"]))
            bed.run(until=5_000.0)
            assert p1.resolved and p2.resolved
            return bounced["n"]

        assert serve_with(1) > 0
        assert serve_with(2) == 0
