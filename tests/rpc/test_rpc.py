"""Unit/integration tests for the Amoeba RPC layer."""

import pytest

from repro.amoeba import Port
from repro.errors import LocateError, RpcError
from repro.rpc import RpcClient, RpcServer
from repro.rpc.client import RpcTimings

from tests.helpers import TestBed, wire_count

ECHO = Port.for_service("echo")


def start_echo_server(machine, threads=1, delay=0.0, name="echo"):
    """An echo service with *threads* server threads."""
    server = RpcServer(machine.transport, ECHO, name)
    sim = machine.transport.sim

    def thread():
        while True:
            body, handle = yield server.getreq()
            if delay:
                yield sim.sleep(delay)
            handle.reply({"echo": body})

    processes = [sim.spawn(thread(), f"{name}.t{i}") for i in range(threads)]
    return server, processes


class TestBasicRpc:
    def test_round_trip(self):
        bed = TestBed(["client", "server"])
        start_echo_server(bed["server"])
        client = RpcClient(bed["client"].transport)

        def run():
            reply = yield from client.trans(ECHO, "hello")
            return reply

        assert bed.run_until(bed.sim.spawn(run())) == {"echo": "hello"}

    def test_rpc_takes_simulated_time(self):
        bed = TestBed(["client", "server"])
        start_echo_server(bed["server"])
        client = RpcClient(bed["client"].transport)

        def run():
            yield from client.trans(ECHO, "x")

        bed.run_until(bed.sim.spawn(run()))
        # locate + request + reply: strictly positive, well under 100 ms
        assert 0.5 < bed.sim.now < 100.0

    def test_port_cache_skips_relocate_on_second_call(self):
        bed = TestBed(["client", "server"])
        start_echo_server(bed["server"])
        client = RpcClient(bed["client"].transport)

        def run():
            yield from client.trans(ECHO, 1)
            before = bed.network.stats.frames_by_kind.get("rpc.locate", 0)
            yield from client.trans(ECHO, 2)
            after = bed.network.stats.frames_by_kind.get("rpc.locate", 0)
            return before, after

        before, after = bed.run_until(bed.sim.spawn(run()))
        assert before == after == 1

    def test_rpc_costs_three_packets_after_locate(self):
        """The paper counts an Amoeba RPC as 3 messages."""
        bed = TestBed(["client", "server"])
        start_echo_server(bed["server"])
        client = RpcClient(bed["client"].transport)

        def run():
            yield from client.trans(ECHO, "warm")  # locate happens here
            snapshot = wire_count(bed.network, "net.frames_sent")
            yield from client.trans(ECHO, "measured")
            yield bed.sim.sleep(5.0)  # let the trailing ack hit the wire
            return wire_count(bed.network, "net.frames_sent") - snapshot

        assert bed.run_until(bed.sim.spawn(run())) == 3

    def test_server_exception_propagates_to_client(self):
        bed = TestBed(["client", "server"])
        server = RpcServer(bed["server"].transport, ECHO)

        def thread():
            _, handle = yield server.getreq()
            handle.error(KeyError("no such thing"))

        bed.sim.spawn(thread())
        client = RpcClient(bed["client"].transport)

        def run():
            try:
                yield from client.trans(ECHO, "x")
            except KeyError as exc:
                return str(exc)
            return "no error"

        assert "no such thing" in bed.run_until(bed.sim.spawn(run()))

    def test_concurrent_clients_all_served(self):
        bed = TestBed(["c1", "c2", "c3", "server"])
        start_echo_server(bed["server"], threads=3)
        results = []

        def run(machine, value):
            client = RpcClient(machine.transport)
            reply = yield from client.trans(ECHO, value)
            results.append(reply["echo"])

        for i, name in enumerate(["c1", "c2", "c3"]):
            bed.sim.spawn(run(bed[name], i))
        bed.run()
        assert sorted(results) == [0, 1, 2]


class TestLocate:
    def test_no_server_raises_locate_error(self):
        bed = TestBed(["client"])
        client = RpcClient(
            bed["client"].transport,
            RpcTimings(locate_attempts=2),
        )

        def run():
            try:
                yield from client.trans(ECHO, "x")
            except LocateError:
                return "locate failed"

        assert bed.run_until(bed.sim.spawn(run())) == "locate failed"

    def test_busy_server_does_not_answer_locate(self):
        bed = TestBed(["client", "server"])
        # Server exists but never calls getreq -> never listening.
        RpcServer(bed["server"].transport, ECHO)
        client = RpcClient(
            bed["client"].transport,
            RpcTimings(locate_attempts=2),
        )

        def run():
            try:
                yield from client.trans(ECHO, "x")
            except LocateError:
                return "silent"

        assert bed.run_until(bed.sim.spawn(run())) == "silent"

    def test_all_listening_servers_end_up_in_cache(self):
        bed = TestBed(["client", "s1", "s2", "s3"])
        for name in ("s1", "s2", "s3"):
            start_echo_server(bed[name], name=name)
        client = RpcClient(bed["client"].transport)

        def run():
            yield from client.trans(ECHO, "x")
            yield bed.sim.sleep(10.0)  # let the slower HEREIS replies land
            return client.cached_servers(ECHO)

        cached = bed.run_until(bed.sim.spawn(run()))
        assert sorted(cached) == ["s1", "s2", "s3"]


class TestNotHereFailover:
    def test_nothere_when_no_thread_listening(self):
        bed = TestBed(["client", "busy", "idle"])
        # "busy" registers the port but never has a thread in getreq();
        # "idle" can always serve.
        RpcServer(bed["busy"].transport, ECHO, "busy")
        start_echo_server(bed["idle"], name="idle")
        client = RpcClient(bed["client"].transport)
        kernel = client._kernel

        def run():
            yield from client.trans(ECHO, "warm")
            yield bed.sim.sleep(10.0)
            # Force the busy server to the front of the port cache so the
            # next request is guaranteed to hit it and bounce.
            kernel.port_cache[ECHO] = ["busy", "idle"]
            reply = yield from client.trans(ECHO, "bounced")
            return reply

        reply = bed.run_until(bed.sim.spawn(run()))
        assert reply == {"echo": "bounced"}
        assert client.bounces == 1
        # After the bounce the client must have dropped the busy server.
        assert "busy" not in client.cached_servers(ECHO)

    def test_failover_to_cached_alternative(self):
        bed = TestBed(["client", "s1", "s2"])
        start_echo_server(bed["s1"], name="s1")
        start_echo_server(bed["s2"], name="s2")
        client = RpcClient(bed["client"].transport)

        def run():
            yield from client.trans(ECHO, "warm")
            yield bed.sim.sleep(10.0)
            first = client.cached_servers(ECHO)[0]
            bed[first].crash()
            reply = yield from client.trans(ECHO, "after crash")
            return reply

        reply = bed.run_until(bed.sim.spawn(run()))
        assert reply == {"echo": "after crash"}

    def test_crashed_only_server_gives_rpc_error(self):
        bed = TestBed(["client", "server"])
        start_echo_server(bed["server"])
        client = RpcClient(
            bed["client"].transport,
            RpcTimings(
                reply_timeout_ms=50.0,
                locate_attempts=2,
                max_attempts=2,
            ),
        )

        def run():
            yield from client.trans(ECHO, "warm")
            bed["server"].crash()
            try:
                yield from client.trans(ECHO, "dead")
            except (RpcError, LocateError) as exc:
                return type(exc).__name__

        assert bed.run_until(bed.sim.spawn(run())) in {"RpcError", "LocateError"}


class TestServerLifecycle:
    def test_withdraw_interrupts_waiting_threads(self):
        bed = TestBed(["server"])
        server = RpcServer(bed["server"].transport, ECHO)
        outcomes = []

        def thread():
            from repro.errors import Interrupted

            try:
                yield server.getreq()
            except Interrupted:
                outcomes.append("interrupted")

        bed.sim.spawn(thread())
        bed.sim.schedule(1.0, server.withdraw)
        bed.run()
        assert outcomes == ["interrupted"]

    def test_requests_served_counter(self):
        bed = TestBed(["client", "server"])
        server, _ = start_echo_server(bed["server"])
        client = RpcClient(bed["client"].transport)

        def run():
            for i in range(4):
                yield from client.trans(ECHO, i)

        bed.run_until(bed.sim.spawn(run()))
        assert server.requests_served == 4

    def test_reply_handle_single_use(self):
        bed = TestBed(["client", "server"])
        server = RpcServer(bed["server"].transport, ECHO)

        def thread():
            _, handle = yield server.getreq()
            handle.reply("first")
            handle.reply("second")  # silently ignored

        bed.sim.spawn(thread())
        client = RpcClient(bed["client"].transport)

        def run():
            reply = yield from client.trans(ECHO, "x")
            yield bed.sim.sleep(20.0)
            return reply

        assert bed.run_until(bed.sim.spawn(run())) == "first"
