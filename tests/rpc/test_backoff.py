"""Retry hardening: capped exponential backoff and connection-refused.

A server machine whose NIC is down actively refuses requests (the
network synthesizes ``rpc.unreach``), which clients treat as an
immediate eviction signal — no reply timeout is burned on the corpse.
Backoff between retries is exponential with a cap and deterministic
jitter drawn from the seeded simulation RNG.
"""

import pytest

from repro.amoeba import Port
from repro.errors import RpcError
from repro.rpc import RpcClient, RpcServer
from repro.rpc import client as rpc_client
from repro.rpc.client import RpcTimings

from tests.helpers import TestBed
from tests.rpc.test_rpc import start_echo_server

ECHO = Port.for_service("echo")


class TestBackoff:
    def test_backoff_grows_and_caps(self, monkeypatch):
        monkeypatch.setattr(rpc_client, "RETRY_BACKOFF_CAP_MS", 16.0)
        monkeypatch.setattr(rpc_client, "RETRY_JITTER", 0.0)
        bed = TestBed(["client"])
        client = RpcClient(bed["client"].transport)
        delays = [client._backoff_ms(n) for n in range(6)]
        assert delays == [2.0, 4.0, 8.0, 16.0, 16.0, 16.0]

    def test_jitter_is_bounded_and_deterministic(self):
        def sample(seed):
            bed = TestBed(["client"], seed=seed)
            client = RpcClient(bed["client"].transport)
            return [client._backoff_ms(n) for n in range(8)]

        first, again = sample(7), sample(7)
        assert first == again  # same seed, same stream, same delays
        for n, delay in enumerate(first):
            base = min(256.0, 2.0 * 2.0**n)
            assert 0.5 * base <= delay <= 1.5 * base
        assert sample(8) != first  # the seed actually matters

    def test_nothere_bounce_sleeps_before_failover(self, monkeypatch):
        monkeypatch.setattr(rpc_client, "RETRY_JITTER", 0.0)
        monkeypatch.setattr(rpc_client, "RETRY_BACKOFF_MS", 50.0)
        bed = TestBed(["client", "busy", "idle"])
        # "busy" registers the port but never listens -> bounces NOTHERE.
        RpcServer(bed["busy"].transport, ECHO, "busy")
        start_echo_server(bed["idle"], name="idle")
        client = RpcClient(bed["client"].transport)

        def run():
            yield from client.trans(ECHO, "warm")
            yield bed.sim.sleep(10.0)
            client._kernel.port_cache[ECHO] = ["busy", "idle"]
            before = bed.sim.now
            reply = yield from client.trans(ECHO, "bounced")
            return reply, bed.sim.now - before

        reply, elapsed = bed.run_until(bed.sim.spawn(run()))
        assert reply == {"echo": "bounced"}
        assert client.bounces == 1
        # One bounce -> one backoff(0) sleep of 50 ms before fail-over.
        assert elapsed >= 50.0


class TestConnectionRefused:
    def test_dead_nic_refuses_instead_of_timing_out(self):
        bed = TestBed(["client", "server"])
        start_echo_server(bed["server"])
        client = RpcClient(
            bed["client"].transport,
            RpcTimings(reply_timeout_ms=4000.0, max_attempts=2),
        )

        def warm():
            yield from client.trans(ECHO, "warm")

        bed.run_until(bed.sim.spawn(warm()))
        bed["server"].crash()

        def run():
            before = bed.sim.now
            with pytest.raises(RpcError):
                yield from client.trans(ECHO, "after-crash")
            return bed.sim.now - before

        elapsed = bed.run_until(bed.sim.spawn(run()))
        # The refusal is active: the client fails over to a locate (and
        # gives up) far faster than one 4-second reply timeout.
        assert elapsed < 1000.0
        assert bed.network.stats.frames_by_kind.get("rpc.unreach", 0) >= 1

    def test_refusal_evicts_server_from_port_cache(self):
        bed = TestBed(["client", "s1", "s2"])
        start_echo_server(bed["s1"], name="s1")
        start_echo_server(bed["s2"], name="s2")
        client = RpcClient(bed["client"].transport)

        def run():
            yield from client.trans(ECHO, "warm")
            yield bed.sim.sleep(10.0)  # let both HEREIS replies land
            first = client._kernel.port_cache[ECHO][0]
            bed[first].crash()
            reply = yield from client.trans(ECHO, "failover")
            return first, reply

        crashed, reply = bed.run_until(bed.sim.spawn(run()))
        assert reply == {"echo": "failover"}
        assert crashed not in client._kernel.port_cache.get(ECHO, ())

    def test_partition_still_times_out(self):
        """A partition is indistinguishable from slowness: no active
        refusal may leak across it (that would reveal liveness)."""
        bed = TestBed(["client", "server"])
        start_echo_server(bed["server"])
        client = RpcClient(
            bed["client"].transport,
            RpcTimings(reply_timeout_ms=200.0, max_attempts=1, locate_attempts=1),
        )

        def warm():
            yield from client.trans(ECHO, "warm")

        bed.run_until(bed.sim.spawn(warm()))
        bed.network.partitions.split([["client"], ["server"]])

        def run():
            before = bed.sim.now
            with pytest.raises(RpcError):
                yield from client.trans(ECHO, "x")
            return bed.sim.now - before

        elapsed = bed.run_until(bed.sim.spawn(run()))
        assert elapsed >= 200.0  # waited out the full timeout
        assert bed.network.stats.frames_by_kind.get("rpc.unreach", 0) == 0
