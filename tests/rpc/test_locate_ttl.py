"""Locate-cache staleness (the first-HEREIS-pin bugfix).

Historically a port-cache entry lived until a hard failure: the first
replica to answer a locate absorbed a client's whole lifetime of
requests, and a restarted replica never re-entered the cache. Entries
filled by a locate now carry an expiry stamp: past ``LOCATE_TTL_MS``
the client forgets the port and re-locates (pulling recovered
replicas back in), and a NOTHERE bounce accelerates the expiry.
Entries pinned directly into the kernel (tests, benches) carry no
stamp and never age; spread mode fans reads over every cached server.
"""

from repro.amoeba import Port
from repro.rpc import RpcClient
from repro.rpc import client as rpc_client

from tests.helpers import TestBed
from tests.rpc.test_rpc import start_echo_server

ECHO = Port.for_service("echo")


def make_client(bed):
    return RpcClient(bed["client"].transport)


class TestLocateTtl:
    def test_expired_entry_triggers_relocate(self, monkeypatch):
        monkeypatch.setattr(rpc_client, "LOCATE_TTL_MS", 5_000.0)
        bed = TestBed(["client", "a", "b"])
        start_echo_server(bed["a"], name="a")
        client = make_client(bed)

        def work():
            yield from client.trans(ECHO, "one")
            assert client.cached_servers(ECHO) == ["a"]
            # "b" comes up after the first locate. HEREIS only appends
            # servers the cache doesn't hold, so without TTL aging the
            # client would never consult a fresh responder order.
            start_echo_server(bed["b"], name="b")
            yield bed.sim.sleep(6_000.0)  # past the TTL
            yield from client.trans(ECHO, "two")
            return client.cached_servers(ECHO)

        servers = bed.run_until(bed.sim.spawn(work()))
        assert "b" in servers  # the re-locate saw the new replica

    def test_fresh_entry_does_not_relocate(self, monkeypatch):
        monkeypatch.setattr(rpc_client, "LOCATE_TTL_MS", 60_000.0)
        bed = TestBed(["client", "a"])
        start_echo_server(bed["a"], name="a")
        client = make_client(bed)

        def work():
            yield from client.trans(ECHO, "one")
            first_locates = client._kernel._next_locate
            yield bed.sim.sleep(1_000.0)  # well inside the TTL
            yield from client.trans(ECHO, "two")
            return first_locates, client._kernel._next_locate

        first, second = bed.run_until(bed.sim.spawn(work()))
        assert first == second == 1  # exactly the one initial locate

    def test_pinned_entries_never_age(self, monkeypatch):
        monkeypatch.setattr(rpc_client, "LOCATE_TTL_MS", 5.0)
        bed = TestBed(["client", "a"])
        start_echo_server(bed["a"], name="a")
        client = make_client(bed)

        def work():
            # The test/bench idiom: pin the cache directly. No locate
            # stamp -> no aging, however small the TTL.
            client._kernel.port_cache[ECHO] = ["a"]
            yield bed.sim.sleep(10_000.0)
            yield from client.trans(ECHO, "one")
            return client._kernel._next_locate

        assert bed.run_until(bed.sim.spawn(work())) == 0  # never located at all

    def test_nothere_pulls_expiry_in(self, monkeypatch):
        monkeypatch.setattr(rpc_client, "LOCATE_TTL_MS", 60_000.0)
        bed = TestBed(["client", "a"])
        start_echo_server(bed["a"], name="a")
        client = make_client(bed)

        def work():
            yield from client.trans(ECHO, "one")
            return client._kernel.port_expiry[ECHO]

        stamp = bed.run_until(bed.sim.spawn(work()))
        assert stamp > bed.sim.now + 50_000.0
        client._accelerate_relocate(ECHO)
        accelerated = client._kernel.port_expiry[ECHO]
        assert accelerated <= bed.sim.now + 1_000.0
        # Rate-limited: a second bounce cannot pull it in any further.
        client._accelerate_relocate(ECHO)
        assert client._kernel.port_expiry[ECHO] == accelerated


class TestSpreadReads:
    def test_spread_fans_over_every_cached_server(self):
        bed = TestBed(["client", "a", "b", "c"])
        client = make_client(bed)
        client._kernel.port_cache[ECHO] = ["a", "b", "c"]

        def work():
            picked = set()
            for _ in range(32):
                server = yield from client._pick_server(ECHO, spread=True)
                picked.add(server)
            return picked

        assert bed.run_until(bed.sim.spawn(work())) == {"a", "b", "c"}

    def test_default_keeps_the_first_hereis_pin(self):
        bed = TestBed(["client", "a", "b", "c"])
        client = make_client(bed)
        client._kernel.port_cache[ECHO] = ["a", "b", "c"]

        def work():
            picked = set()
            for _ in range(32):
                server = yield from client._pick_server(ECHO)
                picked.add(server)
            return picked

        assert bed.run_until(bed.sim.spawn(work())) == {"a"}  # Fig. 8, bit for bit

    def test_spread_is_deterministic_per_seed(self):
        def sequence(seed):
            bed = TestBed(["client", "a", "b", "c"], seed=seed)
            client = make_client(bed)
            client._kernel.port_cache[ECHO] = ["a", "b", "c"]

            def work():
                out = []
                for _ in range(16):
                    server = yield from client._pick_server(ECHO, spread=True)
                    out.append(server)
                return out

            return bed.run_until(bed.sim.spawn(work()))

        assert sequence(5) == sequence(5)
        assert sequence(5) != sequence(6)
