"""End-to-end exactly-once semantics across failures.

The scenarios the session layer exists for:

* a reply times out, the client blindly resends, and the *same* server
  answers from its reply cache instead of double-applying;
* the whole service crashes between applying an update and delivering
  the reply, restarts from persistent state (disk or NVRAM), and the
  client's resend still lands exactly once.
"""

import pytest

from repro.cluster import GroupServiceCluster, NvramServiceCluster
from repro.directory import client as directory_client
from repro.errors import AlreadyExists
from repro.net.policy import Drop, LinkFilter
from repro.rpc.client import RpcTimings


@pytest.fixture(autouse=True)
def patient_resends(monkeypatch):
    """Every retry-safe client here resends for 40 rounds."""
    monkeypatch.setattr(directory_client, "RETRY_SAFE_ROUNDS", 40)


def make_retry_client(cluster, name="c1"):
    return cluster.add_client(
        name,
        rpc_timings=RpcTimings(
            reply_timeout_ms=500.0, max_attempts=4, locate_attempts=8
        ),
        retry_safe=True,
    )


class TestSameServerReplyTimeout:
    """Satellite regression: a reply-timeout resend that lands on the
    SAME server must replay the cached reply, never AlreadyExists or
    NotFound for an operation whose first attempt committed."""

    def _solo_cluster(self, **overrides):
        cluster = GroupServiceCluster(n_servers=1, name="solo", seed=5, **overrides)
        cluster.start()
        cluster.wait_operational()
        return cluster

    def test_append_resend_replays_cached_true(self):
        cluster = self._solo_cluster()
        client = make_retry_client(cluster)
        root = cluster.root_capability
        sub = cluster.run_process(client.create_dir())
        lose_one = Drop(
            "test.loseone",
            LinkFilter(dst=("solo.client.c1",), kind="rpc.reply"),
            max_drops=1,
        )
        cluster.network.add_policy(lose_one)

        assert cluster.run_process(client.append_row(root, "pinned", (sub,))) is True
        assert lose_one.dropped == 1  # the first reply really was lost
        assert cluster.servers[0].state.dedup_hits >= 1

    def test_delete_resend_replays_cached_true(self):
        cluster = self._solo_cluster()
        client = make_retry_client(cluster)
        root = cluster.root_capability
        sub = cluster.run_process(client.create_dir())
        cluster.run_process(client.append_row(root, "pinned", (sub,)))
        lose_one = Drop(
            "test.loseone",
            LinkFilter(dst=("solo.client.c1",), kind="rpc.reply"),
            max_drops=1,
        )
        cluster.network.add_policy(lose_one)

        assert cluster.run_process(client.delete_row(root, "pinned")) is True
        assert lose_one.dropped == 1
        assert cluster.servers[0].state.dedup_hits >= 1

    def test_without_dedup_the_resend_misfires(self):
        """The bug the session layer fixes, demonstrated end to end:
        with dedup off, the resend re-executes and the client is told
        AlreadyExists about its own committed append."""
        cluster = self._solo_cluster(dedup_enabled=False)
        client = make_retry_client(cluster)
        root = cluster.root_capability
        sub = cluster.run_process(client.create_dir())
        lose_one = Drop(
            "test.loseone",
            LinkFilter(dst=("solo.client.c1",), kind="rpc.reply"),
            max_drops=1,
        )
        cluster.network.add_policy(lose_one)

        with pytest.raises(AlreadyExists):
            cluster.run_process(client.append_row(root, "pinned", (sub,)))


class TestCrashRestartExactlyOnce:
    """Kill the whole service after it applied (and persisted) an
    update but before the client saw the reply; the retried request
    must be answered from the *recovered* session table."""

    def _run(self, cluster):
        cluster.start()
        cluster.wait_operational()
        client = make_retry_client(cluster)
        root = cluster.root_capability
        sub = cluster.run_process(client.create_dir())

        # Black out every reply to the client: the service keeps
        # applying and persisting, the client keeps timing out.
        blackout = Drop(
            "test.blackout",
            LinkFilter(dst=(str(client.transport.address),), kind="rpc.reply"),
        )
        cluster.network.add_policy(blackout)
        proc = cluster.sim.spawn(
            client.append_row(root, "once", (sub,)), "blackout-append"
        )

        # Wait for the update to be applied (the session table on the
        # live replicas shows the client), then let persistence flush.
        deadline = cluster.sim.now + 20_000.0
        while cluster.sim.now < deadline and not any(
            client.client_id in s.state.sessions
            for s in cluster.servers
            if s is not None and s.alive
        ):
            cluster.run(until=cluster.sim.now + 50.0)
        assert any(
            client.client_id in s.state.sessions
            for s in cluster.servers
            if s is not None and s.alive
        ), "append never reached the service"
        cluster.run(until=cluster.sim.now + 2_500.0)

        for i in range(len(cluster.sites)):
            cluster.crash_server(i)
        cluster.run(until=cluster.sim.now + 300.0)
        blackout.enabled = False
        for i in range(len(cluster.sites)):
            cluster.restart_server(i)
        cluster.wait_operational(timeout_ms=60_000.0)

        # Recovery rebuilt the session table from persistent storage.
        recovered = [
            s for s in cluster.operational_servers()
            if client.client_id in s.state.sessions
        ]
        assert recovered, "session table did not survive the restart"
        entry = recovered[0].state.sessions[client.client_id]
        assert entry.last_seqno == client._session_seqno
        assert entry.reply is True

        # The client's ongoing resend loop now gets the cached reply.
        assert cluster.sim.run_until_complete(proc) is True
        assert client.resends >= 1
        assert sum(
            s.state.dedup_hits for s in cluster.operational_servers()
        ) >= 1
        assert cluster.replicas_consistent()

        # Exactly one row landed.
        reader = cluster.add_client("reader")

        def count():
            rows = yield from reader.list_dir(root)
            return sum(1 for row in rows if row.name == "once")

        assert cluster.run_process(count()) == 1

    def test_disk_backed_group_service(self):
        self._run(GroupServiceCluster(name="grp", seed=11))

    def test_nvram_backed_group_service(self):
        self._run(NvramServiceCluster(name="nvr", seed=11))
