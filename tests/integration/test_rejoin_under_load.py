"""A replica whose disk dies rejoins while batched, retry-safe load runs.

Site 2's disk fails mid-load; the site gets fresh hardware and reboots
while the clients keep writing. The blank disk sends it down the Fig. 6
recovery path — state-transfer a snapshot from the freshest incumbent,
replay the ordered log above it, join the live group — and it must end
byte-identical to the incumbents, including the session/reply-cache
tables that exactly-once semantics depend on.
"""

import pytest

from repro.cluster import (
    ADMIN_PARTITION_BLOCKS,
    ADMIN_PARTITION_START,
    GroupServiceCluster,
)
from repro.directory import client as directory_client
from repro.errors import ReproError
from repro.rpc.client import RpcTimings
from repro.storage import Disk, RawPartition


@pytest.fixture(autouse=True)
def patient_resends(monkeypatch):
    """Every retry-safe client here resends for 40 rounds."""
    monkeypatch.setattr(directory_client, "RETRY_SAFE_ROUNDS", 40)


def retry_client(cluster, name):
    return cluster.add_client(
        name,
        rpc_timings=RpcTimings(
            reply_timeout_ms=500.0, max_attempts=4, locate_attempts=8
        ),
        retry_safe=True,
    )


def load_process(client, root, prefix, count, done):
    for i in range(count):
        try:
            yield from client.append_row(root, f"{prefix}-{i}", (root,))
        except ReproError:
            pass
    done.append(prefix)


def replace_disk(cluster, index):
    """Fresh hardware for site *index*: a blank disk and partition."""
    site = cluster.sites[index]
    site.disk = Disk(
        cluster.sim,
        f"{cluster.name}.disk{index}-replacement",
        latency=cluster.latency.disk,
        blocks=ADMIN_PARTITION_START + ADMIN_PARTITION_BLOCKS,
    )
    site.partition = RawPartition(
        site.disk, ADMIN_PARTITION_START, ADMIN_PARTITION_BLOCKS
    )
    site.restart_bullet_server()


class TestJoinMidLoad:
    def test_replaced_disk_rejoining_under_batched_load_converges_byte_identically(self):
        cluster = GroupServiceCluster(n_servers=3, name="el", seed=11, batch_max=16)
        cluster.start()
        cluster.wait_operational()
        root = cluster.root_capability
        done: list = []
        for name in ("c1", "c2"):
            client = retry_client(cluster, name)
            cluster.sim.spawn(
                load_process(client, root, name, 30, done), f"load-{name}"
            )

        # Let the load get going, then lose site 2's disk mid-stream.
        cluster.sim.run(until=cluster.sim.now + 400.0)
        cluster.sites[2].disk.fail()
        cluster.crash_server(2)
        cluster.sites[2].crash_bullet_server()
        cluster.sim.run(until=cluster.sim.now + 400.0)
        replace_disk(cluster, 2)
        joiner = cluster.restart_server(2)
        deadline = cluster.sim.now + 60_000.0
        while not joiner.operational and cluster.sim.now < deadline:
            cluster.sim.run(until=cluster.sim.now + 10.0)
        assert joiner.operational, "the replaced site never rejoined"
        assert not done, "the load finished before the rejoin did"
        while len(done) < 2 and cluster.sim.now < deadline:
            cluster.sim.run(until=cluster.sim.now + 100.0)
        assert len(done) == 2, "load generators did not finish"
        cluster.wait_operational(quorum=3)
        cluster.sim.run(until=cluster.sim.now + 3_000.0)  # drain batches

        operational = cluster.operational_servers()
        assert len(operational) == 3
        assert joiner in operational
        fingerprints = {s.state.fingerprint() for s in operational}
        assert len(fingerprints) == 1, "replicas diverged after the rejoin"

        # The session table (client id -> last applied session seqno +
        # cached reply) transferred too.
        incumbent = next(s for s in operational if s is not joiner)
        as_table = lambda srv: {
            cid: (e.last_seqno, e.reply)
            for cid, e in srv.state.sessions.items()
        }
        assert as_table(joiner) == as_table(incumbent)
        assert as_table(joiner), "retry-safe load left no sessions"


class TestViewHistory:
    def test_report_includes_view_change_history(self):
        cluster = GroupServiceCluster(n_servers=3, name="vh", seed=3)
        cluster.start()
        cluster.wait_operational()
        node = str(cluster.sites[2].dir_address)
        before = [
            {"node": node, **entry}
            for entry in cluster.servers[2].member.kernel.view_log
        ]
        assert before
        cluster.restart_server(2)
        cluster.sim.run(until=cluster.sim.now + 2_000.0)
        cluster.wait_operational(quorum=3)
        changes = cluster.report()["view_changes"]
        # The replaced kernel's history survives its reboot, beside the
        # new kernel's.
        assert all(entry in changes for entry in before)
        mine = [e for e in changes if e["node"] == node]
        assert len(mine) > len(before)
        triggers = {e["trigger"] for e in changes}
        assert "create" in triggers or "join" in triggers
        # Entries are deterministically ordered and carry the fields
        # a post-mortem needs.
        for entry in changes:
            assert {"at_ms", "node", "epoch", "members",
                    "sequencer", "resilience", "trigger"} <= set(entry)
        assert changes == sorted(
            changes, key=lambda e: (e["at_ms"], e["node"], e["epoch"])
        )
