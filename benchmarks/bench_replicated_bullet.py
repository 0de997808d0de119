"""Experiment E10 (extension) — the replicated Bullet file service.

Implements and measures the paper's closing suggestion (section 5):
"A reimplementation of Amoeba's Bullet file service using group
communication as well as NVRAM is certainly feasible." We compare a
small-file create on:

* the original single-copy Bullet server (no fault tolerance),
* the group-replicated Bullet service (3 copies, r = 2),
* the group-replicated service with NVRAM in the write path.

The replicated service is a file state on the directory server's
skeleton, so a create is committed exactly as ``create_dir`` is — a
Bullet file on the replica's own site plus the object-table commit
that lets recovery tell a stale disk from a fresh one — and costs what
``create_dir`` costs on the same deployment. The interesting result
mirrors the directory-service story: the synchronous disk writes
dominate, and NVRAM removes them — a triply-replicated file create
becomes cheaper than the original unreplicated one.
"""

from repro.cluster import GroupServiceCluster, ReplicatedBulletCluster
from repro.net import Network
from repro.rpc import RpcClient, Transport
from repro.sim import LatencyModel, Simulator
from repro.storage import BulletClient, BulletServer, Disk

from conftest import write_result


def single_bullet_create_latency(seed: int = 0) -> float:
    sim = Simulator(seed=seed)
    network = Network(sim, LatencyModel.paper_testbed())
    server_t = Transport(sim, network.attach("bullet"))
    client_t = Transport(sim, network.attach("client"))
    disk = Disk(sim, "d0")
    server = BulletServer(server_t, disk, "single")
    client = BulletClient(RpcClient(client_t), server.port)
    out = {}

    def work():
        yield from client.create(b"warm")
        start = sim.now
        yield from client.create(b"file")
        out["t"] = sim.now - start

    sim.run_until_complete(sim.spawn(work()))
    return out["t"]


def second_create_latency(cluster, create) -> float:
    """Latency of the second ``create(client)`` on a fresh deployment."""
    cluster.start()
    cluster.wait_operational()
    client = cluster.add_client("bench")
    out = {}

    def work():
        yield from create(client, b"warm")
        start = cluster.sim.now
        yield from create(client, b"file")
        out["t"] = cluster.sim.now - start

    cluster.run_process(work())
    return out["t"]


def replicated_create_latency(nvram: bool, seed: int = 0) -> float:
    cluster = ReplicatedBulletCluster(
        seed=seed, nvram=nvram, name="e10n" if nvram else "e10d"
    )
    return second_create_latency(
        cluster, lambda client, data: client.create(data)
    )


def create_dir_latency(seed: int = 0) -> float:
    """``create_dir`` on the same deployment (seed, names, sites)."""
    return second_create_latency(
        GroupServiceCluster(seed=seed, name="e10d"),
        lambda client, _data: client.create_dir(),
    )


def test_replicated_bullet_latency(benchmark, results_dir):
    def run():
        return {
            "single": single_bullet_create_latency(),
            "replicated": replicated_create_latency(False),
            "replicated_nvram": replicated_create_latency(True),
            "create_dir": create_dir_latency(),
        }

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "E10 — small-file create latency (the §5 replicated Bullet)",
        f"  single Bullet (1 copy, no FT):     {costs['single']:6.1f} ms",
        f"  group Bullet (3 copies, r=2):      {costs['replicated']:6.1f} ms",
        f"  group Bullet + NVRAM (3 copies):   {costs['replicated_nvram']:6.1f} ms",
        f"  create_dir, same disk deployment:  {costs['create_dir']:6.1f} ms",
        "  (a replicated create is committed as a directory is; NVRAM",
        "   makes the fault-tolerant service faster than the original)",
    ]
    write_result(results_dir, "e10_replicated_bullet.txt", "\n".join(lines))
    single, repl, repl_nv = (
        costs["single"],
        costs["replicated"],
        costs["replicated_nvram"],
    )
    # A replicated create is within 2 % of create_dir on the same
    # deployment: same order, same commit, same recovery metadata.
    assert abs(repl - costs["create_dir"]) < 0.02 * costs["create_dir"]
    # NVRAM beats even the unreplicated original.
    assert repl_nv < single
    assert repl_nv < repl * 0.6
