"""The NVRAM write log and the /tmp annihilation optimization.

Shows (a) the order-of-magnitude update speedup from taking disks out
of the critical path, and (b) the paper's /tmp observation: an append
whose delete arrives while the append record is still in NVRAM never
causes any disk operation at all.

Run:  python examples/nvram_speedup.py
"""

from repro.cluster import GroupServiceCluster, NvramServiceCluster


def timed_pairs(cluster, n=8):
    client = cluster.add_client("bench")
    root = cluster.root_capability
    out = {}

    def run():
        target = yield from client.create_dir()
        start = cluster.sim.now
        for i in range(n):
            yield from client.append_row(root, f"tmp{i}", (target,))
            yield from client.delete_row(root, f"tmp{i}")
        out["mean"] = (cluster.sim.now - start) / n

    cluster.run_process(run())
    return out["mean"]


def main() -> None:
    disk = GroupServiceCluster(seed=5, name="disk")
    disk.start()
    disk.wait_operational()
    disk_pair = timed_pairs(disk)

    nvram = NvramServiceCluster(seed=5, name="nvram")
    nvram.start()
    nvram.wait_operational()
    nvram_pair = timed_pairs(nvram)

    print("append-delete pair latency (same fault tolerance!):")
    print(f"  group service (disk):  {disk_pair:6.1f} ms")
    print(f"  group service (NVRAM): {nvram_pair:6.1f} ms")
    print(f"  speedup: {disk_pair / nvram_pair:.1f}x  (paper: 6.8x)\n")

    total_disk_ops = sum(site.disk.total_ops for site in nvram.sites)
    nvram.run(until=nvram.sim.now + 3_000.0)  # idle flush window
    after_flush = sum(site.disk.total_ops for site in nvram.sites)
    annihilated = sum(
        nvram.obs.registry.counter(site.nvram.name, "nvram.annihilations").value
        for site in nvram.sites
    )
    print("the /tmp optimization:")
    print(f"  append+delete records annihilated in NVRAM: {annihilated}")
    print(
        f"  disk ops during the workload: {total_disk_ops}, "
        f"after the idle flush: {after_flush}"
    )
    print(
        "  every append was cancelled by its delete before reaching disk —\n"
        "  temporary names never cost a disk operation."
    )


if __name__ == "__main__":
    main()
