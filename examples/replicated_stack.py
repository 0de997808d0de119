"""The paper's closing vision, running: a FULLY fault-tolerant stack.

Section 5 ends by noting that the Bullet file service itself could be
rebuilt on group communication and NVRAM. This example runs that
extension: a triplicated file service next to the triplicated
directory service, stores a file, registers it, crashes one replica of
EACH service, and reads everything back.

Run:  python examples/replicated_stack.py
"""

from repro.cluster import GroupServiceCluster, ReplicatedBulletCluster
from repro.sim import Simulator
from repro.net import Network
from repro.sim.latency import LatencyModel


def main() -> None:
    # One simulated machine room hosting both services.
    sim = Simulator(seed=77)
    network = Network(sim, LatencyModel.paper_testbed())

    directories = GroupServiceCluster(sim=sim, network=network, name="dirs")
    files = ReplicatedBulletCluster(
        sim=sim, network=network, name="files", nvram=True
    )
    directories.start()
    files.start()
    directories.wait_operational()
    files.wait_operational()
    print(f"both services up at t={sim.now:.0f} ms: "
          f"{len(directories.servers)} directory replicas, "
          f"{len(files.servers)} file replicas (NVRAM)")

    dir_client = directories.add_client("app")
    file_client = files.add_client("app")
    root = directories.root_capability

    def publish():
        start = sim.now
        document = yield from file_client.create(b"the 1993 paper, reborn")
        yield from dir_client.append_row(root, "paper.txt", (document,))
        print(f"stored + named a file in {sim.now - start:.1f} ms "
              "(every byte on three replicas)")
        return document

    document = directories.run_process(publish(), "publish")

    print("\ncrashing one replica of each service ...")
    directories.crash_server(1)
    files.crash_server(2)
    directories.run(until=sim.now + 3_000.0)

    def read_back():
        found = yield from dir_client.lookup(root, "paper.txt")
        assert found == document, "directory lookup changed?!"
        data = yield from file_client.read(found)
        return data

    data = directories.run_process(read_back(), "read-back")
    print(f"read back through the surviving replicas: {data!r}")
    print("\nno single machine in this stack is a point of failure —")
    print("the claim the paper's conclusion reaches for, made executable.")


if __name__ == "__main__":
    main()
