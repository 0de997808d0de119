"""Quickstart: a fault-tolerant directory service in ~60 lines.

Builds the paper's triplicated group directory service on a simulated
machine room, performs the basic operations (Fig. 2's ReplaceSet and
DeleteDir among them), crashes a server, and keeps working.

Run:  python examples/quickstart.py
"""

from repro.cluster import GroupServiceCluster


def main() -> None:
    # Three directory servers + three Bullet servers + three disks.
    cluster = GroupServiceCluster(seed=42)
    cluster.start()
    cluster.wait_operational()
    print(f"service operational at t={cluster.sim.now:.0f} ms (simulated)")

    client = cluster.add_client("alice")
    root = cluster.root_capability

    def session():
        # Create a directory and register it under a name.
        projects = yield from client.create_dir()
        yield from client.append_row(root, "projects", (projects,))

        # Store a capability inside it (here: another directory).
        thesis = yield from client.create_dir()
        yield from client.append_row(projects, "thesis", (thesis,))

        # Look it back up.
        found = yield from client.lookup(projects, "thesis")
        assert found == thesis
        print("lookup('thesis') ->", found)

        # Swap the capabilities of two rows in one indivisible step.
        draft = yield from client.create_dir()
        yield from client.append_row(projects, "draft", (draft,))
        yield from client.replace_set(
            [(projects, "thesis", (draft,)), (projects, "draft", (thesis,))]
        )
        swapped = yield from client.lookup_set(
            [(projects, "thesis"), (projects, "draft")]
        )
        assert swapped == [draft, thesis]
        print("replace_set swapped 'thesis' and 'draft'")

        # Unlink a directory, then delete it (it must be empty).
        yield from client.delete_row(projects, "draft")
        yield from client.delete_dir(thesis)
        rows = yield from client.list_dir(projects)
        assert [row.name for row in rows] == ["thesis"]
        print("delete_dir removed the old thesis directory")

        # List what the root sees.
        rows = yield from client.list_dir(root)
        print("root listing:", [row.name for row in rows])

    cluster.run_process(session(), "alice-session")

    # Fault tolerance: crash one of the three servers...
    print("\ncrashing directory server 2 ...")
    cluster.crash_server(2)
    cluster.run(until=cluster.sim.now + 2_500.0)  # detection + reset

    def after_crash():
        # ... and the service keeps answering (2 of 3 = majority).
        found = yield from client.lookup(root, "projects")
        print("after crash, lookup('projects') ->", found is not None)
        sub = yield from client.create_dir()
        yield from client.append_row(root, "post-crash", (sub,))
        print("writes still work: appended 'post-crash'")

    cluster.run_process(after_crash(), "after-crash")

    # The crashed server recovers and catches up automatically.
    print("\nrestarting server 2 ...")
    cluster.restart_server(2)
    cluster.run(until=cluster.sim.now + 8_000.0)
    print("server 2 operational again:", cluster.servers[2].operational)
    print("replicas identical:", cluster.replicas_consistent())


if __name__ == "__main__":
    main()
