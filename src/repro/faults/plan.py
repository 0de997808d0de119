"""Timed fault schedules.

Each :class:`FaultPlan` builder is the one definition of its fault
kind: it appends a :class:`FaultEvent` whose ``kind`` is the builder's
name and whose ``apply`` does the fault. A plan arms its events against
a cluster (any of the cluster classes in :mod:`repro.cluster` that
expose ``crash_server`` / ``restart_server`` / ``partition_network`` /
``heal_network``).

The plan records what it did and when, so tests can correlate observed
client anomalies with injected faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SimulationError


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault. *kind* is the name of the builder that made
    it; *target* is its server or site index (the partition groups, the
    link policy or the intervention label for the other kinds);
    *apply(cluster)* injects it and returns the log description."""

    at_ms: float
    kind: str
    target: Any
    apply: Callable[[Any], str] = field(compare=False, repr=False)


def rot_blocks(cluster, site: int, blocks: int, area: str = "any") -> list[int]:
    """Rot up to *blocks* stored blocks on one site's disk; returns the
    hit indexes. ``area="admin"`` hits the directory service's admin
    partition, ``"any"`` any written block. The indexes are drawn from
    the cluster RNG stream ``fault.bitrot.<site>``."""
    machine = cluster.sites[site]
    region = machine.partition.region if area == "admin" else None
    rng = cluster.sim.rng.stream(f"fault.bitrot.{site}")
    return machine.disk.inject_bit_rot(rng, blocks, region=region)


def rot_extents(cluster, site: int, extents: int) -> list:
    """Rot up to *extents* stored extents (Bullet files) on one site's
    disk, drawn from the stream ``fault.extentrot.<site>``; returns
    their keys."""
    rng = cluster.sim.rng.stream(f"fault.extentrot.{site}")
    return cluster.sites[site].disk.corrupt_extent(rng, extents)


@dataclass
class FaultPlan:
    """A schedule of fault events plus an execution log."""

    events: list = field(default_factory=list)
    log: list = field(default_factory=list)  # (time, description)

    def _add(self, at_ms: float, kind: str, target, apply) -> "FaultPlan":
        self.events.append(FaultEvent(at_ms, kind, target, apply))
        return self

    def crash(self, at_ms: float, server: int) -> "FaultPlan":
        """Fail-stop crash of one directory server."""

        def apply(cluster):
            cluster.crash_server(server)
            return f"crash server {server}"

        return self._add(at_ms, "crash", server, apply)

    def restart(self, at_ms: float, server: int) -> "FaultPlan":
        """Reboot a crashed directory server (it re-runs recovery)."""

        def apply(cluster):
            cluster.restart_server(server)
            return f"restart server {server}"

        return self._add(at_ms, "restart", server, apply)

    def partition(self, at_ms: float, *groups) -> "FaultPlan":
        """Split the network into server-index groups (clients ride with
        the first group)."""
        groups = tuple(tuple(g) for g in groups)

        def apply(cluster):
            cluster.partition_network(*[list(g) for g in groups])
            return f"partition {groups}"

        return self._add(at_ms, "partition", groups, apply)

    def heal(self, at_ms: float) -> "FaultPlan":
        """Repair all partitions."""

        def apply(cluster):
            cluster.heal_network()
            return "heal network"

        return self._add(at_ms, "heal", None, apply)

    def disk_failure(self, at_ms: float, site: int) -> "FaultPlan":
        """Head crash of one site's disk (data irrecoverably lost)."""

        def apply(cluster):
            cluster.sites[site].disk.fail()
            return f"disk failure at site {site}"

        return self._add(at_ms, "disk_failure", site, apply)

    def bit_rot(self, at_ms: float, site: int, blocks: int = 1,
                area: str = "any") -> "FaultPlan":
        """Rot stored blocks on one site's disk (:func:`rot_blocks`)."""

        def apply(cluster):
            hit = rot_blocks(cluster, site, blocks, area)
            return f"bit rot at site {site}: blocks {hit}"

        return self._add(at_ms, "bit_rot", site, apply)

    def extent_rot(self, at_ms: float, site: int, extents: int = 1) -> "FaultPlan":
        """Rot stored extents on one site's disk (:func:`rot_extents`)."""

        def apply(cluster):
            hit = rot_extents(cluster, site, extents)
            return f"extent rot at site {site}: {len(hit)} extent(s)"

        return self._add(at_ms, "extent_rot", site, apply)

    def _arm_disk(self, at_ms, kind, site, text, **params) -> "FaultPlan":
        """Arm a one-shot write fault on the site's admin partition."""

        def apply(cluster):
            machine = cluster.sites[site]
            machine.disk.arm_fault(kind, region=machine.partition.region, **params)
            return text

        return self._add(at_ms, kind, site, apply)

    def torn_write(self, at_ms: float, site: int, keep_blocks: int = 1) -> "FaultPlan":
        """The next multi-block admin flush on the site persists only its
        first *keep_blocks* blocks but reports success."""
        text = f"armed torn write at site {site} (keep {keep_blocks})"
        return self._arm_disk(at_ms, "torn_write", site, text, keep_blocks=keep_blocks)

    def lost_writes(self, at_ms: float, site: int, count: int = 1) -> "FaultPlan":
        """The next *count* single-block writes into the site's admin
        partition report success without persisting anything."""
        text = f"armed {count} lost write(s) at site {site}"
        return self._arm_disk(at_ms, "lost_writes", site, text, count=count)

    def misdirected_writes(self, at_ms: float, site: int, count: int = 1) -> "FaultPlan":
        """The next *count* single-block writes into the site's admin
        partition land one block away from their target."""
        text = f"armed {count} misdirected write(s) at site {site}"
        return self._arm_disk(at_ms, "misdirected_writes", site, text, count=count)

    def crash_point(self, at_ms: float, site: int, cut_after: int = 1) -> "FaultPlan":
        """Power-cut the site inside its next admin-partition flush.

        *cut_after* blocks of the flush persist, then the whole machine
        dies (``crash_server``) before the server can update its RAM
        mirrors — the restarted server must reconcile the torn
        intention from disk alone (the paper's Fig. 5/6 recovery
        argument, exercised mid-write).
        """

        def apply(cluster):
            machine = cluster.sites[site]
            machine.disk.arm_fault(
                "crash_point", region=machine.partition.region,
                hook=lambda: cluster.crash_server(site), cut_after=cut_after,
            )
            return (
                f"armed crash point at site {site} "
                f"(power cut after {cut_after} block(s))"
            )

        return self._add(at_ms, "crash_point", site, apply)

    def nvram_blip(self, at_ms: float, site: int, records: int = 1) -> "FaultPlan":
        """Battery blip: corrupt the newest *records* records on the
        site's NVRAM board (no-op on sites without one)."""

        def apply(cluster):
            nvram = getattr(cluster.sites[site], "nvram", None)
            if nvram is None:
                return f"nvram blip at site {site}: no board (no-op)"
            hit = nvram.blip(records)
            return f"nvram blip at site {site}: corrupted {hit} record(s)"

        return self._add(at_ms, "nvram_blip", site, apply)

    def install_policy(self, at_ms: float, policy) -> "FaultPlan":
        """Insert a :class:`~repro.net.policy.LinkPolicy` into the
        network's interceptor chain (adversarial message faults)."""

        def apply(cluster):
            cluster.network.add_policy(policy)
            return f"install link policy {policy.name!r}"

        return self._add(at_ms, "install_policy", policy, apply)

    def remove_policy(self, at_ms: float, policy) -> "FaultPlan":
        """Remove a link policy (by name or instance) from the chain."""

        def apply(cluster):
            cluster.network.remove_policy(policy)
            return f"remove link policy {getattr(policy, 'name', policy)!r}"

        return self._add(at_ms, "remove_policy", policy, apply)

    def intervene(self, at_ms: float, label: str, fn) -> "FaultPlan":
        """A dynamic fault: *fn(cluster)* runs at fire time and may
        inspect live protocol state (e.g. crash whichever server is
        currently the sequencer). *fn* returns the log description, or
        None to use *label*. The nemesis scenarios are built from these."""

        def apply(cluster):
            result = fn(cluster)
            return result if isinstance(result, str) else label

        return self._add(at_ms, "intervene", label, apply)

    def arm(self, cluster) -> None:
        """Schedule every event on the cluster's simulator clock.

        Times are absolute simulated ms; events already in the past
        are rejected (arm the plan before running the window). The sort
        is stable: same-instant events fire in insertion order.
        """
        sim = cluster.sim
        for event in sorted(self.events, key=lambda e: e.at_ms):
            delay = event.at_ms - sim.now
            if delay < 0:
                raise SimulationError(
                    f"fault at t={event.at_ms} is in the past (now={sim.now})"
                )
            sim.schedule(delay, lambda e=event: self._fire(cluster, e))

    def _fire(self, cluster, event: FaultEvent) -> None:
        description = event.apply(cluster)
        self.log.append((cluster.sim.now, description))

    @property
    def fired(self) -> int:
        return len(self.log)


class RandomFaultPlan(FaultPlan):
    """A seeded random crash/restart/partition schedule.

    Invariants by construction:

    * at most ``max_down`` servers are down simultaneously (keeps the
      scenario recoverable — with 3 servers and ``max_down=1`` a
      majority always exists);
    * every crash is followed by a restart after a random dwell;
    * partitions always heal.
    """

    def __init__(
        self,
        rng,
        n_servers: int,
        window_ms: tuple[float, float],
        events: int = 6,
        max_down: int = 1,
        min_gap_ms: float = 2_500.0,
    ):
        super().__init__()
        start, end = window_ms
        down: set[int] = set()
        partitioned = False
        t = start
        for _ in range(events):
            t += rng.uniform(min_gap_ms, min_gap_ms * 2.5)
            if t >= end:
                break
            choices = []
            if len(down) < max_down and not partitioned:
                choices.append("crash")
            if down:
                choices.append("restart")
            if not partitioned and not down and n_servers >= 3:
                choices.append("partition")
            if partitioned:
                choices.append("heal")
            if not choices:
                continue
            kind = rng.choice(choices)
            if kind == "crash":
                target = rng.choice([i for i in range(n_servers) if i not in down])
                self.crash(t, target)
                down.add(target)
            elif kind == "restart":
                target = rng.choice(sorted(down))
                self.restart(t, target)
                down.discard(target)
            elif kind == "partition":
                isolated = rng.randrange(n_servers)
                rest = [i for i in range(n_servers) if i != isolated]
                self.partition(t, rest, [isolated])
                partitioned = True
            elif kind == "heal":
                self.heal(t)
                partitioned = False
        # Leave the world repaired at the end of the window.
        tail = max(t, end) + min_gap_ms
        if partitioned:
            self.heal(tail)
            tail += min_gap_ms
        for target in sorted(down):
            self.restart(tail, target)
            tail += min_gap_ms
