"""Timed fault schedules.

Events are dataclasses naming a simulated time and a target; a
:class:`FaultPlan` arms them all against a cluster (any of the cluster
classes in :mod:`repro.cluster` that expose ``crash_server`` /
``restart_server`` / ``partition_network`` / ``heal_network``).

The plan records what it did and when, so tests can correlate observed
client anomalies with injected faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one scheduled fault."""

    at_ms: float

    def apply(self, cluster) -> str:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class Crash(FaultEvent):
    """Fail-stop crash of one directory server."""

    server: int = 0

    def apply(self, cluster) -> str:
        cluster.crash_server(self.server)
        return f"crash server {self.server}"


@dataclass(frozen=True)
class Restart(FaultEvent):
    """Reboot a crashed directory server (it re-runs recovery)."""

    server: int = 0

    def apply(self, cluster) -> str:
        cluster.restart_server(self.server)
        return f"restart server {self.server}"


@dataclass(frozen=True)
class Partition(FaultEvent):
    """Split the network into server-index groups (clients ride with
    the first group)."""

    groups: tuple = ((0, 1), (2,))

    def apply(self, cluster) -> str:
        cluster.partition_network(*[list(g) for g in self.groups])
        return f"partition {self.groups}"


@dataclass(frozen=True)
class Heal(FaultEvent):
    """Repair all partitions."""

    def apply(self, cluster) -> str:
        cluster.heal_network()
        return "heal network"


@dataclass(frozen=True)
class DiskFailure(FaultEvent):
    """Head crash of one site's disk (data irrecoverably lost)."""

    site: int = 0

    def apply(self, cluster) -> str:
        cluster.sites[self.site].disk.fail()
        return f"disk failure at site {self.site}"


@dataclass(frozen=True)
class BitRot(FaultEvent):
    """Rot stored blocks on one site's disk (seeded, self-describing).

    *area* narrows the target: ``"admin"`` hits the directory service's
    admin partition, ``"any"`` any written block. The damaged indexes
    are chosen with the cluster RNG stream ``fault.bitrot.<site>``.
    """

    site: int = 0
    blocks: int = 1
    area: str = "any"

    def apply(self, cluster) -> str:
        site = cluster.sites[self.site]
        region = site.partition.region if self.area == "admin" else None
        rng = cluster.sim.rng.stream(f"fault.bitrot.{self.site}")
        hit = site.disk.inject_bit_rot(rng, self.blocks, region=region)
        return f"bit rot at site {self.site}: blocks {hit}"


@dataclass(frozen=True)
class ExtentRot(FaultEvent):
    """Rot stored extents (Bullet files) on one site's disk."""

    site: int = 0
    extents: int = 1

    def apply(self, cluster) -> str:
        site = cluster.sites[self.site]
        rng = cluster.sim.rng.stream(f"fault.extentrot.{self.site}")
        hit = site.disk.corrupt_extent(rng, self.extents)
        return f"extent rot at site {self.site}: {len(hit)} extent(s)"


@dataclass(frozen=True)
class TornWrite(FaultEvent):
    """Arm a torn write: the next multi-block admin flush on the site
    persists only its first *keep_blocks* blocks but reports success."""

    site: int = 0
    keep_blocks: int = 1

    def apply(self, cluster) -> str:
        site = cluster.sites[self.site]
        site.disk.arm_torn_write(self.keep_blocks, region=site.partition.region)
        return f"armed torn write at site {self.site} (keep {self.keep_blocks})"


@dataclass(frozen=True)
class LostWrites(FaultEvent):
    """Arm lost writes: the next *count* single-block writes into the
    site's admin partition report success without persisting anything."""

    site: int = 0
    count: int = 1

    def apply(self, cluster) -> str:
        site = cluster.sites[self.site]
        site.disk.arm_lost_writes(self.count, region=site.partition.region)
        return f"armed {self.count} lost write(s) at site {self.site}"


@dataclass(frozen=True)
class MisdirectedWrites(FaultEvent):
    """Arm misdirected writes: the next *count* single-block writes into
    the site's admin partition land one block away from their target."""

    site: int = 0
    count: int = 1

    def apply(self, cluster) -> str:
        site = cluster.sites[self.site]
        site.disk.arm_misdirected_writes(
            self.count, region=site.partition.region
        )
        return f"armed {self.count} misdirected write(s) at site {self.site}"


@dataclass(frozen=True)
class NvramBlip(FaultEvent):
    """Battery blip: corrupt the newest *records* records on the site's
    NVRAM board (no-op on sites without one)."""

    site: int = 0
    records: int = 1

    def apply(self, cluster) -> str:
        nvram = getattr(cluster.sites[self.site], "nvram", None)
        if nvram is None:
            return f"nvram blip at site {self.site}: no board (no-op)"
        hit = nvram.blip(self.records)
        return f"nvram blip at site {self.site}: corrupted {hit} record(s)"


@dataclass(frozen=True)
class CrashPoint(FaultEvent):
    """Power-cut the site inside its next admin-partition flush.

    *cut_after* blocks of the flush persist, then the whole machine
    dies (``crash_server``) before the server can update its RAM
    mirrors — the restarted server must reconcile the torn intention
    from disk alone (the paper's Fig. 5/6 recovery argument, exercised
    mid-write).
    """

    site: int = 0
    cut_after: int = 1

    def apply(self, cluster) -> str:
        site_index = self.site
        site = cluster.sites[site_index]
        site.disk.arm_crash_point(
            lambda: cluster.crash_server(site_index),
            cut_after=self.cut_after,
            region=site.partition.region,
        )
        return (
            f"armed crash point at site {site_index} "
            f"(power cut after {self.cut_after} block(s))"
        )


@dataclass(frozen=True)
class InstallLinkPolicy(FaultEvent):
    """Insert a :class:`~repro.net.policy.LinkPolicy` into the
    network's interceptor chain (adversarial message faults)."""

    policy: Any = None

    def apply(self, cluster) -> str:
        cluster.network.add_policy(self.policy)
        return f"install link policy {self.policy.name!r}"


@dataclass(frozen=True)
class RemoveLinkPolicy(FaultEvent):
    """Remove a link policy (by name or instance) from the chain."""

    policy: Any = None

    def apply(self, cluster) -> str:
        cluster.network.remove_policy(self.policy)
        name = getattr(self.policy, "name", self.policy)
        return f"remove link policy {name!r}"


@dataclass(frozen=True)
class Intervention(FaultEvent):
    """A dynamic fault: *fn(cluster)* runs at fire time and may inspect
    live protocol state (e.g. crash whichever server is currently the
    sequencer). *fn* returns the log description, or None to use
    *label*. The nemesis scenarios are built from these."""

    label: str = "intervention"
    fn: Any = None

    def apply(self, cluster) -> str:
        result = self.fn(cluster)
        return result if isinstance(result, str) else self.label


@dataclass
class FaultPlan:
    """A schedule of fault events plus an execution log."""

    events: list = field(default_factory=list)
    log: list = field(default_factory=list)  # (time, description)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def crash(self, at_ms: float, server: int) -> "FaultPlan":
        return self.add(Crash(at_ms, server))

    def restart(self, at_ms: float, server: int) -> "FaultPlan":
        return self.add(Restart(at_ms, server))

    def partition(self, at_ms: float, *groups) -> "FaultPlan":
        return self.add(Partition(at_ms, tuple(tuple(g) for g in groups)))

    def heal(self, at_ms: float) -> "FaultPlan":
        return self.add(Heal(at_ms))

    def disk_failure(self, at_ms: float, site: int) -> "FaultPlan":
        return self.add(DiskFailure(at_ms, site))

    def bit_rot(self, at_ms: float, site: int, blocks: int = 1,
                area: str = "any") -> "FaultPlan":
        return self.add(BitRot(at_ms, site, blocks, area))

    def extent_rot(self, at_ms: float, site: int, extents: int = 1) -> "FaultPlan":
        return self.add(ExtentRot(at_ms, site, extents))

    def torn_write(self, at_ms: float, site: int, keep_blocks: int = 1) -> "FaultPlan":
        return self.add(TornWrite(at_ms, site, keep_blocks))

    def lost_writes(self, at_ms: float, site: int, count: int = 1) -> "FaultPlan":
        return self.add(LostWrites(at_ms, site, count))

    def misdirected_writes(self, at_ms: float, site: int, count: int = 1) -> "FaultPlan":
        return self.add(MisdirectedWrites(at_ms, site, count))

    def nvram_blip(self, at_ms: float, site: int, records: int = 1) -> "FaultPlan":
        return self.add(NvramBlip(at_ms, site, records))

    def crash_point(self, at_ms: float, site: int, cut_after: int = 1) -> "FaultPlan":
        return self.add(CrashPoint(at_ms, site, cut_after))

    def install_policy(self, at_ms: float, policy) -> "FaultPlan":
        return self.add(InstallLinkPolicy(at_ms, policy))

    def remove_policy(self, at_ms: float, policy) -> "FaultPlan":
        return self.add(RemoveLinkPolicy(at_ms, policy))

    def intervene(self, at_ms: float, label: str, fn) -> "FaultPlan":
        return self.add(Intervention(at_ms, label, fn))

    def arm(self, cluster) -> None:
        """Schedule every event on the cluster's simulator clock.

        Times are absolute simulated ms; events already in the past
        are rejected (arm the plan before running the window).
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
