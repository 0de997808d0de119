"""The remediation controller: closing the detect-isolate-recover loop.

The health monitor gave the simulation eyes — hysteresis alert signals
derived from the metrics registry — and this module gives it hands. A
:class:`RemediationController` reads the monitor's table of active
alerts on a fixed cadence and runs two policies against the cluster:

* **restart in place** — a replica whose machine is down (its
  heartbeat-staleness alert is active and its server process is dead)
  is rebooted; the reboot re-runs the Fig. 6 recovery protocol and the
  replica rejoins the group;
* **scrub** — a ``storage.corrupt_rate`` alert (the node is the
  damaged disk or NVRAM board) kicks an immediate scrub pass on the
  owning server.

A member that is alive but unreachable is the group's own business:
its reset excludes it and Fig. 6 brings it back. The server set and
the resilience degree are both fixed when the cluster is built, as in
the paper; no policy reconfigures the group.

Every action is rate-limited (per-run budgets), cooled down (per
node), and audited: each one appends to
:attr:`RemediationController.actions`, bumps the ``remediate.actions``
counter, and — when the flight recorder is on — lands a
``remediate.<action>`` trace event stamped with the lineage
``("remediate", action, n)``, so a post-mortem can replay exactly what
the controller did and why. Policies run inside the controller's own
fixed-cadence process, so same-seed runs remediate identically.
"""

from __future__ import annotations

#: Alert signal that drives the restart policy (a member that neither
#: sees nor sends heartbeats is crashed or unreachable).
STALENESS = "group.heartbeat_staleness"
#: Alert signal that drives the scrub policy. Its node is the damaged
#: *storage device* (disk or NVRAM board), not a server address — the
#: controller maps it back to the owning site.
CORRUPTION = "storage.corrupt_rate"

#: Minimum gap between restarts of the same node.
RESTART_COOLDOWN_MS = 6_000.0
#: Total restarts allowed per run.
MAX_RESTARTS = 4
#: Minimum gap between scrub-now kicks of the same node.
SCRUB_COOLDOWN_MS = 4_000.0
#: Total scrub-now kicks allowed per run.
MAX_SCRUBS = 8


class RemediationController:
    """Read the HealthMonitor's active alerts; drive the cluster back
    to its declared shape."""

    def __init__(self, cluster, monitor):
        self.cluster = cluster
        self.monitor = monitor
        self.sim = cluster.sim
        #: Audit trail: one dict per action, in execution order.
        self.actions: list[dict] = []
        self._restarted_at: dict[str, float] = {}
        self._scrubbed_at: dict[str, float] = {}
        self._restarts = 0
        self._scrubs = 0
        self._c_actions = self.sim.obs.registry.counter(
            "remediation", "remediate.actions"
        )

    def start(self) -> "RemediationController":
        """Start the policy loop, at the monitor's cadence."""
        self.sim.spawn(self._run(), "remediation-ctl")
        return self

    def _run(self):
        while True:
            yield self.sim.sleep(self.monitor.interval_ms)
            self.tick()

    def _active(self, signal: str) -> list:
        """The monitor's active alerts on *signal*, in node order."""
        return [a for a in self.monitor.active_alerts if a.signal == signal]

    # -- the policy loop ---------------------------------------------------

    def tick(self) -> None:
        now = self.sim.now
        self._restart_policy(now)
        self._scrub_policy(now)

    def _restart_policy(self, now: float) -> None:
        stale = {alert.node for alert in self._active(STALENESS)}
        for index, site in enumerate(self.cluster.sites):
            node = str(site.dir_address)
            if node not in stale:
                continue
            if site.server.alive:
                continue  # unreachable, not dead: the group's reset's job
            if self._restarts >= MAX_RESTARTS:
                continue
            last = self._restarted_at.get(node)
            if last is not None and now - last < RESTART_COOLDOWN_MS:
                continue
            self._restarts += 1
            self._restarted_at[node] = now
            self.cluster.restart_server(index)
            self._audit("restart", node, server=index)

    def _scrub_policy(self, now: float) -> None:
        for alert in self._active(CORRUPTION):
            node = alert.node
            site = self._site_of_storage(node)
            if site is None or self._scrubs >= MAX_SCRUBS:
                continue
            last = self._scrubbed_at.get(node)
            if last is not None and now - last < SCRUB_COOLDOWN_MS:
                continue
            server = site.server
            if not server.alive or not server.operational:
                continue  # a dead replica is the restart policy's problem
            if not hasattr(server, "scrub_now"):
                continue
            self._scrubs += 1
            self._scrubbed_at[node] = now
            server.scrub_now()
            self._audit("scrub", node, server=self.cluster.sites.index(site))

    def _site_of_storage(self, node: str):
        """The site owning the storage device registered as *node*."""
        for site in self.cluster.sites:
            if site.disk.name == node:
                return site
            nvram = getattr(site, "nvram", None)
            if nvram is not None and nvram.name == node:
                return site
        return None

    # -- audit -------------------------------------------------------------

    def _audit(self, action: str, node: str, **detail) -> None:
        n = len(self.actions) + 1
        self.actions.append({
            "at_ms": round(self.sim.now, 3),
            "action": action,
            "node": node,
            "n": n,
            **detail,
        })
        self._c_actions.inc()
        self.sim.obs.emit(
            node,
            "remediate",
            f"remediate.{action}",
            lineage=("remediate", action, n),
            **detail,
        )
