"""The invariants a quiesced deployment and its client history must hold.

The paper requires one-copy serializability for individual directory
operations (section 2), r-safe updates, acknowledged writes on disk
(Fig. 5) and recovery back to the full membership (Fig. 6).
:func:`check_cluster` runs six checks against one run:

* **replica equality** — every operational replica's state
  fingerprint matches (the cluster classes expose this);
* **linearizability** — each key's history, closing reads included, is
  linearizable as a register (:func:`check_linearizability`, a bounded
  Wing & Gong search). Read-your-writes, a lost write and a deleted
  name that comes back all fail it;
* **exactly-once applies** — no session-stamped operation is executed
  twice on any replica (:func:`check_exactly_once_applies`);
* **declared shape** — a serving service is back at its whole server
  set, every kernel at the configured resilience degree
  (:func:`check_resilience_restored`);
* **durability** — no corrupt byte was served, and every operational
  replica's disk holds what it acknowledged (:func:`check_durability`).

:class:`HistoryRecorder` collects the client-side events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster import GroupServiceCluster


@dataclass(frozen=True)
class HistoryEvent:
    """One completed client operation."""

    client: str
    kind: str  # "append", "delete", "lookup"
    key: Any  # (directory object number, name)
    value: Any  # capability written, or lookup result
    start_ms: float
    end_ms: float
    #: Where a lookup's value came from: ``"server"`` (a remote RPC
    #: answered it) or ``"cache"`` (the client's coherent lookup cache
    #: served it without any network round trip). Cache-served reads
    #: are checked by exactly the same register model as server reads —
    #: that is the point: the coherence protocol must make them
    #: indistinguishable (docs/PROTOCOL.md "Client cache coherence").
    source: str = "server"


@dataclass
class HistoryRecorder:
    """Accumulates events from any number of client drivers."""

    events: list[HistoryEvent] = field(default_factory=list)

    def record(
        self, client, kind, key, value, start_ms, end_ms, source="server"
    ) -> None:
        self.events.append(
            HistoryEvent(client, kind, key, value, start_ms, end_ms, source)
        )

    def cache_served_reads(self) -> int:
        """How many recorded lookups were served from a client cache.

        Chaos scenarios that exist to hunt stale cached reads use this
        as a non-vacuity check: a run in which no read ever came from a
        cache proves nothing about coherence.
        """
        return sum(1 for e in self.events if e.source == "cache")

    def overlapping(self, first_ms: float, last_ms: float) -> int:
        """How many operations of non-zero length overlap
        [first_ms, last_ms]. A chaos run uses its first and last fault
        instants: with none, the faults hit idle clients and the
        history proves nothing about them."""
        return sum(
            1
            for e in self.events
            if e.start_ms < e.end_ms and e.start_ms <= last_ms and e.end_ms >= first_ms
        )


#: Linearizability-search budget: DFS states explored per key before
#: the checker declares the key undecided (treated as a pass — the
#: checker is a bug detector, not a prover).
LINEARIZABILITY_STATE_BUDGET = 200_000

#: History kinds whose effect is unknown (the client's retry rounds
#: were exhausted by an RPC failure, so the write may or may not have
#: been applied). The checker treats them as *optional* writes.
AMBIGUOUS_KINDS = {"append?", "delete?"}


@dataclass
class _RegisterOp:
    """One operation in the per-key register model."""

    is_write: bool
    value: Any  # written value, or the value a read observed
    start: float
    end: float
    optional: bool  # ambiguous write: may never have taken effect


def check_linearizability(history: HistoryRecorder) -> list[str]:
    """Per-key linearizability of a client history (Wing & Gong).

    Each key is modelled as a register: ``append`` writes the recorded
    capability, ``delete`` writes None, ``lookup`` reads. Keys are
    independent registers, so each is checked separately with a DFS
    over linearization orders (memoized on the set of linearized ops
    plus the register value). Ambiguous writes — kind ``"append?"`` or
    ``"delete?"``, recorded when a retry-safe client ran out of retry
    rounds — are optional: the search may linearize them or not, and
    their invocation never constrains other operations' order (their
    response time is unknown, i.e. infinite).

    Returns one message per non-linearizable key. A key whose search
    exhausts the state budget counts as undecided, not as a violation.
    """
    per_key: dict[Any, list[_RegisterOp]] = {}
    for event in history.events:
        kind = event.kind
        optional = kind in AMBIGUOUS_KINDS
        base = kind.rstrip("?")
        if base == "append":
            op = _RegisterOp(True, event.value, event.start_ms,
                             float("inf") if optional else event.end_ms, optional)
        elif base == "delete":
            op = _RegisterOp(True, None, event.start_ms,
                             float("inf") if optional else event.end_ms, optional)
        elif base == "lookup":
            op = _RegisterOp(False, event.value, event.start_ms,
                             event.end_ms, False)
        else:
            continue
        per_key.setdefault(event.key, []).append(op)

    problems: list[str] = []
    for key, ops in sorted(per_key.items(), key=lambda item: repr(item[0])):
        ok, exhausted = _key_linearizable(ops)
        if not ok and not exhausted:
            problems.append(
                f"key {key!r}: history of {len(ops)} operations is not "
                f"linearizable as a register"
            )
    return problems


def _key_linearizable(ops: list[_RegisterOp]) -> tuple[bool, bool]:
    """(linearizable, budget_exhausted) for one key's operations."""
    ops = sorted(ops, key=lambda op: (op.start, op.end))
    mandatory = frozenset(
        i for i, op in enumerate(ops) if not op.optional
    )
    n = len(ops)
    seen: set[tuple[frozenset, Any]] = set()
    budget = LINEARIZABILITY_STATE_BUDGET

    def dfs(done: frozenset, value) -> bool:
        nonlocal budget
        if mandatory <= done:
            return True
        state = (done, value)
        if state in seen:
            return False
        seen.add(state)
        budget -= 1
        if budget <= 0:
            raise _BudgetExhausted
        # Minimal ops: nothing still pending finished strictly before
        # this one started (real-time order must be respected).
        frontier = min(
            (ops[j].end for j in range(n) if j not in done and not ops[j].optional),
            default=float("inf"),
        )
        for i in range(n):
            if i in done:
                continue
            op = ops[i]
            if op.start > frontier:
                continue
            if op.is_write:
                if dfs(done | {i}, op.value):
                    return True
            elif op.value == value:
                if dfs(done | {i}, value):
                    return True
        return False

    try:
        return dfs(frozenset(), None), False
    except _BudgetExhausted:
        return True, True


class _BudgetExhausted(Exception):
    pass


def check_exactly_once_applies(trace_events) -> list[str]:
    """No (client, session seqno) pair may be *executed* twice.

    Scans ``dir.apply.end`` trace events: for each node, every
    session-stamped apply that both succeeded (``failed=False``) and
    was not a dedup-cache hit (``dedup=False``) must be unique per
    (client, seqno). A duplicate means the session table failed to
    suppress a resend — the exactly-once bug this layer exists to
    prevent. Works on live TraceEvent objects or exported dicts.
    """
    applied: dict[tuple, int] = {}
    for event in trace_events:
        name = event.name if hasattr(event, "name") else event.get("name")
        if name != "dir.apply.end":
            continue
        args = event.args if hasattr(event, "args") else event.get("args", {})
        node = event.node if hasattr(event, "node") else event.get("node")
        client = args.get("client")
        sess = args.get("sess")
        if client is None or sess is None:
            continue
        if args.get("failed") or args.get("dedup"):
            continue
        key = (str(node), client, sess)
        applied[key] = applied.get(key, 0) + 1
    return [
        f"node {node}: session op ({client!r}, seq {sess}) executed "
        f"{count} times (duplicate application)"
        for (node, client, sess), count in sorted(applied.items(), key=repr)
        if count > 1
    ]


@dataclass
class InvariantReport:
    """Combined verdict of all post-quiescence checks on one run.

    ``replicas_equal`` covers operational replicas only; when fewer
    than a majority are operational the run counts as *unavailable*
    (the service refused rather than diverged), which callers treat as
    a separate, legitimate outcome — see :mod:`repro.chaos`.
    """

    operational: int
    total_servers: int
    replicas_equal: bool
    linearizability_violations: list[str] = field(default_factory=list)
    duplicate_applies: list[str] = field(default_factory=list)
    resilience_problems: list[str] = field(default_factory=list)
    durability_problems: list[str] = field(default_factory=list)

    def problems(self) -> list[str]:
        out = []
        if not self.replicas_equal:
            out.append("operational replicas hold divergent state")
        out.extend(self.linearizability_violations)
        out.extend(self.duplicate_applies)
        out.extend(self.resilience_problems)
        out.extend(self.durability_problems)
        return out


def check_resilience_restored(cluster) -> list[str]:
    """The self-driving contract: the cluster is back at its declared
    shape after the faults (and the settle tail). The server set and
    the resilience degree are both fixed when the cluster is built
    (``config.server_addresses`` and ``config.resilience``), so:

    * every configured replica is operational;
    * every operational replica's view contains the whole server set;
    * every operational kernel runs at the configured resilience
      degree (a reset or a rejoin must carry it over).

    Returns one message per violation; deployments without a group
    (the RPC pair) vacuously pass.
    """
    if not isinstance(cluster, GroupServiceCluster):
        return []
    problems: list[str] = []
    config = cluster.config
    operational = cluster.operational_servers()
    if len(operational) < config.n_servers:
        problems.append(
            f"only {len(operational)}/{config.n_servers} declared replicas are "
            f"operational"
        )
    for server in operational:
        info = server.member.info()
        missing = [str(a) for a in config.server_addresses if a not in info.view]
        if missing:
            problems.append(
                f"server {server.index}: view is missing {missing}"
            )
        if info.resilience != config.resilience:
            problems.append(
                f"server {server.index}: kernel resilience degree is "
                f"{info.resilience}; declared degree is {config.resilience}"
            )
    return problems


def check_durability(cluster) -> list[str]:
    """The storage-integrity contract (docs/PROTOCOL.md, "Storage
    integrity"): no corrupt byte was ever served, and every
    operational replica's durable blocks hold what it acknowledged.

    Two parts, in a deliberate order:

    * **counter evidence, read first** (the audit below peeks blocks
      and must not pollute it): any nonzero ``disk.corrupt_served`` or
      ``nvram.corrupt_replayed`` counter means some read returned
      damaged bytes as if they were good — the silent-corruption
      failure mode the integrity envelope exists to prevent. The
      chaos suite's ``integrity_off`` control run must fail here,
      proving the check is not vacuous.
    * **a zero-time disk audit** of every operational replica: each
      mapped admin-partition block must hold exactly what the RAM
      mirrors say was last flushed there. Unrepaired bit rot, lost or
      misdirected writes, and torn batch tails all surface as
      mismatches (a failed checksum counts as one too).
    """
    problems: list[str] = []
    registry = cluster.obs.registry
    for metric in ("disk.corrupt_served", "nvram.corrupt_replayed"):
        for node, counter in registry.find_counters(metric):
            if counter.value:
                problems.append(
                    f"{node}: {metric} = {counter.value} "
                    f"(corrupt bytes served as good data)"
                )
    for server in cluster.operational_servers():
        admin = getattr(server, "admin", None)
        if admin is None:
            continue
        for index, expected in sorted(admin.expected_blocks().items()):
            if not admin.verify_block(index, expected):
                problems.append(
                    f"server {server.index}: admin block {index} does not "
                    f"hold its acknowledged contents (unrepaired rot, or a "
                    f"lost/torn/misdirected write)"
                )
    return problems


def check_cluster(
    cluster,
    history: HistoryRecorder,
    trace_events=None,
) -> InvariantReport:
    """Run every invariant against a quiesced cluster + client history.

    The history goes through :func:`check_linearizability`; record a
    closing read of every key in it, so that the final state is held
    to the writes too. Pass the run's trace events
    (``cluster.obs.tracer.events()`` or the exported dicts) as
    *trace_events* to also scan for duplicate session-op applications.
    :func:`check_durability` always runs;
    :func:`check_resilience_restored` runs whenever a majority of the
    configured servers is operational, because a service that serves
    must be back at its declared shape (without a majority the caller
    judges availability instead).
    """
    operational = cluster.operational_servers()
    report = InvariantReport(
        operational=len(operational),
        total_servers=len(cluster.servers),
        replicas_equal=cluster.replicas_consistent(),
        linearizability_violations=check_linearizability(history),
    )
    if trace_events is not None:
        report.duplicate_applies = check_exactly_once_applies(trace_events)
    if len(operational) >= cluster.config.majority:
        report.resilience_problems = check_resilience_restored(cluster)
    report.durability_problems = check_durability(cluster)
    return report
