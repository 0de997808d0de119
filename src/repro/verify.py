"""The invariants a quiesced deployment and its client history must hold.

The paper requires one-copy serializability for individual directory
operations (section 2), r-safe updates, acknowledged writes on disk
(Fig. 5) and recovery back to the full membership (Fig. 6).
:func:`check_cluster` runs seven checks against one run:

* **replica equality** — every operational replica's state
  fingerprint matches (the cluster classes expose this);
* **session guarantees** — on keys private to each client, every read
  reflects exactly that client's own preceding writes
  (:func:`check_private_key_history`);
* **no lost updates** — on private keys, the final listing holds every
  surviving append and no deleted name (:func:`check_no_lost_updates`);
* **linearizability** — on shared keys, each key's history is
  linearizable as a register (:func:`check_shared_key_linearizability`,
  a bounded Wing & Gong search);
* **exactly-once applies** — no session-stamped operation is executed
  twice on any replica (:func:`check_exactly_once_applies`);
* **declared shape** — a serving service is back at its declared
  replica count and resilience degree
  (:func:`check_resilience_restored`);
* **durability** — no corrupt byte was served, and every operational
  replica's disk holds what it acknowledged (:func:`check_durability`).

:class:`HistoryRecorder` collects the client-side events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


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

    def by_client(self) -> dict[str, list[HistoryEvent]]:
        out: dict[str, list[HistoryEvent]] = {}
        for event in self.events:
            out.setdefault(event.client, []).append(event)
        for events in out.values():
            events.sort(key=lambda e: e.start_ms)
        return out


@dataclass
class Violation:
    """One broken session guarantee."""

    client: str
    event: HistoryEvent
    expected: Any
    explanation: str


def check_private_key_history(history: HistoryRecorder) -> list[Violation]:
    """Verify read-your-writes on keys private to each client.

    Assumes no two clients touch the same key (the caller arranges
    that). For each client, a lookup must return the capability of the
    client's latest preceding append, or None after a delete / before
    any append.
    """
    violations: list[Violation] = []
    for client, events in history.by_client().items():
        expected: dict[Any, Any] = {}
        for event in events:
            if event.kind == "append":
                expected[event.key] = event.value
            elif event.kind == "delete":
                expected[event.key] = None
            elif event.kind == "lookup":
                want = expected.get(event.key)
                if event.value != want:
                    violations.append(
                        Violation(
                            client,
                            event,
                            want,
                            f"lookup of {event.key} returned {event.value!r}, "
                            f"but this client's own writes imply {want!r}",
                        )
                    )
    return violations


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


def check_shared_key_linearizability(history: HistoryRecorder) -> list[str]:
    """Per-key linearizability of a shared-key history (Wing & Gong).

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
    session_violations: list[Violation] = field(default_factory=list)
    lost_updates: list[str] = field(default_factory=list)
    linearizability_violations: list[str] = field(default_factory=list)
    duplicate_applies: list[str] = field(default_factory=list)
    resilience_problems: list[str] = field(default_factory=list)
    durability_problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.replicas_equal
            and not self.session_violations
            and not self.lost_updates
            and not self.linearizability_violations
            and not self.duplicate_applies
            and not self.resilience_problems
            and not self.durability_problems
        )

    def problems(self) -> list[str]:
        out = []
        if not self.replicas_equal:
            out.append("operational replicas hold divergent state")
        out.extend(v.explanation for v in self.session_violations)
        out.extend(self.lost_updates)
        out.extend(self.linearizability_violations)
        out.extend(self.duplicate_applies)
        out.extend(self.resilience_problems)
        out.extend(self.durability_problems)
        return out


def check_resilience_restored(cluster) -> list[str]:
    """The self-driving contract: the cluster is back at its DECLARED
    shape after the faults (and the settle tail).

    Checks, against ``cluster.declared_n_servers`` and
    ``cluster.declared_resilience`` (captured at build time):

    * the configured server set holds the declared number of replicas
      (an eviction must have been re-replicated onto a spare);
    * that many replicas are operational;
    * every operational replica's view contains the whole server set;
    * the service's resilience degree — shared config AND every
      operational kernel — is back at the declared value (remediation
      may scale it temporarily, but must scale it back).

    Returns one message per violation; clusters without a declared
    shape (other deployment kinds) vacuously pass.
    """
    declared_n = getattr(cluster, "declared_n_servers", None)
    declared_r = getattr(cluster, "declared_resilience", None)
    if declared_n is None or declared_r is None:
        return []
    problems: list[str] = []
    addresses = tuple(cluster.config.server_addresses)
    if len(addresses) != declared_n:
        problems.append(
            f"server set holds {len(addresses)} addresses; "
            f"declared size is {declared_n}"
        )
    operational = cluster.operational_servers()
    if len(operational) < declared_n:
        problems.append(
            f"only {len(operational)}/{declared_n} declared replicas are "
            f"operational"
        )
    if cluster.config.resilience != declared_r:
        problems.append(
            f"service resilience degree is {cluster.config.resilience}; "
            f"declared degree is {declared_r}"
        )
    for server in operational:
        info = server.member.info()
        missing = [str(a) for a in addresses if a not in info.view]
        if missing:
            problems.append(
                f"server {server.index}: view is missing {missing}"
            )
        if info.resilience != declared_r:
            problems.append(
                f"server {server.index}: kernel resilience degree is "
                f"{info.resilience}; declared degree is {declared_r}"
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
    final_names: set | None = None,
    private_keys: bool = True,
    trace_events=None,
) -> InvariantReport:
    """Run every invariant against a quiesced cluster + client history.

    *final_names* is the final listing used for the lost-update check;
    pass None to skip it (e.g. when no replica is reachable to read
    the final state from). With ``private_keys=False`` the per-client
    read-your-writes and last-writer checks (which assume disjoint key
    sets) are replaced by the shared-key linearizability checker.
    Pass the run's trace events (``cluster.obs.tracer.events()`` or
    the exported dicts) as *trace_events* to also scan for duplicate
    session-op applications. :func:`check_durability` always runs;
    :func:`check_resilience_restored` runs whenever a majority of the
    configured servers is operational, because a service that serves
    must be back at its declared shape (without a majority the caller
    judges availability instead).
    """
    operational = cluster.operational_servers()
    report = InvariantReport(
        operational=len(operational),
        total_servers=sum(1 for s in cluster.servers if s is not None),
        replicas_equal=cluster.replicas_consistent(),
    )
    if private_keys:
        report.session_violations = check_private_key_history(history)
        if final_names is not None:
            report.lost_updates = check_no_lost_updates(history, final_names)
    else:
        report.linearizability_violations = check_shared_key_linearizability(
            history
        )
    if trace_events is not None:
        report.duplicate_applies = check_exactly_once_applies(trace_events)
    if len(operational) >= cluster.config.majority:
        report.resilience_problems = check_resilience_restored(cluster)
    report.durability_problems = check_durability(cluster)
    return report


def check_no_lost_updates(history: HistoryRecorder, final_names: set) -> list[str]:
    """Every name a client appended (and never deleted) must exist in
    the final listing, and every deleted name must be absent."""
    problems = []
    last_write: dict[Any, tuple[str, Any]] = {}
    for event in sorted(history.events, key=lambda e: e.end_ms):
        if event.kind in ("append", "delete"):
            last_write[event.key] = (event.kind, event.value)
    for key, (kind, _value) in last_write.items():
        name = key[1] if isinstance(key, tuple) else key
        if kind == "append" and name not in final_names:
            problems.append(f"appended name {name!r} missing from final state")
        if kind == "delete" and name in final_names:
            problems.append(f"deleted name {name!r} still in final state")
    return problems
