"""Outside-in per-layer trace for one *traced* repeat.

Nothing under ``src/`` knows it is being traced. :class:`Trace` swaps
each layer's public entry points for wrappers that read the simulated
clock before and after the original call and append one span tuple

    ``(node, start_ms, end_ms, ok, tag)``

to an in-memory list per entry point; :meth:`Trace.uninstall` puts the
originals back. Host self time comes from ``cProfile`` switched on for
the measurement window only, exclusive time per function attributed to
the ``repro/<package>/`` whose file defines it. Wrappers and profiler
only *read* clocks, so a traced repeat must be event-for-event the
untraced repeat of the same seed — run.py checks that and refuses to
print a decomposition otherwise.

Spans name their cause by position, not by an id threaded through the
system: load and solo clients have one RPC outstanding at a time, so a
client ``trans`` span belongs to the client op whose interval contains
it, and a server residence span to the ``trans`` of the same client
address that contains it (:func:`spans_with_causes`).
"""

from __future__ import annotations

import cProfile
import pstats
from bisect import bisect_right
from collections import Counter

from repro.directory.cache import LookupCache
from repro.group.member import GroupMember
from repro.rpc.client import RpcClient
from repro.rpc.server import ReplyHandle, RpcServer
from repro.storage.bullet import BulletClient
from repro.storage.disk import Disk
from repro.storage.nvram import Nvram

from stats import percentile

#: The layers are this repo's packages; everything else under
#: ``repro/`` (cluster builders, workload generators, bench helpers) is
#: test rig and lands in ``harness`` with the benchmark's own files.
LAYERS = ("sim", "net", "rpc", "group", "directory", "storage", "obs", "amoeba")
ORDER_KINDS = ("req", "bc", "ack", "commit")
BACKGROUND_KINDS = ("hb", "echo")
DISK_CALLS = (
    "write_block", "write_blocks", "read_block",
    "write_extent", "read_extent", "delete_extent",
)
#: Every class :meth:`Trace.install` patches (the smoke test checks
#: that none keeps a wrapper).
TRACED_CLASSES = (
    RpcClient, RpcServer, ReplyHandle, GroupMember, LookupCache,
    Disk, Nvram, BulletClient,
)


class Trace:
    """Installed wrappers + the spans and counts they collect."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        #: Running totals since install; ``window_counts`` (set when the
        #: window closes) holds the part that fell inside the window.
        self.counts: Counter = Counter()
        self.window_counts: Counter = Counter()
        self._originals: list = []
        self._open_requests: dict = {}
        self._profile = cProfile.Profile()

    # -- wrapper plumbing ------------------------------------------------

    def _patch(self, cls, name, make_wrapper):
        original = cls.__dict__[name]
        self._originals.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def _span_gen(self, key, sim_of, node_of, tag_of=None):
        """Wrapper factory for a generator entry point."""
        spans = self.spans.setdefault(key, [])

        def make(original):
            def traced(obj, *args, **kwargs):
                sim = sim_of(obj)
                start = sim.now
                tag = tag_of(args) if tag_of else None
                ok = False
                try:
                    result = yield from original(obj, *args, **kwargs)
                    ok = True
                    return result
                finally:  # also when the process is killed mid-call
                    spans.append((node_of(obj), start, sim.now, ok, tag))

            return traced

        return make

    def install(self) -> "Trace":
        count = self.counts

        def by_sim(obj):
            return obj.sim

        self._patch(
            RpcClient, "trans",
            self._span_gen(
                "rpc.trans", by_sim,
                lambda c: str(c.transport.address),
                lambda args: (
                    str(args[0]),  # port
                    args[1].get("op") if isinstance(args[1], dict)
                    else type(args[1]).__name__,  # request body
                ),
            ),
        )
        for name in ("send_to_group", "reset"):
            self._patch(
                GroupMember, name,
                self._span_gen(f"group.{name}", by_sim, lambda m: str(m.address)),
            )
        for name in DISK_CALLS:
            self._patch(
                Disk, name,
                self._span_gen("storage.disk", by_sim, lambda d: d.name,
                               lambda _args, name=name: name),
            )
        self._patch(
            Nvram, "append",
            self._span_gen("storage.nvram", by_sim, lambda n: n.name),
        )
        for name in ("create", "read", "delete"):
            self._patch(
                BulletClient, name,
                self._span_gen(
                    "storage.bullet", lambda b: b.rpc.sim,
                    lambda b: str(b.rpc.transport.address),
                    lambda _args, name=name: name,
                ),
            )

        # Group deliveries: one blocking receive() opens a drain, the
        # receive_ready() after it tops the batch up.
        def make_receive(original):
            def traced(member):
                record = yield from original(member)
                count["group.drains"] += 1
                count["group.records"] += 1
                return record

            return traced

        def make_receive_ready(original):
            def traced(member, limit=None):
                batch = original(member, limit)
                count["group.records"] += len(batch)
                return batch

            return traced

        self._patch(GroupMember, "receive", make_receive)
        self._patch(GroupMember, "receive_ready", make_receive_ready)

        # Server residence: request delivered to a listening thread
        # until that request's reply (or error) leaves.
        open_requests = self._open_requests
        residence = self.spans.setdefault("rpc.residence", [])

        def make_deliver(original):
            def traced(server, body, client, txid):
                sim = server.transport.sim
                open_requests[(id(server._kernel), client, txid)] = (
                    str(server.transport.address), str(server.port), str(client),
                    bool(getattr(body, "is_read", False)), sim.now,
                )
                return original(server, body, client, txid)

            return traced

        def make_answer(ok):
            def make(original):
                def traced(handle, *args, **kwargs):
                    opened = open_requests.pop(
                        (id(handle._kernel), handle.client, handle._txid), None
                    )
                    if opened is not None:
                        node, port, client, is_read, start = opened
                        residence.append(
                            (node, start, handle._kernel.sim.now, ok,
                             (port, client, is_read))
                        )
                    return original(handle, *args, **kwargs)

                return traced

            return make

        self._patch(RpcServer, "deliver", make_deliver)
        self._patch(ReplyHandle, "reply", make_answer(True))
        self._patch(ReplyHandle, "error", make_answer(False))

        # Client lookup cache: counts only (no simulated time passes).
        def make_counter(key, amount=lambda _result: 1):
            def make(original):
                def traced(cache, *args):
                    result = original(cache, *args)
                    count[key] += amount(result)
                    return result

                return traced

            return make

        self._patch(LookupCache, "count_hit", make_counter("cache.hits"))
        self._patch(LookupCache, "count_miss", make_counter("cache.misses"))
        self._patch(
            LookupCache, "invalidate",
            make_counter("cache.invalidated", amount=lambda dropped: dropped),
        )
        return self

    def uninstall(self) -> None:
        while self._originals:
            cls, name, original = self._originals.pop()
            setattr(cls, name, original)

    # -- the window ------------------------------------------------------

    def window_opens(self) -> None:
        self._counts_at_open = Counter(self.counts)
        self._profile.enable()

    def pause_profile(self) -> None:
        """For the calibration loop between slices of the window."""
        self._profile.disable()

    def resume_profile(self) -> None:
        self._profile.enable()

    def window_closes(self) -> None:
        self._profile.disable()
        self.window_counts = self.counts - self._counts_at_open

    def host_self_shares(self) -> dict:
        """Exclusive profile time per layer, as shares summing to 1."""
        totals = dict.fromkeys((*LAYERS, "harness", "builtin"), 0.0)
        for (filename, _line, _name), row in pstats.Stats(self._profile).stats.items():
            totals[_layer_of(filename)] += row[2]  # tottime
        whole = sum(totals.values())
        return {layer: value / whole for layer, value in totals.items()}


def _layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        package = path[marker + len("/repro/"):].split("/", 1)[0]
        return package if package in LAYERS else "harness"
    if "/benchmarks/ledger/" in path:
        return "harness"
    return "builtin"  # C functions ("~") and the standard library


# ----------------------------------------------------------------------
# From spans to per-layer metrics
# ----------------------------------------------------------------------

def _in_window(spans, window):
    start, end = window
    return [s for s in spans if start <= s[2] < end]


def _p50(spans) -> float:
    return percentile(sorted(s[2] - s[1] for s in spans), 0.50)


def _merged(intervals):
    """Union of (start, end) intervals as sorted disjoint lists."""
    starts, ends = [], []
    for start, end in sorted(intervals):
        if ends and start <= ends[-1]:
            ends[-1] = max(ends[-1], end)
        else:
            starts.append(start)
            ends.append(end)
    return starts, ends


def _frames(net: dict, suffixes) -> int:
    return sum(
        n for kind, n in net["by_kind"].items()
        if kind.startswith("grp.") and kind.rsplit(".", 1)[1] in suffixes
    )


def layer_metrics(trace: Trace, facts: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json for one traced repeat.

    Ratios are per unit op completed in the window; a metric with no
    samples reads 0.0 (``group.send_sim_ms_p50`` on ``lookup_hot``).
    """
    window = facts["window"]
    service_port = facts["service_port"]
    seconds = (window[1] - window[0]) / 1000.0
    ops = max(1, sum(1 for u in facts["units"] if window[0] <= u[2] < window[1]))
    net = facts["net"]
    count = trace.window_counts
    out = {"sim.events_per_op": facts["scheduled_events"] / ops}
    for layer, share in trace.host_self_shares().items():
        out[f"{layer}.host_self_share"] = share

    out["net.frames_per_op"] = net["frames"] / ops
    out["net.bytes_per_op"] = net["bytes"] / ops
    out["net.background_frames_per_sim_s"] = _frames(net, BACKGROUND_KINDS) / seconds

    trans = _in_window(trace.spans["rpc.trans"], window)
    client_trans = [s for s in trans if ".client." in s[0]]
    out["rpc.trans_per_op"] = len(client_trans) / ops
    out["rpc.trans_sim_ms_p50"] = _p50(client_trans)
    out["rpc.trans_failed_share"] = (
        sum(1 for s in client_trans if not s[3]) / max(1, len(client_trans))
    )
    out["rpc.locate_frames_per_op"] = net["by_kind"].get("rpc.locate", 0) / ops
    out["rpc.nothere_per_op"] = net["by_kind"].get("rpc.nothere", 0) / ops

    sends = _in_window(trace.spans["group.send_to_group"], window)
    resets = _in_window(trace.spans["group.reset"], window)
    out["group.sends_per_op"] = len(sends) / ops
    out["group.send_sim_ms_p50"] = _p50(sends)
    out["group.order_frames_per_send"] = _frames(net, ORDER_KINDS) / max(1, len(sends))
    out["group.records_per_batch"] = (
        count["group.records"] / max(1, count["group.drains"])
    )
    out["group.resets"] = len(resets)
    out["group.reset_sim_ms_p50"] = _p50(resets)

    residence = [
        s for s in _in_window(trace.spans["rpc.residence"], window)
        if s[4][0] == service_port
    ]
    reads = [s for s in residence if s[4][2]]
    writes = [s for s in residence if not s[4][2]]
    out["directory.read_residence_sim_ms_p50"] = _p50(reads)
    out["directory.write_residence_sim_ms_p50"] = _p50(writes)
    lookups = count["cache.hits"] + count["cache.misses"]
    out["directory.cache.hit_share"] = count["cache.hits"] / max(1, lookups)
    out["directory.cache.invalidations_per_write"] = (
        count["cache.invalidated"] / max(1, len(writes))
    )
    # A read is *blocked* when its trans overlapped any write's server
    # residence: the replica it reached had to apply that write first.
    starts, ends = _merged((s[1], s[2]) for s in writes)
    read_trans = [s for s in client_trans if s[4][0] == service_port
                  and s[4][1] in ("LookupSet", "CoherentLookup")]
    blocked = 0
    for s in read_trans:
        i = bisect_right(starts, s[2]) - 1  # last write starting before our end
        if i >= 0 and ends[i] > s[1]:
            blocked += 1
    out["directory.read_blocked_share"] = blocked / max(1, len(read_trans))

    failover = facts.get("failover")
    out["directory.rejoin_sim_ms"] = 0.0
    out["directory.rejoin_transfer_sim_ms"] = 0.0
    if failover and failover["operational_at"] is not None:
        out["directory.rejoin_sim_ms"] = (
            failover["operational_at"] - failover["restart_at"]
        )
        out["directory.rejoin_transfer_sim_ms"] = sum(
            s[2] - s[1] for s in trans
            if s[0] == failover["victim_address"] and s[4][1] == "get_state"
            and s[1] >= failover["restart_at"]
        )

    disk = _in_window(trace.spans["storage.disk"], window)
    nvram = _in_window(trace.spans.get("storage.nvram", []), window)
    bullet = _in_window(trace.spans["storage.bullet"], window)
    out["storage.disk_calls_per_op"] = len(disk) / ops
    out["storage.disk_call_sim_ms_p50"] = _p50(disk)
    out["storage.disk_sim_ms_per_op"] = sum(s[2] - s[1] for s in disk) / ops
    out["storage.nvram_appends_per_op"] = len(nvram) / ops
    out["storage.nvram_append_sim_ms_p50"] = _p50(nvram)
    out["storage.bullet_calls_per_op"] = len(bullet) / ops
    return out


def solo_trans_gap(trace: Trace, facts: dict) -> float:
    """Largest relative gap, over the solo unit ops, between the op's
    client-observed latency and the sum of its ``trans`` spans."""
    solo_trans = [
        s for s in trace.spans["rpc.trans"] if s[0].endswith(".client.solo")
    ]
    worst = 0.0
    for _client, start, end, _ok in facts["solo_units"]:
        covered = sum(s[2] - s[1] for s in solo_trans if start <= s[1] and s[2] <= end)
        worst = max(worst, abs(covered - (end - start)) / (end - start))
    return worst


def spans_with_causes(trace: Trace, facts: dict) -> list[dict]:
    """Every span as a dict, client-side ones naming the unit op (index
    into ``facts['units']``, or ``solo:<n>``) that caused them."""
    ops_by_client: dict = {}
    for i, (client, start, end, _ok) in enumerate(facts["units"]):
        ops_by_client.setdefault(f"load{client}", []).append((start, end, str(i)))
    for i, (_client, start, end, _ok) in enumerate(facts["solo_units"]):
        ops_by_client.setdefault("solo", []).append((start, end, f"solo:{i}"))

    def cause(client_address: str, start: float, end: float):
        ops = ops_by_client.get(client_address.rsplit(".", 1)[-1], ())
        i = bisect_right(ops, (start, float("inf"), "")) - 1
        if i >= 0 and ops[i][1] >= end:
            return ops[i][2]
        return None

    out = []
    for name, spans in trace.spans.items():
        for node, start, end, ok, tag in spans:
            row = {"span": name, "node": node, "start_ms": start,
                   "end_ms": end, "ok": ok, "tag": tag}
            if name == "rpc.trans" and ".client." in node:
                row["op"] = cause(node, start, end)
            elif name == "rpc.residence" and ".client." in tag[1]:
                row["op"] = cause(tag[1], start, end)
            out.append(row)
    return out
