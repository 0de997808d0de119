"""Host self time by layer, from ``cProfile``.

Everything else in :mod:`repro.obs` measures *simulated* time. This
module answers the other question — where does **host** wallclock go —
with the engine the ledger benchmark uses for its
``*.host_self_share`` metrics: :func:`capture` runs a block under
:class:`cProfile.Profile`, and :meth:`HostProfile.report` books every
function's self (exclusive) time to the layer whose package defines it,
under the ledger's layer names (:data:`LAYERS`, :func:`layer_of`).

Self time is booked where it is spent: a frame's delivery costs ``net``
what the network does and ``rpc`` what the RPC handler does; a process
wakeup costs ``sim`` the scheduler's part and the resumed generator's
package the rest.

The profiler reads the host clock only and never touches simulated
state, so a profiled run is event-for-event the unprofiled one (same
:meth:`repro.bench.harness.Run.fingerprint`). The call count of
every ``repro`` function is a pure function of the seed — the report's
``deterministic`` section; everything else in it is measured.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator

#: The ledger's layers (benchmarks/ledger/tracing.py): this repo's
#: packages. The rest of ``repro/`` is ``harness``; C functions and the
#: standard library are ``builtin``.
LAYERS = ("sim", "net", "rpc", "group", "directory", "storage", "obs", "amoeba")
ROWS = (*LAYERS, "harness", "builtin")


def layer_of(filename: str) -> str:
    """The layer a function defined in *filename* is booked to."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        package = path[marker + len("/repro/"):].split("/", 1)[0]
        return package if package in LAYERS else "harness"
    if "/benchmarks/ledger/" in path:
        return "harness"
    return "builtin"  # C functions ("~") and the standard library


def _label(filename: str, line: int, name: str) -> tuple[str, bool]:
    """``sim/scheduler.py:69(_settle)`` and whether it is ``repro`` code."""
    if filename == "~":
        return name, False
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    short = path[marker + len("/repro/"):] if marker >= 0 else path.rsplit("/", 1)[-1]
    return f"{short}:{line}({name})", marker >= 0


class HostProfile:
    """What one :func:`capture` block measured."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.wall_ns = 0
        self.gc_collections = 0

    def report(self, top: int | None = None) -> dict:
        """Self time and calls per layer, the *top* functions by self
        time (all of them when ``None``) and the deterministic section."""
        stats = pstats.Stats(self.profile)
        layers = {row: {"calls": 0, "self_s": 0.0} for row in ROWS}
        functions = []
        deterministic = {}
        for (filename, line, name), (_, calls, self_s, cum_s, _) in stats.stats.items():
            layer = layer_of(filename)
            layers[layer]["calls"] += calls
            layers[layer]["self_s"] += self_s
            label, in_repro = _label(filename, line, name)
            functions.append({
                "function": label, "layer": layer, "calls": calls,
                "self_s": self_s, "cum_s": cum_s,
            })
            if in_repro:
                deterministic[label] = calls
        for row in layers.values():
            row["share"] = row["self_s"] / stats.total_tt if stats.total_tt else 0.0
        functions.sort(key=lambda f: (-f["self_s"], f["function"]))
        return {
            "host": {
                "wall_s": self.wall_ns / 1e9,
                "self_s": stats.total_tt,
                "calls": stats.total_calls,
                "gc_collections": self.gc_collections,
            },
            "layers": layers,
            "functions": functions[:top],
            "deterministic": dict(sorted(deterministic.items())),
        }


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


@contextmanager
def capture() -> Iterator[HostProfile]:
    """Profile the block; the yielded :class:`HostProfile` holds the
    result once the block has exited."""
    host = HostProfile()
    # Earlier work's garbage sits the block out: a collected cluster
    # closes its processes' generators, and each close would count as a
    # call. Freezing first makes the collection that restarts the
    # collector's counters (so the block's own collections fall at the
    # same allocations every run) cheap.
    gc.freeze()
    gc.collect()
    collections = _gc_collections()
    t0 = perf_counter_ns()
    host.profile.enable()
    try:
        yield host
    finally:
        host.profile.disable()
        host.wall_ns = perf_counter_ns() - t0
        host.gc_collections = _gc_collections() - collections
        gc.unfreeze()


def format_report(report: dict, title: str) -> str:
    """Render one report as the terminal table ``repro perf`` prints."""
    host = report["host"]
    lines = [
        title,
        f"  host: {host['wall_s']:.3f} s wall under cProfile, "
        f"{host['self_s']:.3f} s self time in {host['calls']:,} calls, "
        f"{host['gc_collections']} gc collection(s)",
        f"    {'layer':<11}{'calls':>11}  {'self-ms':>9}  {'share':>6}",
    ]
    for layer, row in sorted(
        report["layers"].items(), key=lambda kv: -kv[1]["self_s"]
    ):
        lines.append(
            f"    {layer:<11}{row['calls']:>11,}  "
            f"{row['self_s'] * 1e3:>9.1f}  {row['share'] * 100:>5.1f}%"
        )
    if report["functions"]:
        lines.append("  hottest functions (self time):")
        lines.append(f"    {'self-ms':>8}  {'cum-ms':>8}  {'calls':>9}  function")
        for f in report["functions"]:
            lines.append(
                f"    {f['self_s'] * 1e3:>8.1f}  {f['cum_s'] * 1e3:>8.1f}  "
                f"{f['calls']:>9,}  {f['function']}  [{f['layer']}]"
            )
    return "\n".join(lines)
