"""Queueing-theoretic bottleneck attribution and capacity prediction.

Reads one closed-loop run of the bench harness (a
:func:`repro.bench.harness.run_loop` run with its sampler on) through
the registry window over its measurement, and reports, per resource:

* utilization ``rho = busy_ms / window_ms``;
* throughput ``lambda`` (completions/s) and service time ``S = busy /
  completions``;
* mean queue depth ``L`` (time-weighted gauge mean over the window) and
  residence ``W``, cross-checked by the **Little's-law residual**
  ``|L - lambda*W| / max(L, lambda*W)`` — a self-test of the
  instrumentation: the queue gauge and the wait/busy counters are
  independent measurements of the same flow, so a residual above a few
  percent means an accounting bug, not a property of the system.

Resources are ranked by rho; the top-ranked resource's utilization law
gives the capacity ceiling: at saturation ``rho -> 1``, so the
workload ceiling is ``X / rho`` ops/s — equivalently ``1/S`` resource
completions/s scaled by completions-per-op. ``--scale`` sweeps the
writer count (at ``batch_max=1``, the paper's unbatched Fig. 9 curve),
fits the measured throughput curve against the predicted ceiling, and
compares the prediction to the committed BENCH_headline.json plateau.

Everything is deterministic: reports are seeded sim output only (no
wall-clock, no host ordering), so same-seed reports are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import SCENARIOS, run_loop

#: The committed headline bench a ``--scale`` prediction is checked
#: against, at the repository root whatever the working directory.
HEADLINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_headline.json"

#: The capacity lens's sampling cadence (sim ms).
SAMPLE_INTERVAL_MS = 250.0

#: harness workload -> what one iteration of it is called in the report
OP_NAMES = {"update": "pair", "lookup": "lookup", "mixed": "iteration"}

#: Below this activity (queue depth / expected depth) the Little
#: residual is reported as 0.0: an idle resource's L and lambda*W are
#: both numerical noise and their ratio means nothing.
RESIDUAL_FLOOR = 0.05

#: Per-resource instrument sets. ``wait_is_sojourn`` marks resources
#: whose wait counter already includes service (the sequencer pipeline
#: logs full residence per message); for semaphore-metered resources
#: W = (wait + busy) / completions instead.
RESOURCE_SPECS = (
    {"kind": "seq", "busy": "group.seq_busy_ms", "done": "group.delivered",
     "wait": "group.seq_sojourn_ms", "queue": "group.backlog",
     "wait_is_sojourn": True, "requires_busy": True},
    {"kind": "cpu", "busy": "cpu.busy_ms", "done": "cpu.grants",
     "wait": "cpu.wait_ms", "queue": "cpu.queue_depth",
     "wait_is_sojourn": False},
    {"kind": "disk", "busy": "disk.arm.busy_ms", "done": "disk.arm.grants",
     "wait": "disk.arm.wait_ms", "queue": "disk.arm.queue_depth",
     "wait_is_sojourn": False},
    {"kind": "nvram", "busy": "nvram.busy_ms", "done": "nvram.appends",
     "wait": None, "queue": None, "wait_is_sojourn": False},
    {"kind": "wire", "busy": "net.wire_ms", "done": "net.frames_sent",
     "wait": None, "queue": None, "wait_is_sojourn": False},
)

#: Ranking tie-break: the pipeline stage closest to the protocol wins
#: over raw devices at equal rho (it subsumes their time).
_KIND_PRIORITY = {"seq": 0, "cpu": 1, "disk": 2, "nvram": 3, "wire": 4}


@dataclass
class ResourceStats:
    """One resource's queueing picture over a measurement window."""

    kind: str
    node: str
    utilization: float  # rho
    throughput_per_s: float  # lambda (completions/s)
    service_ms: float  # S
    queue_depth: float | None  # L (None: resource has no queue gauge)
    residence_ms: float | None  # W
    little_residual: float | None  # |L - lambda W| / max(L, lambda W)

    @property
    def label(self) -> str:
        return f"{self.kind}({self.node})"

    def as_dict(self) -> dict:
        return {
            "resource": self.label,
            "kind": self.kind,
            "node": self.node,
            "utilization": self.utilization,
            "throughput_per_s": self.throughput_per_s,
            "service_ms": self.service_ms,
            "queue_depth": self.queue_depth,
            "residence_ms": self.residence_ms,
            "little_residual": self.little_residual,
        }


def window_stats(window) -> list[ResourceStats]:
    """Per-resource queueing stats over one registry window
    (:class:`repro.obs.registry.Window`), ranked by utilization (ties
    break toward the protocol pipeline)."""
    if window.dt_ms <= 0.0:
        return []
    out: list[ResourceStats] = []
    for spec in RESOURCE_SPECS:
        queue_nodes = window.nodes(spec["queue"]) if spec["queue"] else ()
        for node in window.nodes(spec["busy"]):
            busy = window.delta(node, spec["busy"])
            done = window.delta(node, spec["done"])
            if busy <= 0.0 and spec.get("requires_busy"):
                # Non-sequencer members deliver records but run no
                # pipeline; their backlog gauge measures replica lag.
                continue
            queue_mean = None
            residence = None
            residual = None
            if spec["queue"] is not None:
                if node in queue_nodes:
                    queue_mean = window.mean(node, spec["queue"])
                if done > 0:
                    wait = window.delta(node, spec["wait"])
                    residence = (
                        wait if spec["wait_is_sojourn"] else wait + busy) / done
                if queue_mean is not None and residence is not None:
                    # Little: L = lambda W
                    expected = window.rate(node, spec["done"]) * residence / 1000.0
                    denom = max(queue_mean, expected)
                    residual = (
                        0.0 if denom < RESIDUAL_FLOOR
                        else abs(queue_mean - expected) / denom
                    )
            if busy <= 0.0 and done <= 0:
                continue  # resource never exercised in this window
            out.append(ResourceStats(
                kind=spec["kind"], node=node,
                utilization=round(window.busy(node, spec["busy"]), 6),
                throughput_per_s=round(window.rate(node, spec["done"]), 6),
                service_ms=round(busy / done if done > 0 else 0.0, 6),
                queue_depth=None if queue_mean is None else round(queue_mean, 6),
                residence_ms=None if residence is None else round(residence, 6),
                little_residual=None if residual is None else round(residual, 6),
            ))
    out.sort(key=lambda r: (-r.utilization, _KIND_PRIORITY[r.kind], r.label))
    return out


def utilization_summary(window) -> dict:
    """Mean utilization per resource kind over *window* (max across
    nodes). The chaos runner's verdicts ask it of the whole run: cheap
    (one registry capture), no sampler required, deterministic.
    """
    return {
        spec["kind"]: round(
            max(
                (window.busy(node, spec["busy"])
                 for node in window.nodes(spec["busy"])),
                default=0.0,
            ),
            4,
        )
        for spec in RESOURCE_SPECS
    }


# ----------------------------------------------------------------------
# closed-loop capacity runs
# ----------------------------------------------------------------------

def run_point(
    scenario: str,
    writers: int,
    seed: int = 0,
    warmup_ms: float = 2_000.0,
    measure_ms: float = 10_000.0,
    batch_max: int | None = None,
) -> dict:
    """One closed-loop run: throughput + ranked resource stats.

    A view of :func:`repro.bench.harness.run_loop` (the Fig. 8/9 loop,
    same warmup/measure phasing): its registry window over the
    measurement, and the sampler that ran inside it.
    """
    deploy_kwargs = {} if batch_max is None else {"batch_max": batch_max}
    run = run_loop(
        scenario, writers, warmup_ms, measure_ms, seed,
        sample_ms=SAMPLE_INTERVAL_MS, **deploy_kwargs)
    resources = window_stats(run.window)
    top = resources[0] if resources else None
    throughput = run.loop.per_second
    return {
        "scenario": scenario,
        "implementation": run.impl,
        "op": OP_NAMES[SCENARIOS[scenario][1]],
        "seed": seed,
        "writers": writers,
        "batch_max": batch_max,
        "warmup_ms": warmup_ms,
        "measure_ms": measure_ms,
        "throughput_per_s": round(throughput, 6),
        "resources": [r.as_dict() for r in resources],
        "top_resource": None if top is None else top.label,
        "predicted_ceiling_per_s": (
            None if top is None or top.utilization <= 0.0
            else round(throughput / top.utilization, 6)
        ),
        "sampler": run.sampler.as_dict(),
        "sampler_events": run.sampler.counter_track_events(),
    }


def run_scale(
    scenario: str,
    seed: int = 0,
    writer_counts: tuple[int, ...] = (1, 2, 4, 8),
    warmup_ms: float = 2_000.0,
    measure_ms: float = 15_000.0,
    batch_max: int | None = 1,
    headline: dict | None = None,
) -> dict:
    """Throughput-vs-writers sweep + ceiling fit.

    Runs each writer count at ``batch_max`` (default 1: the unbatched
    Fig. 9 shape whose plateau the committed headline bench records),
    ranks resources at the peak-throughput point, and predicts the
    saturation ceiling from the top resource's utilization law:
    ``ceiling = X / rho`` — the throughput the curve converges to when
    the binding resource's rho reaches 1, equivalently ``1/S`` of the
    top resource scaled by its completions-per-op.
    """
    points = []
    for n in writer_counts:
        point = run_point(
            scenario, n, seed=seed, warmup_ms=warmup_ms,
            measure_ms=measure_ms, batch_max=batch_max)
        point.pop("sampler_events")  # sweeps keep the JSON report lean
        point.pop("sampler")
        points.append(point)

    plateau_point = max(points, key=lambda p: p["throughput_per_s"])
    # Extrapolate from the most-saturated point (highest top-resource
    # rho): X/rho is the utilization law, and its error shrinks as rho
    # approaches 1 — at light load it extrapolates noise.
    peak = max(
        points,
        key=lambda p: p["resources"][0]["utilization"] if p["resources"] else 0.0,
    )
    ranked = peak["resources"]
    top = ranked[0] if ranked else None
    predicted = peak["predicted_ceiling_per_s"]
    curve = {str(p["writers"]): p["throughput_per_s"] for p in points}
    # Per-point view of the fit: the top-ranked kind's utilization and
    # implied ceiling at every load level — a flat implied ceiling
    # across loads is what validates the utilization-law extrapolation.
    fit = []
    if top is not None:
        for p in points:
            match = next(
                (r for r in p["resources"] if r["resource"] == top["resource"]),
                None)
            fit.append({
                "writers": p["writers"],
                "throughput_per_s": p["throughput_per_s"],
                "utilization": None if match is None else match["utilization"],
                "implied_ceiling_per_s": (
                    None if match is None or match["utilization"] <= 0.0
                    else round(
                        p["throughput_per_s"] / match["utilization"], 6)
                ),
            })
    report = {
        "scenario": scenario,
        "implementation": peak["implementation"],
        "seed": seed,
        "batch_max": batch_max,
        "writer_counts": list(writer_counts),
        "curve": curve,
        "measured_plateau_per_s": plateau_point["throughput_per_s"],
        "peak_writers": peak["writers"],
        "resources_at_peak": ranked,
        "top_resource": peak["top_resource"],
        "predicted_ceiling_per_s": predicted,
        "fit": fit,
        "points": points,
    }
    if headline is not None and predicted is not None:
        plateau = _headline_plateau(headline, scenario, batch_max)
        if plateau is not None:
            report["headline_plateau_per_s"] = plateau
            report["prediction_error"] = round(
                abs(predicted - plateau) / plateau, 6)
    return report


def _headline_plateau(headline: dict, scenario: str, batch_max: int | None):
    """The committed writer-scaling plateau this sweep predicts against."""
    if scenario != "update":
        return None
    curves = headline.get("group_commit", {}).get("pairs_per_s", {})
    curve = curves.get("batch_max_1" if batch_max == 1 else "batched", {})
    if not curve:
        return None
    return max(curve.values())


def load_headline(path: str | Path = HEADLINE_PATH) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _resource_table(resources: list[dict]) -> list[str]:
    lines = [
        f"  {'resource':<22} {'rho':>7} {'X/s':>10} {'S ms':>9} "
        f"{'L':>8} {'W ms':>10} {'resid':>7}"
    ]
    for r in resources:
        fmt = lambda v, spec: "-" if v is None else format(v, spec)  # noqa: E731
        lines.append(
            f"  {r['resource']:<22} {r['utilization']:>7.4f} "
            f"{r['throughput_per_s']:>10.3f} {r['service_ms']:>9.3f} "
            f"{fmt(r['queue_depth'], '8.3f'):>8} "
            f"{fmt(r['residence_ms'], '10.3f'):>10} "
            f"{fmt(r['little_residual'], '7.4f'):>7}"
        )
    return lines


def format_point(report: dict) -> str:
    lines = [
        f"capacity {report['scenario']} (impl={report['implementation']}, "
        f"seed={report['seed']}, writers={report['writers']}, "
        f"batch_max={report['batch_max'] or 'default'})",
        f"  throughput: {report['throughput_per_s']:.3f} "
        f"{report['op']}s/s over {report['measure_ms']:.0f} ms",
        "",
        "resources by utilization:",
        *_resource_table(report["resources"]),
        "",
        f"top-ranked bottleneck: {report['top_resource']}",
    ]
    if report["predicted_ceiling_per_s"] is not None:
        lines.append(
            f"predicted ceiling (X/rho of top resource): "
            f"{report['predicted_ceiling_per_s']:.3f} {report['op']}s/s")
    return "\n".join(lines)


def format_scale(report: dict) -> str:
    lines = [
        f"capacity {report['scenario']} --scale "
        f"(impl={report['implementation']}, seed={report['seed']}, "
        f"batch_max={report['batch_max'] or 'default'})",
        "",
        "throughput vs writers:",
    ]
    for entry in report["fit"]:
        ceiling = entry["implied_ceiling_per_s"]
        lines.append(
            f"  {entry['writers']:>3} writers  "
            f"{entry['throughput_per_s']:>9.3f} /s   "
            f"rho(top)={entry['utilization'] if entry['utilization'] is not None else '-'}"
            f"   implied ceiling={'-' if ceiling is None else format(ceiling, '.3f')}"
        )
    lines += [
        "",
        f"resources at peak ({report['peak_writers']} writers):",
        *_resource_table(report["resources_at_peak"]),
        "",
        f"top-ranked bottleneck: {report['top_resource']}",
        f"measured plateau: {report['measured_plateau_per_s']:.3f} /s",
    ]
    if report["predicted_ceiling_per_s"] is not None:
        lines.append(
            f"predicted ceiling: {report['predicted_ceiling_per_s']:.3f} /s")
    if "headline_plateau_per_s" in report:
        lines.append(
            f"committed BENCH_headline plateau: "
            f"{report['headline_plateau_per_s']:.3f} /s "
            f"(prediction error {report['prediction_error'] * 100.0:.1f}%)")
    return "\n".join(lines)
