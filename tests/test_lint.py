"""Tree-wide lint guards the ruff config cannot express.

Deprecated names removed from the public API must not resurface — a
stray import of a long-dead alias compiles fine and only breaks users
downstream, so this sweep fails the build instead.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_DIRS = ("src", "tests", "benchmarks", "examples")

#: Names that used to exist and were deliberately removed. Add an entry
#: here whenever an alias is retired so it can never quietly return.
DEPRECATED_NAMES = (
    "DiskFailure_",  # pre-1.0 alias of the disk-failure fault, FaultPlan.disk_failure now
    # The NVRAM variant was a server subclass selected by two class
    # flags; it is a log in front of repro.directory.store now.
    "NvramDirectoryServer",
    "PERSIST_PHASE",
    "TOP_UP",
    # The second attribution engine and the hand-copied drivers; the
    # phase table comes from repro.obs.spans, the runs from
    # repro.bench.harness. (Substrings, so not bare "breakdown" — the
    # word — nor "update_latency", which a test name contains.)
    "obs.breakdown",
    "obs import breakdown",
    "update_latency(",
    "_make_clients",
    # The legacy string log; fault plans keep plan.log, a self-fencing
    # server emits dir.fence and bumps dir.fenced.
    "sim.trace",
    "sim.log(",
    # Options that took one value in the whole repository: constants in
    # directory/recovery.py, directory/coherence.py and chaos/runner.py.
    "RecoveryTimings",
    "cache_clean_exchange_ms",
    "cache_fence_slack_ms",
    "monitor_interval_ms",
    "flight_recorder_capacity",
    # The second replicated server: the section-5 file service is a
    # state class on GroupDirectoryServer now, its client comes from
    # add_client, its replicas compare with replicas_consistent.
    "ReplicatedBulletServer",
    "ReplicatedBulletConfig",
    "tables_consistent",
    "peer_port(",
    "add_file_client",
    # The watcher stack cut to its traffic: one sampler reading the
    # registry through one window (repro.obs.registry mark/window,
    # repro.obs.saturation.Sampler), a monitor and a controller that
    # carry only the signals and policies a chaos run uses, policy
    # tunables as constants of repro/recovery/controller.py.
    "RemediationPolicy",
    "retire_node",
    "RegistryMarks",
    "SaturationSampler",
    "counter_values",
    "gauge_areas",
    "find_gauges",
    "sample_interval_ms",
    "group.seq_utilization",
    # The scheduler's profiled twins, then its per-event hook: one run
    # loop (Simulator._loop) observed from outside by cProfile
    # (repro/obs/hostprof.py), no sampling stride, no host timeline.
    "_run_profiled",
    "_complete_profiled",
    "record_timed",
    "HostProfiler",
    "_new_sim_hooks",
    "keep_slices",
    "host_track_events",
    "SiteStats",
    "HANDLER_COMPONENT",
    "cancelled_pops",
    "generator_switches",
    '"--perfetto"',
    '"--sample"',
    # The second chaos registry: a Scenario names its builder function.
    "build_nemesis",
    "NEMESES",
    "_nemesis_builder",
    # The per-machine receive process: a frame reaches its handler in
    # the event that delivers it (Nic.sink -> Transport._dispatch). The
    # forwarding wrapper around the partition controller and the longer
    # enquiry period that kept the shared jitter stream still went with
    # it (each link has its own stream).
    "_pump",
    "PartitionControllerProxy",
    "ENQUIRY_SHARE",
    # Settling runs a future's callbacks inline (repro/sim/future.py).
    "_run_callbacks",
    # The group kernel's parallel paths: a grp.bc frame carries the
    # sequencer's BcRecord (GroupKernel._send_record), grp.echo goes to
    # _on_ack, a joiner starts at the view's announced commit horizon,
    # and the kernel books its own deliveries (GroupKernel.take).
    "_on_echo",
    "joiner_base",
    "_broadcast_record",
    "_note_delivery",
    # Every chaos run checks every invariant: durability always, the
    # declared shape whenever a majority serves (repro.verify.check_cluster).
    # Every fault builder lives in repro/chaos/nemesis.py, named after
    # its scenario, and adds its policies through one _policy_window.
    "expect_resilience_restored",
    "check_resilience=",
    "check_durability=",
    "_policy_plan",
    "build_asymmetric_loss",
    "build_multicast_loss",
    "build_duplication",
    "build_reordering",
    "build_delay_spikes",
    "build_retry_storm",
    "build_stale_read_hunt",
    "build_grand_tour",
    # One renderer and one JSON coercer in repro/obs: format_report
    # renders the dict tree, export._plain coerces.
    "render_tree",
    "_json_safe",
    # One chaos client, one history checker: every scenario runs
    # repro.chaos.runner.chaos_client and every history goes through
    # repro.verify.check_linearizability, closing reads included.
    "check_private_key_history",
    "check_no_lost_updates",
    "session_violations",
    "SHARED_KEYS_RECORDER_CAPACITY",
    "shared_client_loop",
    "private_keys=",
    "shared_keys=",
    "check_shared_key_linearizability",
    "_resync",
    # One fault vocabulary: a FaultPlan builder appends one FaultEvent
    # (kind = the builder's name), and a disk arms every write fault
    # through Disk.arm_fault. (Not "Partition(": RawPartition and
    # AdminPartition are live; not "DiskFailure(": repro.errors has it.)
    "Crash(",
    "Restart(",
    "Heal(",
    "BitRot(",
    "ExtentRot(",
    "TornWrite(",
    "LostWrites(",
    "MisdirectedWrites(",
    "NvramBlip(",
    "CrashPoint(",
    "InstallLinkPolicy(",
    "RemoveLinkPolicy(",
    "Intervention(",
    "arm_torn_write",
    "arm_lost_writes",
    "arm_misdirected_writes",
    "arm_crash_point",
    # One closed loop: repro.bench.harness.drive spawns the clients and
    # counts what completes, for Figs. 8/9, the lenses, the chaos runner
    # and E11. (Not a bare "ClosedLoopClient": the frozen ledger's
    # comments name it; not a bare "run_closed_loop": a test of drive's
    # window keeps that name.)
    "ClosedLoopClient(",
    "run_closed_loop(",
    "workloads.clients",
    "workloads.metrics",
    "Metrics(",
    # One run record behind every lens: trace, profile, capacity and
    # perf name their run in repro.bench.harness.SCENARIOS and read the
    # Run that run_solo or run_loop returns. What obs-on costs is the
    # ledger's trace.overhead_x and bench_sim.py's obs pair.
    "simbench",
    "run_perf_scenario",
    "record_update_trace",
    "profile_run",
    "TraceRun",
    "PerfRun",
    "format_account",
    "perf overhead",
    # Count once: every count lives in the metrics registry alone.
    # NetworkStats keeps only frames per kind and drops per policy; the
    # board's, the disk's, the CPU's and the servers' counts are
    # nvram.*, disk.<kind>, cpu.busy_ms and dir.reads/writes/refused.
    "NvramStats",
    "reads_served",
    "writes_served",
    "requests_refused",
    "stats.appends",
    # Measure once: the serial apply loop is metered by the directory
    # server (dir.apply_busy_ms, dir.persist_busy_ms) and the disk arm
    # by its SemaphoreMeter (disk.arm.*); the group kernel keeps no
    # queueing books and the capacity lens no per-station flags.
    "_seq_account",
    "_seq_pipe",
    "group.seq_busy_ms",
    "group.seq_sojourn_ms",
    "group.seq_oldest_ms",
    "group.backlog_age_ms",
    "group.seq.rho",
    "disk.busy_ms",
    "disk.queue_depth",
    "wait_is_sojourn",
    "requires_busy",
    # GroupTimings fields nobody set: constants of repro/group/timings.py.
    ".send_retries",
    ".reset_vote_window_ms",
    ".reset_backoff_",
    # Operator-driven elastic membership: the server set is what the
    # cluster builds, recovery ports are keyed by address.
    "add_server",
    "evict_server",
    "spare_sites",
    "has_spare",
    "evict_member",
    "grp.evict",
    "membership.evictions",
    "refresh_config_vector",
    "recovery_port_of",
    # Run-time resilience changes: r is fixed at CreateGroup (the ordered
    # marker, its API pair and the controller's scale policy are gone).
    # The declared-degree attribute is matched as an attribute, so the
    # rolling-fault test named after the contract it checks stays legal.
    "ResilienceChange",
    "set_resilience",
    "change_resilience",
    ".declared_resilience",
    "declared_n_servers",
    "thresholds_with",
    "monitor_thresholds",
    "grp.resilience",
    "dir.resilience",
    "membership.resilience_changes",
    "remediate.scale_",
    "NotGroupMember",
    # Options one value served: module constants beside the code that
    # reads them (repro/rpc/client.py, repro/group/timings.py,
    # repro/directory/{state,admin,store}.py, repro/storage/nvram.py,
    # repro/directory/client.py). Spelled so that what stays does not
    # match: _free_session_blocks, cached_write_ms, the client_id field.
    "locate_timeout_ms",
    "retry_backoff_ms",
    "retry_backoff_cap_ms",
    "retry_backoff_factor",
    "retry_jitter",
    "locate_ttl_ms",
    "nothere_refresh_ms",
    "echo_timeout_ms",
    "send_retry_ms",
    "join_timeout_ms",
    "join_attempts",
    "session_cache_size",
    "session_blocks=",
    "DEFAULT_SESSION_BLOCKS",
    "scrub_interval_ms",
    "retry_rounds",
    "client_id=",
    "cache_files",
    ".write_ms",
    "nvram_write_ms",
    "max_rounds",
    # A Drop policy is the one way to lose a frame, add_policy the one
    # way to install a policy.
    "loss_probability=",
    ".loss_probability",
    "link_policies=",
    # Dead code: LatencyModel.instant, BaseCluster.format_report, and
    # the second count of a dedup hit (session.cache_hits is the one).
    ".instant()",
    "format_report()",
    "dir.dedup_hits",
    "_note_dedup_hit",
    # What only tests called. A machine receives through its Transport
    # alone (a bare NIC listens for nothing and has no inbox to drain,
    # which was the per-machine pump's way back in); the future
    # combinators, the client's path helpers and a handful of one-line
    # conveniences went with it.
    "Channel(",
    ".inbox",
    "nic.recv(",
    "nic.send(",
    "nic.broadcast(",
    "peek_all",
    "try_recv",
    "all_of(",
    "any_of(",
    "resolve_path",
    "make_path",
    "PathError",
    "clear_policies",
    "add_link_policy",
    "forget_port",
    ".unregister(",
    "pending_events",
    "access_time",
    "expovariate",
    ".isolate(",
    ".rejoin(",
    ".locked()",
    "obs.overhead",
    # One solo lens: `trace` prints spans.budget's one report (phase
    # table first) and writes one Perfetto file with the span tracks.
    "cmd_profile",
    "aggregate(",
    "format_table(",
    '"--format"',
)


#: Config fields that name a deployment or are its credential: kept as
#: fields whatever value the drivers here give them.
DEPLOYMENT_FIELDS = {"name", "server_addresses", "root_check"}


def test_every_option_is_set_by_some_caller():
    """A config field that no caller under src/ or benchmarks/ sets —
    by a call keyword or a config-dict key — takes one value: it
    belongs beside the code that reads it as a module constant (which
    a test can still monkeypatch), not among the options every test
    and benchmark configuration must cover."""
    import dataclasses

    from repro.directory.config import ServiceConfig
    from repro.group.timings import GroupTimings
    from repro.rpc.client import RpcTimings

    set_somewhere = set(DEPLOYMENT_FIELDS)
    for top in ("src", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    set_somewhere.update(k.arg for k in node.keywords if k.arg)
                elif isinstance(node, ast.Dict):
                    set_somewhere.update(
                        k.value
                        for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    )
    unset = [
        f"{cls.__name__}.{f.name}"
        for cls in (ServiceConfig, RpcTimings, GroupTimings)
        for f in dataclasses.fields(cls)
        if f.name not in set_somewhere
    ]
    assert not unset, f"options no src or benchmark caller sets: {unset}"


PROBE = "test probe: reads state a check asserts on"
PAPER = "paper primitive the reproduction exposes"
UNARMED_FAULT = "fault kind no chaos scenario arms yet (ROADMAP item 4(e))"

#: Definitions under src/repro that nothing under src/, benchmarks/ or
#: examples/ names, each kept for its reason. The list can only shrink:
#: an entry that no longer exists, or that has gained a caller, fails
#: test_every_function_has_a_caller_outside_tests.
CALLERLESS = {
    "repro.sim.scheduler.Simulator.alive_processes": PROBE,  # no zombie process
    "repro.storage.bullet.BulletServer.file_count": PROBE,  # no orphan file
    "repro.storage.nvram.Nvram.used_bytes": PROBE,
    "repro.storage.nvram.Nvram.would_fit": PROBE,
    "repro.storage.disk.Disk.has_extent": PROBE,
    "repro.storage.disk.Disk.extent_corrupt": PROBE,
    "repro.storage.disk.Disk.tainted_blocks": PROBE,
    "repro.net.network.Network.reachable": PROBE,
    "repro.group.member.GroupInfo.buffered": PROBE,
    "repro.faults.plan.FaultPlan.fired": PROBE,
    # The section 3.1 escape from a lost majority.
    "repro.directory.group_server.GroupDirectoryServer.administrative_override": PAPER,
    # The group primitive LeaveGroup.
    "repro.group.member.GroupMember.leave": PAPER,
    "repro.faults.plan.FaultPlan.disk_failure": UNARMED_FAULT,
    "repro.faults.plan.FaultPlan.bit_rot": UNARMED_FAULT,
    "repro.faults.plan.FaultPlan.extent_rot": UNARMED_FAULT,
    "repro.faults.plan.FaultPlan.nvram_blip": UNARMED_FAULT,
}


def _callerless_definitions() -> tuple[set[str], set[str]]:
    """(every definition under src/repro, those whose name nothing under
    src/, benchmarks/ or examples/ references outside their own body),
    each as ``module.qualname``. A reference is a name, an attribute,
    or a from-import outside a package's ``__init__`` (a re-export
    there calls nothing; an import anywhere else is used, or ruff's
    F401 fails it)."""

    def references(node: ast.AST) -> Counter:
        names: Counter = Counter()
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                names[child.id] += 1
            elif isinstance(child, ast.Attribute):
                names[child.attr] += 1
        return names

    everywhere: Counter = Counter()
    definitions = []
    package = ROOT / "src" / "repro"
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            everywhere.update(references(tree))
            if path.name != "__init__.py":
                everywhere.update(
                    alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names
                )
            if package in path.parents:
                module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
                stack = [(tree, module)]
                while stack:
                    scope, prefix = stack.pop()
                    for node in ast.iter_child_nodes(scope):
                        if isinstance(
                            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                        ):
                            definitions.append((f"{prefix}.{node.name}", node))
                            stack.append((node, f"{prefix}.{node.name}"))
                        else:
                            stack.append((node, prefix))
    callerless = {
        qualified
        for qualified, node in definitions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[node.name] == references(node)[node.name]
    }
    return {qualified for qualified, _ in definitions}, callerless


def test_every_function_has_a_caller_outside_tests():
    """A function or class under src/repro that only tests reach is a
    second surface to keep working for nobody: the raw NIC's inbox, the
    future combinators and the client's path helpers each sat here for
    dozens of PRs with their own tests and no caller. Every definition
    must be named somewhere under src/, benchmarks/ or examples/
    outside its own body, or be in CALLERLESS with its reason.

    Known blind spot: the census is by name, so a dead method that
    shares its name with a live one (a second ``send``, a second
    ``restart``) passes."""
    defined, callerless = _callerless_definitions()
    assert len(defined) > 1000  # the walk still finds the definitions
    unlisted = sorted(callerless - set(CALLERLESS))
    assert not unlisted, (
        "defined under src/repro, called by nothing but tests (delete "
        "them, or list them in CALLERLESS with a reason): " + ", ".join(unlisted)
    )
    stale = sorted(
        f"{name} ({'gone' if name not in defined else 'has a caller now'})"
        for name in set(CALLERLESS) - callerless
    )
    assert not stale, "CALLERLESS entries to drop: " + ", ".join(stale)


def test_deprecated_names_do_not_resurface():
    this_file = Path(__file__).resolve()
    offenders = []
    for top in SWEEP_DIRS:
        base = ROOT / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if path.resolve() == this_file:
                continue
            text = path.read_text(encoding="utf-8")
            for name in DEPRECATED_NAMES:
                if name in text:
                    offenders.append(f"{path.relative_to(ROOT)}: {name}")
    assert not offenders, (
        "deprecated names resurfaced (see tests/test_lint.py): "
        + ", ".join(offenders)
    )


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of every module *path* imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_the_simulator_has_one_run_loop():
    """run and run_until_complete differ only in when they stop, so they
    share Simulator._loop: a second loop is where a per-event hook or a
    stop rule drifts. Host time is read from outside (cProfile in
    repro/obs/hostprof.py), never by the simulator itself."""
    package = ROOT / "src" / "repro"
    scheduler = package / "sim" / "scheduler.py"
    pops = [
        node.lineno
        for node in ast.walk(ast.parse(scheduler.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "heappop" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert len(pops) == 1, f"repro/sim/scheduler.py pops its heap at lines {pops}"
    offenders = [
        f"{path.relative_to(ROOT)} imports {sorted(clocks)}"
        for path in sorted((package / "sim").rglob("*.py"))
        if (clocks := _imported_modules(path) & {"time", "cProfile"})
    ]
    assert not offenders, "the host clock in the simulator: " + ", ".join(offenders)
    profilers = [
        path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        if "cProfile" in _imported_modules(path)
    ]
    assert profilers == ["obs/hostprof.py"], profilers


#: AdminPartition's mutators: how an object-table change is committed.
TABLE_WRITES = {"store_entry", "remove_entry", "commit_batch", "store_session"}


def test_directories_become_durable_in_one_module():
    """"Bullet file, then object-table commit, then delete the file it
    replaced" is written once, in repro/directory/store.py, where its
    ordering contract is stated. A second copy anywhere under
    src/repro — a server committing table entries itself, or creating
    and deleting directory files on its own — drifts, and the drift
    has lost acknowledged updates before."""
    package = ROOT / "src" / "repro"
    store = package / "directory" / "store.py"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path == store:
            continue
        in_directory = path.parent == store.parent
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            called = node.func.attr
            receiver = node.func.value  # x.bullet.create(...) or bullet.create(...)
            on_bullet = "bullet" in (
                getattr(receiver, "attr", None), getattr(receiver, "id", None)
            )
            if called in TABLE_WRITES or (
                in_directory and on_bullet and called in ("create", "delete")
            ):
                offenders.append(
                    f"{path.relative_to(ROOT)}:{node.lineno} calls {called}()"
                )
    assert not offenders, (
        "durable directory writes outside repro/directory/store.py: "
        + ", ".join(offenders)
    )
    # Inside the store, the single-block table writes belong to the
    # paper's commit (and the scrubber's in-place repair): everything
    # else is one commit_batch arm pass, and which of the two a server
    # takes is never decided by how many records a cut happens to hold.
    tree = ast.parse(store.read_text(encoding="utf-8"))
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        if function.name in ("commit_classic", "scrub"):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in TABLE_WRITES - {"commit_batch"}):
                offenders.append(
                    f"{function.name}() calls {node.func.attr}() "
                    f"(line {node.lineno})"
                )
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.IfExp, ast.While)) and any(
            isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "len"
            and [getattr(arg, "id", None) for arg in call.args] == ["cut"]
            for call in ast.walk(node.test)
        ):
            offenders.append(f"line {node.lineno} branches on len(cut)")
    assert not offenders, (
        "repro/directory/store.py: " + ", ".join(offenders)
    )


def _directory_operations() -> set[str]:
    """The public methods of repro.directory.client.DirectoryClient."""
    tree = ast.parse(
        (ROOT / "src" / "repro" / "directory" / "client.py").read_text(
            encoding="utf-8"))
    client = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "DirectoryClient"
    )
    return {
        item.name for item in client.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def test_the_closed_loop_is_driven_from_one_module():
    """The paper has one closed-loop experiment shape (Figs. 8/9), and
    repro/bench/harness.py's drive is it: clients, warm-up, window,
    drain. A generator elsewhere that loops on the simulated clock
    (``while sim.now < deadline``) issuing DirectoryClient operations
    is a second copy, and the copies have drifted before (a set-up row
    nothing read; a window re-inlined to reach its edges; a chaos
    client and E11 each with a stop rule of its own).
    benchmarks/ledger/ is exempt: it is frozen, and its recorder keeps
    a loop of its own until a change to the benchmark moves it."""
    operations = _directory_operations()
    harness = ROOT / "src" / "repro" / "bench" / "harness.py"
    ledger = ROOT / "benchmarks" / "ledger"
    paths = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(
        (ROOT / "benchmarks").rglob("*.py"))
    offenders = []
    for path in paths:
        if path == harness or ledger in path.parents:
            continue
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(function, ast.FunctionDef):
                continue
            body = list(ast.walk(function))
            if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in body):
                continue
            for loop in body:
                on_clock = isinstance(loop, ast.While) and any(
                    isinstance(n, ast.Attribute) and n.attr == "now"
                    for n in ast.walk(loop.test)
                )
                if on_clock and any(
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in operations
                    for statement in loop.body for n in ast.walk(statement)
                ):
                    offenders.append(
                        f"{path.relative_to(ROOT)}:{loop.lineno} "
                        f"({function.name})"
                    )
    assert not offenders, (
        "closed loops on the simulated clock outside "
        "repro/bench/harness.py's drive: " + ", ".join(offenders)
    )


def test_lens_scenarios_are_named_in_one_table():
    """A lens run is named in repro/bench/harness.py's SCENARIOS. The
    three tables trace, capacity and perf each used to keep disagreed
    (`capacity mixed` and `perf nvram-update` had no run); the chaos
    suite's registry is the one other table of that name."""
    package = ROOT / "src" / "repro"
    allowed = {package / "bench" / "harness.py", package / "chaos" / "runner.py"}
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path in allowed:
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            if any(getattr(t, "id", None) == "SCENARIOS" for t in targets):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not offenders, (
        "module-level SCENARIOS outside repro/bench/harness.py and "
        "repro/chaos/runner.py: " + ", ".join(offenders)
    )


def test_the_registry_is_differenced_in_one_module():
    """"How much since then" is asked of a repro.obs.registry Window.
    The health monitor, the saturation sampler, the capacity attributor
    and the chaos verdict each used to capture counter values and gauge
    integrals and subtract them their own way — sequencer utilization
    was computed four times, and a counter born inside a window read as
    0 in one lens and as its whole value in another. Whoever captures
    the raw numbers is about to subtract them: only registry.py may."""
    package = ROOT / "src" / "repro"
    registry = package / "obs" / "registry.py"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path == registry:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter_values", "gauge_areas", "area")):
                offenders.append(
                    f"{path.relative_to(ROOT)}:{node.lineno} calls "
                    f"{node.func.attr}()"
                )
    assert not offenders, (
        "registry captures taken outside repro/obs/registry.py: "
        + ", ".join(offenders)
    )


def test_what_is_built_per_frame_or_per_settle_is_slotted():
    """A frame builds a Packet, a timeout a Timer and a Deadline, every
    wait a Future: at tens of thousands per simulated second, a
    per-instance ``__dict__`` (or a frozen dataclass's guarded
    ``__setattr__``) was a measurable share of host time per op. A
    sequenced message is one BcRecord, built once by the sequencer and
    shared by every member's history, so it is frozen as well. A Port
    keys the RPC kernel's tables on every transaction: it is its bytes,
    with no ``__dict__`` beside them."""
    import importlib
    import inspect
    import pkgutil

    import repro.sim
    from repro.amoeba.capability import Port
    from repro.group.kernel import BcRecord
    from repro.net.network import Packet
    from repro.sim.future import Future
    from repro.sim.scheduler import Timer

    futures = set()
    for info in pkgutil.iter_modules(repro.sim.__path__):
        module = importlib.import_module(f"repro.sim.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, Future):
                futures.add(cls)
    unslotted = sorted(
        cls.__qualname__
        for cls in futures | {Packet, Timer, BcRecord, Port}
        if "__slots__" not in vars(cls)
    )
    assert not unslotted, "per-frame/per-settle classes without __slots__: " + (
        ", ".join(unslotted)
    )
    # The walk still finds the futures the scheduler builds.
    assert {"Future", "Process", "Sleep", "Deadline"} <= {
        cls.__name__ for cls in futures
    }


#: GroupMember's blocking primitives: what a replicated server is built on.
GROUP_API = {"receive", "send_to_group", "reset"}


def test_the_group_api_is_driven_from_one_server():
    """One class runs a group thread (GroupDirectoryServer) and one
    module runs the recovery that rejoins it. A second service that
    wants total order hands that server a state class
    (repro/storage/replicated_bullet.py); a second server calling
    ReceiveFromGroup/SendToGroup/ResetGroup itself re-writes boot,
    catch-up, the majority rule and the failure branch, and the copy
    of those that existed lost acknowledged files two ways."""
    package = ROOT / "src" / "repro"
    allowed = {
        package / "directory" / "group_server.py",
        package / "directory" / "recovery.py",
    }
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", None) == "GroupMember" or (
                isinstance(func, ast.Attribute) and func.attr in GROUP_API
            ):
                called = getattr(func, "attr", None) or func.id
                offenders.append(
                    f"{path.relative_to(ROOT)}:{node.lineno} calls {called}()"
                )
    assert not offenders, (
        "the group API driven outside directory/group_server.py and "
        "directory/recovery.py: " + ", ".join(offenders)
    )


def test_only_the_group_kernel_writes_its_state():
    """A group kernel's fields are written by repro/group/ alone.
    Recovery used to set ``state`` and fast-forward ``taken`` itself,
    beside the kernel's own bookkeeping for both (the backlog gauge, the
    sequencer-pipeline accounting), so each such write is one more place
    that bookkeeping can be forgotten. Elsewhere a kernel is driven
    through its methods, whether it is reached as ``….kernel`` or
    through a local bound to one."""
    package = ROOT / "src" / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.parent == package / "group":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kernels = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "kernel"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                owner = getattr(target, "value", None)
                if isinstance(target, ast.Attribute) and (
                    getattr(owner, "attr", None) == "kernel"
                    or getattr(owner, "id", None) in kernels
                ):
                    offenders.append(
                        f"{path.relative_to(ROOT)}:{node.lineno} sets {target.attr}"
                    )
    assert not offenders, (
        "group-kernel state written outside repro/group/: " + ", ".join(sorted(offenders))
    )


#: List methods that change a list in place.
LIST_EDITS = {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}

#: State a value is cached against by object identity, and who caches
#: it. Each is replaced on every change and never edited in place, or
#: the cache would keep answering for the old contents.
REPLACED_NEVER_EDITED = {
    "view": "GroupDirectoryServer.members_present counts a view once per list",
}


def _names_guarded(node, name: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == name) or (
        isinstance(node, ast.Name) and node.id.endswith(name)
    )


def test_a_group_view_is_replaced_never_edited():
    """``GroupDirectoryServer.members_present`` counts a view once per
    list object, so a kernel must install a new list on every view
    change. Nothing edits a view — or any other state
    ``REPLACED_NEVER_EDITED`` names — in place: no list method that
    mutates, no item or slice assignment or deletion, no augmented
    assignment."""
    offenders = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                edited = [node.func.value] if node.func.attr in LIST_EDITS else []
            elif isinstance(node, ast.AugAssign):
                edited = [node.target]
            elif isinstance(node, (ast.Assign, ast.Delete)):
                edited = [t.value for t in node.targets if isinstance(t, ast.Subscript)]
            else:
                continue
            offenders += [
                f"{path.relative_to(ROOT)}:{node.lineno} edits a {name}"
                for target in edited
                for name in REPLACED_NEVER_EDITED
                if _names_guarded(target, name)
            ]
    assert not offenders, "guarded state edited in place: " + ", ".join(offenders)


def _identity_caches(function: ast.FunctionDef):
    """``(line, key attribute)`` for each identity cache in *function*:
    ``if key is not self._seen:`` whose body sets ``self._seen = key``.
    The key attribute is the one the key was read from (``key`` may be
    a local assigned from an attribute); None when it is not one."""
    read_from = {}
    for node in ast.walk(function):
        if (
            isinstance(node, (ast.Assign, ast.NamedExpr))
            and isinstance(node.value, ast.Attribute)
        ):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    read_from[target.id] = node.value.attr
    for node in ast.walk(function):
        test = getattr(node, "test", None)
        if not (
            isinstance(node, ast.If)
            and isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
        ):
            continue
        key, seen = test.left, test.comparators[0]
        remembered = any(
            isinstance(stmt, ast.Assign)
            and any(ast.unparse(t) == ast.unparse(seen) for t in stmt.targets)
            and ast.unparse(stmt.value) == ast.unparse(key)
            for stmt in ast.walk(node)
        )
        if not remembered:
            continue
        if isinstance(key, ast.Attribute):
            yield node.lineno, key.attr
        else:
            yield node.lineno, read_from.get(getattr(key, "id", None))


def test_every_identity_cache_is_keyed_on_replaced_state():
    """A value cached by object identity — recomputed only when the
    object it was computed from is another one — is right only while
    that object is replaced on every change. So every such cache under
    src/repro must be keyed on state ``REPLACED_NEVER_EDITED`` names,
    which the guard above keeps from being edited in place. The group
    write path's ``_safe_point`` and ``notify_progress`` cache nothing:
    they read ``ack_progress`` and ``apply_waiters`` afresh each call."""
    caches, offenders = [], []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for line, key in _identity_caches(node):
                    where = f"{path.relative_to(ROOT)}:{line}"
                    caches.append(where)
                    if key not in REPLACED_NEVER_EDITED:
                        offenders.append(f"{where} (keyed on {key!r})")
    assert caches, "the identity-cache scan found nothing: members_present is one"
    assert not offenders, (
        "identity cache keyed on state that may be edited in place: "
        + ", ".join(offenders)
    )


#: The deployment surface: BaseCluster owns each of these outright.
LIFECYCLE = (
    "start", "wait_operational", "crash_server", "restart_server",
    "operational_servers", "service_port", "root_capability",
)


def _calls_super(function: ast.FunctionDef) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == function.name
        and isinstance(node.func.value, ast.Call)
        and getattr(node.func.value.func, "id", None) == "super"
        for node in ast.walk(function)
    )


def test_a_deployment_is_built_and_driven_from_one_place():
    """Boot, wait, crash, reboot and the service's identity are written
    once, on BaseCluster: the five hand-copied lifecycles drifted into
    behaviour (an RPC pair that "did not come up" while its survivor
    served; a restart that left the replaced server running). And a
    deployment is picked by name in one registry,
    repro/bench/harness.py's IMPLEMENTATIONS, so "construct, start,
    wait" is not re-written by whoever needs a cluster next."""
    package = ROOT / "src" / "repro"
    cluster_py = package / "cluster.py"
    offenders = []
    defined: dict[str, list[str]] = {name: [] for name in LIFECYCLE}
    for node in ast.parse(cluster_py.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef) and item.name in LIFECYCLE):
                continue
            if item.name == "restart_server" and _calls_super(item):
                continue  # extends the one reboot, does not copy it
            if (node.name, item.name) == ("NfsServiceCluster", "start") and all(
                isinstance(statement, ast.Pass) for statement in item.body
            ):
                continue  # a no-op: its servers are constructed running
            defined[item.name].append(node.name)
    for name, classes in defined.items():
        if classes != ["BaseCluster"]:
            offenders.append(f"cluster.py: {name} defined by {classes}")
    for path in sorted(package.rglob("*.py")):
        if path in (cluster_py, package / "bench" / "harness.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "attr", None) or getattr(
                node.func, "id", None
            )
            if called and called.endswith("Cluster"):
                offenders.append(
                    f"{path.relative_to(ROOT)}:{node.lineno} calls {called}()"
                )
    assert not offenders, (
        "deployment lifecycle or construction outside its one place: "
        + ", ".join(offenders)
    )


def _registered_metric_names() -> dict[str, str]:
    """Every literal name handed to ``registry.counter/gauge/histogram``
    under src/repro, with one place it is registered."""
    package = ROOT / "src" / "repro"
    names: dict[str, str] = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                continue
            names.setdefault(
                node.args[1].value, f"{path.relative_to(ROOT)}:{node.lineno}"
            )
    return names


def test_every_registered_metric_is_documented():
    """docs/OBSERVABILITY.md lists the metric names the registry
    carries; a counter added without a line there is a number nobody
    can interpret (``dir.sessions`` and ``micro.ops`` sat undocumented
    for a dozen PRs). Names built at run time (the resource meters'
    ``<prefix>.busy_ms`` family) are listed there by hand."""
    documented = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    names = _registered_metric_names()
    assert len(names) > 60  # the walk still finds the registrations
    missing = [
        f"{name} ({where})"
        for name, where in sorted(names.items())
        if f"`{name}`" not in documented
    ]
    assert not missing, (
        "metrics registered but not in docs/OBSERVABILITY.md: "
        + ", ".join(missing)
    )


#: Metric names built at run time: a SemaphoreMeter registers
#: ``<prefix>.busy_ms`` and friends for the CPU and the disk arm
#: (docs/OBSERVABILITY.md §1 lists the families).
RUNTIME_METRIC_NAMES = {
    f"{prefix}.{name}"
    for prefix in ("cpu", "disk.arm")
    for name in ("busy_ms", "wait_ms", "grants", "queue_depth")
}

#: Test helpers that read a registry counter by name (tests/helpers.py).
_HELPER_READERS = ("counter_total", "wire_count", "count")


def _metric_names_read_by_tests() -> dict[str, str]:
    """Every literal metric name a test reads through
    ``registry.counter/gauge/histogram`` or a tests/helpers.py reader,
    with one place it is read. The registry's own tests, the obs
    bundle's plumbing test and the disabled-path micro-benchmark are
    exempt: they run on synthetic names."""
    exempt = {
        ROOT / "tests" / "obs" / name
        for name in ("test_registry.py", "test_trace.py", "test_overhead.py")
    }
    names: dict[str, str] = {}
    for path in sorted((ROOT / "tests").rglob("*.py")):
        if path in exempt:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "tests.helpers"
            for alias in node.names
            if alias.name in _HELPER_READERS
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("counter", "gauge", "histogram")
            ) or (isinstance(func, ast.Name) and func.id in readers):
                names.setdefault(
                    node.args[1].value, f"{path.relative_to(ROOT)}:{node.lineno}"
                )
    return names


def test_no_metric_is_read_that_nothing_registers():
    """``registry.counter/gauge/histogram`` create on read, so a test,
    a sampler series or a capacity station that names a deleted
    instrument reads a fresh zero and passes (four tests asserted on
    the sequencer station and the disk's second arm meter after both
    were gone). Every name they read must be registered under
    src/repro, or be a SemaphoreMeter family name."""
    from repro.obs.capacity import RESOURCE_SPECS
    from repro.obs.saturation import SERIES

    registered = set(_registered_metric_names()) | RUNTIME_METRIC_NAMES
    read = _metric_names_read_by_tests()
    assert len(read) > 30  # the walk still finds the reads
    for row in SERIES:
        read.setdefault(row.metric, f"saturation.SERIES {row.name}")
    for spec in RESOURCE_SPECS:
        for column in ("busy", "done", "wait", "queue"):
            if spec[column] is not None:
                read.setdefault(
                    spec[column], f"capacity.RESOURCE_SPECS {spec['kind']}")
    stale = [
        f"{name} ({where})"
        for name, where in sorted(read.items())
        if name not in registered
    ]
    assert not stale, "metrics read but registered nowhere: " + ", ".join(stale)


#: Trace kinds named at run time, by the module whose emit builds them
#: (docs/OBSERVABILITY.md §2 lists each). The trace module's own
#: passthrough names nothing.
RUNTIME_TRACE_KINDS = {
    "storage/disk.py": ("disk.random", "disk.sequential", "disk.cached", "disk.batch"),
    "obs/monitor.py": ("mon.alert", "mon.clear"),
    "recovery/controller.py": (
        "remediate.restart", "remediate.scrub",
    ),
    "obs/trace.py": (),
}


def test_every_emitted_trace_kind_is_documented():
    """docs/OBSERVABILITY.md §2's table is where a reader of a trace
    looks an event up; twenty kinds sat there only in slash shorthand
    or not at all. Every literal kind handed to ``emit`` must have its
    row, and an emit that builds its kind at run time must be in a
    module RUNTIME_TRACE_KINDS lists by hand."""
    package = ROOT / "src" / "repro"
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = text[text.index("\n## 2."):text.index("\n## 3.")]
    kinds: dict[str, str] = {}
    unlisted = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and len(node.args) >= 3
            ):
                continue
            name = node.args[2]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                kinds.setdefault(name.value, f"{module}:{node.lineno}")
            elif module not in RUNTIME_TRACE_KINDS:
                unlisted.append(f"{module}:{node.lineno}")
    assert len(kinds) > 35  # the walk still finds the emits
    assert not unlisted, (
        "emits whose kind is built at run time, in no module of "
        "RUNTIME_TRACE_KINDS: " + ", ".join(unlisted)
    )
    for module, names in RUNTIME_TRACE_KINDS.items():
        for name in names:
            kinds.setdefault(name, module)
    missing = [
        f"{name} ({where})"
        for name, where in sorted(kinds.items())
        if f"`{name}`" not in section
    ]
    assert not missing, (
        "trace kinds emitted but not in docs/OBSERVABILITY.md §2: "
        + ", ".join(missing)
    )


def test_every_monitor_signal_is_documented_and_every_documented_one_is_live():
    """docs/OBSERVABILITY.md §8 is the table an operator reads an alert
    against. A threshold added without its row is an alert nobody can
    interpret; a row whose threshold is gone — two sat there for
    seventeen PRs without ever firing — documents a watcher that does
    not exist. And every signal must be a series the sampler derives."""
    from repro.obs.monitor import DEFAULT_THRESHOLDS
    from repro.obs.saturation import SERIES

    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = text[text.index("\n## 8."):text.index("\n## 9.")]
    documented = {
        line.split("`")[1]
        for line in section.splitlines()
        if line.startswith("| `")
    }
    live = {t.signal for t in DEFAULT_THRESHOLDS}
    assert documented == live, (
        f"undocumented: {sorted(live - documented)}; "
        f"documented but gone: {sorted(documented - live)}"
    )
    assert live <= {row.name for row in SERIES}


def test_every_scenario_field_is_documented_and_every_documented_one_exists():
    """docs/CHAOS.md §4 is where a scenario author reads what a
    Scenario field does. A field added without its row is a switch
    nobody can look up; a row whose field is gone documents a switch
    that does not exist (two of them used to make invariants opt-in)."""
    import dataclasses

    from repro.chaos import Scenario

    text = (ROOT / "docs" / "CHAOS.md").read_text(encoding="utf-8")
    section = text[text.index("\n## 4."):]
    documented = {
        name
        for line in section.splitlines()
        if line.startswith("| `")
        for name in line.split("|")[1].split("`")[1::2]
    }
    fields = {f.name for f in dataclasses.fields(Scenario)}
    assert documented == fields, (
        f"undocumented: {sorted(fields - documented)}; "
        f"documented but gone: {sorted(documented - fields)}"
    )


def test_the_design_inventory_names_every_module():
    """DESIGN.md §3 is the map a reader opens first. It named two
    modules that never existed (``object_table``, ``commit_block``)
    and left out seven that did. Every module under src/repro must be
    named there, itself or through its package's row, and every
    ``repro.…`` name there must be a module or a package."""
    import re

    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text[text.index("\n## 3."):text.index("\n## 4.")]
    named = set(re.findall(r"\brepro(?:\.\w+)+", section))
    src = ROOT / "src"
    missing = [
        module
        for path in sorted((src / "repro").rglob("*.py"))
        if path.stem not in ("__init__", "__main__")
        for module in [".".join(path.relative_to(src).with_suffix("").parts)]
        if module not in named and module.rpartition(".")[0] not in named
    ]
    assert not missing, "modules DESIGN.md §3 does not name: " + ", ".join(missing)
    phantom = sorted(
        name
        for name in named
        if not (src / (name.replace(".", "/") + ".py")).is_file()
        and not (src / name.replace(".", "/") / "__init__.py").is_file()
    )
    assert not phantom, "DESIGN.md §3 names what does not exist: " + ", ".join(phantom)
