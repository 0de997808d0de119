"""Host profiler: attribution math, report schema, determinism.

The two contracts that matter:

1. attribution is exact — per-component (and per-kind) host-ns sum to
   the measured execution total, integer-for-integer;
2. profiling is invisible to the simulation — a profiled run is
   event-for-event identical to an unprofiled same-seed run.
"""

from repro.bench.simbench import SCALES, SCENARIOS, run_perf_scenario
from repro.errors import TimeoutError as SimTimeout
from repro.obs import hostprof
from repro.sim.future import Future
from repro.sim.scheduler import Simulator


def _profiled_toy_sim(sample=1, keep_slices=False):
    prof = hostprof.HostProfiler(sample=sample, keep_slices=keep_slices)
    sim = Simulator(seed=7)
    prof.attach(sim)

    def worker(n):
        for _ in range(n):
            yield sim.sleep(2.0)

    for i in range(4):
        sim.spawn(worker(25), name=f"w{i}")
    # Some cancelled timers so the cancelled-pop path is covered.
    timers = [sim.schedule(5.0 + i, lambda: None) for i in range(10)]
    for t in timers[:6]:
        t.cancel()
    sim.run()
    prof.stop()
    return prof


class TestAttribution:
    def test_component_ns_sum_exactly_to_total(self):
        prof = _profiled_toy_sim()
        report = prof.report()
        total = report["host"]["exec_ns"]
        by_component = sum(
            row["host_ns"]
            for row in report["events"]["by_component"].values()
        )
        by_kind = sum(
            row["host_ns"] for row in report["events"]["by_kind"].values()
        )
        by_site = sum(s["host_ns"] for s in report["sites"])
        assert by_component == total
        assert by_kind == total
        assert by_site == total
        assert total > 0

    def test_component_shares_sum_to_one(self):
        prof = _profiled_toy_sim()
        report = prof.report()
        shares = sum(
            row["share"] for row in report["events"]["by_component"].values()
        )
        assert abs(shares - 1.0) < 1e-4

    def test_event_kind_classification(self):
        prof = _profiled_toy_sim()
        report = prof.report()
        kinds = report["events"]["by_kind"]
        # 4 workers x 25 sleeps + 4 initial steps = 104 generator steps.
        assert kinds["process.step"]["count"] == 104
        assert report["events"]["generator_switches"] == 104
        # Each sleep's timer resumes its one sleeper itself: the step
        # above IS the timer event, there is no separate settle.
        assert "future.settle" not in kinds
        # 4 uncancelled plain timers ran as callbacks.
        assert kinds["callback"]["count"] == 4
        assert report["events"]["cancelled_pops"] == 6

    def test_a_sleep_others_wait_on_too_is_a_settle(self):
        prof = hostprof.HostProfiler()
        sim = Simulator(seed=7)
        prof.attach(sim)

        def waiter(fut):
            yield fut

        shared = sim.sleep(2.0)
        sim.spawn(waiter(shared))
        sim.spawn(waiter(shared))
        sim.run()
        kinds = prof.stop().report()["events"]["by_kind"]
        # 2 initial steps + 2 posted wakeups; the timer itself settled.
        assert kinds["process.step"]["count"] == 4
        assert kinds["future.settle"]["count"] == 1

    def test_an_expired_deadline_is_booked_to_sim_by_its_method(self):
        prof = hostprof.HostProfiler()
        sim = Simulator(seed=7)
        prof.attach(sim)
        outcome = []

        def waiter():
            try:
                yield sim.timeout(Future("never"), 5.0)
            except SimTimeout as error:
                outcome.append((sim.now, error))

        sim.spawn(waiter())
        sim.run()
        assert [when for when, _ in outcome] == [5.0]
        report = prof.stop().report()
        sites = {s["site"]: s for s in report["sites"]}
        expired = sites["Deadline._settle"]
        assert (expired["component"], expired["kind"], expired["count"]) == (
            "sim", "future.settle", 1
        )
        assert not any("<lambda>" in name for name in sites)
        # The initial step and the wakeup the expiry posted.
        assert report["events"]["by_kind"]["process.step"]["count"] == 2

    def test_a_delivery_is_booked_to_the_package_of_its_handler(self):
        run = run_perf_scenario("mixed", "small", seed=1)
        sites = {
            s["site"]: s for s in run.capture.report()["sites"]
            if s["kind"] == "deliver"
        }
        assert sites["deliver:rpc.request"]["component"] == "rpc"
        booked = hostprof.HostProfiler()._delivery_site
        assert booked("cache.inval").component == "directory"
        assert booked("t.ping").component == "net"  # nobody's: the wire's
        groups = [s for name, s in sites.items() if name.startswith("deliver:grp.")]
        assert groups and all(s["component"] == "group" for s in groups)
        # Every frame that arrived is one such event: nothing is left
        # on a pump or in the network's own name.
        assert not any(
            s["site"] in ("Network._deliver", "Transport._run")
            for s in run.capture.report()["sites"]
        )

    def test_counts_and_executed_match(self):
        prof = _profiled_toy_sim()
        report = prof.report()
        assert report["events"]["executed"] == sum(
            row["count"] for row in report["events"]["by_kind"].values()
        )
        # Every event scheduled was either executed or a cancelled pop.
        assert report["events"]["scheduled"] == (
            report["events"]["executed"] + report["events"]["cancelled_pops"]
        )


class TestSampling:
    def test_sampling_counts_all_times_some(self):
        prof = _profiled_toy_sim(sample=10)
        report = prof.report()
        executed = report["events"]["executed"]
        timed = report["events"]["timed"]
        assert executed == 108  # same event count as sample=1 runs
        assert 0 < timed <= executed // 10 + 1
        # Attribution still sums exactly over the timed subset.
        total = report["host"]["exec_ns"]
        assert (
            sum(r["host_ns"] for r in report["events"]["by_component"].values())
            == total
        )

    def test_bad_stride_rejected(self):
        try:
            hostprof.HostProfiler(sample=0)
        except ValueError:
            pass
        else:
            raise AssertionError("sample=0 must be rejected")


class TestDeterminism:
    def test_profiler_does_not_perturb_simulation(self):
        # Full scenario: profiled and unprofiled same-seed runs must
        # agree on every deterministic output (ops, event counts, the
        # metrics snapshot digest).
        profiled = run_perf_scenario("mixed", "small", seed=11, profile=True)
        plain = run_perf_scenario("mixed", "small", seed=11, profile=False)
        assert profiled.fingerprint() == plain.fingerprint()

    def test_sampling_does_not_perturb_simulation(self):
        a = run_perf_scenario("lookup", "small", seed=5, sample=1)
        b = run_perf_scenario("lookup", "small", seed=5, sample=7)
        assert a.fingerprint() == b.fingerprint()

    def test_deterministic_digest_stable_across_runs(self):
        a = run_perf_scenario("update", "small", seed=3)
        b = run_perf_scenario("update", "small", seed=3)
        assert hostprof.deterministic_digest(
            a.capture.report()
        ) == hostprof.deterministic_digest(b.capture.report())

    def test_toy_sim_digest_identical_profiled_twice(self):
        d1 = hostprof.deterministic_digest(_profiled_toy_sim().report())
        d2 = hostprof.deterministic_digest(_profiled_toy_sim().report())
        assert d1 == d2


class TestReportSchema:
    def test_report_schema(self):
        run = run_perf_scenario("mixed", "small", seed=1, keep_slices=True)
        report = run.capture.report(top=5)
        assert report["schema"] == 1
        assert report["simulators"] == 1
        for key in (
            "executed", "timed", "scheduled", "cancelled_pops",
            "generator_switches", "max_heap", "by_kind", "by_component",
        ):
            assert key in report["events"], key
        for key in (
            "wall_ns", "exec_ns", "scheduler_ns",
            "sim_ms", "sim_events_per_s", "us_per_event",
        ):
            assert key in report["host"], key
        assert "gc" in report and "alloc" in report
        assert len(report["sites"]) == 5
        hottest = report["sites"][0]
        for key in ("site", "component", "kind", "count", "host_ns"):
            assert key in hottest, key
        # Top-K sorted by measured cost.
        costs = [s["host_ns"] for s in report["sites"]]
        assert costs == sorted(costs, reverse=True)
        # Components are real subsystem names.
        assert {"rpc", "group", "directory"} <= set(
            report["events"]["by_component"]
        )

    def test_format_report_renders(self):
        prof = _profiled_toy_sim()
        text = hostprof.format_report(prof.report(top=3))
        assert "sim-events/s" in text
        assert "component" in text
        assert "hottest sites" in text

    def test_host_track_events(self):
        prof = _profiled_toy_sim(keep_slices=True)
        events = prof.host_track_events()
        assert len(events) == 108
        assert all(e.ph == "X" for e in events)
        assert all(e.node.startswith("host.") for e in events)
        assert prof.slices_dropped == 0

    def test_slice_cap_drops_not_grows(self):
        prof = _profiled_toy_sim(keep_slices=True)
        # Re-run with a tiny cap.
        small = hostprof.HostProfiler(keep_slices=True, max_slices=10)
        sim = Simulator(seed=7)
        small.attach(sim)
        sim.spawn((sim.sleep(1.0) for _ in range(50)), name="w")
        sim.run()
        small.stop()
        assert len(small._slices) <= 10
        assert small.slices_dropped > 0
        assert prof.report()["events"]["executed"] > 0


class TestCapture:
    def test_capture_profiles_simulators_built_inside(self):
        with hostprof.capture() as cap:
            sim = Simulator(seed=2)
            sim.spawn((sim.sleep(1.0) for _ in range(10)), name="w")
            sim.run()
        assert len(cap.profilers) == 1
        assert cap.executed > 0
        report = cap.report()
        assert report["simulators"] == 1
        assert report["host"]["wall_ns"] > 0

    def test_capture_merges_multiple_simulators(self):
        with hostprof.capture() as cap:
            for seed in (1, 2):
                sim = Simulator(seed=seed)
                sim.spawn((sim.sleep(1.0) for _ in range(10)), name="w")
                sim.run()
        assert len(cap.profilers) == 2
        report = cap.report()
        assert report["simulators"] == 2
        # Merged totals still sum exactly.
        assert (
            sum(r["host_ns"] for r in report["events"]["by_component"].values())
            == report["host"]["exec_ns"]
        )

    def test_capture_hook_unregistered_after_block(self):
        from repro.sim import scheduler

        before = len(scheduler._new_sim_hooks)
        with hostprof.capture():
            Simulator(seed=0)
        assert len(scheduler._new_sim_hooks) == before
        # Simulators built after the block are not profiled.
        sim = Simulator(seed=0)
        assert sim.hostprof is None


def test_scenario_registry_sane():
    assert set(SCENARIOS) == {"lookup", "update", "mixed"}
    assert set(SCALES) == {"small", "medium", "large"}
