"""Per-phase host wallclock in chaos verdicts (CI slowdown artifacts)."""

from repro.chaos import host_summary


def test_verdict_carries_phase_wallclock(smoke_verdict):
    verdict = smoke_verdict("fault_free_control", 0)
    assert set(verdict.host_ms) == {"build", "run", "verify", "total"}
    assert all(v >= 0 for v in verdict.host_ms.values())
    assert verdict.host_ms["total"] > 0
    # Phases nest inside the total (equality modulo the ns between the
    # last phase mark and the total read).
    parts = (
        verdict.host_ms["build"]
        + verdict.host_ms["run"]
        + verdict.host_ms["verify"]
    )
    assert parts <= verdict.host_ms["total"] + 1.0
    assert parts >= verdict.host_ms["total"] * 0.95


def test_host_ms_in_json_verdict(smoke_verdict):
    verdict = smoke_verdict("fault_free_control", 0)
    out = verdict.as_dict()
    assert "host_ms" in out
    assert set(out["host_ms"]) == {"build", "run", "verify", "total"}
    assert all(isinstance(v, float) for v in out["host_ms"].values())


def test_suite_host_summary(smoke_verdict):
    verdicts = [smoke_verdict("fault_free_control", seed) for seed in (0, 1)]
    summary = host_summary(verdicts)
    assert summary["total_ms"] > 0
    row = summary["by_scenario"]["fault_free_control"]
    assert row["runs"] == 2
    assert row["slowest_ms"] <= row["total_ms"]
    assert abs(
        summary["total_ms"]
        - sum(v.host_ms["total"] for v in verdicts)
    ) < 0.2
