"""Tests for the perf-regression gate (``repro bench check``)."""

import json

import pytest

from repro.obs import check_baselines, compare_reports
from repro.obs.baseline import (
    DIRECTION_HIGHER,
    DIRECTION_INFO,
    DIRECTION_LOWER,
    metric_direction,
    tier_name,
)

SIM_REPORT = {
    "verilog": {"interp_ms": 8.0, "compiled_ms": 4.0, "speedup": 2.0},
    "vhdl": {"interp_ms": 16.0, "compiled_ms": 5.0, "speedup": 3.2},
    "floor": 1.3,
}


def write_report(directory, tier, report):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{tier}.json"
    path.write_text(json.dumps(report) + "\n")
    return path


class TestMetricDirection:
    @pytest.mark.parametrize("key", ["compiled_ms", "serial_s", "seconds"])
    def test_lower_is_better(self, key):
        assert metric_direction(key) == DIRECTION_LOWER

    @pytest.mark.parametrize("key", ["speedup", "throughput", "hit_rate"])
    def test_higher_is_better(self, key):
        assert metric_direction(key) == DIRECTION_HIGHER

    @pytest.mark.parametrize("key", ["floor", "workers", "count"])
    def test_informational(self, key):
        assert metric_direction(key) == DIRECTION_INFO


class TestCompareReports:
    def test_identical_reports_have_no_regressions(self):
        deltas, missing, extra = compare_reports(
            "sim", SIM_REPORT, SIM_REPORT
        )
        assert missing == [] and extra == []
        assert all(not d.regressed for d in deltas)
        assert {d.name for d in deltas} == {
            "verilog.interp_ms", "verilog.compiled_ms", "verilog.speedup",
            "vhdl.interp_ms", "vhdl.compiled_ms", "vhdl.speedup", "floor",
        }

    def test_slower_timing_regresses_and_normalizes_ratio(self):
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["verilog"]["compiled_ms"] = 8.0  # 2x slower
        deltas, _, _ = compare_reports("sim", SIM_REPORT, fresh)
        (delta,) = [d for d in deltas if d.name == "verilog.compiled_ms"]
        assert delta.regressed
        assert delta.ratio == pytest.approx(2.0)
        assert "REGRESSED" in delta.describe()

    def test_lower_speedup_regresses_with_same_ratio_convention(self):
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["vhdl"]["speedup"] = 1.6  # half the baseline speedup
        deltas, _, _ = compare_reports("sim", SIM_REPORT, fresh)
        (delta,) = [d for d in deltas if d.name == "vhdl.speedup"]
        assert delta.regressed
        assert delta.ratio == pytest.approx(2.0)  # > 1 always means worse

    def test_improvement_is_marked_not_failed(self):
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["verilog"]["compiled_ms"] = 1.0
        deltas, _, _ = compare_reports("sim", SIM_REPORT, fresh)
        (delta,) = [d for d in deltas if d.name == "verilog.compiled_ms"]
        assert delta.improved and not delta.regressed

    def test_info_metrics_never_regress(self):
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["floor"] = 99.0
        deltas, _, _ = compare_reports("sim", SIM_REPORT, fresh)
        (delta,) = [d for d in deltas if d.name == "floor"]
        assert not delta.regressed and delta.ratio == 1.0

    def test_within_tolerance_passes(self):
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["verilog"]["compiled_ms"] = 4.0 * 1.2  # +20% < 35% tolerance
        deltas, _, _ = compare_reports("sim", SIM_REPORT, fresh)
        assert all(not d.regressed for d in deltas)

    def test_uniform_host_drift_is_normalized_out(self):
        # a loaded / slower box scales every timing together; that is not
        # a code regression, and the speedup ratios confirm it
        fresh = json.loads(json.dumps(SIM_REPORT))
        for language in ("verilog", "vhdl"):
            fresh[language]["interp_ms"] *= 1.6
            fresh[language]["compiled_ms"] *= 1.6
        deltas, _, _ = compare_reports("sim", SIM_REPORT, fresh)
        assert all(not d.regressed for d in deltas)
        timing = [d for d in deltas if d.direction == DIRECTION_LOWER]
        assert all(d.drift == pytest.approx(1.6) for d in timing)
        assert all(d.ratio == pytest.approx(1.0) for d in timing)

    def test_single_leaf_regression_survives_drift_normalization(self):
        # one leaf moving against the tier's median is the signal the
        # gate exists for — the median stays ~1.0, so it still fails
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["verilog"]["compiled_ms"] *= 2
        deltas, _, _ = compare_reports("sim", SIM_REPORT, fresh)
        (delta,) = [d for d in deltas if d.regressed]
        assert delta.name == "verilog.compiled_ms"
        assert delta.ratio == pytest.approx(2.0)

    def test_drift_needs_enough_timing_leaves(self):
        # with fewer than MIN_DRIFT_SAMPLE timings, a real regression
        # would be its own reference — so no normalization happens
        base = {"parallel": {"serial_s": 2.0, "parallel_s": 1.0}}
        fresh = {"parallel": {"serial_s": 4.0, "parallel_s": 2.0}}
        deltas, _, _ = compare_reports("exec", base, fresh)
        assert all(d.drift == 1.0 for d in deltas)
        assert all(d.regressed for d in deltas)

    def test_missing_and_extra_leaves_reported(self):
        fresh = json.loads(json.dumps(SIM_REPORT))
        del fresh["vhdl"]["speedup"]
        fresh["vhdl"]["new_metric_ms"] = 1.0
        _, missing, extra = compare_reports("sim", SIM_REPORT, fresh)
        assert missing == ["sim/vhdl.speedup"]
        assert extra == ["sim/vhdl.new_metric_ms"]


class TestFloors:
    """Absolute minimums from the baseline's ``floors`` object."""

    def test_floors_object_is_stripped_not_compared(self):
        base = json.loads(json.dumps(SIM_REPORT))
        base["floors"] = {"speedup": 1.3}
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["floors"] = {"speedup": 99.0}
        deltas, missing, extra = compare_reports("sim", base, fresh)
        assert not any(d.name.startswith("floors") for d in deltas)
        assert missing == [] and extra == []

    def test_below_floor_regresses_despite_matching_baseline(self):
        # relative gating alone ratchets: once a bad value is committed,
        # an identical fresh run passes — the floor still catches it
        base = json.loads(json.dumps(SIM_REPORT))
        base["verilog"]["speedup"] = 1.0
        base["floors"] = {"speedup": 1.3}
        fresh = json.loads(json.dumps(base))
        deltas, _, _ = compare_reports("sim", base, fresh)
        (delta,) = [d for d in deltas if d.regressed]
        assert delta.name == "verilog.speedup"
        assert delta.floor == 1.3
        assert "BELOW FLOOR" in delta.describe()

    def test_dotted_floor_scopes_to_one_leaf(self):
        base = json.loads(json.dumps(SIM_REPORT))
        base["verilog"]["speedup"] = 1.0
        base["vhdl"]["speedup"] = 1.0
        base["floors"] = {"verilog.speedup": 1.2}
        fresh = json.loads(json.dumps(base))
        deltas, _, _ = compare_reports("sim", base, fresh)
        assert {d.name for d in deltas if d.regressed} == {"verilog.speedup"}

    def test_floors_read_from_baseline_not_fresh(self):
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["floors"] = {"speedup": 99.0}
        deltas, _, _ = compare_reports("sim", SIM_REPORT, fresh)
        assert all(not d.regressed for d in deltas)

    def test_floor_ignores_lower_is_better_leaves(self):
        base = json.loads(json.dumps(SIM_REPORT))
        base["floors"] = {"compiled_ms": 99.0}
        fresh = json.loads(json.dumps(base))
        deltas, _, _ = compare_reports("sim", base, fresh)
        assert all(not d.regressed for d in deltas)

    def test_batch_floor_fails_gate_within_relative_tolerance(self, tmp_path):
        """The ISSUE's acceptance criterion: batch_speedup ≥ 5.0 gated."""
        base = {
            "verilog_batch": {"batch_speedup": 5.5},
            "floors": {"batch_speedup": 5.0},
        }
        fresh = {"verilog_batch": {"batch_speedup": 4.5}}  # -18% < tolerance
        write_report(tmp_path / "base", "sim", base)
        write_report(tmp_path / "fresh", "sim", fresh)
        report = check_baselines(tmp_path / "base", tmp_path / "fresh")
        assert not report.ok
        assert "BELOW FLOOR" in report.render()


class TestCheckBaselines:
    def test_unchanged_baseline_passes(self, tmp_path):
        write_report(tmp_path / "base", "sim", SIM_REPORT)
        write_report(tmp_path / "fresh", "sim", SIM_REPORT)
        report = check_baselines(tmp_path / "base", tmp_path / "fresh")
        assert report.ok
        assert report.regressions == []
        assert report.render().endswith("(PASS)")

    def test_injected_2x_slowdown_fails_hard_tier(self, tmp_path):
        """The ISSUE's acceptance criterion."""
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["verilog"]["compiled_ms"] *= 2
        write_report(tmp_path / "base", "sim", SIM_REPORT)
        write_report(tmp_path / "fresh", "sim", fresh)
        report = check_baselines(tmp_path / "base", tmp_path / "fresh")
        assert not report.ok
        assert len(report.hard_failures) == 1
        assert report.render().endswith("(FAIL)")

    def test_soft_tier_regression_only_warns(self, tmp_path):
        fresh = {"parallel": {"serial_s": 10.0}}
        write_report(tmp_path / "base", "exec", {
            "parallel": {"serial_s": 2.0}
        })
        write_report(tmp_path / "fresh", "exec", fresh)
        report = check_baselines(
            tmp_path / "base", tmp_path / "fresh", hard_tiers=("sim",)
        )
        assert len(report.regressions) == 1
        assert report.ok  # exec is not a hard tier

    def test_warn_only_mode_never_fails(self, tmp_path):
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["verilog"]["compiled_ms"] *= 10
        write_report(tmp_path / "base", "sim", SIM_REPORT)
        write_report(tmp_path / "fresh", "sim", fresh)
        report = check_baselines(
            tmp_path / "base", tmp_path / "fresh", hard_tiers=()
        )
        assert report.regressions and report.ok

    def test_missing_fresh_report_is_skipped_not_failed(self, tmp_path):
        write_report(tmp_path / "base", "sim", SIM_REPORT)
        (tmp_path / "fresh").mkdir()
        report = check_baselines(tmp_path / "base", tmp_path / "fresh")
        assert report.missing_fresh == ["sim"]
        assert report.ok
        assert "no fresh report" in report.render()

    def test_empty_baseline_dir_raises(self, tmp_path):
        (tmp_path / "base").mkdir()
        with pytest.raises(ValueError, match="no BENCH_"):
            check_baselines(tmp_path / "base", tmp_path)

    def test_custom_tolerance(self, tmp_path):
        fresh = json.loads(json.dumps(SIM_REPORT))
        fresh["verilog"]["compiled_ms"] = 4.0 * 1.3  # +30%
        write_report(tmp_path / "base", "sim", SIM_REPORT)
        write_report(tmp_path / "fresh", "sim", fresh)
        strict = check_baselines(
            tmp_path / "base", tmp_path / "fresh", tolerance=0.1
        )
        lenient = check_baselines(
            tmp_path / "base", tmp_path / "fresh", tolerance=0.5
        )
        assert not strict.ok
        assert lenient.ok


class TestReportPathGuard:
    """``bench_micro`` must not write reports outside ``benchmarks/``."""

    def test_escape_via_env_override_is_refused(self, monkeypatch, tmp_path):
        from benchmarks.bench_micro import _report_path

        monkeypatch.setenv("BENCH_SIM_JSON", str(tmp_path / "BENCH_sim.json"))
        with pytest.raises(RuntimeError, match="BENCH_SIM_JSON"):
            _report_path()

    def test_default_path_is_inside_benchmarks(self, monkeypatch):
        from benchmarks.bench_micro import _report_path

        monkeypatch.delenv("BENCH_SIM_JSON", raising=False)
        out = _report_path()
        assert out.name == "BENCH_sim.json"
        assert out.parent.name == "benchmarks"

    def test_frontend_report_has_its_own_guarded_path(
        self, monkeypatch, tmp_path
    ):
        from benchmarks.bench_micro import _report_path

        monkeypatch.delenv("BENCH_FRONTEND_JSON", raising=False)
        assert _report_path("frontend").name == "BENCH_frontend.json"
        monkeypatch.setenv(
            "BENCH_FRONTEND_JSON", str(tmp_path / "BENCH_frontend.json")
        )
        with pytest.raises(RuntimeError, match="BENCH_FRONTEND_JSON"):
            _report_path("frontend")


class TestTierName:
    def test_strips_prefix_and_extension(self):
        assert tier_name("/x/y/BENCH_sim.json") == "sim"
        assert tier_name("BENCH_exec.json") == "exec"

    def test_non_bench_name_passes_through(self):
        assert tier_name("other.json") == "other"


class TestCommittedBaselines:
    def test_repo_baselines_exist_and_parse(self):
        from pathlib import Path

        from repro.obs.baseline import load_report

        baselines = Path(__file__).resolve().parents[1] / (
            "benchmarks/baselines"
        )
        paths = sorted(baselines.glob("BENCH_*.json"))
        assert [p.name for p in paths] == [
            "BENCH_exec.json", "BENCH_frontend.json", "BENCH_sim.json"
        ]
        for path in paths:
            report = load_report(path)
            assert report  # non-empty object

    def test_sim_baseline_satisfies_its_own_floors(self):
        # a baseline refresh must never commit a below-floor run — the
        # batch tier's 5x contract in particular
        from pathlib import Path

        from repro.obs.baseline import load_report

        path = Path(__file__).resolve().parents[1] / (
            "benchmarks/baselines/BENCH_sim.json"
        )
        report = load_report(path)
        deltas, _, _ = compare_reports("sim", report, report)
        assert all(not d.regressed for d in deltas)
        assert sorted(
            d.name for d in deltas if d.floor == 5.0
        ) == ["verilog_batch.batch_speedup", "vhdl_batch.batch_speedup"]

    def test_frontend_baseline_is_a_drift_normalized_timing_tier(self):
        # four lex/parse timings, enough to estimate host drift; the MB/s
        # leaves must stay informational (a "_s" suffix would gate them as
        # timings) and there is no floor
        from pathlib import Path

        from repro.obs.baseline import MIN_DRIFT_SAMPLE, load_report

        path = Path(__file__).resolve().parents[1] / (
            "benchmarks/baselines/BENCH_frontend.json"
        )
        report = load_report(path)
        deltas, _, _ = compare_reports("frontend", report, report)
        timings = sorted(
            d.name for d in deltas if d.direction == DIRECTION_LOWER
        )
        assert timings == [
            "verilog.lex_ms", "verilog.parse_ms",
            "vhdl.lex_ms", "vhdl.parse_ms",
        ]
        assert len(timings) >= MIN_DRIFT_SAMPLE
        assert {d.direction for d in deltas} == {
            DIRECTION_LOWER, DIRECTION_INFO
        }
        assert "floors" not in report
