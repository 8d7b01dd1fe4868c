"""Fuzz campaigns: determinism across worker counts, no unclassified gaps."""

import pytest

from repro.qa import fuzz as fuzz_module
from repro.qa.fuzz import FuzzReport, ProgramResult, run_fuzz
from repro.qa.oracle import FailureClass

COUNT = 8


@pytest.fixture(scope="module")
def serial_report():
    return run_fuzz(0, COUNT)


class TestCampaign:
    def test_seed_zero_is_divergence_free(self, serial_report):
        assert serial_report.ok
        assert serial_report.divergences == []
        assert serial_report.class_counts == {"ok": COUNT}
        assert len(serial_report.results) == COUNT
        assert "divergences: none" in serial_report.render()

    def test_results_arrive_in_program_order(self, serial_report):
        assert [r.index for r in serial_report.results] == list(range(COUNT))
        assert [r.name for r in serial_report.results] == [
            f"qa_s0_p{i}" for i in range(COUNT)
        ]

    def test_parallel_equals_serial_byte_for_byte(self, serial_report):
        parallel = run_fuzz(0, COUNT, workers=4)
        assert [
            (r.index, r.name, r.failure_class, r.verilog_sha, r.vhdl_sha)
            for r in parallel.results
        ] == [
            (r.index, r.name, r.failure_class, r.verilog_sha, r.vhdl_sha)
            for r in serial_report.results
        ]

    def test_different_seeds_generate_different_programs(self, serial_report):
        other = run_fuzz(1, COUNT)
        assert [r.verilog_sha for r in other.results] != [
            r.verilog_sha for r in serial_report.results
        ]

    def test_throughput_accounting(self, serial_report):
        assert serial_report.elapsed > 0
        assert serial_report.throughput > 0
        assert all(r.seconds >= 0 for r in serial_report.results)

    def test_grammar_telemetry_rides_along(self, serial_report):
        from repro.qa.grammar import ALL_OP_KINDS
        from repro.qa.spec import SPEC_SHAPES

        for result in serial_report.results:
            assert result.shape in SPEC_SHAPES
            assert result.ops
            assert set(result.ops) <= set(ALL_OP_KINDS)
        assert sum(serial_report.shape_counts.values()) == COUNT
        assert "shapes:" in serial_report.render()
        # the per-op histogram tallies each program once per op it used
        table = serial_report.op_class_counts
        assert table
        for op, per_class in table.items():
            assert op in ALL_OP_KINDS
            assert sum(per_class.values()) == sum(
                1 for r in serial_report.results if op in r.ops
            )


class TestEngineFailuresAreClassified:
    def test_dead_task_becomes_a_crash_divergence(self, monkeypatch):
        """A program whose task dies is a CRASH-class divergence, never a
        silent gap — the campaign has zero unclassified outcomes."""

        real = fuzz_module._fuzz_program

        def flaky(seed, index, formal=False):
            if index == 1:
                raise RuntimeError("worker exploded")
            return real(seed, index, formal)

        monkeypatch.setattr(fuzz_module, "_fuzz_program", flaky)
        report = run_fuzz(0, 3)
        assert len(report.results) == 3
        by_index = {r.index: r for r in report.results}
        assert by_index[1].failure_class is FailureClass.CRASH
        assert "worker exploded" in by_index[1].error
        assert by_index[0].failure_class is FailureClass.OK
        assert by_index[2].failure_class is FailureClass.OK
        assert not report.ok
        assert [c.spec.name for c in report.divergences] == ["qa_s0_p1"]
        assert report.divergences[0].expected_class is FailureClass.CRASH
        assert "DIVERGENCES" in report.render()


class TestProgressCallback:
    """``run_fuzz(progress=)`` hands the caller every engine event."""

    def test_progress_sees_every_program(self):
        from repro.exec.progress import ENGINE_FINISH, ENGINE_START, TASK_DONE

        events = []
        report = run_fuzz(1, 3, progress=events.append)
        assert events[0].kind == ENGINE_START
        assert events[-1].kind == ENGINE_FINISH
        done = [e for e in events if e.kind == TASK_DONE]
        assert [e.key for e in done] == [f"qa/s1/p{i}" for i in range(3)]
        assert [e.done for e in done] == [1, 2, 3]
        classes = {}
        for event in done:
            verdict = event.outcome.value["class"]
            classes[verdict] = classes.get(verdict, 0) + 1
        assert classes == report.class_counts

    def test_progress_sees_a_dead_task_as_an_error(self, monkeypatch):
        from repro.exec.progress import TASK_ERROR

        real = fuzz_module._fuzz_program

        def flaky(seed, index, formal=False):
            if index == 1:
                raise RuntimeError("worker exploded")
            return real(seed, index, formal)

        monkeypatch.setattr(fuzz_module, "_fuzz_program", flaky)
        events = []
        run_fuzz(0, 2, progress=events.append)
        errors = [e for e in events if e.kind == TASK_ERROR]
        assert [(e.key, e.done, e.level) for e in errors] == [
            ("qa/s0/p1", 2, "warning")
        ]
        assert "worker exploded" in errors[0].message


class TestReportShape:
    def test_class_counts_tally_every_result(self):
        report = FuzzReport(seed=0, count=2, workers=1)
        report.results = [
            ProgramResult(0, "a", FailureClass.OK, "", "", 0.1),
            ProgramResult(1, "b", FailureClass.CRASH, "", "", 0.1),
        ]
        assert report.class_counts == {"ok": 1, "crash": 1}
        assert report.throughput == 0.0  # no elapsed recorded


class TestFormalCrossCheck:
    def test_formal_campaign_proves_every_program(self):
        report = run_fuzz(0, 4, formal=True)
        assert report.formal
        assert report.ok
        assert report.formal_counts == {"proved": 8}  # 4 programs x 2 langs
        assert report.formal_inconsistencies == []
        assert "formal:" in report.render()

    def test_formal_is_off_by_default(self, serial_report):
        assert not serial_report.formal
        assert serial_report.formal_counts == {}
        assert "formal:" not in serial_report.render()

    def test_inconsistency_fails_the_campaign(self):
        report = FuzzReport(seed=0, count=1, workers=1, formal=True)
        report.results = [
            ProgramResult(
                0, "a", FailureClass.OK, "", "", 0.1,
                formal_verilog="proved", formal_vhdl="proved",
                formal_inconsistencies=("verilog: proved but sim failed",),
            ),
        ]
        assert not report.ok
        assert report.formal_inconsistencies == [
            "#0 a: verilog: proved but sim failed"
        ]
        assert "FORMAL INCONSISTENCY" in report.render()

    def test_unsupported_proof_fails_a_formal_campaign(self):
        # unsupported on a *generated* spec means the encoder/extractor
        # lost closure over the grammar — a formal campaign must fail
        report = FuzzReport(seed=0, count=1, workers=1, formal=True)
        report.results = [
            ProgramResult(
                0, "a", FailureClass.OK, "", "", 0.1,
                formal_verilog="unsupported", formal_vhdl="proved",
            ),
        ]
        assert not report.ok
        sampling_only = FuzzReport(seed=0, count=1, workers=1, formal=False)
        sampling_only.results = list(report.results)
        assert sampling_only.ok  # without --formal the verdicts are inert
