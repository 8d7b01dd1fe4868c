"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_families_and_problems(self):
        code, text = run_cli("list")
        assert code == 0
        assert "gates" in text
        assert "gates_and" in text

    def test_family_filter(self):
        code, text = run_cli("list", "--family", "fsm")
        assert code == 0
        assert "fsm_detect101" in text
        assert "gates_and" not in text

    def test_unknown_family(self):
        code, text = run_cli("list", "--family", "nope")
        assert code == 1
        assert "unknown family" in text


class TestShow:
    def test_spec(self):
        code, text = run_cli("show", "gates_and")
        assert code == 0
        assert "AND gate" in text

    def test_reference_verilog(self):
        code, text = run_cli("show", "gates_and", "--what", "reference")
        assert code == 0
        assert "module top_module" in text

    def test_reference_vhdl(self):
        code, text = run_cli(
            "show", "gates_and", "--what", "reference", "--language", "vhdl"
        )
        assert code == 0
        assert "entity top_module" in text

    def test_testbench(self):
        code, text = run_cli("show", "gates_and", "--what", "testbench")
        assert code == 0
        assert "All tests passed successfully!" in text

    def test_unknown_problem(self):
        code, text = run_cli("show", "ghost_problem")
        assert code == 1

    def test_bad_language_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("show", "gates_and", "--language", "klingon")


class TestRun:
    def test_run_reports_verdict(self):
        code, text = run_cli("run", "gates_and", "--model", "claude-3.5-sonnet")
        assert "golden_tb=" in text
        assert code in (0, 2)

    def test_run_with_transcript(self):
        code, text = run_cli("run", "gates_buf", "--transcript")
        assert "[CodeAgent]" in text

    def test_unknown_model(self):
        code, text = run_cli("run", "gates_and", "--model", "gpt-9")
        assert code == 1
        assert "known" in text


class TestValidate:
    def test_validate_subset(self):
        code, text = run_cli(
            "validate", "--limit", "2", "--language", "verilog"
        )
        assert code == 0
        assert "0 failure(s)" in text


class TestSweep:
    def test_sweep_table1_subset(self):
        code, text = run_cli("sweep", "--artifact", "table1", "--limit", "8")
        assert code == 0
        assert "AIVRIL2" in text
        assert "Average dF" in text

    def test_sweep_figure3_subset(self):
        code, text = run_cli("sweep", "--artifact", "figure3", "--limit", "8")
        assert code == 0
        assert "Worst-case" in text

    def test_sweep_with_trace_records_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, text = run_cli(
            "sweep", "--artifact", "table2", "--limit", "4",
            "--trace", str(path),
        )
        assert code == 0
        assert path.exists()
        first = path.read_text().splitlines()[0]
        assert '"type":"meta"' in first

    @staticmethod
    def _inject_parse_crash(monkeypatch, only_pid=None):
        import repro.eval.runner as runner_module

        real = runner_module._run_problem

        def crashing(profile, language, pid):
            if only_pid in (None, pid):
                raise RuntimeError("injected parse crash")
            return real(profile, language, pid)

        monkeypatch.setattr(runner_module, "_run_problem", crashing)

    @pytest.mark.parametrize("artifact", ["table1", "table2"])
    def test_all_error_records_exit_1_and_render_na(
        self, monkeypatch, capsys, artifact
    ):
        self._inject_parse_crash(monkeypatch)
        code, text = run_cli("sweep", "--artifact", artifact, "--limit", "2")
        assert code == 1
        # no config has an evaluated record: no pass rate to print
        assert "N/A" in text
        assert "0.00" not in text
        assert "WARNING: " in capsys.readouterr().err

    def test_one_error_record_exits_1_with_tables(self, monkeypatch, capsys):
        self._inject_parse_crash(monkeypatch, only_pid="gates_not")
        code, text = run_cli("sweep", "--artifact", "table1", "--limit", "2")
        assert code == 1
        assert "Average dF" in text
        assert "100.00" in text  # the healthy problem was still judged
        assert "WARNING: 6 problem task(s)" in capsys.readouterr().err


class TestTrace:
    def record_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            "sweep", "--artifact", "table2", "--limit", "4",
            "--workers", "2", "--trace", str(path),
        )
        assert code == 0
        return path

    def test_trace_validate_ok(self, tmp_path):
        path = self.record_trace(tmp_path)
        code, text = run_cli("trace", "validate", str(path))
        assert code == 0
        assert "all schema-valid" in text

    def test_trace_validate_flags_corruption(self, tmp_path):
        path = self.record_trace(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"type": "span", "name":')  # truncated line
        code, text = run_cli("trace", "validate", str(path))
        assert code == 1
        assert "INVALID" in text

    def test_trace_summarize(self, tmp_path):
        path = self.record_trace(tmp_path)
        code, text = run_cli("trace", "summarize", str(path))
        assert code == 0
        assert "tasks: 12/12 done" in text
        assert "hit rate" in text
        assert "llama3-70b/verilog" in text

    def test_trace_missing_file(self, tmp_path):
        code, text = run_cli(
            "trace", "summarize", str(tmp_path / "ghost.jsonl")
        )
        assert code == 1
        assert "cannot read trace" in text


class TestLogLevel:
    def test_log_level_accepted(self, tmp_path, capsys):
        code, text = run_cli("--log-level", "warning", "list")
        assert code == 0
        assert "gates" in text

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("--log-level", "loud", "list")


@pytest.mark.parametrize("argv, floor", [
    (["sweep", "--limit", "-154"], 0),
    (["validate", "--limit", "-155"], 0),
    (["qa", "fuzz", "--count", "-3"], 1),
    (["formal", "prove", "--count", "-2"], 0),
    (["formal", "check", "--count", "-2"], 1),
    (["sweep", "--workers", "0"], 1),
], ids=["sweep", "validate", "qa-fuzz", "formal-prove", "formal-check",
        "sweep-workers"])
def test_count_below_its_floor_is_a_usage_error(argv, floor, capsys):
    """A negative limit or count, or no workers, is refused before any
    work, never read as a slice bound or an empty run."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert f"must be >= {floor}" in capsys.readouterr().err


class TestQa:
    def failing_case_path(self, tmp_path):
        from repro.designs.mutations import functional
        from repro.eda.toolchain import Language
        from repro.qa import CaseMutation, QaCase, QaSpec, node_name, save_case

        tree = ["add", ["var", "a0"], ["var", "a1"]]
        a0, a1 = node_name(["var", "a0"]), node_name(["var", "a1"])
        add = node_name(tree)
        case = QaCase(
            spec=QaSpec(
                name="cli_case", width=4, inputs=("a0", "a1"),
                outputs=(("y0", tree),),
            ),
            mutations=(CaseMutation(Language.VERILOG, functional(
                "add becomes sub",
                f"assign {add} = {a0} + {a1};",
                f"assign {add} = {a0} - {a1};",
            )),),
        )
        return save_case(case, tmp_path)

    def test_fuzz_smoke(self):
        code, text = run_cli("qa", "fuzz", "--seed", "0", "--count", "3")
        assert code == 0
        assert "divergences: none" in text
        assert "seed=0 count=3" in text

    def test_fuzz_writes_trace(self, tmp_path):
        trace = tmp_path / "qa.jsonl"
        code, _ = run_cli(
            "qa", "fuzz", "--seed", "0", "--count", "2",
            "--trace", str(trace),
        )
        assert code == 0
        assert trace.exists() and trace.stat().st_size > 0
        code, text = run_cli("trace", "summarize", str(trace))
        assert code == 0

    def test_replay_default_corpus(self):
        code, text = run_cli("qa", "replay")
        assert code == 0
        assert "0 mismatch(es)" in text
        assert "PASS corpus_crash_oscillation" in text

    def test_replay_empty_corpus(self, tmp_path):
        code, text = run_cli("qa", "replay", "--corpus", str(tmp_path))
        assert code == 1
        assert "no corpus cases" in text

    def test_reduce_writes_reduced_case(self, tmp_path):
        from repro.qa import FailureClass, load_case

        case_file = self.failing_case_path(tmp_path)
        out_file = tmp_path / "reduced.json"
        code, text = run_cli(
            "qa", "reduce", str(case_file), "-o", str(out_file),
        )
        assert code == 0
        assert "qa reduce: verilog-mismatch" in text
        reduced = load_case(out_file)
        assert reduced.expected_class is FailureClass.VERILOG_MISMATCH
        assert reduced.spec.node_count <= 5

    def test_reduce_rejects_passing_case(self, tmp_path):
        from repro.qa import QaCase, QaSpec, save_case

        case = QaCase(spec=QaSpec(
            name="fine", width=4, inputs=("a0",),
            outputs=(("y0", ["var", "a0"]),),
        ))
        path = save_case(case, tmp_path)
        code, text = run_cli("qa", "reduce", str(path))
        assert code == 1
        assert "nothing to reduce" in text

    def test_reduce_missing_file(self, tmp_path):
        code, text = run_cli("qa", "reduce", str(tmp_path / "ghost.json"))
        assert code == 1
        assert "cannot load case" in text

    def test_fuzz_with_formal_pass(self):
        code, text = run_cli(
            "qa", "fuzz", "--seed", "0", "--count", "3", "--formal"
        )
        assert code == 0
        assert "formal:" in text
        assert "proved=6" in text


class TestFormal:
    def test_prove_corpus(self):
        code, text = run_cli("formal", "prove")
        assert code == 0
        assert "0 indecisive verdict(s)" in text
        assert "corpus_formal_refuted_comb [verilog]: refuted" in text
        assert "witness" in text

    def test_prove_empty_corpus(self, tmp_path):
        code, text = run_cli("formal", "prove", "--corpus", str(tmp_path))
        assert code == 1
        assert "no corpus cases" in text

    def test_prove_generated_programs(self):
        code, text = run_cli(
            "formal", "prove", "--seed", "0", "--count", "4",
            "--workers", "2",
        )
        assert code == 0
        assert "proved=8" in text
        assert "0 failure(s)" in text

    def test_check_generated_programs(self):
        code, text = run_cli("formal", "check", "--seed", "2", "--count", "3")
        assert code == 0
        assert "0 violation(s)" in text
        assert "reset=proved x-freedom=proved" in text

    def test_check_flags_contract_violation(self, tmp_path):
        # a clocked case whose Verilog rendering loses its reset
        from repro.qa import QaCase, QaSpec, node_name, save_case
        from repro.qa.oracle import CaseMutation, case_sources
        from repro.designs.mutations import functional
        from repro.eda.toolchain import Language

        tree = ["add", ["var", "y0"], ["var", "a0"]]
        case = QaCase(
            spec=QaSpec(
                name="cli_no_reset", width=4, inputs=("a0",),
                outputs=(("y0", tree),), clocked=True,
            ),
            mutations=(CaseMutation(Language.VERILOG, functional(
                "drop the reset",
                "y0 <= 4'd0;",
                "",
            )),),
        )
        path = save_case(case, tmp_path)
        code, text = run_cli("formal", "check", str(path))
        assert code == 1
        assert "reset=refuted" in text
        assert "violation(s)" in text

    def test_check_missing_case_file(self, tmp_path):
        code, text = run_cli("formal", "check", str(tmp_path / "ghost.json"))
        assert code == 1
        assert "cannot load case" in text


class TestObsCommands:
    """The telemetry surface: trace analytics; retired commands stay gone."""

    def record_sweep(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, _ = run_cli(
            "sweep", "--artifact", "table2", "--limit", "4",
            "--workers", "2", "--trace", str(trace),
        )
        assert code == 0
        return trace

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--limit", "1", "--spool", "m.jsonl"],
         "unrecognized arguments: --spool"),
        (["qa", "fuzz", "--count", "1", "--spool", "m.jsonl"],
         "unrecognized arguments: --spool"),
        (["top", "sweep", "--limit", "1", "--spool", "m.jsonl"],
         "invalid choice: 'top'"),
        (["top", "fuzz", "--seed", "1", "--count", "3"],
         "invalid choice: 'top'"),
        (["top", "prove", "--seed", "0", "--count", "2"],
         "invalid choice: 'top'"),
        (["obs", "validate", "m.jsonl"], "invalid choice: 'obs'"),
        (["obs", "export", "t.jsonl"], "invalid choice: 'obs'"),
    ], ids=[
        "sweep", "qa-fuzz", "top-sweep", "top-fuzz", "top-prove",
        "obs-validate", "obs-export",
    ])
    def test_spool_surface_is_gone(self, argv, message, capsys):
        """Metrics travel in the trace, which ``repro trace summarize``
        reads; argparse rejects the old flags and commands."""
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_trace_summarize_merges_a_parallel_sweep(self, tmp_path):
        from repro.obs import aggregate_records, read_trace

        trace = self.record_sweep(tmp_path)
        merged = aggregate_records(read_trace(trace))
        assert merged.counter("pipeline.runs") == 12
        assert len(merged.pids) == 2
        code, text = run_cli("trace", "summarize", str(trace))
        assert code == 0
        assert "tasks: 12/12 done — 12 ok, 0 error(s)" in text
        assert f"metrics {merged.record_count})" in text

    def test_trace_summarize_of_a_trace_without_metrics(self, tmp_path):
        path = tmp_path / "meta-only.jsonl"
        path.write_text(
            '{"type":"meta","version":1,"pid":1,"time":0.0,"attrs":{}}\n'
        )
        code, text = run_cli("trace", "summarize", str(path))
        assert code == 0
        assert "records: 1 (spans 0, events 0, metrics 0)" in text
        assert "store hit rate: no lookups recorded" in text
        assert "per-op" not in text

    def test_trace_summarize_rejects_a_malformed_metric(self, tmp_path):
        path = tmp_path / "bad-metric.jsonl"
        path.write_text(
            '{"type":"metric","pid":1,"time":1.0,"kind":"counter",'
            '"value":3}\n'
        )
        code, text = run_cli("trace", "summarize", str(path))
        assert code == 1
        assert "cannot read trace: malformed metric record" in text

    def test_trace_summarize_names_the_line_that_is_not_json(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text(
            '{"type":"meta","version":1,"pid":1,"time":0.0,"attrs":{}}\n'
            '{"type": "span", "name":\n'
        )
        code, text = run_cli("trace", "summarize", str(path))
        assert code == 1
        assert "cannot read trace" in text
        assert "line 2 is not valid JSON" in text

    def test_trace_critical_path(self, tmp_path):
        trace = self.record_sweep(tmp_path)
        code, text = run_cli("trace", "critical-path", str(trace))
        assert code == 0
        assert "sweep.run" in text
        assert "self times sum to the root wall" in text

    def test_trace_flame_to_file(self, tmp_path):
        trace = self.record_sweep(tmp_path)
        folded = tmp_path / "folded.txt"
        code, text = run_cli(
            "trace", "flame", str(trace), "-o", str(folded)
        )
        assert code == 0
        lines = folded.read_text().splitlines()
        assert lines
        assert any(line.startswith("sweep.run;engine.run") for line in lines)
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 0

    def test_trace_summarize_by_agent(self, tmp_path):
        trace = self.record_sweep(tmp_path)
        code, text = run_cli(
            "trace", "summarize", "--by-agent", str(trace)
        )
        assert code == 0
        assert "agent breakdown" in text
        for agent in ("code", "review", "verification"):
            assert agent in text

    def test_qa_fuzz_trace_summarizes_counters(self, tmp_path):
        trace = tmp_path / "fuzz.trace.jsonl"
        code, _ = run_cli(
            "qa", "fuzz", "--seed", "1", "--count", "3",
            "--trace", str(trace),
        )
        assert code == 0
        code, text = run_cli("trace", "summarize", str(trace))
        assert code == 0
        assert "per-op verdicts (programs using each op kind):" in text


class TestBenchCheck:
    def seed_reports(self, tmp_path, *, slowdown=1.0):
        import json

        report = {"verilog": {"compiled_ms": 4.0, "speedup": 2.0}}
        base = tmp_path / "baselines"
        fresh = tmp_path / "fresh"
        base.mkdir()
        fresh.mkdir()
        (base / "BENCH_sim.json").write_text(json.dumps(report))
        report = json.loads(json.dumps(report))
        report["verilog"]["compiled_ms"] *= slowdown
        (fresh / "BENCH_sim.json").write_text(json.dumps(report))
        return base, fresh

    def test_unchanged_baseline_passes(self, tmp_path):
        base, fresh = self.seed_reports(tmp_path)
        code, text = run_cli(
            "bench", "check", "--baselines", str(base), "--fresh",
            str(fresh),
        )
        assert code == 0
        assert "(PASS)" in text

    def test_injected_slowdown_fails(self, tmp_path):
        base, fresh = self.seed_reports(tmp_path, slowdown=2.0)
        code, text = run_cli(
            "bench", "check", "--baselines", str(base), "--fresh",
            str(fresh),
        )
        assert code == 1
        assert "REGRESSED" in text
        assert "(FAIL)" in text

    def test_warn_only_downgrades_failure(self, tmp_path):
        base, fresh = self.seed_reports(tmp_path, slowdown=2.0)
        code, text = run_cli(
            "bench", "check", "--baselines", str(base), "--fresh",
            str(fresh), "--warn-only",
        )
        assert code == 0
        assert "REGRESSED" in text
        assert "(PASS)" in text

    def test_missing_baseline_dir_errors(self, tmp_path):
        code, text = run_cli(
            "bench", "check", "--baselines", str(tmp_path / "none"),
            "--fresh", str(tmp_path),
        )
        assert code == 1
        assert "no BENCH_" in text

    def test_repo_baselines_match_themselves(self):
        code, text = run_cli(
            "bench", "check", "--fresh", "benchmarks/baselines",
        )
        assert code == 0
        assert "(PASS)" in text
