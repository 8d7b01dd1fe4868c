"""Unit tests for the batch tier (``repro.sim.batch``) and its plumbing.

The equivalence suite proves the tier is observationally identical to the
event kernel; these tests pin the *structural* contract instead: which
designs plan, how the vector programs lay out lanes (single ``uint64``
column, multi-lane for wide signals, masked-int list fallback), how
X-carrying vectors demote one at a time, how the toolchain routes eligible
bundles and counts them, and how the testbench bundle registry behaves —
including the ``vectors=``/``extra_vectors=`` replacement contract.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import tbgen
from repro.designs.model import CombModel, DesignSpec, PortSpec, SeqModel
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.hdl.diagnostics import DiagnosticCollector
from repro.sim import batch
from repro.sim.values import Logic

_TIER_FLAGS = (
    "REPRO_SIM_NO_LEVEL",
    "REPRO_SIM_NO_TWOSTATE",
    "REPRO_SIM_NO_BATCH",
    "REPRO_SIM_NO_NUMPY",
)


@contextmanager
def _pin(**flags):
    """Own every tier flag for the block so ambient settings can't leak in."""
    previous = {flag: os.environ.pop(flag, None) for flag in _TIER_FLAGS}
    os.environ.update(flags)
    try:
        yield
    finally:
        for flag, value in previous.items():
            if value is None:
                os.environ.pop(flag, None)
            else:
                os.environ[flag] = value


def _has_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def build(source: str, language=Language.VERILOG, top: str = "top_module",
          **flags):
    ext = language.file_extension
    files = [HdlFile(f"t{ext}", source, language)]
    collector = DiagnosticCollector()
    with _pin(**flags):
        design = Toolchain()._build_design(files, top, collector)
    assert design is not None, [str(d) for d in collector.diagnostics]
    return design


COMB_V = """
module top_module(input [7:0] a, input [7:0] b, output [7:0] y);
    wire [7:0] t = a ^ b;
    assign y = t + a;
endmodule
"""

WIDE_V = """
module top_module(input [95:0] a, input [95:0] b, output [95:0] y);
    assign y = (a ^ b) + a;
endmodule
"""

SEQ_V = """
module top_module(input clk, input rst, input [7:0] d,
                  output reg [7:0] q, output [7:0] dd);
    assign dd = d ^ q;
    always @(posedge clk) begin
        if (rst) q <= 8'd0;
        else q <= q + d;
    end
endmodule
"""

GATED_SEQ_V = """
module top_module(input clk, input rst, input en, output reg [7:0] q);
    always @(posedge clk) begin
        if (rst) q <= 0;
        else if (en) q <= q + 1;
    end
endmodule
"""


def _comb_expected(vector):
    a, b = vector["a"], vector["b"]
    return ((a ^ b) + a) & 0xFF


class TestSimulateVectors:
    def test_known_vectors_are_exact(self):
        design = build(COMB_V)
        vectors = [{"a": a, "b": b} for a, b in
                   ((3, 5), (0, 0), (255, 255), (127, 64))]
        with _pin():
            run = batch.simulate_vectors(design, vectors)
        assert run is not None
        assert run.demotions == 0
        assert run.mode == ("numpy" if _has_numpy() else "list")
        for vector, row in zip(vectors, run.values):
            assert row["y"] == _comb_expected(vector)

    def test_list_mode_matches_numpy_mode(self):
        vectors = [{"a": a, "b": (a * 37) & 0xFF} for a in range(32)]
        with _pin():
            fast = batch.simulate_vectors(build(COMB_V), vectors)
        with _pin(REPRO_SIM_NO_NUMPY="1"):
            slow = batch.simulate_vectors(build(COMB_V), vectors)
        assert slow is not None and slow.mode == "list"
        assert [r["y"] for r in slow.values] == [r["y"] for r in fast.values]

    def test_wide_signals_use_multiple_lanes(self):
        design = build(WIDE_V)
        mask = (1 << 96) - 1
        vectors = [
            {"a": 0, "b": 0},
            {"a": mask, "b": 1},
            {"a": 0x0123_4567_89AB_CDEF_0011_2233, "b": 0xFFFF_0000_FFFF},
            {"a": 1 << 95, "b": 1 << 64},
        ]
        for flags in ({}, {"REPRO_SIM_NO_NUMPY": "1"}):
            with _pin(**flags):
                run = batch.simulate_vectors(design, vectors)
            assert run is not None, flags
            for vector, row in zip(vectors, run.values):
                want = ((vector["a"] ^ vector["b"]) + vector["a"]) & mask
                assert row["y"] == want, flags

    def test_x_vector_demotes_alone(self):
        design = build(COMB_V)
        vectors = [
            {"a": 3, "b": 5},
            {"a": Logic.from_string("xxxx0011"), "b": 5},
            {"a": 7, "b": 5},
        ]
        with _pin():
            run = batch.simulate_vectors(design, vectors)
        assert run is not None
        assert run.demotions == 1
        assert run.values[0]["y"] == _comb_expected(vectors[0])
        assert run.values[2]["y"] == ((7 ^ 5) + 7) & 0xFF
        demoted = run.values[1]["y"]
        assert isinstance(demoted, Logic) and demoted.has_x

    def test_demoted_vector_matches_event_kernel(self):
        # the same X stimulus driven through the event kernel (the
        # levelized cones' own four-state fallback) must agree bit-for-bit
        design = build(COMB_V)
        x_value = Logic.from_string("xxxx0011")
        with _pin():
            run = batch.simulate_vectors(
                design, [{"a": x_value, "b": 5}]
            )
        kernel_design = build(COMB_V)
        session = batch._scalar_session(kernel_design)
        session.write_signal(kernel_design.signals["a"], x_value)
        session.write_signal(
            kernel_design.signals["b"], Logic.from_int(5, width=8)
        )
        session._run_time_step()
        want = kernel_design.signals["y"].value
        got = run.values[0]["y"]
        assert (got.bits, got.xmask) == (want.bits, want.xmask)

    def test_missing_input_raises(self):
        design = build(COMB_V)
        plan = batch.plan_combinational(design, [("a", 8), ("b", 8)], [("y", 8)])
        assert plan is not None
        with pytest.raises(KeyError):
            batch.run_vectors(plan, [{"a": 1}])

    def test_demotion_without_design_raises(self):
        design = build(COMB_V)
        plan = batch.plan_combinational(design, [("a", 8), ("b", 8)], [("y", 8)])
        with pytest.raises(ValueError):
            batch.run_vectors(
                plan, [{"a": Logic.from_string("x"), "b": 0}]
            )

    def test_empty_vector_list_is_unplannable(self):
        design = build(COMB_V)
        assert batch.simulate_vectors(design, []) is None


@given(seed=st.integers(0, 2**16), x_index=st.integers(0, 5))
@settings(deadline=None, max_examples=20)
def test_property_mixed_x_vectors_match_kernel(seed, x_index):
    """Random vectors with one X-contaminated entry: every row — vectorized
    or demoted — must match a scalar four-state kernel evaluation."""
    import random as _random

    rng = _random.Random(seed)
    vectors = []
    for i in range(6):
        if i == x_index:
            bits = rng.getrandbits(8)
            xmask = rng.getrandbits(8) | 1
            vectors.append({
                "a": Logic._make(8, bits & ~xmask, xmask),
                "b": rng.getrandbits(8),
            })
        else:
            vectors.append(
                {"a": rng.getrandbits(8), "b": rng.getrandbits(8)}
            )
    design = build(COMB_V)
    with _pin():
        run = batch.simulate_vectors(design, vectors)
    assert run is not None and run.demotions == 1
    oracle_design = build(COMB_V)
    session = batch._scalar_session(oracle_design)
    for vector, row in zip(vectors, run.values):
        for name in ("a", "b"):
            value = vector[name]
            if not isinstance(value, Logic):
                value = Logic.from_int(value, width=8)
            session.write_signal(oracle_design.signals[name], value)
        session._run_time_step()
        want = oracle_design.signals["y"].value
        got = row["y"]
        if isinstance(got, Logic):
            assert (got.bits, got.xmask) == (want.bits, want.xmask)
        else:
            assert want.xmask == 0 and got == want.bits


class TestPlanEligibility:
    def test_unknown_port_is_rejected(self):
        design = build(COMB_V)
        assert batch.plan_combinational(
            design, [("a", 8), ("nope", 8)], [("y", 8)]
        ) is None

    def test_output_aliasing_input_is_rejected(self):
        design = build(COMB_V)
        assert batch.plan_combinational(
            design, [("a", 8), ("b", 8)], [("a", 8)]
        ) is None

    def test_gated_register_is_not_recognized(self):
        # `else if (en)` is outside the reset/else shape the SyncUpdate
        # recognizer accepts — the design must fall back to the kernel
        design = build(GATED_SEQ_V)
        assert batch.plan_sequential(
            design, [("en", 1)], [("q", 8)]
        ) is None

    def test_clocked_design_is_not_combinational(self):
        design = build(SEQ_V)
        assert batch.plan_combinational(
            design, [("d", 8)], [("q", 8)]
        ) is None


class TestSimulateSequences:
    def _expected(self, lanes):
        rows = []
        q = [0] * len(lanes)
        length = len(lanes[0])
        for t in range(length):
            row = {"q": [], "dd": []}
            for lane, seq in enumerate(lanes):
                d = seq[t]["d"]
                q[lane] = (q[lane] + d) & 0xFF
                row["q"].append(q[lane])
                row["dd"].append((d ^ q[lane]) & 0xFF)
            rows.append(row)
        return rows

    def test_transposed_lanes_match_reference(self):
        design = build(SEQ_V)
        lanes = [
            [{"d": 1}, {"d": 2}, {"d": 3}, {"d": 250}],
            [{"d": 255}, {"d": 255}, {"d": 0}, {"d": 9}],
        ]
        with _pin():
            result = batch.simulate_sequences(
                design, lanes,
                inputs=[("d", 8)], outputs=[("q", 8), ("dd", 8)],
                observe_reset=True,
            )
        assert result is not None
        reset_row, cycles = result
        assert reset_row == {"q": [0, 0], "dd": [0, 0]}
        want = self._expected(lanes)
        for got, expected in zip(cycles, want):
            assert got == expected

    def test_list_mode_matches(self):
        lanes = [[{"d": 7}, {"d": 200}, {"d": 13}]]
        with _pin():
            _, fast = batch.simulate_sequences(
                build(SEQ_V), lanes, inputs=[("d", 8)], outputs=[("q", 8)]
            )
        with _pin(REPRO_SIM_NO_NUMPY="1"):
            _, slow = batch.simulate_sequences(
                build(SEQ_V), lanes, inputs=[("d", 8)], outputs=[("q", 8)]
            )
        assert fast == slow

    def test_x_stimulus_is_rejected(self):
        design = build(SEQ_V)
        plan = batch.plan_sequential(design, [("d", 8)], [("q", 8)])
        assert plan is not None
        with pytest.raises(ValueError):
            batch.run_sequences(
                plan, [[{"d": Logic.from_string("xxxxxxxx")}]]
            )

    def test_unequal_lane_lengths_are_rejected(self):
        design = build(SEQ_V)
        plan = batch.plan_sequential(design, [("d", 8)], [("q", 8)])
        with pytest.raises(ValueError):
            batch.run_sequences(plan, [[{"d": 1}], [{"d": 1}, {"d": 2}]])


def _comb_spec():
    return DesignSpec(
        name="batchcase",
        ports=(
            PortSpec("a", 8, "in"),
            PortSpec("b", 8, "in"),
            PortSpec("y", 8, "out"),
        ),
        clocked=False,
    )


def _seq_spec():
    return DesignSpec(
        name="seqcase",
        ports=(PortSpec("d", 8, "in"), PortSpec("q", 8, "out")),
        clocked=True,
    )


def _seq_model():
    def step(state, inputs):
        nxt = (state + inputs["d"]) & 0xFF
        return nxt, {"q": nxt}

    return SeqModel(reset=lambda: 0, step=step)


class TestBundleRegistry:
    def test_generated_testbench_registers_its_bundle(self):
        spec = _comb_spec()
        model = CombModel(lambda v: {"y": v["a"] ^ v["b"]})
        text = tbgen.make_testbench(spec, model, Language.VERILOG, "bundle-a")
        bundle = tbgen.stimulus_bundle(text)
        assert bundle is not None
        assert not bundle.clocked
        assert bundle.language is Language.VERILOG
        assert len(bundle.stimulus) == len(bundle.expected)
        for vector, expected in zip(bundle.stimulus, bundle.expected):
            assert expected == {"y": (vector["a"] ^ vector["b"]) & 0xFF}

    def test_unknown_text_has_no_bundle(self):
        assert tbgen.stimulus_bundle("module tb; endmodule") is None

    def test_clocked_vectors_replace_and_ignore_extra(self):
        """Regression: witness replay must not be diluted by extra_vectors."""
        spec = _seq_spec()
        replacement = [{"d": 9}, {"d": 1}]
        text = tbgen.make_testbench(
            spec, _seq_model(), Language.VERILOG, "bundle-seq",
            vectors=replacement,
            extra_vectors=[{"d": 77}],
        )
        bundle = tbgen.stimulus_bundle(text)
        assert bundle is not None and bundle.clocked
        assert list(bundle.stimulus) == replacement
        assert "77" not in text

    def test_comb_vectors_replace_and_ignore_extra(self):
        spec = _comb_spec()
        model = CombModel(lambda v: {"y": v["a"] ^ v["b"]})
        replacement = [{"a": 3, "b": 5}]
        text = tbgen.make_testbench(
            spec, model, Language.VERILOG, "bundle-b",
            vectors=replacement,
            extra_vectors=[{"a": 77, "b": 77}],
        )
        bundle = tbgen.stimulus_bundle(text)
        assert list(bundle.stimulus) == replacement
        assert "77" not in text


def _bundle_files(language, model_fn, pid):
    spec = _comb_spec()
    model = CombModel(model_fn)
    tb = tbgen.make_testbench(spec, model, language, pid)
    ext = language.file_extension
    dut = COMB_V if language is Language.VERILOG else COMB_VHD
    return [
        HdlFile(f"top_module{ext}", dut, language),
        HdlFile(f"tb{ext}", tb, language),
    ]


COMB_VHD = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity top_module is
    port (a : in unsigned(7 downto 0);
          b : in unsigned(7 downto 0);
          y : out unsigned(7 downto 0));
end entity;
architecture rtl of top_module is
    signal t : unsigned(7 downto 0);
begin
    t <= a xor b;
    y <= t + a;
end architecture;
"""


class TestToolchainRouting:
    def _counters(self, tracer):
        return {
            name: tracer.metrics.counter(f"sim.{name}").value
            for name in ("batch_calls", "batch_vectors", "batch_demotions")
        }

    @contextmanager
    def _tracer(self):
        from repro.obs.sink import MemorySink
        from repro.obs.trace import Tracer, get_tracer, set_tracer

        previous = get_tracer()
        tracer = Tracer(MemorySink())
        set_tracer(tracer)
        try:
            yield tracer
        finally:
            set_tracer(previous)

    @pytest.mark.parametrize("language", list(Language))
    def test_eligible_bundle_routes_through_batch(self, language):
        files = _bundle_files(
            language, lambda v: {"y": (v["a"] ^ v["b"]) + v["a"]}, "route-ok"
        )
        with self._tracer() as tracer, _pin():
            result = Toolchain().simulate(files, "tb")
        assert result.ok, result.log
        assert any("All tests passed" in l for l in result.output_lines)
        counters = self._counters(tracer)
        assert counters["batch_calls"] == 1
        assert counters["batch_vectors"] == len(
            tbgen.stimulus_bundle(files[1].text).stimulus
        )
        assert counters["batch_demotions"] == 0

    def test_no_batch_flag_keeps_the_kernel(self):
        files = _bundle_files(
            Language.VERILOG,
            lambda v: {"y": (v["a"] ^ v["b"]) + v["a"]}, "route-off",
        )
        with self._tracer() as tracer, _pin(REPRO_SIM_NO_BATCH="1"):
            result = Toolchain().simulate(files, "tb")
        assert result.ok, result.log
        assert self._counters(tracer)["batch_calls"] == 0

    @pytest.mark.parametrize("language", list(Language))
    def test_failing_cases_report_identically(self, language):
        # a deliberately wrong model: the batch tier must synthesize the
        # exact failure lines the event kernel prints for the same bundle
        files = _bundle_files(
            language, lambda v: {"y": v["a"] & v["b"]}, "route-fail"
        )

        def observables(result):
            return (
                result.ok,
                tuple(result.output_lines),
                result.log,
                result.end_time,
                result.finished_cleanly,
                result.runtime_error,
            )

        with _pin():
            batched = Toolchain().simulate(files, "tb")
        with _pin(REPRO_SIM_NO_BATCH="1"):
            kernel = Toolchain().simulate(files, "tb")
        assert any("Failed" in l for l in batched.output_lines)
        assert observables(batched) == observables(kernel)

    def test_ineligible_dut_falls_back(self):
        # the en-gated register is not batch-recognizable; the toolchain
        # must fall back to the kernel and still succeed
        spec = DesignSpec(
            name="gated",
            ports=(PortSpec("en", 1, "in"), PortSpec("q", 8, "out")),
            clocked=True,
        )

        def step(state, inputs):
            nxt = (state + 1) & 0xFF if inputs["en"] else state
            return nxt, {"q": nxt}

        tb = tbgen.make_testbench(
            spec, SeqModel(reset=lambda: 0, step=step),
            Language.VERILOG, "gated-case",
        )
        files = [
            HdlFile("top_module.v", GATED_SEQ_V, Language.VERILOG),
            HdlFile("tb.v", tb, Language.VERILOG),
        ]
        with self._tracer() as tracer, _pin():
            result = Toolchain().simulate(files, "tb")
        assert result.ok, result.log
        assert any("All tests passed" in l for l in result.output_lines)
        assert self._counters(tracer)["batch_calls"] == 0


class TestCompileMemo:
    def test_repeat_compile_returns_equal_copies(self):
        files = [HdlFile("t.v", COMB_V, Language.VERILOG)]
        toolchain = Toolchain()
        first = toolchain.compile(files, "top_module")
        second = toolchain.compile(files, "top_module")
        assert first.ok and second.ok
        assert first is not second
        assert first.log == second.log
        assert first.tool_seconds == second.tool_seconds

    def test_distinct_sources_do_not_collide(self):
        toolchain = Toolchain()
        good = toolchain.compile(
            [HdlFile("t.v", COMB_V, Language.VERILOG)], "top_module"
        )
        bad = toolchain.compile(
            [HdlFile("t.v", "module top_module(; endmodule",
                     Language.VERILOG)],
            "top_module",
        )
        assert good.ok and not bad.ok
