"""Micro-benchmarks of the substrate: frontends, simulator, toolchain.

These track the cost of the pieces everything else is built on — useful for
spotting regressions when extending the language subsets.

``test_sim_tier_speedup`` additionally writes ``BENCH_sim.json`` (best-of-N
timings of the two simulation paths — the event kernel and the batch tier —
on a 512-vector generated testbench in both languages, each timed call a
simulate-stage miss of the toolchain's result store) and gates on the batch
tier staying measurably faster than the kernel; CI uploads the JSON as an
artifact. The report defaults to
``benchmarks/BENCH_sim.json`` (next to this file, not the CWD);
``BENCH_SIM_JSON`` overrides the path but must stay inside ``benchmarks/``.

``test_frontend_throughput`` writes ``BENCH_frontend.json`` the same way
(``BENCH_FRONTEND_JSON`` overrides the path): best-of-N times to lex, and
to lex and parse, the suite's golden testbenches per language. It has no
floor; ``repro bench check`` compares it with its baseline warn-only.
"""

import json
import os
import random
import time
from pathlib import Path

from repro.designs.model import CombModel, DesignSpec, PortSpec
from repro.designs.tbgen import make_testbench
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.evalsuite.suite import build_suite
from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile
from repro.llm.profiles import CLAUDE_35_SONNET
from repro.llm.synthetic import build_defect_plan
from repro.verilog.lexer import VerilogLexer
from repro.verilog.parser import parse_verilog
from repro.vhdl.lexer import VhdlLexer
from repro.vhdl.parser import parse_vhdl
from tests.simpaths import plain_text

COUNTER_V = """
module counter #(parameter WIDTH = 8) (
    input clk, input rst, input en,
    output reg [WIDTH-1:0] count
);
    always @(posedge clk) begin
        if (rst) count <= 0;
        else if (en) count <= count + 1;
    end
endmodule
"""

TB_V = """
module tb;
    reg clk, rst, en; wire [7:0] count;
    counter dut(.clk(clk), .rst(rst), .en(en), .count(count));
    initial begin
        clk = 0; rst = 1; en = 0;
        repeat (2) begin #5 clk = 1; #5 clk = 0; end
        rst = 0; en = 1;
        repeat (200) begin #5 clk = 1; #5 clk = 0; end
        if (count == 8'd200) $display("All tests passed successfully!");
        $finish;
    end
endmodule
"""

COUNTER_VHD = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity counter is
    port (clk : in std_logic; rst : in std_logic; en : in std_logic;
          count : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of counter is
    signal cnt : unsigned(7 downto 0);
begin
    process(clk) begin
        if rising_edge(clk) then
            if rst = '1' then cnt <= (others => '0');
            elsif en = '1' then cnt <= cnt + 1; end if;
        end if;
    end process;
    count <= std_logic_vector(cnt);
end architecture;
"""

#: a 12-stage combinational chain, timed against a generated 512-vector
#: testbench, a registered golden testbench that the batch tier runs
COMB_V = """
module top_module(input [15:0] a, input [15:0] b, output [15:0] y);
    wire [15:0] t0 = a ^ b;
    wire [15:0] t1 = t0 + a;
    wire [15:0] t2 = t1 & 16'hBEEF;
    wire [15:0] t3 = (t2 << 1) ^ t1;
    wire [15:0] t4 = t3 | (t0 >> 2);
    wire [15:0] t5 = t4 + t2;
    wire [15:0] t6 = t5 ^ 16'h5A5A;
    wire [15:0] t7 = (t6 & t3) + t4;
    wire [15:0] t8 = t7 ^ (t5 << 3);
    wire [15:0] t9 = t8 + t6;
    wire [15:0] t10 = (t9 >> 1) ^ t7;
    wire [15:0] t11 = t10 + t8;
    assign y = t11 ^ t9;
endmodule
"""

COMB_VHD = """
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity top_module is
    port (a : in unsigned(15 downto 0);
          b : in unsigned(15 downto 0);
          y : out unsigned(15 downto 0));
end entity;
architecture rtl of top_module is
    signal t0, t1, t2, t3, t4, t5 : unsigned(15 downto 0);
    signal t6, t7, t8, t9, t10, t11 : unsigned(15 downto 0);
begin
    t0 <= a xor b;
    t1 <= t0 + a;
    t2 <= t1 and x"BEEF";
    t3 <= shift_left(t2, 1) xor t1;
    t4 <= t3 or shift_right(t0, 2);
    t5 <= t4 + t2;
    t6 <= t5 xor x"5A5A";
    t7 <= (t6 and t3) + t4;
    t8 <= t7 xor shift_left(t5, 3);
    t9 <= t8 + t6;
    t10 <= shift_right(t9, 1) xor t7;
    t11 <= t10 + t8;
    y <= t11 xor t9;
end architecture;
"""

_BATCH_MASK = (1 << 16) - 1


def _chain(vector):
    """Python mirror of the 12-stage comb chain (mod 2**16)."""
    a, b = vector["a"], vector["b"]
    t0 = a ^ b
    t1 = (t0 + a) & _BATCH_MASK
    t2 = t1 & 0xBEEF
    t3 = ((t2 << 1) ^ t1) & _BATCH_MASK
    t4 = t3 | (t0 >> 2)
    t5 = (t4 + t2) & _BATCH_MASK
    t6 = t5 ^ 0x5A5A
    t7 = ((t6 & t3) + t4) & _BATCH_MASK
    t8 = (t7 ^ (t5 << 3)) & _BATCH_MASK
    t9 = (t8 + t6) & _BATCH_MASK
    t10 = (t9 >> 1) ^ t7
    t11 = (t10 + t8) & _BATCH_MASK
    return {"y": t11 ^ t9}


def _batch_files(language):
    """DUT + generated 512-vector testbench for the batch micro-benchmark."""
    spec = DesignSpec(
        name="batchcomb",
        ports=(
            PortSpec("a", 16, "in"),
            PortSpec("b", 16, "in"),
            PortSpec("y", 16, "out"),
        ),
        clocked=False,
    )
    rng = random.Random(20260809)
    vectors = [
        {"a": rng.getrandbits(16), "b": rng.getrandbits(16)}
        for _ in range(512)
    ]
    tb = make_testbench(
        spec, CombModel(_chain), language, "batchcomb", vectors=vectors
    )
    dut = COMB_V if language is Language.VERILOG else COMB_VHD
    ext = language.file_extension
    return [
        HdlFile(f"top_module{ext}", dut, language),
        HdlFile(f"tb{ext}", tb, language),
    ]


def test_parse_verilog_module(benchmark):
    unit, collector = benchmark(parse_verilog, COUNTER_V)
    assert not collector.has_errors


def test_parse_vhdl_entity(benchmark):
    design, collector = benchmark(parse_vhdl, COUNTER_VHD)
    assert not collector.has_errors


def _simulate_miss(toolchain, files, top):
    """One simulate() that misses the store's simulate stage alone.

    ``max_sim_time`` is in the simulate key but not in the compile key, so
    raising it by one makes the next call re-run the simulation while
    parse, analysis and compile entries still hit.
    """
    toolchain.max_sim_time += 1
    return toolchain.simulate(files, top)


def _assert_simulate_misses(toolchain, warm):
    """Every call since the *warm* stats snapshot missed simulate alone."""
    delta = {
        stage: stats.delta(warm[stage])
        for stage, stats in toolchain.store.stats.items()
    }
    assert delta["simulate"].hits == 0 and delta["simulate"].misses > 0
    for stage in ("parse", "analyze", "compile"):
        assert delta[stage].misses == 0, (stage, delta[stage])
    return delta["simulate"].misses


def _warm_stats(toolchain):
    return {
        stage: stats.snapshot() for stage, stats in toolchain.store.stats.items()
    }


def test_compile_verilog(benchmark):
    files = [HdlFile("c.v", COUNTER_V + TB_V, Language.VERILOG)]

    def cold_compile():
        toolchain = Toolchain()
        result = toolchain.compile(files, "tb")
        assert toolchain.store.stats["compile"].misses == 1
        return result

    result = benchmark(cold_compile)
    assert result.ok


def test_simulate_200_cycles(benchmark):
    toolchain = Toolchain()
    files = [HdlFile("c.v", COUNTER_V + TB_V, Language.VERILOG)]
    assert toolchain.simulate(files, "tb").ok
    warm = _warm_stats(toolchain)
    result = benchmark(_simulate_miss, toolchain, files, "tb")
    _assert_simulate_misses(toolchain, warm)
    assert result.ok
    assert any("All tests passed" in l for l in result.output_lines)


def test_build_suite_cached(benchmark):
    suite = benchmark(build_suite)
    assert len(suite) == 156


def test_build_defect_plan(benchmark, full_suite):
    plans = benchmark(
        build_defect_plan, CLAUDE_35_SONNET, Language.VERILOG, full_suite
    )
    assert len(plans) == 156


def _best_ms(files, top, *, reps=20):
    """Best-of-*reps* wall time of one simulate() store miss, in milliseconds.

    The files pick the path: a generated testbench takes the batch tier,
    its plain text (:func:`~tests.simpaths.plain_text`) the event kernel.
    A fresh Toolchain per path; one warm-up call fills its parse, analysis
    and compile entries. Every timed rep then misses the simulate stage
    alone (see :func:`_simulate_miss`), so the measurement is the
    elaborate+simulate cost the sweeps actually pay per run, never a store
    hit: on the batch path that is the DUT's elaboration, its plan and its
    run.
    """
    toolchain = Toolchain()
    result = toolchain.simulate(files, top)
    assert result.ok, result.log
    assert any("All tests passed" in l for l in result.output_lines), (
        result.log
    )
    warm = _warm_stats(toolchain)
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        _simulate_miss(toolchain, files, top)
        best = min(best, time.perf_counter() - started)
    assert _assert_simulate_misses(toolchain, warm) == reps
    return best * 1000.0


#: timed reps of the kernel path: each takes about a second, so five keep
#: the benchmark short while the best of them is still stable
KERNEL_REPS = 5

#: the batch tier must beat the event kernel by at least this factor on
#: the 512-vector generated-testbench designs. Measured batch_speedups are
#: several dozen (one dataflow-ordered pass per vector replaces the whole
#: event-driven replay), so 5x only trips when the testbench stops
#: reaching the batch tier or the planner stops accepting the design.
SIM_BATCH_SPEEDUP_FLOOR = 5.0


def _report_path(tier="sim"):
    """Resolve the BENCH_<tier>.json output path, refusing escapes.

    The report must land inside ``benchmarks/`` so a stray override such as
    ``BENCH_SIM_JSON`` (or a CWD-relative one) can't scatter tracked-looking
    artifacts around the repo root again.
    """
    bench_dir = Path(__file__).resolve().parent
    variable = f"BENCH_{tier.upper()}_JSON"
    default = bench_dir / f"BENCH_{tier}.json"
    out = Path(os.environ.get(variable, default)).resolve()
    if bench_dir not in out.parents:
        raise RuntimeError(
            f"{variable} must point inside {bench_dir}, got {out}"
        )
    return out


def test_sim_tier_speedup():
    """The batch tier beats the event kernel; record BENCH_sim.json."""
    cases = {
        "verilog_batch": (_batch_files(Language.VERILOG), "tb"),
        "vhdl_batch": (_batch_files(Language.VHDL), "tb"),
    }
    report = {}
    for name, (files, top) in cases.items():
        kernel_ms = _best_ms(plain_text(files), top, reps=KERNEL_REPS)
        batch_ms = _best_ms(files, top)
        report[name] = {
            "kernel_ms": round(kernel_ms, 3),
            "batch_ms": round(batch_ms, 3),
            "batch_speedup": round(kernel_ms / batch_ms, 2),
        }
    # an absolute minimum enforced by ``repro bench check``; relative drift
    # gating alone would let the speedup ratchet down one tolerance-width
    # per baseline refresh
    report["floors"] = {"batch_speedup": SIM_BATCH_SPEEDUP_FLOOR}
    out = _report_path()
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nsim tier speedups ({out}):")
    for name in cases:
        entry = report[name]
        print(
            f"  {name}: kernel {entry['kernel_ms']:.2f} ms, "
            f"batch {entry['batch_ms']:.2f} ms "
            f"({entry['batch_speedup']:.2f}x over the kernel)"
        )
    for name in cases:
        assert report[name]["batch_speedup"] >= SIM_BATCH_SPEEDUP_FLOOR, (
            f"{name}: batch tier only {report[name]['batch_speedup']}x "
            f"faster than the event kernel "
            f"(floor {SIM_BATCH_SPEEDUP_FLOOR}x) — did the testbench stop "
            "reaching the batch tier, or the planner refuse the design?"
        )


def test_golden_tb_simulation(benchmark, full_suite):
    problem = full_suite.get("counter8")
    toolchain = Toolchain()
    files = [
        HdlFile("top_module.v", problem.reference[Language.VERILOG],
                Language.VERILOG),
        HdlFile("tb.v", problem.golden_tb[Language.VERILOG], Language.VERILOG),
    ]
    assert toolchain.simulate(files, "tb").ok
    warm = _warm_stats(toolchain)
    result = benchmark(_simulate_miss, toolchain, files, "tb")
    _assert_simulate_misses(toolchain, warm)
    assert result.ok


#: timed passes over the golden testbenches per language and stage; the
#: fastest is reported, which filters out a shared host's slow passes
FRONTEND_REPS = 5

_FRONTENDS = {
    Language.VERILOG: (VerilogLexer, parse_verilog),
    Language.VHDL: (VhdlLexer, parse_vhdl),
}


def _best_seconds(work, texts, reps):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        for text in texts:
            work(text)
        best = min(best, time.perf_counter() - started)
    return best


def test_frontend_throughput(full_suite):
    """Lex, and lex and parse, the golden testbenches; BENCH_frontend.json.

    ``lex_ms`` times ``tokenize`` alone; ``parse_ms`` times the whole
    ``parse_*`` call, which lexes through the same ``tokenize``. The MB/s
    leaves are informational.
    """
    report = {}
    for language, (lexer, parse) in _FRONTENDS.items():
        texts = [problem.golden_tb[language] for problem in full_suite]
        megabytes = sum(map(len, texts)) / 1e6
        for text in texts:
            _, collector = parse(text)
            assert not collector.has_errors, collector.diagnostics[:3]
        lex_s = _best_seconds(
            lambda text: lexer(SourceFile("tb", text),
                               DiagnosticCollector()).tokenize(),
            texts, FRONTEND_REPS,
        )
        parse_s = _best_seconds(parse, texts, FRONTEND_REPS)
        report[language.value] = {
            "testbenches": len(texts),
            "megabytes": round(megabytes, 3),
            "lex_ms": round(lex_s * 1000.0, 3),
            "parse_ms": round(parse_s * 1000.0, 3),
            "lex_mb_per_sec": round(megabytes / lex_s, 3),
            "parse_mb_per_sec": round(megabytes / parse_s, 3),
        }
    out = _report_path("frontend")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nfrontend throughput ({out}):")
    for name, entry in report.items():
        print(
            f"  {name}: {entry['testbenches']} testbenches, "
            f"{entry['megabytes']:.2f} MB; lex {entry['lex_ms']:.0f} ms "
            f"({entry['lex_mb_per_sec']:.2f} MB/s), lex + parse "
            f"{entry['parse_ms']:.0f} ms ({entry['parse_mb_per_sec']:.2f} MB/s)"
        )
