"""Result-store tests: stored toolchain results equal cold results.

The corpus is generated from real suite problems with the suite's own
mutation catalogs (``repro.designs.mutations``), so it covers clean
sources, syntax-broken sources, and functionally-wrong-but-compiling
sources in both languages.
"""

import pytest
from hypothesis import given, strategies as st

import repro.eda.toolchain as toolchain_module
from repro.designs.mutations import MutationError, apply_mutation
from repro.designs.tbgen import make_testbench
from repro.eda.toolchain import (
    MISS,
    STAGES,
    CacheStats,
    HdlFile,
    Language,
    ResultStore,
    Toolchain,
)
from repro.evalsuite.suite import build_suite
from repro.qa.oracle import QaCase, case_sources
from repro.qa.spec import generate_spec
from repro.obs import (
    NullSink,
    Tracer,
    aggregate_records,
    configure_tracing,
    get_tracer,
    read_trace,
    set_tracer,
)
from tests.simpaths import plain_text, simulate

CORPUS_PROBLEMS = 6


def compile_fields(result):
    return (
        result.ok,
        result.log,
        [str(d) for d in result.diagnostics],
        result.error_count,
        result.tool_seconds,
    )


def sim_fields(result):
    return (
        result.ok,
        result.log,
        result.output_lines,
        result.end_time,
        result.finished_cleanly,
        result.runtime_error,
        result.tool_seconds,
        None if result.compile_result is None
        else compile_fields(result.compile_result),
    )


def mutated_corpus(language):
    """(files, top) pairs: clean references plus every catalogued defect."""
    suite = build_suite().head(CORPUS_PROBLEMS)
    ext = language.file_extension
    for problem in suite:
        reference = problem.reference[language]
        testbench = problem.golden_tb[language]
        sources = [reference]
        for mutation in (
            problem.syntax_mutations[language]
            + problem.functional_mutations[language]
        ):
            try:
                sources.append(apply_mutation(reference, mutation))
            except MutationError:  # pragma: no cover - catalog is validated
                continue
        for source in sources:
            files = [
                HdlFile(f"top_module{ext}", source, language),
                HdlFile(f"tb{ext}", testbench, language),
            ]
            yield files, "tb"


class TestCachedEqualsUncached:
    """A result served by a warm store equals a fresh toolchain's result.

    The shared toolchain sees the whole corpus, so besides its own repeats
    it also serves parse and analysis entries across corpus items (every
    mutant shares its problem's testbench)."""

    @pytest.mark.parametrize("language", list(Language))
    def test_compile_corpus(self, language):
        shared = Toolchain()
        for files, top in mutated_corpus(language):
            cold = Toolchain().compile(files, top)
            first = shared.compile(files, top)  # populates
            warm = shared.compile(files, top)  # served by the store
            assert compile_fields(first) == compile_fields(cold)
            assert compile_fields(warm) == compile_fields(cold)
        assert shared.cache_stats.hits > 0
        assert shared.store.stats["parse"].hits > 0

    @pytest.mark.parametrize("language", list(Language))
    def test_simulate_corpus(self, language):
        shared = Toolchain()
        for files, top in mutated_corpus(language):
            cold = Toolchain().simulate(files, top)
            first = shared.simulate(files, top)
            warm = shared.simulate(files, top)
            assert sim_fields(first) == sim_fields(cold)
            assert sim_fields(warm) == sim_fields(cold)
        assert shared.cache_stats.hits > 0
        assert shared.store.stats["simulate"].hits > 0

    def test_cached_result_is_isolated_from_caller_mutation(self):
        toolchain = Toolchain()
        files = [HdlFile(
            "top_module.v",
            "module top_module(input a, output y); assign y = a; endmodule",
            Language.VERILOG,
        )]
        first = toolchain.compile(files, "top_module")
        first.diagnostics.append("poison")
        first.ok = False
        second = toolchain.compile(files, "top_module")
        assert second.ok
        assert second.diagnostics == []

    def test_simulate_hit_is_isolated_from_caller_mutation(self):
        toolchain = Toolchain()
        files = [
            HdlFile("top_module.v", AND_GATE, Language.VERILOG),
            HdlFile("tb.v", TB, Language.VERILOG),
        ]
        want = sim_fields(Toolchain().simulate(files, "tb"))
        first = toolchain.simulate(files, "tb")
        first.output_lines.append("poison")
        first.compile_result.diagnostics.append("poison")
        first.compile_result.ok = False
        second = toolchain.simulate(files, "tb")
        assert toolchain.store.stats["simulate"].hits == 1
        assert sim_fields(second) == want


AND_GATE = (
    "module top_module(input a, input b, output y);"
    " assign y = a & b; endmodule"
)
OR_GATE = (
    "module top_module(input a, input b, output y);"
    " assign y = a | b; endmodule"
)
TB = """
module tb;
    reg a, b; wire y;
    top_module dut(.a(a), .b(b), .y(y));
    initial begin
        a = 1; b = 0; #1;
        if (y === 1'b0) $display("All tests passed successfully!");
        else $display("Test Case 1 Failed");
        $finish;
    end
endmodule
"""


class TestNoCollisions:
    def test_same_log_different_sources_do_not_collide(self):
        """AND and OR compile to byte-identical (clean) logs; a store keyed
        on rendered output would collapse them. Keys come from source
        content, so simulation still tells them apart warm."""
        toolchain = Toolchain()
        and_files = [HdlFile("top_module.v", AND_GATE, Language.VERILOG)]
        or_files = [HdlFile("top_module.v", OR_GATE, Language.VERILOG)]
        assert (
            toolchain.compile(and_files, "top_module").log
            == toolchain.compile(or_files, "top_module").log
        )
        sim_and = toolchain.simulate(
            and_files + [HdlFile("tb.v", TB, Language.VERILOG)], "tb"
        )
        sim_or = toolchain.simulate(
            or_files + [HdlFile("tb.v", TB, Language.VERILOG)], "tb"
        )
        # warm replay must preserve the distinction
        sim_and_warm = toolchain.simulate(
            and_files + [HdlFile("tb.v", TB, Language.VERILOG)], "tb"
        )
        sim_or_warm = toolchain.simulate(
            or_files + [HdlFile("tb.v", TB, Language.VERILOG)], "tb"
        )
        assert toolchain.store.stats["simulate"].hits == 2
        assert any("All tests passed" in l for l in sim_and_warm.output_lines)
        assert any("Failed" in l for l in sim_or_warm.output_lines)
        assert sim_fields(sim_and_warm) == sim_fields(sim_and)
        assert sim_fields(sim_or_warm) == sim_fields(sim_or)

    def test_key_distinguishes_every_input_component(self):
        files = [HdlFile("a.v", "module a; endmodule", Language.VERILOG)]
        base = ResultStore.key("compile", files, "a")
        for stage in STAGES:
            if stage != "compile":
                assert ResultStore.key(stage, files, "a") != base
        assert ResultStore.key("compile", files, "b") != base
        renamed = [HdlFile("b.v", "module a; endmodule", Language.VERILOG)]
        assert ResultStore.key("compile", renamed, "a") != base
        retyped = [HdlFile("a.v", "module a; endmodule", Language.VHDL)]
        assert ResultStore.key("compile", retyped, "a") != base
        assert ResultStore.key("compile", files, "a", extra=(1,)) != base
        # boundary shifts between fields must not alias
        shifted = [HdlFile("a.vm", "odule a; endmodule", Language.VERILOG)]
        assert ResultStore.key("compile", shifted, "a") != base
        assert (
            ResultStore.key("compile", files, "a", extra=("x",))
            != ResultStore.key("compile", files, "ax")
        )


_KEY_TEXT = st.text(
    alphabet="module tb;endcafe\n ()01", min_size=0, max_size=40
)


@st.composite
def _key_inputs(draw):
    """One full key input: stage, files (name/text/language), top, extra."""
    stage = draw(st.sampled_from(STAGES))
    top = draw(st.sampled_from(["top_module", "tb", "t", ""]))
    extra = draw(st.sampled_from([
        (), (200_000,), (100,), (200_000, False, False, True, False),
        ("comb",), ("comb", "a:1:in"),
    ]))
    count = draw(st.integers(0, 3))
    files = []
    for index in range(count):
        name = draw(st.sampled_from([f"f{index}.v", f"f{index}.vhd", "m.v"]))
        language = draw(st.sampled_from(list(Language)))
        files.append(HdlFile(name, draw(_KEY_TEXT), language))
    return stage, tuple(files), top, extra


class TestKeyInjectivity:
    """Property: the store key is injective over everything it must encode.

    Two inputs get the same key if and only if they are identical in stage,
    top, extra inputs (compared as their ``str``, which is how they are
    hashed) and the exact sequence of (name, text, language) files —
    permuting file order, switching a language, or renaming the top all
    produce distinct keys even when every byte of source text is the same.
    """

    @staticmethod
    def _descriptor(stage, files, top, extra):
        return (
            stage,
            tuple((f.name, f.text, f.language) for f in files),
            top,
            tuple(map(str, extra)),
        )

    @given(_key_inputs(), _key_inputs())
    def test_equal_keys_iff_equal_inputs(self, one, other):
        key_one = ResultStore.key(one[0], list(one[1]), one[2], one[3])
        key_other = ResultStore.key(
            other[0], list(other[1]), other[2], other[3]
        )
        same = self._descriptor(*one) == self._descriptor(*other)
        assert (key_one == key_other) == same

    @given(_key_inputs())
    def test_structured_variants_never_collide(self, base):
        stage, files, top, extra = base
        keys = {self._descriptor(stage, files, top, extra):
                ResultStore.key(stage, list(files), top, extra)}

        def probe(v_stage, v_files, v_top, v_extra=extra):
            descriptor = self._descriptor(v_stage, v_files, v_top, v_extra)
            key = ResultStore.key(v_stage, list(v_files), v_top, v_extra)
            if descriptor in keys:
                assert keys[descriptor] == key
            else:
                assert key not in keys.values()
                keys[descriptor] = key

        for other_stage in STAGES:
            probe(other_stage, files, top)
        probe(stage, files, top + "_x")
        probe(stage, files, top, extra + ("x",))
        probe(stage, tuple(reversed(files)), top)
        for index, hdl in enumerate(files):
            flipped = (
                Language.VHDL
                if hdl.language is Language.VERILOG
                else Language.VERILOG
            )
            variant = (
                files[:index]
                + (HdlFile(hdl.name, hdl.text, flipped),)
                + files[index + 1:]
            )
            probe(stage, variant, top)
            renamed = (
                files[:index]
                + (HdlFile(hdl.name + "_r", hdl.text, hdl.language),)
                + files[index + 1:]
            )
            probe(stage, renamed, top)


class TestLruBound:
    def test_eviction_at_capacity(self, monkeypatch):
        # one compile of a fresh module stores three entries: its parse,
        # its analysis and its compile result
        monkeypatch.setattr(ResultStore, "MAX_ENTRIES", 6)
        toolchain = Toolchain()
        store = toolchain.store
        sources = {
            name: f"module {name}(input a, output y);"
                  f" assign y = a; endmodule"
            for name in ("m0", "m1", "m2")
        }

        def compile_one(name):
            return toolchain.compile(
                [HdlFile(f"{name}.v", sources[name], Language.VERILOG)], name
            )

        for name in ("m0", "m1", "m2"):
            compile_one(name)
        assert len(store) == 6
        # m0's three entries were the least recent: one eviction per stage
        assert {stage: store.stats[stage].evictions for stage in STAGES} == {
            "parse": 1, "analyze": 1, "compile": 1, "simulate": 0,
        }
        # m0 was evicted: compiling it again is a miss, m2 is still warm
        misses_before = store.stats["compile"].misses
        hits_before = store.stats["compile"].hits
        compile_one("m0")
        assert store.stats["compile"].misses == misses_before + 1
        assert store.stats["parse"].misses == 4
        compile_one("m2")
        assert store.stats["compile"].hits == hits_before + 1

    def test_lru_recency_order(self, monkeypatch):
        monkeypatch.setattr(ResultStore, "MAX_ENTRIES", 2)
        store = ResultStore()
        store.put(("parse", "a"), 1, 1)
        store.put(("parse", "b"), 2, 1)
        assert store.get(("parse", "a")) == 1  # refresh a; b is least recent
        store.put(("compile", "c"), 3, 1)
        assert store.get(("parse", "b")) is MISS
        assert store.get(("parse", "a")) == 1
        assert store.get(("compile", "c")) == 3
        assert store.stats["parse"].evictions == 1
        assert store.stats["compile"].evictions == 0

    def test_eviction_by_bytes(self, monkeypatch):
        monkeypatch.setattr(ResultStore, "MAX_BYTES", 100)
        store = ResultStore()
        store.put(("parse", "a"), "a", 40)
        store.put(("analyze", "b"), "b", 40)
        assert (len(store), store.nbytes) == (2, 80)
        store.put(("simulate", "c"), "c", 40)  # 120 > 100: a goes
        assert store.get(("parse", "a")) is MISS
        assert (len(store), store.nbytes) == (2, 80)
        # replacing an entry re-counts its bytes instead of adding them
        store.put(("simulate", "c"), "c2", 60)
        assert (len(store), store.nbytes) == (2, 100)
        assert store.get(("simulate", "c")) == "c2"
        # an entry over the bound on its own is not kept, and pushes out
        # everything older on its way
        store.put(("compile", "d"), "d", 101)
        assert (len(store), store.nbytes) == (0, 0)
        assert {stage: store.stats[stage].evictions for stage in STAGES} == {
            "parse": 1, "analyze": 1, "compile": 1, "simulate": 1,
        }

    def test_toolchain_respects_byte_bound(self, monkeypatch):
        monkeypatch.setattr(ResultStore, "MAX_BYTES", 4096)
        toolchain = Toolchain()
        for files, top in mutated_corpus(Language.VERILOG):
            toolchain.simulate(files, top)
            assert toolchain.store.nbytes <= 4096
        assert sum(
            stats.evictions for stats in toolchain.store.stats.values()
        ) > 0


class TestStatsAndToggles:
    def test_stats_delta_and_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        assert stats.lookups == 4
        delta = stats.delta(CacheStats(hits=1, misses=1))
        assert (delta.hits, delta.misses) == (2, 0)
        assert CacheStats().hit_rate == 0.0

    def test_store_always_on(self):
        toolchain = Toolchain()
        assert len(toolchain.store) == 0
        assert toolchain.cache_stats.lookups == 0
        files = [HdlFile("top_module.v", AND_GATE, Language.VERILOG)]
        toolchain.compile(files, "top_module")
        toolchain.compile(files, "top_module")
        assert len(toolchain.store) > 0
        stats = toolchain.cache_stats
        assert (stats.hits, stats.misses) == (1, 1)

    def test_cache_stats_count_compile_and_simulate_only(self):
        toolchain = Toolchain()
        files = [
            HdlFile("top_module.v", AND_GATE, Language.VERILOG),
            HdlFile("tb.v", TB, Language.VERILOG),
        ]
        toolchain.simulate(files, "tb")
        toolchain.simulate(files, "tb")
        store = toolchain.store.stats
        stats = toolchain.cache_stats
        assert stats.hits == store["compile"].hits + store["simulate"].hits
        assert stats.misses == (
            store["compile"].misses + store["simulate"].misses
        )
        assert store["parse"].lookups > 0  # counted, but not as cache.*


def _batch_files(language):
    """A generated design with its generated testbench, which carries its
    stimulus bundle, so it runs on the batch tier."""
    spec = generate_spec(0, 0)
    testbench = make_testbench(
        spec.design_spec(), spec.model(), language, spec.name
    )
    ext = language.file_extension
    return [
        HdlFile(
            f"top_module{ext}", case_sources(QaCase(spec=spec))[language],
            language,
        ),
        HdlFile(f"tb{ext}", testbench, language),
    ]


class TestPlainTextKeys:
    """A key is a function of the inputs alone: a testbench's plain text
    keys like the :class:`~repro.designs.tbgen.Testbench` it copies, so in
    one toolchain its simulate replays the batch result. In fresh
    toolchains the plain text takes the kernel, and the two results agree
    in every field, ``tool_seconds`` included, because the modeled cost
    does not depend on the path."""

    @pytest.mark.parametrize("language", list(Language))
    def test_plain_copy_is_a_store_hit(self, language):
        files = _batch_files(language)
        toolchain = Toolchain()
        batched = toolchain.simulate(files, "tb")
        replayed = toolchain.simulate(plain_text(files), "tb")
        stats = toolchain.store.stats["simulate"]
        assert (stats.hits, stats.misses) == (1, 1)
        assert sim_fields(replayed) == sim_fields(batched)

    @pytest.mark.parametrize("language", list(Language))
    def test_fresh_toolchains_agree_on_both_paths(self, language):
        files = _batch_files(language)
        batched, batch_calls = simulate(files)
        kernel, kernel_calls = simulate(plain_text(files))
        assert (batch_calls, kernel_calls) == (1, 0)
        assert sim_fields(kernel) == sim_fields(batched)


def _elaborations(monkeypatch, language):
    """The top of every elaboration the toolchain runs from now on."""
    name = {Language.VERILOG: "elaborate_verilog",
            Language.VHDL: "elaborate_vhdl"}[language]
    calls = []
    real = getattr(toolchain_module, name)

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(toolchain_module, name, counting)
    return calls


def _reachable(value):
    """Every object reachable from *value* through containers and
    instance attributes (``__dict__`` or ``__slots__``)."""
    seen, stack = set(), [value]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += obj
        else:
            stack += getattr(obj, "__dict__", {}).values()
            for slot in getattr(type(obj), "__slots__", ()):
                stack.append(getattr(obj, slot, None))


class TestOneElaborationPerMiss:
    """A kernel miss elaborates the set once; a batched miss elaborates the
    DUT alone, after the set's compile; and the store keeps no design."""

    @pytest.fixture
    def batch_calls(self):
        """The ``sim.batch_calls`` counter."""
        previous = get_tracer()
        set_tracer(Tracer(NullSink()))
        yield get_tracer().metrics.counter("sim.batch_calls")
        set_tracer(previous)

    @pytest.mark.parametrize("language", list(Language))
    def test_kernel_simulate_miss_elaborates_once(
        self, monkeypatch, language
    ):
        # the hand-written testbench carries no stimulus bundle, so the
        # run takes the event-kernel path
        if language is Language.VERILOG:
            files = [
                HdlFile("top_module.v", AND_GATE, Language.VERILOG),
                HdlFile("tb.v", TB, Language.VERILOG),
            ]
        else:
            files = [HdlFile("tb.vhd", VHDL_TB, Language.VHDL)]
        calls = _elaborations(monkeypatch, language)
        toolchain = Toolchain()
        result = toolchain.simulate(files, "tb")
        assert result.ok and result.output_lines
        assert calls == ["tb"]
        # a hit does not elaborate at all
        toolchain.simulate(files, "tb")
        assert calls == ["tb"]

    @pytest.mark.parametrize("language", list(Language))
    def test_batched_miss_elaborates_the_dut_alone(
        self, monkeypatch, language, batch_calls
    ):
        files = _batch_files(language)
        calls = _elaborations(monkeypatch, language)
        toolchain = Toolchain()
        # a compile miss elaborates the set; the batch tier, the DUT
        assert toolchain.simulate(files, "tb").ok
        assert batch_calls.value == 1
        assert calls == ["tb", "top_module"]
        # after a compile hit only the DUT is elaborated
        calls.clear()
        toolchain.max_sim_time += 1
        assert toolchain.simulate(files, "tb").ok
        assert batch_calls.value == 2
        assert toolchain.store.stats["compile"].hits == 1
        assert calls == ["top_module"]

    def test_store_holds_no_design_or_plan(self, batch_calls):
        from repro.sim.batch import Plan
        from repro.sim.runtime import Design

        toolchain = Toolchain()
        for language in Language:
            assert toolchain.simulate(_batch_files(language), "tb").ok
        assert batch_calls.value == 2
        # and one run on the kernel
        assert toolchain.simulate([
            HdlFile("top_module.v", AND_GATE, Language.VERILOG),
            HdlFile("tb.v", TB, Language.VERILOG),
        ], "tb").ok
        held = [
            obj for value, _ in toolchain.store._entries.values()
            for obj in _reachable(value)
        ]
        assert len(held) > len(toolchain.store)
        assert not [obj for obj in held if isinstance(obj, (Design, Plan))]

    @pytest.mark.parametrize("language", list(Language))
    def test_dropped_design_is_freed_without_the_cyclic_collector(
        self, language
    ):
        """No process build refers back to its process, and the elaborator
        keeps no design, so a compile-only design and its processes are
        freed by reference counting alone."""
        import gc
        import weakref

        from repro.hdl.diagnostics import DiagnosticCollector

        problem = next(iter(build_suite()))
        ext = language.file_extension
        files = [
            HdlFile(f"top_module{ext}", problem.reference[language], language),
            HdlFile(f"tb{ext}", problem.golden_tb[language], language),
        ]
        toolchain = Toolchain()
        toolchain._build_design(files, "tb", DiagnosticCollector())
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            design = toolchain._build_design(files, "tb", DiagnosticCollector())
            assert design is not None and design.processes
            alive = weakref.ref(design)
            del design
            assert alive() is None
            assert gc.collect() == 0  # no process was left in a cycle
        finally:
            if enabled:
                gc.enable()


VHDL_TB = """
library ieee;
use ieee.std_logic_1164.all;
entity tb is
end entity;
architecture sim of tb is
    signal a : std_logic := '1';
begin
    process
    begin
        wait for 1 ns;
        report "All tests passed successfully!";
        wait;
    end process;
end architecture;
"""


class TestStoreCounters:
    def test_counters_and_gauges_reach_trace(self, tmp_path):
        trace = tmp_path / "store.trace.jsonl"
        previous_tracer = get_tracer()
        try:
            tracer = configure_tracing(trace)
            toolchain = Toolchain()
            files = [
                HdlFile("top_module.v", AND_GATE, Language.VERILOG),
                HdlFile("tb.v", TB, Language.VERILOG),
            ]
            toolchain.simulate(files, "tb")
            toolchain.simulate(files, "tb")
            tracer.flush_metrics()
        finally:
            set_tracer(previous_tracer)
        merged = aggregate_records(read_trace(trace))
        for stage in STAGES:
            stats = toolchain.store.stats[stage]
            for event, value in (
                ("hit", stats.hits), ("miss", stats.misses),
                ("evict", stats.evictions),
            ):
                assert merged.counter(f"toolchain.store.{stage}.{event}") == (
                    value
                )
        assert merged.counter("toolchain.store.simulate.hit") == 1
        assert merged.counter("toolchain.store.parse.miss") == 2
        assert merged.metrics["toolchain.store.entries"]["value"] == len(
            toolchain.store
        )
        assert merged.metrics["toolchain.store.bytes"]["value"] == (
            toolchain.store.nbytes
        )


# -- per-unit analysis keys ---------------------------------------------------


def whole_set_analysis(files):
    """Parse and analysis diagnostics of a fresh whole-set pass, no store."""
    from repro.hdl.diagnostics import DiagnosticCollector
    from repro.hdl.source import SourceFile
    from repro.verilog.analyzer import VerilogAnalyzer
    from repro.verilog.parser import parse_verilog
    from repro.vhdl.analyzer import VhdlAnalyzer
    from repro.vhdl.parser import parse_vhdl

    collector = DiagnosticCollector()
    verilog = files[0].language is Language.VERILOG
    parse = parse_verilog if verilog else parse_vhdl
    units = []
    for hdl_file in files:
        tree, _ = parse(hdl_file.text, name=hdl_file.name, collector=collector)
        units.append((tree, SourceFile(hdl_file.name, hdl_file.text)))
    declared = {}
    for tree, _ in units:
        for unit in (tree.modules if verilog else tree.entities):
            declared[unit.name] = unit
    for tree, source in units:
        local = {u.name for u in (tree.modules if verilog else tree.entities)}
        library = {k: v for k, v in declared.items() if k not in local}
        analyzer = VerilogAnalyzer if verilog else VhdlAnalyzer
        analyzer(source, collector, library).analyze(tree)
    return collector.diagnostics


@pytest.fixture
def analysis_only(monkeypatch):
    """Stop the toolchain's frontend after analysis (no elaboration)."""
    stop = lambda *args, **kwargs: (None, None)  # noqa: E731
    monkeypatch.setattr(toolchain_module, "elaborate_verilog", stop)
    monkeypatch.setattr(toolchain_module, "elaborate_vhdl", stop)


def analyzed(toolchain, files, top="tb"):
    """Parse and analysis diagnostics of *files* through the store."""
    from repro.hdl.diagnostics import DiagnosticCollector

    collector = DiagnosticCollector()
    toolchain._build_design(files, top, collector)
    return collector.diagnostics


def qa_corpus(language):
    """(files, top) pairs of the regression corpus in *language*."""
    from repro.qa.corpus import load_corpus

    ext = language.file_extension
    for case in load_corpus():
        testbench = make_testbench(
            case.spec.design_spec(), case.spec.model(), language,
            case.spec.name,
        )
        yield [
            HdlFile(f"top_module{ext}", case_sources(case)[language], language),
            HdlFile(f"tb{ext}", testbench, language),
        ], "tb"


def analyze_stats(toolchain):
    return toolchain.store.stats["analyze"].snapshot()


class TestPerUnitAnalysis:
    """Analysis is stored per unit, keyed on the unit's own file plus the
    interface it reads from the other units of its set."""

    @pytest.mark.parametrize("order", ["dut-first", "tb-first"])
    @pytest.mark.parametrize("language", list(Language))
    def test_parity_with_fresh_whole_set_analysis(
        self, analysis_only, language, order
    ):
        """A warm store replays exactly what a fresh pass over the whole
        set reports: suite references, golden testbenches, every defect
        mutant and the regression corpus, in either file order."""
        shared = Toolchain()
        sets = list(mutated_corpus(language)) + list(qa_corpus(language))
        for files, top in sets:
            if order == "tb-first":
                files = files[::-1]
            assert analyzed(shared, files, top) == whole_set_analysis(files)
            alone = files[:1]
            assert analyzed(shared, alone, top) == whole_set_analysis(alone)
        stats = shared.store.stats["analyze"]
        # every mutant's testbench replays its problem's testbench entry
        assert stats.hits > len(sets) // 2

    @pytest.mark.parametrize("language", list(Language))
    def test_same_interface_revision_hits_the_testbench(
        self, analysis_only, language
    ):
        toolchain = Toolchain()
        problem = build_suite().get("counter8")
        ext = language.file_extension
        tb = HdlFile(f"tb{ext}", problem.golden_tb[language], language)
        reference = problem.reference[language]
        revision = reference + ("\n// revised\n" if language is Language.VERILOG
                                else "\n-- revised\n")
        analyzed(toolchain, [HdlFile(f"top_module{ext}", reference, language), tb])
        before = analyze_stats(toolchain)
        files = [HdlFile(f"top_module{ext}", revision, language), tb]
        assert analyzed(toolchain, files) == whole_set_analysis(files)
        delta = toolchain.store.stats["analyze"].delta(before)
        assert (delta.hits, delta.misses) == (1, 1)  # the testbench hit

    VERILOG_DUT = (
        "module top_module #(parameter W = 1) (input a, input b, output y);\n"
        "  localparam L = 2;\n  assign y = a & b;\nendmodule\n"
    )
    VERILOG_TB = (
        "module tb;\n  reg a, b; wire y;\n"
        "  top_module #(.W(1)) dut(.a(a), .b(b), .y(y));\n"
        "  top_module pos(a, b, y);\nendmodule\n"
    )
    VERILOG_EDITS = {
        "module renamed": ("module top_module", "module top_other"),
        "port renamed": ("input b,", "input c,"),
        "ports reordered": ("input a, input b,", "input b, input a,"),
        "port added": ("output y)", "output y, input z)"),
        "parameter renamed": ("parameter W", "parameter V"),
        "local parameter made public": ("localparam L", "parameter L"),
    }

    VHDL_DUT = (
        "library ieee;\nuse ieee.std_logic_1164.all;\n"
        "entity top_module is\n  generic (W : integer := 1);\n"
        "  port (a : in std_logic; b : in std_logic; y : out std_logic);\n"
        "end entity;\narchitecture rtl of top_module is\nbegin\n"
        "  y <= a and b;\nend architecture;\n"
    )
    VHDL_TB = (
        "library ieee;\nuse ieee.std_logic_1164.all;\n"
        "entity tb is end entity;\narchitecture sim of tb is\n"
        "  signal a, b, y : std_logic;\nbegin\n"
        "  dut: entity work.top_module generic map (W => 1)\n"
        "    port map (a => a, b => b, y => y);\nend architecture;\n"
    )
    VHDL_EDITS = {
        "entity renamed": ("entity top_module is", "entity top_other is"),
        "port renamed": ("b : in std_logic;", "c : in std_logic;"),
        "ports reordered": ("a : in std_logic; b : in std_logic;",
                            "b : in std_logic; a : in std_logic;"),
        "generic renamed": ("generic (W :", "generic (V :"),
    }

    @pytest.mark.parametrize("language,edit", [
        (Language.VERILOG, name) for name in VERILOG_EDITS
    ] + [(Language.VHDL, name) for name in VHDL_EDITS])
    def test_interface_change_misses_the_testbench(
        self, analysis_only, language, edit
    ):
        if language is Language.VERILOG:
            dut, tb, (old, new) = (
                self.VERILOG_DUT, self.VERILOG_TB, self.VERILOG_EDITS[edit]
            )
        else:
            dut, tb, (old, new) = (
                self.VHDL_DUT, self.VHDL_TB, self.VHDL_EDITS[edit]
            )
        assert old in dut
        ext = language.file_extension
        tb_file = HdlFile(f"tb{ext}", tb, language)
        toolchain = Toolchain()
        files = [HdlFile(f"top_module{ext}", dut, language), tb_file]
        assert analyzed(toolchain, files) == whole_set_analysis(files) == []
        before = analyze_stats(toolchain)
        edited = [HdlFile(f"top_module{ext}", dut.replace(old, new), language),
                  tb_file]
        assert analyzed(toolchain, edited) == whole_set_analysis(edited)
        delta = toolchain.store.stats["analyze"].delta(before)
        assert (delta.hits, delta.misses) == (0, 2)

    def test_foreign_entity_architecture_keys_on_its_entity_text(
        self, analysis_only
    ):
        """An architecture of an entity declared in another file reads
        that entity's types: a type-only edit of the entity misses it."""
        header = "library ieee;\nuse ieee.std_logic_1164.all;\n"
        entity = (
            header + "entity top_module is\n"
            "  port (a : in std_logic; y : out std_logic);\nend entity;\n"
        )
        arch = HdlFile(
            "rtl.vhd",
            header + "architecture rtl of top_module is\nbegin\n"
            "  y <= a;\nend architecture;\n",
            Language.VHDL,
        )
        toolchain = Toolchain()
        files = [HdlFile("top_module.vhd", entity, Language.VHDL), arch]
        assert analyzed(toolchain, files, "top_module") == []
        before = analyze_stats(toolchain)
        retyped = entity.replace("a : in std_logic;", "a : in bogus_type;")
        edited = [HdlFile("top_module.vhd", retyped, Language.VHDL), arch]
        diagnostics = analyzed(toolchain, edited, "top_module")
        assert diagnostics == whole_set_analysis(edited) != []
        delta = toolchain.store.stats["analyze"].delta(before)
        assert (delta.hits, delta.misses) == (0, 2)
