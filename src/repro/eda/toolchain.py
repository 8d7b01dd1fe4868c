"""The toolchain: compile (analyze + elaborate) and simulate HDL sources.

Design goals:

* **One call, one log.** ``compile()`` returns everything a Review Agent
  needs; ``simulate()`` returns everything a Verification Agent needs. The
  logs are plain text in Vivado's format; structured diagnostics ride along
  for tests and metrics.
* **Never raise on bad input.** Defective code (that is the whole point of
  the paper) produces failing results with populated logs.
* **Deterministic latency model.** Real EDA runtimes are part of the paper's
  Figure 3; each result carries a modeled ``tool_seconds`` derived from the
  workload (file sizes, simulated time) so latency accounting is
  reproducible, alongside the true wall-clock for transparency.
* **One result store.** Experiment sweeps recompile and resimulate the same
  (sources, top) pairs many times — the baseline and AIVRIL2 judgments of
  every model run the suite's golden testbench against identical text.
  Every stage of the flow (parse, analyze, compile, simulate) is a pure
  function of its inputs, so each :class:`Toolchain` keeps one bounded,
  content-addressed :class:`ResultStore` of stage results. It is always
  on: a hit returns a result equal field-by-field to a cold run (only
  ``wall_seconds``, the true elapsed time, reflects the cheap lookup).
* **One simulate flow.** A simulate miss compiles the set, then runs it
  on one of two paths and builds one :class:`SimResult`: a set of DUT
  files plus one generated :class:`~repro.designs.tbgen.Testbench` goes
  to the batch tier (:mod:`repro.sim.batch`), which plans and runs the
  DUT alone against the testbench's own stimulus bundle; every other set
  (text that only equals a generated testbench included), and every
  refused plan or run, goes to the event kernel.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import time as _time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.hdl.diagnostics import Diagnostic, DiagnosticCollector, render_vivado_log
from repro.obs import get_tracer
from repro.hdl.source import SourceFile
from repro.sim import batch as simbatch
from repro.sim import compile as simcompile
from repro.sim.elab_verilog import elaborate_verilog
from repro.sim.elab_vhdl import elaborate_vhdl
from repro.sim.kernel import SimulationError, Simulator
from repro.verilog import ast as verilog_ast
from repro.verilog.analyzer import VerilogAnalyzer
from repro.verilog.parser import parse_verilog
from repro.vhdl.analyzer import VhdlAnalyzer
from repro.vhdl.parser import parse_vhdl

log = logging.getLogger(__name__)


class Language(enum.Enum):
    """Target RTL language; AIVRIL2 is orthogonal to this choice."""

    VERILOG = "verilog"
    VHDL = "vhdl"

    @property
    def file_extension(self) -> str:
        return ".v" if self is Language.VERILOG else ".vhd"

    @property
    def compiler(self) -> str:
        return "xvlog" if self is Language.VERILOG else "xvhdl"


@dataclass(frozen=True)
class HdlFile:
    """One named HDL source file submitted to the toolchain."""

    name: str
    text: str
    language: Language


@dataclass
class CompileResult:
    """Outcome of analysis + elaboration."""

    ok: bool
    log: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    tool_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.is_error)


@dataclass
class SimResult:
    """Outcome of a simulation run."""

    ok: bool  # compiled and ran to completion (regardless of test verdicts)
    log: str
    output_lines: list[str] = field(default_factory=list)
    compile_result: CompileResult | None = None
    end_time: int = 0
    finished_cleanly: bool = False
    runtime_error: str = ""
    tool_seconds: float = 0.0
    wall_seconds: float = 0.0


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ResultStore` stage."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions)

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counter change since an ``earlier`` snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
        )


#: the store's stages, in flow order
STAGES = ("parse", "analyze", "compile", "simulate")

#: what :meth:`ResultStore.get` returns for an absent key
MISS = object()


class ResultStore:
    """Bounded LRU store of stage results, keyed by stage and content hash.

    A key is ``(stage, digest)``. The sha256 digest covers everything that
    determines the result: the top unit, every file's name, language and
    full text, and the stage's extra inputs. A simulate key adds
    ``max_sim_time``; a generated testbench and its plain text key alike,
    because both paths give the same result.
    An analysis entry is one unit's: its key covers that file plus the
    interface it reads from the rest of the set (see
    :meth:`Toolchain._analyze_unit`). Keys are derived from the inputs,
    never from the outputs, so two source sets that *render* the same log
    never collide.

    The store holds at most :attr:`MAX_ENTRIES` entries and
    :attr:`MAX_BYTES` bytes; the least recently used entries go first. An
    entry's bytes are the characters of text behind it: the source of a
    parse (its AST and line index grow with it), the logs and output lines
    of a compile or simulate result, the messages of an analysis. Real
    memory is about ten times that on suite workloads. No entry holds an
    elaborated design: designs are runtime state, built per run (see
    :meth:`Toolchain.simulate`). Hits, misses and evictions are counted per
    stage, both here (:attr:`stats`) and in the metrics registry as
    ``toolchain.store.<stage>.hit|miss|evict``, next to the
    ``toolchain.store.entries`` and ``toolchain.store.bytes`` gauges.
    """

    MAX_ENTRIES = 2048
    MAX_BYTES = 2 << 20

    def __init__(self):
        self._entries: "OrderedDict[tuple[str, str], tuple[object, int]]" = (
            OrderedDict()
        )
        self.nbytes = 0
        self.stats = {stage: CacheStats() for stage in STAGES}

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(stage: str, files: list[HdlFile], top: str = "",
            extra: tuple = ()) -> tuple[str, str]:
        digest = hashlib.sha256()
        # every part is length-prefixed and the part counts lead, so no two
        # different inputs concatenate to the same byte stream
        digest.update(f"{len(extra)}:{len(files)}\x1e".encode())
        for part in (top, *map(str, extra)):
            digest.update(f"{len(part)}\x1f{part}".encode())
        for hdl_file in files:
            for part in (hdl_file.name, hdl_file.language.value,
                         hdl_file.text):
                digest.update(f"{len(part)}\x1f".encode())
                digest.update(part.encode())
        return stage, digest.hexdigest()

    def get(self, key: tuple[str, str]):
        """The value stored under ``key`` (now most recent), else :data:`MISS`."""
        stage = key[0]
        entry = self._entries.get(key)
        metrics = get_tracer().metrics
        if entry is None:
            self.stats[stage].misses += 1
            metrics.counter(_METRIC_NAMES[stage, "miss"]).inc()
            return MISS
        self._entries.move_to_end(key)
        self.stats[stage].hits += 1
        metrics.counter(_METRIC_NAMES[stage, "hit"]).inc()
        return entry[0]

    def put(self, key: tuple[str, str], value, nbytes: int) -> None:
        """Store ``value``, then evict least recent entries to the bounds.

        An entry larger than :attr:`MAX_BYTES` on its own is evicted at once.
        """
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        self._entries[key] = (value, nbytes)
        self.nbytes += nbytes
        metrics = get_tracer().metrics
        while self._entries and (
            len(self._entries) > self.MAX_ENTRIES
            or self.nbytes > self.MAX_BYTES
        ):
            (stage, _), (_, size) = self._entries.popitem(last=False)
            self.nbytes -= size
            self.stats[stage].evictions += 1
            metrics.counter(_METRIC_NAMES[stage, "evict"]).inc()
        metrics.gauge("toolchain.store.entries").set(len(self._entries))
        metrics.gauge("toolchain.store.bytes").set(self.nbytes)


_METRIC_NAMES = {
    (stage, event): f"toolchain.store.{stage}.{event}"
    for stage in STAGES
    for event in ("hit", "miss", "evict")
}


def _copy_compile_result(result: CompileResult,
                         wall_seconds: float) -> CompileResult:
    return replace(
        result, diagnostics=list(result.diagnostics), wall_seconds=wall_seconds
    )


def _copy_sim_result(result: SimResult, wall_seconds: float) -> SimResult:
    compile_copy = None
    if result.compile_result is not None:
        compile_copy = _copy_compile_result(
            result.compile_result, result.compile_result.wall_seconds
        )
    return replace(
        result,
        output_lines=list(result.output_lines),
        compile_result=compile_copy,
        wall_seconds=wall_seconds,
    )


def _sim_text_bytes(result: SimResult) -> int:
    held = len(result.log) + sum(map(len, result.output_lines))
    if result.compile_result is not None:
        held += len(result.compile_result.log)
    return held


def _verilog_interface(library) -> tuple:
    """What :class:`VerilogAnalyzer` reads from the other units' modules.

    Instantiation checks look a module up by name and read its port names
    in order and its non-local parameter names; nothing else crosses a
    unit boundary. Counts lead each list, so the parts stay unambiguous.
    """
    parts: list = [len(library)]
    for name in sorted(library):
        module = library[name]
        ports = module.port_names()
        params = [
            item.name for item in module.items
            if isinstance(item, verilog_ast.ParamDecl) and not item.local
        ]
        parts += [name, len(ports), *ports, len(params), *params]
    return tuple(parts)


def _vhdl_interface(library, design_file, sources) -> tuple:
    """What :class:`VhdlAnalyzer` reads from the other units' entities.

    Instantiation checks read an entity's name, port names and generic
    names. An architecture of an entity declared in another file also
    reads that entity's types and spans, so such a unit keys on the text
    of the file declaring it as well.
    """
    parts: list = [len(library)]
    for name in sorted(library):
        entity = library[name]
        ports = [port.name for port in entity.ports]
        generics = [generic.name for generic in entity.generics]
        parts += [name, len(ports), *ports, len(generics), *generics]
    foreign = sorted({
        arch.entity for arch in design_file.architectures
        if arch.entity in library
    })
    parts.append(len(foreign))
    for name in foreign:
        parts += [name, sources[name].text]
    return tuple(parts)


class Toolchain:
    """Compiles and simulates HDL, mimicking the Vivado xvlog/xvhdl/xsim flow.

    Each instance owns one :class:`ResultStore`; share an instance to share
    results, and drop it to drop them.
    """

    #: modeled seconds per compile invocation (fixed tool startup cost)
    COMPILE_BASE_SECONDS = 0.4
    #: modeled seconds per KiB of source analyzed
    COMPILE_PER_KIB_SECONDS = 0.015
    #: modeled seconds per simulation launch
    SIM_BASE_SECONDS = 0.6
    #: modeled seconds per simulated microsecond (1,000 ns of ``end_time``),
    #: the same on both simulation paths
    SIM_PER_US_SECONDS = 0.005

    def __init__(self, *, max_sim_time: int = 200_000):
        self.max_sim_time = max_sim_time
        # Parsed ASTs are frozen dataclasses and diagnostics are immutable,
        # so parse and analysis entries are shared as they are (analysis
        # hits replay the recorded diagnostics into the caller's collector
        # in original order); compile and simulate hits return defensive
        # copies. Elaborated designs are mutable runtime state and are
        # never stored.
        self.store = ResultStore()

    @property
    def cache_stats(self) -> CacheStats:
        """Compile and simulate result lookups of this toolchain's store —
        what the ``cache.hit``/``cache.miss`` counters and the spans'
        ``cache`` attribute count."""
        compiled = self.store.stats["compile"]
        simulated = self.store.stats["simulate"]
        return CacheStats(
            hits=compiled.hits + simulated.hits,
            misses=compiled.misses + simulated.misses,
            evictions=compiled.evictions + simulated.evictions,
        )

    # ------------------------------------------------------------------
    # compile
    # ------------------------------------------------------------------

    def compile(self, files: list[HdlFile], top: str) -> CompileResult:
        """Analyze and elaborate; diagnostics render into one compile log."""
        return self._compile(files, top)[0]

    def _compile(self, files: list[HdlFile], top: str):
        """The compile stage: ``(result, design)``.

        ``design`` is the design a miss elaborated (``None`` when the result
        is a failure or a store hit), so a simulation can run it instead of
        elaborating the same files again.
        """
        tracer = get_tracer()
        with tracer.span(
            "toolchain.compile", top=top, files=len(files)
        ) as span:
            started = _time.perf_counter()
            key = self.store.key("compile", files, top)
            cached = self.store.get(key)
            if cached is not MISS:
                span.set_attrs(
                    cache="hit", ok=cached.ok,
                    error_count=cached.error_count,
                    tool_seconds=cached.tool_seconds,
                )
                tracer.metrics.counter("cache.hit").inc()
                return _copy_compile_result(
                    cached, _time.perf_counter() - started
                ), None
            span.set_attr("cache", "miss")
            tracer.metrics.counter("cache.miss").inc()
            collector = DiagnosticCollector()
            language = files[0].language if files else Language.VERILOG
            design = self._build_design(files, top, collector)
            wall = _time.perf_counter() - started
            total_kib = sum(len(f.text) for f in files) / 1024.0
            modeled = self.COMPILE_BASE_SECONDS + self.COMPILE_PER_KIB_SECONDS * total_kib
            result = CompileResult(
                ok=not collector.has_errors and design is not None,
                log=render_vivado_log(
                    collector.diagnostics, tool=language.compiler, top=top
                ),
                diagnostics=list(collector.diagnostics),
                tool_seconds=modeled,
                wall_seconds=wall,
            )
            # store a private copy so later caller mutations cannot poison it
            self.store.put(
                key, _copy_compile_result(result, wall), len(result.log)
            )
            span.set_attrs(
                ok=result.ok, error_count=result.error_count,
                tool_seconds=result.tool_seconds,
            )
            tracer.metrics.histogram("toolchain.compile.seconds").observe(wall)
            log.debug(
                "compile top=%s files=%d ok=%s errors=%d",
                top, len(files), result.ok, result.error_count,
            )
            return result, design if result.ok else None

    def _build_design(
        self, files: list[HdlFile], top: str, collector: DiagnosticCollector
    ):
        """Shared frontend pipeline; returns the elaborated design or None."""
        if not files:
            collector.error("VRFC 1-100", "no source files supplied")
            return None
        languages = {f.language for f in files}
        if len(languages) > 1:
            collector.error(
                "VRFC 1-101",
                "mixed-language elaboration of one top is not supported; "
                "submit a single-language file set per run",
            )
            return None
        language = files[0].language
        if language is Language.VERILOG:
            return self._build_verilog(files, top, collector)
        return self._build_vhdl(files, top, collector)

    def _parse_cached(self, hdl_file: HdlFile):
        """Parse one file through the store.

        Returns (ast, diagnostics, source): the entry keeps the file's
        :class:`SourceFile`, so a hit does not rebuild its line index.
        """
        key = self.store.key("parse", [hdl_file])
        entry = self.store.get(key)
        if entry is not MISS:
            return entry
        sub = DiagnosticCollector()
        if hdl_file.language is Language.VERILOG:
            tree, _ = parse_verilog(
                hdl_file.text, name=hdl_file.name, collector=sub
            )
        else:
            tree, _ = parse_vhdl(
                hdl_file.text, name=hdl_file.name, collector=sub
            )
        source = SourceFile(hdl_file.name, hdl_file.text)
        entry = (tree, tuple(sub.diagnostics), source)
        self.store.put(key, entry, len(hdl_file.text))
        return entry

    def _analyze_unit(self, hdl_file, interface, collector, run) -> None:
        """Analyze one unit through the store, replaying a hit's diagnostics.

        The key is the unit's own file plus *interface*, exactly what its
        analyzer reads from the other units of the set (see
        :func:`_verilog_interface` and :func:`_vhdl_interface`). So a
        candidate revision that keeps the testbench's view of it unchanged
        replays the testbench's diagnostics instead of re-analyzing it.
        """
        key = self.store.key("analyze", [hdl_file], extra=interface)
        cached = self.store.get(key)
        if cached is not MISS:
            collector.diagnostics.extend(cached)
            return
        mark = len(collector.diagnostics)
        run()
        found = tuple(collector.diagnostics[mark:])
        self.store.put(key, found, sum(len(d.message) for d in found))

    def _build_verilog(self, files, top, collector):
        modules = {}
        sources: dict[str, SourceFile] = {}
        units = []
        for hdl_file in files:
            unit, parse_diags, source = self._parse_cached(hdl_file)
            collector.diagnostics.extend(parse_diags)
            units.append((hdl_file, unit, source))
            for module in unit.modules:
                modules[module.name] = module
                sources[module.name] = source
        for hdl_file, unit, source in units:
            local = {m.name for m in unit.modules}
            library = {k: v for k, v in modules.items() if k not in local}
            self._analyze_unit(
                hdl_file, _verilog_interface(library), collector,
                lambda: VerilogAnalyzer(source, collector, library).analyze(
                    unit
                ),
            )
        if collector.has_errors:
            return None
        top_source = sources.get(top) or units[0][2]
        design, _ = elaborate_verilog(modules, top, top_source, collector)
        return design

    def _build_vhdl(self, files, top, collector):
        entities = {}
        architectures = {}
        sources: dict[str, SourceFile] = {}
        design_files = []
        for hdl_file in files:
            design_file, parse_diags, source = self._parse_cached(hdl_file)
            collector.diagnostics.extend(parse_diags)
            design_files.append((hdl_file, design_file, source))
            for entity in design_file.entities:
                entities[entity.name] = entity
                sources[entity.name] = source
            for arch in design_file.architectures:
                architectures[arch.entity] = arch
        for hdl_file, design_file, source in design_files:
            local = {e.name for e in design_file.entities}
            library = {k: v for k, v in entities.items() if k not in local}
            self._analyze_unit(
                hdl_file,
                _vhdl_interface(library, design_file, sources),
                collector,
                lambda: VhdlAnalyzer(source, collector, library).analyze(
                    design_file
                ),
            )
        if collector.has_errors:
            return None
        top = top.lower()
        top_source = sources.get(top) or design_files[0][2]
        from repro.vhdl.ast import DesignFile
        from repro.hdl.source import SourceSpan

        merged = DesignFile(
            span=SourceSpan(0, 0),
            entities=tuple(entities.values()),
            architectures=tuple(architectures.values()),
        )
        design, _ = elaborate_vhdl(merged, top, top_source, collector)
        return design

    # ------------------------------------------------------------------
    # simulate
    # ------------------------------------------------------------------

    def simulate(self, files: list[HdlFile], top: str) -> SimResult:
        """Compile then run the simulation; returns the xsim-style log."""
        tracer = get_tracer()
        with tracer.span(
            "toolchain.simulate", top=top, files=len(files)
        ) as span:
            started = _time.perf_counter()
            key = self.store.key(
                "simulate", files, top,
                (self.max_sim_time,),
            )
            cached = self.store.get(key)
            if cached is not MISS:
                span.set_attrs(
                    cache="hit", ok=cached.ok,
                    tool_seconds=cached.tool_seconds,
                )
                tracer.metrics.counter("cache.hit").inc()
                return _copy_sim_result(
                    cached, _time.perf_counter() - started
                )
            span.set_attr("cache", "miss")
            tracer.metrics.counter("cache.miss").inc()
            result = self._simulate_uncached(files, top, started)
            self.store.put(
                key, _copy_sim_result(result, result.wall_seconds),
                _sim_text_bytes(result),
            )
            span.set_attrs(
                ok=result.ok,
                finished_cleanly=result.finished_cleanly,
                tool_seconds=result.tool_seconds,
            )
            tracer.metrics.histogram("toolchain.simulate.seconds").observe(
                result.wall_seconds
            )
            log.debug(
                "simulate top=%s files=%d ok=%s end_time=%d",
                top, len(files), result.ok, result.end_time,
            )
            return result

    def _simulate_uncached(
        self, files: list[HdlFile], top: str, started: float
    ) -> SimResult:
        """One simulate miss: compile the set, then run it on the batch
        tier or the kernel.

        A set of DUT files plus one generated testbench releases the
        design its compile elaborated and goes to the batch tier
        (:meth:`_run_batch`); any other set, or a refused plan or run, goes
        to the kernel, which elaborates the set again only when no design
        is in hand (a compile hit, or a release).
        """
        compile_result, design = self._compile(files, top)
        if not compile_result.ok:
            return SimResult(
                ok=False,
                log=compile_result.log + "\nERROR: [XSIM 43-3225] "
                "Simulation not run: compilation failed",
                compile_result=compile_result,
                tool_seconds=compile_result.tool_seconds,
                wall_seconds=_time.perf_counter() - started,
            )
        metrics = get_tracer().metrics
        outcome = None
        golden = self._golden_testbench(files, top)
        if golden is not None:
            design = None  # not held while the batch tier runs the DUT
            outcome = self._run_batch(*golden)
        runtime_error = ""
        if outcome is not None:
            metrics.counter("sim.batch_calls").inc()
            metrics.counter("sim.batch_vectors").inc(outcome.vectors)
            output, end_time = outcome.output_lines, outcome.end_time
            finished_cleanly = outcome.finished_cleanly
        else:
            if design is None:
                design = self._build_design(files, top, DiagnosticCollector())
            simulator = Simulator(design, max_time=self.max_sim_time)
            try:
                stats = simulator.run()
            except SimulationError as exc:
                runtime_error = str(exc)
                stats = simulator.stats
                if isinstance(exc, simcompile.CompilerRefusal):
                    metrics.counter("sim.compile.refusals").inc()
            metrics.counter("sim.activations").inc(stats.process_activations)
            metrics.counter("sim.delta_cycles").inc(stats.delta_cycles)
            output, end_time = simulator.output, stats.end_time
            finished_cleanly = stats.finished_cleanly
        return SimResult(
            ok=not runtime_error,
            log=self._render_sim_log(top, output, end_time, runtime_error),
            output_lines=list(output),
            compile_result=compile_result,
            end_time=end_time,
            finished_cleanly=finished_cleanly,
            runtime_error=runtime_error,
            # the modeled cost: the compile, one launch and the simulated
            # time, which both paths report alike
            tool_seconds=(
                compile_result.tool_seconds + self.SIM_BASE_SECONDS
                + self.SIM_PER_US_SECONDS * end_time / 1000.0
            ),
            wall_seconds=_time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # batch tier
    # ------------------------------------------------------------------

    def _golden_testbench(self, files: list[HdlFile], top: str):
        """``(DUT files, bundle)`` when *files* are DUT files plus one
        :class:`~repro.designs.tbgen.Testbench` that runs to its end within
        ``max_sim_time``; else ``None``, and the kernel runs the set. The
        bundle comes from the testbench object itself: plain text equal to
        a generated testbench has none."""
        from repro.designs import tbgen

        if top != tbgen.TB_NAME:
            return None
        bundle, dut_files = None, []
        for hdl_file in files:
            if not isinstance(hdl_file.text, tbgen.Testbench):
                dut_files.append(hdl_file)
            elif bundle is not None:
                return None  # two testbenches in one set
            else:
                bundle = hdl_file.text.bundle
        if (bundle is None or not dut_files
                or simbatch.end_time(bundle) > self.max_sim_time):
            return None
        return dut_files, bundle

    def _run_batch(self, dut_files: list[HdlFile], bundle):
        """Elaborate the DUT alone, plan it and run *bundle* against the
        plan: the :class:`~repro.sim.batch.BatchOutcome`, observationally
        the kernel's run of the set, or ``None`` when the plan or the run
        is refused. The batch functions are looked up on their module at
        each call, so a wrapper installed there sees every call."""
        from repro.designs.model import TOP_NAME

        design = self._build_design(dut_files, TOP_NAME, DiagnosticCollector())
        if design is None:
            return None
        spec = bundle.spec
        planner = (simbatch.plan_sequential if spec.clocked
                   else simbatch.plan_combinational)
        plan = planner(
            design,
            [(p.name, p.width) for p in spec.inputs],
            [(p.name, p.width) for p in spec.outputs],
        )
        return None if plan is None else simbatch.run_bundle(plan, bundle)

    @staticmethod
    def _render_sim_log(top: str, output: list[str], end_time: int,
                        runtime_error: str) -> str:
        lines = [
            f"INFO: [XSIM 4-301] Starting simulation of '{top}'",
            "run all",
        ]
        lines.extend(output)
        if runtime_error:
            lines.append(f"ERROR: [XSIM 43-3861] {runtime_error}")
        else:
            lines.append(
                f"INFO: [XSIM 4-302] Simulation completed at time {end_time} ns"
            )
        return "\n".join(lines)
