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
  reproducible. A traced span records the true wall-clock.
* **One result store.** Experiment sweeps recompile and resimulate the same
  (sources, top) pairs many times — the baseline and AIVRIL2 judgments of
  every model run the suite's golden testbench against identical text.
  Every stage of the flow (parse, compile, simulate) is a pure function of
  its inputs, so each :class:`Toolchain` keeps one bounded
  :class:`ResultStore` of stage results, keyed on those inputs. It is
  always on. Results are frozen values, so a hit returns the object its
  miss stored.
* **A generated testbench compiles from its declarations.** The compile
  stage builds each :class:`~repro.designs.tbgen.Testbench` file from its
  ``declarations``: its text with the stimulus body emptied. The body
  names only the testbench's own declarations and system tasks, so it
  adds no diagnostic that depends on the DUT.
* **One simulate flow.** A simulate miss compiles the set, then runs it
  on one of two paths and builds one :class:`SimResult`: a set of DUT
  files plus one generated :class:`~repro.designs.tbgen.Testbench` goes
  to the batch tier (:mod:`repro.sim.batch`), which plans and runs the
  DUT alone against the testbench's own stimulus bundle; every other set
  (text that only equals a generated testbench included), and every
  refused plan or run, goes to the event kernel, which builds its own
  design from the set's plain text. That build must report what the
  compile reported; when it does not, testbench generation is at fault,
  not the input, and the run raises.
"""

from __future__ import annotations

import enum
import logging
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.hdl.diagnostics import Diagnostic, DiagnosticCollector, render_vivado_log
from repro.obs import get_tracer
from repro.hdl.source import SourceFile, SourceSpan
from repro.sim import compile as simcompile
from repro.sim.elab_verilog import elaborate_verilog
from repro.sim.elab_vhdl import elaborate_vhdl
from repro.sim.kernel import SimulationError, Simulator
from repro.verilog.analyzer import VerilogAnalyzer
from repro.verilog.parser import parse_verilog
from repro.vhdl.analyzer import VhdlAnalyzer
from repro.vhdl.ast import DesignFile
from repro.vhdl.parser import parse_vhdl

log = logging.getLogger(__name__)


class Language(enum.Enum):
    """Target RTL language; AIVRIL2 is orthogonal to this choice.

    Members hash by identity: every store lookup hashes the ``HdlFile``s
    of its key, and ``Enum.__hash__`` is a Python-level call.
    """

    __hash__ = object.__hash__

    VERILOG = "verilog"
    VHDL = "vhdl"

    @property
    def file_extension(self) -> str:
        return ".v" if self is Language.VERILOG else ".vhd"

    @property
    def compiler(self) -> str:
        return "xvlog" if self is Language.VERILOG else "xvhdl"


@dataclass(frozen=True, slots=True)
class HdlFile:
    """One named HDL source file submitted to the toolchain."""

    name: str
    text: str
    language: Language


@dataclass(frozen=True)
class CompileResult:
    """Outcome of analysis + elaboration.

    ``error_count`` is counted once, when the result is built; it is
    derived from ``diagnostics``, so equality, hashing and ``repr`` leave
    it out.
    """

    ok: bool
    log: str
    diagnostics: tuple[Diagnostic, ...] = ()
    tool_seconds: float = 0.0
    error_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "error_count", sum(
            1 for d in self.diagnostics if d.is_error
        ))


@dataclass(frozen=True)
class SimResult:
    """Outcome of a simulation run."""

    ok: bool  # compiled and ran to completion (regardless of test verdicts)
    log: str
    output_lines: tuple[str, ...] = ()
    compile_result: CompileResult | None = None
    end_time: int = 0
    finished_cleanly: bool = False
    runtime_error: str = ""
    tool_seconds: float = 0.0


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
STAGES = ("parse", "compile", "simulate")

#: what :meth:`ResultStore.get` returns for an absent key
MISS = object()


class ResultStore:
    """Bounded LRU store of stage results, keyed by stage and inputs.

    A key is ``(stage, (top, extra, files))``: everything that determines
    the result, held as it is, so two keys are equal exactly when their
    inputs are. A parse key holds the file the parser reads, which for a
    generated testbench holds its declarations. A compile or simulate key
    holds every file with its full text, and a simulate key adds
    ``max_sim_time``; a generated testbench and its plain text key alike
    (``str`` equality and hash go by content), because both compile alike
    and both paths give the same result. Keys are the inputs, never the
    outputs, so two source sets that *render* the same log never collide.
    Python caches each string's hash, so a text (a golden testbench
    judged against many candidates) is hashed once while it lives, not on
    every lookup.

    Every value is immutable and shared as it is: a parse entry holds a
    frozen syntax tree and diagnostics, and compile and simulate results
    are frozen, so a hit returns the object its miss stored.

    The store holds at most :attr:`MAX_ENTRIES` entries and
    :attr:`MAX_BYTES` bytes; the least recently used entries go first. An
    entry's bytes are the characters of text its value holds: the source
    of a parse (its AST and line index grow with it), the logs and output
    lines of a compile or simulate result. Real memory is about ten times
    that on suite workloads. The texts a key holds are not counted, so
    only :attr:`MAX_ENTRIES` bounds them. A compile or simulate key keeps
    each file's full text alive, a generated testbench's together with
    its ``bundle`` and ``declarations``, while that testbench's parse
    entry holds only the declarations. No entry holds an elaborated
    design: designs are runtime state, built per run (see
    :meth:`Toolchain.simulate`). Each lookup is counted once: hits, misses
    and evictions per stage, both here (:attr:`stats`) and in the metrics
    registry as ``toolchain.store.<stage>.hit|miss|evict``. ``len(store)``
    and :attr:`nbytes` give its size.
    """

    MAX_ENTRIES = 2048
    MAX_BYTES = 2 << 20

    def __init__(self):
        self._entries: "OrderedDict[tuple, tuple[object, int]]" = (
            OrderedDict()
        )
        self.nbytes = 0
        self.stats = {stage: CacheStats() for stage in STAGES}

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(stage: str, files: list[HdlFile], top: str = "",
            extra: tuple = ()) -> tuple:
        return stage, (top, extra, tuple(files))

    def get(self, key: tuple):
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

    def put(self, key: tuple, value, nbytes: int) -> None:
        """Store ``value``, then evict least recent entries to the bounds.

        An entry larger than :attr:`MAX_BYTES` on its own is evicted at once.
        """
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        self._entries[key] = (value, nbytes)
        self.nbytes += nbytes
        while self._entries and (
            len(self._entries) > self.MAX_ENTRIES
            or self.nbytes > self.MAX_BYTES
        ):
            (stage, _), (_, size) = self._entries.popitem(last=False)
            self.nbytes -= size
            self.stats[stage].evictions += 1
            get_tracer().metrics.counter(_METRIC_NAMES[stage, "evict"]).inc()


_METRIC_NAMES = {
    (stage, event): f"toolchain.store.{stage}.{event}"
    for stage in STAGES
    for event in ("hit", "miss", "evict")
}


def _sim_text_bytes(result: SimResult) -> int:
    held = len(result.log) + sum(map(len, result.output_lines))
    if result.compile_result is not None:
        held += len(result.compile_result.log)
    return held


def _declarations(hdl_file: HdlFile) -> HdlFile:
    """What the compile stage builds for *hdl_file*: the declarations of a
    generated :class:`~repro.designs.tbgen.Testbench`, else the file."""
    if not isinstance(hdl_file.text, tbgen.Testbench):
        return hdl_file
    return replace(hdl_file, text=hdl_file.text.declarations)


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
        # Elaborated designs are mutable runtime state and are never stored.
        self.store = ResultStore()

    @property
    def cache_stats(self) -> CacheStats:
        """Compile and simulate result lookups of this toolchain's store —
        what the spans' ``cache`` attribute counts."""
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
        """Analyze and elaborate; diagnostics render into one compile log.

        Each generated testbench is built from its ``declarations``; the
        key, the modeled ``tool_seconds`` and the log come from the full
        text. The design a miss elaborates is dropped.
        """
        with get_tracer().span(
            "toolchain.compile", top=top, files=len(files)
        ) as span:
            key = self.store.key("compile", files, top)
            result = self.store.get(key)
            span.set_attr("cache", "miss" if result is MISS else "hit")
            if result is MISS:
                result = self._compile_uncached(files, top)
                self.store.put(key, result, len(result.log))
                log.debug(
                    "compile top=%s files=%d ok=%s errors=%d",
                    top, len(files), result.ok, result.error_count,
                )
            span.set_attrs(
                ok=result.ok, error_count=result.error_count,
                tool_seconds=result.tool_seconds,
            )
            return result

    def _compile_uncached(self, files: list[HdlFile],
                          top: str) -> CompileResult:
        collector = DiagnosticCollector()
        language = files[0].language if files else Language.VERILOG
        design = self._build_design(
            [_declarations(f) for f in files], top, collector
        )
        total_kib = sum(len(f.text) for f in files) / 1024.0
        modeled = self.COMPILE_BASE_SECONDS + self.COMPILE_PER_KIB_SECONDS * total_kib
        return CompileResult(
            ok=not collector.has_errors and design is not None,
            log=render_vivado_log(
                collector.diagnostics, tool=language.compiler, top=top
            ),
            diagnostics=tuple(collector.diagnostics),
            tool_seconds=modeled,
        )

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

    def _build_verilog(self, files, top, collector):
        modules = {}
        sources: dict[str, SourceFile] = {}
        units = []
        for hdl_file in files:
            unit, parse_diags, source = self._parse_cached(hdl_file)
            collector.diagnostics.extend(parse_diags)
            units.append((unit, source))
            for module in unit.modules:
                modules[module.name] = module
                sources[module.name] = source
        for unit, source in units:
            local = {m.name for m in unit.modules}
            library = {k: v for k, v in modules.items() if k not in local}
            VerilogAnalyzer(source, collector, library).analyze(unit)
        if collector.has_errors:
            return None
        top_source = sources.get(top) or units[0][1]
        design, _ = elaborate_verilog(
            modules, top, top_source, collector, sources=sources
        )
        return design

    def _build_vhdl(self, files, top, collector):
        entities = {}
        architectures = {}
        sources: dict[tuple[str, str], SourceFile] = {}
        design_files = []
        for hdl_file in files:
            design_file, parse_diags, source = self._parse_cached(hdl_file)
            collector.diagnostics.extend(parse_diags)
            design_files.append((design_file, source))
            for entity in design_file.entities:
                entities[entity.name] = entity
                sources["entity", entity.name] = source
            for arch in design_file.architectures:
                architectures[arch.entity] = arch
                sources["architecture", arch.entity] = source
        for design_file, source in design_files:
            local = {e.name for e in design_file.entities}
            library = {k: v for k, v in entities.items() if k not in local}
            VhdlAnalyzer(source, collector, library).analyze(design_file)
        if collector.has_errors:
            return None
        top = top.lower()
        top_source = sources.get(("entity", top)) or design_files[0][1]
        merged = DesignFile(
            span=SourceSpan(0, 0),
            entities=tuple(entities.values()),
            architectures=tuple(architectures.values()),
        )
        design, _ = elaborate_vhdl(
            merged, top, top_source, collector, sources=sources
        )
        return design

    # ------------------------------------------------------------------
    # simulate
    # ------------------------------------------------------------------

    def simulate(self, files: list[HdlFile], top: str) -> SimResult:
        """Compile then run the simulation; returns the xsim-style log."""
        with get_tracer().span(
            "toolchain.simulate", top=top, files=len(files)
        ) as span:
            key = self.store.key("simulate", files, top, (self.max_sim_time,))
            result = self.store.get(key)
            span.set_attr("cache", "miss" if result is MISS else "hit")
            if result is MISS:
                result = self._simulate_uncached(files, top)
                self.store.put(key, result, _sim_text_bytes(result))
                log.debug(
                    "simulate top=%s files=%d ok=%s end_time=%d",
                    top, len(files), result.ok, result.end_time,
                )
            span.set_attrs(
                ok=result.ok,
                finished_cleanly=result.finished_cleanly,
                tool_seconds=result.tool_seconds,
            )
            return result

    def _simulate_uncached(self, files: list[HdlFile], top: str) -> SimResult:
        """One simulate miss: compile the set, then run it on the batch
        tier or the kernel.

        A set of DUT files plus one generated testbench goes to the batch
        tier (:meth:`_run_batch`); any other set, or a refused plan or run,
        goes to the kernel, which builds its own design from the set's
        plain text. That build must report what the compile reported: a
        testbench body that adds a diagnostic its declarations lack is a
        tbgen defect, and raises :class:`RuntimeError`.
        """
        compile_result = self.compile(files, top)
        if not compile_result.ok:
            return SimResult(
                ok=False,
                log=compile_result.log + "\nERROR: [XSIM 43-3225] "
                "Simulation not run: compilation failed",
                compile_result=compile_result,
                tool_seconds=compile_result.tool_seconds,
            )
        metrics = get_tracer().metrics
        outcome = None
        golden = self._golden_testbench(files, top)
        if golden is not None:
            outcome = self._run_batch(*golden)
        runtime_error = ""
        if outcome is not None:
            metrics.counter("sim.batch_calls").inc()
            metrics.counter("sim.batch_vectors").inc(outcome.vectors)
            output, end_time = outcome.output_lines, outcome.end_time
            finished_cleanly = outcome.finished_cleanly
        else:
            design = self._build_plain_text(files, top, compile_result)
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
            output_lines=tuple(output),
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
        )

    def _build_plain_text(self, files: list[HdlFile], top: str,
                          compile_result: CompileResult):
        """The kernel's design of *files*, built from ``str()`` of each
        text; raises :class:`RuntimeError` when that build reports other
        diagnostics than *compile_result*, which came from the
        declarations of each generated testbench."""
        collector = DiagnosticCollector()
        design = self._build_design(
            [replace(f, text=str(f.text)) for f in files], top, collector
        )
        if (design is None
                or tuple(collector.diagnostics) != compile_result.diagnostics):
            found = "\n".join(d.render() for d in collector.diagnostics)
            raise RuntimeError(
                f"tbgen defect: the full text of the set under top {top!r} "
                "reports other diagnostics than its declarations compiled "
                f"with:\n{found or '(none)'}"
            )
        return design

    # ------------------------------------------------------------------
    # batch tier
    # ------------------------------------------------------------------

    def _golden_testbench(self, files: list[HdlFile], top: str):
        """``(DUT files, bundle)`` when *files* are DUT files plus one
        :class:`~repro.designs.tbgen.Testbench` that runs to its end within
        ``max_sim_time``; else ``None``, and the kernel runs the set. The
        bundle comes from the testbench object itself: plain text equal to
        a generated testbench has none."""
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


# Bound last: tbgen imports Language from this module, and the batch tier
# imports tbgen, so both need this module's names defined first. Each is
# read as a module attribute at call time.
from repro.designs import tbgen  # noqa: E402
from repro.designs.model import TOP_NAME  # noqa: E402
from repro.sim import batch as simbatch  # noqa: E402
