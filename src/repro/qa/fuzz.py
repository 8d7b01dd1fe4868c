"""Seeded differential fuzz campaigns over the dual-language toolchain.

A campaign runs ``count`` generated programs through the three-way oracle.
Program ``i`` depends only on ``(seed, i)`` — generation, rendering, and
judging all happen inside the per-program task — so a campaign is
embarrassingly parallel and its report is identical at any worker count
(:class:`repro.exec.engine.ExecutionEngine` merges outcomes by index). Each
program's result carries content hashes of both renderings, which is how the
determinism guarantee is enforced in tests rather than merely claimed.

Failure accounting: every program lands in exactly one
:class:`~repro.qa.oracle.FailureClass`; anything but ``OK`` (including a
task that died in the engine) is a divergence and is reported as a
replayable :class:`~repro.qa.oracle.QaCase`.
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass, field

from repro.eda.toolchain import Language, Toolchain
from repro.exec.engine import ExecutionEngine
from repro.exec.task import Task
from repro.obs import get_tracer
from repro.qa.oracle import FailureClass, QaCase, run_oracle
from repro.qa.spec import generate_spec, spec_op_kinds, spec_shape


@dataclass(frozen=True)
class ProgramResult:
    """One fuzzed program's classified outcome."""

    index: int
    name: str
    failure_class: FailureClass
    verilog_sha: str
    vhdl_sha: str
    seconds: float
    error: str = ""  # engine-level failure detail, when any
    # formal verdicts ("proved"/"refuted"/...), empty when --formal is off
    formal_verilog: str = ""
    formal_vhdl: str = ""
    formal_inconsistencies: tuple[str, ...] = ()
    # grammar telemetry: which op kinds the program used and its shape
    ops: tuple[str, ...] = ()
    shape: str = ""


@dataclass
class FuzzReport:
    """Everything one campaign produced, in program order."""

    seed: int
    count: int
    workers: int
    formal: bool = False
    results: list[ProgramResult] = field(default_factory=list)
    divergences: list[QaCase] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            key = result.failure_class.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def formal_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            for verdict in (result.formal_verilog, result.formal_vhdl):
                if verdict:
                    counts[verdict] = counts.get(verdict, 0) + 1
        return counts

    @property
    def shape_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            if result.shape:
                counts[result.shape] = counts.get(result.shape, 0) + 1
        return counts

    @property
    def op_class_counts(self) -> dict[str, dict[str, int]]:
        """Per-op-kind verdict table: op kind -> failure class -> n.

        The same table reaches the trace as
        ``qa.fuzz.op.<kind>.<class>`` counters, and ``repro trace
        summarize`` prints it back from them, one line per op kind.
        """
        table: dict[str, dict[str, int]] = {}
        for result in self.results:
            for op in result.ops:
                per_op = table.setdefault(op, {})
                key = result.failure_class.value
                per_op[key] = per_op.get(key, 0) + 1
        return table

    @property
    def formal_inconsistencies(self) -> list[str]:
        """Proof-vs-simulation contradictions across the whole campaign."""
        findings: list[str] = []
        for result in self.results:
            findings.extend(
                f"#{result.index} {result.name}: {finding}"
                for finding in result.formal_inconsistencies
            )
        return findings

    @property
    def ok(self) -> bool:
        # an ``unsupported`` proof on a *generated* (unmutated) spec means
        # the encoder/extractor lost closure over the grammar — the whole
        # point of the proof ladder — so a formal campaign fails on it
        return (
            not self.divergences
            and not self.formal_inconsistencies
            and not (self.formal and self.formal_counts.get("unsupported"))
        )

    @property
    def throughput(self) -> float:
        """Programs judged per second of campaign wall-clock."""
        if self.elapsed <= 0:
            return 0.0
        return len(self.results) / self.elapsed

    def render(self) -> str:
        lines = [
            f"qa fuzz: seed={self.seed} count={self.count} "
            f"workers={self.workers} — {len(self.results)} program(s) in "
            f"{self.elapsed:.1f}s ({self.throughput:.1f}/s)"
        ]
        counts = self.class_counts
        lines.append(
            "  classes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        shapes = self.shape_counts
        if shapes:
            lines.append(
                "  shapes: "
                + ", ".join(f"{k}={v}" for k, v in sorted(shapes.items()))
            )
        if self.formal:
            formal_counts = self.formal_counts
            lines.append(
                "  formal: "
                + (", ".join(
                    f"{k}={v}" for k, v in sorted(formal_counts.items())
                ) or "none")
            )
            for finding in self.formal_inconsistencies:
                lines.append(f"  FORMAL INCONSISTENCY: {finding}")
        if self.divergences:
            lines.append(f"  DIVERGENCES ({len(self.divergences)}):")
            by_name = {c.case_name: c for c in self.divergences}
            for result in self.results:
                if result.failure_class is FailureClass.OK:
                    continue
                case = by_name.get(result.name)
                note = case.note if case else result.error
                lines.append(
                    f"    #{result.index} {result.name}: "
                    f"{result.failure_class.value}"
                    + (f" ({note.splitlines()[0]})" if note else "")
                )
        else:
            lines.append("  divergences: none")
        return "\n".join(lines)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fuzz_program(seed: int, index: int, formal: bool = False) -> dict:
    """One task: generate, render, judge. Module-level, hence picklable."""
    started = _time.perf_counter()
    spec = generate_spec(seed, index)
    verdict = run_oracle(QaCase(spec=spec), Toolchain(), formal=formal)
    payload = {
        "index": index,
        "name": spec.name,
        "class": verdict.failure_class.value,
        # the oracle's renderings: the case injects no mutation
        "verilog_sha": _sha(verdict.sources[Language.VERILOG]),
        "vhdl_sha": _sha(verdict.sources[Language.VHDL]),
        "seconds": _time.perf_counter() - started,
        "verilog_status": verdict.verilog.status,
        "vhdl_status": verdict.vhdl.status,
        "ops": sorted(spec_op_kinds(spec)),
        "shape": spec_shape(spec),
    }
    if verdict.formal is not None:
        payload["formal_verilog"] = verdict.formal.verilog.verdict.value
        payload["formal_vhdl"] = verdict.formal.vhdl.verdict.value
        payload["formal_inconsistencies"] = list(
            verdict.formal.inconsistencies
        )
    return payload


def run_fuzz(
    seed: int,
    count: int,
    *,
    workers: int = 1,
    task_timeout: float | None = None,
    progress=None,
    formal: bool = False,
) -> FuzzReport:
    """Run one campaign; the report is identical at any ``workers`` value.

    ``formal=True`` adds the proof-based verdict to every program and makes
    the campaign fail on any proof-vs-simulation inconsistency.
    ``progress`` receives every engine event, as the engine emits it.
    """
    tracer = get_tracer()
    with tracer.span(
        "qa.fuzz", seed=seed, count=count, workers=workers, formal=formal
    ) as span:
        started = _time.perf_counter()
        engine = ExecutionEngine(
            workers=workers, timeout=task_timeout, progress=progress
        )
        tasks = [
            Task(
                index=index,
                key=f"qa/s{seed}/p{index}",
                fn=_fuzz_program,
                args=(seed, index, formal),
            )
            for index in range(count)
        ]
        outcomes = engine.run(tasks)
        report = FuzzReport(
            seed=seed, count=count, workers=workers, formal=formal
        )
        for outcome in outcomes:
            if outcome.ok:
                payload = outcome.value
                result = ProgramResult(
                    index=payload["index"],
                    name=payload["name"],
                    failure_class=FailureClass(payload["class"]),
                    verilog_sha=payload["verilog_sha"],
                    vhdl_sha=payload["vhdl_sha"],
                    seconds=payload["seconds"],
                    formal_verilog=payload.get("formal_verilog", ""),
                    formal_vhdl=payload.get("formal_vhdl", ""),
                    formal_inconsistencies=tuple(
                        payload.get("formal_inconsistencies", ())
                    ),
                    ops=tuple(payload.get("ops", ())),
                    shape=payload.get("shape", ""),
                )
            else:
                # the task itself died (raised / timed out / took its worker
                # down): that is a crash-class divergence, not a silent gap
                spec = generate_spec(seed, outcome.index)
                result = ProgramResult(
                    index=outcome.index,
                    name=spec.name,
                    failure_class=FailureClass.CRASH,
                    verilog_sha="",
                    vhdl_sha="",
                    seconds=outcome.seconds,
                    error=f"task {outcome.status}: {outcome.error}".strip(),
                    ops=tuple(sorted(spec_op_kinds(spec))),
                    shape=spec_shape(spec),
                )
            report.results.append(result)
            tracer.metrics.counter("qa.fuzz.programs").inc()
            tracer.metrics.counter(
                f"qa.fuzz.class.{result.failure_class.value}"
            ).inc()
            tracer.metrics.counter(
                f"qa.fuzz.shape.{result.shape}"
            ).inc()
            for op in result.ops:
                tracer.metrics.counter(
                    f"qa.fuzz.op.{op}.{result.failure_class.value}"
                ).inc()
            if result.failure_class is not FailureClass.OK:
                report.divergences.append(
                    QaCase(
                        spec=generate_spec(seed, result.index),
                        expected_class=result.failure_class,
                        note=result.error
                        or f"found by qa fuzz --seed {seed} "
                           f"(program {result.index})",
                    )
                )
        report.elapsed = _time.perf_counter() - started
        tracer.metrics.counter("qa.fuzz.divergences").inc(
            len(report.divergences)
        )
        span.set_attrs(
            programs=len(report.results),
            divergences=len(report.divergences),
            throughput=round(report.throughput, 2),
        )
    # the classification counters above land after the engine's last
    # flush, so the campaign ends with a forced one
    tracer.flush_metrics()
    return report
