"""Trace aggregation: turn a raw JSONL trace into a Figure 3-style report.

``repro sweep --trace run.jsonl`` records what happened; this module answers
the paper's behavioral questions from that record alone:

* per-configuration mean (and p50/p90) syntax/functional loop iterations —
  the Figure 3 iteration analysis, using the same to-convergence semantics
  as :class:`repro.eval.runner.ConfigResult`;
* per-stage modeled latency breakdown (generation / syntax loop /
  functional loop), summed exactly the way ``SweepMetrics`` does;
* toolchain activity and cache effectiveness (every compile/simulate span
  carries a ``cache`` attribute, so the hit rate reconstructed here equals
  the live ``SweepMetrics.cache_hit_rate``), plus the result store's hit
  rate per stage from its ``toolchain.store.<stage>.hit|miss|evict``
  counters;
* task lifecycle counts, replayed from the engine's event stream;
* LLM token totals from the pipeline spans.

Everything is derived from spans and events, never from in-process state,
so the numbers are identical whether the sweep ran serially or across
worker processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

#: span names the summarizer keys on (kept in one place for greppability)
TASK_SPAN = "task.problem"
COMPILE_SPAN = "toolchain.compile"
SIMULATE_SPAN = "toolchain.simulate"
#: the result store's per-stage counters are ``<prefix><stage>.<event>``
STORE_PREFIX = "toolchain.store."
STORE_EVENTS = ("hit", "miss", "evict")

#: the paper's three-agent pipeline, mapped from span names: the code
#: agent writes RTL (initial generation and the no-loop baseline), the
#: review agent drives the syntax loop, the verification agent drives the
#: functional loop. Only the top-level loop spans count — their nested
#: ``*.iteration`` children are already inside that wall time.
AGENT_SPAN_MAP = {
    "pipeline.generate": "code",
    "pipeline.baseline": "code",
    "loop.syntax": "review",
    "loop.functional": "verification",
}
AGENTS = ("code", "review", "verification")


def read_trace(path) -> list[dict]:
    """All records of a JSONL trace file, in file order."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                records.append(json.loads(text))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: line {lineno} is not valid JSON: {exc}"
                ) from exc
    return records


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


@dataclass
class ConfigTraceSummary:
    """Per-(model, language) aggregates reconstructed from task spans."""

    model: str
    language: str
    runs: int = 0  # task spans that completed (status ok)
    errors: int = 0  # task spans that ended in error status
    syntax_converged: int = 0
    functional_converged: int = 0
    #: to-convergence means (ConfigResult semantics: runs that entered the
    #: loop and ended clean), plus whole-population percentiles
    mean_syntax_iterations: float = 0.0
    p50_syntax_iterations: float = 0.0
    p90_syntax_iterations: float = 0.0
    mean_functional_iterations: float = 0.0
    p50_functional_iterations: float = 0.0
    p90_functional_iterations: float = 0.0
    #: modeled seconds per stage, averaged per run
    stage_seconds_per_run: dict = field(
        default_factory=lambda: {
            "generation": 0.0, "syntax": 0.0, "functional": 0.0
        }
    )
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def key(self) -> str:
        return f"{self.model}/{self.language}"


@dataclass
class TraceSummary:
    """Everything ``repro trace summarize`` reports."""

    path: str = ""
    record_count: int = 0
    span_count: int = 0
    event_count: int = 0
    metric_count: int = 0
    process_count: int = 0
    tasks_total: int = 0
    tasks_done: int = 0
    tasks_ok: int = 0
    tasks_error: int = 0
    task_retries: int = 0
    compile_count: int = 0
    simulate_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    sim_activations: int = 0
    sim_delta_cycles: int = 0
    sim_batch_calls: int = 0
    sim_batch_vectors: int = 0
    sim_batch_demotions: int = 0
    #: result-store stage → {"hit": n, "miss": n, "evict": n}
    store: dict = field(default_factory=dict)
    prompt_tokens: int = 0
    completion_tokens: int = 0
    stage_seconds: dict = field(
        default_factory=lambda: {
            "generation": 0.0, "syntax": 0.0, "functional": 0.0
        }
    )
    configs: list[ConfigTraceSummary] = field(default_factory=list)

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        if not self.cache_lookups:
            return 0.0
        return self.cache_hits / self.cache_lookups


def summarize_records(records: list[dict], *, path: str = "") -> TraceSummary:
    summary = TraceSummary(path=path, record_count=len(records))
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    summary.span_count = len(spans)
    summary.event_count = len(events)
    summary.metric_count = sum(1 for r in records if r.get("type") == "metric")
    summary.process_count = len({
        r["pid"] for r in records if isinstance(r.get("pid"), int)
    })

    # -- task lifecycle, replayed from the engine's event stream --------
    for event in events:
        name = event.get("name")
        if name == "task-done":
            summary.tasks_ok += 1
        elif name == "task-error":
            summary.tasks_error += 1
        elif name == "task-retry":
            summary.task_retries += 1
        elif name == "engine-start":
            summary.tasks_total += event.get("attrs", {}).get("total", 0)
        elif name == "engine-finish":
            summary.tasks_done += event.get("attrs", {}).get("done", 0)

    # -- toolchain activity and cache effectiveness ---------------------
    for span in spans:
        if span.get("name") not in (COMPILE_SPAN, SIMULATE_SPAN):
            continue
        if span["name"] == COMPILE_SPAN:
            summary.compile_count += 1
        else:
            summary.simulate_count += 1
        cache = span.get("attrs", {}).get("cache")
        if cache == "hit":
            summary.cache_hits += 1
        elif cache == "miss":
            summary.cache_misses += 1

    # -- scheduler and store counters: metric records are cumulative
    # snapshots, so keep the last value per (process, counter) and sum
    # across processes
    sim_last: dict[tuple[int, str], float] = {}
    for record in records:
        if record.get("type") != "metric":
            continue
        name = record.get("name", "")
        if name.startswith(("sim.", STORE_PREFIX)):
            sim_last[(record.get("pid", 0), name)] = record.get("value", 0)
    for (_, name), value in sim_last.items():
        stage, _, event = name[len(STORE_PREFIX):].rpartition(".")
        if name.startswith(STORE_PREFIX) and event in STORE_EVENTS:
            counts = summary.store.setdefault(
                stage, dict.fromkeys(STORE_EVENTS, 0)
            )
            counts[event] += int(value)
    for attr, metric in (
        ("sim_activations", "sim.activations"),
        ("sim_delta_cycles", "sim.delta_cycles"),
        ("sim_batch_calls", "sim.batch_calls"),
        ("sim_batch_vectors", "sim.batch_vectors"),
        ("sim_batch_demotions", "sim.batch_demotions"),
    ):
        setattr(summary, attr, int(sum(
            value for (_, name), value in sim_last.items() if name == metric
        )))

    # -- per-config aggregates from task spans --------------------------
    grouped: dict[tuple[str, str], list[dict]] = {}
    for span in spans:
        if span.get("name") != TASK_SPAN:
            continue
        attrs = span.get("attrs", {})
        key = (str(attrs.get("model", "?")), str(attrs.get("language", "?")))
        grouped.setdefault(key, []).append(span)

    for (model, language), task_spans in sorted(grouped.items()):
        config = ConfigTraceSummary(model=model, language=language)
        syntax_counts: list[float] = []
        functional_counts: list[float] = []
        syntax_converge: list[int] = []
        functional_converge: list[int] = []
        for span in task_spans:
            if span.get("status") != "ok":
                config.errors += 1
                continue
            attrs = span.get("attrs", {})
            config.runs += 1
            syntax_it = int(attrs.get("syntax_iterations", 0))
            functional_it = int(attrs.get("functional_iterations", 0))
            syntax_counts.append(syntax_it)
            functional_counts.append(functional_it)
            if attrs.get("aivril_syntax_ok"):
                config.syntax_converged += 1
                if syntax_it > 0:
                    syntax_converge.append(syntax_it)
            if attrs.get("aivril_functional_ok"):
                config.functional_converged += 1
                if functional_it > 0:
                    functional_converge.append(functional_it)
            for stage, attr in (
                ("generation", "latency_generation"),
                ("syntax", "latency_syntax"),
                ("functional", "latency_functional"),
            ):
                seconds = float(attrs.get(attr, 0.0))
                config.stage_seconds_per_run[stage] += seconds
                summary.stage_seconds[stage] += seconds
            config.prompt_tokens += int(attrs.get("prompt_tokens", 0))
            config.completion_tokens += int(attrs.get("completion_tokens", 0))
        if config.runs:
            for stage in config.stage_seconds_per_run:
                config.stage_seconds_per_run[stage] /= config.runs
        if syntax_converge:
            config.mean_syntax_iterations = (
                sum(syntax_converge) / len(syntax_converge)
            )
        if functional_converge:
            config.mean_functional_iterations = (
                sum(functional_converge) / len(functional_converge)
            )
        config.p50_syntax_iterations = _percentile(syntax_counts, 0.50)
        config.p90_syntax_iterations = _percentile(syntax_counts, 0.90)
        config.p50_functional_iterations = _percentile(functional_counts, 0.50)
        config.p90_functional_iterations = _percentile(
            functional_counts, 0.90
        )
        summary.prompt_tokens += config.prompt_tokens
        summary.completion_tokens += config.completion_tokens
        summary.configs.append(config)
    return summary


def summarize_trace(path) -> TraceSummary:
    """Read and aggregate one trace file."""
    return summarize_records(read_trace(path), path=str(path))


# ---------------------------------------------------------------------------
# --by-agent: wall time attributed to the paper's three pipeline agents


@dataclass
class AgentBreakdown:
    """Wall seconds per agent role, total and per configuration."""

    seconds: dict = field(
        default_factory=lambda: {agent: 0.0 for agent in AGENTS}
    )
    spans: dict = field(
        default_factory=lambda: {agent: 0 for agent in AGENTS}
    )
    #: config key (``model/language``) → {agent: seconds}
    configs: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())


def _enclosing_config(record: dict, spans: dict) -> str:
    """Walk parent ids up to the ``task.problem`` span's model/language."""
    seen: set[str] = set()
    current = record
    while current is not None:
        if current.get("name") == TASK_SPAN:
            attrs = current.get("attrs", {})
            return (
                f"{attrs.get('model', '?')}/{attrs.get('language', '?')}"
            )
        parent_id = current.get("parent_id")
        if not parent_id or parent_id in seen:
            break
        seen.add(parent_id)
        current = spans.get(parent_id)
    return "?"


def summarize_agents(records: list[dict]) -> AgentBreakdown:
    """Attribute span wall time to code/review/verification agents.

    The paper's Figure 3 decomposes loop latency by pipeline stage; this
    is the measured (not modeled) equivalent, reconstructed purely from
    the trace: each agent-owning span's wall time, attributed to the
    configuration of the ``task.problem`` span enclosing it.
    """
    spans = {
        r["span_id"]: r
        for r in records
        if r.get("type") == "span" and r.get("span_id")
    }
    breakdown = AgentBreakdown()
    for record in spans.values():
        agent = AGENT_SPAN_MAP.get(record.get("name"))
        if agent is None:
            continue
        wall = float(record.get("wall_seconds", 0.0))
        breakdown.seconds[agent] += wall
        breakdown.spans[agent] += 1
        config = _enclosing_config(record, spans)
        per_config = breakdown.configs.setdefault(
            config, {a: 0.0 for a in AGENTS}
        )
        per_config[agent] += wall
    return breakdown


def render_agent_breakdown(breakdown: AgentBreakdown) -> str:
    """The ``repro trace summarize --by-agent`` section."""
    total = breakdown.total_seconds
    lines = ["  agent breakdown (measured wall seconds):"]
    for agent in AGENTS:
        seconds = breakdown.seconds[agent]
        share = 100.0 * seconds / total if total else 0.0
        lines.append(
            f"    {agent:<13} {seconds:>9.3f}s  {share:>5.1f}%  "
            f"({breakdown.spans[agent]} span(s))"
        )
    if breakdown.configs:
        header = (
            f"    {'config':<28} "
            + " ".join(f"{agent:>13}" for agent in AGENTS)
        )
        lines.append(header)
        for config in sorted(breakdown.configs):
            per_config = breakdown.configs[config]
            lines.append(
                f"    {config:<28} "
                + " ".join(
                    f"{per_config[agent]:>12.3f}s" for agent in AGENTS
                )
            )
    return "\n".join(lines)


def _store_stage(stage: str, counts: dict) -> str:
    lookups = counts["hit"] + counts["miss"]
    rate = 100.0 * counts["hit"] / lookups if lookups else 0.0
    return (
        f"{stage} {rate:.1f}% ({counts['hit']}/{lookups}, "
        f"{counts['evict']} evicted)"
    )


def render_trace_summary(summary: TraceSummary) -> str:
    """Human-readable report (the ``repro trace summarize`` output)."""
    lines = [
        f"trace summary: {summary.path or '<records>'}",
        f"  records: {summary.record_count} "
        f"(spans {summary.span_count}, events {summary.event_count}, "
        f"metrics {summary.metric_count}) "
        f"from {summary.process_count} process(es)",
        f"  tasks: {summary.tasks_done}/{summary.tasks_total} done — "
        f"{summary.tasks_ok} ok, {summary.tasks_error} error(s), "
        f"{summary.task_retries} retr"
        f"{'y' if summary.task_retries == 1 else 'ies'}",
        f"  toolchain: {summary.compile_count} compile(s), "
        f"{summary.simulate_count} simulation(s); "
        f"cache {summary.cache_hits} hit / {summary.cache_misses} miss "
        f"({100.0 * summary.cache_hit_rate:.1f}% hit rate)",
        f"  simulator: {summary.sim_activations} activation(s), "
        f"{summary.sim_delta_cycles} delta cycle(s)",
        f"  batch tier: {summary.sim_batch_calls} call(s), "
        f"{summary.sim_batch_vectors} vector(s), "
        f"{summary.sim_batch_demotions} demotion(s)",
        "  store hit rate: " + (", ".join(
            _store_stage(stage, counts)
            for stage, counts in sorted(summary.store.items())
        ) or "no lookups recorded"),
        f"  llm tokens: {summary.prompt_tokens} prompt + "
        f"{summary.completion_tokens} completion (pipeline runs)",
        "  modeled stage seconds: " + ", ".join(
            f"{stage} {seconds:.2f}"
            for stage, seconds in summary.stage_seconds.items()
        ),
    ]
    if summary.configs:
        lines.append("")
        header = (
            f"  {'config':<28} {'runs':>4} {'err':>3} "
            f"{'syn it mean/p50/p90':>20} {'fun it mean/p50/p90':>20} "
            f"{'gen/syn/fun s per run':>22}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for config in summary.configs:
            stage = config.stage_seconds_per_run
            lines.append(
                f"  {config.key:<28} {config.runs:>4} {config.errors:>3} "
                f"{config.mean_syntax_iterations:>8.2f}/"
                f"{config.p50_syntax_iterations:.1f}/"
                f"{config.p90_syntax_iterations:.1f}"
                f"{config.mean_functional_iterations:>9.2f}/"
                f"{config.p50_functional_iterations:.1f}/"
                f"{config.p90_functional_iterations:.1f}"
                f"{stage['generation']:>9.2f}/{stage['syntax']:.2f}/"
                f"{stage['functional']:.2f}"
            )
    return "\n".join(lines)
