"""Wrapper-based layer tracer for the end-to-end benchmark.

The tracer wraps the public entry points of each layer from the outside,
without touching the program: functions are replaced in every loaded module
that holds them (the place their callers look them up, e.g.
``repro.eda.toolchain.parse_verilog``), methods are replaced on their class.
Each call becomes a span (layer, start, end, parent). A layer's self time
is its spans' duration minus the time covered by child spans, so the
self times of all layers plus ``trace.unattributed_s`` add up to the
traced window. Spans stay in memory until :meth:`LayerTracer.write`.

Counters ride on the same boundaries (bytes and tokens lexed, texts parsed
or designs elaborated more than once in this process, kernel activations,
batch vectors, accepted batch plans) and are exact: two traced runs of the
same inputs give the same counts.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter

#: every layer, in report order
LAYERS = (
    "frontend.lex",
    "frontend.parse",
    "frontend.analyze",
    "sim.elaborate",
    "sim.run",
    "sim.batch",
    "sim.batch_plan",
    "eda.compile",
    "eda.simulate",
    "agents",
    "llm",
    "qa.generate",
    "qa.render",
    "qa.oracle",
    "designs.tbgen",
    "exec",
)

#: per-layer metrics beyond ``<layer>.calls`` and ``<layer>.self_s``
EXTRA_METRICS = (
    ("frontend.lex.bytes", "bytes"),
    ("frontend.lex.tokens", "count"),
    ("frontend.lex.mb_per_s", "MB/s"),
    ("frontend.parse.repeats", "count"),
    ("sim.elaborate.repeats", "count"),
    ("sim.run.activations", "count"),
    ("sim.run.delta_cycles", "count"),
    ("sim.batch.vectors", "count"),
    ("sim.batch_plan.accepted_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.calls", "count"))
        names.append((f"{layer}.self_s", "s"))
    names.extend(EXTRA_METRICS)
    return names


def _digest(*parts: str) -> bytes:
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part.encode())
        hasher.update(b"\x1f")
    return hasher.digest()


class LayerTracer:
    """Records spans and counters around wrapped layer entry points."""

    def __init__(self):
        #: spans as (layer, start, end, parent span index or -1)
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index, child seconds]
        self._seen: set[bytes] = set()
        #: file-set digests of the enclosing Toolchain calls
        self._files: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.window_start = 0.0
        self.window_end = 0.0

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, layer: str, before=None, after=None):
        spans = self.spans
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (layer, start, end, parent)
                calls[layer] += 1
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if after is not None:
                    after(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def _seen_before(self, key: bytes) -> bool:
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    # -- installation ---------------------------------------------------------

    def patch_method(self, cls, name: str, layer: str, before=None,
                     after=None) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(original, layer, before, after))
        self._patches.append((cls, name, original, True))

    def patch_function(self, fn, layer: str, after=None) -> None:
        """Replace ``fn`` in every loaded module that holds it."""
        wrapped = self._wrap(fn, layer, after=after)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    namespace[attr] = wrapped
                    self._patches.append((namespace, attr, fn, False))

    def uninstall(self) -> None:
        for owner, attr, original, is_class in reversed(self._patches):
            if is_class:
                setattr(owner, attr, original)
            else:
                owner[attr] = original
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer's public entry points (table in README.md)."""
        from repro.agents.code_agent import CodeAgent
        from repro.agents.review_agent import ReviewAgent
        from repro.agents.verification_agent import VerificationAgent
        from repro.core.pipeline import Aivril2Pipeline, run_baseline
        from repro.designs.tbgen import make_testbench
        from repro.eda.toolchain import Toolchain
        from repro.exec.engine import ExecutionEngine
        from repro.llm.synthetic import SyntheticDesignLLM
        from repro.qa.oracle import run_oracle
        from repro.qa.render import render_verilog, render_vhdl
        from repro.qa.spec import generate_spec
        from repro.sim.batch import (
            plan_combinational,
            plan_sequential,
            run_bundle,
        )
        from repro.sim.elab_verilog import elaborate_verilog
        from repro.sim.elab_vhdl import elaborate_vhdl
        from repro.sim.kernel import Simulator
        from repro.verilog.analyzer import VerilogAnalyzer
        from repro.verilog.lexer import VerilogLexer
        from repro.verilog.parser import parse_verilog
        from repro.vhdl.analyzer import VhdlAnalyzer
        from repro.vhdl.lexer import VhdlLexer
        from repro.vhdl.parser import parse_vhdl

        counts = self.counts

        def lexed(args, kwargs, tokens):
            counts["frontend.lex.bytes"] += len(args[0].source.text)
            if tokens is not None:
                counts["frontend.lex.tokens"] += len(tokens)

        def parsed(language):
            def hook(args, kwargs, result):
                text = args[0] if args else kwargs["text"]
                if self._seen_before(_digest("parse", language, text)):
                    counts["frontend.parse.repeats"] += 1
            return hook

        # an elaboration repeats when the same units of the same enclosing
        # Toolchain file set are elaborated again under the same top
        def enter_toolchain(args, kwargs):
            files = args[1] if len(args) > 1 else kwargs["files"]
            top = args[2] if len(args) > 2 else kwargs["top"]
            parts = [top]
            for hdl_file in files:
                parts += [hdl_file.name, hdl_file.language.value,
                          hdl_file.text]
            self._files.append(_digest(*parts).hex())

        def leave_toolchain(args, kwargs, result):
            self._files.pop()

        def elaborated(unit_names):
            def hook(args, kwargs, result):
                enclosing = self._files[-1] if self._files else ""
                key = _digest(
                    "elab", enclosing, args[1],
                    ",".join(sorted(unit_names(args[0]))), args[2].text,
                )
                if self._seen_before(key):
                    counts["sim.elaborate.repeats"] += 1
            return hook

        def simulated(args, kwargs, result):
            stats = args[0].stats
            counts["sim.run.activations"] += stats.process_activations
            counts["sim.run.delta_cycles"] += stats.delta_cycles

        def batched(args, kwargs, outcome):
            if outcome is not None:
                counts["sim.batch.vectors"] += outcome.vectors

        def planned(args, kwargs, plan):
            if plan is not None:
                counts["sim.batch_plan.accepted"] += 1

        for lexer in (VerilogLexer, VhdlLexer):
            self.patch_method(lexer, "tokenize", "frontend.lex", after=lexed)
        self.patch_function(parse_verilog, "frontend.parse",
                            after=parsed("verilog"))
        self.patch_function(parse_vhdl, "frontend.parse",
                            after=parsed("vhdl"))
        for analyzer in (VerilogAnalyzer, VhdlAnalyzer):
            self.patch_method(analyzer, "analyze", "frontend.analyze")
        self.patch_function(
            elaborate_verilog, "sim.elaborate",
            after=elaborated(lambda modules: modules.keys()),
        )
        self.patch_function(
            elaborate_vhdl, "sim.elaborate",
            after=elaborated(lambda merged: (e.name for e in merged.entities)),
        )
        self.patch_method(Simulator, "run", "sim.run", after=simulated)
        self.patch_function(run_bundle, "sim.batch", after=batched)
        for plan_fn in (plan_combinational, plan_sequential):
            self.patch_function(plan_fn, "sim.batch_plan", after=planned)
        for name, layer in (("compile", "eda.compile"),
                            ("simulate", "eda.simulate")):
            self.patch_method(Toolchain, name, layer,
                              before=enter_toolchain, after=leave_toolchain)
        for name in ("generate_testbench", "generate_rtl", "revise_rtl"):
            self.patch_method(CodeAgent, name, "agents")
        self.patch_method(ReviewAgent, "review", "agents")
        self.patch_method(VerificationAgent, "verify", "agents")
        self.patch_method(Aivril2Pipeline, "run", "agents")
        self.patch_function(run_baseline, "agents")
        self.patch_method(SyntheticDesignLLM, "complete", "llm")
        self.patch_function(generate_spec, "qa.generate")
        self.patch_function(render_verilog, "qa.render")
        self.patch_function(render_vhdl, "qa.render")
        self.patch_function(run_oracle, "qa.oracle")
        self.patch_function(make_testbench, "designs.tbgen")
        self.patch_method(ExecutionEngine, "run", "exec")

    # -- window and report ----------------------------------------------------

    def start(self) -> None:
        self.window_start = clock()

    def stop(self) -> None:
        self.window_end = clock()

    def metrics(self, overhead_ratio: float,
                probe_s: float) -> dict[str, float]:
        """Every per-layer metric by name (see :func:`per_layer_metric_names`).

        ``probe_s`` is the time the benchmark's host probes took inside the
        window; it is no part of the program, so not unattributed time."""
        values: dict[str, float] = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = self.calls[layer]
            values[f"{layer}.self_s"] = self.self_s[layer]
        counts = self.counts
        lex_s = self.self_s["frontend.lex"]
        lex_bytes = counts["frontend.lex.bytes"]
        values["frontend.lex.bytes"] = lex_bytes
        values["frontend.lex.tokens"] = counts["frontend.lex.tokens"]
        values["frontend.lex.mb_per_s"] = (
            lex_bytes / lex_s / 1e6 if lex_s else 0.0
        )
        for name in ("frontend.parse.repeats", "sim.elaborate.repeats",
                     "sim.run.activations", "sim.run.delta_cycles",
                     "sim.batch.vectors"):
            values[name] = counts[name]
        plans = self.calls["sim.batch_plan"]
        values["sim.batch_plan.accepted_ratio"] = (
            counts["sim.batch_plan.accepted"] / plans if plans else 0.0
        )
        window = self.window_end - self.window_start
        values["trace.unattributed_s"] = (
            window - probe_s - sum(self.self_s.values())
        )
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the window."""
        origin = self.window_start
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, start, end, parent = span
                out.write(json.dumps({
                    "id": index,
                    "parent": parent,
                    "layer": layer,
                    "start_us": round((start - origin) * 1e6, 1),
                    "dur_us": round((end - start) * 1e6, 1),
                }) + "\n")
