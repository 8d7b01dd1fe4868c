"""Both simulation paths, reached through the input alone.

A file set holding a generated :class:`~repro.designs.tbgen.Testbench`
runs on the batch tier whenever its DUT plans. ``str()`` of the testbench
is the same text without its stimulus bundle, so the same set with that
text runs on the event kernel, with the same observables. The two sets
share every store key, so each path runs in its own fresh toolchain.
"""

from __future__ import annotations

from dataclasses import replace

from repro.eda.toolchain import HdlFile, Toolchain
from repro.obs import NullSink, Tracer, get_tracer, set_tracer


def plain_text(files: list[HdlFile]) -> list[HdlFile]:
    """*files* with each generated testbench swapped for ``str()`` of it:
    the set runs on the event kernel."""
    return [replace(hdl_file, text=str(hdl_file.text)) for hdl_file in files]


def observables(result):
    """Everything a simulate reports, ``tool_seconds`` included."""
    return (
        result.ok,
        result.output_lines,
        result.log,
        result.end_time,
        result.finished_cleanly,
        result.runtime_error,
        result.tool_seconds,
    )


def simulate(files: list[HdlFile], top: str = "tb"):
    """``(result, sim.batch_calls)`` of one simulate in a fresh toolchain,
    counted by a fresh tracer."""
    previous = get_tracer()
    set_tracer(Tracer(NullSink()))
    try:
        result = Toolchain().simulate(files, top)
        return result, get_tracer().metrics.counter("sim.batch_calls").value
    finally:
        set_tracer(previous)


def simulate_kernel(files: list[HdlFile], top: str = "tb"):
    """The event kernel's result for *files*: their :func:`plain_text`
    simulated in a fresh toolchain, which makes no batch call."""
    result, calls = simulate(plain_text(files), top)
    assert calls == 0, "a plain-text set reached the batch tier"
    return result
