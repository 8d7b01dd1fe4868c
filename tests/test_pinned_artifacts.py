"""Pinned paper artifacts: Table 1, Table 2 and Figure 3 on a fixed subset.

A family-stratified subset of the suite (two problems from each of the four
largest families, one from each of the others) is swept serially and its
renderings compared byte for byte with the committed files under
``tests/golden/``. An artifact must not depend on which internal
optimization ran, so every artifact is checked as the suite stands,
rendered in a fresh process, and again with every golden testbench passed
as its plain text, which carries no stimulus bundle and so sends every
simulation to the event kernel. Figure 3's modeled seconds count
simulated time, which both paths report alike.

Table 2 is rendered from the same sweep as Table 1; it reads only the
Verilog configurations, which is all ``repro sweep --artifact table2`` runs.

To regenerate the golden files after a deliberate artifact change::

    PYTHONPATH=src python tests/test_pinned_artifacts.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

#: two problems from each of the four largest families, one from the rest
PROBLEMS = (
    "gates_xor", "gates_aoi22",
    "vec_nand6", "vec_split",
    "adder4", "satadd4",
    "fsm_detect110", "fsm_startstop",
    "mux2_4bit", "seven_seg", "barrel_shl8", "bin2gray4", "tff",
    "counter8", "piso8", "edge_any", "running_max4", "struct_addsub4",
)


def subset():
    from repro.evalsuite.suite import build_suite

    return build_suite().subset(list(PROBLEMS))


def render_artifacts(suite=None) -> dict[str, str]:
    """Sweep *suite* (default: the subset) serially; every artifact's
    rendering by name."""
    from repro.eval.figures import render_figure3
    from repro.eval.runner import ExperimentRunner
    from repro.eval.tables import render_table1, render_table2

    suite = subset() if suite is None else suite
    results = ExperimentRunner(suite=suite, workers=1).run_all()
    return {
        "table1": render_table1(results) + "\n",
        "table2": render_table2(results) + "\n",
        "figure3": render_figure3(results) + "\n",
    }


def _fresh_process_artifacts() -> dict[str, str]:
    """The renderings of the subset as it stands, from a fresh
    interpreter."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from test_pinned_artifacts import render_artifacts\n"
        "print(json.dumps(render_artifacts()))\n"
    )
    path = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text()


def test_default_tiers_match_the_golden_renderings():
    rendered = _fresh_process_artifacts()
    for name in ("table1", "table2", "figure3"):
        assert rendered[name] == golden(name), name


def test_artifacts_are_tier_blind():
    """With each golden testbench as plain text, every simulation takes
    the event kernel, and every artifact renders the same."""
    from repro.evalsuite.suite import Suite
    from repro.obs import NullSink, Tracer, get_tracer, set_tracer

    suite = Suite(problems=[
        replace(problem, golden_tb={
            language: str(testbench)
            for language, testbench in problem.golden_tb.items()
        })
        for problem in subset()
    ])
    previous = get_tracer()
    set_tracer(Tracer(NullSink()))
    try:
        rendered = render_artifacts(suite)
        batch_calls = get_tracer().metrics.counter("sim.batch_calls").value
    finally:
        set_tracer(previous)
    assert batch_calls == 0
    for name in ("table1", "table2", "figure3"):
        assert rendered[name] == golden(name), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for artifact, text in _fresh_process_artifacts().items():
        (GOLDEN / f"{artifact}.txt").write_text(text)
        print(f"wrote {GOLDEN / artifact}.txt")
