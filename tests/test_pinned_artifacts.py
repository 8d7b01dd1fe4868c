"""Pinned paper artifacts: Table 1, Table 2 and Figure 3 on a fixed subset.

A family-stratified subset of the suite (two problems from each of the four
largest families, one from each of the others) is swept serially and its
renderings compared byte for byte with the committed files under
``tests/golden/``. An artifact must not depend on which internal
optimization ran, so Tables 1 and 2 are checked under the default tiers and
under each ``REPRO_SIM_*`` flag. Figure 3 is checked under the default
tiers only, rendered in a fresh process: its modeled seconds still depend on
which tier simulated each testbench, and so on the process-wide stimulus
bundle registry that picks the batch tier.

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
from pathlib import Path

import pytest

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

#: every tier configuration: the default, then each ``REPRO_SIM_*`` flag
TIER_FLAGS = (
    "REPRO_SIM_NO_LEVEL",
    "REPRO_SIM_NO_TWOSTATE",
    "REPRO_SIM_NO_BATCH",
    "REPRO_SIM_NO_NUMPY",
)


def render_artifacts() -> dict[str, str]:
    """Sweep the subset serially; every artifact's rendering by name."""
    from repro.eval.figures import render_figure3
    from repro.eval.runner import ExperimentRunner
    from repro.eval.tables import render_table1, render_table2
    from repro.evalsuite.suite import build_suite

    suite = build_suite().subset(list(PROBLEMS))
    results = ExperimentRunner(suite=suite, workers=1).run_all()
    return {
        "table1": render_table1(results) + "\n",
        "table2": render_table2(results) + "\n",
        "figure3": render_figure3(results) + "\n",
    }


def _default_tiers_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in TIER_FLAGS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def _fresh_process_artifacts() -> dict[str, str]:
    """The renderings under the default tiers, from a fresh interpreter."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from test_pinned_artifacts import render_artifacts\n"
        "print(json.dumps(render_artifacts()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_default_tiers_env(),
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


@pytest.mark.parametrize("flag", TIER_FLAGS)
def test_tables_are_tier_blind(flag, monkeypatch):
    for other in TIER_FLAGS:
        monkeypatch.delenv(other, raising=False)
    monkeypatch.setenv(flag, "1")
    rendered = render_artifacts()
    assert rendered["table1"] == golden("table1")
    assert rendered["table2"] == golden("table2")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for artifact, text in _fresh_process_artifacts().items():
        (GOLDEN / f"{artifact}.txt").write_text(text)
        print(f"wrote {GOLDEN / artifact}.txt")
