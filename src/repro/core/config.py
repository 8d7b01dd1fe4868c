"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.eda.toolchain import Language


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the AIVRIL2 pipeline.

    Defaults reflect the paper's setup; the ablation benchmarks toggle
    ``testbench_first`` to measure the testbench-first methodology §2.2
    argues for. The testbench stays frozen across the functional loop, as
    the paper's unbiased-standard argument requires.
    """

    language: Language = Language.VERILOG
    #: iteration caps for the two optimization loops
    max_syntax_iterations: int = 6
    max_functional_iterations: int = 6
    #: generate the testbench before the RTL (AIVRIL2) instead of after
    #: (AIVRIL-style simultaneous generation)
    testbench_first: bool = True

    def __post_init__(self) -> None:
        if self.max_syntax_iterations < 1:
            raise ValueError("max_syntax_iterations must be >= 1")
        if self.max_functional_iterations < 1:
            raise ValueError("max_functional_iterations must be >= 1")
