"""Realized benchmark problems.

A :class:`Problem` is a :class:`~repro.designs.model.ProblemDefinition` plus
everything derived from it: golden testbench text per language and mutation
catalogs keyed by language. The golden testbench is the *suite's* secret
judge (like VerilogEval's reference testbenches); the pipeline's self-
generated testbench is produced separately by the Code Agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.designs.model import CombModel, DesignSpec, ProblemDefinition, SeqModel
from repro.designs.mutations import Mutation
from repro.designs.tbgen import StimulusBundle, make_testbench, stimulus_bundle
from repro.eda.toolchain import Language


@dataclass
class Problem:
    """One realized benchmark problem, ready for experiments."""

    pid: str
    family: str
    spec: DesignSpec
    prompt: str
    model: CombModel | SeqModel
    reference: dict[Language, str]
    golden_tb: dict[Language, str]
    syntax_mutations: dict[Language, list[Mutation]]
    functional_mutations: dict[Language, list[Mutation]]
    #: the golden testbenches' stimulus bundles, held here so the batch
    #: tier finds them for as long as the problem lives
    golden_bundles: dict[Language, StimulusBundle] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def clocked(self) -> bool:
        return self.spec.clocked

    @staticmethod
    def realize(definition: ProblemDefinition) -> "Problem":
        golden = {
            language: make_testbench(
                definition.spec,
                definition.model,
                language,
                definition.pid,
                extra_vectors=definition.extra_vectors,
                random_cycles=definition.random_cycles,
                reset_outputs=definition.reset_outputs,
            )
            for language in Language
        }
        return Problem(
            pid=definition.pid,
            family=definition.family,
            spec=definition.spec,
            prompt=definition.prompt,
            model=definition.model,
            reference={
                Language.VERILOG: definition.reference_verilog,
                Language.VHDL: definition.reference_vhdl,
            },
            golden_tb=golden,
            golden_bundles={
                language: stimulus_bundle(text)
                for language, text in golden.items()
            },
            syntax_mutations={
                Language.VERILOG: list(definition.syntax_mutations_verilog),
                Language.VHDL: list(definition.syntax_mutations_vhdl),
            },
            functional_mutations={
                Language.VERILOG: list(definition.functional_mutations_verilog),
                Language.VHDL: list(definition.functional_mutations_vhdl),
            },
        )
