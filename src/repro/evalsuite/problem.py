"""Realized benchmark problems.

A :class:`Problem` is a :class:`~repro.designs.model.ProblemDefinition` plus
everything derived from it: the golden testbench per language (a
:class:`~repro.designs.tbgen.Testbench`, which carries its stimulus bundle)
and mutation catalogs keyed by language. The golden testbench is the
*suite's* secret judge (like VerilogEval's reference testbenches); the
pipeline's self-generated testbench is produced separately by the Code
Agent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.designs.model import CombModel, DesignSpec, ProblemDefinition, SeqModel
from repro.designs.mutations import Mutation
from repro.designs.tbgen import Testbench, make_testbench
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
    golden_tb: dict[Language, Testbench]
    syntax_mutations: dict[Language, list[Mutation]]
    functional_mutations: dict[Language, list[Mutation]]

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
            syntax_mutations={
                Language.VERILOG: list(definition.syntax_mutations_verilog),
                Language.VHDL: list(definition.syntax_mutations_vhdl),
            },
            functional_mutations={
                Language.VERILOG: list(definition.functional_mutations_verilog),
                Language.VHDL: list(definition.functional_mutations_vhdl),
            },
        )
