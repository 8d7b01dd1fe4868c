"""Shared builders for problem-family generators."""

from __future__ import annotations

from typing import Callable

from repro.designs.model import (
    CombModel,
    DesignSpec,
    PortSpec,
    ProblemDefinition,
    SeqModel,
)
from repro.designs.mutations import Mutation, syntax
from repro.evalsuite.hdl_helpers import v_module, vh_entity


def ports(*specs: tuple[str, int, str]) -> tuple[PortSpec, ...]:
    """Terse port construction: ports(("a", 4, "in"), ("y", 4, "out"))."""
    return tuple(PortSpec(name, width, direction) for name, width, direction in specs)


def comb_problem(
    *,
    pid: str,
    family: str,
    prompt: str,
    port_specs: tuple[PortSpec, ...],
    v_body: str,
    vh_body: str,
    fn: Callable[[dict[str, int]], dict[str, int]],
    vh_decls: str = "",
    v_syntax: list[Mutation] | None = None,
    vh_syntax: list[Mutation] | None = None,
    v_functional: list[Mutation] | None = None,
    vh_functional: list[Mutation] | None = None,
    v_reg_outputs: set[str] | None = None,
    extra_vectors: list[dict[str, int]] | None = None,
) -> ProblemDefinition:
    """Build a combinational problem from per-language body text."""
    spec = DesignSpec(name=pid, ports=port_specs, clocked=False)
    return ProblemDefinition(
        pid=pid,
        family=family,
        spec=spec,
        prompt=prompt,
        reference_verilog=v_module(spec, v_body, reg_outputs=v_reg_outputs),
        reference_vhdl=vh_entity(spec, vh_decls, vh_body),
        model=CombModel(fn),
        syntax_mutations_verilog=v_syntax or default_verilog_syntax(),
        syntax_mutations_vhdl=vh_syntax or default_vhdl_syntax(),
        functional_mutations_verilog=v_functional or [],
        functional_mutations_vhdl=vh_functional or [],
        extra_vectors=extra_vectors or [],
    )


def seq_problem(
    *,
    pid: str,
    family: str,
    prompt: str,
    port_specs: tuple[PortSpec, ...],
    v_body: str,
    vh_body: str,
    reset: Callable[[], object],
    step: Callable[[object, dict[str, int]], tuple[object, dict[str, int]]],
    vh_decls: str = "",
    v_syntax: list[Mutation] | None = None,
    vh_syntax: list[Mutation] | None = None,
    v_functional: list[Mutation] | None = None,
    vh_functional: list[Mutation] | None = None,
    v_reg_outputs: set[str] | None = None,
    random_cycles: int = 24,
    extra_cycles: list[dict[str, int]] | None = None,
    reset_outputs: dict[str, int] | None = None,
) -> ProblemDefinition:
    """Build a sequential (clk + sync rst) problem from per-language body text.

    ``extra_cycles`` are directed stimulus cycles inserted right after reset
    (before the default stimulus); ``reset_outputs`` adds a post-reset check
    so wrong-reset-value defects stay observable.
    """
    spec = DesignSpec(name=pid, ports=port_specs, clocked=True, has_reset=True)
    return ProblemDefinition(
        pid=pid,
        family=family,
        spec=spec,
        prompt=prompt,
        reference_verilog=v_module(spec, v_body, reg_outputs=v_reg_outputs),
        reference_vhdl=vh_entity(spec, vh_decls, vh_body),
        model=SeqModel(reset=reset, step=step),
        syntax_mutations_verilog=v_syntax or default_verilog_syntax(),
        syntax_mutations_vhdl=vh_syntax or default_vhdl_syntax(),
        functional_mutations_verilog=v_functional or [],
        functional_mutations_vhdl=vh_functional or [],
        random_cycles=random_cycles,
        extra_vectors=extra_cycles or [],
        reset_outputs=reset_outputs,
    )


# --------------------------------------------------------------------------
# default syntax-defect catalogs
#
# These anchors exist in every skeleton emitted by hdl_helpers, so families
# can rely on them without crafting anchors of their own.
# --------------------------------------------------------------------------


def default_verilog_syntax() -> list[Mutation]:
    return [
        syntax(
            "misspelled 'endmodule' keyword",
            "endmodule",
            "endmodul",
        ),
        syntax(
            "misspelled 'module' keyword in the header",
            "module top_module",
            "modul top_module",
        ),
    ]


def default_vhdl_syntax() -> list[Mutation]:
    return [
        syntax(
            "missing 'is' in entity declaration",
            "entity top_module is",
            "entity top_module",
        ),
        syntax(
            "misspelled 'architecture' keyword",
            "architecture rtl of",
            "architecure rtl of",
        ),
    ]
