"""Delta-debugging reducer: shrink a failing case to a minimal reproducer.

Greedy fixpoint search over spec-level simplifications, each verified by a
full oracle run — a candidate is accepted only when it still produces the
*same* failure class as the original, so the reproducer that comes out the
other end demonstrates the identical defect:

* declock — turn a registered design combinational;
* drop output ports (and the now-unreferenced parts of the interface);
* prune expression nodes (hoist a child over its parent, collapse a
  subtree to ``0``, or rewrite a widened op toward the legacy core —
  ``sra``→``shr``, shifts/``cat``→bitwise, reductions/slices→``not``,
  ``slt``→``lt``) via :func:`repro.qa.grammar.pruned`;
* drop or zero unused inputs;
* shrink the data width.

Textual mutations ride along unchanged: :func:`~repro.qa.oracle.case_sources`
raises :class:`~repro.designs.mutations.MutationError` when a candidate's
rendering no longer contains the mutation's anchor, and such candidates are
simply rejected. Content-hash node naming (:mod:`repro.qa.render`) makes
anchors survive every shrink that does not touch the mutated node itself,
which is what lets reduction dig a small reproducer out of a large program.

Every accepted step strictly shrinks the lexicographic measure ``(clocked,
ports, nodes, op complexity, non-zero leaves, referenced inputs, width)`` —
op rewrites keep the node count but strictly lower
:func:`~repro.qa.grammar.complexity`, and leaf collapses to ``["const", 0]``
keep both but lower the leaf component — so the search terminates;
``max_checks`` additionally caps the oracle budget.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace

from repro.designs.mutations import MutationError
from repro.eda.toolchain import Toolchain
from repro.obs import get_tracer
from repro.qa.grammar import pruned, substitute, variables
from repro.qa.oracle import FailureClass, QaCase, run_oracle
from repro.qa.spec import MIN_WIDTH, QaSpec


@dataclass
class ReductionResult:
    """Outcome of one reduction run."""

    original: QaCase
    reduced: QaCase
    failure_class: FailureClass
    accepted_steps: int
    oracle_runs: int
    seconds: float

    @property
    def summary(self) -> str:
        before, after = self.original.spec, self.reduced.spec
        return (
            f"{self.failure_class.value}: "
            f"ports {before.port_count}->{after.port_count}, "
            f"nodes {before.node_count}->{after.node_count}, "
            f"width {before.width}->{after.width}, "
            f"clocked {before.clocked}->{after.clocked} "
            f"({self.accepted_steps} step(s), {self.oracle_runs} oracle "
            f"run(s), {self.seconds:.1f}s)"
        )


def _without_output(spec: QaSpec, index: int) -> QaSpec | None:
    if len(spec.outputs) <= 1:
        return None
    dropped = spec.outputs[index][0]
    kept = spec.outputs[:index] + spec.outputs[index + 1:]
    if spec.clocked and any(
        dropped in variables(tree) for _, tree in kept
    ):
        return None  # another register still reads the dropped one
    return replace(spec, outputs=kept)


def _candidates(spec: QaSpec):
    """Yield ``(smaller_spec, description)`` shrink candidates, in order.

    Order matters for speed, not correctness: interface-level shrinks come
    first because each one removes whole subtrees from consideration.
    """
    if spec.clocked and not spec.referenced_outputs():
        yield replace(spec, clocked=False), "declock"
    for index in range(len(spec.outputs)):
        smaller = _without_output(spec, index)
        if smaller is not None:
            yield smaller, f"drop output {spec.outputs[index][0]}"
    for index, (name, tree) in enumerate(spec.outputs):
        for smaller_tree in pruned(tree):
            outputs = (
                spec.outputs[:index]
                + ((name, smaller_tree),)
                + spec.outputs[index + 1:]
            )
            yield replace(spec, outputs=outputs), f"prune {name}"
    used = spec.referenced_inputs()
    if len(spec.inputs) > 1:
        for name in spec.inputs:
            if name not in used:
                inputs = tuple(i for i in spec.inputs if i != name)
                yield replace(spec, inputs=inputs), f"drop input {name}"
    for name in sorted(used):
        outputs = tuple(
            (out, substitute(tree, name, 0)) for out, tree in spec.outputs
        )
        yield replace(spec, outputs=outputs), f"zero input {name}"
    if spec.width > MIN_WIDTH:
        yield replace(spec, width=MIN_WIDTH), f"width -> {MIN_WIDTH}"
        if spec.width - 1 > MIN_WIDTH:
            yield replace(spec, width=spec.width - 1), f"width -> {spec.width - 1}"


def reduce_case(
    case: QaCase,
    *,
    toolchain: Toolchain | None = None,
    max_checks: int = 400,
) -> ReductionResult:
    """Shrink ``case`` while preserving its oracle failure class.

    Raises ``ValueError`` when the case does not fail to begin with —
    there is nothing to reduce about an ``OK`` case.
    """
    tracer = get_tracer()
    with tracer.span("qa.reduce", case=case.case_name) as span:
        started = _time.perf_counter()
        # memoized toolchain: candidate specs recur across greedy restarts
        toolchain = toolchain or Toolchain()
        target = run_oracle(case, toolchain).failure_class
        runs = 1
        if target is FailureClass.OK:
            raise ValueError(
                f"case {case.case_name!r} passes the oracle; nothing to reduce"
            )

        rejected: set[str] = set()

        def still_fails(candidate: QaCase) -> bool:
            try:
                return run_oracle(candidate, toolchain).failure_class is target
            except MutationError:
                return False  # shrink destroyed the injected defect's anchor

        current = case
        accepted = 0
        improved = True
        while improved and runs < max_checks:
            improved = False
            for spec, description in _candidates(current.spec):
                key = spec.canonical()
                if key in rejected:
                    continue
                candidate = replace(current, spec=spec)
                runs += 1
                if still_fails(candidate):
                    current = candidate
                    accepted += 1
                    improved = True
                    break
                rejected.add(key)
                if runs >= max_checks:
                    break
        reduced = replace(current, expected_class=target)
        span.set_attrs(
            failure_class=target.value,
            accepted=accepted,
            oracle_runs=runs,
            ports=reduced.spec.port_count,
            nodes=reduced.spec.node_count,
        )
        tracer.metrics.counter("qa.reduce.runs").inc()
        return ReductionResult(
            original=case,
            reduced=reduced,
            failure_class=target,
            accepted_steps=accepted,
            oracle_runs=runs,
            seconds=_time.perf_counter() - started,
        )
