"""Bounded equivalence checking of candidate RTL against the golden model.

The proof ladder, cheapest rung first:

1. **structural** — candidate trees and reset constants are literally the
   golden ones (the common case for unmutated renderings); no SAT at all.
2. **sat** (combinational) — a miter over free inputs; UNSAT proves
   equivalence for *all* inputs, a model is a concrete counterexample.
3. **induction** (sequential) — a miter over a *shared free state* plus free
   inputs. When the reset constants agree and the next-state functions agree
   on every state, the designs are equal on every reachable trace — an
   unbounded proof. The free state over-approximates reachability, so a SAT
   answer here proves nothing by itself and falls through to:
4. **bmc** — unroll both machines from their own resets for ``k`` cycles
   with shared free inputs and ask for an output mismatch at each depth in
   turn. A model is a *reachable* counterexample stimulus; all-UNSAT up to
   the bound is only a :attr:`FormalVerdict.BOUNDED` guarantee.

Every refutation witness is replayed through the plain-Python reference
models before it is reported — a witness that does not reproduce demotes
the result to ``error``, so downstream consumers (the oracle's consistency
cross-check, the verification agent's corrective loop) can trust witnesses
unconditionally.

Contract checks reuse the same encoder with the dual-rail X machinery live:
:func:`check_x_freedom` starts every register at X, applies one reset
cycle, and demands provably known outputs for ``k`` observed cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from repro.eda.toolchain import Language
from repro.formal.cnf import Cnf
from repro.formal.encode import (
    Rail,
    const_rail,
    encode_expr,
    free_rail,
    mismatch_bit,
    rail_from_model,
    unknown_bit,
    unknown_rail,
)
from repro.formal.extract import ExtractionError, Netlist, extract_netlist
from repro.formal.sat import SatStats, Solver
from repro.obs import get_tracer
from repro.qa.grammar import evaluate
from repro.qa.spec import QaSpec

#: default k-cycle unrolling bound; covers every state a width-6 register
#: chain from the QA grammar can reach in practice without blowing up CNFs
DEFAULT_DEPTH = 16

#: conflict budget per SAT call — formulas here are small, so hitting this
#: means something is pathological and the verdict degrades to ``error``
MAX_CONFLICTS = 200_000


class FormalVerdict(str, Enum):
    """What the checker established about candidate-vs-golden."""

    PROVED = "proved"  # equivalent on all (reachable) inputs — unbounded
    REFUTED = "refuted"  # concrete replayed counterexample in ``witness``
    BOUNDED = "bounded"  # no divergence within ``depth`` cycles; no proof
    UNSUPPORTED = "unsupported"  # source could not be lifted to the IR
    ERROR = "error"  # internal failure; treat as no formal information


@dataclass(frozen=True)
class Mismatch:
    """One diverging output in a counterexample replay."""

    cycle: int
    output: str
    expected: int
    actual: int


@dataclass(frozen=True)
class FormalResult:
    """Outcome of one equivalence or contract check."""

    verdict: FormalVerdict
    method: str = ""  # "structural" | "sat" | "induction" | "bmc" | "contract"
    witness: tuple[dict[str, int], ...] = ()  # per-cycle input vectors
    mismatches: tuple[Mismatch, ...] = ()
    depth: int = 0  # cycles unrolled (bmc) or checked (contracts)
    detail: str = ""
    seconds: float = 0.0
    stats: SatStats = field(default_factory=SatStats)

    @property
    def decisive(self) -> bool:
        """True when the verdict settles the question either way."""
        return self.verdict in (FormalVerdict.PROVED, FormalVerdict.REFUTED)


def _golden_netlist(spec: QaSpec) -> Netlist:
    outputs = {name: tree for name, tree in spec.outputs}
    resets = {name: 0 for name, _ in spec.outputs} if spec.clocked else {}
    return Netlist(outputs=outputs, resets=resets)


def _solve(cnf: Cnf, assumption: int):
    solver = Solver(cnf.num_vars, cnf.clauses + [(assumption,)])
    return solver.solve(max_conflicts=MAX_CONFLICTS)


def _merge_stats(total: SatStats, part: SatStats) -> None:
    total.decisions += part.decisions
    total.conflicts += part.conflicts
    total.propagations += part.propagations
    total.restarts += part.restarts
    total.learned += part.learned


def _replay(
    spec: QaSpec, netlist: Netlist, stimulus: tuple[dict[str, int], ...]
) -> tuple[Mismatch, ...]:
    """Run golden and candidate trees in Python; list output divergences."""
    names = [name for name, _ in spec.outputs]
    golden_trees = dict(spec.outputs)
    mismatches: list[Mismatch] = []
    if not spec.clocked:
        inputs = stimulus[0]
        for name in names:
            expected = evaluate(golden_trees[name], dict(inputs), spec.width)
            actual = evaluate(netlist.outputs[name], dict(inputs), spec.width)
            if expected != actual:
                mismatches.append(Mismatch(0, name, expected, actual))
        return tuple(mismatches)
    golden_state = {name: 0 for name in names}
    cand_state = {name: netlist.resets.get(name, 0) for name in names}
    for cycle, inputs in enumerate(stimulus):
        golden_env = dict(inputs) | golden_state
        cand_env = dict(inputs) | cand_state
        golden_state = {
            name: evaluate(golden_trees[name], golden_env, spec.width)
            for name in names
        }
        cand_state = {
            name: evaluate(netlist.outputs[name], cand_env, spec.width)
            for name in names
        }
        for name in names:
            if golden_state[name] != cand_state[name]:
                mismatches.append(Mismatch(
                    cycle, name, golden_state[name], cand_state[name]
                ))
        if mismatches:
            break
    return tuple(mismatches)


def _witness_inputs(
    spec: QaSpec, cnf_inputs: list[dict[str, Rail]], model: dict[int, bool]
) -> tuple[dict[str, int], ...]:
    return tuple(
        {name: rail_from_model(rail, model) for name, rail in env.items()}
        for env in cnf_inputs
    )


def _check_comb(
    spec: QaSpec, netlist: Netlist, stats: SatStats
) -> FormalResult:
    cnf = Cnf()
    inputs = {name: free_rail(cnf, spec.width) for name in spec.inputs}
    miter = []
    for name, golden_tree in spec.outputs:
        golden = encode_expr(cnf, golden_tree, inputs, spec.width)
        candidate = encode_expr(cnf, netlist.outputs[name], inputs, spec.width)
        miter.append(mismatch_bit(cnf, golden, candidate))
    result = _solve(cnf, cnf.g_or_many(miter))
    _merge_stats(stats, result.stats)
    if result.unsat:
        return FormalResult(FormalVerdict.PROVED, method="sat", stats=stats)
    if not result.sat:
        return FormalResult(
            FormalVerdict.ERROR, method="sat",
            detail="SAT conflict budget exhausted", stats=stats,
        )
    witness = _witness_inputs(spec, [inputs], result.model)
    mismatches = _replay(spec, netlist, witness)
    if not mismatches:
        return FormalResult(
            FormalVerdict.ERROR, method="sat",
            detail="witness failed to reproduce in replay", stats=stats,
        )
    return FormalResult(
        FormalVerdict.REFUTED, method="sat",
        witness=witness, mismatches=mismatches, stats=stats,
    )


def _try_induction(
    spec: QaSpec, netlist: Netlist, stats: SatStats
) -> bool:
    """True when the shared-state miter is UNSAT (unbounded equivalence)."""
    names = [name for name, _ in spec.outputs]
    if any(netlist.resets.get(name) != 0 for name in names):
        return False  # reset states differ: induction base case fails
    cnf = Cnf()
    env = {name: free_rail(cnf, spec.width) for name in spec.inputs}
    env.update({name: free_rail(cnf, spec.width) for name in names})
    miter = []
    for name, golden_tree in spec.outputs:
        golden = encode_expr(cnf, golden_tree, env, spec.width)
        candidate = encode_expr(cnf, netlist.outputs[name], env, spec.width)
        miter.append(mismatch_bit(cnf, golden, candidate))
    result = _solve(cnf, cnf.g_or_many(miter))
    _merge_stats(stats, result.stats)
    return result.unsat


def _check_seq(
    spec: QaSpec, netlist: Netlist, depth: int, stats: SatStats
) -> FormalResult:
    if _try_induction(spec, netlist, stats):
        return FormalResult(
            FormalVerdict.PROVED, method="induction", stats=stats
        )
    names = [name for name, _ in spec.outputs]
    golden_trees = dict(spec.outputs)
    for bound in range(1, depth + 1):
        cnf = Cnf()
        golden_state = {name: const_rail(0, spec.width) for name in names}
        cand_state = {
            name: const_rail(netlist.resets.get(name, 0), spec.width)
            for name in names
        }
        cycle_inputs: list[dict[str, Rail]] = []
        miter = []
        for _ in range(bound):
            inputs = {
                name: free_rail(cnf, spec.width) for name in spec.inputs
            }
            cycle_inputs.append(inputs)
            golden_state = {
                name: encode_expr(
                    cnf, golden_trees[name], inputs | golden_state, spec.width
                )
                for name in names
            }
            cand_state = {
                name: encode_expr(
                    cnf, netlist.outputs[name], inputs | cand_state, spec.width
                )
                for name in names
            }
        # outputs are the registers themselves: mismatch at the final cycle
        # only — earlier cycles were covered by the shallower unrollings
        for name in names:
            miter.append(
                mismatch_bit(cnf, golden_state[name], cand_state[name])
            )
        result = _solve(cnf, cnf.g_or_many(miter))
        _merge_stats(stats, result.stats)
        if result.unsat:
            continue
        if not result.sat:
            return FormalResult(
                FormalVerdict.ERROR, method="bmc", depth=bound,
                detail="SAT conflict budget exhausted", stats=stats,
            )
        witness = _witness_inputs(spec, cycle_inputs, result.model)
        mismatches = _replay(spec, netlist, witness)
        if not mismatches:
            return FormalResult(
                FormalVerdict.ERROR, method="bmc", depth=bound,
                detail="witness failed to reproduce in replay", stats=stats,
            )
        return FormalResult(
            FormalVerdict.REFUTED, method="bmc", depth=bound,
            witness=witness, mismatches=mismatches, stats=stats,
        )
    return FormalResult(
        FormalVerdict.BOUNDED, method="bmc", depth=depth,
        detail=f"no divergence within {depth} cycles; induction inconclusive",
        stats=stats,
    )


def check_trees(
    spec: QaSpec, netlist: Netlist, *, depth: int = DEFAULT_DEPTH
) -> FormalResult:
    """Prove a lifted candidate equivalent to the golden spec, or refute it."""
    started = time.perf_counter()
    stats = SatStats()
    golden = _golden_netlist(spec)
    if netlist.outputs == golden.outputs and netlist.resets == golden.resets:
        result = FormalResult(FormalVerdict.PROVED, method="structural")
    elif not spec.clocked:
        result = _check_comb(spec, netlist, stats)
    else:
        result = _check_seq(spec, netlist, depth, stats)
    return _finished(result, started)


def check_source(
    spec: QaSpec,
    source: str,
    language: Language,
    *,
    depth: int = DEFAULT_DEPTH,
) -> FormalResult:
    """Lift one rendering and check it; never raises."""
    tracer = get_tracer()
    with tracer.span(
        "formal.check", spec=spec.name, language=language.value
    ) as span:
        started = time.perf_counter()
        try:
            netlist = extract_netlist(spec, source, language)
        except ExtractionError as exc:
            result = _finished(
                FormalResult(FormalVerdict.UNSUPPORTED, detail=str(exc)),
                started,
            )
        else:
            try:
                result = check_trees(spec, netlist, depth=depth)
            except Exception as exc:  # noqa: BLE001 - formal is best-effort
                result = _finished(
                    FormalResult(FormalVerdict.ERROR, detail=repr(exc)),
                    started,
                )
        span.set_attrs(verdict=result.verdict.value, method=result.method)
        _record_metrics(tracer, result)
    return result


def _finished(result: FormalResult, started: float) -> FormalResult:
    return FormalResult(
        verdict=result.verdict,
        method=result.method,
        witness=result.witness,
        mismatches=result.mismatches,
        depth=result.depth,
        detail=result.detail,
        seconds=time.perf_counter() - started,
        stats=result.stats,
    )


def _record_metrics(tracer, result: FormalResult) -> None:
    tracer.metrics.counter("formal.checks").inc()
    tracer.metrics.counter(f"formal.verdict.{result.verdict.value}").inc()
    if result.stats.conflicts:
        tracer.metrics.counter("formal.sat.conflicts").inc(
            result.stats.conflicts
        )


def check_program(seed: int, index: int, depth: int | None = None) -> dict:
    """One formal fuzz task: generate, render, check both languages.

    Module-level and returning plain JSON-safe data, so campaigns can fan
    it out through :class:`repro.exec.engine.ExecutionEngine` workers.
    """
    from repro.qa.render import render
    from repro.qa.spec import generate_spec

    spec = generate_spec(seed, index)
    sources = render(spec)
    kwargs = {} if depth is None else {"depth": depth}
    payload: dict = {"index": index, "name": spec.name}
    for language in Language:
        result = check_source(spec, sources[language], language, **kwargs)
        payload[language.value] = result.verdict.value
        payload[f"{language.value}_method"] = result.method
        payload[f"{language.value}_seconds"] = result.seconds
    return payload


# -- contract checks ---------------------------------------------------------


def check_reset_contract(spec: QaSpec, netlist: Netlist) -> FormalResult:
    """Every output register must reset, and reset to the golden constant."""
    started = time.perf_counter()
    if not spec.clocked:
        result = FormalResult(
            FormalVerdict.PROVED, method="contract",
            detail="combinational design: no reset obligations",
        )
        return _finished(result, started)
    broken = []
    for name, _ in spec.outputs:
        if name not in netlist.resets:
            broken.append(f"{name}: no reset")
        elif netlist.resets[name] != 0:
            broken.append(f"{name}: resets to {netlist.resets[name]}, not 0")
    if broken:
        result = FormalResult(
            FormalVerdict.REFUTED, method="contract",
            detail="; ".join(broken),
        )
    else:
        result = FormalResult(FormalVerdict.PROVED, method="contract")
    return _finished(result, started)


def check_x_freedom(
    spec: QaSpec, netlist: Netlist, *, depth: int = DEFAULT_DEPTH
) -> FormalResult:
    """After one reset cycle, no input sequence may drive any output to X.

    Registers start all-X (power-on), take their recovered reset constants on
    the reset cycle — registers *without* a recovered reset stay X — and then
    run ``depth`` cycles of free, fully driven inputs. The dual-rail encoder
    tracks exactly the bits the simulation kernel would report as X.
    """
    started = time.perf_counter()
    stats = SatStats()
    cnf = Cnf()
    names = [name for name, _ in spec.outputs]
    if not spec.clocked:
        env = {name: free_rail(cnf, spec.width) for name in spec.inputs}
        poison = [
            unknown_bit(cnf, encode_expr(cnf, tree, env, spec.width))
            for _, tree in spec.outputs
        ]
        cycles = 1
    else:
        state = {
            name: (
                const_rail(netlist.resets[name], spec.width)
                if name in netlist.resets
                else unknown_rail(spec.width)
            )
            for name in names
        }
        poison = []
        for _ in range(depth):
            inputs = {
                name: free_rail(cnf, spec.width) for name in spec.inputs
            }
            state = {
                name: encode_expr(
                    cnf, netlist.outputs[name], inputs | state, spec.width
                )
                for name in names
            }
            poison.extend(unknown_bit(cnf, state[name]) for name in names)
        cycles = depth
    result = _solve(cnf, cnf.g_or_many(poison))
    _merge_stats(stats, result.stats)
    if result.unsat:
        verdict = FormalResult(
            FormalVerdict.PROVED, method="contract", depth=cycles, stats=stats
        )
    elif result.sat:
        verdict = FormalResult(
            FormalVerdict.REFUTED, method="contract", depth=cycles,
            detail="an output can still be X after reset", stats=stats,
        )
    else:
        verdict = FormalResult(
            FormalVerdict.ERROR, method="contract", depth=cycles,
            detail="SAT conflict budget exhausted", stats=stats,
        )
    return _finished(verdict, started)
