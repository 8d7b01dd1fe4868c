"""Property tests: formal verdicts must agree with exhaustive simulation.

At small widths the ground truth is computable by brute force — every
input vector for combinational designs, every reachable product state for
sequential ones. The bounded model checker has to land on the same side
every time: equivalence ⇒ never REFUTED, divergence ⇒ REFUTED with a
witness, and every witness has to reproduce the mismatch when replayed —
first through the reference evaluator, and (for rendered HDL) through the
actual event-driven simulator via :func:`repro.qa.replay_witness`.
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from repro.designs.mutations import functional
from repro.eda.toolchain import Language, Toolchain
from repro.formal import (
    FormalVerdict,
    Netlist,
    check_source,
    check_trees,
)
from repro.qa.grammar import evaluate, random_expr
from repro.qa.oracle import CaseMutation, FormalWitness, QaCase, case_sources
from repro.qa.render import node_name
from repro.qa.spec import QaSpec, generate_spec
from repro.qa import replay_witness

SEEDS = st.integers(0, 100_000)

COMB_WIDTH = 3
SEQ_WIDTH = 2
SEQ_DEPTH = 8


@pytest.fixture(scope="module")
def toolchain():
    return Toolchain()


def _comb_pair(seed: int):
    """A golden spec and an independently grown candidate over the same IO."""
    rng = random.Random(seed)
    golden_tree = random_expr(rng, ("a0", "a1"), COMB_WIDTH, budget=7)
    candidate_tree = random_expr(rng, ("a0", "a1"), COMB_WIDTH, budget=7)
    spec = QaSpec(
        name=f"equiv_comb_{seed}", width=COMB_WIDTH, inputs=("a0", "a1"),
        outputs=(("y0", golden_tree),),
    )
    return spec, golden_tree, Netlist(outputs={"y0": candidate_tree})


class TestCombinational:
    @given(SEEDS)
    def test_verdict_agrees_with_exhaustive_simulation(self, seed):
        spec, golden_tree, netlist = _comb_pair(seed)
        candidate_tree = netlist.outputs["y0"]
        result = check_trees(spec, netlist)

        differs = any(
            evaluate(golden_tree, {"a0": a0, "a1": a1}, COMB_WIDTH)
            != evaluate(candidate_tree, {"a0": a0, "a1": a1}, COMB_WIDTH)
            for a0, a1 in itertools.product(range(1 << COMB_WIDTH), repeat=2)
        )

        if differs:
            assert result.verdict is FormalVerdict.REFUTED
        else:
            assert result.verdict is FormalVerdict.PROVED

    @given(SEEDS)
    def test_refutation_witness_replays_in_the_evaluator(self, seed):
        spec, golden_tree, netlist = _comb_pair(seed)
        result = check_trees(spec, netlist)
        if result.verdict is not FormalVerdict.REFUTED:
            return
        assert len(result.witness) == 1
        inputs = result.witness[0]
        assert set(inputs) == {"a0", "a1"}
        assert (
            evaluate(golden_tree, inputs, COMB_WIDTH)
            != evaluate(netlist.outputs["y0"], inputs, COMB_WIDTH)
        )
        mismatch = result.mismatches[0]
        assert mismatch.expected == evaluate(golden_tree, inputs, COMB_WIDTH)
        assert mismatch.actual == evaluate(
            netlist.outputs["y0"], inputs, COMB_WIDTH
        )


def _seq_pair(seed: int):
    rng = random.Random(seed)
    golden_tree = random_expr(rng, ("a0", "y0"), SEQ_WIDTH, budget=6)
    candidate_tree = random_expr(rng, ("a0", "y0"), SEQ_WIDTH, budget=6)
    spec = QaSpec(
        name=f"equiv_seq_{seed}", width=SEQ_WIDTH, inputs=("a0",),
        outputs=(("y0", golden_tree),), clocked=True,
    )
    netlist = Netlist(outputs={"y0": candidate_tree}, resets={"y0": 0})
    return spec, golden_tree, netlist


def _divergence_depth(golden_tree, candidate_tree) -> int | None:
    """BFS over the product machine: cycles until outputs can differ.

    Registered outputs are observed *after* the clock edge, so a divergence
    at cycle k means the state pair reached after k-1 edges maps some input
    to differing next states. Returns the smallest such k, or None if no
    reachable pair ever diverges (true equivalence).
    """
    mask = (1 << SEQ_WIDTH) - 1
    frontier = {(0, 0)}
    visited = set(frontier)
    for depth in range(1, 1 + (1 << (2 * SEQ_WIDTH))):
        nxt = set()
        for golden_state, candidate_state in frontier:
            for a0 in range(1 << SEQ_WIDTH):
                g = evaluate(
                    golden_tree, {"a0": a0, "y0": golden_state}, SEQ_WIDTH
                ) & mask
                c = evaluate(
                    candidate_tree, {"a0": a0, "y0": candidate_state},
                    SEQ_WIDTH,
                ) & mask
                if g != c:
                    return depth
                nxt.add((g, c))
        frontier = nxt - visited
        if not frontier:
            return None
        visited |= nxt
    return None


class TestSequential:
    @given(SEEDS)
    def test_verdict_agrees_with_product_reachability(self, seed):
        spec, golden_tree, netlist = _seq_pair(seed)
        result = check_trees(spec, netlist, depth=SEQ_DEPTH)
        depth = _divergence_depth(golden_tree, netlist.outputs["y0"])

        if depth is not None and depth <= SEQ_DEPTH:
            assert result.verdict is FormalVerdict.REFUTED
            # BMC walks depths in order, so the witness is minimal
            assert len(result.witness) == depth
        else:
            assert result.verdict is not FormalVerdict.REFUTED

    @given(SEEDS)
    def test_refutation_witness_replays_from_reset(self, seed):
        spec, golden_tree, netlist = _seq_pair(seed)
        result = check_trees(spec, netlist, depth=SEQ_DEPTH)
        if result.verdict is not FormalVerdict.REFUTED:
            return
        mask = (1 << SEQ_WIDTH) - 1
        golden_state = candidate_state = 0
        diverged = False
        for inputs in result.witness:
            golden_state = evaluate(
                golden_tree, {**inputs, "y0": golden_state}, SEQ_WIDTH
            ) & mask
            candidate_state = evaluate(
                netlist.outputs["y0"], {**inputs, "y0": candidate_state},
                SEQ_WIDTH,
            ) & mask
            if golden_state != candidate_state:
                diverged = True
        assert diverged


class TestRenderings:
    """Clean renderings prove; mutated ones refute with simulator-valid
    witnesses — in both languages."""

    @given(st.integers(0, 500), st.integers(0, 40))
    def test_clean_renderings_prove_in_both_languages(self, seed, index):
        spec = generate_spec(seed, index)
        sources = case_sources(QaCase(spec=spec))
        for language in Language:
            result = check_source(spec, sources[language], language)
            assert result.verdict is FormalVerdict.PROVED, (
                seed, index, language, result.detail
            )

    @pytest.mark.parametrize("language", list(Language))
    def test_witness_fails_in_the_event_driven_simulator(
        self, toolchain, language
    ):
        tree = ["xor", ["var", "a0"], ["var", "a1"]]
        spec = QaSpec(
            name=f"equiv_witness_{language.value}", width=4,
            inputs=("a0", "a1"), outputs=(("y0", tree),),
        )
        gate = node_name(tree)
        a0, a1 = node_name(["var", "a0"]), node_name(["var", "a1"])
        if language is Language.VERILOG:
            mutation = functional(
                "xor to or", f"assign {gate} = {a0} ^ {a1};",
                f"assign {gate} = {a0} | {a1};",
            )
        else:
            mutation = functional(
                "xor to or", f"{gate} <= {a0} xor {a1};",
                f"{gate} <= {a0} or {a1};",
            )
        case = QaCase(spec=spec, mutations=(CaseMutation(language, mutation),))
        sources = case_sources(case)
        result = check_source(spec, sources[language], language)
        assert result.verdict is FormalVerdict.REFUTED

        stamped = QaCase(
            spec=spec, mutations=case.mutations,
            witness=FormalWitness(language=language, inputs=result.witness),
        )
        assert replay_witness(stamped, toolchain) is True
