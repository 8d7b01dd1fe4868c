"""Reducer acceptance: big failing cases shrink to minimal reproducers."""

import random

import pytest

from repro.designs.mutations import functional
from repro.eda.toolchain import Language, Toolchain
from repro.qa.grammar import (
    complexity,
    count_nodes,
    pruned,
    random_expr,
    validate_expr,
)
from repro.qa.oracle import CaseMutation, FailureClass, QaCase, run_oracle
from repro.qa.reduce import reduce_case
from repro.qa.render import node_name
from repro.qa.spec import MIN_WIDTH, QaSpec

# the defect lives on this subtree, buried inside a larger design
DEEP_ADD = ["add", ["var", "a0"], ["var", "a1"]]
A0, A1 = node_name(["var", "a0"]), node_name(["var", "a1"])
ADD = node_name(DEEP_ADD)


def big_failing_case():
    """Clocked, 5 ports, wide, with the defect deep inside output y0."""
    spec = QaSpec(
        name="qa_big", width=6, inputs=("a0", "a1", "a2"), clocked=True,
        outputs=(
            ("y0", ["mux", "lt", ["var", "a2"], ["const", 3],
                    ["not", DEEP_ADD],
                    ["xor", ["var", "a0"], ["var", "a2"]]]),
            ("y1", ["sub", ["and", ["var", "a1"], ["var", "a2"]],
                    ["const", 1]]),
        ),
    )
    mutation = CaseMutation(Language.VERILOG, functional(
        "deep add becomes sub",
        f"assign {ADD} = {A0} + {A1};",
        f"assign {ADD} = {A0} - {A1};",
    ))
    return QaCase(spec=spec, mutations=(mutation,))


class TestReduction:
    def test_shrinks_to_minimal_reproducer(self):
        case = big_failing_case()
        result = reduce_case(case, max_checks=200)

        assert result.failure_class is FailureClass.VERILOG_MISMATCH
        reduced = result.reduced
        # acceptance floor: at most 3 ports and 5 expression nodes
        assert reduced.spec.port_count <= 3
        assert reduced.spec.node_count <= 5
        assert reduced.spec.width == MIN_WIDTH
        assert not reduced.spec.clocked
        assert reduced.expected_class is FailureClass.VERILOG_MISMATCH
        assert result.accepted_steps > 0
        assert result.oracle_runs <= 200
        # the reproducer still demonstrates the identical failure class
        verdict = run_oracle(reduced, Toolchain())
        assert verdict.failure_class is FailureClass.VERILOG_MISMATCH
        # the injected defect survived every accepted shrink
        assert reduced.mutations == case.mutations
        # and the summary reports the before/after sizes
        assert "ports 5->" in result.summary
        assert "verilog-mismatch" in result.summary

    def test_ok_case_is_rejected(self):
        spec = QaSpec(
            name="qa_fine", width=4, inputs=("a0", "a1"),
            outputs=(("y0", DEEP_ADD),),
        )
        with pytest.raises(ValueError, match="nothing to reduce"):
            reduce_case(QaCase(spec=spec))

    def test_respects_the_oracle_budget(self):
        result = reduce_case(big_failing_case(), max_checks=5)
        assert result.oracle_runs <= 5
        # partial progress is still a valid case of the same class
        assert result.failure_class is FailureClass.VERILOG_MISMATCH


class TestWidenedOpShrinking:
    """Every widened op has a shrink step, and shrinking terminates."""

    NAMES = ["a0", "a1"]
    LEAF_A = ["var", "a0"]
    LEAF_B = ["var", "a1"]

    def test_each_new_op_rewrites_toward_the_legacy_core(self):
        cases = [
            (["sra", self.LEAF_A, self.LEAF_B],
             ["shr", self.LEAF_A, self.LEAF_B]),
            (["shl", self.LEAF_A, self.LEAF_B],
             ["or", self.LEAF_A, self.LEAF_B]),
            (["shr", self.LEAF_A, self.LEAF_B],
             ["and", self.LEAF_A, self.LEAF_B]),
            (["cat", self.LEAF_A, self.LEAF_B],
             ["xor", self.LEAF_A, self.LEAF_B]),
            (["redand", self.LEAF_A], ["not", self.LEAF_A]),
            (["redor", self.LEAF_A], ["not", self.LEAF_A]),
            (["redxor", self.LEAF_A], ["not", self.LEAF_A]),
            (["slice", self.LEAF_A, 2, 1], ["not", self.LEAF_A]),
            (["mux", "slt", self.LEAF_A, self.LEAF_B,
              ["const", 1], ["const", 0]],
             ["mux", "lt", self.LEAF_A, self.LEAF_B,
              ["const", 1], ["const", 0]]),
        ]
        for tree, expected in cases:
            assert expected in list(pruned(tree)), tree

    @staticmethod
    def _measure(tree):
        # lexicographic shrink measure: node count, then op complexity,
        # then how many nodes are not yet the ["const", 0] fixpoint —
        # leaf collapses keep the first two components but lower the third
        def live(node):
            return int(node != ["const", 0]) + sum(
                live(node[slot])
                for slot in range(len(node))
                if isinstance(node[slot], list)
            )

        return count_nodes(tree), complexity(tree), live(tree)

    def test_every_candidate_strictly_shrinks_the_measure(self):
        rng = random.Random(23)
        for _ in range(200):
            tree = random_expr(rng, self.NAMES, 6, 10)
            before = self._measure(tree)
            for candidate in pruned(tree):
                validate_expr(candidate, set(self.NAMES))
                assert self._measure(candidate) < before, (tree, candidate)

    def test_greedy_shrink_chains_terminate(self):
        # follow the first pruned candidate until the fixpoint; the
        # strictly-decreasing measure bounds the chain length
        rng = random.Random(7)
        for _ in range(50):
            tree = random_expr(rng, self.NAMES, 6, 12)
            nodes = count_nodes(tree)
            bound = nodes * (complexity(tree) + 1) * (nodes + 1) + 1
            steps = 0
            while True:
                candidates = list(pruned(tree))
                if not candidates:
                    break
                tree = candidates[0]
                steps += 1
                assert steps <= bound, "shrink chain failed to terminate"
            assert tree == ["const", 0]

    def test_reduces_a_case_built_from_widened_ops(self):
        # the defect subtree is wrapped in new ops; reduction must dig it
        # out by rewriting them away while the failure class is preserved
        spec = QaSpec(
            name="qa_widened", width=6, inputs=("a0", "a1", "a2"),
            outputs=(
                ("y0", ["cat", ["not", DEEP_ADD],
                        ["sra", ["var", "a2"], ["const", 1]]]),
                ("y1", ["redxor", ["shl", ["var", "a2"], ["var", "a0"]]]),
            ),
        )
        mutation = CaseMutation(Language.VERILOG, functional(
            "deep add becomes sub",
            f"assign {ADD} = {A0} + {A1};",
            f"assign {ADD} = {A0} - {A1};",
        ))
        result = reduce_case(
            QaCase(spec=spec, mutations=(mutation,)), max_checks=200
        )
        assert result.failure_class is FailureClass.VERILOG_MISMATCH
        reduced = result.reduced.spec
        assert reduced.node_count <= 5
        assert reduced.width == MIN_WIDTH
        verdict = run_oracle(result.reduced, Toolchain())
        assert verdict.failure_class is FailureClass.VERILOG_MISMATCH
