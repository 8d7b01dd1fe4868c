"""Oracle classification: every injected defect lands in its class.

These are end-to-end runs through both language frontends and the shared
simulation kernel — the acceptance tests for the differential triangle.
"""

import json

import pytest

from repro.designs.mutations import MutationError, functional, syntax
from repro.eda.toolchain import Language, Toolchain
from repro.formal import FormalVerdict
from repro.qa.oracle import (
    DIVERGENT_CLASSES,
    CaseMutation,
    FailureClass,
    FormalWitness,
    QaCase,
    case_sources,
    run_oracle,
)
from repro.qa.render import node_name
from repro.qa.spec import QaSpec

ADD_TREE = ["add", ["var", "a0"], ["var", "a1"]]
A0, A1 = node_name(["var", "a0"]), node_name(["var", "a1"])
ADD = node_name(ADD_TREE)


def comb_spec(name="qa_case"):
    return QaSpec(
        name=name, width=4, inputs=("a0", "a1"),
        outputs=(("y0", ADD_TREE),),
    )


def verilog_add_to_sub():
    return CaseMutation(Language.VERILOG, functional(
        "add becomes sub",
        f"assign {ADD} = {A0} + {A1};",
        f"assign {ADD} = {A0} - {A1};",
    ))


def vhdl_add_to(op):
    return CaseMutation(Language.VHDL, functional(
        f"add becomes {op}",
        f"{ADD} <= {A0} + {A1};",
        f"{ADD} <= {A0} {op} {A1};",
    ))


@pytest.fixture(scope="module")
def toolchain():
    return Toolchain()


class TestCleanDesigns:
    def test_combinational_agreement(self, toolchain):
        verdict = run_oracle(QaCase(spec=comb_spec()), toolchain)
        assert verdict.failure_class is FailureClass.OK
        assert verdict.ok
        assert verdict.verilog.passed and verdict.vhdl.passed

    def test_clocked_agreement(self, toolchain):
        spec = QaSpec(
            name="qa_acc", width=4, inputs=("a0",), clocked=True,
            outputs=(("y0", ["add", ["var", "y0"], ["var", "a0"]]),),
        )
        verdict = run_oracle(QaCase(spec=spec), toolchain)
        assert verdict.failure_class is FailureClass.OK


class TestInjectedDefects:
    """One probe per divergent class — no class is unreachable."""

    def classify(self, toolchain, *mutations):
        case = QaCase(spec=comb_spec(), mutations=tuple(mutations))
        return run_oracle(case, toolchain).failure_class

    def test_verilog_functional_defect(self, toolchain):
        assert (
            self.classify(toolchain, verilog_add_to_sub())
            is FailureClass.VERILOG_MISMATCH
        )

    def test_vhdl_functional_defect(self, toolchain):
        assert (
            self.classify(toolchain, vhdl_add_to("-"))
            is FailureClass.VHDL_MISMATCH
        )

    def test_same_defect_both_languages(self, toolchain):
        assert (
            self.classify(toolchain, verilog_add_to_sub(), vhdl_add_to("-"))
            is FailureClass.BOTH_MISMATCH
        )

    def test_different_defect_per_language(self, toolchain):
        assert (
            self.classify(toolchain, verilog_add_to_sub(), vhdl_add_to("and"))
            is FailureClass.CROSS_MISMATCH
        )

    def test_one_frontend_rejects(self, toolchain):
        broken = CaseMutation(Language.VERILOG, syntax(
            "drop a semicolon", f"assign y0 = {ADD};", f"assign y0 = {ADD}"
        ))
        assert (
            self.classify(toolchain, broken)
            is FailureClass.COMPILE_DIVERGENCE
        )

    def test_both_frontends_reject(self, toolchain):
        v = CaseMutation(Language.VERILOG, syntax(
            "drop a semicolon", f"assign y0 = {ADD};", f"assign y0 = {ADD}"
        ))
        vh = CaseMutation(Language.VHDL, syntax(
            "drop the entity name", "entity top_module is", "entity is"
        ))
        assert self.classify(toolchain, v, vh) is FailureClass.COMPILE_REJECT

    def test_zero_delay_oscillation_is_a_crash(self, toolchain):
        # X-initialized feedback settles at X, so the oscillator must start
        # from known bits: an initial block plus a blocking-assign loop
        oscillator = CaseMutation(Language.VERILOG, functional(
            "zero-delay oscillation",
            f"assign {A0} = a0;",
            (f"assign {A0} = a0;\n"
             "    reg osc_p, osc_q;\n"
             "    initial begin osc_p = 1'b0; osc_q = 1'b0; end\n"
             "    always @(osc_q) osc_p = ~osc_q;\n"
             "    always @(osc_p) osc_q = osc_p;"),
        ))
        assert self.classify(toolchain, oscillator) is FailureClass.CRASH

    def test_every_class_is_ok_or_divergent(self):
        assert set(DIVERGENT_CLASSES) == set(FailureClass) - {FailureClass.OK}


class TestFormalVerdicts:
    """The fourth verdict source: proofs cross-checked against sampling."""

    def test_formal_is_off_by_default(self, toolchain):
        verdict = run_oracle(QaCase(spec=comb_spec()), toolchain)
        assert verdict.formal is None

    def test_clean_design_proves_in_both_languages(self, toolchain):
        verdict = run_oracle(
            QaCase(spec=comb_spec()), toolchain, formal=True
        )
        assert verdict.formal is not None
        for language in Language:
            assert (
                verdict.formal.result_for(language).verdict
                is FormalVerdict.PROVED
            )
        assert verdict.formal.inconsistencies == ()

    def test_mutated_design_refutes_consistently(self, toolchain):
        case = QaCase(spec=comb_spec(), mutations=(verilog_add_to_sub(),))
        verdict = run_oracle(case, toolchain, formal=True)
        assert verdict.failure_class is FailureClass.VERILOG_MISMATCH
        report = verdict.formal
        assert report.verilog.verdict is FormalVerdict.REFUTED
        assert report.verilog.witness
        assert report.vhdl.verdict is FormalVerdict.PROVED
        # refutation + simulated failure on the same side: consistent
        assert report.inconsistencies == ()

    def test_crash_class_survives_formal_pass(self, toolchain):
        # regression: the engine-dead → crash degradation must not be
        # masked by the formal pass raising on the oscillator source
        oscillator = CaseMutation(Language.VERILOG, functional(
            "zero-delay oscillation",
            f"assign {A0} = a0;",
            (f"assign {A0} = a0;\n"
             "    reg osc_p, osc_q;\n"
             "    initial begin osc_p = 1'b0; osc_q = 1'b0; end\n"
             "    always @(osc_q) osc_p = ~osc_q;\n"
             "    always @(osc_p) osc_q = osc_p;"),
        ))
        case = QaCase(spec=comb_spec(), mutations=(oscillator,))
        verdict = run_oracle(case, toolchain, formal=True)
        assert verdict.failure_class is FailureClass.CRASH
        assert verdict.formal is not None

    def test_formal_failure_never_raises(self, toolchain, monkeypatch):
        # regression: a crashing prover degrades to an ERROR verdict and
        # the oracle still classifies from simulation alone
        import repro.formal

        def boom(*args, **kwargs):
            raise RuntimeError("prover exploded")

        monkeypatch.setattr(repro.formal, "check_source", boom)
        verdict = run_oracle(
            QaCase(spec=comb_spec()), toolchain, formal=True
        )
        assert verdict.failure_class is FailureClass.OK
        for language in Language:
            result = verdict.formal.result_for(language)
            assert result.verdict is FormalVerdict.ERROR
            assert "prover exploded" in result.detail

    def test_proof_contradicting_simulation_is_flagged(self, toolchain,
                                                       monkeypatch):
        import repro.formal
        from repro.formal import FormalResult

        def always_proved(*args, **kwargs):
            return FormalResult(
                verdict=FormalVerdict.PROVED, method="structural"
            )

        monkeypatch.setattr(repro.formal, "check_source", always_proved)
        case = QaCase(spec=comb_spec(), mutations=(verilog_add_to_sub(),))
        verdict = run_oracle(case, toolchain, formal=True)
        assert verdict.failure_class is FailureClass.VERILOG_MISMATCH
        assert len(verdict.formal.inconsistencies) == 1
        assert "verilog" in verdict.formal.inconsistencies[0]

    def test_witness_round_trips_through_json(self):
        witness = FormalWitness(
            language=Language.VERILOG,
            inputs=({"a0": 3, "a1": 9}, {"a0": 0, "a1": 15}),
        )
        case = QaCase(spec=comb_spec(), witness=witness)
        reloaded = QaCase.from_json(json.loads(json.dumps(case.to_json())))
        assert reloaded.witness == witness


class TestCaseMechanics:
    def test_case_json_round_trip(self):
        case = QaCase(
            spec=comb_spec(),
            mutations=(verilog_add_to_sub(), vhdl_add_to("and")),
            expected_class=FailureClass.CROSS_MISMATCH,
            note="round trip",
        )
        reloaded = QaCase.from_json(json.loads(json.dumps(case.to_json())))
        assert reloaded.spec.canonical() == case.spec.canonical()
        assert reloaded.mutations == case.mutations
        assert reloaded.expected_class is FailureClass.CROSS_MISMATCH
        assert reloaded.note == "round trip"
        assert reloaded.case_name == case.case_name

    def test_sources_carry_applied_mutations(self):
        case = QaCase(spec=comb_spec(), mutations=(verilog_add_to_sub(),))
        sources = case_sources(case)
        assert f"{A0} - {A1}" in sources[Language.VERILOG]
        assert f"{A0} + {A1}" in sources[Language.VHDL]

    def test_missing_anchor_raises(self):
        case = QaCase(
            spec=comb_spec(),
            mutations=(CaseMutation(Language.VERILOG, functional(
                "bogus", "no such anchor text", "whatever"
            )),),
        )
        with pytest.raises(MutationError):
            case_sources(case)
