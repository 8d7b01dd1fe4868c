"""The regression corpus: persistence round-trips and the tier-1 replay.

``test_replay_shipped_corpus`` is the promise the corpus makes: every case
ever filed keeps classifying exactly as recorded, in both languages, on
every test run.
"""

import time

import pytest

from repro.eda.toolchain import Language, Toolchain
from repro.formal import check_source
from repro.qa.corpus import (
    DEFAULT_CORPUS_DIR,
    case_path,
    load_case,
    load_corpus,
    replay_corpus,
    save_case,
)
from repro.qa.oracle import FailureClass, FormalWitness, QaCase, case_sources
from repro.qa.spec import QaSpec


def small_case(name="roundtrip", expected=FailureClass.OK):
    spec = QaSpec(
        name=name, width=4, inputs=("a0",),
        outputs=(("y0", ["not", ["var", "a0"]]),),
    )
    return QaCase(spec=spec, expected_class=expected, note="a note")


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        case = small_case()
        path = save_case(case, tmp_path)
        assert path == case_path(case, tmp_path)
        reloaded = load_case(path)
        assert reloaded.spec.canonical() == case.spec.canonical()
        assert reloaded.expected_class is FailureClass.OK
        assert reloaded.note == "a note"

    def test_case_names_are_sanitized_into_filenames(self, tmp_path):
        case = small_case(name="weird")
        hostile = QaCase(spec=case.spec, name="../evil name")
        path = case_path(hostile, tmp_path)
        assert path.parent == tmp_path
        assert path.name == ".._evil_name.json"

    def test_load_corpus_is_sorted_and_tolerates_missing_dir(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []
        save_case(small_case(name="bbb"), tmp_path)
        save_case(small_case(name="aaa"), tmp_path)
        assert [c.case_name for c in load_corpus(tmp_path)] == ["aaa", "bbb"]


class TestReplay:
    def test_replay_shipped_corpus(self):
        """Tier-1 gate: the shipped corpus must replay exactly as recorded."""
        outcomes = replay_corpus(DEFAULT_CORPUS_DIR,
                                 toolchain=Toolchain())
        assert len(outcomes) >= 5
        mismatched = [o.render() for o in outcomes if not o.matched]
        assert mismatched == []
        # the hand-picked seed entries cover every failure class
        assert {o.expected for o in outcomes} == set(FailureClass)

    def test_replay_flags_a_stale_expectation(self, tmp_path):
        stale = QaCase(
            spec=small_case().spec,
            expected_class=FailureClass.VERILOG_MISMATCH,  # actually OK
            name="stale",
        )
        save_case(stale, tmp_path)
        outcomes = replay_corpus(tmp_path)
        assert len(outcomes) == 1
        assert not outcomes[0].matched
        assert outcomes[0].actual is FailureClass.OK
        assert "FAIL" in outcomes[0].render()

    def test_missing_expectation_defaults_to_ok(self, tmp_path):
        case = QaCase(spec=small_case().spec, name="implicit")
        save_case(case, tmp_path)
        outcomes = replay_corpus(tmp_path)
        assert outcomes[0].expected is FailureClass.OK
        assert outcomes[0].matched
        assert "PASS" in outcomes[0].render()


class TestFormalCorpus:
    """The formally-refuted entries and their proof artifacts."""

    def test_shipped_corpus_carries_witnesses(self):
        cases = {c.case_name: c for c in load_corpus(DEFAULT_CORPUS_DIR)}
        refuted = [
            c for name, c in cases.items()
            if name.startswith("corpus_formal_refuted")
        ]
        assert len(refuted) >= 2
        languages = set()
        for case in refuted:
            assert case.witness is not None
            assert case.witness.inputs
            languages.add(case.witness.language)
        # at least one witness per language frontend
        assert languages == set(Language)

    def test_witnesses_replay_as_failures(self):
        toolchain = Toolchain()
        outcomes = replay_corpus(DEFAULT_CORPUS_DIR, toolchain=toolchain)
        with_witness = [o for o in outcomes if o.witness_ok is not None]
        assert len(with_witness) >= 2
        for outcome in with_witness:
            assert outcome.witness_ok is True
            assert "witness reproduces" in outcome.render()

    def test_tampered_witness_fails_the_replay(self, tmp_path):
        source = next(
            c for c in load_corpus(DEFAULT_CORPUS_DIR)
            if c.case_name == "corpus_formal_refuted_comb"
        )
        # a stale witness: stimulus on which the defect is invisible.
        # xor and or agree whenever the operands share no set bits
        tampered = QaCase(
            spec=source.spec,
            mutations=source.mutations,
            expected_class=source.expected_class,
            witness=FormalWitness(
                language=source.witness.language,
                inputs=({"a0": 0, "a1": 0},),
            ),
        )
        save_case(tampered, tmp_path)
        outcomes = replay_corpus(tmp_path, toolchain=Toolchain())
        assert len(outcomes) == 1
        assert outcomes[0].witness_ok is False
        assert not outcomes[0].matched
        assert "STALE" in outcomes[0].render()

    def test_whole_corpus_is_formally_decisive_quickly(self):
        """Acceptance: every corpus case gets a decisive verdict, fast."""
        started = time.monotonic()
        for case in load_corpus(DEFAULT_CORPUS_DIR):
            sources = case_sources(case)
            for language in Language:
                result = check_source(
                    case.spec, sources[language], language
                )
                assert result.decisive, (
                    case.case_name, language, result.verdict, result.detail
                )
        assert time.monotonic() - started < 60
