"""Engine equivalence: both simulation paths must agree.

The batch tier (``repro.sim.batch``) must be observationally identical to
the event kernel it replaces for generated golden testbenches. These
tests drive the same sources through both — the batch default, and the
kernel, reached by passing each generated testbench as plain text, which
carries no stimulus bundle — and require identical results:

* a Hypothesis property over ``repro.qa.spec.generate_spec`` programs,
  comparing the full simulation observables in both languages;
* the seed corpus: it replays clean, and every set its replay simulates
  reports alike on both paths;
* the programs of a small fuzz campaign, each on both paths.

Each path runs in a fresh toolchain, because a testbench and its plain
text share every store key. The kernel's own reference answers for
dynamic selects and the VHDL library functions live in
``tests/test_sim_construct_reference.py``, and the same constructs run as
golden-testbench DUTs on both paths in
``tests/test_sim_batch_constructs.py``; the batch tier's X-carrying
vectors and its settled-value rule are pinned in ``tests/test_sim_batch.py``.

The compared observables are the printed output, the rendered log (which
embeds the reported end time), the end time, the clean-finish flag, any
runtime error and the modeled ``tool_seconds``, which does not depend on
the path. Kernel statistics (activations, delta cycles) are not part of
the contract.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs.tbgen import make_testbench
from repro.eda.toolchain import HdlFile, Language
from repro.qa.corpus import DEFAULT_CORPUS_DIR, load_corpus, replay_corpus
from repro.qa.oracle import QaCase, case_sources
from repro.qa.spec import generate_spec
from tests.simpaths import observables, simulate, simulate_kernel


def _assert_tiers_agree(files, context):
    """Both paths report alike on *files*; the batch side's batch calls."""
    batched, calls = simulate(files)
    kernel = simulate_kernel(files)
    assert observables(batched) == observables(kernel), (
        f"{context}: kernel vs batch divergence"
    )
    return calls


def _case_files(case, language, **options):
    """The set the oracle simulates for *case* in *language*: its rendering
    and a generated testbench, to which *options* go."""
    spec = case.spec
    testbench = make_testbench(
        spec.design_spec(), spec.model(), language, spec.name, **options
    )
    ext = language.file_extension
    return [
        HdlFile(f"top_module{ext}", case_sources(case)[language], language),
        HdlFile(f"tb{ext}", testbench, language),
    ]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    index=st.integers(min_value=0, max_value=7),
)
@settings(deadline=None)
def test_generated_specs_identical_across_tiers(seed, index):
    """Any generated program simulates identically on both paths."""
    spec = generate_spec(seed, index)
    for language in Language:
        _assert_tiers_agree(
            _case_files(QaCase(spec=spec), language),
            f"{language.value} spec {spec.name} (seed={seed}, index={index})",
        )


def test_corpus_verdicts_hold_under_every_tier():
    """The seed corpus replays clean, and each set its replay simulates —
    every case in both languages, and every stored witness — reports
    alike on both paths.

    The replay must classify every case the recorded way, including the
    defect-injected entries that exercise crash and mismatch paths.
    """
    outcomes = replay_corpus(DEFAULT_CORPUS_DIR)
    assert outcomes, "seed corpus is empty"
    mismatched = [o for o in outcomes if not o.matched]
    assert not mismatched, "\n".join(
        f"{o.name}: expected {o.expected.value}, got {o.actual.value}"
        for o in mismatched
    )
    batched = 0
    for case in load_corpus(DEFAULT_CORPUS_DIR):
        for language in Language:
            batched += _assert_tiers_agree(
                _case_files(case, language),
                f"{case.case_name} [{language.value}]",
            )
        if case.witness is not None:
            vectors = [dict(cycle) for cycle in case.witness.inputs]
            batched += _assert_tiers_agree(
                _case_files(case, case.witness.language, vectors=vectors),
                f"{case.case_name} witness",
            )
    assert batched > 0


def test_fuzz_verdicts_identical_across_tiers():
    """Every program of a fuzz campaign reports alike on both paths, in
    both languages."""
    batched = 0
    for index in range(6):
        spec = generate_spec(20260806, index)
        for language in Language:
            batched += _assert_tiers_agree(
                _case_files(QaCase(spec=spec), language),
                f"program {index} [{language.value}]",
            )
    assert batched > 0
