"""Engine equivalence: both simulation paths must agree.

The batch tier (``repro.sim.batch``) must be observationally identical to
the event kernel it replaces for generated golden testbenches. These
tests drive the same sources through both — the batch default and the
kernel (``REPRO_SIM_NO_BATCH=1``) — and require identical results:

* a Hypothesis property over ``repro.qa.spec.generate_spec`` programs,
  comparing the full simulation observables in both languages;
* a replay of the seed corpus on both paths;
* a small fuzz campaign judged on both paths, comparing every verdict and
  source hash.

The kernel's own reference answers for dynamic selects and the VHDL
library functions live in ``tests/test_sim_construct_reference.py``, and
the same constructs run as golden-testbench DUTs on both paths in
``tests/test_sim_batch_constructs.py``; the batch tier's X-carrying
vectors and its settled-value rule are pinned in ``tests/test_sim_batch.py``.

The compared observables are the printed output, the rendered log (which
embeds the reported end time), the end time, the clean-finish flag, any
runtime error and the modeled ``tool_seconds``, which does not depend on
the path. Kernel statistics (activations, delta cycles) are not part of
the contract.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs.tbgen import make_testbench
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.qa.corpus import DEFAULT_CORPUS_DIR, replay_corpus
from repro.qa.fuzz import run_fuzz
from repro.qa.oracle import QaCase, case_sources
from repro.qa.spec import generate_spec

_TIER_FLAGS = ("REPRO_SIM_NO_BATCH",)


@contextmanager
def _tier(**flags):
    """Pin the simulation tier for the duration of the block."""
    previous = {flag: os.environ.pop(flag, None) for flag in _TIER_FLAGS}
    os.environ.update(flags)
    try:
        yield
    finally:
        for flag, value in previous.items():
            if value is None:
                os.environ.pop(flag, None)
            else:
                os.environ[flag] = value


def kernel_tier():
    """Force the event kernel: the batch tier off."""
    return _tier(REPRO_SIM_NO_BATCH="1")


def batch_tier():
    """The default: the batch tier for generated golden testbenches."""
    return _tier()


def _observables(result):
    return (
        result.ok,
        tuple(result.output_lines),
        result.log,
        result.end_time,
        result.finished_cleanly,
        result.runtime_error,
        result.tool_seconds,
    )


def _assert_tiers_agree(files, top, context):
    with kernel_tier():
        kernel = Toolchain().simulate(files, top)
    with batch_tier():
        batched = Toolchain().simulate(files, top)
    assert _observables(batched) == _observables(kernel), (
        f"{context}: kernel vs batch divergence"
    )


def _spec_files(spec, language):
    sources = case_sources(QaCase(spec=spec))
    testbench = make_testbench(
        spec.design_spec(), spec.model(), language, spec.name
    )
    ext = language.file_extension
    return [
        HdlFile(f"top_module{ext}", sources[language], language),
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
        files = _spec_files(spec, language)
        _assert_tiers_agree(
            files, "tb",
            f"{language.value} spec {spec.name} (seed={seed}, index={index})",
        )


def test_corpus_verdicts_hold_under_every_tier():
    """The seed corpus replays clean on both paths.

    Both must classify every case the recorded way, including the
    defect-injected entries that exercise crash and mismatch paths.
    """
    for tier in (kernel_tier, batch_tier):
        with tier():
            outcomes = replay_corpus(DEFAULT_CORPUS_DIR)
        assert outcomes, "seed corpus is empty"
        mismatched = [o for o in outcomes if not o.matched]
        assert not mismatched, f"{tier.__name__}:\n" + "\n".join(
            f"{o.name}: expected {o.expected.value}, got {o.actual.value}"
            for o in mismatched
        )


def test_fuzz_verdicts_identical_across_tiers():
    """A fuzz campaign produces identical verdicts on both paths."""
    with kernel_tier():
        report_kernel = run_fuzz(seed=20260806, count=6)
    with batch_tier():
        report_batch = run_fuzz(seed=20260806, count=6)

    def digest(report):
        return [
            (r.index, r.name, r.failure_class, r.verilog_sha, r.vhdl_sha)
            for r in report.results
        ]

    assert digest(report_kernel) == digest(report_batch)
    assert report_kernel.class_counts == report_batch.class_counts
