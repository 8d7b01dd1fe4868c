"""Frozen simulate observables on every suite file set.

The file sets are, in both languages, each reference alone (top
``top_module``), each reference with its golden testbench, and each syntax
and functional mutant with that testbench (top ``tb``): 1,639 sets. Each
set runs through a fresh :class:`~repro.eda.toolchain.Toolchain`, so no
store entry is shared between sets, and its record holds the compile
result (ok, log, diagnostics, ``tool_seconds``) and every simulate
observable (ok, output lines, log, ``end_time``, clean finish, runtime
error, ``tool_seconds``). Each category's digest is a sha256 over its sets'
records in suite order.

The digests were recorded before the batch tier planned process bodies.
Each is checked on both paths: ``batch`` passes each golden testbench
itself, so every set whose DUT plans takes the batch tier, and ``kernel``
passes its plain text, which carries no stimulus bundle, so every set
takes the event kernel. The two simulation paths thus agree on every set:
a change to either path, to an elaborator or to a closure compiler must
leave the digests unchanged unless it means to change what a simulation
reports.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.designs.model import TOP_NAME
from repro.designs.mutations import MutationError, apply_mutation
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.evalsuite.suite import build_suite
from repro.obs import NullSink, Tracer, get_tracer, set_tracer
from repro.sim.batch import CLAUSES
from tests.simpaths import plain_text

#: (language, category) -> (file sets, sha256 of their records)
REFERENCE = {
    ("verilog", "functional"): (
        199, "a0606901710df41593cc10f96726d036e4d56eb8d20af4843b2c4753696d0568"
    ),
    ("verilog", "ref"): (
        156, "7c0ca3ce6e7d28fbe3a13a6a452b3f20e3016f7b9957269e365bd7cac9adc0a9"
    ),
    ("verilog", "ref+tb"): (
        156, "0c22e3b85c599195133a753583273870b75efa50239c25b365ee4440521c6800"
    ),
    ("verilog", "syntax"): (
        312, "31ef93020d2d4920eda493c4a62d344581529a3460db2a953c6a730c74193c76"
    ),
    ("vhdl", "functional"): (
        192, "b44d42f374c6abd2ad8933ef2c8fc653d6444de9d14f508cb73abceca34da7b5"
    ),
    ("vhdl", "ref"): (
        156, "63832118ed4463baa9bd0e48374c19c83b155369d8464a2b95c9b77956735524"
    ),
    ("vhdl", "ref+tb"): (
        156, "604d438c9aa501540d0ada859fcd1ccb478437a86902d4386017e52333e525d5"
    ),
    ("vhdl", "syntax"): (
        312, "a02268be38fbfae6256269279eb4a45a37c815b18f25d0b6d3f5745334ec7950"
    ),
}


def _counts():
    """The batch calls so far, and the refusals by clause."""
    metrics = get_tracer().metrics
    return (
        metrics.counter("sim.batch_calls").value,
        [metrics.counter(f"sim.batch_plan.refused.{clause}").value
         for clause in CLAUSES],
    )


def _observe(files, top):
    """One set's record, whether its simulation took the batch path, and
    the clauses it was refused by."""
    tc = Toolchain()
    calls, refusals = _counts()
    c, r = tc.compile(files, top), tc.simulate(files, top)
    record = [
        c.ok, c.log, [str(d) for d in c.diagnostics], c.tool_seconds,
        r.ok, r.output_lines, r.log, r.end_time, r.finished_cleanly,
        r.runtime_error, r.tool_seconds,
    ]
    calls_after, refusals_after = _counts()
    refused = [
        clause for clause, before, after
        in zip(CLAUSES, refusals, refusals_after) if after != before
    ]
    return json.dumps(record), calls_after > calls, refused


def _file_sets(problem, language):
    """``(category, files, top)`` for every set of one problem."""
    ext, ref = language.file_extension, problem.reference[language]
    tb = HdlFile(f"tb{ext}", problem.golden_tb[language], language)

    def dut(text):
        return HdlFile(f"{TOP_NAME}{ext}", text, language)

    yield "ref", [dut(ref)], TOP_NAME
    yield "ref+tb", [dut(ref), tb], "tb"
    for mutation in (problem.syntax_mutations[language]
                     + problem.functional_mutations[language]):
        try:
            mutant = apply_mutation(ref, mutation)
        except MutationError:
            continue
        yield mutation.kind, [dut(mutant), tb], "tb"


@pytest.fixture(scope="module", params=["batch", "kernel"])
def observed(request):
    """On the path ``request.param`` names: ``(language, category) ->
    (sets, sha256)``; each reference + golden-testbench set's path as
    ``pid/language -> clauses``, None when it took the batch path, else
    the clauses that refused it; and the batch calls of all 1,639 sets."""
    kernel = request.param == "kernel"
    previous = get_tracer()
    set_tracer(Tracer(NullSink()))
    counts: dict = {}
    digests: dict = {}
    paths: dict[str, list[str] | None] = {}
    try:
        for problem in build_suite():
            for language in Language:
                for category, files, top in _file_sets(problem, language):
                    if kernel:
                        files = plain_text(files)
                    key = (language.value, category)
                    record, took_batch, refused = _observe(files, top)
                    counts[key] = counts.get(key, 0) + 1
                    digests.setdefault(key, hashlib.sha256()).update(
                        record.encode() + b"\n"
                    )
                    if category == "ref+tb":
                        paths[f"{problem.pid}/{language.value}"] = (
                            None if took_batch else refused
                        )
        batch_calls, _ = _counts()
    finally:
        set_tracer(previous)
    return (
        {key: (counts[key], h.hexdigest()) for key, h in digests.items()},
        paths,
        batch_calls,
    )


def test_every_category_is_pinned(observed):
    digests, _, _ = observed
    assert set(digests) == set(REFERENCE)
    assert sum(n for n, _ in digests.values()) == 1639


@pytest.mark.parametrize("key", sorted(REFERENCE), ids="/".join)
def test_category_digest(observed, key):
    digests, _, _ = observed
    assert digests[key] == REFERENCE[key]


@pytest.mark.parametrize("observed", ["batch"], indirect=True)
def test_reference_sets_take_the_batch_path(observed):
    """All 312 reference + golden-testbench sets batch: no plan and no run
    of theirs is refused."""
    _, paths, _ = observed
    assert len(paths) == 312
    refused = {
        name: clauses for name, clauses in paths.items() if clauses is not None
    }
    assert refused == {}


@pytest.mark.parametrize("observed", ["kernel"], indirect=True)
def test_plain_text_sets_take_the_kernel(observed):
    """With each golden testbench as plain text, none of the 1,639 sets
    makes a batch call or is refused one."""
    _, paths, batch_calls = observed
    assert batch_calls == 0
    assert all(clauses == [] for clauses in paths.values()), paths
