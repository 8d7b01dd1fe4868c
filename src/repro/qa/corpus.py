"""The persisted regression corpus: divergences that must stay understood.

Every case the fuzzer found (and every hand-picked conformance probe) lands
here as one JSON file under ``tests/corpus/``. A corpus entry records the
spec, any injected mutations, and the :class:`~repro.qa.oracle.FailureClass`
the oracle is *expected* to report — ``ok`` entries prove clean designs stay
clean, non-``ok`` entries prove the oracle keeps detecting the defect class
it once caught. ``repro qa replay`` (and the tier-1 test wrapping it) runs
every entry through both language flows forever.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from repro.eda.toolchain import Toolchain
from repro.obs import get_tracer
from repro.qa.oracle import FailureClass, QaCase, replay_witness, run_oracle

#: repository-relative default used by the CLI and the tier-1 replay test
DEFAULT_CORPUS_DIR = Path(__file__).resolve().parents[3] / "tests" / "corpus"


def case_path(case: QaCase, directory: Path | str) -> Path:
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", case.case_name)
    return Path(directory) / f"{safe}.json"


def save_case(case: QaCase, directory: Path | str) -> Path:
    """Write one case as pretty JSON; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = case_path(case, directory)
    path.write_text(
        json.dumps(case.to_json(), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_case(path: Path | str) -> QaCase:
    return QaCase.from_json(json.loads(Path(path).read_text()))


def load_corpus(directory: Path | str = DEFAULT_CORPUS_DIR) -> list[QaCase]:
    """All corpus cases, in stable (filename-sorted) order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [load_case(path) for path in sorted(directory.glob("*.json"))]


@dataclass
class ReplayOutcome:
    """One corpus entry's replay verdict."""

    name: str
    expected: FailureClass
    actual: FailureClass
    note: str = ""
    #: None: entry carries no witness; True/False: the stored formal
    #: counterexample did / did not reproduce as a simulated failure
    witness_ok: bool | None = None

    @property
    def matched(self) -> bool:
        return self.expected is self.actual and self.witness_ok is not False

    def render(self) -> str:
        verdict = "PASS" if self.matched else "FAIL"
        detail = f"expected {self.expected.value}, got {self.actual.value}"
        if self.witness_ok is not None:
            state = "reproduces" if self.witness_ok else "STALE"
            detail += f"; witness {state}"
        return f"  {verdict} {self.name}: {detail}"


def replay_corpus(
    directory: Path | str = DEFAULT_CORPUS_DIR,
    *,
    toolchain: Toolchain | None = None,
) -> list[ReplayOutcome]:
    """Re-judge every corpus entry against its recorded failure class.

    Entries that carry a formal counterexample witness are additionally
    replayed through simulation with the witness vectors as the only
    stimulus — a stored proof artifact that stops reproducing fails the
    replay even when the failure class still matches.
    """
    tracer = get_tracer()
    with tracer.span("qa.replay", corpus=str(directory)) as span:
        toolchain = toolchain or Toolchain()
        outcomes = []
        for case in load_corpus(directory):
            verdict = run_oracle(case, toolchain)
            expected = case.expected_class or FailureClass.OK
            witness_ok = None
            if case.witness is not None:
                witness_ok = replay_witness(case, toolchain)
                tracer.metrics.counter("qa.replay.witnesses").inc()
                if witness_ok is False:
                    tracer.metrics.counter("qa.replay.stale_witnesses").inc()
            outcomes.append(
                ReplayOutcome(
                    name=case.case_name,
                    expected=expected,
                    actual=verdict.failure_class,
                    note=case.note,
                    witness_ok=witness_ok,
                )
            )
            tracer.metrics.counter("qa.replay.cases").inc()
        mismatched = sum(1 for o in outcomes if not o.matched)
        span.set_attrs(cases=len(outcomes), mismatched=mismatched)
        return outcomes
