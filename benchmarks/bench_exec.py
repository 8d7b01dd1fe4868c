"""Execution-engine benchmarks: serial vs parallel, cold vs warm store.

These are wall-clock measurements (not ``pytest-benchmark`` fixtures):
each test times its workload and prints a small report. The parallel
sweep runs one worker per usable core, up to four, and records the core
count; its speedup floor only fires with four workers — on a smaller host
the measurement is still printed, because the *differential* guarantee
(identical records) is what ``tests/test_exec_differential.py`` enforces
everywhere.

Each test also records its measurements into ``BENCH_exec.json``
(``BENCH_EXEC_JSON`` overrides the path), which ``repro bench check``
diffs against the committed copy under ``benchmarks/baselines/``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_exec.py -s -q
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.eval.runner import ExperimentRunner
from repro.llm.profiles import PROFILES

def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


#: the worker count the parallel speedup floor is defined at
FLOOR_WORKERS = 4
#: one worker per usable core, up to the floor's count: more workers than
#: cores only measure contention
PARALLEL_WORKERS = min(FLOOR_WORKERS, _usable_cores())
#: acceptance floor: a Table-1-style sweep at 4 workers halves the wall-clock
PARALLEL_SPEEDUP_FLOOR = 2.0
#: acceptance floor: replaying an already-seen golden-testbench simulation
WARM_CACHE_SPEEDUP_FLOOR = 5.0


def _record(section: str, values: dict) -> None:
    """Merge one test's measurements into the BENCH_exec.json report.

    The three tests run in any order (or alone), so the report is
    read-merge-write rather than assembled in one place.
    """
    out = Path(os.environ.get("BENCH_EXEC_JSON", "BENCH_exec.json"))
    report = {}
    if out.exists():
        try:
            report = json.loads(out.read_text())
        except ValueError:
            report = {}
    report[section] = {
        key: round(value, 6) if isinstance(value, float) else value
        for key, value in values.items()
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _timed_sweep(bench_suite, **kwargs) -> float:
    runner = ExperimentRunner(suite=bench_suite, **kwargs)
    started = time.perf_counter()
    runner.run_all(profiles=PROFILES)
    return time.perf_counter() - started


def test_parallel_sweep_speedup(bench_suite):
    """Table-1-style sweep (3 profiles x 2 languages): serial vs parallel."""
    serial = _timed_sweep(bench_suite, workers=1)
    parallel = _timed_sweep(bench_suite, workers=PARALLEL_WORKERS)
    speedup = serial / parallel if parallel else float("inf")
    cores = _usable_cores()
    print(
        f"\n[bench_exec] sweep over {len(bench_suite)} problems x "
        f"{len(PROFILES)} profiles x 2 languages: "
        f"serial {serial:.2f}s, workers={PARALLEL_WORKERS} {parallel:.2f}s "
        f"-> {speedup:.2f}x (host has {cores} usable core(s))"
    )
    _record("parallel", {
        "serial_s": serial,
        "parallel_s": parallel,
        "speedup": speedup,
        "workers": PARALLEL_WORKERS,
        "cores": cores,
    })
    if PARALLEL_WORKERS < FLOOR_WORKERS:
        pytest.skip(
            f"parallel speedup floor needs {FLOOR_WORKERS} workers; host has "
            f"{cores} usable core(s) (measured {speedup:.2f}x at "
            f"{PARALLEL_WORKERS} worker(s), reported above)"
        )
    assert speedup >= PARALLEL_SPEEDUP_FLOOR, (
        f"workers={PARALLEL_WORKERS} must be >= {PARALLEL_SPEEDUP_FLOOR}x "
        f"faster than serial, got {speedup:.2f}x"
    )


def test_warm_cache_simulate_speedup(bench_suite):
    """Re-simulating an already-seen golden testbench must be >=5x faster."""
    workloads = []
    for problem in bench_suite:
        for language in Language:
            ext = language.file_extension
            workloads.append((
                [
                    HdlFile(
                        f"top_module{ext}",
                        problem.reference[language], language,
                    ),
                    HdlFile(f"tb{ext}", problem.golden_tb[language], language),
                ],
                "tb",
            ))

    toolchain = Toolchain()
    started = time.perf_counter()
    for files, top in workloads:
        toolchain.simulate(files, top)
    cold = time.perf_counter() - started

    reps = 3
    started = time.perf_counter()
    for _ in range(reps):
        for files, top in workloads:
            toolchain.simulate(files, top)
    warm = (time.perf_counter() - started) / reps

    speedup = cold / warm if warm else float("inf")
    print(
        f"\n[bench_exec] golden-testbench simulate of "
        f"{len(workloads)} workloads: cold {cold:.3f}s, warm {warm:.4f}s "
        f"-> {speedup:.1f}x "
        f"(store hit rate {100 * toolchain.cache_stats.hit_rate:.1f}%)"
    )
    _record("warm_cache", {
        "cold_s": cold,
        "warm_s": warm,
        "speedup": speedup,
        "hit_rate": toolchain.cache_stats.hit_rate,
    })
    assert speedup >= WARM_CACHE_SPEEDUP_FLOOR, (
        f"warm simulate must be >= {WARM_CACHE_SPEEDUP_FLOOR}x faster than "
        f"cold, got {speedup:.2f}x"
    )


def test_sweep_cache_effectiveness(bench_suite):
    """The result store pays for itself inside one serial sweep."""
    runner = ExperimentRunner(suite=bench_suite, workers=1)
    started = time.perf_counter()
    runner.run_all(profiles=PROFILES)
    cached = time.perf_counter() - started
    hit_rate = runner.metrics.cache_hit_rate
    print(
        f"\n[bench_exec] serial sweep {cached:.2f}s; compile/simulate "
        f"hit rate {100 * hit_rate:.1f}%"
    )
    _record("sweep_cache", {
        "cached_s": cached,
        "hit_rate": hit_rate,
    })
    assert hit_rate > 0.2, (
        "a baseline+AIVRIL2 sweep re-judges identical sources; the store "
        f"hit rate should be substantial, got {100 * hit_rate:.1f}%"
    )
