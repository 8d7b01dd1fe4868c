"""Checks of the benchmark itself.

Run from the repository root (they take a few minutes)::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import per_layer_metric_names  # noqa: E402
from repro.eval.sampling import run_sampling_experiment  # noqa: E402

#: per-layer metrics that must repeat exactly between two traced runs
EXACT_SUFFIXES = (".calls", ".bytes", ".tokens", ".repeats", ".activations",
                  ".vectors", ".accepted_ratio")


def _bench(*args, env=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600, env=env,
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        result = _result(_bench("--workload", workload, "--seed", "0",
                                "--trace", "1", "--passes", "1"))
        assert list(result["metrics"]) == [
            name for name, _ in per_layer_metric_names()
        ]
        counts.append({
            name: metric["value"]
            for name, metric in result["metrics"].items()
            if name.endswith(EXACT_SUFFIXES)
        })
    assert counts[0] == counts[1]
    assert counts[0]["frontend.lex.calls"] > 0


def test_resample_counts_equal_run_sampling_experiment():
    workload = workloads.Resample()
    workload.setup(0)
    for k in (0, 7):
        chunk, (profile, language) = workload.assignment(k)
        counts, failures = workload.run_pass(k, lambda seconds: None)
        assert failures == []
        reference = run_sampling_experiment(
            profile, language, workload.suite.subset(workload.chunks[chunk]),
            samples=workload.samples,
        )
        got = counts[f"{profile.name}/{language.value}"]
        assert {pid: c[0] for pid, c in got.items()} == (
            reference.baseline_correct
        )
        assert {pid: c[1] for pid, c in got.items()} == (
            reference.aivril_correct
        )


def test_resample_pairs_every_chunk_with_every_config():
    workload = workloads.Resample()
    workload.setup(0)
    assert len(workload.chunks) == len(workloads.CONFIGS)
    pairs = {
        (chunk, profile.name, language)
        for chunk, (profile, language) in map(
            workload.assignment, range(workload.record_passes)
        )
    }
    assert len(pairs) == workload.record_passes == len(workloads.CONFIGS) ** 2
    first_round = [workload.assignment(k)[0] for k in range(6)]
    assert sorted(first_round) == list(range(6))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_and_held_out_seeds_are_stored(name):
    workload = workloads.WORKLOADS[name]()
    workload.setup(0)
    stored = json.loads((run.EXPECTED / f"{name}.json").read_text())
    assert sorted(stored) == ["0", "1"]
    for passes in stored.values():
        assert sorted(passes, key=int) == [
            workload.key(k) for k in range(workload.record_passes)
        ]


def test_end_to_end_run_prints_every_metric():
    done = _bench("--workload", "fuzz", "--seed", "1", "--passes", "1")
    result = _result(done)
    assert set(result["metrics"]) == {
        "setup_s", "tasks_per_s", "task_p50_ms", "task_tail_ms",
        "peak_rss_mb", "success_rate",
    }
    info = json.loads(done.stdout.splitlines()[-2])
    assert info["run"]["stored_seed"]
    assert info["env"]["cores"] >= 1 and info["env"]["host_probe_s"] > 0


@pytest.mark.parametrize("extra, env", [
    (["--workers", "2"], {}),
    ([], {"REPRO_SIM_NO_BATCH": "1"}),
])
def test_refuses_non_default_configurations(extra, env):
    done = _bench("--workload", "fuzz", "--passes", "1", *extra,
                  env={**os.environ, **env})
    assert done.returncode != 0
    assert done.stdout == ""


def test_stratified_chunks_partition_the_suite():
    suite = workloads.build_suite()
    chunks = workloads.stratified_chunks(suite, 0, 13)
    assert len(chunks) == 12 and {len(chunk) for chunk in chunks} == {13}
    assert sorted(sum(chunks, [])) == sorted(p.pid for p in suite.problems)
    assert chunks == workloads.stratified_chunks(suite, 0, 13)
    assert chunks != workloads.stratified_chunks(suite, 1, 13)
    families = {p.pid: p.family for p in suite.problems}
    assert len({families[pid] for pid in chunks[0]}) >= 10


def test_sweep_accepts_a_syntax_defect_masked_by_the_functional_one():
    workload = workloads.Sweep()
    workload.setup(173)
    k = next(k for k, chunk in enumerate(workload.chunks)
             if "struct_addsub4" in chunk)
    subset = workload.suite.subset(workload.chunks[k])
    profile = workloads._PROFILES["llama3-70b"]
    language = workloads.Language.VHDL
    plan = workloads.build_defect_plan(profile, language, subset)
    problem = next(p for p in subset.problems if p.pid == "struct_addsub4")
    assert workloads.syntax_masked(plan["struct_addsub4"], problem, language)
    produced = workload.run_pass(k, lambda seconds: None)
    assert produced[1]["llama3-70b/vhdl"]["struct_addsub4"].startswith("10")
    assert workload.check(produced, None) == []


def test_tail_reads_the_nearest_rank_percentile():
    latencies = [float(i) for i in range(300, 0, -1)]
    assert run.tail(latencies, 90) == (270.0, 30)
    assert run.tail(latencies, 95) == (285.0, 15)
    assert run.tail(latencies[-5:], 99) == (5.0, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tail_percentile_has_enough_tasks_beyond_it(name):
    """The fixed percentile keeps ten tasks beyond it even when a run
    completes only half the tasks of a 30 s run on the development host
    (about 1000 on sweep, 290 on fuzz, 2000 on resample)."""
    half = {"sweep": 500, "fuzz": 145, "resample": 1000}[name]
    percentile = workloads.WORKLOADS[name].tail_percentile
    assert run.tail([1.0] * half, percentile)[1] >= run.TAIL_BEYOND
