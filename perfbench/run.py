"""End-to-end benchmark of the AIVRIL2 reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Workloads are ``sweep``, ``fuzz`` and ``resample`` (see README.md). The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 520, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a wrapper-traced run of a fixed number of
passes. The line before it records the run environment and details of the
run. ``--record`` regenerates the stored expected outputs of one seed.
"""

import time


def host_probe(iterations: int = 1_000_000) -> float:
    """Seconds a fixed pure-Python loop takes: this host's speed right now."""
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - started


#: iterations of the short probe taken between tasks (about 1 ms)
STEP_PROBE = 10_000
#: the short probe's time on the reference host; end-to-end times are
#: reported as if the host had run at this speed throughout (README.md)
REFERENCE_PROBE_S = 0.001

_PROBES_BEFORE = [host_probe(STEP_PROBE) for _ in range(3)]
_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock above must start first
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

EXPECTED = HERE / "expected"
OUT = HERE / "out"
#: set-up is timed in this process and in this many fresh processes; the
#: reported setup_s is the median of all of them
SETUP_PROBES = 4
#: tasks a tail percentile should have beyond it
TAIL_BEYOND = 10
#: step probes on each side of a segment whose median sets its speed
PROBE_WINDOW = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "fuzz", "resample"))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the default, 1 is held out")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--workers", type=int, default=1,
                        help="must be 1: all load runs in this process")
    parser.add_argument("--passes", type=int,
                        help="run exactly this many passes instead of "
                             "--seconds (traced runs default to the "
                             "workload's fixed count)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the stored expected outputs of --seed")
    parser.add_argument("--child", choices=("setup", "timed"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def refusal(args) -> str | None:
    """Why this run would not measure the default configuration, if so."""
    flags = sorted(name for name in os.environ if name.startswith("REPRO_SIM_"))
    if flags:
        return (f"refusing to run with {', '.join(flags)} set: the benchmark "
                "measures the default simulation tiers")
    if args.workers != 1:
        return "refusing workers > 1: the benchmark loads one process serially"
    return None


class Timeline:
    """The timed phase, cut into segments at every task boundary.

    A short host probe runs at every cut, outside the segments, and each
    segment's wall time is scaled by
    ``REFERENCE_PROBE_S / local probe time``, where the local probe time is
    the median of the ``PROBE_WINDOW`` probes on each side of the segment.
    The host's speed drifts by up to 1.6x over seconds (README.md); the
    scaled times read as if it had run at the reference speed throughout.
    """

    def __init__(self):
        self.segments: list[float] = []  # wall seconds, probes excluded
        self.tasks: list[tuple[int, float]] = []  # (segment, task seconds)
        self.probes: list[float] = []  # one per cut, and one at the start
        self.probe_s = 0.0  # wall seconds spent in probes and their cuts
        self._last = 0.0

    def start(self) -> None:
        self._probe()

    def _probe(self) -> None:
        started = time.perf_counter()
        self.probes.append(host_probe(STEP_PROBE))
        self._last = time.perf_counter()
        self.probe_s += self._last - started

    def cut(self, task_seconds: float | None = None) -> None:
        """End a segment; ``task_seconds`` when a task ended with it."""
        self.segments.append(time.perf_counter() - self._last)
        if task_seconds is not None:
            self.tasks.append((len(self.segments) - 1, task_seconds))
        self._probe()

    def scales(self) -> list[float]:
        window = PROBE_WINDOW
        return [
            REFERENCE_PROBE_S / statistics.median(
                self.probes[max(0, j + 1 - window):j + 1 + window]
            )
            for j in range(len(self.segments))
        ]

    def summary(self) -> tuple[float, list[float], float, list[float]]:
        """(scaled seconds, scaled task latencies, wall seconds, task
        latencies): the first two are the reference-speed figures."""
        scales = self.scales()
        scaled = sum(s * f for s, f in zip(self.segments, scales))
        latencies = [seconds for _, seconds in self.tasks]
        return (
            scaled,
            [seconds * scales[j] for j, seconds in self.tasks],
            sum(self.segments),
            latencies,
        )


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """(value, tasks beyond it) of ``percentile`` (nearest rank)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def measure(workload, seconds: float, passes: int | None):
    """Run whole passes until ``seconds`` have passed (or ``passes`` ran)."""
    timeline = Timeline()
    produced = []
    started = time.perf_counter()
    timeline.start()
    while True:
        produced.append(workload.run_pass(len(produced), timeline.cut))
        timeline.cut()
        if passes is not None:
            if len(produced) >= passes:
                break
        elif time.perf_counter() - started >= seconds:
            break
    return timeline, produced


def expected_outputs(workload, seed: int):
    path = EXPECTED / f"{workload.name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def check(workload, seed: int, produced) -> list[str]:
    stored = expected_outputs(workload, seed)
    failures = []
    for k, products in enumerate(produced):
        expected = stored.get(workload.key(k)) if stored is not None else None
        failures += [f"pass {k}: {line}"
                     for line in workload.check(products, expected)]
    return failures


def record(workload, seed: int) -> int:
    """Store the outputs of the workload's first passes under ``seed``."""
    passes = {}
    for k in range(workload.record_passes):
        products = workload.run_pass(k, lambda seconds: None)
        failures = workload.check(products, None)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        passes[workload.key(k)] = workload.outputs(products)
    path = EXPECTED / f"{workload.name}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[str(seed)] = passes
    EXPECTED.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(passes)} passes of {workload.name} seed {seed} "
          f"in {path}")
    return 0


def child(args, mode: str, passes: int | None = None) -> dict:
    """What a fresh process reports after only set-up (``setup``) or after
    set-up plus ``passes`` untraced passes (``timed``)."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--child", mode]
    if passes is not None:
        command += ["--passes", str(passes)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = refusal(args)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    try:
        import workloads
        from repro.obs import get_spool, get_tracer
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if get_tracer().enabled or get_spool() is not None:
        print("refusing to run with the program's tracer or spool on",
              file=sys.stderr)
        return 2
    try:
        # the batch tier imports numpy at its first call; count it as an
        # import, in set-up, rather than in the first task
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        from layers import LayerTracer
        tracer = LayerTracer()
        tracer.install()
        tracer.start()
    workload.setup(args.seed)
    setup_wall = time.perf_counter() - _STARTED
    probes = _PROBES_BEFORE + [host_probe(STEP_PROBE) for _ in range(3)]
    setup = {
        "wall": setup_wall,
        "scaled": setup_wall * REFERENCE_PROBE_S / statistics.median(probes),
    }
    if args.child == "setup":
        print(json.dumps(setup))
        return 0
    if args.record:
        return record(workload, args.seed)

    passes = args.passes
    if passes is None and tracer is not None:
        passes = workload.trace_passes
    timeline, produced = measure(workload, args.seconds, passes)
    if args.child == "timed":
        print(json.dumps({"scaled": timeline.summary()[0]}))
        return 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()

    failures = check(workload, args.seed, produced)
    for line in failures[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    timed_s, latencies, wall_s, wall_latencies = timeline.summary()
    attempted = len(latencies)
    failed = min(len(failures), attempted)
    percentile = workload.tail_percentile
    tail_s, beyond = tail(latencies, percentile)
    if beyond < TAIL_BEYOND:
        print(f"WARNING task_tail_ms: only {beyond} tasks beyond "
              f"p{percentile}", file=sys.stderr)
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(produced),
        "stored_seed": expected_outputs(workload, args.seed) is not None,
        "task_tail": {"percentile": percentile, "tasks": attempted,
                      "beyond": beyond},
        "timed_wall_s": wall_s,
    }
    if tracer is not None:
        from layers import per_layer_metric_names
        untraced_s = child(args, "timed", len(produced))["scaled"]
        values = tracer.metrics(overhead_ratio=timed_s / untraced_s,
                                probe_s=timeline.probe_s)
        units = dict(per_layer_metric_names())
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        try:
            OUT.mkdir(exist_ok=True)
            tracer.write(spans)
        except OSError as exc:
            # the spans are a by-product; the metrics stand without them
            print(f"WARNING spans not written: {exc}", file=sys.stderr)
        else:
            run["spans"] = str(spans.relative_to(HERE.parent))
        run["untraced_s"] = untraced_s
    else:
        setups = [setup] + [child(args, "setup")
                            for _ in range(SETUP_PROBES)]
        values = {
            "setup_s": statistics.median(s["scaled"] for s in setups),
            "tasks_per_s": attempted / timed_s,
            "task_p50_ms": statistics.median(latencies) * 1000,
            "task_tail_ms": tail_s * 1000,
            "peak_rss_mb": peak_rss_mb,
            "success_rate": (attempted - failed) / attempted,
        }
        units = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms",
                 "task_tail_ms": "ms", "peak_rss_mb": "MB",
                 "success_rate": "ratio"}
        run["wall"] = {
            "setup_s": statistics.median(s["wall"] for s in setups),
            "tasks_per_s": attempted / wall_s,
            "task_p50_ms": statistics.median(wall_latencies) * 1000,
            "task_tail_ms": tail(wall_latencies, percentile)[0] * 1000,
            "step_probe_median_ms":
                statistics.median(timeline.probes) * 1000,
        }
    print(json.dumps({
        "env": {
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "host_probe_s": host_probe(),
        },
        "run": run,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
