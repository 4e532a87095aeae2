"""Run one benchmark workload and print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload perm-n256 --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced; ``--trace
1`` alternates untraced and traced runs and prints the per-layer metrics,
writing the spans of the last traced run under ``.perfbench/``.  The metric
names and units are those of ``BENCHMARK.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output check
passed, 1 when one failed, and 2 on a usage error or when the checkout's
``src/`` tree or ``BENCHMARK.json`` is missing.

Noise controls: one workload per fresh process, one BLAS/OpenMP thread,
warm-up before the clock starts, ``gc.collect()`` before every timed
interval, and a number of runs and set-ups that depends on ``--seconds``
and the workload's nominal timings only (:func:`counts`), never on how fast
the code runs.  End-to-end timings are paced seconds (pace.py): host time
divided by the host's slowness, probed with fixed reference kernels every
sixteenth of a second while the clock runs.  Every timing metric is a median
over the runs or set-ups.  perfbench/README.md documents the workloads and
metrics.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one thread, so runs do not contend.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CONFIG_PATH = ROOT / "BENCHMARK.json"

#: Share of ``--seconds`` given to whole runs and to the set-up loop.
RUN_SHARE = 0.75
SETUP_SHARE = 0.25
#: Bounds on the number of set-up samples: one set-up of perm-n256 varies
#: by a third on a small shared host, so ``setup_s`` is a median over
#: several; millisecond set-ups are capped.
MIN_SETUPS = 5
MAX_SETUPS = 400

#: Iterations of the fixed pure-Python calibration spin (about 50 ms).
CALIB_ITERS = 1_000_000


def pin_next(turn: int, cpus: list[int]) -> None:
    """Move the process to CPU ``cpus[turn % len(cpus)]``.

    On a shared host one CPU can be slowed by another tenant for a minute
    while the other is not; alternating repetitions over the CPUs keeps
    one slow CPU from slowing every repetition, and staying on one CPU
    within a repetition keeps the pace probes on the CPU the work runs on.
    The process stays single-threaded.
    """
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})


def usable_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@dataclass
class Rep:
    """One timed repetition: host wall time, outcome, layer metrics.

    ``paced``, ``paced_step`` and ``host`` are set when the run was paced:
    the paced seconds of the whole run and of its routing call(s), and the
    host seconds of the whole run without the probes.
    """

    wall: float
    outcome: Any
    layers: dict[str, float] | None = None
    trace_path: Path | None = None
    paced: float = 0.0
    paced_step: float = 0.0
    host: float = 0.0


def counts(workload: Any, seconds: float) -> tuple[int, int]:
    """Whole runs and set-up samples one measurement makes.

    Both follow from ``--seconds`` and the workload's nominal timings
    alone, so every commit measured with the same ``--seconds`` makes the
    same number of each: a faster commit does not get more samples.
    """
    runs = max(1, round(RUN_SHARE * seconds / workload.rep_s))
    setups = round(SETUP_SHARE * seconds / workload.setup_s)
    return runs, min(MAX_SETUPS, max(MIN_SETUPS, setups))


def calibrate() -> float:
    """Milliseconds one fixed pure-Python spin takes on this host now.

    Reported so that machine drift can be told apart from a code change;
    never used to adjust a metric.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i & 7
    return (perf_counter() - t0) * 1000.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    from repro.analysis.stats import percentile as nearest_rank

    got = nearest_rank(values, q, presorted=True)
    return 0.0 if got is None else got


def run_once(workload: Any, seed: int, traced: bool = False, pacer: Any = None) -> Rep:
    """One repetition: build the inputs from ``seed``, run, check.

    With ``pacer`` the run is paced: probed right before it starts, after
    steps while it runs, and right after it ends.
    """
    import workloads as wl
    from repro.perf import StepInstrumentation
    from tracing import SimRegistry, Tracer, patched

    import layers

    tracer = Tracer(hot=layers.HOT) if traced else None
    mask = layers.MaskStats()
    registry = SimRegistry(StepInstrumentation if traced else None)
    tracing = (
        patched(layers.replacements(tracer, mask)) if tracer is not None else nullcontext()
    )
    pacing = pacer.polling() if pacer is not None else nullcontext()
    gc.collect()
    with registry.active(), tracing, pacing:
        if pacer is not None:
            pacer.probe()
        t0 = perf_counter()
        try:
            inputs = workload.inputs(seed, tracer or wl.NULL_TRACER)
            outcome = workload.execute(inputs, registry.sims, tracer or wl.NULL_TRACER)
        except Exception:  # noqa: BLE001 - a run that raises is a failed run
            outcome = wl.Outcome(
                offered=workload.n * workload.n,
                delivered=0,
                rejected=0,
                sim_steps=0,
                latencies=[],
                run_start=t0,
                run_end=perf_counter(),
                counters={},
                failures=["raised:\n" + traceback.format_exc()],
            )
        t1 = perf_counter()
        if pacer is not None:
            pacer.probe()
    rep = Rep(t1 - t0, outcome)
    if pacer is not None:
        rep.paced, rep.host = pacer.seconds(t0, t1)
        rep.paced_step, _ = pacer.seconds(outcome.run_start, outcome.run_end)
    if tracer is not None:
        rep.layers = layers.metrics(tracer, registry.sims, outcome, mask)
        rep.trace_path = ROOT / ".perfbench" / f"trace-{workload.name}-seed{seed}.json"
        tracer.write(str(rep.trace_path))
    return rep


def time_setups(workload: Any, seed: int, count: int, pacer: Any) -> list[float]:
    """Repeat the workload's set-up ``count`` times; return the paced seconds of each."""
    spans: list[tuple[float, float]] = []
    pacer.probe()
    while len(spans) < count:
        gc.collect()
        pacer.poll()
        t0 = perf_counter()
        built = workload.setup_probe(seed)
        spans.append((t0, perf_counter()))
        del built
    pacer.probe()
    return [pacer.seconds(t0, t1)[0] for t0, t1 in spans]


def check_determinism(reps: list[Rep]) -> None:
    """Every repetition of one seed must produce the same counters."""
    first = reps[0].outcome.counters
    for rep in reps[1:]:
        if rep.outcome.counters != first:
            rep.outcome.failures.append(
                f"deterministic counters differ between runs of one seed: "
                f"{first} != {rep.outcome.counters}"
            )


def e2e_metrics(reps: list[Rep], setups: list[float]) -> dict[str, float]:
    from repro.analysis.stats import delivered_fraction

    outcome = reps[0].outcome
    latencies = outcome.latencies
    moves = outcome.counters.get("total_moves", 0)
    return {
        "run_s": statistics.median(r.paced for r in reps),
        "setup_s": statistics.median(setups),
        "moves_per_s": statistics.median(moves / r.paced_step for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_steps": outcome.sim_steps,
        "latency_p50_steps": percentile(latencies, 50),
        "latency_p99_steps": percentile(latencies, 99),
        "delivered_frac": delivered_fraction(outcome.delivered, outcome.offered),
    }


def measure(
    workload: Any, seed: int, seconds: float, trace: bool, layer_names: list[str]
) -> tuple[list[Rep], dict]:
    """Make the runs :func:`counts` sets; return reps and metrics."""
    from pace import Pacer

    calib = [calibrate() for _ in range(3)]
    cpus = usable_cpus()
    runs, setup_count = counts(workload, seconds)
    reps: list[Rep] = []
    if trace:
        # A traced run costs about an untraced one more than it: one pair
        # per two runs' worth of the budget.
        untraced: list[Rep] = []
        for turn in range(max(1, runs // 2)):
            pin_next(turn, cpus)
            untraced.append(run_once(workload, seed))
            reps.append(run_once(workload, seed, traced=True))
        check_determinism(untraced + reps)
        metrics = {
            name: statistics.median(r.layers[name] for r in reps)  # type: ignore[index]
            for name in layer_names
            if name not in ("trace.overhead_frac", "host.calib_ms")
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(r.wall for r in reps)
            / statistics.median(r.wall for r in untraced)
            - 1.0
        )
        reps = untraced + reps
    else:
        pacer = Pacer()
        setups: list[float] = []
        # Set-ups are spread over the repetitions, each batch on the CPU of
        # the run after it, so they sample the host's speed as the runs do.
        for turn in range(runs):
            pin_next(turn, cpus)
            batch = len(range(turn, setup_count, runs))
            setups += time_setups(workload, seed, batch, pacer)
            reps.append(run_once(workload, seed, pacer=pacer))
        check_determinism(reps)
        metrics = e2e_metrics(reps, setups)
        print(
            f"# host seconds per run: median {statistics.median(r.host for r in reps):.4f}; "
            f"host slowness: median {pacer.median_slowness():.4f} over "
            f"{len(pacer.stretches)} probes"
        )
    calib += [calibrate() for _ in range(3)]
    if trace:
        metrics["host.calib_ms"] = statistics.median(calib)
    outcome = reps[0].outcome
    print(
        f"# {workload.name} seed={seed} trace={int(trace)} reps={len(reps)} "
        f"latency_samples={len(outcome.latencies)} "
        f"host.calib_ms before={statistics.median(calib[:3]):.2f} "
        f"after={statistics.median(calib[3:]):.2f}"
    )
    print(f"# counters {json.dumps(outcome.counters, sort_keys=True)}")
    if trace:
        print(f"# spans written to {reps[-1].trace_path}")
    return reps, metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the workload at a seconds-long size (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not CONFIG_PATH.is_file():
        print(
            f"perfbench: no repro package under {SRC} or no {CONFIG_PATH.name}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import repro
    import workloads as wl

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    config = json.loads(CONFIG_PATH.read_text())
    units = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}
    workload = wl.build(args.workload, smoke=args.smoke)

    # Warm-up outside the clock: imports, first numpy calls, code paths.
    run_once(wl.build(args.workload, smoke=True), args.seed)
    gc.collect()

    reps, metrics = measure(workload, args.seed, args.seconds, bool(args.trace), list(units))
    failures = [f for r in reps for f in r.outcome.failures]
    for failure in failures:
        print(f"# FAILED CHECK: {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(r.outcome.offered for r in reps),
                "failed": sum(r.outcome.failed_packets for r in reps),
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
