"""Steadiness mode: run one workload repeatedly and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload perm-n256 --seeds 0-9
    python3 perfbench/steady.py --workload stream-n32 --seeds 0,0,0

Each run is a fresh untraced ``perfbench/run.py`` process, one after
another, with the next seed from ``--seeds`` (a range ``a-b`` or a comma
list; repeat a seed to check that the deterministic metrics repeat
exactly).
``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  For every
metric the report gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the IQR as a share of the
median, beside the metric's bound and whether the spread is under a third
of it.  The last line is the same report as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text and "," not in text:
        lo, hi = (int(part) for part in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part]


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and IQR/median of one metric's values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else float("inf"),
    }


def run_one(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"run failed (exit {proc.returncode}) for seed {seed}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds needs at least two runs")

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds:
        result = run_one(args.workload, seed, args.seconds)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: output checks failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
        ), flush=True)

    report = {}
    print(f"\n{args.workload}: {len(seeds)} runs, seeds {args.seeds}, {args.seconds:g} s each")
    print(f"{'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}  ok")
    for name, vals in values.items():
        stats = spread(vals)
        bound = bounds.get(name)
        stats["bound"] = bound
        stats["within_third"] = (
            None if bound is None else stats["iqr_over_median"] < bound / 3
        )
        stats["identical"] = len(set(vals)) == 1
        report[name] = stats
        print(
            f"{name:<24} {stats['median']:>14.6g} {stats['q1']:>14.6g} "
            f"{stats['q3']:>14.6g} {stats['iqr_over_median']:>8.4f} "
            f"{'' if bound is None else bound:>6}  "
            f"{'' if bound is None else ('yes' if stats['within_third'] else 'NO')}"
        )
    print(json.dumps({"workload": args.workload, "seeds": seeds, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
