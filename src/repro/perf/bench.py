"""The tracked throughput baseline behind ``repro bench``.

A bench run executes a fixed (router x workload x n) matrix of ``bench``
trials through the campaign harness (always ``fresh`` -- cached timings
are not measurements), then reconciles the measured steps/s against
``BENCH_step_throughput.json`` at the repository root:

- every cell run this time is compared against the stored entry under the
  same key, and a drop larger than the tolerance is a **regression**;
- when the report is clean, the stored file is updated by merging: cells
  run this time replace their stored entries, cells not run are preserved
  untouched.  A regressed or failed report never touches the file -- a
  regression must keep firing on every run until the code is fixed or the
  baseline is refreshed deliberately, not silently become the new normal.

Keys are ``{engine}/{algorithm}/{workload}/n{n}/k{k}/s{seed}``, so smoke
and full matrices coexist in one file, and the array-backend entries
never ratchet against the reference engine's (a 20x speedup must not
become the floor the reference engine is held to, nor vice versa).  The
tolerance (default 20%) absorbs normal machine noise; see
docs/PERFORMANCE.md for the measurement protocol and the policy on
refreshing the baseline after intentional changes.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.harness.runner import CampaignRunResult
from repro.harness.specs import TrialSpec

#: Baseline filename, resolved against the repository root by default.
BENCH_FILENAME = "BENCH_step_throughput.json"

#: Default regression tolerance: fail when steps/s drops by more than this
#: fraction of the stored value.
DEFAULT_TOLERANCE = 0.2


def bench_key(spec: TrialSpec) -> str:
    """The stable baseline key of one bench cell.

    The engine leads the key so reference and array measurements are
    separate ratchets: merging an array run never overwrites (or gets
    compared against) the reference entry for the same cell.  The spec's
    engine is the engine that ran: ``TrialSpec.validate`` and the array
    constructor reject every cell the array engine cannot run.
    """
    return (
        f"{spec.engine}/{spec.algorithm}/{spec.workload}"
        f"/n{spec.n}/k{spec.k}/s{spec.seed}"
    )


@dataclass
class BenchComparison:
    """One cell's fresh measurement against its stored baseline entry."""

    key: str
    steps_per_s: float
    baseline_steps_per_s: float | None  # None: no stored entry yet
    tolerance: float

    @property
    def change(self) -> float | None:
        """Fractional change vs baseline (+ faster, - slower); None if new.

        The new-cell test is ``is None``, not falsiness: a *stored*
        ``steps_per_s`` of 0.0 is a real (degenerate) baseline, and any
        positive measurement against it is ``inf`` improvement, not a
        fresh cell.
        """
        if self.baseline_steps_per_s is None:
            return None
        if self.baseline_steps_per_s == 0.0:
            return math.inf if self.steps_per_s > 0.0 else 0.0
        return (self.steps_per_s - self.baseline_steps_per_s) / self.baseline_steps_per_s

    @property
    def regressed(self) -> bool:
        change = self.change
        return change is not None and change < -self.tolerance


@dataclass
class BenchReport:
    """Everything one ``run_bench`` call measured and decided."""

    comparisons: list[BenchComparison]
    failed_trials: list[str] = field(default_factory=list)
    baseline_path: pathlib.Path | None = None

    @property
    def regressions(self) -> list[BenchComparison]:
        return [c for c in self.comparisons if c.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.failed_trials

    def table(self) -> str:
        """The human-readable result table ``repro bench`` prints."""
        lines = [
            f"{'cell':<46} {'steps/s':>10} {'baseline':>10} {'change':>8}"
        ]
        for c in self.comparisons:
            if c.baseline_steps_per_s is None:
                baseline, change = "(new)", ""
            else:
                baseline = f"{c.baseline_steps_per_s:.1f}"
                frac = c.change
                change = f"{100.0 * frac:+.1f}%" if math.isfinite(frac) else "+inf"
                if c.regressed:
                    change += " !"
            lines.append(
                f"{c.key:<46} {c.steps_per_s:>10.1f} {baseline:>10} {change:>8}"
            )
        for name in self.failed_trials:
            lines.append(f"{name:<46} {'FAILED':>10}")
        return "\n".join(lines)


def load_baseline(path: pathlib.Path) -> dict[str, Any]:
    """The stored baseline document ({"entries": {key: cell}}), or empty."""
    if not path.exists():
        return {"entries": {}}
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or not isinstance(data.get("entries"), dict):
        raise ValueError(f"malformed bench baseline {path}: expected an 'entries' object")
    return data


def compare_and_merge(
    run: CampaignRunResult,
    baseline_path: pathlib.Path,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    update: bool = True,
) -> BenchReport:
    """Compare a bench campaign's cells against the baseline; merge on write.

    Only cells measured by *this* run are compared (and, with ``update``,
    rewritten); stored entries for other cells pass through untouched, so
    a smoke run never invalidates the full matrix.

    A regressed cell's stored entry is never replaced, and the file is not
    rewritten at all unless the whole report is ok: the ratchet must keep
    failing until the regression is fixed (or the baseline refreshed
    deliberately), not absorb the slowdown on its first firing.
    """
    baseline = load_baseline(baseline_path)
    entries: dict[str, Any] = baseline["entries"]
    merged: dict[str, Any] = dict(entries)
    comparisons: list[BenchComparison] = []
    failed: list[str] = []
    for trial in run.results:
        if trial.status != "ok" or trial.metrics is None:
            failed.append(bench_key(trial.spec))
            continue
        metrics = trial.metrics
        key = bench_key(trial.spec)
        timing = metrics.get("timing", {})
        steps_per_s = float(timing.get("steps_per_s", 0.0))
        stored = entries.get(key)
        comparison = BenchComparison(
            key=key,
            steps_per_s=steps_per_s,
            baseline_steps_per_s=(
                float(stored["steps_per_s"]) if stored is not None else None
            ),
            tolerance=tolerance,
        )
        comparisons.append(comparison)
        if comparison.regressed:
            continue  # keep the old entry: the ratchet must keep failing
        merged[key] = {
            "steps_per_s": round(steps_per_s, 2),
            "wall_s": round(float(timing.get("wall_s", 0.0)), 4),
            "steps": metrics["steps"],
            "completed": metrics["completed"],
            "total_moves": metrics["total_moves"],
            "scheduled_moves": metrics["scheduled_moves"],
            "refused_moves": metrics["refused_moves"],
            "repeats": metrics.get("repeats", 1),
        }
    report = BenchReport(
        comparisons=comparisons,
        failed_trials=failed,
        baseline_path=baseline_path,
    )
    if update and report.ok:
        document = {
            "format": "repro-bench-v1",
            "tolerance": tolerance,
            "entries": {key: merged[key] for key in sorted(merged)},
        }
        baseline_path.write_text(json.dumps(document, indent=2) + "\n")
    return report
