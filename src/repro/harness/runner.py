"""The campaign runner: shard trials across a worker pool, cache, resume.

Execution model:

- trials are numbered by their position in the campaign spec; results are
  always reported and stored in that order, regardless of completion order;
- each trial runs inside a worker process with a POSIX-alarm timeout and
  full error capture -- a crashing or overrunning trial records a failure
  row instead of killing the campaign;
- completed trials are written to the content-addressed cache as they
  finish, so an interrupted campaign resumes from where it stopped;
- ``workers=1`` runs everything inline in the calling process (no pool),
  which is also what the determinism regression test compares against.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.harness.execute import execute_trial
from repro.harness.specs import CampaignSpec, TrialSpec, code_version, trial_key
from repro.harness.store import ResultStore
from repro.harness.telemetry import ProgressReporter


class TrialTimeoutError(Exception):
    """Raised inside a worker when a trial exceeds its wall-clock budget."""


@dataclass
class TrialResult:
    """One trial's outcome as recorded in the manifest.

    ``metrics`` is the deterministic payload (present when ``status`` is
    ``"ok"``); ``error`` carries the traceback summary otherwise.
    """

    index: int
    key: str
    spec: TrialSpec
    status: str  # "ok" | "error" | "timeout"
    metrics: dict[str, Any] | None
    error: str | None
    wall_s: float
    cached: bool

    def result_row(self) -> dict[str, Any]:
        """The deterministic row stored in ``results.jsonl``."""
        row: dict[str, Any] = {
            "index": self.index,
            "key": self.key,
            "label": self.spec.label,
            "spec": self.spec.canonical(),
            "status": self.status,
            "metrics": self.metrics,
        }
        if self.error is not None:
            row["error"] = self.error
        return row


@dataclass
class CampaignRunResult:
    """Everything one ``run_campaign`` call produced, in trial order."""

    name: str
    results: list[TrialResult]
    manifest: dict[str, Any]
    results_path: Any = None
    manifest_path: Any = None

    @property
    def ok(self) -> int:
        return sum(1 for r in self.results if r.status == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status != "ok")

    @property
    def cached(self) -> int:
        return sum(1 for r in self.results if r.cached)


@contextmanager
def _alarm(timeout_s: float | None) -> Iterator[None]:
    """Raise :class:`TrialTimeoutError` after ``timeout_s`` wall seconds."""
    if not timeout_s or not hasattr(signal, "setitimer"):
        yield
        return

    def _on_alarm(signum, frame):
        raise TrialTimeoutError(f"trial exceeded {timeout_s}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    deadline = time.monotonic() + timeout_s
    try:
        yield
        # If the alarm lands while the interpreter is inside a context
        # that swallows exceptions (a GC callback, some C extension
        # code), the raise is silently discarded ("Exception ignored
        # in ...") and the trial runs on.  Reaching this point past the
        # deadline means exactly that happened, so enforce the budget
        # here, where the raise cannot be swallowed.
        if time.monotonic() >= deadline:
            raise TrialTimeoutError(f"trial exceeded {timeout_s}s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run_one(payload: tuple[int, dict[str, Any], float | None]) -> tuple[int, str, dict | None, str | None, float]:
    """Worker entrypoint: execute one trial with timeout and error capture."""
    index, spec_dict, timeout_s = payload
    spec = TrialSpec(**spec_dict)
    start = time.perf_counter()
    try:
        with _alarm(timeout_s):
            metrics = execute_trial(spec)
        status, error = "ok", None
    except TrialTimeoutError as exc:
        metrics, status, error = None, "timeout", str(exc)
    except Exception as exc:
        metrics, status = None, "error"
        error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=8)}"
    return index, status, metrics, error, time.perf_counter() - start


def _pool_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_campaign(
    campaign: CampaignSpec,
    *,
    workers: int = 1,
    base_dir: str = "campaigns",
    timeout_s: float | None = None,
    fresh: bool = False,
    progress: bool = True,
    reporter: ProgressReporter | None = None,
) -> CampaignRunResult:
    """Run every trial of ``campaign``, reusing cached results.

    Args:
        campaign: The spec; trial order defines result order.
        workers: Worker processes; 1 runs inline with no pool.
        base_dir: Root of the store (``campaigns/`` by default).
        timeout_s: Per-trial wall-clock budget; overrides the spec's
            ``timeout_s`` when given.
        fresh: Ignore and overwrite cached results.
        progress: Stream per-trial progress lines to stderr.
        reporter: Inject a reporter (tests); overrides ``progress``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for spec in campaign.trials:
        spec.validate()
    timeout_s = timeout_s if timeout_s is not None else campaign.timeout_s

    store = ResultStore(base_dir)
    version = code_version()
    keys = campaign.keys(version)
    reporter = reporter or ProgressReporter(len(campaign.trials), enabled=progress)

    results: dict[int, TrialResult] = {}
    pending: list[tuple[int, dict[str, Any], float | None]] = []
    for index, (spec, key) in enumerate(zip(campaign.trials, keys)):
        record = None if fresh else store.get(key)
        if record is not None:
            results[index] = TrialResult(
                index=index,
                key=key,
                spec=spec,
                status="ok",
                metrics=record["metrics"],
                error=None,
                wall_s=0.0,
                cached=True,
            )
            reporter.trial_done(results[index])
        else:
            pending.append((index, spec.canonical(), timeout_s))

    def _collect(outcome: tuple[int, str, dict | None, str | None, float]) -> None:
        index, status, metrics, error, wall = outcome
        spec = campaign.trials[index]
        result = TrialResult(
            index=index,
            key=keys[index],
            spec=spec,
            status=status,
            metrics=metrics,
            error=error,
            wall_s=wall,
            cached=False,
        )
        results[index] = result
        if status == "ok":
            store.put(
                keys[index],
                {
                    "key": keys[index],
                    "code_version": version,
                    "spec": spec.canonical(),
                    "metrics": metrics,
                },
            )
        reporter.trial_done(result)

    if pending:
        if workers == 1:
            for payload in pending:
                _collect(_run_one(payload))
        else:
            ctx = _pool_context()
            with ctx.Pool(processes=min(workers, len(pending))) as pool:
                for outcome in pool.imap_unordered(_run_one, pending):
                    _collect(outcome)

    ordered = [results[i] for i in range(len(campaign.trials))]
    manifest = {
        "name": campaign.name,
        "description": campaign.description,
        "code_version": version,
        "workers": workers,
        "timeout_s": timeout_s,
        "telemetry": reporter.summary(),
        "trials": [
            {
                "index": r.index,
                "key": r.key,
                "label": r.spec.label,
                "status": r.status,
                "cached": r.cached,
                "wall_s": round(r.wall_s, 3),
                **({"error": r.error} if r.error else {}),
            }
            for r in ordered
        ],
    }
    results_path = store.write_results(campaign.name, [r.result_row() for r in ordered])
    manifest_path = store.write_manifest(campaign.name, manifest)
    return CampaignRunResult(
        name=campaign.name,
        results=ordered,
        manifest=manifest,
        results_path=results_path,
        manifest_path=manifest_path,
    )
