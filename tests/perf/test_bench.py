"""Unit tests for the bench baseline: keys, comparison, merge-on-write."""

import json
from types import SimpleNamespace

import pytest

from repro.harness.runner import TrialResult
from repro.harness.specs import TrialSpec
from repro.perf.bench import (
    DEFAULT_TOLERANCE,
    BenchComparison,
    bench_key,
    compare_and_merge,
    load_baseline,
)


def bench_spec(**overrides):
    fields = dict(kind="bench", n=16, k=2, algorithm="bounded-dor", seed=0)
    fields.update(overrides)
    return TrialSpec(**fields)


def trial(spec, steps_per_s, *, status="ok"):
    metrics = None
    if status == "ok":
        metrics = {
            "engine": spec.engine,
            "steps": 40,
            "completed": True,
            "total_moves": 1000,
            "scheduled_moves": 1100,
            "refused_moves": 100,
            "repeats": 3,
            "timing": {"steps_per_s": steps_per_s, "wall_s": 40 / steps_per_s},
        }
    return TrialResult(
        index=0, key="x", spec=spec, status=status,
        metrics=metrics, error=None, wall_s=0.0, cached=False,
    )


def fake_run(*trials):
    return SimpleNamespace(results=list(trials))


class TestBenchKey:
    def test_key_shape(self):
        assert bench_key(bench_spec()) == "reference/bounded-dor/random/n16/k2/s0"

    def test_key_distinguishes_every_axis(self):
        specs = [
            bench_spec(),
            bench_spec(n=32),
            bench_spec(k=1, algorithm="hot-potato"),
            bench_spec(seed=7),
            bench_spec(engine="array"),
        ]
        assert len({bench_key(s) for s in specs}) == len(specs)

    def test_engine_leads_the_key(self):
        """Array and reference entries must never ratchet each other."""
        assert bench_key(bench_spec(engine="array")).startswith("array/")
        assert bench_key(bench_spec()).startswith("reference/")


class TestComparison:
    def test_new_cell_has_no_change_and_never_regresses(self):
        c = BenchComparison(
            key="k", steps_per_s=100.0, baseline_steps_per_s=None,
            tolerance=DEFAULT_TOLERANCE,
        )
        assert c.change is None and not c.regressed

    def test_drop_within_tolerance_passes(self):
        c = BenchComparison(
            key="k", steps_per_s=85.0, baseline_steps_per_s=100.0, tolerance=0.2
        )
        assert c.change == pytest.approx(-0.15) and not c.regressed

    def test_drop_beyond_tolerance_regresses(self):
        c = BenchComparison(
            key="k", steps_per_s=70.0, baseline_steps_per_s=100.0, tolerance=0.2
        )
        assert c.regressed

    def test_speedup_never_regresses(self):
        c = BenchComparison(
            key="k", steps_per_s=300.0, baseline_steps_per_s=100.0, tolerance=0.2
        )
        assert c.change == pytest.approx(2.0) and not c.regressed


class TestCompareAndMerge:
    def test_first_run_seeds_the_baseline(self, tmp_path):
        path = tmp_path / "bench.json"
        report = compare_and_merge(
            fake_run(trial(bench_spec(), 100.0)), path, tolerance=0.2
        )
        assert report.ok
        stored = json.loads(path.read_text())
        assert stored["format"] == "repro-bench-v1"
        entry = stored["entries"]["reference/bounded-dor/random/n16/k2/s0"]
        assert entry["steps_per_s"] == 100.0
        assert entry["repeats"] == 3

    def test_regression_detected_against_stored_entry(self, tmp_path):
        path = tmp_path / "bench.json"
        compare_and_merge(fake_run(trial(bench_spec(), 100.0)), path, tolerance=0.2)
        report = compare_and_merge(
            fake_run(trial(bench_spec(), 50.0)), path, tolerance=0.2
        )
        assert not report.ok
        (regression,) = report.regressions
        assert regression.change == pytest.approx(-0.5)
        assert "!" in report.table()

    def test_merge_preserves_cells_not_run_this_time(self, tmp_path):
        """A smoke run must never clobber the full matrix."""
        path = tmp_path / "bench.json"
        compare_and_merge(
            fake_run(trial(bench_spec(), 100.0), trial(bench_spec(n=32), 25.0)),
            path, tolerance=0.2,
        )
        compare_and_merge(fake_run(trial(bench_spec(), 110.0)), path, tolerance=0.2)
        stored = json.loads(path.read_text())["entries"]
        assert stored["reference/bounded-dor/random/n16/k2/s0"]["steps_per_s"] == 110.0
        assert stored["reference/bounded-dor/random/n32/k2/s0"]["steps_per_s"] == 25.0

    def test_update_false_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "bench.json"
        compare_and_merge(fake_run(trial(bench_spec(), 100.0)), path, tolerance=0.2)
        before = path.read_text()
        report = compare_and_merge(
            fake_run(trial(bench_spec(), 50.0)), path, tolerance=0.2, update=False
        )
        assert not report.ok
        assert path.read_text() == before

    def test_failed_trial_reported_and_file_never_written(self, tmp_path):
        path = tmp_path / "bench.json"
        report = compare_and_merge(
            fake_run(trial(bench_spec(), 0.0, status="error")), path, tolerance=0.2
        )
        assert not report.ok
        assert report.failed_trials == ["reference/bounded-dor/random/n16/k2/s0"]
        assert not path.exists()  # a not-ok report must not touch the file
        assert "FAILED" in report.table()

    def test_regressed_cell_keeps_its_baseline_entry(self, tmp_path):
        """The headline ratchet fix: a regression must keep firing.

        Before the fix, a regressed cell overwrote its own baseline entry
        under ``update=True``, so the regression fired once and the
        slowdown silently became the new normal.
        """
        path = tmp_path / "bench.json"
        compare_and_merge(fake_run(trial(bench_spec(), 100.0)), path, tolerance=0.2)
        before = path.read_text()
        report = compare_and_merge(
            fake_run(trial(bench_spec(), 50.0)), path, tolerance=0.2
        )
        assert not report.ok
        assert path.read_text() == before  # entry (and file) unchanged
        # The identical rerun is still a regression against the same entry.
        again = compare_and_merge(
            fake_run(trial(bench_spec(), 50.0)), path, tolerance=0.2
        )
        assert not again.ok
        (regression,) = again.regressions
        assert regression.baseline_steps_per_s == 100.0

    def test_mixed_report_with_regression_writes_nothing(self, tmp_path):
        """One regressed cell blocks the whole write, even for ok cells."""
        path = tmp_path / "bench.json"
        compare_and_merge(
            fake_run(trial(bench_spec(), 100.0), trial(bench_spec(n=32), 25.0)),
            path, tolerance=0.2,
        )
        before = path.read_text()
        report = compare_and_merge(
            fake_run(trial(bench_spec(), 50.0), trial(bench_spec(n=32), 26.0)),
            path, tolerance=0.2,
        )
        assert not report.ok
        assert path.read_text() == before

    def test_unported_router_array_request_rejected_before_running(self):
        """An array bench cell for a router the backend has not ported is
        refused at spec validation, so no ``array/`` key can ever hold
        reference-engine numbers."""
        from repro.harness.execute import execute_trial

        spec = bench_spec(
            algorithm="alternating-adaptive", n=6, k=2, max_steps=200,
            engine="array", queues="incoming",
        )
        with pytest.raises(ValueError, match="not ported"):
            execute_trial(spec)

    def test_entries_sorted_for_stable_diffs(self, tmp_path):
        path = tmp_path / "bench.json"
        compare_and_merge(
            fake_run(
                trial(bench_spec(k=1, algorithm="hot-potato"), 80.0),
                trial(bench_spec(), 100.0),
            ),
            path, tolerance=0.2,
        )
        keys = list(json.loads(path.read_text())["entries"])
        assert keys == sorted(keys)


class TestLoadBaseline:
    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert load_baseline(tmp_path / "none.json") == {"entries": {}}

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="malformed bench baseline"):
            load_baseline(path)
