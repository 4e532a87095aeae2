"""Tests for the per-phase wall-time probe and its simulator integration."""

from repro.mesh import Mesh, Simulator
from repro.perf import StepInstrumentation
from repro.perf.instrumentation import PHASES
from repro.perf.profiling import format_phase_summary
from repro.routing import BoundedDimensionOrderRouter
from repro.workloads import random_permutation


def run_instrumented(n=8, seed=0):
    mesh = Mesh(n)
    sim = Simulator(
        mesh, BoundedDimensionOrderRouter(2), random_permutation(mesh, seed=seed)
    )
    probe = StepInstrumentation()
    sim.instrument = probe
    return sim.run(max_steps=10_000), probe


class TestProbe:
    def test_marks_accumulate_and_partition_the_step(self):
        probe = StepInstrumentation()
        probe.begin_step()
        for phase in PHASES:
            probe.mark(phase)
        probe.end_step()
        assert probe.steps == 1
        assert all(probe.phase_s[p] >= 0.0 for p in PHASES)
        # The marks partition [t0, last-mark], which end_step's wall
        # measurement contains.
        assert sum(probe.phase_s.values()) <= probe.wall_s

    def test_repeated_mark_accumulates_into_one_bucket(self):
        probe = StepInstrumentation()
        probe.begin_step()
        probe.mark("hooks")
        probe.mark("a")
        probe.mark("hooks")  # post-step hook block reuses the bucket
        probe.end_step()
        assert set(probe.phase_s) == set(PHASES)

    def test_snapshot_keys(self):
        probe = StepInstrumentation()
        expected = {"wall_s", "hooks_s"} | {
            f"phase_{p}_s" for p in "abcde"
        }
        assert set(probe.snapshot()) == expected

    def test_snapshot_throughput_zero_before_any_step(self):
        # No wall time yet, so the phase summary prints no moves/s headline
        # rather than dividing by zero.
        snapshot = StepInstrumentation().snapshot()
        assert snapshot["wall_s"] == 0.0
        assert format_phase_summary({"accepted_moves": 0, **snapshot}) == ""


class TestSimulatorIntegration:
    def test_probe_counts_every_step(self):
        result, probe = run_instrumented()
        assert result.completed
        assert probe.steps == result.steps

    def test_phase_times_nonnegative_and_bounded_by_wall(self):
        _result, probe = run_instrumented()
        assert probe.wall_s > 0.0
        assert all(seconds >= 0.0 for seconds in probe.phase_s.values())
        assert sum(probe.phase_s.values()) <= probe.wall_s + 1e-9

    def test_counters_merge_probe_snapshot(self):
        result, probe = run_instrumented()
        for key in ("scheduled_moves", "accepted_moves", "refused_moves",
                    "injected_packets", "wall_s", "phase_a_s"):
            assert key in result.counters
        assert result.counters["wall_s"] == probe.wall_s
        assert result.counters["accepted_moves"] == result.total_moves

    def test_phase_summary_headline_is_moves_per_s(self):
        result, probe = run_instrumented()
        headline = format_phase_summary(result.counters).splitlines()[0]
        moves_per_s = result.total_moves / probe.wall_s
        assert headline == f"wall {probe.wall_s:.3f}s, {moves_per_s:,.0f} moves/s"

    def test_detached_run_has_only_deterministic_counters(self):
        mesh = Mesh(8)
        sim = Simulator(
            mesh, BoundedDimensionOrderRouter(2), random_permutation(mesh, seed=0)
        )
        result = sim.run(max_steps=10_000)
        assert set(result.counters) == {
            "scheduled_moves",
            "accepted_moves",
            "refused_moves",
            "injected_packets",
        }

    def test_scheduling_counters_unaffected_by_probe(self):
        instrumented, _probe = run_instrumented()
        mesh = Mesh(8)
        sim = Simulator(
            mesh, BoundedDimensionOrderRouter(2), random_permutation(mesh, seed=0)
        )
        bare = sim.run(max_steps=10_000)
        for key in bare.counters:
            assert instrumented.counters[key] == bare.counters[key]
        assert instrumented.steps == bare.steps
