"""Integration tests for the full Section 6 algorithm (Theorems 20, 34)."""

import pytest

from repro.harness.execute import execute_trial
from repro.harness.specs import TrialSpec
from repro.mesh import Mesh
from repro.tiling import Section6Router
from repro.tiling.state import Section6Violation
from repro.workloads import (
    bit_reversal_permutation,
    random_partial_permutation,
    random_permutation,
    rotation_permutation,
    transpose_permutation,
)


class TestValidation:
    def test_rejects_non_power_of_three(self):
        for n in (26, 28, 54, 100):
            with pytest.raises(ValueError, match="power of 3"):
                Section6Router(n)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            Section6Router(9)

    def test_accepts_powers_of_three(self):
        for n in (27, 81, 243, 729):
            Section6Router(n)


class TestDelivery:
    @pytest.mark.parametrize("n", [27, 81])
    def test_random_permutations_delivered(self, n):
        mesh = Mesh(n)
        for seed in range(3):
            result = Section6Router(n).route(random_permutation(mesh, seed=seed))
            assert result.completed
            assert result.delivered == result.total_packets

    @pytest.mark.parametrize(
        "workload",
        [
            transpose_permutation,
            lambda m: rotation_permutation(m, m.width // 2, m.height // 3),
            lambda m: random_partial_permutation(m, 0.3, seed=5),
        ],
        ids=["transpose", "rotation", "partial"],
    )
    def test_structured_workloads(self, workload):
        mesh = Mesh(27)
        result = Section6Router(27).route(workload(mesh))
        assert result.completed

    def test_identity_trivial(self):
        mesh = Mesh(27)
        from repro.workloads import identity_permutation

        result = Section6Router(27).route(identity_permutation(mesh))
        assert result.completed
        assert result.actual_steps >= 0
        assert result.max_node_load == 0


class TestTheorem34Bounds:
    @pytest.mark.parametrize("n", [27, 81])
    def test_scheduled_time_within_972n(self, n):
        mesh = Mesh(n)
        result = Section6Router(n).route(random_permutation(mesh, seed=0))
        assert result.scheduled_steps <= 972 * n
        assert result.actual_steps <= result.scheduled_steps

    def test_improved_schedule_within_564n(self):
        mesh = Mesh(81)
        result = Section6Router(81, improved=True).route(
            random_permutation(mesh, seed=0)
        )
        assert result.scheduled_steps <= 564 * 81

    @pytest.mark.parametrize("improved,factor", [(False, 972), (True, 564)])
    def test_trial_records_its_schedule_bound(self, improved, factor):
        # A stored section6 row carries the bound of the schedule it ran.
        metrics = execute_trial(TrialSpec(kind="section6", n=27, improved=improved))
        assert metrics["paper_time_bound"] == factor * 27

    @pytest.mark.parametrize("n", [27, 81])
    def test_queue_bound_834(self, n):
        mesh = Mesh(n)
        worst = 0
        for workload in (
            random_permutation(mesh, seed=1),
            transpose_permutation(mesh),
        ):
            result = Section6Router(n).route(workload)
            worst = max(worst, result.max_node_load)
        assert worst <= 834  # Lemma 28 / Theorem 34

    def test_base_case_within_lemma32(self):
        mesh = Mesh(27)
        result = Section6Router(27).route(random_permutation(mesh, seed=2))
        for steps in result.base_case_steps.values():
            assert steps <= 14

    def test_actual_time_linear_shape(self):
        """actual(81)/actual(27) stays well under the quadratic ratio 9."""
        times = {}
        for n in (27, 81):
            mesh = Mesh(n)
            result = Section6Router(n).route(random_permutation(mesh, seed=3))
            times[n] = result.actual_steps
        assert times[81] / times[27] < 7.0


class TestMinimality:
    def test_minimality_is_structurally_enforced(self):
        """Theorem 20: every move is checked by ClassState.move; a completed
        run certifies the whole execution was minimal adaptive."""
        mesh = Mesh(27)
        result = Section6Router(27).route(random_permutation(mesh, seed=4))
        assert result.completed


class TestPhaseInstrumentation:
    def test_phase_stats_recorded(self):
        mesh = Mesh(27)
        result = Section6Router(27).route(random_permutation(mesh, seed=0))
        assert result.phases
        # n = 27: one iteration (side 27, single... side==n -> 1 tiling),
        # two orientations, four classes = 8 subphases.
        assert len(result.phases) == 8
        for ph in result.phases:
            assert ph.actual_steps <= ph.scheduled_steps

    def test_phase_stats_disableable(self):
        mesh = Mesh(27)
        result = Section6Router(27, record_phases=False).route(
            random_permutation(mesh, seed=0)
        )
        assert not result.phases

    def test_iteration_structure_at_81(self):
        mesh = Mesh(81)
        result = Section6Router(81).route(random_permutation(mesh, seed=0))
        # side 81: 1 tiling x 2 orientations; side 27: 3 tilings x 2.
        per_class = [ph for ph in result.phases if ph.direction == "NE"]
        assert len(per_class) == 2 + 6
        sides = sorted({ph.tile_side for ph in per_class}, reverse=True)
        assert sides == [81, 27]


class TestDirectionClasses:
    def test_all_four_classes_exercised(self):
        mesh = Mesh(27)
        result = Section6Router(27).route(rotation_permutation(mesh, 13, 14))
        assert set(result.base_case_steps) == {"NE", "NW", "SE", "SW"}

    def test_single_class_workload(self):
        """A pure northeast shift exercises only the NE machinery."""
        mesh = Mesh(27)
        from repro.workloads import packets_from_mapping

        packets = packets_from_mapping(
            {(x, y): (x + 9, y + 9) for x in range(18) for y in range(18)}
        )
        result = Section6Router(27).route(packets)
        assert result.completed
        active_dirs = {ph.direction for ph in result.phases if ph.active_packets}
        assert active_dirs <= {"NE"}
