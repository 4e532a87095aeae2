"""Unit tests for the lockstep engine-equivalence harness itself.

The harness is a gate, so these tests check both directions: clean cells
report ok, and genuinely different traces are caught (a comparison harness
that cannot fail would prove nothing).
"""

import pytest

from repro.mesh import Mesh, Simulator
from repro.verify import ARRAY_PORTED, REGISTRY, lockstep_cell, run_engine_matrix
from repro.verify.engine_equivalence import LockstepReport, lockstep
from repro.workloads import random_permutation


class TestLockstepCell:
    def test_clean_cell_reports_ok(self):
        report = lockstep_cell("bounded-dor", "permutation", 6, 2, 0)
        assert report.ok
        assert report.steps > 0
        assert report.divergence_step is None

    def test_dynamic_family_exercises_pending_path(self):
        report = lockstep_cell("hot-potato", "dynamic", 6, 1, 3)
        assert report.ok

    def test_unported_router_raises(self):
        with pytest.raises(ValueError, match="not ported"):
            lockstep_cell("alternating-adaptive", "permutation", 6, 2, 0)

    def test_to_metrics_round_trips(self):
        metrics = lockstep_cell("dor", "torus", 6, 2, 0).to_metrics()
        assert metrics["ok"] is True
        assert metrics["router"] == "dor"
        assert metrics["divergence_step"] is None


class TestLockstepDetectsDivergence:
    def test_different_instances_diverge_with_step_pinpointed(self):
        """Feed the comparator two genuinely different runs: it must fail
        and name the first divergent step, not just a final mismatch."""
        topology = Mesh(6)
        entry = REGISTRY["bounded-dor"]
        a = Simulator(topology, entry.factory(2, 0), random_permutation(topology, seed=0))
        b = Simulator(topology, entry.factory(2, 0), random_permutation(topology, seed=1))
        report = LockstepReport(
            router="bounded-dor", family="permutation", n=6, k=2, seed=0
        )
        lockstep(a, b, 100, report)
        assert not report.ok
        assert report.divergence_step == 1

    def test_unequal_lengths_diverge_on_done_state(self):
        """One empty run against a loaded one: caught via done-state."""
        topology = Mesh(6)
        entry = REGISTRY["bounded-dor"]
        a = Simulator(topology, entry.factory(2, 0), [])
        b = Simulator(topology, entry.factory(2, 0), random_permutation(topology, seed=0))
        report = LockstepReport(
            router="bounded-dor", family="permutation", n=6, k=2, seed=0
        )
        lockstep(a, b, 100, report)
        assert not report.ok


class TestEngineMatrix:
    def test_default_grid_is_clean(self):
        reports = run_engine_matrix(sizes=(4,), ks=(1,), seeds=(0,))
        assert len(reports) == len(ARRAY_PORTED) * 3  # three families
        assert all(r.ok for r in reports)

    def test_max_steps_caps_every_cell(self):
        # The CI job bounds large cells to a fixed lockstep window; a
        # bounded prefix is still a sound gate because every step of the
        # prefix is compared.
        reports = run_engine_matrix(
            routers=("bounded-dor",),
            families=("permutation",),
            sizes=(8,),
            ks=(1,),
            seeds=(0,),
            max_steps=3,
        )
        assert all(r.ok and r.steps == 3 for r in reports)

    def test_progress_callback_sees_every_cell(self):
        lines = []
        reports = run_engine_matrix(
            routers=("bounded-dor",),
            families=("permutation",),
            sizes=(4,),
            ks=(1,),
            seeds=(0, 1),
            progress=lines.append,
        )
        assert len(lines) == len(reports) == 2
        assert all("bounded-dor" in line for line in lines)
