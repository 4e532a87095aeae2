"""The continuous open-loop driver: determinism, backpressure, accounting."""

import pytest

from repro.faults import BernoulliLinkPlan
from repro.mesh import Mesh, Torus
from repro.routing import (
    BoundedDimensionOrderRouter,
    DimensionOrderRouter,
    GreedyAdaptiveRouter,
)
from repro.streaming import PoissonArrivals, build_process, run_streaming
from repro.verify import VerificationError


def small_run(rate=0.1, algorithm=None, **kwargs):
    kwargs.setdefault("warmup", 8)
    kwargs.setdefault("measure", 32)
    kwargs.setdefault("drain", 128)
    return run_streaming(
        Mesh(8),
        algorithm or BoundedDimensionOrderRouter(2),
        build_process("poisson", rate, seed=3),
        **kwargs,
    )


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        assert small_run().to_metrics() == small_run().to_metrics()

    def test_metrics_json_serializable(self):
        import json

        json.dumps(small_run().to_metrics())


class TestAccounting:
    def test_offered_splits_into_admitted_and_rejected(self):
        report = small_run(rate=0.6)
        assert report.admitted + report.rejected == report.offered
        assert report.rejected > 0  # far above saturation
        m = report.to_metrics()
        assert m["rejection_fraction"] > 0.0

    def test_low_rate_delivers_everything(self):
        report = small_run(rate=0.02)
        assert report.drained and not report.stalled
        assert report.rejected == 0
        assert report.delivered_measured == report.admitted_measured
        assert report.delivered_rate == pytest.approx(report.offered_rate)

    def test_simulator_conservation_includes_rejected(self):
        report = small_run(rate=0.6)
        sim_total = report.result.total_packets
        assert sim_total == report.offered
        # Everything is resolved after a successful drain: delivered +
        # rejected == total (nothing dropped, nothing pending).
        if report.drained:
            assert report.result.delivered + report.rejected == sim_total

    def test_latencies_only_from_measured_window(self):
        report = small_run(rate=0.05)
        assert len(report.latencies) == report.delivered_measured
        assert all(lat >= 1 for lat in report.latencies)

    def test_strict_oracles_clean_on_conforming_router(self):
        # strict mode raises on any violation; a clean run proves the
        # admission path keeps every invariant the oracles check.
        report = small_run(rate=0.3, oracle_mode="strict")
        assert report.ok


class TestStallDetection:
    def test_central_queue_router_wedges_under_overload(self):
        """The documented Section 2 exchange-deadlock, surfaced as data:
        a central-queue router at far-above-saturation load wedges, and
        the drain detects it instead of burning the whole budget."""
        report = small_run(rate=0.8, algorithm=DimensionOrderRouter(2), drain=5000)
        assert report.stalled and not report.drained
        assert report.result.steps < 8 + 32 + 5000  # stall cut the drain short
        assert report.to_metrics()["stalled"] is True

    def test_theorem15_router_does_not_wedge(self):
        report = small_run(rate=0.8, drain=2000)
        assert report.drained and not report.stalled


class TestFaultPlanEngine:
    """A fault plan no longer forces the reference engine: the requested
    engine runs, and both engines agree on everything but its name."""

    @pytest.mark.parametrize("topology", [Mesh(12), Torus(10)], ids=["mesh12", "torus10"])
    @pytest.mark.parametrize(
        "router",
        [BoundedDimensionOrderRouter, GreedyAdaptiveRouter],
        ids=["bounded-dor", "greedy-adaptive"],
    )
    def test_engines_agree_under_a_link_plan(self, topology, router):
        reports = {
            engine: run_streaming(
                topology,
                router(2),
                build_process("poisson", 0.1, seed=5),
                warmup=8,
                measure=32,
                drain=256,
                plan=BernoulliLinkPlan(0.8, seed=7),
                engine=engine,
            )
            for engine in ("reference", "array")
        }
        reference, array = reports["reference"], reports["array"]
        assert (reference.engine, array.engine) == ("reference", "array")
        ref_metrics, arr_metrics = reference.to_metrics(), array.to_metrics()
        del ref_metrics["engine"], arr_metrics["engine"]
        assert arr_metrics == ref_metrics
        assert array.result.delivery_times == reference.result.delivery_times


class TestEngineParity:
    """Without faults too, both engines produce the same run: the batched
    arrivals, admission and placement match the reference engine's
    one-packet-at-a-time entry path."""

    @pytest.mark.parametrize("process", ["poisson", "onoff", "hotspot"])
    @pytest.mark.parametrize(
        "topology, router, rate",
        [
            (Mesh(10), lambda: BoundedDimensionOrderRouter(2), 0.3),
            (Torus(8), lambda: GreedyAdaptiveRouter(2, "incoming"), 0.2),
            (Mesh(8), lambda: DimensionOrderRouter(3), 0.1),
        ],
        ids=["bounded-dor-mesh10", "greedy-incoming-torus8", "dor-central-mesh8"],
    )
    def test_engines_agree_without_faults(self, process, topology, router, rate):
        reports = {
            engine: run_streaming(
                topology,
                router(),
                build_process(process, rate, seed=11),
                warmup=6,
                measure=24,
                drain=256,
                engine=engine,
            )
            for engine in ("reference", "array")
        }
        reference, array = reports["reference"], reports["array"]
        assert reference.rejected > 0  # every cell exercises refusals
        ref_metrics, arr_metrics = reference.to_metrics(), array.to_metrics()
        assert (ref_metrics.pop("engine"), arr_metrics.pop("engine")) == (
            "reference",
            "array",
        )
        assert arr_metrics == ref_metrics
        assert array.result.delivery_times == reference.result.delivery_times


class TestValidation:
    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            small_run(warmup=-1)
        with pytest.raises(ValueError, match="measure"):
            small_run(measure=0)
        with pytest.raises(ValueError, match="drain"):
            small_run(drain=-1)


class TestHarnessIntegration:
    def test_streaming_trial_runs_and_caches_deterministically(self):
        from repro.harness.execute import execute_trial
        from repro.harness.specs import TrialSpec

        spec = TrialSpec(
            kind="streaming",
            n=8,
            k=2,
            algorithm="greedy-adaptive",
            rate=0.1,
            warmup=8,
            measure=32,
            drain=128,
        )
        spec.validate()
        assert execute_trial(spec) == execute_trial(spec)

    def test_streaming_spec_validates_fields(self):
        from repro.harness.specs import TrialSpec

        with pytest.raises(ValueError, match="arrival"):
            TrialSpec(
                kind="streaming", n=8, algorithm="dor", arrival="fractal"
            ).validate()
        with pytest.raises(ValueError, match="streaming algorithm"):
            TrialSpec(kind="streaming", n=8, algorithm="nope").validate()
        with pytest.raises(ValueError, match="rate"):
            TrialSpec(kind="streaming", n=8, algorithm="dor", rate=-1.0).validate()
