"""Tests for the declarative campaign spec layer."""

import json

import pytest

from repro.harness import CampaignSpec, TrialSpec, code_version, trial_key
from repro.harness.specs import expand_grid


class TestTrialSpec:
    def test_defaults_and_validation(self):
        spec = TrialSpec(kind="route", n=8, algorithm="bounded-dor")
        spec.validate()
        assert spec.k == 1 and spec.seed == 0 and spec.workload == "random"

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="telepathy", n=8),
            dict(kind="route", n=8, algorithm="psychic"),
            dict(kind="route", n=1, algorithm="dor"),
            dict(kind="route", n=8, algorithm="dor", workload="mystery"),
            dict(kind="route", n=8, algorithm="dor", queues="sideways"),
            dict(kind="route", n=8, algorithm="dor", availability=0.0),
            dict(kind="lower_bound", n=60, construction="vibes"),
            dict(kind="lower_bound", n=60, construction="dor", algorithm="greedy-adaptive"),
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            TrialSpec.from_dict(bad)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown TrialSpec fields"):
            TrialSpec.from_dict({"kind": "route", "n": 8, "algorithm": "dor", "spin": 1})

    def test_round_trip(self):
        spec = TrialSpec(kind="lower_bound", n=60, construction="adaptive", label="x")
        again = TrialSpec.from_dict(spec.to_dict())
        assert again == spec


class TestEngineField:
    def test_engine_defaults_to_reference(self):
        spec = TrialSpec(kind="route", n=8, algorithm="bounded-dor")
        spec.validate()
        assert spec.engine == "reference"

    def test_array_engine_accepted(self):
        spec = TrialSpec(kind="route", n=8, algorithm="bounded-dor", engine="array")
        spec.validate()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            TrialSpec.from_dict(
                dict(kind="route", n=8, algorithm="dor", engine="simd")
            )

    def test_array_engine_accepts_degraded_links(self):
        # Fault plans run vectorized on the array backend now, so the old
        # array+availability rejection is gone.
        spec = TrialSpec.from_dict(
            dict(
                kind="route", n=8, algorithm="bounded-dor",
                engine="array", availability=0.9,
            )
        )
        spec.validate()

    @pytest.mark.parametrize(
        "bad,reason",
        [
            (dict(kind="route", algorithm="alternating-adaptive"), "not ported"),
            (dict(kind="streaming", algorithm="randomized-adaptive"), "not ported"),
            (dict(kind="faults", algorithm="conservative-bounded-dor"), "not ported"),
            (dict(kind="faults", algorithm="fault-reroute"), "not ported"),
            (
                dict(kind="route", algorithm="credit-adaptive", topology="mesh3d"),
                "2D",
            ),
            (
                dict(kind="route", algorithm="credit-adaptive", topology="pillar"),
                "2D",
            ),
            (
                dict(kind="faults", algorithm="bounded-dor", retransmit_timeout=50),
                "retransmi",
            ),
            (dict(kind="lower_bound", construction="adaptive"), "ignore"),
            (dict(kind="section6"), "ignore"),
            (dict(kind="sort_route"), "ignore"),
            (dict(kind="verify", workload="permutation"), "ignore"),
            (dict(kind="analyze", workload="lint"), "ignore"),
            (dict(kind="bounds"), "ignore"),
        ],
    )
    def test_array_engine_rejects_what_it_cannot_run(self, bad, reason):
        with pytest.raises(ValueError, match=reason):
            TrialSpec.from_dict(dict(n=8, k=2, engine="array", **bad))

    def test_array_engine_runs_node_outages_without_retransmission(self):
        TrialSpec(
            kind="faults", n=8, k=2, algorithm="bounded-dor",
            mttf=100, mttr=10, engine="array",
        ).validate()

    def test_engine_affects_cache_key(self):
        reference = TrialSpec(kind="route", n=8, algorithm="bounded-dor")
        array = TrialSpec(kind="route", n=8, algorithm="bounded-dor", engine="array")
        assert trial_key(reference, "v") != trial_key(array, "v")


class TestFaultsSpec:
    def test_faults_kind_accepts_resilience_algorithms(self):
        for algorithm in ("conservative-bounded-dor", "fault-reroute", "bounded-dor"):
            TrialSpec(
                kind="faults", n=8, k=2, algorithm=algorithm, availability=0.8
            ).validate()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="faults", n=8, algorithm="psychic"),
            dict(kind="faults", n=8, algorithm="bounded-dor", workload="mystery"),
            # The reroute adapter's excursion rectangle is undefined on a
            # wrapping topology.
            dict(kind="faults", n=8, algorithm="fault-reroute", torus=True),
            dict(kind="faults", n=8, algorithm="bounded-dor", retransmit_timeout=-1),
            dict(kind="faults", n=8, algorithm="bounded-dor", max_retransmits=-1),
            dict(kind="faults", n=8, algorithm="bounded-dor", mttf=-5, mttr=10),
            # mttf/mttr define one renewal process; one without the other
            # is a half-specified plan.
            dict(kind="faults", n=8, algorithm="bounded-dor", mttf=100),
            dict(kind="faults", n=8, algorithm="bounded-dor", mttr=10),
        ],
    )
    def test_invalid_faults_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            TrialSpec.from_dict(bad)

    def test_fault_fields_affect_key(self):
        base = TrialSpec(kind="faults", n=8, algorithm="bounded-dor")
        variants = [
            TrialSpec(kind="faults", n=8, algorithm="bounded-dor", retransmit_timeout=50),
            TrialSpec(kind="faults", n=8, algorithm="bounded-dor", mttf=100, mttr=10),
            TrialSpec(kind="faults", n=8, algorithm="bounded-dor", max_retransmits=5),
        ]
        keys = {trial_key(s) for s in [base, *variants]}
        assert len(keys) == len(variants) + 1


class TestTrialKey:
    def test_label_does_not_affect_key(self):
        a = TrialSpec(kind="route", n=8, algorithm="dor", label="one")
        b = TrialSpec(kind="route", n=8, algorithm="dor", label="two")
        assert trial_key(a) == trial_key(b)

    def test_parameters_affect_key(self):
        a = TrialSpec(kind="route", n=8, algorithm="dor", seed=0)
        b = TrialSpec(kind="route", n=8, algorithm="dor", seed=1)
        assert trial_key(a) != trial_key(b)

    def test_code_version_affects_key(self):
        spec = TrialSpec(kind="route", n=8, algorithm="dor")
        assert trial_key(spec, "v1") != trial_key(spec, "v2")

    def test_env_override_pins_version(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
        assert code_version() == "pinned"


class TestGridExpansion:
    def test_cartesian_order_is_field_order(self):
        trials = expand_grid(
            {"kind": "route", "algorithm": "dor", "n": [8, 12], "k": [1, 2]}
        )
        assert [(t.n, t.k) for t in trials] == [(8, 1), (8, 2), (12, 1), (12, 2)]

    def test_seeds_shorthand(self):
        trials = expand_grid({"kind": "route", "algorithm": "dor", "n": 8, "seeds": 3})
        assert [t.seed for t in trials] == [0, 1, 2]

    def test_seed_and_seeds_conflict(self):
        with pytest.raises(ValueError, match="both 'seed' and 'seeds'"):
            expand_grid({"kind": "route", "algorithm": "dor", "n": 8, "seed": 1, "seeds": 2})


class TestCampaignSpec:
    def test_from_file_expands_sweep(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "name": "demo",
                    "trials": [{"kind": "route", "algorithm": "dor", "n": 8}],
                    "sweep": [{"kind": "route", "algorithm": "bounded-dor", "n": [8, 12]}],
                }
            )
        )
        campaign = CampaignSpec.from_file(path)
        assert [t.algorithm for t in campaign.trials] == ["dor", "bounded-dor", "bounded-dor"]
        assert len(campaign.keys()) == 3

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed campaign spec"):
            CampaignSpec.from_file(path)

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="no trials"):
            CampaignSpec.from_dict({"name": "empty"})

    def test_unsafe_name_rejected(self):
        with pytest.raises(ValueError, match="filesystem-safe"):
            CampaignSpec.from_dict(
                {"name": "../oops", "trials": [{"kind": "route", "algorithm": "dor", "n": 8}]}
            )

    def test_checked_in_specs_load(self):
        import pathlib

        specs_dir = pathlib.Path(__file__).parents[2] / "benchmarks" / "specs"
        for path in sorted(specs_dir.glob("*.json")):
            campaign = CampaignSpec.from_file(path)
            assert campaign.trials, path
