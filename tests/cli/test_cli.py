"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.harness.execute import execute_trial
from repro.harness.specs import CONSTRUCTIONS, ROUTE_ALGORITHMS, TrialSpec

SPECS_DIR = pathlib.Path(__file__).parents[2] / "benchmarks" / "specs"


def _route_cell(algorithm, queues, torus):
    argv = ["route", "--algorithm", algorithm, "--queues", queues, "--n", "8",
            "--k", "2", "--max-steps", "300"] + (["--torus"] if torus else [])
    spec = TrialSpec(kind="route", algorithm=algorithm, n=8, k=2, queues=queues,
                     torus=torus, max_steps=300)
    topology = "torus" if torus else "mesh"
    return pytest.param(argv, spec, None, id=f"route-{algorithm}-{queues}-{topology}")


def _lower_bound_cell(construction):
    n = 120 if construction == "torus" else 60
    argv = ["lower-bound", "--construction", construction, "--n", str(n),
            "--no-completion"]
    spec = TrialSpec(kind="lower_bound", construction=construction, n=n,
                     run_to_completion=False, max_steps=2_000_000)
    return pytest.param(argv, spec, None, id=f"lower-bound-{construction}")


#: ``(argv, spec, completes)``: a command line next to the trial it must
#: print.  ``completes`` pins the outcome of a cell chosen for it (central
#: farthest-first wedges on this permutation, so a capped run tells the
#: two queue regimes apart); None accepts either outcome.
CLI_TRIAL_CELLS = [
    *(
        pytest.param(
            ["route", "--algorithm", "farthest-first", "--queues", queues,
             "--n", "16", "--k", "2", "--workload", "random", "--max-steps", "60"],
            TrialSpec(kind="route", algorithm="farthest-first", n=16, k=2,
                      queues=queues, workload="random", max_steps=60),
            queues == "incoming",
            id=queues,
        )
        for queues in ("central", "incoming")
    ),
    *(
        _route_cell(algorithm, queues, torus)
        for algorithm in ROUTE_ALGORITHMS
        for queues in ("central", "incoming")
        for torus in (False, True)
    ),
    pytest.param(
        ["route", "--algorithm", "credit-adaptive", "--topology", "mesh3d",
         "--n", "4", "--k", "2"],
        TrialSpec(kind="route", algorithm="credit-adaptive", topology="mesh3d",
                  n=4, k=2),
        None,
        id="route-credit-adaptive-mesh3d",
    ),
    *(_lower_bound_cell(construction) for construction in CONSTRUCTIONS),
    *(
        pytest.param(
            ["section6", "--n", "27"] + (["--improved"] if improved else []),
            TrialSpec(kind="section6", n=27, improved=improved),
            None,
            id="section6-improved" if improved else "section6",
        )
        for improved in (False, True)
    ),
]


def _result_lines(kind, m):
    """What the CLI prints for a trial with metrics ``m``, line by line."""
    if kind == "route":
        return [
            f"{m['algorithm_name']} on ",
            f"{m['delivered']}/{m['total_packets']} in {m['steps']} steps "
            f"(diameter {m['diameter']}), max queue {m['max_queue_len']}, "
            f"max node load {m['max_node_load']}, {m['total_moves']} moves\n",
        ]
    if kind == "lower_bound":
        return [
            f"certified bound {m['bound_steps']} steps, "
            f"{m['exchange_count']} exchanges, "
            f"{m['undelivered_at_bound']} packets undelivered at the horizon\n",
            f"replay: configuration match = {m['configuration_matches']}, "
            f"deliveries match = {m['delivery_times_match']}\n",
        ]
    return [
        f"delivered {m['delivered']}/{m['total_packets']}; actual "
        f"{m['actual_steps']} steps, scheduled {m['scheduled_steps']} "
        f"(bound {m['paper_time_bound']}), max node load {m['max_node_load']} "
        f"(bound {m['paper_queue_bound']})\n",
    ]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_route_defaults(self):
        args = build_parser().parse_args(["route"])
        assert args.algorithm == "bounded-dor"
        assert args.n == 32 and args.k == 2

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "--algorithm", "psychic"])


class TestCommands:
    def test_route_success_exit_code(self, capsys):
        rc = main(["route", "--n", "12", "--k", "2", "--workload", "random"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delivered" in out

    def test_route_stall_exit_code(self, capsys):
        # Full permutation on k=1 central dimension order: gridlocked.
        rc = main(
            ["route", "--algorithm", "dor", "--n", "8", "--k", "1",
             "--workload", "rotation", "--max-steps", "50"]
        )
        assert rc == 1
        assert "STALLED" in capsys.readouterr().out

    def test_route_closed_wedge_stops(self, capsys):
        # Central-queue farthest-first wedges on the random permutation
        # after 966 moves; the run stops STALL_STEPS idle steps later
        # instead of stepping on to the default 1,000,000-step cap.
        rc = main(
            ["route", "--algorithm", "farthest-first", "--queues", "central",
             "--n", "16", "--k", "2"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "STALLED 62/256 in 37 steps" in out
        assert out.rstrip().endswith("966 moves")

    def test_route_torus(self, capsys):
        rc = main(["route", "--n", "8", "--torus", "--workload", "random"])
        assert rc == 0

    def test_route_hot_potato(self, capsys):
        rc = main(["route", "--algorithm", "hot-potato", "--n", "8"])
        assert rc == 0

    def test_route_array_engine(self, capsys):
        rc = main(["route", "--n", "8", "--engine", "array"])
        assert rc == 0
        assert "[array engine]" in capsys.readouterr().out

    def test_route_array_engine_unported_router_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["route", "--algorithm", "alternating-adaptive", "--n", "8",
                 "--k", "2", "--queues", "incoming", "--engine", "array"]
            )
        assert exc.value.code == 2
        assert "is not ported to the array engine" in capsys.readouterr().err

    def test_route_array_engine_degraded_links(self, capsys):
        rc = main(["route", "--n", "8", "--engine", "array",
                   "--availability", "0.9"])
        assert rc == 0
        assert "[array engine]" in capsys.readouterr().out

    def test_verify_engines_lockstep(self, capsys):
        rc = main(
            ["verify", "--engines", "--n", "6", "--k", "2", "--quiet",
             "--families", "permutation", "--routers", "bounded-dor"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verify --engines PASS" in out
        assert "lockstep steps" in out

    def test_verify_engines_unported_router_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--engines", "--routers", "alternating-adaptive"])
        assert exc.value.code == 2
        assert "bounded-dor" in capsys.readouterr().err

    def test_lower_bound_adaptive(self, capsys):
        rc = main(
            ["lower-bound", "--construction", "adaptive", "--n", "60",
             "--k", "1", "--check-invariants"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "configuration match = True" in out

    def test_lower_bound_dor(self, capsys):
        rc = main(
            ["lower-bound", "--construction", "dor", "--n", "60", "--k", "1",
             "--no-completion"]
        )
        assert rc == 0

    def test_lower_bound_hh(self, capsys):
        rc = main(
            ["lower-bound", "--construction", "hh", "--n", "60", "--k", "2",
             "--h", "2", "--no-completion"]
        )
        assert rc == 0

    def test_section6(self, capsys):
        rc = main(["section6", "--n", "27", "--workload", "transpose"])
        assert rc == 0
        assert "delivered 729/729" in capsys.readouterr().out

    def test_bounds(self, capsys):
        rc = main(["bounds", "--n", "216", "--k", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Theorem 13 certified" in out
        assert "972n" in out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--k", "0"], "queue capacity must be >= 1"),
            (["--availability", "0"], "availability must be in (0, 1]"),
            (["--availability", "1.5"], "availability must be in (0, 1]"),
            (["--max-steps", "-1"], "max_steps must be >= 1"),
            (["--n", "1"], "n must be >= 2"),
            (["--max-steps", "0"], "max_steps must be >= 1"),
            (["--topology", "torus", "--torus"], "set either 'topology' or 'torus'"),
            (["--topology", "mesh3d"], "'bounded-dor' is 2D-only"),
            (["--workload", "nope"], "unknown workload 'nope'"),
            (["--algorithm", "nope"], "invalid choice"),
        ],
        ids=["k0", "availability0", "availability1.5", "max-steps-1", "n1",
             "max-steps0", "topology-and-torus", "mesh3d-2d-router",
             "workload-nope", "algorithm-nope"],
    )
    def test_route_out_of_range_argument_is_usage_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["route", "--n", "8", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and message in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["lower-bound", "--k", "0", "--n", "60"], "queue capacity must be >= 1"),
            (["section6", "--n", "10"], "n must be a power of 3"),
            (["bounds", "--n", "1"], "need n >= 6"),
        ],
        ids=["lower-bound-k0", "section6-n10", "bounds-n1"],
    )
    def test_out_of_range_construction_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and message in err

    @pytest.mark.parametrize("argv,spec,completes", CLI_TRIAL_CELLS)
    def test_route_farthest_first_honours_queues(self, argv, spec, completes, capsys):
        # The command line is a thin shell over the trial: same numbers
        # printed, same exit code as the trial's outcome.
        trial = execute_trial(spec)
        rc = main(argv)
        ok = trial["configuration_matches" if spec.kind == "lower_bound" else "completed"]
        assert rc == (0 if ok else 1)
        if completes is not None:
            assert trial["completed"] == completes
        out = capsys.readouterr().out
        for line in _result_lines(spec.kind, trial):
            assert line in out

    def test_route_with_flaky_links(self, capsys):
        rc = main(
            ["route", "--algorithm", "greedy-adaptive", "--queues", "incoming",
             "--n", "10", "--availability", "0.8", "--workload", "random"]
        )
        assert rc == 0
        assert "delivered" in capsys.readouterr().out

    def test_lower_bound_ff(self, capsys):
        rc = main(
            ["lower-bound", "--construction", "ff", "--n", "60", "--k", "1",
             "--no-completion"]
        )
        assert rc == 0
        assert "configuration match = True" in capsys.readouterr().out

    def test_lower_bound_torus(self, capsys):
        rc = main(
            ["lower-bound", "--construction", "torus", "--n", "120", "--k", "1",
             "--no-completion"]
        )
        assert rc == 0
        assert "configuration match = True" in capsys.readouterr().out

    def test_section6_improved(self, capsys):
        rc = main(["section6", "--n", "27", "--improved"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"bound {564 * 27}" in out


class TestCampaignCommands:
    def test_run_status_show_cycle(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "cli-test")
        spec = str(SPECS_DIR / "smoke.json")
        rc = main(
            ["campaign", "run", spec, "--workers", "2",
             "--campaign-dir", str(tmp_path), "--quiet"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign smoke: 2/2 ok" in out

        # Immediate re-run: 100% cache hits, every manifest row cached.
        rc = main(
            ["campaign", "run", spec, "--campaign-dir", str(tmp_path), "--quiet"]
        )
        assert rc == 0
        assert "(2 cached" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "smoke" / "manifest.json").read_text())
        assert all(t["cached"] for t in manifest["trials"])

        rc = main(["campaign", "status", "smoke", "--campaign-dir", str(tmp_path)])
        assert rc == 0
        assert "2 cached" in capsys.readouterr().out

        # `show` accepts either the campaign name or the spec path.
        rc = main(["campaign", "show", spec, "--campaign-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bounded-dor" in out and "headline" in out

    def test_run_missing_spec(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "run", str(tmp_path / "ghost.json"), "--quiet"])
        assert exc.value.code == 2
        assert "cannot load campaign spec" in capsys.readouterr().err

    def test_resume_without_cache_fails(self, tmp_path, capsys):
        spec = str(SPECS_DIR / "smoke.json")
        with pytest.raises(SystemExit) as exc:
            main(
                ["campaign", "run", spec, "--resume",
                 "--campaign-dir", str(tmp_path / "empty"), "--quiet"]
            )
        assert exc.value.code == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_status_unknown_campaign(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "status", "ghost", "--campaign-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "run it first" in capsys.readouterr().err

    def test_show_unknown_campaign(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "show", "ghost", "--campaign-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "run it first" in capsys.readouterr().err


class TestFaultsCommand:
    def test_custom_spec_runs_and_reports(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "cli-faults-test")
        spec = tmp_path / "tiny_faults.json"
        spec.write_text(json.dumps({
            "name": "tiny_faults",
            "trials": [
                {"kind": "faults", "algorithm": "conservative-bounded-dor",
                 "n": 6, "k": 2, "availability": 0.8, "max_steps": 800},
            ],
        }))
        rc = main(
            ["faults", "--spec", str(spec),
             "--campaign-dir", str(tmp_path / "campaigns"), "--quiet"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults PASS: 1 cells" in out
        assert "conservative-bounded-dor" in out

    def test_missing_spec_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "--spec", str(tmp_path / "ghost.json"), "--quiet"])
        assert exc.value.code == 2
        assert "cannot load faults spec" in capsys.readouterr().err


class TestStreamCommand:
    def test_custom_spec_runs_and_reports_knee_table(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CODE_VERSION", "cli-stream-test")
        spec = tmp_path / "tiny_stream.json"
        spec.write_text(json.dumps({
            "name": "tiny_stream",
            "trials": [
                {"kind": "streaming", "algorithm": "bounded-dor", "n": 8,
                 "k": 4, "rate": 0.05, "warmup": 4, "measure": 16,
                 "drain": 64},
                {"kind": "streaming", "algorithm": "bounded-dor", "n": 8,
                 "k": 4, "rate": 0.6, "warmup": 4, "measure": 16,
                 "drain": 64},
            ],
        }))
        rc = main(
            ["stream", "--spec", str(spec),
             "--campaign-dir", str(tmp_path / "campaigns"), "--quiet"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stream PASS: 2 cells in 1 sweeps" in out
        assert "bounded-dor/n8/poisson" in out

    def test_missing_spec_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--spec", str(tmp_path / "ghost.json"), "--quiet"])
        assert exc.value.code == 2
        assert "cannot load streaming spec" in capsys.readouterr().err

    def test_help_lists_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("route", "lower-bound", "section6", "bounds", "verify",
                        "campaign", "faults", "stream", "analyze"):
            assert command in out
