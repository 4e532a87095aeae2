"""Tests of the benchmark itself, at smoke size (seconds per workload).

Run from the root of a checkout::

    python -m pytest perfbench/test_perfbench.py -q

The repository's own suite (``testpaths = ["tests"]``) and ``make bench``
(``benchmarks/``) do not collect this file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=""),
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_config_names_the_workloads_and_gives_setup_the_largest_bound():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.NAMES)
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_fill_the_budget_at_nominal_speed(name):
    workload = workloads.build(name)
    seconds = CONFIG["run_seconds"]
    runs, setups = run.counts(workload, seconds)
    assert runs >= 1 and run.MIN_SETUPS <= setups <= run.MAX_SETUPS
    # Nominal timings: the counts are as large as the budget allows.
    assert runs * workload.rep_s <= run.RUN_SHARE * seconds + workload.rep_s / 2


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(name, trace):
    proc = run_cli(
        ["--workload", name, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--smoke"]
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in CONFIG[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def broken(name, mutate):
    """``workloads.build`` with ``mutate`` applied to the built workload."""
    original = workloads.build

    def build(workload_name, smoke=False):
        workload = original(workload_name, smoke)
        if workload_name == name:
            mutate(workload)
        return workload

    return build


def break_replay(monkeypatch):
    real = workloads.replay_constructed_permutation

    def replay(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, configuration_matches=False)

    monkeypatch.setattr(workloads, "replay_constructed_permutation", replay)


@pytest.mark.parametrize(
    "name, breakage, message",
    [
        ("perm-n256", lambda w: setattr(w, "max_steps", 3), "undelivered"),
        ("faults-n96", lambda w: setattr(w, "engine", "reference"), "engine"),
        ("stream-n32", lambda w: setattr(w, "drain", 0), "did not drain"),
        ("lowerbound-n168", None, "Lemma 12"),
    ],
)
def test_a_failed_output_check_fails_the_run(monkeypatch, capsys, name, breakage, message):
    if breakage is None:
        break_replay(monkeypatch)
    else:
        monkeypatch.setattr(workloads, "build", broken(name, breakage))
    code = run.main(
        ["--workload", name, "--seed", "0", "--seconds", "0.1", "--smoke"]
    )
    out = capsys.readouterr().out
    result = last_json(out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert message in out


def test_counters_that_differ_between_runs_fail_the_run():
    outcome = workloads.Outcome(1, 1, 0, 1, [1], 0.0, 1.0, {"total_moves": 5})
    other = dataclasses.replace(outcome, counters={"total_moves": 6}, failures=[])
    reps = [run.Rep(1.0, outcome), run.Rep(1.0, other)]
    run.check_determinism(reps)
    assert other.failures and not outcome.failures


def test_paced_seconds_divide_each_stretch_by_its_slowness():
    pacer = pace.Pacer()
    pacer.stretches = [(0.0, 1.0, 2.0), (1.5, 3.0, 1.0)]  # a probe ran 1.0-1.5
    paced, host = pacer.seconds(0.5, 2.0)
    assert host == pytest.approx(1.0)
    assert paced == pytest.approx(0.5 / 2.0 + 0.5 / 1.0)


def test_a_paced_run_probes_and_restores_the_step_methods(monkeypatch):
    from repro.mesh.array_engine import ArraySimulator
    from repro.mesh.simulator import Simulator

    before = [vars(cls)["step"] for cls in (Simulator, ArraySimulator)]
    monkeypatch.setattr(pace, "INTERVAL_S", 0.0)
    pacer = pace.Pacer()
    rep = run.run_once(workloads.build("perm-n256", smoke=True), 0, pacer=pacer)
    assert [vars(cls)["step"] for cls in (Simulator, ArraySimulator)] == before
    # A probe after every step, plus one before and one after the run.
    assert len(pacer.stretches) == rep.outcome.sim_steps + 2
    assert 0 < rep.host <= rep.wall and rep.paced > 0 and 0 < rep.paced_step < rep.paced


def test_self_time_excludes_child_spans():
    tracer = Tracer(hot=("leaf",))
    with tracer.span("outer"):
        with tracer.span("inner"):
            for _ in range(3):
                with tracer.span("leaf"):
                    sum(range(20_000))
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0  # inner's parent is outer
    assert tracer.calls["leaf"] == 3
    inner = tracer.total_s["inner"]
    assert tracer.self_s["outer"] == pytest.approx(tracer.total_s["outer"] - inner)
    assert tracer.self_s["inner"] == pytest.approx(inner - tracer.total_s["leaf"])


def test_down_frac_is_the_share_of_links_masked_out():
    rep = run.run_once(workloads.build("faults-n96", smoke=True), 0, traced=True)
    assert rep.layers["faults.down_frac"] == pytest.approx(
        1 - workloads.AVAILABILITY, abs=0.03
    )


def test_traced_run_restores_every_wrapped_entry_point():
    replaced = layers.replacements(Tracer(), layers.MaskStats())
    before = [vars(owner).get(attr) for owner, attr, _ in replaced]
    run.run_once(workloads.build("faults-n96", smoke=True), 0, traced=True)
    assert [vars(owner).get(attr) for owner, attr, _ in replaced] == before


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_cli(
        ["--workload", "perm-n256", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
