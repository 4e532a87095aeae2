"""Command-line interface: run the paper's experiments from a shell.

Subcommands:

- ``route``       -- route a workload with a chosen algorithm
- ``lower-bound`` -- run an adversarial construction + replay verification
- ``section6``    -- run the O(n)-time O(1)-queue algorithm
- ``bounds``      -- print every closed-form bound for given (n, k)
- ``verify``      -- differential/invariant verification of all routers
  (oracle battery + metamorphic images + EX-swap probes, see docs/VERIFY.md)
- ``campaign``    -- run/inspect declarative experiment campaigns
  (``campaign run|status|show``, see docs/HARNESS.md)
- ``analyze``     -- static deadlock, queue-bound & determinism analysis
  (``analyze cdg|bounds|lint|all``, see docs/ANALYSIS.md)
- ``faults``      -- fault-injection availability sweep with degradation
  metrics and overflow detection (see docs/FAULTS.md)
- ``stream``      -- open-loop saturation sweep: injection-rate ladder per
  router with knee detection (see docs/STREAMING.md)

``route``, ``lower-bound`` and ``section6`` map their flags onto a
:class:`~repro.harness.specs.TrialSpec` and run it through the harness's
build and run steps (docs/HARNESS.md), so a command line and the campaign
trial with the same fields print and store the same numbers.

Exit codes are uniform across subcommands: 0 success, 1 the command ran but
found failures (stalled routing, verification findings, new lint
violations, CDG disagreements), 2 bad arguments (argparse errors and
semantic argument validation alike, both reported as ``repro: error: ...``).

Example::

    python -m repro lower-bound --construction adaptive --n 120 --k 1
    python -m repro route --algorithm bounded-dor --n 32 --k 2 --workload transpose
    python -m repro section6 --n 81 --workload random
    python -m repro campaign run benchmarks/specs/smoke.json --workers 4
    python -m repro analyze all
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NoReturn, Sequence

from repro.core import bounds as bounds_mod
from repro.harness.execute import (
    BuiltTrial,
    build_lower_bound,
    build_route,
    build_section6,
)
from repro.harness.specs import (
    CONSTRUCTIONS,
    ROUTE_ALGORITHMS,
    TOPOLOGY_CHOICES,
    WORKLOADS,
    TrialSpec,
)


def _usage_error(message: str) -> SystemExit:
    """Bad arguments: message on stderr, exit code 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    return SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections (a bad choice, a malformed
    number, a missing argument) report like every other usage error."""

    def error(self, message: str) -> NoReturn:
        raise _usage_error(message)


def _build(builder: Callable[..., BuiltTrial], spec: TrialSpec, **options) -> BuiltTrial:
    """Run a harness build step; any argument it rejects is a usage error."""
    try:
        return builder(spec, **options)
    except ValueError as exc:
        raise _usage_error(str(exc))


def cmd_route(args: argparse.Namespace) -> int:
    spec = TrialSpec(
        kind="route",
        algorithm=args.algorithm,
        n=args.n,
        k=args.k,
        queues=args.queues,
        delta=args.delta,
        availability=args.availability,
        workload=args.workload,
        seed=args.seed,
        torus=args.torus,
        topology=args.topology,
        max_steps=args.max_steps,
        engine=args.engine,
    )
    trial = _build(build_route, spec)
    sim = trial.simulator
    if args.profile:
        from repro.perf import StepInstrumentation, hotspot_table, profile_run
        from repro.perf.profiling import format_phase_summary

        sim.instrument = StepInstrumentation()
        m, profiler = profile_run(trial.run)
    else:
        m = trial.run()
    status = "delivered" if m["completed"] else "STALLED"
    engine_tag = f" [{m['engine']} engine]" if args.engine != "reference" else ""
    print(
        f"{m['algorithm_name']} on {sim.topology!r} / {args.workload}: {status} "
        f"{m['delivered']}/{m['total_packets']} in {m['steps']} steps "
        f"(diameter {m['diameter']}), max queue {m['max_queue_len']}, "
        f"max node load {m['max_node_load']}, {m['total_moves']} moves"
        f"{engine_tag}"
    )
    if args.profile:
        print()
        print(format_phase_summary(sim.counter_snapshot()))
        print()
        print(hotspot_table(profiler, limit=args.profile_limit))
    return 0 if m["completed"] else 1


def cmd_lower_bound(args: argparse.Namespace) -> int:
    spec = TrialSpec(
        kind="lower_bound",
        construction=args.construction,
        n=args.n,
        k=args.k,
        h=args.h,
        run_to_completion=not args.no_completion,
        max_steps=args.max_steps,
    )
    trial = _build(build_lower_bound, spec, check_invariants=args.check_invariants)
    m = trial.run()
    print(
        f"{args.construction} construction on n={args.n}, k={args.k}: "
        f"certified bound {m['bound_steps']} steps, "
        f"{m['exchange_count']} exchanges, "
        f"{m['undelivered_at_bound']} packets undelivered at the horizon"
    )
    print(
        f"replay: configuration match = {m['configuration_matches']}, "
        f"deliveries match = {m['delivery_times_match']}"
    )
    if m["completed"] is not None:
        print(f"full routing time: {m['measured_steps']} steps")
    return 0 if m["configuration_matches"] else 1


def cmd_section6(args: argparse.Namespace) -> int:
    spec = TrialSpec(
        kind="section6",
        n=args.n,
        workload=args.workload,
        seed=args.seed,
        improved=args.improved,
    )
    m = _build(build_section6, spec).run()
    print(
        f"Section 6 on n={args.n} / {args.workload}: delivered "
        f"{m['delivered']}/{m['total_packets']}; actual "
        f"{m['actual_steps']} steps, scheduled {m['scheduled_steps']} "
        f"(bound {m['paper_time_bound']}), max node load {m['max_node_load']} "
        f"(bound {m['paper_queue_bound']})"
    )
    return 0 if m["completed"] else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    try:  # n or k outside a construction's range is a usage error
        rows = [
            ("diameter (2n-2)", bounds_mod.diameter_bound(n)),
            ("Theorem 13 certified", bounds_mod.adaptive_lower_bound(n, k)),
            ("Theorem 14 closed form", bounds_mod.theorem14_closed_form(n, k)),
            ("dim-order lower (S5)", bounds_mod.dimension_order_lower_bound(n, k)),
            ("dim-order closed form", bounds_mod.dimension_order_closed_form(n, k)),
            ("farthest-first lower (S5)", bounds_mod.farthest_first_lower_bound(n, k)),
            ("Theorem 15 upper budget", bounds_mod.theorem15_upper_bound(n, k)),
            ("Section 6 time (972n)", bounds_mod.section6_time_bound(n)),
            ("Section 6 improved (564n)", bounds_mod.section6_improved_time_bound(n)),
            ("Section 6 queue bound", bounds_mod.section6_queue_bound()),
        ]
    except ValueError as exc:
        raise _usage_error(str(exc))
    width = max(len(r[0]) for r in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")
    return 0


def _verify_engines(args: argparse.Namespace, progress) -> int:
    """The ``verify --engines`` mode: array-vs-reference lockstep matrix."""
    from repro.verify import ARRAY_PORTED, LOCKSTEP_FAMILIES, run_engine_matrix

    unported = sorted(set(args.routers or ()) - set(ARRAY_PORTED))
    if unported:
        raise _usage_error(
            f"routers {unported} are not ported to the array engine; "
            f"--engines supports {', '.join(ARRAY_PORTED)}"
        )
    reports = run_engine_matrix(
        routers=tuple(args.routers) if args.routers else ARRAY_PORTED,
        families=tuple(args.families) if args.families else LOCKSTEP_FAMILIES,
        sizes=tuple(args.n) if args.n else (8, 16),
        ks=tuple(args.k) if args.k else (1, 2),
        seeds=tuple(range(args.seeds)) if args.seeds else (0,),
        max_steps=args.budget,
        progress=progress,
    )
    findings = 0
    for r in reports:
        status = "ok" if r.ok else "; ".join(r.findings)
        findings += len(r.findings)
        print(
            f"{r.router:<12} {r.family:<12} n={r.n:<3} k={r.k} seed={r.seed}: "
            f"{r.steps} lockstep steps, {status}"
        )
    verdict = "PASS" if findings == 0 else "FAIL"
    print(
        f"verify --engines {verdict}: {len(reports)} cells, "
        f"{findings} finding(s)"
    )
    return 0 if findings == 0 else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import FAMILIES, REGISTRY, run_verification

    if args.smoke:
        families, sizes, ks, seeds = None, (8,), (1, 2), (0,)
    else:
        families, sizes, ks, seeds = None, (8, 12), (1, 2), (0, 1, 2)
    if args.families:
        unknown = set(args.families) - set(FAMILIES)
        if unknown:
            raise _usage_error(
                f"unknown families {sorted(unknown)}; expected {FAMILIES}"
            )
        families = tuple(args.families)
    if args.n:
        sizes = tuple(args.n)
    if args.k:
        ks = tuple(args.k)
    if args.seeds:
        seeds = tuple(range(args.seeds))
    if args.routers:
        unknown = set(args.routers) - set(REGISTRY)
        if unknown:
            raise _usage_error(
                f"unknown routers {sorted(unknown)}; expected {sorted(REGISTRY)}"
            )

    progress = None if args.quiet else lambda msg: print(f"verify: {msg}", file=sys.stderr)
    if args.engines:
        return _verify_engines(args, progress)
    kwargs = dict(
        sizes=sizes,
        ks=ks,
        seeds=seeds,
        routers=args.routers or None,
        mode=args.mode,
        metamorphic=not args.no_metamorphic,
        probes=not args.no_probes,
        progress=progress,
    )
    if families is not None:
        kwargs["families"] = families
    report = run_verification(**kwargs)

    for cell in report.cells:
        status = "ok" if cell.ok else f"{len(cell.findings)} finding(s)"
        stalls = f", expected stalls: {','.join(cell.stalls)}" if cell.stalls else ""
        print(
            f"{cell.family:<12} n={cell.n:<3} k={cell.k} seed={cell.seed}: "
            f"{len(cell.outcomes)} routers, {cell.runs} runs, {status}{stalls}"
        )
    for finding in report.findings:
        print(f"FINDING: {finding}")
    verdict = "PASS" if report.ok else "FAIL"
    print(
        f"verify {verdict}: {len(report.cells)} cells, {report.runs} runs, "
        f"{len(report.findings)} finding(s)"
    )
    return 0 if report.ok else 1


def _campaign_store(args: argparse.Namespace):
    from repro.harness import ResultStore

    return ResultStore(args.campaign_dir)


def _campaign_name(args: argparse.Namespace) -> str:
    """Accept either a campaign name or a path to its spec file."""
    import pathlib

    target = args.campaign
    if target.endswith(".json") or pathlib.Path(target).is_file():
        from repro.harness import CampaignSpec

        return CampaignSpec.from_file(target).name
    return target


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.harness import CampaignSpec, run_campaign

    try:
        campaign = CampaignSpec.from_file(args.spec)
    except (OSError, ValueError) as exc:
        raise _usage_error(f"cannot load campaign spec: {exc}")
    if args.resume and not _campaign_store(args).cache_dir.exists():
        raise _usage_error(
            f"--resume: no cache under {args.campaign_dir}; nothing to resume"
        )
    try:
        run = run_campaign(
            campaign,
            workers=args.workers,
            base_dir=args.campaign_dir,
            timeout_s=args.timeout,
            fresh=args.fresh,
            progress=not args.quiet,
        )
    except ValueError as exc:
        raise _usage_error(str(exc))
    telemetry = run.manifest["telemetry"]
    print(
        f"campaign {run.name}: {run.ok}/{len(run.results)} ok "
        f"({run.cached} cached, {telemetry['error']} error, "
        f"{telemetry['timeout']} timeout) in {telemetry['wall_s']}s"
    )
    print(f"results: {run.results_path}")
    print(f"manifest: {run.manifest_path}")
    for result in run.results:
        if result.status != "ok":
            first = (result.error or result.status).splitlines()[0]
            print(f"  FAILED #{result.index} [{result.status}] {first}")
    return 0 if run.failed == 0 else 1


def cmd_faults(args: argparse.Namespace) -> int:
    """Run the fault-injection sweep and print its degradation table.

    Exit 1 when a trial crashed or a resilience-layer cell (conservative
    or fault-reroute) overflowed a queue -- those algorithms are the ones
    the sweep certifies as safe; the always-accept organizations are
    *expected* to overflow at low availability, so their violations are
    reported but not fatal.
    """
    from repro.harness import CampaignSpec, run_campaign

    spec_path = args.spec or (
        "benchmarks/specs/faults_smoke.json"
        if args.smoke
        else "benchmarks/specs/faults_sweep.json"
    )
    try:
        campaign = CampaignSpec.from_file(spec_path)
    except (OSError, ValueError) as exc:
        raise _usage_error(f"cannot load faults spec: {exc}")
    run = run_campaign(
        campaign,
        workers=args.workers,
        base_dir=args.campaign_dir,
        fresh=args.fresh,
        progress=not args.quiet,
    )

    safe_algorithms = ("conservative-bounded-dor", "fault-reroute")
    print(
        f"{'cell':<46} {'avail':>5} {'deliv':>6} {'p50':>5} {'p99':>5} "
        f"{'maxq':>4} {'drop':>5} {'rtx':>4} overflow"
    )
    failures = 0
    safety_violations = 0
    for result in run.results:
        spec = result.spec
        if result.status != "ok" or result.metrics is None:
            first = (result.error or result.status).splitlines()[0]
            print(f"  FAILED #{result.index} [{result.status}] {first}")
            failures += 1
            continue
        m = result.metrics
        name = m.get("algorithm_name", spec.algorithm)
        label = spec.label or f"{name}/n{spec.n}/k{spec.k}/s{spec.seed}"
        overflows = m.get("queue_bound_violations", 0)
        p50, p99 = m.get("latency_p50"), m.get("latency_p99")
        print(
            f"{label:<46} {spec.availability:>5.2f} "
            f"{m.get('delivered_fraction', 0.0):>6.3f} "
            f"{'-' if p50 is None else p50:>5} {'-' if p99 is None else p99:>5} "
            f"{m.get('max_queue_len', 0):>4} {m.get('dropped_packets', 0):>5} "
            f"{m.get('retransmissions', 0):>4} "
            f"{'YES (' + str(overflows) + ')' if overflows else 'no'}"
        )
        if overflows and name in safe_algorithms:
            safety_violations += 1
            print(f"  SAFETY: {name} must never overflow, but did ({label})")
    verdict = "PASS" if not failures and not safety_violations else "FAIL"
    print(
        f"faults {verdict}: {len(run.results)} cells, {failures} failed, "
        f"{safety_violations} safety violation(s)"
    )
    return 0 if verdict == "PASS" else 1


def cmd_stream(args: argparse.Namespace) -> int:
    """Run the saturation-sweep campaign and print the knee table.

    Groups the campaign's ``streaming`` cells by (algorithm, n, arrival
    process), orders each group by nominal rate, and reports the knee --
    the first rate whose delivered rate falls below 95% of the offered
    rate.  Wedged cells (overload exchange-deadlock) are findings, not
    failures; exit 1 is reserved for crashed trials and conservation
    violations (a rejected-packet accounting bug would show up there).
    """
    from repro.harness import CampaignSpec, run_campaign
    from repro.streaming import SweepPoint, SweepResult

    spec_path = args.spec or (
        "benchmarks/specs/streaming_smoke.json"
        if args.smoke
        else "benchmarks/specs/streaming_sweep.json"
    )
    try:
        campaign = CampaignSpec.from_file(spec_path)
    except (OSError, ValueError) as exc:
        raise _usage_error(f"cannot load streaming spec: {exc}")
    run = run_campaign(
        campaign,
        workers=args.workers,
        base_dir=args.campaign_dir,
        fresh=args.fresh,
        progress=not args.quiet,
    )

    groups: dict[tuple[str, int, str], SweepResult] = {}
    failures = 0
    conservation = 0
    for result in run.results:
        spec = result.spec
        if result.status != "ok" or result.metrics is None:
            first = (result.error or result.status).splitlines()[0]
            print(f"  FAILED #{result.index} [{result.status}] {first}")
            failures += 1
            continue
        key = (spec.algorithm, spec.n, spec.arrival)
        group = groups.get(key)
        if group is None:
            groups[key] = group = SweepResult(
                algorithm=spec.algorithm, n=spec.n, process=spec.arrival
            )
        group.points.append(SweepPoint(rate=spec.rate, metrics=result.metrics))
        conservation += result.metrics.get("conservation_violations", 0)

    print(
        f"{'cell':<34} {'rate':>5} {'offer':>6} {'deliv':>6} {'rej':>6} "
        f"{'p50':>5} {'p99':>5} {'outcome':>8} knee"
    )
    for (algorithm, n, process), group in groups.items():
        group.points.sort(key=lambda point: point.rate)
        knee = group.saturation_rate()
        knee_text = f"{knee:g}" if knee is not None else "-"
        for point in group.points:
            m = point.metrics
            outcome = (
                "wedged" if m.get("stalled")
                else "drained" if m.get("drained")
                else "slow"
            )
            p50, p99 = m.get("latency_p50"), m.get("latency_p99")
            print(
                f"{algorithm + '/n' + str(n) + '/' + process:<34} "
                f"{point.rate:>5g} {m['offered_rate']:>6.3f} "
                f"{m['delivered_rate']:>6.3f} {m['rejection_fraction']:>6.1%} "
                f"{'-' if p50 is None else p50:>5} "
                f"{'-' if p99 is None else p99:>5} {outcome:>8} {knee_text}"
            )
    if conservation:
        print(f"  CONSERVATION: {conservation} violation(s) across cells")
    verdict = "PASS" if not failures and not conservation else "FAIL"
    print(
        f"stream {verdict}: {len(run.results)} cells in {len(groups)} sweeps, "
        f"{failures} failed, {conservation} conservation violation(s)"
    )
    return 0 if verdict == "PASS" else 1


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.analysis.campaigns import summarize_manifest

    store = _campaign_store(args)
    try:
        manifest = store.read_manifest(_campaign_name(args))
    except (FileNotFoundError, ValueError) as exc:
        raise _usage_error(str(exc))
    print(summarize_manifest(manifest))
    return 0


def cmd_campaign_show(args: argparse.Namespace) -> int:
    from repro.analysis.campaigns import summarize_rows

    store = _campaign_store(args)
    try:
        rows = store.read_results(_campaign_name(args))
    except (FileNotFoundError, ValueError) as exc:
        raise _usage_error(str(exc))
    print(summarize_rows(rows))
    return 0


def _repo_root(args: argparse.Namespace) -> "object":
    import pathlib

    if args.root is not None:
        return pathlib.Path(args.root)
    import repro

    # src/repro/__init__.py -> src/repro -> src -> repo root.
    return pathlib.Path(repro.__file__).resolve().parents[2]


def _analyze_cdg(args: argparse.Namespace) -> int:
    from repro.analysis.static_check import (
        analyze_registry,
        check_agreement_detailed,
    )
    from repro.analysis.static_check.cdg import CYCLIC, SEVERITY_ERROR, TOPOLOGIES

    topologies = tuple(args.topologies) if args.topologies else TOPOLOGIES
    if args.format == "markdown":
        from repro.analysis.static_check import render_markdown, verdict_matrix

        try:
            matrix = verdict_matrix(
                n=args.n[0], k=args.k[0],
                topologies=topologies, routers=args.routers or None,
            )
        except ValueError as exc:
            raise _usage_error(str(exc))
        print(render_markdown(matrix, topologies=topologies))
        return 0
    try:
        verdicts = analyze_registry(
            ns=tuple(args.n), ks=tuple(args.k),
            topologies=topologies, routers=args.routers or None,
        )
    except ValueError as exc:
        raise _usage_error(str(exc))
    if args.json or args.format == "json":
        import json

        print(json.dumps([v.to_dict() for v in verdicts], indent=2))
    else:
        for v in verdicts:
            line = (
                f"{v.router:<22} {v.topology:<5} n={v.n:<3} k={v.k} "
                f"{v.verdict:<14} channels={v.channels} edges={v.edges}"
            )
            if v.verdict == CYCLIC:
                line += "  witness: " + " -> ".join(str(c) for c in v.witness)
            print(line)
    detailed = check_agreement_detailed(verdicts)
    findings = [f.message for f in detailed if f.severity == SEVERITY_ERROR]
    for finding in findings:
        print(f"DISAGREEMENT: {finding}")
    for advisory in (f for f in detailed if f.severity != SEVERITY_ERROR):
        print(f"ADVISORY: {advisory.message}")
    verdict = "PASS" if not findings else "FAIL"
    print(
        f"analyze cdg {verdict}: {len(verdicts)} verdicts, "
        f"{len(findings)} disagreement(s) with the runtime expectation table"
    )
    return 0 if not findings else 1


def _analyze_bounds(args: argparse.Namespace) -> int:
    from repro.analysis.static_check import certify_registry, check_bounds_agreement
    from repro.analysis.static_check.bounds import UNBOUNDED
    from repro.analysis.static_check.cdg import TOPOLOGIES

    topologies = tuple(args.topologies) if args.topologies else TOPOLOGIES
    try:
        verdicts = certify_registry(
            ns=tuple(args.n), ks=tuple(args.k),
            topologies=topologies, routers=args.routers or None,
        )
    except ValueError as exc:
        raise _usage_error(str(exc))
    if args.json or args.format == "json":
        import json

        print(json.dumps([v.to_dict() for v in verdicts], indent=2))
    else:
        for v in verdicts:
            line = (
                f"{v.router:<22} {v.topology:<5} n={v.n:<3} k={v.k} "
                f"{v.describe():<26} channels={v.channels}"
            )
            if v.verdict == UNBOUNDED:
                line += "  witness: " + " ; ".join(str(s) for s in v.witness)
            print(line)
    findings = check_bounds_agreement(verdicts, n=min(args.n), ks=tuple(args.k))
    for finding in findings:
        print(f"DISAGREEMENT: {finding}")
    verdict = "PASS" if not findings else "FAIL"
    print(
        f"analyze bounds {verdict}: {len(verdicts)} verdicts, "
        f"{len(findings)} disagreement(s) with the runtime QueueBoundOracle"
    )
    return 0 if not findings else 1


def _analyze_lint(args: argparse.Namespace) -> int:
    from repro.analysis.static_check import (
        diff_against_baseline,
        run_lint,
        save_baseline,
    )

    root = _repo_root(args)
    try:
        violations = run_lint(root)
    except ValueError as exc:
        raise _usage_error(str(exc))
    if args.update_baseline:
        path = save_baseline(violations)
        print(f"analyze lint: baseline updated ({len(violations)} entries) at {path}")
        return 0
    new, fixed = diff_against_baseline(violations)
    for violation in new:
        print(f"NEW: {violation}")
    for rule, path, code in fixed:
        print(f"fixed (prune from baseline): {rule} {path}: {code}")
    verdict = "PASS" if not new else "FAIL"
    print(
        f"analyze lint {verdict}: {len(violations)} violation(s), "
        f"{len(new)} new, {len(fixed)} baseline entries fixed"
    )
    return 0 if not new else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.engine != "lint" and args.update_baseline:
        raise _usage_error("--update-baseline only applies to 'analyze lint'")
    if args.format == "markdown" and args.engine != "cdg":
        raise _usage_error(
            "--format markdown only applies to 'analyze cdg' (the verdict "
            "table already pairs each CDG verdict with its queue bound)"
        )
    rc = 0
    if args.engine in ("cdg", "all"):
        rc = max(rc, _analyze_cdg(args))
    if args.engine in ("bounds", "all"):
        rc = max(rc, _analyze_bounds(args))
    if args.engine in ("lint", "all"):
        rc = max(rc, _analyze_lint(args))
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Chinn-Leighton-Tompa (SPAA 1994) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("route", help="route one workload")
    p.add_argument("--algorithm", choices=ROUTE_ALGORITHMS, default="bounded-dor")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--k", type=int, default=2)
    p.add_argument(
        "--queues",
        choices=["central", "incoming"],
        default="central",
        help="queue regime of the routers that offer both, as in a route trial",
    )
    p.add_argument("--delta", type=int, default=1)
    p.add_argument(
        "--availability",
        type=float,
        default=1.0,
        help="per-link per-step up probability (< 1.0 simulates asynchrony)",
    )
    p.add_argument(
        "--workload",
        default="random",
        help=f"one of {', '.join(WORKLOADS)} (checked with the other arguments)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--torus", action="store_true")
    p.add_argument(
        "--topology",
        choices=TOPOLOGY_CHOICES,
        default="",
        help="route on a named topology (mesh3d/torus3d/pillar need a "
        "d-dimensional router); mutually exclusive with --torus",
    )
    p.add_argument(
        "--max-steps",
        type=int,
        default=1_000_000,
        help="step budget; a fault-free run (--availability 1.0) also "
        "stops, STALLED, after 16 consecutive steps without a move",
    )
    p.add_argument(
        "--engine",
        choices=["reference", "array"],
        default="reference",
        help="step engine: the per-packet reference simulator or the "
        "vectorized array backend (ported routers on --torus or the 2D "
        "mesh only; anything else is a usage error)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile; print per-phase wall times and hot spots",
    )
    p.add_argument(
        "--profile-limit",
        type=int,
        default=20,
        help="rows in the --profile hot-spot table",
    )
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("lower-bound", help="run an adversarial construction")
    p.add_argument("--construction", choices=CONSTRUCTIONS, default="adaptive")
    p.add_argument("--n", type=int, default=120)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--check-invariants", action="store_true")
    p.add_argument("--no-completion", action="store_true")
    p.add_argument("--max-steps", type=int, default=2_000_000)
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("section6", help="run the O(n) minimal adaptive algorithm")
    p.add_argument("--n", type=int, default=81)
    p.add_argument(
        "--workload",
        default="random",
        help=f"one of {', '.join(WORKLOADS)} (checked with the other arguments)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--improved", action="store_true")
    p.set_defaults(func=cmd_section6)

    p = sub.add_parser("bounds", help="print every closed-form bound")
    p.add_argument("--n", type=int, default=216)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "verify",
        help="cross-check all routers against the paper's invariant oracles",
    )
    p.add_argument(
        "--smoke", action="store_true", help="small preset: n=8, k in {1,2}, seed 0"
    )
    p.add_argument(
        "--families",
        nargs="+",
        metavar="FAMILY",
        help="workload families (default: permutation hh torus)",
    )
    p.add_argument("--n", type=int, nargs="+", help="mesh side lengths")
    p.add_argument("--k", type=int, nargs="+", help="queue capacities")
    p.add_argument("--seeds", type=int, help="number of seeds (0..seeds-1)")
    p.add_argument("--routers", nargs="+", help="subset of registered routers")
    p.add_argument(
        "--mode",
        choices=["strict", "record"],
        default="strict",
        help="strict aborts a run at its first violation; record collects all",
    )
    p.add_argument(
        "--no-metamorphic", action="store_true", help="skip transpose/reflect images"
    )
    p.add_argument(
        "--no-probes", action="store_true", help="skip the EX-swap and Section 6 probes"
    )
    p.add_argument(
        "--engines",
        action="store_true",
        help="lockstep array-vs-reference engine equivalence matrix instead "
        "of the differential sweep (compares every step's configuration; "
        "--routers/--families/--n/--k/--seeds narrow the grid)",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="with --engines: cap every lockstep cell at this many steps "
        "(a bounded prefix is a sound gate since every step is compared; "
        "default runs each cell to its own step budget)",
    )
    p.add_argument("--quiet", action="store_true", help="no per-cell progress on stderr")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("campaign", help="run/inspect experiment campaigns")
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    pr = campaign_sub.add_parser("run", help="run a campaign spec")
    pr.add_argument("spec", help="path to a campaign spec JSON file")
    pr.add_argument("--workers", type=int, default=1, help="worker processes")
    pr.add_argument("--timeout", type=float, default=None, help="per-trial seconds")
    pr.add_argument(
        "--campaign-dir", default="campaigns", help="result store root (default: campaigns)"
    )
    pr.add_argument(
        "--fresh", action="store_true", help="ignore cached results and re-run everything"
    )
    pr.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted campaign (requires an existing cache)",
    )
    pr.add_argument("--quiet", action="store_true", help="no per-trial progress on stderr")
    pr.set_defaults(func=cmd_campaign_run)

    ps = campaign_sub.add_parser("status", help="show a campaign's manifest")
    ps.add_argument("campaign", help="campaign name or spec path")
    ps.add_argument("--campaign-dir", default="campaigns")
    ps.set_defaults(func=cmd_campaign_status)

    pw = campaign_sub.add_parser("show", help="print a campaign's result table")
    pw.add_argument("campaign", help="campaign name or spec path")
    pw.add_argument("--campaign-dir", default="campaigns")
    pw.set_defaults(func=cmd_campaign_show)

    p = sub.add_parser(
        "faults",
        help="fault-injection availability sweep with degradation metrics",
    )
    p.add_argument(
        "--smoke", action="store_true", help="small n=8 sweep (the CI job)"
    )
    p.add_argument(
        "--spec", default=None, help="explicit faults campaign spec (overrides --smoke)"
    )
    p.add_argument("--workers", type=int, default=1, help="worker processes")
    p.add_argument(
        "--fresh", action="store_true", help="ignore cached results and re-run everything"
    )
    p.add_argument("--campaign-dir", default="campaigns")
    p.add_argument("--quiet", action="store_true", help="no per-trial progress on stderr")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "stream",
        help="open-loop saturation sweep with knee detection",
    )
    p.add_argument(
        "--smoke", action="store_true", help="small n=8 rate ladder (the CI job)"
    )
    p.add_argument(
        "--spec", default=None, help="explicit streaming campaign spec (overrides --smoke)"
    )
    p.add_argument("--workers", type=int, default=1, help="worker processes")
    p.add_argument(
        "--fresh", action="store_true", help="ignore cached results and re-run everything"
    )
    p.add_argument("--campaign-dir", default="campaigns")
    p.add_argument("--quiet", action="store_true", help="no per-trial progress on stderr")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser(
        "analyze",
        help="static deadlock (CDG), queue-bound (bounds) & lint analysis",
    )
    p.add_argument(
        "engine",
        choices=["cdg", "bounds", "lint", "all"],
        help="cdg: channel-dependency-graph deadlock verdicts; "
        "bounds: static queue-bound certifier vs the runtime oracle; "
        "lint: AST reproducibility lint; all: every engine",
    )
    p.add_argument("--n", type=int, nargs="+", default=[4], help="side lengths")
    p.add_argument(
        "--k", type=int, nargs="+", default=[1, 2, 4], help="queue capacities"
    )
    p.add_argument(
        "--topologies",
        nargs="+",
        choices=TOPOLOGY_CHOICES,
        help="topology subset",
    )
    p.add_argument("--routers", nargs="+", help="subset of registered routers")
    p.add_argument("--json", action="store_true", help="CDG verdicts as JSON")
    p.add_argument(
        "--format",
        choices=["text", "json", "markdown"],
        default="text",
        help="markdown (cdg engine only) emits the docs/TOPOLOGY.md verdict "
        "table at the first --n and --k; json is equivalent to --json",
    )
    p.add_argument(
        "--root", default=None, help="repo root to lint (default: autodetect)"
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the lint baseline with the current findings",
    )
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
