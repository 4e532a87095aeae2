"""Static deadlock, queue-bound & determinism analysis (``docs/ANALYSIS.md``).

Three engines, wired into ``python -m repro analyze [cdg|bounds|lint|all]``:

- :mod:`repro.analysis.static_check.cdg` -- builds the channel-dependency
  graph of every registered router on every registered topology (2D
  mesh/torus, the d-dimensional grids, the irregular pillar mesh) from
  its symbolic :class:`~repro.mesh.transitions.TransitionModel`, runs
  cycle detection, and emits a ``DEADLOCK_FREE`` / ``CYCLIC`` /
  ``UNKNOWN`` verdict per (router, topology, n, k), cross-checked
  bidirectionally against the differential runner's deadlock
  expectation table.
- :mod:`repro.analysis.static_check.bounds` -- the static queue-bound
  certifier: abstract interpretation over the same transition models
  computes a fixed-point occupancy bound per queue and issues
  ``BOUNDED(b)`` / ``UNBOUNDED`` / ``UNKNOWN`` verdicts with concrete
  witness chains, cross-checked in both directions against the runtime
  ``QueueBoundOracle`` over the differential registry's cells.
- :mod:`repro.analysis.static_check.lint` -- an AST lint pass enforcing the
  simulator's reproducibility contract (no unseeded RNG, no wall clock in
  step logic, no bare asserts, no unordered-set iteration) plus the
  array-kernel hazard rules SC006-SC008 (aliasing mutation, unstable
  sorts, implicit dtypes).  Pre-existing
  violations live in a checked-in baseline
  (:mod:`repro.analysis.static_check.baseline`).
"""

from repro.analysis.static_check.cdg import (
    CYCLIC,
    DEADLOCK_FREE,
    UNKNOWN,
    AgreementFinding,
    CdgVerdict,
    Channel,
    analyze_registry,
    analyze_router,
    build_cdg,
    check_agreement,
    check_agreement_detailed,
    find_witness_cycle,
    tarjan_scc,
)
from repro.analysis.static_check.bounds import (
    BOUNDED,
    UNBOUNDED,
    BoundsVerdict,
    TransitionStep,
    certify_algorithm,
    certify_registry,
    certify_router,
    check_bounds_agreement,
    compute_channel_bounds,
    validate_drain_claims,
)
from repro.analysis.static_check.report import (
    render_markdown,
    verdict_matrix,
    verdict_table_markdown,
)
from repro.analysis.static_check.lint import LintViolation, run_lint, lint_source, RULES
from repro.analysis.static_check.baseline import (
    baseline_path,
    diff_against_baseline,
    load_baseline,
    save_baseline,
)

__all__ = [
    "CYCLIC",
    "DEADLOCK_FREE",
    "UNKNOWN",
    "AgreementFinding",
    "CdgVerdict",
    "Channel",
    "analyze_registry",
    "analyze_router",
    "build_cdg",
    "check_agreement",
    "check_agreement_detailed",
    "find_witness_cycle",
    "tarjan_scc",
    "BOUNDED",
    "UNBOUNDED",
    "BoundsVerdict",
    "TransitionStep",
    "certify_algorithm",
    "certify_registry",
    "certify_router",
    "check_bounds_agreement",
    "compute_channel_bounds",
    "validate_drain_claims",
    "render_markdown",
    "verdict_matrix",
    "verdict_table_markdown",
    "LintViolation",
    "RULES",
    "run_lint",
    "lint_source",
    "baseline_path",
    "diff_against_baseline",
    "load_baseline",
    "save_baseline",
]
