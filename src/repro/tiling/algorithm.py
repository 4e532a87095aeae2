"""The full Section 6 algorithm: orchestration across classes, iterations,
tilings, and phases (Theorem 34).

Runs the four direction classes (NE, NW, SE, SW) sequentially, each in a
mirrored canonical space where all movement is north/east.  Per iteration
``j`` the tile side shrinks from ``n`` by factors of 3; each iteration runs
the Vertical Phase over every tiling (one tiling at j = 0, else the three
staggered tilings of Lemma 19), then the Horizontal Phase likewise.  Below
tile side 27 the farthest-first dimension-order base case finishes.

Two clocks are kept:

- ``scheduled_steps``: the barrier schedule of the paper, where every node
  waits out each phase's worst-case duration (Lemmas 29-32).  This is the
  O(n) *guarantee* and is what Theorem 34's ``972 n`` bounds.
- ``actual_steps``: synchronous steps in which at least one packet could
  still move -- what an implementation with completion detection would take.

Every lemma bound is enforced at runtime: exceeding a phase budget,
breaking minimality, or entering the base case too far from the
destination raises :class:`~repro.tiling.state.Section6Violation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.bounds import section6_improved_time_bound, section6_time_bound
from repro.mesh.packet import Packet
from repro.tiling.axes import Axes
from repro.tiling.base_case import BASE_CASE_BOUND, run_base_case
from repro.tiling.geometry import BASE_THRESHOLD, Tile, tilings_for_side
from repro.tiling.phases import (
    Q_REFUSAL,
    collect_actives,
    run_balancing,
    run_march,
    run_sort_and_smooth,
)
from repro.tiling.state import ClassState, Occupancy, Section6Violation

#: (name, mirror_x, mirror_y) for the four direction classes.
DIRECTION_CLASSES = (
    ("NE", False, False),
    ("NW", True, False),
    ("SE", False, True),
    ("SW", True, True),
)


@dataclass
class PhaseStats:
    """Instrumentation for one subphase (one tiling, one orientation)."""

    direction: str
    iteration: int
    tiling_index: int
    vertical: bool
    tile_side: int
    active_packets: int
    march_steps: int
    sort_smooth_steps: int
    balancing_steps: int
    scheduled_steps: int

    @property
    def actual_steps(self) -> int:
        return self.march_steps + self.sort_smooth_steps + self.balancing_steps


@dataclass
class Section6Result:
    """Outcome of one Section 6 run."""

    n: int
    total_packets: int
    delivered: int
    completed: bool
    actual_steps: int
    scheduled_steps: int
    paper_time_bound: int  # 972 n (Theorem 34); 564 n when improved
    max_node_load: int
    paper_queue_bound: int  # 834 (Lemma 28)
    base_case_steps: dict[str, int] = field(default_factory=dict)
    phases: list[PhaseStats] = field(default_factory=list, repr=False)


class Section6Router:
    """O(n)-time, O(1)-queue minimal adaptive router (Section 6).

    Args:
        n: Mesh side; must be a power of 3 with ``n >= 27``.
        q: The March refusal threshold (Lemma 21's ``q``; 408 in the main
            analysis).
        improved: Use the paper's closing improvement -- ``q = 102`` for
            iterations ``j >= 1``, where active packets are within 9 strips
            of their destinations (time bound 564n, queue bound 222 there).
        record_phases: Keep per-subphase instrumentation.
    """

    def __init__(
        self,
        n: int,
        *,
        q: int = Q_REFUSAL,
        improved: bool = False,
        record_phases: bool = True,
    ) -> None:
        side = n
        while side > BASE_THRESHOLD and side % 3 == 0:
            side //= 3
        if side != BASE_THRESHOLD:
            raise ValueError(
                f"n must be a power of 3 with n >= 27, got {n}"
            )
        self.n = n
        self.q = q
        self.improved = improved
        self.record_phases = record_phases

    def route(self, packets: Sequence[Packet]) -> Section6Result:
        """Route a (partial) permutation; returns timing and queue stats."""
        occupancy = Occupancy()
        live = []
        for p in packets:
            if p.source != p.dest:
                p.pos = p.source
                occupancy.add(p.source)
                live.append(p)

        result = Section6Result(
            n=self.n,
            total_packets=len(list(packets)),
            delivered=len(list(packets)) - len(live),
            completed=False,
            actual_steps=0,
            scheduled_steps=0,
            paper_time_bound=(
                section6_improved_time_bound(self.n)
                if self.improved
                else section6_time_bound(self.n)
            ),
            max_node_load=occupancy.max_load,
            paper_queue_bound=2 * Q_REFUSAL + 18,
        )

        by_class: dict[str, list[Packet]] = {name: [] for name, _, _ in DIRECTION_CLASSES}
        for p in live:
            dx = p.dest[0] - p.source[0]
            dy = p.dest[1] - p.source[1]
            if dx >= 0 and dy >= 0:
                by_class["NE"].append(p)
            elif dx < 0 and dy >= 0:
                by_class["NW"].append(p)
            elif dx >= 0:
                by_class["SE"].append(p)
            else:
                by_class["SW"].append(p)

        for name, mx, my in DIRECTION_CLASSES:
            cls_packets = by_class[name]
            state = ClassState(self.n, mx, my, cls_packets, occupancy)
            self._route_class(name, state, result)
            if state.undelivered:
                raise Section6Violation(
                    f"class {name}: {state.undelivered} packets undelivered "
                    "after the base case"
                )
            for p in cls_packets:
                p.pos = p.dest
            result.delivered += len(cls_packets)

        result.completed = True
        result.max_node_load = occupancy.max_load
        return result

    # -- internals ------------------------------------------------------------

    def _route_class(self, name: str, state: ClassState, result: Section6Result) -> None:
        side = self.n
        iteration = 0
        while side >= BASE_THRESHOLD:
            q = self.q
            if self.improved and iteration >= 1:
                q = 17 * (9 - 3)  # packets are within 9 strips (paper, end of S6)
            tilings = tilings_for_side(self.n, side)
            for vertical in (True, False):
                axes = Axes(vertical)
                for t_index, tiles in enumerate(tilings):
                    stats = self._run_subphase(
                        name, state, tiles, axes, iteration, t_index, q
                    )
                    result.actual_steps += stats.actual_steps
                    result.scheduled_steps += stats.scheduled_steps
                    if self.record_phases:
                        result.phases.append(stats)
            side //= 3
            iteration += 1

        steps = run_base_case(state)
        result.base_case_steps[name] = steps
        result.actual_steps += steps
        result.scheduled_steps += BASE_CASE_BOUND

    def _run_subphase(
        self,
        name: str,
        state: ClassState,
        tiles: list[Tile],
        axes: Axes,
        iteration: int,
        t_index: int,
        q: int,
    ) -> PhaseStats:
        d = tiles[0].strip_height
        s = tiles[0].side
        march_max = ss_max = bal_max = 0
        total_actives = 0
        for tile in tiles:
            actives = collect_actives(state, tile, axes)
            if not actives:
                continue
            total_actives += len(actives)
            march = run_march(state, tile, axes, actives, q)
            ss_even = run_sort_and_smooth(state, tile, axes, actives, 0, q)
            ss_odd = run_sort_and_smooth(state, tile, axes, actives, 1, q)
            bal = run_balancing(state, tile, axes, actives)
            march_max = max(march_max, march)
            ss_max = max(ss_max, ss_even + ss_odd)
            bal_max = max(bal_max, bal)
        scheduled = (q * d - 1) + 2 * ((d - 1) + q * d) + max(3 * s - 4, 0)
        return PhaseStats(
            direction=name,
            iteration=iteration,
            tiling_index=t_index,
            vertical=axes.vertical,
            tile_side=s,
            active_packets=total_actives,
            march_steps=march_max,
            sort_smooth_steps=ss_max,
            balancing_steps=bal_max,
            scheduled_steps=scheduled,
        )
