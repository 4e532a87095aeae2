"""Deterministic fault plans: link and node failures as pure functions.

The paper's closing open problem asks for algorithms that extend "to the
asynchronous and dynamic settings".  This module supplies the *dynamic*
half of the environment: a :class:`FaultPlan` answers, for any link or
node and any step, whether it is up -- and it answers as a **pure
function of (seed, entity, time)**.

That purity is the whole design.  The previous asynchrony stub drew link
states from one shared sequential RNG, so a link's availability depended
on how many *other* moves had been evaluated first: querying the same
link twice in a step could disagree, and the reference and array
engines could in principle observe different networks.  Here every draw is a counter-based hash of
``(seed, src, direction, time)`` (splitmix64 finalizer), so:

- the same link queried twice in a step always agrees;
- query *order* is irrelevant -- runs are bit-identical across worker
  counts and across step engines;
- any (link, step) state can be recomputed in isolation (replay, tests).

Three plan families are provided:

- :class:`BernoulliLinkPlan` -- each link is independently up each step
  with probability ``availability`` (the i.i.d. model of the stub).
- :class:`ScheduledOutagePlan` -- explicit outage windows for named
  links and nodes (reproducible "this link dies at step 100" scripts).
- :class:`RenewalOutagePlan` -- MTTF/MTTR-style alternating up/down
  windows per entity, with exponential-ish window lengths unfolded
  deterministically from the seed.

Plans compose with :class:`CompositeFaultPlan` (an entity is up only if
every constituent plan says so) and attach to a simulator with
:meth:`FaultPlan.attach`.  On the reference engine that installs a
scalar ``link_filter`` closure; on the array engine the plan is queried
through the vectorized ``link_up_array``/``node_up_array`` methods,
which evaluate the *same* pure counter-hash draws batch-wise -- both
paths also fail every link into or out of a down *node*, and stay
byte-identical to each other.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.mesh.directions import Direction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.mesh.simulator import Simulator
    from repro.mesh.topology import Topology

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_U64 = np.uint64(_GOLDEN)

#: Entries (8 bytes each) a link-prefix table may hold: every link of a
#: 1024 x 1024 grid.
_MAX_PREFIX = 1 << 22


def _mix(h: int) -> int:
    """The splitmix64 finalizer: a high-quality 64-bit avalanche."""
    h &= _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix_u64(h: np.ndarray) -> np.ndarray:
    """:func:`_mix` over uint64 arrays (wrapping arithmetic is mod 2**64).

    Mixes ``h`` in place: :func:`_chain` passes the fresh ``h ^ counter``
    (a scalar is simply rebound)."""
    h ^= h >> _S30
    h *= _M1
    h ^= h >> _S27
    h *= _M2
    h ^= h >> _S31
    return h


def counter_draw(seed: int, *counters: int) -> float:
    """A uniform draw in [0, 1) as a pure function of its arguments.

    Unlike a sequential RNG there is no hidden stream position: equal
    arguments give equal draws regardless of how many other draws
    happened in between.  The 53 high bits feed the mantissa, matching
    the resolution of ``random.random``.
    """
    h = _mix(seed ^ _GOLDEN)
    for c in counters:
        h = _mix(h ^ ((c + _GOLDEN) & _MASK64))
    return (h >> 11) / float(1 << 53)


def _counter_u64(c: int | np.ndarray) -> np.ndarray:
    """``(c + _GOLDEN) & _MASK64`` of one counter as uint64."""
    if isinstance(c, np.ndarray):
        # int64 -> uint64 wraps negatives mod 2**64, like the masked int.
        return c.astype(np.uint64) + _GOLDEN_U64
    return np.uint64((int(c) + _GOLDEN) & _MASK64)


def _chain(h: np.ndarray, counters: tuple[int | np.ndarray, ...]) -> np.ndarray:
    """Mix ``counters`` into the uint64 chain state ``h``, one by one."""
    with np.errstate(over="ignore"):
        for c in counters:
            h = _mix_u64(h ^ _counter_u64(c))
    return h


def counter_prefix_array(seed: int, *counters: int | np.ndarray) -> np.ndarray:
    """The uint64 chain state of ``counter_draw(seed, *counters, ...)`` after
    its leading ``counters``: a prefix for :func:`counter_continue_array`.

    The chain mixes one counter at a time, so the state after the counters
    that do not change from step to step (an entity's coordinates) can be
    kept in a table and continued with only the ones that do (the time).
    """
    return _chain(np.uint64(_mix(seed ^ _GOLDEN)), counters)


def counter_continue_array(prefix: np.ndarray, *counters: int | np.ndarray) -> np.ndarray:
    """Continue the chain states ``prefix`` with ``counters`` and draw:
    ``counter_continue_array(counter_prefix_array(seed, *head), *tail)``
    equals ``counter_draw_array(seed, *head, *tail)`` bit for bit.
    ``(h >> 11) / 2**53`` is exact in float64."""
    h = _chain(prefix, counters)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def counter_draw_array(seed: int, *counters: int | np.ndarray) -> np.ndarray:
    """Vectorized :func:`counter_draw`: bit-identical draws for whole arrays.

    Each counter is an int or an integer array (arrays broadcast against
    each other); element ``i`` equals ``counter_draw(seed, ...)`` with the
    arrays' ``i``-th entries exactly.  uint64 arithmetic wraps mod 2**64
    like the masked Python-int path.
    """
    return counter_continue_array(counter_prefix_array(seed), *counters)


def link_draw(
    seed: int, src: tuple[int, int], direction: Direction, time: int
) -> float:
    """The canonical per-``(seed, link, time)`` uniform draw."""
    return counter_draw(seed, src[0], src[1], int(direction), time)


class FaultPlan:
    """Base class: everything is up.  Subclasses override either query.

    Both queries must be pure functions of their arguments (given the
    plan's construction parameters); the simulator and the resilience
    layer are allowed to call them any number of times in any order.
    """

    def link_up(self, src: tuple[int, int], direction: Direction, time: int) -> bool:
        """Is the outlink of ``src`` in ``direction`` up during ``time``?"""
        return True

    def node_up(self, node: tuple[int, int], time: int) -> bool:
        """Is ``node`` up during step ``time``?  A down node fails every
        link into and out of it; resident packets are dropped by the
        resilience layer (see :mod:`repro.faults.resilience`)."""
        return True

    @property
    def has_node_faults(self) -> bool:
        """False when :meth:`node_up` is always True, so the array engine
        may skip its node queries.  The default is True whenever a
        subclass overrides :meth:`node_up`."""
        return type(self).node_up is not FaultPlan.node_up

    def link_up_array(
        self, xs: np.ndarray, ys: np.ndarray, dirs: np.ndarray, time: int
    ) -> np.ndarray:
        """Vectorized :meth:`link_up` over parallel coordinate arrays.

        The default answers element-wise through the scalar query, so
        any plan is automatically correct on the array engine; plans
        with a closed form (Bernoulli) override this with a batched
        computation that is bit-identical to the scalar path.
        """
        if type(self).link_up is FaultPlan.link_up:
            return np.ones(len(xs), dtype=bool)
        return np.fromiter(
            (
                self.link_up((x, y), Direction(d), time)
                for x, y, d in zip(xs.tolist(), ys.tolist(), dirs.tolist())
            ),
            dtype=bool,
            count=len(xs),
        )

    def node_up_array(
        self, xs: np.ndarray, ys: np.ndarray, time: int
    ) -> np.ndarray:
        """Vectorized :meth:`node_up` over parallel coordinate arrays."""
        if type(self).node_up is FaultPlan.node_up:
            return np.ones(len(xs), dtype=bool)
        return np.fromiter(
            (self.node_up((x, y), time) for x, y in zip(xs.tolist(), ys.tolist())),
            dtype=bool,
            count=len(xs),
        )

    def as_link_filter(
        self, topology: "Topology"
    ) -> Callable[[tuple[int, int], Direction, int], bool]:
        """The scalar link filter this plan induces on ``topology``.

        The filter fails a scheduled move when the link itself is down,
        or when either endpoint node is down -- so node failures need no
        simulator support beyond the existing link hook.
        """
        neighbor = topology.neighbor

        def link_filter(
            src: tuple[int, int], direction: Direction, time: int
        ) -> bool:
            if not self.link_up(src, direction, time):
                return False
            if not self.node_up(src, time):
                return False
            target = neighbor(src, direction)
            return target is None or self.node_up(target, time)

        return link_filter

    def attach(self, sim: "Simulator") -> "Simulator":
        """Install this plan on ``sim`` and return ``sim``.

        The reference engine installs the scalar :meth:`as_link_filter`
        closure; the array engine keeps the plan itself and evaluates
        the same draws through the vectorized ``*_array`` queries, so
        both paths stay byte-identical.
        """
        sim.attach_fault_plan(self)
        return sim


class BernoulliLinkPlan(FaultPlan):
    """Each link is independently up each step with probability
    ``availability`` -- the i.i.d. approximation of asynchrony.

    Args:
        availability: Per-link per-step up-probability in (0, 1].
        seed: Hash seed; equal seeds give bit-identical fault histories.
    """

    def __init__(self, availability: float, seed: int = 0) -> None:
        if not 0.0 < availability <= 1.0:
            raise ValueError(
                f"availability must be in (0, 1], got {availability}"
            )
        self.availability = availability
        self.seed = seed
        # A draw is (h >> 11) / 2**53 for the chain's final state h, so
        # draw < availability exactly when h < ceil(availability * 2**53)
        # << 11: the batched query compares states, with no float step.
        self._cut = np.uint64(min(math.ceil(availability * 2.0**53) << 11, _MASK64))
        # counter_prefix_array(seed, x, y, dir) of every link in the box
        # [0, w) x [0, h) x [0, d), flattened; built by the first query.
        self._table = np.empty(0, dtype=np.uint64)
        self._extent = (0, 0, 0)

    def link_up(self, src: tuple[int, int], direction: Direction, time: int) -> bool:
        if self.availability >= 1.0:
            return True
        return link_draw(self.seed, src, direction, time) < self.availability

    def link_up_array(
        self, xs: np.ndarray, ys: np.ndarray, dirs: np.ndarray, time: int
    ) -> np.ndarray:
        if self.availability >= 1.0 or not len(xs):
            return np.ones(len(xs), dtype=bool)
        return _chain(self._link_prefix(xs, ys, dirs), (time,)) < self._cut

    def _link_prefix(
        self, xs: np.ndarray, ys: np.ndarray, dirs: np.ndarray
    ) -> np.ndarray:
        """The chain state after ``(seed, x, y, dir)`` of each queried link.

        Read from a table over the box of links queried so far, which a
        query outside it grows.  The table holds 8 bytes per (node,
        direction); a query it could not cover within ``_MAX_PREFIX``
        entries, or with a negative coordinate (on no grid), is hashed
        directly.
        """
        cols = x, y, di = [np.asarray(c, dtype=np.int64) for c in (xs, ys, dirs)]
        w, h, d = self._extent
        u64 = np.uint64
        # Viewed unsigned, a negative coordinate exceeds every extent.
        if x.view(u64).max() >= w or y.view(u64).max() >= h or di.view(u64).max() >= d:
            w, h, d = (max(int(c.max()) + 1, size) for c, size in zip(cols, self._extent))
            d = max(d, len(Direction))
            if w * h * d > _MAX_PREFIX or min(int(c.min()) for c in cols) < 0:
                return counter_prefix_array(self.seed, *cols)
            self._table = counter_prefix_array(
                self.seed,
                np.arange(w, dtype=np.int64)[:, None, None],
                np.arange(h, dtype=np.int64)[None, :, None],
                np.arange(d, dtype=np.int64)[None, None, :],
            ).ravel()
            self._extent = (w, h, d)
        return self._table[(x * h + y) * d + di]


@dataclass(frozen=True)
class Outage:
    """One scheduled outage window, ``start <= time < end``.

    ``direction`` is None for a node outage, or the failed outlink's
    direction for a link outage (the reverse link is independent).
    """

    node: tuple[int, int]
    start: int
    end: int
    direction: Direction | None = None

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"outage window must satisfy 0 <= start < end, "
                f"got [{self.start}, {self.end})"
            )


class ScheduledOutagePlan(FaultPlan):
    """Explicit outage windows for named links and nodes.

    The deterministic "script" plan: tests and examples state exactly
    which entity is down when, with no randomness at all.
    """

    def __init__(self, outages: Iterable[Outage]) -> None:
        self._link_windows: dict[tuple[tuple[int, int], Direction], list[Outage]] = {}
        self._node_windows: dict[tuple[int, int], list[Outage]] = {}
        for outage in outages:
            if outage.direction is None:
                self._node_windows.setdefault(outage.node, []).append(outage)
            else:
                key = (outage.node, outage.direction)
                self._link_windows.setdefault(key, []).append(outage)

    @staticmethod
    def _covered(windows: list[Outage] | None, time: int) -> bool:
        if windows is None:
            return False
        return any(w.start <= time < w.end for w in windows)

    def link_up(self, src: tuple[int, int], direction: Direction, time: int) -> bool:
        return not self._covered(self._link_windows.get((src, direction)), time)

    def node_up(self, node: tuple[int, int], time: int) -> bool:
        return not self._covered(self._node_windows.get(node), time)


class RenewalOutagePlan(FaultPlan):
    """MTTF/MTTR-style faults: per-entity alternating up/down windows.

    Every entity (node or link, per ``scope``) runs its own renewal
    process: up for ``1 + floor(Exp(mttf))`` steps, then down for
    ``1 + floor(Exp(mttr))`` steps, repeating.  Window lengths are drawn
    with :func:`counter_draw` keyed on ``(seed, entity, cycle index)``
    and unfolded lazily into cached breakpoints -- a pure unfold, so the
    state at any time is independent of query order.

    Args:
        mttf: Mean steps up per cycle (mean time to failure), >= 1.
        mttr: Mean steps down per cycle (mean time to repair), >= 1.
        seed: Hash seed.
        scope: ``"node"`` (default) or ``"link"`` -- which entity kind
            this plan fails.
    """

    def __init__(
        self, mttf: float, mttr: float, seed: int = 0, scope: str = "node"
    ) -> None:
        if mttf < 1 or mttr < 1:
            raise ValueError(f"mttf and mttr must be >= 1, got {mttf}, {mttr}")
        if scope not in ("node", "link"):
            raise ValueError(f"scope must be 'node' or 'link', got {scope!r}")
        self.mttf = float(mttf)
        self.mttr = float(mttr)
        self.seed = seed
        self.scope = scope
        # Per-entity breakpoints: _starts[key][i] is the first step of
        # window i; even windows are up, odd are down.  Extended lazily.
        self._starts: dict[tuple[int, ...], list[int]] = {}

    def _window_len(self, key: tuple[int, ...], index: int) -> int:
        mean = self.mttf if index % 2 == 0 else self.mttr
        u = counter_draw(self.seed, *key, index)
        # Inverse-CDF exponential, floored to whole steps, minimum 1.
        return 1 + int(-mean * math.log1p(-u))

    def _up_at(self, key: tuple[int, ...], time: int) -> bool:
        starts = self._starts.get(key)
        if starts is None:
            starts = self._starts.setdefault(key, [0])
        while starts[-1] <= time:
            starts.append(starts[-1] + self._window_len(key, len(starts) - 1))
        # The window containing ``time`` is the last one starting at or
        # before it; even-indexed windows are up.
        return (bisect_left(starts, time + 1) - 1) % 2 == 0

    @property
    def has_node_faults(self) -> bool:
        return self.scope == "node"

    def node_up(self, node: tuple[int, int], time: int) -> bool:
        if self.scope != "node":
            return True
        return self._up_at((0, node[0], node[1]), time)

    def link_up(self, src: tuple[int, int], direction: Direction, time: int) -> bool:
        if self.scope != "link":
            return True
        return self._up_at((1, src[0], src[1], int(direction)), time)


class CompositeFaultPlan(FaultPlan):
    """Intersection of several plans: an entity is up only if every
    constituent plan reports it up (e.g. Bernoulli link flakiness plus a
    renewal node-outage process)."""

    def __init__(self, *plans: FaultPlan) -> None:
        if not plans:
            raise ValueError("CompositeFaultPlan needs at least one plan")
        self.plans = plans

    @property
    def has_node_faults(self) -> bool:
        return any(p.has_node_faults for p in self.plans)

    def link_up(self, src: tuple[int, int], direction: Direction, time: int) -> bool:
        return all(p.link_up(src, direction, time) for p in self.plans)

    def node_up(self, node: tuple[int, int], time: int) -> bool:
        return all(p.node_up(node, time) for p in self.plans)

    def link_up_array(
        self, xs: np.ndarray, ys: np.ndarray, dirs: np.ndarray, time: int
    ) -> np.ndarray:
        up = np.ones(len(xs), dtype=bool)
        for p in self.plans:
            up &= p.link_up_array(xs, ys, dirs, time)
        return up

    def node_up_array(
        self, xs: np.ndarray, ys: np.ndarray, time: int
    ) -> np.ndarray:
        up = np.ones(len(xs), dtype=bool)
        for p in self.plans:
            if p.has_node_faults:
                up &= p.node_up_array(xs, ys, time)
        return up
