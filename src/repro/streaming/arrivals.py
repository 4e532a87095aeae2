"""Open-loop arrival processes as pure functions of ``(seed, source, time)``.

The closed-loop workloads route a fixed instance to completion; the
streaming layer instead offers traffic forever at a configurable rate --
the competitive online model of Even--Medina's grid-routing line (see
PAPERS.md).  Every arrival decision here follows the same counter-hash
purity discipline as :mod:`repro.faults.plan`: a draw is a splitmix64
hash of ``(seed, domain, source, time, index)``, never a position in a
shared RNG stream, so

- the arrivals at ``(source, t)`` are identical no matter how many other
  queries happened first, in what order, or on which worker;
- any ``(source, step)`` batch can be recomputed in isolation (replay,
  property tests);
- saturation sweeps are byte-identical across ``--workers 1`` and
  ``--workers 4``.

Each process answers two queries.  The scalar :meth:`ArrivalProcess.arrivals`
gives one ``(source, time)`` batch and is the reference; the batched
:meth:`ArrivalProcess.arrivals_array` gives one step's offers for every
node as flat-id arrays, computed by continuing per-node prefix tables
(:func:`~repro.faults.plan.counter_prefix_array`) with the time, and
equals the concatenated scalar batches element for element.  The purity
contract above holds element-wise for both.

Two rate models are provided -- :class:`PoissonArrivals` (memoryless) and
:class:`OnOffArrivals` (bursty Markov-modulated on/off) -- each paired
with a destination model: :class:`UniformDestinations` (uniform over all
nodes except the source) or :class:`HotspotDestinations` (a tunable
fraction of traffic aimed at one hot node).  :func:`build_process` maps
the campaign-spec names (``poisson`` / ``onoff`` / ``hotspot``) onto the
right combination.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from repro.faults.plan import counter_continue_array, counter_draw, counter_prefix_array
from repro.mesh.topology import Topology

#: Domain tags keep draws for different purposes statistically independent
#: even when the remaining counters coincide.
_DOMAIN_COUNT = 101
_DOMAIN_DEST = 102
_DOMAIN_HOTSPOT = 103
_DOMAIN_WINDOW = 104

#: Hard cap on arrivals per (source, step): Poisson inversion terminates
#: long before this, but a bound keeps adversarial rates from spinning.
MAX_ARRIVALS_PER_STEP = 64


def poisson_count(u: float, rate: float) -> int:
    """Invert a uniform draw into a Poisson(``rate``) count.

    Plain CDF inversion: deterministic, branch-free of RNG state, exact
    for the small rates (packets per node per step) this layer uses.
    """
    if rate <= 0.0:
        return 0
    k = 0
    p = math.exp(-rate)
    cdf = p
    while u >= cdf and k < MAX_ARRIVALS_PER_STEP:
        k += 1
        p *= rate / k
        cdf += p
    return k


@lru_cache(maxsize=64)
def _poisson_cdf(rate: float) -> np.ndarray:
    """``cdf[j]`` for ``j < MAX_ARRIVALS_PER_STEP``, accumulated with the
    exact float operations of :func:`poisson_count`'s loop (read-only:
    the cache shares it)."""
    table = np.empty(MAX_ARRIVALS_PER_STEP, dtype=np.float64)
    p = math.exp(-rate)
    cdf = p
    for k in range(MAX_ARRIVALS_PER_STEP):
        table[k] = cdf
        p *= rate / (k + 1)
        cdf += p
    table.flags.writeable = False
    return table


def poisson_counts(u: np.ndarray, rate: float) -> np.ndarray:
    """:func:`poisson_count` over an array of uniform draws, exactly.

    The scalar loop stops at the first ``k`` with ``u < cdf[k]`` (or at the
    cap); the accumulated table is non-decreasing, so that ``k`` is the
    number of entries ``<= u``.
    """
    if rate <= 0.0:
        return np.zeros(len(u), dtype=np.int64)
    return np.searchsorted(_poisson_cdf(rate), u, side="right").astype(np.int64)


@lru_cache(maxsize=16)
def _node_prefix(seed: int, domain: int, width: int, height: int) -> np.ndarray:
    """``counter_prefix_array(seed, domain, x, y)`` of every node in flat-id
    (column-major) order, so a step's draws mix in only the time (and
    arrival index).  8 bytes per node; read-only: the cache shares it."""
    xs = np.repeat(np.arange(width, dtype=np.int64), height)
    ys = np.tile(np.arange(height, dtype=np.int64), width)
    table = counter_prefix_array(seed, domain, xs, ys)
    table.flags.writeable = False
    return table


def _no_offers() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


class DestinationModel:
    """Base destination chooser: a pure function of (source, time, index)."""

    def draw(
        self,
        topology: Topology,
        source: tuple[int, int],
        time: int,
        index: int,
    ) -> tuple[int, int]:
        """Destination of the ``index``-th arrival at ``source`` during
        ``time``.  Never equals ``source`` (self-traffic would be delivered
        at zero latency and pollute every throughput figure)."""
        raise NotImplementedError

    def _uniform_other(
        self,
        topology: Topology,
        source: tuple[int, int],
        u: float,
    ) -> tuple[int, int]:
        """Map a uniform draw onto the nodes of ``topology`` minus ``source``."""
        n = topology.num_nodes
        if n < 2:
            raise ValueError("destination draw needs at least two nodes")
        j = min(int(u * (n - 1)), n - 2)
        if j >= topology.node_index(source):
            j += 1
        return (j // topology.height, j % topology.height)

    def draw_array(
        self,
        topology: Topology,
        sources: np.ndarray,
        time: int,
        index: np.ndarray,
    ) -> np.ndarray:
        """Flat destination ids of the arrivals ``(sources[i], time,
        index[i])``: :meth:`draw` element-wise.

        The default walks the scalar query; models with a closed form
        override it with the same draws over arrays.
        """
        height = topology.height
        return np.array(
            [
                topology.node_index(self.draw(topology, (s // height, s % height), time, i))
                for s, i in zip(sources.tolist(), index.tolist())
            ],
            dtype=np.int64,
        )

    def _uniform_other_array(
        self, topology: Topology, sources: np.ndarray, u: np.ndarray
    ) -> np.ndarray:
        """:meth:`_uniform_other` over arrays of flat sources and draws."""
        n = topology.num_nodes
        if n < 2 and len(sources):
            raise ValueError("destination draw needs at least two nodes")
        j = np.minimum((u * (n - 1)).astype(np.int64), n - 2)
        return j + (j >= sources)


class UniformDestinations(DestinationModel):
    """Uniform random destinations over every node except the source."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def draw(
        self,
        topology: Topology,
        source: tuple[int, int],
        time: int,
        index: int,
    ) -> tuple[int, int]:
        u = counter_draw(self.seed, _DOMAIN_DEST, source[0], source[1], time, index)
        return self._uniform_other(topology, source, u)

    def draw_array(
        self,
        topology: Topology,
        sources: np.ndarray,
        time: int,
        index: np.ndarray,
    ) -> np.ndarray:
        prefix = _node_prefix(self.seed, _DOMAIN_DEST, topology.width, topology.height)
        u = counter_continue_array(prefix[sources], time, index)
        return self._uniform_other_array(topology, sources, u)


class HotspotDestinations(DestinationModel):
    """A ``fraction`` of traffic aims at one hot node, the rest uniform.

    Args:
        fraction: Probability an arrival targets the hotspot, in [0, 1].
            1.0 sends *everything* to the hotspot (the classic worst-case
            concentration workload); 0.0 degenerates to uniform.
        hotspot: The hot node; defaults to the topology's center node
            (chosen per draw, so one model instance works on any size).
        seed: Hash seed shared with the uniform fallback.
    """

    def __init__(
        self,
        fraction: float,
        hotspot: tuple[int, int] | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"hotspot fraction must be in [0, 1], got {fraction}")
        self.fraction = fraction
        self.hotspot = hotspot
        self.seed = seed

    def _hot_node(self, topology: Topology) -> tuple[int, int]:
        if self.hotspot is not None:
            return self.hotspot
        return (topology.width // 2, topology.height // 2)

    def draw(
        self,
        topology: Topology,
        source: tuple[int, int],
        time: int,
        index: int,
    ) -> tuple[int, int]:
        hot = self._hot_node(topology)
        if self.fraction > 0.0 and hot != source:
            u = counter_draw(
                self.seed, _DOMAIN_HOTSPOT, source[0], source[1], time, index
            )
            if u < self.fraction:
                return hot
        # Fallback: uniform over the other nodes (also taken by traffic
        # originating *at* the hotspot, which cannot target itself).
        u = counter_draw(self.seed, _DOMAIN_DEST, source[0], source[1], time, index)
        return self._uniform_other(topology, source, u)

    def draw_array(
        self,
        topology: Topology,
        sources: np.ndarray,
        time: int,
        index: np.ndarray,
    ) -> np.ndarray:
        hot = self._hot_node(topology)
        if not topology.contains(hot):
            raise ValueError(f"hotspot {hot} lies outside {topology!r}")
        shape = (topology.width, topology.height)
        prefix = _node_prefix(self.seed, _DOMAIN_DEST, *shape)
        u = counter_continue_array(prefix[sources], time, index)
        dest = self._uniform_other_array(topology, sources, u)
        if self.fraction > 0.0:
            hot_flat = topology.node_index(hot)
            prefix = _node_prefix(self.seed, _DOMAIN_HOTSPOT, *shape)
            u_hot = counter_continue_array(prefix[sources], time, index)
            dest[(sources != hot_flat) & (u_hot < self.fraction)] = hot_flat
        return dest


class ArrivalProcess:
    """Base open-loop arrival process.

    Subclasses implement :meth:`count` (arrivals offered at a source
    during one step) as a pure function of ``(seed, source, time)``; the
    shared :meth:`arrivals` pairs each arrival with a destination from
    the process's destination model.  :meth:`arrivals_array` is the
    batched form :func:`~repro.streaming.run.run_streaming` calls once per step.
    """

    name = "arrivals"

    def __init__(self, destinations: DestinationModel) -> None:
        self.destinations = destinations

    def count(self, source: tuple[int, int], time: int) -> int:
        """Packets offered at ``source`` during step ``time``."""
        raise NotImplementedError

    def mean_rate(self) -> float:
        """Long-run offered packets per node per step."""
        raise NotImplementedError

    def arrivals(
        self, topology: Topology, source: tuple[int, int], time: int
    ) -> tuple[tuple[int, int], ...]:
        """Destinations of every packet offered at ``(source, time)``.

        A pure function of the process parameters and its arguments --
        query order, repetition, and worker placement are all irrelevant.
        """
        k = self.count(source, time)
        dest = self.destinations.draw
        return tuple(dest(topology, source, time, i) for i in range(k))

    def arrivals_array(
        self, topology: Topology, time: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One step's offers at every node: ``(src_flat, dst_flat)``.

        Ordered column-major over sources (flat node id), then by arrival
        index -- the concatenation of :meth:`arrivals` over
        ``topology.nodes()``, element for element.  The default walks that
        scalar query; processes with a closed form override it.
        """
        src: list[int] = []
        dst: list[int] = []
        for node in topology.nodes():
            flat = topology.node_index(node)
            for dest in self.arrivals(topology, node, time):
                src.append(flat)
                dst.append(topology.node_index(dest))
        return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)

    def _offers(
        self, topology: Topology, time: int, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand per-node ``counts`` into offers with their destinations."""
        total = int(counts.sum())
        if total == 0:
            return _no_offers()
        sources = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        first = np.cumsum(counts) - counts
        index = np.arange(total, dtype=np.int64) - np.repeat(first, counts)
        return sources, self.destinations.draw_array(topology, sources, time, index)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: count ~ Poisson(``rate``) per node per step.

    Args:
        rate: Mean offered packets per node per step, >= 0 (0 is a legal
            silent source -- useful for composition and edge-case tests).
        destinations: Destination model (default uniform, same seed).
        seed: Hash seed.
    """

    name = "poisson"

    def __init__(
        self,
        rate: float,
        destinations: DestinationModel | None = None,
        seed: int = 0,
    ) -> None:
        if rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        super().__init__(destinations or UniformDestinations(seed))
        self.rate = float(rate)
        self.seed = seed

    def count(self, source: tuple[int, int], time: int) -> int:
        if self.rate == 0.0:
            return 0
        u = counter_draw(self.seed, _DOMAIN_COUNT, source[0], source[1], time)
        return poisson_count(u, self.rate)

    def arrivals_array(
        self, topology: Topology, time: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.rate == 0.0:
            return _no_offers()
        prefix = _node_prefix(self.seed, _DOMAIN_COUNT, topology.width, topology.height)
        u = counter_continue_array(prefix, time)
        return self._offers(topology, time, poisson_counts(u, self.rate))

    def mean_rate(self) -> float:
        return self.rate


class OnOffArrivals(ArrivalProcess):
    """Bursty Markov-modulated on/off arrivals.

    Every source runs its own alternating on/off renewal process (the
    same pure lazy unfold as :class:`repro.faults.plan.RenewalOutagePlan`):
    *on* windows of mean length ``burst_len`` during which arrivals are
    Poisson(``rate``), *off* windows of mean length ``gap_len`` with no
    arrivals.  Window lengths are ``1 + floor(Exp(mean - 1))`` steps, so a
    mean of exactly 1 gives deterministic length-1 windows (the edge case
    of a burst that is a single step).

    Args:
        rate: Offered packets per node per step *while on*, >= 0.
        burst_len: Mean on-window length in steps, >= 1.
        gap_len: Mean off-window length in steps, >= 1.
        destinations: Destination model (default uniform, same seed).
        seed: Hash seed.
    """

    name = "onoff"

    def __init__(
        self,
        rate: float,
        burst_len: float,
        gap_len: float,
        destinations: DestinationModel | None = None,
        seed: int = 0,
    ) -> None:
        if rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if burst_len < 1 or gap_len < 1:
            raise ValueError(
                f"burst_len and gap_len must be >= 1, got {burst_len}, {gap_len}"
            )
        super().__init__(destinations or UniformDestinations(seed))
        self.rate = float(rate)
        self.burst_len = float(burst_len)
        self.gap_len = float(gap_len)
        self.seed = seed
        # Per-source window starts: _starts[source][i] is the first step of
        # window i; even windows are on, odd are off.  A pure lazy unfold
        # (window i's length depends only on (seed, source, i)), so caching
        # never breaks query-order independence.
        self._starts: dict[tuple[int, int], list[int]] = {}

    def _window_len(self, source: tuple[int, int], index: int) -> int:
        mean = self.burst_len if index % 2 == 0 else self.gap_len
        if mean <= 1.0:
            return 1
        u = counter_draw(
            self.seed, _DOMAIN_WINDOW, source[0], source[1], index
        )
        return 1 + int(-(mean - 1.0) * math.log1p(-u))

    def is_on(self, source: tuple[int, int], time: int) -> bool:
        """Is ``source`` inside an on window during step ``time``?"""
        starts = self._starts.get(source)
        if starts is None:
            starts = self._starts.setdefault(source, [0])
        while starts[-1] <= time:
            starts.append(starts[-1] + self._window_len(source, len(starts) - 1))
        return (bisect_left(starts, time + 1) - 1) % 2 == 0

    def count(self, source: tuple[int, int], time: int) -> int:
        if self.rate == 0.0 or not self.is_on(source, time):
            return 0
        u = counter_draw(self.seed, _DOMAIN_COUNT, source[0], source[1], time)
        return poisson_count(u, self.rate)

    def arrivals_array(
        self, topology: Topology, time: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.rate == 0.0:
            return _no_offers()
        # The window unfold stays per source; the Poisson draws are batched.
        on = np.fromiter(
            (self.is_on(node, time) for node in topology.nodes()),
            dtype=bool,
            count=topology.num_nodes,
        )
        prefix = _node_prefix(self.seed, _DOMAIN_COUNT, topology.width, topology.height)
        counts = np.zeros(len(on), dtype=np.int64)
        u = counter_continue_array(prefix[on], time)
        counts[on] = poisson_counts(u, self.rate)
        return self._offers(topology, time, counts)

    def mean_rate(self) -> float:
        return self.rate * self.burst_len / (self.burst_len + self.gap_len)


#: Arrival-process names a streaming trial spec may use.
PROCESS_NAMES = ("poisson", "onoff", "hotspot")


def build_process(
    name: str,
    rate: float,
    seed: int = 0,
    *,
    burst_len: float = 8.0,
    gap_len: float = 8.0,
    hotspot_fraction: float = 0.5,
) -> ArrivalProcess:
    """The named arrival process at ``rate`` (shared by CLI and harness).

    ``poisson`` and ``hotspot`` offer ``rate`` packets per node per step
    in the long run; ``onoff`` offers ``rate`` only inside bursts, i.e.
    ``rate * burst/(burst+gap)`` long-run -- callers sweeping offered
    load compare processes via :meth:`ArrivalProcess.mean_rate`.
    """
    if name == "poisson":
        return PoissonArrivals(rate, seed=seed)
    if name == "onoff":
        return OnOffArrivals(rate, burst_len, gap_len, seed=seed)
    if name == "hotspot":
        return PoissonArrivals(
            rate,
            destinations=HotspotDestinations(hotspot_fraction, seed=seed),
            seed=seed,
        )
    raise ValueError(
        f"unknown arrival process {name!r}; expected one of {PROCESS_NAMES}"
    )
