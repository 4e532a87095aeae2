"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.mesh import Mesh, Simulator, Torus
from repro.routing import (
    AlternatingAdaptiveRouter,
    BoundedDimensionOrderRouter,
    CreditAdaptiveRouter,
    DimensionOrderRouter,
    FarthestFirstRouter,
    GreedyAdaptiveRouter,
    HotPotatoRouter,
)


@pytest.fixture
def mesh8() -> Mesh:
    return Mesh(8)


@pytest.fixture
def mesh16() -> Mesh:
    return Mesh(16)


@pytest.fixture
def torus8() -> Torus:
    return Torus(8)


def all_router_factories():
    """(name, factory(k)) pairs for routers that terminate on permutations."""
    return [
        ("bounded-dor", lambda k: BoundedDimensionOrderRouter(k)),
        ("farthest-first", lambda k: FarthestFirstRouter(k)),
        ("greedy-adaptive-incoming", lambda k: GreedyAdaptiveRouter(k, "incoming")),
        ("alternating-adaptive-incoming", lambda k: AlternatingAdaptiveRouter(k, "incoming")),
    ]


def central_router_factories():
    """Routers in the bare central-queue model (may stall on hard instances)."""
    return [
        ("dimension-order", lambda k: DimensionOrderRouter(k)),
        ("greedy-adaptive", lambda k: GreedyAdaptiveRouter(k)),
        ("alternating-adaptive", lambda k: AlternatingAdaptiveRouter(k)),
        ("farthest-first-central", lambda k: FarthestFirstRouter(k, "central")),
    ]


#: Every array-engine configuration: each ported router in each queue
#: regime it has.  The central cells take k=4, so up to four arrivals can
#: enter one queue in a step; they may livelock on hard instances.
ARRAY_CONFIGURATIONS = {
    "bounded-dor": lambda: BoundedDimensionOrderRouter(2),
    "credit-adaptive": lambda: CreditAdaptiveRouter(2),
    "dor": lambda: DimensionOrderRouter(4),
    "farthest-first-central": lambda: FarthestFirstRouter(4, "central"),
    "farthest-first-incoming": lambda: FarthestFirstRouter(2),
    "greedy-central": lambda: GreedyAdaptiveRouter(4),
    "greedy-incoming": lambda: GreedyAdaptiveRouter(2, "incoming"),
    "hot-potato": lambda: HotPotatoRouter(),
}


def route(topology, algorithm, packets, max_steps=50_000, **kwargs):
    """Run a routing problem to completion (or the step cap)."""
    sim = Simulator(topology, algorithm, packets, **kwargs)
    return sim.run(max_steps=max_steps)
