"""PacketBatch: permutations as flat arrays, Packet objects only on demand.

The generators return batches whose (pid, source, dest) triples are pinned
to the Packet-list generators they replaced; the array engine loads a
batch without building its objects and agrees step for step with a run
loaded from Packet lists; the objects an observer sees are the batch's
own; and both engines refuse bad input with the same messages.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import BernoulliLinkPlan
from repro.faults.run import run_faulty
from repro.mesh import Mesh, MeshND, Packet, Simulator, Torus
from repro.mesh.batch import PacketBatch
from repro.routing import GreedyAdaptiveRouter, HotPotatoRouter
from repro.verify import ARRAY_PORTED, REGISTRY, attach_checker, default_oracles
from repro.verify.engine_equivalence import LockstepReport, lockstep
from repro.workloads import (
    bit_reversal_permutation,
    identity_permutation,
    packets_from_mapping,
    random_partial_permutation,
    random_permutation,
    rotation_permutation,
    transpose_permutation,
)

TOPOLOGIES = {
    "mesh": lambda: Mesh(4),
    "torus": lambda: Torus(4),
    "mesh3d": lambda: MeshND((4, 4, 4)),
}

GENERATORS = {
    "random": lambda t, s: random_permutation(t, seed=s),
    "partial": lambda t, s: random_partial_permutation(t, 0.5, seed=s),
    "transpose": lambda t, s: transpose_permutation(t),
    "bit-reversal": lambda t, s: bit_reversal_permutation(t),
    "identity": lambda t, s: identity_permutation(t),
    "rotation": lambda t, s: rotation_permutation(t, *range(1, t.dims + 1)),
}

#: sha256 prefix of the int64 (pid, source index, dest index) triples the
#: Packet-list generators produced before batches replaced them.
PINS = {
    ("random", "mesh", 0): "92f3f21fde93f6b8",
    ("random", "mesh", 1): "e514bd8ce343f7ff",
    ("random", "torus", 0): "92f3f21fde93f6b8",
    ("random", "torus", 1): "e514bd8ce343f7ff",
    ("random", "mesh3d", 0): "c4278f7bfa97efa0",
    ("random", "mesh3d", 1): "19daa24163bc759f",
    ("partial", "mesh", 0): "de1def7af093819c",
    ("partial", "mesh", 1): "e25b59f3e72ff15c",
    ("partial", "torus", 0): "de1def7af093819c",
    ("partial", "torus", 1): "e25b59f3e72ff15c",
    ("partial", "mesh3d", 0): "e6667abf89e49a48",
    ("partial", "mesh3d", 1): "b86f8ecbe5e345d9",
    ("transpose", "mesh", 0): "561dbaec688386df",
    ("transpose", "torus", 0): "561dbaec688386df",
    ("transpose", "mesh3d", 0): "42096d6a1eea75fe",
    ("bit-reversal", "mesh", 0): "a447d7fa78fed916",
    ("bit-reversal", "torus", 0): "a447d7fa78fed916",
    ("bit-reversal", "mesh3d", 0): "cd026f0091ef82eb",
    ("identity", "mesh", 0): "1718931fde2c2d05",
    ("identity", "torus", 0): "1718931fde2c2d05",
    ("identity", "mesh3d", 0): "94e37552f8a7cd76",
    ("rotation", "mesh", 0): "ff30b89d80d60942",
    ("rotation", "torus", 0): "ff30b89d80d60942",
    ("rotation", "mesh3d", 0): "4c1055c82c873ca6",
}


def triples_digest(topology, packets):
    """The pin of a Packet sequence, read through its objects."""
    triples = np.array(
        [(p.pid, topology.node_index(p.source), topology.node_index(p.dest)) for p in packets],
        dtype=np.int64,
    )
    return hashlib.sha256(triples.tobytes()).hexdigest()[:16]


def greedy():
    return GreedyAdaptiveRouter(2, "incoming")


class TestGeneratorPins:
    @pytest.mark.parametrize("generator, topology, seed", sorted(PINS))
    def test_triples_match_the_packet_list_generators(self, generator, topology, seed):
        topo = TOPOLOGIES[topology]()
        batch = GENERATORS[generator](topo, seed)
        assert isinstance(batch, PacketBatch) and not batch.built
        arrays = np.stack([batch.pid, batch.source, batch.dest], axis=1)
        digest = hashlib.sha256(arrays.astype(np.int64).tobytes()).hexdigest()[:16]
        assert digest == PINS[generator, topology, seed]
        # The objects say what the arrays say.
        assert triples_digest(topo, batch) == digest

    def test_random_permutation_is_arange_sources(self):
        batch = random_permutation(Mesh(8), seed=5)
        assert batch.pid.tolist() == batch.source.tolist() == list(range(64))
        assert sorted(batch.dest.tolist()) == list(range(64))
        assert not batch.injection_time.any()


class TestSequence:
    def test_objects_are_built_once_and_cached(self):
        batch = random_permutation(Mesh(4), seed=0)
        first = batch[3]
        assert batch.built
        assert batch[3] is first and list(batch)[3] is first
        assert len(batch) == 16 and batch[1:3] == list(batch)[1:3]

    def test_concatenation_gives_packet_lists(self):
        a = random_permutation(Mesh(4), seed=0)
        b = random_permutation(Mesh(4), seed=1)
        assert [p.dest for p in a + b] == [p.dest for p in list(a) + list(b)]
        assert len([Packet(99, (0, 0), (1, 1))] + a) == 17

    def test_arrays_are_read_only(self):
        batch = random_permutation(Mesh(4), seed=0)
        with pytest.raises(ValueError):
            batch.dest[0] = 1

    def test_of_reads_a_built_batch_back_off_its_objects(self):
        mesh = Mesh(4)
        batch = random_permutation(mesh, seed=0)
        assert PacketBatch.of(batch, mesh) is batch  # unbuilt: as is
        batch[0].dest = (3, 3)
        again = PacketBatch.of(batch, mesh)
        assert again.dest[0] == mesh.node_index((3, 3))
        assert again[0] is batch[0]

    def test_fresh_shares_no_object(self):
        mesh = Mesh(4)
        batch = random_permutation(mesh, seed=0)
        batch[2].dest = (0, 0)
        fresh = batch.fresh()
        assert not fresh.built
        assert fresh.dest[2] == 0 and fresh[2] is not batch[2]

    def test_mapping_batch_indexes_the_bounding_grid(self):
        batch = packets_from_mapping({(0, 0): (2, 1), (1, 1): (0, 0)})
        assert batch.topology.shape == (3, 2)
        assert batch.dest.tolist() == [batch.topology.node_index((2, 1)), 0]
        # On a grid of another shape it converts through its objects.
        mesh = Mesh(4)
        assert PacketBatch.of(batch, mesh).dest.tolist() == [mesh.node_index((2, 1)), 0]
        with pytest.raises(ValueError, match="^packet 0 endpoints outside topology$"):
            packets_from_mapping({(0, -1): (1, 1)})


class TestArrayLoad:
    @pytest.mark.parametrize("checked", [False, True], ids=["plain", "checked"])
    def test_closed_run_builds_no_packet(self, checked):
        mesh = Mesh(8)
        batch = random_permutation(mesh, seed=2)
        sim = Simulator(mesh, greedy(), batch, engine="array")
        if checked:
            checker = attach_checker(sim, default_oracles(sim), mode="record")
        assert sim.run(5_000).completed
        if checked:
            checker.finish()
            assert checker.ok
        assert not batch.built

    def test_run_faulty_builds_no_packet(self):
        mesh = Mesh(8)
        batch = random_permutation(mesh, seed=2)
        report = run_faulty(
            mesh, greedy(), batch, BernoulliLinkPlan(0.9, seed=1), max_steps=5_000,
            engine="array",
        )
        assert report.ok and report.result.completed
        assert not batch.built

    def test_queues_show_the_batch_objects(self):
        mesh = Mesh(6)
        batch = random_permutation(mesh, seed=1)
        sim = Simulator(mesh, greedy(), batch, engine="array")
        sim.step()
        by_pid = {p.pid: p for p in batch}
        queued = list(sim.iter_packets())
        assert queued and all(p is by_pid[p.pid] for p in queued)
        moves = sim.step()
        assert all(mv.packet is by_pid[mv.packet.pid] for mv in moves)

    def test_dest_mutated_before_construction_is_honoured(self):
        mesh = Mesh(6)
        batch = random_permutation(mesh, seed=1)
        target = next(p for p in batch if p.source != (5, 5) and p.dest != (5, 5))
        swap = next(p for p in batch if p.dest == (5, 5))
        target.exchange_destinations(swap)
        sim = Simulator(mesh, greedy(), batch, engine="array")
        reference = Simulator(mesh, greedy(), [p.copy() for p in batch])
        report = LockstepReport("greedy-adaptive", "mutated", 6, 2, 1)
        lockstep(reference, sim, 2_000, report)
        assert report.ok, report.findings
        assert sim.done

    def test_empty_load_builds_no_arrays(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("PacketBatch.of called for an empty load")

        monkeypatch.setattr(PacketBatch, "of", refuse)
        sim = Simulator(Mesh(4), greedy(), [], engine="array")
        assert sim._slots.size == 0 and sim._known_pids is None
        assert sim.run(10).completed

    def test_known_pids_are_made_on_first_injection(self):
        mesh = Mesh(4)
        sim = Simulator(mesh, greedy(), random_permutation(mesh, seed=0), engine="array")
        assert sim._known_pids is None
        with pytest.raises(ValueError, match="duplicate packet id 3"):
            sim.inject_packet(Packet(3, (0, 0), (1, 1)))
        sim.inject_packet(Packet(16, (0, 0), (1, 1), injection_time=1))
        assert 16 in sim._known_pids and len(sim._known_pids) == 17

    def test_timed_packets_of_a_batch_wait_in_the_pool(self):
        mesh = Mesh(4)
        base = random_permutation(mesh, seed=0)
        times = np.arange(16) % 3
        batch = PacketBatch(mesh, base.pid, base.source, base.dest, times)
        sim = Simulator(mesh, HotPotatoRouter(), batch, engine="array")
        reference = Simulator(mesh, HotPotatoRouter(), batch.fresh())
        assert sim.pending_count == reference.pending_count == 10
        report = LockstepReport("hot-potato", "timed", 4, 1, 0)
        lockstep(reference, sim, 2_000, report)
        assert report.ok, report.findings


@st.composite
def load_case(draw):
    router = draw(st.sampled_from(ARRAY_PORTED))
    n = draw(st.integers(3, 16))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    torus = draw(st.booleans())
    partial = draw(st.booleans())
    return router, n, k, seed, torus, partial


@given(load_case())
@settings(max_examples=30, deadline=None)
def test_batch_and_packet_list_loads_agree_step_by_step(case):
    """Loading the arrays directly is loading the Packet list."""
    router, n, k, seed, torus, partial = case
    topology = Torus(n) if torus else Mesh(n)
    make = random_partial_permutation if partial else random_permutation
    args = (0.5,) if partial else ()
    batch = make(topology, *args, seed=seed)
    listed = [p.copy() for p in make(topology, *args, seed=seed)]
    entry = REGISTRY[router]
    from_list = Simulator(topology, entry.factory(k, seed), listed, engine="array")
    from_batch = Simulator(topology, entry.factory(k, seed), batch, engine="array")
    assert not batch.built
    report = LockstepReport(router=router, family="load", n=n, k=k, seed=seed)
    lockstep(from_list, from_batch, min(60 * n, 2_000), report)
    assert report.ok, report.findings


class TestLoadErrors:
    """Both engines refuse bad input with the same message, naming the
    first bad packet in input order (a repeat before a foreign endpoint
    on the same packet)."""

    CASES = [
        (
            [(0, (0, 0), (1, 1)), (3, (1, 0), (2, 2)), (3, (2, 0), (0, 0))],
            "duplicate packet id 3",
        ),
        (
            [(0, (0, 0), (1, 1)), (2, (1, 0), (4, 0)), (5, (2, 0), (0, 0))],
            "packet 2 endpoints outside topology",
        ),
        (
            [(0, (0, 0), (1, 1)), (7, (-1, 0), (1, 1)), (0, (2, 0), (0, 0))],
            "packet 7 endpoints outside topology",
        ),
        ([(0, (0, 0), (1, 1)), (0, (0, 9), (1, 1))], "duplicate packet id 0"),
        (
            [(0, (0, 0), (1, 1)), (4, (0, 0, 0), (1, 1))],
            "packet 4 endpoints outside topology",
        ),
        (
            [(1, (0, 0), (1, 1)), (2, (0, 1), (0, 4))],
            "packet 2 endpoints outside topology",
        ),
    ]

    @pytest.mark.parametrize("engine", ["reference", "array"])
    @pytest.mark.parametrize("rows, message", CASES)
    def test_messages(self, engine, rows, message):
        packets = [Packet(pid, s, d) for pid, s, d in rows]
        with pytest.raises(ValueError, match=f"^{message}$"):
            Simulator(Mesh(4), greedy(), packets, engine=engine)

    def test_batch_construction_checks_its_arrays(self):
        mesh = Mesh(4)
        with pytest.raises(ValueError, match="^duplicate packet id 1$"):
            PacketBatch(mesh, [1, 1], [0, 1], [2, 3])
        with pytest.raises(ValueError, match="^packet 5 endpoints outside topology$"):
            PacketBatch(mesh, [4, 5], [0, 16], [2, 3])
