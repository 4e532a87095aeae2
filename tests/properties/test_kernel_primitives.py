"""Property tests for the array kernels' shared primitives.

Every array-engine kernel is a sort key plus four primitives of
:mod:`repro.mesh.array_engine`: :func:`_firsts` (run starts),
:func:`_ranks` (run index and rank within the run), :func:`_up_to_free`
(the first ``free`` entries per key get in) and :func:`_claim` (outlink
claims, rank by rank).  Each must equal a plain-Python loop over the
same entries, element by element, and leave its arguments unchanged.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mesh.array_engine import _claim, _firsts, _ranks, _up_to_free

keys_lists = st.lists(st.integers(min_value=-3, max_value=3), max_size=40)
masks_4bit = st.integers(min_value=0, max_value=15)


def plain_firsts(keys):
    return [i == 0 or keys[i] != keys[i - 1] for i in range(len(keys))]


def plain_ranks(first):
    grp, rank, g, r = [], [], -1, 0
    for is_first in first:
        g, r = (g + 1, 0) if is_first else (g, r + 1)
        grp.append(g)
        rank.append(r)
    return grp, rank


def plain_up_to_free(order, keys, free):
    admitted = [False] * len(keys)
    before: dict[int, int] = {}
    for i in order:
        admitted[i] = before.get(keys[i], 0) < free[i]
        before[keys[i]] = before.get(keys[i], 0) + 1
    return admitted


def plain_claim(sizes, passes):
    """Per group (one after the other, ``sizes`` entries each), per pass,
    each entry still without a direction takes its first untaken one."""
    cdir = [-1] * sum(sizes)
    start = 0
    for size in sizes:
        taken: set[int] = set()
        for masks, pref in passes:
            for i in range(start, start + size):
                if cdir[i] >= 0:
                    continue
                for j in range(4):
                    d = (pref + j) % 4
                    if masks[i] >> d & 1 and d not in taken:
                        cdir[i] = d
                        taken.add(d)
                        break
        start += size
    return cdir


def frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@settings(max_examples=200, deadline=None)
@given(keys=keys_lists, sort=st.booleans())
@example(keys=[2] * 7, sort=True)  # a single run
@example(keys=list(range(9)), sort=True)  # all distinct
@example(keys=[], sort=True)
def test_firsts_and_ranks_equal_plain_loops(keys, sort):
    if sort:
        keys = sorted(keys)
    (arr,) = frozen(np.array(keys, dtype=np.int64))
    first = _firsts(arr)
    assert first.tolist() == plain_firsts(keys)
    if keys:
        frozen(first)
        grp, rank = _ranks(first)
        assert (grp.tolist(), rank.tolist()) == plain_ranks(first.tolist())


@settings(max_examples=200, deadline=None)
@given(
    keys=keys_lists,
    room=st.lists(st.integers(min_value=-2, max_value=4), min_size=7, max_size=7),
    data=st.data(),
)
@example(keys=[1] * 6, room=[2] * 7, data=None)  # a single run
@example(keys=list(range(-3, 4)), room=[0, 1, -1, 2, 0, 1, 3], data=None)
@example(keys=[0, 1, 0, 1], room=[-2, 0, 0, 0, 0, 0, 0], data=None)  # free <= 0
def test_up_to_free_equals_plain_loop(keys, room, data):
    m = len(keys)
    # A permutation that sorts the keys, ties in a drawn order.
    tie = data.draw(st.permutations(range(m))) if data is not None else range(m)
    tie = list(tie)
    order = sorted(range(m), key=lambda i: (keys[i], tie[i]))
    free = [room[k + 3] for k in keys]  # one room per key
    args = frozen(
        np.array(order, dtype=np.int64),
        np.array(keys, dtype=np.int64),
        np.array(free, dtype=np.int64),
    )
    assert _up_to_free(*args).tolist() == plain_up_to_free(order, keys, free)


@st.composite
def claim_case(draw, passes):
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), max_size=8))
    m = sum(sizes)
    masks = [draw(st.lists(masks_4bit, min_size=m, max_size=m)) for _ in range(passes)]
    return sizes, masks


def claim_args(sizes):
    grp = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    rank = np.concatenate(
        [np.arange(s, dtype=np.int64) for s in sizes] or [np.empty(0, dtype=np.int64)]
    )
    return frozen(grp, rank)


@pytest.mark.parametrize("pref", range(4))
@settings(max_examples=100, deadline=None)
@given(case=claim_case(passes=1))
@example(case=([5], [[15, 15, 15, 15, 15]]))  # a single group
@example(case=([1] * 6, [[0, 1, 2, 4, 8, 15]]))  # all distinct groups
def test_claim_one_pass_equals_plain_loop(pref, case):
    sizes, (masks,) = case
    grp, rank = claim_args(sizes)
    (m,) = frozen(np.array(masks, dtype=np.int64))
    assert _claim(grp, rank, (m, pref)).tolist() == plain_claim(sizes, [(masks, pref)])


@settings(max_examples=200, deadline=None)
@given(
    case=claim_case(passes=2),
    prefs=st.tuples(st.integers(min_value=0, max_value=3), st.integers(0, 3)),
)
@example(case=([4], [[1, 1, 2, 0], [15, 15, 15, 15]]), prefs=(0, 3))
def test_claim_two_passes_equal_plain_loop(case, prefs):
    """Hot-potato's shape: a profitable pass, then a deflection pass over
    every outlink for the entries the first left without one."""
    sizes, masks = case
    grp, rank = claim_args(sizes)
    passes = [(np.array(mk, dtype=np.int64), p) for mk, p in zip(masks, prefs)]
    frozen(*(mk for mk, _ in passes))
    assert _claim(grp, rank, *passes).tolist() == plain_claim(
        sizes, list(zip(masks, prefs))
    )
