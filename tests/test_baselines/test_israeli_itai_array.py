"""The loop-free Israeli–Itai array programs and their shared helpers.

* A differential net: ``israeli_itai_matching`` on the generator and
  array backends and ``israeli_itai_matching_batched`` must agree byte
  for byte (canonical-JSON ``RunResult``s, plain-int outputs) and on
  the matching, across degenerate and skewed shapes and seeds 0-4.
* Unit tests of the two bulk replays the II and weight-class LPS array
  programs share — :func:`choose_targets` (each proposer's
  ``choice(sorted(candidates))``) and :func:`replay_acceptor_choices`
  (each acceptor's ``choice(sorted(proposals))``) — against naive
  per-proposer / per-group references drawing from real per-node
  ``Generator`` streams.
"""

import numpy as np
import pytest

from repro.baselines.israeli_itai import (
    israeli_itai_matching,
    israeli_itai_matching_batched,
)
from repro.distributed.backends import choose_targets, replay_acceptor_choices
from repro.distributed.batch_rng import LaneRngs
from repro.graphs import (
    Graph,
    barabasi_albert,
    complete_graph,
    gnp_random,
    star_graph,
)

from tests.golden_harness import _res_dict, to_canonical_json

SEEDS = [0, 1, 2, 3, 4]

SHAPES = {
    "empty": lambda: Graph(0),
    "isolated": lambda: Graph(7),
    "trailing_isolated": lambda: Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "star": lambda: star_graph(12),
    "complete": lambda: complete_graph(9),
    "disconnected": lambda: Graph(
        10, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4), (8, 9)]
    ),
    "ba": lambda: barabasi_albert(120, 3, seed=4),
}


def _canon(res) -> str:
    return to_canonical_json(_res_dict(res))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_backends_and_batch_agree(shape):
    g = SHAPES[shape]()
    batched = israeli_itai_matching_batched(g, SEEDS)
    assert len(batched) == len(SEEDS)
    for s, (m_b, res_b) in zip(SEEDS, batched):
        m_g, res_g = israeli_itai_matching(g, seed=s, backend="generator")
        m_a, res_a = israeli_itai_matching(g, seed=s, backend="array")
        assert res_a == res_g and res_b == res_g, f"seed {s}"
        assert _canon(res_a) == _canon(res_g) == _canon(res_b), f"seed {s}"
        for res in (res_a, res_b):
            assert list(res.outputs) == list(range(g.n))
            assert all(type(x) is int for x in res.outputs.values())
        assert m_a == m_g and m_b == m_g, f"seed {s}"
        assert m_a.is_maximal()


# -- choose_targets -------------------------------------------------------


def _choice_streams(seed: int, n: int) -> list[np.random.Generator]:
    """Per-node generators, spawned exactly as the round engine spawns them."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]


def _naive_targets(g: Graph, pv, idx, eligible_mask) -> list[int]:
    """Per-proposer reference: the idx-th eligible sorted neighbor."""
    out = []
    for v, i in zip(pv.tolist(), idx.tolist()):
        cand = [u for u in sorted(g.neighbors(v)) if eligible_mask[u]]
        out.append(cand[i])
    return out


def _eligible_counts(g: Graph, eligible_mask) -> np.ndarray:
    return np.array([int(eligible_mask[list(g.neighbors(v))].sum()) for v in range(g.n)])


@pytest.mark.parametrize("seed", range(6))
def test_choose_targets_matches_per_proposer_loop(seed):
    rng = np.random.default_rng(seed)
    g = gnp_random(40, 0.2, seed=seed)
    mask = rng.random(g.n) < 0.7
    counts = _eligible_counts(g, mask)
    pv = np.flatnonzero((counts > 0) & (rng.random(g.n) < 0.6))
    idx = rng.integers(0, counts[pv]).astype(np.int64)
    snbr, _ = g._sorted_csr()
    got = choose_targets(
        g.adjacency_arrays()[0], snbr, pv, idx, lambda seg, slots, nbr: mask[nbr]
    )
    assert got.dtype == np.int64
    assert got.tolist() == _naive_targets(g, pv, idx, mask)


def test_choose_targets_last_eligible_slot():
    # Every proposer draws the last eligible entry of its segment, and
    # the segment's trailing neighbors are ineligible.
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 4), (1, 5), (4, 5)])
    mask = np.array([True, True, True, False, True, False])
    pv = np.array([0, 1, 4, 5])
    idx = _eligible_counts(g, mask)[pv] - 1
    snbr, _ = g._sorted_csr()
    got = choose_targets(
        g.adjacency_arrays()[0], snbr, pv, idx, lambda seg, slots, nbr: mask[nbr]
    )
    assert got.tolist() == _naive_targets(g, pv, idx, mask) == [2, 4, 1, 4]


def test_choose_targets_no_proposers():
    g = star_graph(5)
    snbr, _ = g._sorted_csr()
    empty = np.zeros(0, dtype=np.int64)
    got = choose_targets(
        g.adjacency_arrays()[0], snbr, empty, empty,
        lambda seg, slots, nbr: np.ones(nbr.size, dtype=bool),
    )
    assert got.dtype == np.int64 and got.size == 0


# -- replay_acceptor_choices ------------------------------------------------


def _naive_accepts(n, seed, keys, srcs, skip):
    """Per-group reference: each non-skipping target's choice(sorted(...))."""
    rngs = _choice_streams(seed, n)
    groups: dict[int, list[int]] = {}
    for k, s in zip(keys.tolist(), srcs.tolist()):
        groups.setdefault(k, []).append(s)
    acc, chosen = [], []
    for k in sorted(groups):
        if skip[k]:
            continue
        acc.append(k)
        chosen.append(int(rngs[k].choice(sorted(groups[k]))))
    return acc, chosen


def _proposals(n, rng, size):
    srcs = np.sort(rng.choice(n, size=size, replace=False))
    keys = rng.integers(0, n, size=size)
    return keys.astype(np.int64), srcs.astype(np.int64)


@pytest.mark.parametrize("seed", range(6))
def test_replay_acceptor_choices_matches_per_group_loop(seed):
    n = 50
    rng = np.random.default_rng(100 + seed)
    keys, srcs = _proposals(n, rng, 30)
    skip = rng.random(n) < 0.3
    acc, chosen = replay_acceptor_choices(LaneRngs([seed], n), keys, srcs, skip)
    want_acc, want_chosen = _naive_accepts(n, seed, keys, srcs, skip)
    assert acc.dtype == chosen.dtype == np.int64
    assert acc.tolist() == want_acc and chosen.tolist() == want_chosen


def test_replay_acceptor_choices_no_proposals():
    empty = np.zeros(0, dtype=np.int64)
    acc, chosen = replay_acceptor_choices(
        LaneRngs([0], 4), empty, empty, np.zeros(4, dtype=bool)
    )
    assert acc.size == chosen.size == 0


def test_replay_acceptor_choices_all_targets_skipped():
    n = 6
    keys = np.array([1, 1, 3], dtype=np.int64)
    srcs = np.array([0, 2, 4], dtype=np.int64)
    lanes = LaneRngs([0], n)
    acc, chosen = replay_acceptor_choices(lanes, keys, srcs, np.ones(n, dtype=bool))
    assert acc.size == chosen.size == 0
    # Nothing was drawn: the next draw still sees untouched streams.
    first = lanes.integers(0, 1000, np.arange(n)).tolist()
    assert first == [int(r.integers(0, 1000)) for r in _choice_streams(0, n)]
