"""The chamber complex from the rho-orbit walk against a breadth-first group search.

The reference multiplies generator matrices breadth first and deduplicates
the products, and the chamber vertices w(omega_s), in a tolerance-verified
VectorStore (`GroupBFS`), the way the complex was built before.  The two
orders of the chambers differ, so they are matched by element.
"""

from collections import Counter
from functools import reduce

import numpy as np
import pytest

import coxpack as cp
from coxpack.dedup import VectorStore
from coxpack.groups import GroupBFS, simple_reflections
from coxpack.tangency import chambers_up_to_length, classify_weight_norm


def reference_vertices(b, bfs):
    """Vertices of the BFS chambers as (color, length, vector), and each chamber's ids."""
    fund, _ = cp.fundamental_weights(b)
    store = VectorStore(len(b))
    vertices, incidence = [], []
    for mat, ell in zip(bfs.matrices, bfs.lengths):
        moved = mat @ fund
        ids = []
        for s in range(len(b)):
            vid, is_new = store.add(moved[:, s])
            if is_new:
                vertices.append((s, ell, moved[:, s]))
            ids.append(vid)
        incidence.append(ids)
    return store, vertices, incidence


def assert_matches_bfs(g, length):
    b, n = g.gram, g.rank
    cx = chambers_up_to_length(g, length)
    bfs = GroupBFS(b, length)
    assert Counter(len(ch.word) for ch in cx.chambers) == Counter(bfs.lengths)
    assert [len(ch.word) for ch in cx.chambers] == sorted(len(ch.word) for ch in cx.chambers)

    mats = np.array(bfs.matrices).reshape(len(bfs), n * n)
    perm = []
    for ch in cx.chambers:
        hits = np.nonzero(np.abs(mats - ch.element.ravel()).max(axis=1) <= 1e-8)[0]
        assert len(hits) == 1, f"chamber {ch.word} matches {len(hits)} elements"
        perm.append(int(hits[0]))
    assert sorted(perm) == list(range(len(bfs)))

    gens = simple_reflections(b)
    for k, ch in enumerate(cx.chambers):
        assert len(ch.word) == bfs.lengths[perm[k]]
        product = reduce(np.matmul, [gens[i] for i in ch.word], np.eye(n))
        assert np.allclose(product, ch.element, atol=1e-8)
        assert {i: perm[c] for i, c in cx.adjacency[k].items()} == bfs.adjacency[perm[k]]

    store, ref, incidence = reference_vertices(b, bfs)
    _, norms = cp.fundamental_weights(b)
    assert len(cx.vertices) == len(ref)
    to_ref = []
    for vid, v in enumerate(cx.vertices):
        assert v.id == vid
        r = store.find(v.vector)
        assert r is not None
        color, ell, vec = ref[r]
        assert (v.color, v.word_length) == (color, ell)
        assert np.allclose(v.vector, vec, atol=1e-8)
        assert v.norm == float(norms[color])
        assert v.vclass is classify_weight_norm(float(norms[color]))
        to_ref.append(r)
    assert sorted(to_ref) == list(range(len(ref)))
    first_seen = dict.fromkeys(vid for ch in cx.chambers for vid in ch.vertices)
    assert list(first_seen) == list(range(len(cx.vertices)))
    for k, ch in enumerate(cx.chambers):
        assert [to_ref[vid] for vid in ch.vertices] == incidence[perm[k]]
    return cx


def test_universal4_matches_bfs(universal4):
    cx = assert_matches_bfs(universal4, 6)
    assert len(cx.chambers) == 1 + sum(4 * 3 ** (ell - 1) for ell in range(1, 7))


def test_fig1a_matches_bfs(fig1a):
    assert_matches_bfs(fig1a, 6)


@pytest.mark.parametrize(
    "g, length, chambers",
    [
        (cp.path_graph([3]), 12, 6),  # A2
        (cp.path_graph([4, 3]), 12, 48),  # B3
        (cp.path_graph([5, 3]), 16, 120),  # H3
        # two disjoint dotted bonds: signature (2, 0, 2), neither finite nor Lorentzian
        (cp.CoxeterGraph(4, ((0, 1, cp.EdgeLabel(None, 1.5)), (2, 3, cp.EdgeLabel(None, 1.5)))), 5, 61),
    ],
    ids=["A2", "B3", "H3", "two_dotted"],
)
def test_non_lorentzian_matches_bfs(g, length, chambers):
    cx = assert_matches_bfs(g, length)
    assert len(cx.chambers) == chambers


def test_census_sample_matches_bfs(census_sample_10):
    for e in census_sample_10:
        assert_matches_bfs(e.graph, 4)


def test_chamber_cap_boundary(universal4, fig1a):
    for g in (universal4, fig1a):
        count = len(chambers_up_to_length(g, 4).chambers)
        assert len(chambers_up_to_length(g, 4, max_records=count).chambers) == count
        with pytest.raises(cp.OrbitCapError):
            chambers_up_to_length(g, 4, max_records=count - 1)
