"""The canonical-parent orbit enumerators against the lookup-based reference.

The reference enumerators are the breadth-first searches the library used
before its orbits were laid out as canonical-parent trees: roots reflect
every vector of a layer and keep the nonnegative images not seen before;
weights move the fundamental weights by every group element of bounded
length.  Both deduplicate through a tolerance-verified VectorStore.
"""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxpack as cp
from coxpack.dedup import VectorStore
from coxpack.groups import GroupBFS, simple_reflections


def reference_roots(g, depth):
    """(vector, depth) of every positive root of depth <= depth, by reflection BFS."""
    n = g.rank
    gens = simple_reflections(g.gram)
    store = VectorStore(n)
    layer = np.eye(n)
    found = []
    for row in layer:
        store.add(row)
        found.append((row, 1))
    for d in range(2, depth + 1):
        children = np.concatenate([layer @ gens[i].T for i in range(n)], axis=0)
        fresh = [
            row for row in children[children.min(axis=1) >= -1e-9] if store.add(row)[1]
        ]
        found += [(row, d) for row in fresh]
        if not fresh:
            break
        layer = np.array(fresh)
    return found


def reference_weights(g, length):
    """(vector, word length, color) of every weight w(omega_s), w of length <= length."""
    n = g.rank
    fund, _ = cp.fundamental_weights(g.gram)
    bfs = GroupBFS(g.gram, length)
    store = VectorStore(n)
    found = []
    for matrix, ell in zip(bfs.matrices, bfs.lengths):
        moved = matrix @ fund
        for s in range(n):
            if store.add(moved[:, s])[1]:
                found.append((moved[:, s], ell, s))
    return found


def assert_same_points(got, want):
    """Two lists of (vector, *labels) hold the same vectors with the same labels."""
    assert Counter(tuple(p[1:]) for p in got) == Counter(tuple(p[1:]) for p in want)
    dim = len(want[0][0])
    store = VectorStore(dim)
    for vec, *_ in want:
        store.add(vec)
    hit = set()
    for vec, *labels in got:
        idx = store.find(vec)
        assert idx is not None, f"point {vec} is missing from the reference"
        assert tuple(want[idx][1:]) == tuple(labels)
        hit.add(idx)
    assert len(hit) == len(want)


def check_roots(g, depth):
    got = [(r.vector, r.depth) for r in cp.roots_up_to_depth(g, depth)]
    assert_same_points(got, reference_roots(g, depth))


def check_weights(g, length):
    got = [(w.vector, w.word_length, w.color) for w in cp.weights_up_to_length(g, length)]
    assert_same_points(got, reference_weights(g, length))


BENCH_SYSTEMS = {
    "universal4": ("n=4; 0-1:inf 0-2:inf 0-3:inf 1-2:inf 1-3:inf 2-3:inf", 7, 5),
    "complete4": ("n=4; 0-1:4 0-2:4 0-3:4 1-2:4 1-3:4 2-3:4", 8, 5),
    "cycle5": ("n=5; 0-1:4 0-4:4 1-2:4 2-3:4 3-4:4", 9, 5),
    "star": ("n=4; 0-3:inf 1-3:inf 2-3:inf", 10, 6),
    "dotted4": ("n=4; 0-1:inf(1.1) 0-2:inf(1.1) 0-3:inf(1.1) 1-2:inf(1.1) 1-3:inf(1.1) "
                "2-3:inf(1.1)", 6, 4),
}


@pytest.mark.parametrize("name", sorted(BENCH_SYSTEMS))
def test_matches_reference_on_limit_systems(name):
    text, depth, length = BENCH_SYSTEMS[name]
    g = cp.parse_compact(text)
    check_roots(g, depth)
    check_weights(g, length)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    edges = []
    for u, v in combinations(range(n), 2):
        m = draw(st.sampled_from((None, 3, 4, 5, 6, "inf")))
        if m == "inf":
            edges.append((u, v, cp.EdgeLabel(None, draw(st.sampled_from((1.0, 1.1))))))
        elif m is not None:
            edges.append((u, v, cp.EdgeLabel(m)))
    return cp.CoxeterGraph(n, tuple(edges))


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_matches_reference_on_random_graphs(g):
    check_roots(g, 5 if g.rank < 5 else 4)
    try:
        cp.fundamental_weights(g.gram)
    except cp.SingularFormError:
        return
    check_weights(g, 4 if g.rank < 5 else 3)


def test_cap_counts_records():
    g = cp.universal_graph(4)
    total = len(cp.roots_up_to_depth(g, 4))  # 4 + 12 + 36 + 108
    assert len(cp.roots_up_to_depth(g, 4, max_records=total)) == total
    with pytest.raises(cp.OrbitCapError):
        cp.roots_up_to_depth(g, 4, max_records=total - 1)
    total = len(cp.weights_up_to_length(g, 3))
    assert len(cp.weights_up_to_length(g, 3, max_records=total)) == total
    with pytest.raises(cp.OrbitCapError):
        cp.weights_up_to_length(g, 3, max_records=total - 1)
