"""The edge-orbit tangency graph against the chamber sweep it replaced.

The reference is the rule the library used before: sweep every chamber of
the explicit complex, join two vertices of one chamber whose unit normals
have product -1 (real), and join the same-color vertices of two chambers
across a panel of a surreal color (surreal).  Chambers up to length 2L hold
every edge between vertices of length <= L.  The roots negative on a real
edge's point are those negative on either endpoint, so its chamber w has
l(w) <= l(u) + l(v).  For a surreal edge the shared wall adds one root
negative on an endpoint and zero on the point, so l(w) + 1 <= l(u) + l(v)
for the chambers w and w s_s.
"""

from itertools import combinations

import numpy as np
import pytest

import coxpack as cp
from coxpack.orbits import spacelike_unit_rows
from coxpack.tangency import VertexClass, chambers_up_to_length, tangency_graph

from test_tangency import NONSTRICT_GRAPH, SURREAL_GRAPH


def sweep_tangency(g, length):
    """Vertices and tagged edges from a sweep of chambers_up_to_length(g, 2 * length).

    The vertices are the non-imaginary ones of word length <= length, in
    order of first appearance; edges are (i, j, tag) on those positions.
    """
    cx = chambers_up_to_length(g, 2 * length)
    n = g.rank
    seen = [
        v for v in cx.vertices
        if v.vclass is not VertexClass.IMAGINARY and v.word_length <= length
    ]
    pos = np.full(len(cx.vertices), -1)
    pos[[v.id for v in seen]] = np.arange(len(seen))
    rows, ids = spacelike_unit_rows(cx.vertices)
    unit = np.zeros((len(cx.vertices), n))
    unit[ids] = rows
    bunit = unit @ g.gram

    edges = set()

    def join(a, c, tag):
        a, c = int(pos[a]), int(pos[c])
        if a >= 0 and c >= 0 and a != c:
            edges.add((min(a, c), max(a, c), tag))

    chamber_vertex = np.array([c.vertices for c in cx.chambers])
    for s, t in combinations(range(n), 2):
        us, vt = chamber_vertex[:, s], chamber_vertex[:, t]
        near = np.abs(np.einsum("ij,ij->i", bunit[us], unit[vt]) + 1.0) <= 1e-9
        for a, c in zip(us[near], vt[near]):
            join(a, c, "real")
    for eid, chamber in enumerate(cx.chambers):
        for s, nid in cx.adjacency[eid].items():
            a = chamber.vertices[s]
            if cx.vertices[a].vclass is VertexClass.SURREAL:
                join(a, cx.chambers[nid].vertices[s], "surreal")
    return seen, edges


def assert_matches_sweep(g, length):
    tg = tangency_graph(g, length)
    seen, edges = sweep_tangency(g, length)
    assert len(tg.vertices) == len(seen)
    vectors = np.array([v.vector for v in tg.vertices]).reshape(-1, g.rank)
    to_new = []
    for v in seen:
        hits = np.nonzero(np.abs(vectors - v.vector).max(axis=1) <= 1e-7)[0]
        assert len(hits) == 1, f"sweep vertex {v.vector} has {len(hits)} matches"
        w = tg.vertices[hits[0]]
        assert (w.color, w.word_length, w.vclass) == (v.color, v.word_length, v.vclass)
        to_new.append(w.id)
    assert sorted(to_new) == list(range(len(seen)))
    mapped = {
        (min(to_new[a], to_new[c]), max(to_new[a], to_new[c]), tag) for a, c, tag in edges
    }
    assert mapped == {(e.u, e.v, e.tag) for e in tg.edges}


def test_surreal_graph_matches_sweep():
    g = cp.load_graph(SURREAL_GRAPH)
    assert_matches_sweep(g, 3)
    assert {e.tag for e in tangency_graph(g, 3).edges} == {"real", "surreal"}


def test_census_small_ranks_match_sweep(census_sorted):
    small = [e for e in census_sorted if e.rank <= 6]
    assert len(small) == 255
    for e in small:
        assert_matches_sweep(e.graph, 3)


@pytest.mark.parametrize("length", [2, 3])
def test_tangency_monotone_in_length(census_sample_10, five_cycle, length):
    graphs = [e.graph for e in census_sample_10]
    graphs += [five_cycle, cp.load_graph(NONSTRICT_GRAPH), cp.load_graph(SURREAL_GRAPH)]
    for g in graphs:
        small, big = tangency_graph(g, length), tangency_graph(g, length + 1)
        k = len(small.vertices)
        assert [v.word_length for v in big.vertices[k:]] == [length + 1] * (len(big.vertices) - k)
        for u, v in zip(small.vertices, big.vertices):
            assert (u.id, u.color, u.word_length) == (v.id, v.color, v.word_length)
            assert np.array_equal(u.vector, v.vector)
        assert small.edges == tuple(e for e in big.edges if e.v < k)
