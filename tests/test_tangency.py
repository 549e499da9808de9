from collections import deque

import numpy as np
import pytest

import coxpack as cp
from coxpack.orbits import OrbitCapError, VectorClass, WeightRecord, bilinear
from coxpack.tangency import (
    LevelError,
    VertexClass,
    chambers_up_to_length,
    classify_weight_norm,
    geometric_oracle,
    is_strict_level2,
    tangency_graph,
)

# level-2 systems pinned from the census for self-contained tests
STRICT_GRAPH = "n=5; 0-2:3 0-3:3 0-4:3 1-2:3 1-3:3 1-4:4"
NONSTRICT_GRAPH = "n=5; 0-1:3 0-2:4 2-3:4 3-4:3"
SURREAL_GRAPH = "n=5; 0-1:3 0-2:4 1-3:6 3-4:3"


def oracle_id_pairs(tg, b):
    records = [
        WeightRecord(v.vector, v.word_length, v.norm, VectorClass.SPACE_LIKE, v.color)
        for v in tg.vertices
    ]
    pairs = geometric_oracle(records, b)
    return {
        (min(tg.vertices[a].id, tg.vertices[b_].id), max(tg.vertices[a].id, tg.vertices[b_].id))
        for a, b_ in pairs
    }


def test_chambers_identity_only(universal4):
    cx = chambers_up_to_length(universal4, 0)
    assert len(cx.chambers) == 1
    assert cx.chambers[0].word == ()
    w, _ = cp.fundamental_weights(universal4.gram)
    for s, vid in enumerate(cx.chambers[0].vertices):
        assert np.allclose(cx.vertices[vid].vector, w[s], atol=1e-12)


def test_chambers_finite_dihedral_stabilize():
    g = cp.path_graph([3])
    cx = chambers_up_to_length(g, 12)
    assert len(cx.chambers) == 6


def test_chambers_singular_form_raises():
    with pytest.raises(cp.SingularFormError):
        chambers_up_to_length(cp.cycle_graph([3, 3, 3]), 2)  # affine A~2


def test_chambers_one_step(universal4, fig1a):
    for g in (universal4, fig1a):
        cx = chambers_up_to_length(g, 1)
        assert len(cx.chambers) == g.rank + 1


def test_chamber_vertices_one_per_color(fig1a):
    cx = chambers_up_to_length(fig1a, 4)
    for ch in cx.chambers:
        colors = sorted(cx.vertices[vid].color for vid in ch.vertices)
        assert colors == list(range(fig1a.rank))


def classify_vertex(omega, b):
    return classify_weight_norm(bilinear(b, omega.vector, omega.vector))


def test_classify_vertex(universal4):
    b = universal4.gram
    records = cp.weights_up_to_length(universal4, 0)
    for r in records:
        assert classify_vertex(r, b) is VertexClass.REAL  # norm 1/4

    g = cp.load_graph(SURREAL_GRAPH)
    b = g.gram
    _, norms = cp.fundamental_weights(b)
    classes = [classify_vertex(r, b) for r in cp.weights_up_to_length(g, 0)]
    assert VertexClass.SURREAL in classes
    assert VertexClass.IMAGINARY in classes
    assert VertexClass.REAL in classes
    for norm, vc in zip(norms, classes):
        if abs(norm - 1.0) <= 1e-9:
            assert vc is VertexClass.SURREAL
        elif norm <= 1e-9:
            assert vc is VertexClass.IMAGINARY


def test_classify_weight_norm_of_arrays():
    """An array of norms is classified elementwise, as each norm alone, into
    an object array of its shape; a norm above 1 raises on a level-2 system,
    alone or in an array."""
    tol = 1e-9
    norms = np.array(
        [-2.0, 0.0, tol / 2, 2 * tol, 0.5, 1 - tol / 2, 1.0, 1 + tol / 2, 1 + 2 * tol, 4.0]
    )
    im, re, su = VertexClass.IMAGINARY, VertexClass.REAL, VertexClass.SURREAL
    want = [im, im, im, re, re, su, su, su, re, re]
    assert [classify_weight_norm(x) for x in norms.tolist()] == want
    assert [classify_weight_norm(x) for x in norms] == want
    got = classify_weight_norm(norms.reshape(2, 5))
    assert got.shape == (2, 5) and got.ravel().tolist() == want
    assert classify_weight_norm(norms[:8], level2=True).tolist() == want[:8]
    for high in (norms, norms[8:9], 1 + 2 * tol, norms[8]):
        with pytest.raises(cp.InconsistencyError, match="exceeds 1 on a level-2 system"):
            classify_weight_norm(high, level2=True)


def test_tangency_universal_fundamental_complete(universal4):
    tg = tangency_graph(universal4, 2)
    fund = [v.id for v in tg.vertices if v.word_length == 0]
    assert len(fund) == 4
    edges = tg.edge_set()
    fund_edges = {
        (min(u, v), max(u, v)) for u in fund for v in fund if u < v
    }
    assert fund_edges <= edges
    assert len(fund_edges) == 6
    for e in tg.edges:
        assert e.tag == "real"  # no surreal colors here (all norms 1/4)


def test_tangency_requires_level2(fig1b, universal4):
    with pytest.raises(LevelError):
        tangency_graph(fig1b, 2)
    with pytest.raises(ValueError):
        tangency_graph(universal4, -1)
    with pytest.raises(LevelError):
        is_strict_level2(fig1b)


def test_tangency_strict_graph_empty():
    g = cp.load_graph(STRICT_GRAPH)
    assert cp.level(g) == 2 and is_strict_level2(g)
    tg = tangency_graph(g, 4)
    assert tg.edges == ()
    assert len(tg.vertices) > 0
    assert oracle_id_pairs(tg, g.gram) == set()


def test_tangency_nonstrict_matches_oracle():
    g = cp.load_graph(NONSTRICT_GRAPH)
    assert cp.level(g) == 2 and not is_strict_level2(g)
    tg = tangency_graph(g, 4)
    assert len(tg.edges) > 0
    assert oracle_id_pairs(tg, g.gram) == tg.edge_set()


def test_edge_color_rules():
    vmaps = {}
    for text in (NONSTRICT_GRAPH, SURREAL_GRAPH):
        g = cp.load_graph(text)
        tg = tangency_graph(g, 4)
        vmap = {v.id: v for v in tg.vertices}
        for e in tg.edges:
            if e.tag == "real":
                assert vmap[e.u].color != vmap[e.v].color
            else:
                assert vmap[e.u].color == vmap[e.v].color
                assert vmap[e.u].vclass is VertexClass.SURREAL
                assert vmap[e.v].vclass is VertexClass.SURREAL
        vmaps[text] = tg
    surreal_tags = {e.tag for e in vmaps[SURREAL_GRAPH].edges}
    assert "surreal" in surreal_tags


def test_five_cycle_tangency_matches_oracle(five_cycle):
    tg = tangency_graph(five_cycle, 3)
    assert len(tg.edges) > 0
    assert oracle_id_pairs(tg, five_cycle.gram) == tg.edge_set()


def test_surreal_graph_matches_oracle():
    g = cp.load_graph(SURREAL_GRAPH)
    tg = tangency_graph(g, 4)
    assert oracle_id_pairs(tg, g.gram) == tg.edge_set()


def test_census_tangency_matches_oracle(census_entries):
    assert len(census_entries) == 326
    for e in census_entries:
        tg = tangency_graph(e.graph, 5)
        assert oracle_id_pairs(tg, e.graph.gram) == tg.edge_set(), cp.to_compact(e.graph)


@pytest.mark.parametrize(
    "text, vertices, edges",
    [
        # a chamber sweep three lengths past L found 78 of these 80 edges
        ("n=6; 0-1:3 0-3:3 0-4:3 1-2:3 2-3:3 2-5:3", 28, 80),
        ("n=11; 0-1:3 0-2:3 0-3:3 1-4:3 2-5:3 4-6:3 6-7:3 7-8:3 8-9:3 9-10:4", 10, 13),
    ],
)
def test_census_tangency_pinned(text, vertices, edges):
    g = cp.load_graph(text)
    tg = tangency_graph(g, 5)
    assert (len(tg.vertices), len(tg.edges)) == (vertices, edges)
    assert oracle_id_pairs(tg, g.gram) == tg.edge_set()


def test_tangency_vertex_ids_are_positions():
    tg = tangency_graph(cp.load_graph(SURREAL_GRAPH), 4)
    assert [v.id for v in tg.vertices] == list(range(len(tg.vertices)))
    order = [(v.word_length, v.color) for v in tg.vertices]
    assert order == sorted(order)


def test_tangency_cap_counts_vertices_and_edges():
    g = cp.load_graph(SURREAL_GRAPH)
    tg = tangency_graph(g, 4)
    total = len(tg.vertices) + len(tg.edges)
    assert tangency_graph(g, 4, max_records=total).edges == tg.edges
    for cap in (total - 1, len(tg.vertices) - 1):
        with pytest.raises(OrbitCapError):
            tangency_graph(g, 4, max_records=cap)


def test_geometric_oracle_cases(universal4):
    b = universal4.gram
    fund = cp.weights_up_to_length(universal4, 0)
    assert len(geometric_oracle(fund, b)) == 6
    assert geometric_oracle(fund[:1], b) == set()


def test_is_strict_level2(universal4, fig1a):
    assert not is_strict_level2(universal4)  # two deletions leave an affine bond
    # every 2-vertex subgraph of the all-4 graph is a finite dihedral bond,
    # so it is strict; consistently, its tangency graph is empty
    assert is_strict_level2(fig1a)
    assert tangency_graph(fig1a, 3).edges == ()
    assert is_strict_level2(cp.load_graph(STRICT_GRAPH))


def _chamber_distances(cx, sources):
    """Gallery distance within the truncated chamber graph from the set `sources` to each chamber."""
    dist = np.full(len(cx.chambers), -1, dtype=int)
    dist[sources] = 0
    queue = deque(sources)
    while queue:
        cur = queue.popleft()
        for nb in cx.adjacency[cur].values():
            if dist[nb] < 0:
                dist[nb] = dist[cur] + 1
                queue.append(nb)
    return dist


def test_distant_vertices_not_tangent(universal4):
    """Ball vertices far apart in the complex have separation above 1."""
    b = universal4.gram
    cx = chambers_up_to_length(universal4, 6)
    holders: dict[int, list[int]] = {}
    for ci, ch in enumerate(cx.chambers):
        for vid in ch.vertices:
            holders.setdefault(vid, []).append(ci)
    # restrict to early vertices so truncated distances are the true ones
    early = [v for v in cx.vertices if v.word_length <= 2]
    checked_diff = checked_same = 0
    for i, u in enumerate(early):
        # the least distance from a chamber holding u to each chamber
        dist = _chamber_distances(cx, holders[u.id])
        for v in early[i + 1 :]:
            d = dist[holders[v.id]].min()
            s = cp.separation(u.vector, v.vector, b)
            if u.color != v.color and d >= 2:
                assert s > 1 + 1e-9
                checked_diff += 1
            elif u.color == v.color and d >= 3:
                assert s > 1 + 1e-9
                checked_same += 1
    assert checked_diff >= 10 and checked_same >= 5
