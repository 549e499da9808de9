import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxpack as cp
from coxpack.graphs import GraphError, graph_to_dict

import reference_census


def test_edge_label_validation():
    assert cp.EdgeLabel(3).gram_entry() == pytest.approx(-0.5)
    assert cp.EdgeLabel(4).gram_entry() == pytest.approx(-math.sqrt(2) / 2)
    assert cp.EdgeLabel(5).gram_entry() == pytest.approx(-(1 + math.sqrt(5)) / 4)
    assert cp.EdgeLabel(6).gram_entry() == pytest.approx(-math.sqrt(3) / 2)
    assert cp.EdgeLabel(None, 1.1).gram_entry() == -1.1
    assert cp.EdgeLabel(None, 1.1).dotted
    assert not cp.EdgeLabel(None, 1.0).dotted
    with pytest.raises(GraphError):
        cp.EdgeLabel(2)
    with pytest.raises(GraphError):
        cp.EdgeLabel(None, 0.9)
    with pytest.raises(GraphError):
        cp.EdgeLabel(3, 1.5)


def test_graph_invariants():
    with pytest.raises(GraphError):
        cp.CoxeterGraph(3, ((0, 0, cp.EdgeLabel(3)),))
    with pytest.raises(GraphError):
        cp.CoxeterGraph(3, ((0, 3, cp.EdgeLabel(3)),))
    with pytest.raises(GraphError):
        cp.CoxeterGraph(3, ((0, 1, cp.EdgeLabel(3)), (1, 0, cp.EdgeLabel(4))))
    with pytest.raises(GraphError):
        cp.CoxeterGraph(33)


def test_edge_order_independence():
    e1 = ((0, 1, cp.EdgeLabel(3)), (1, 2, cp.EdgeLabel(4)))
    e2 = ((2, 1, cp.EdgeLabel(4)), (1, 0, cp.EdgeLabel(3)))
    assert cp.CoxeterGraph(3, e1) == cp.CoxeterGraph(3, e2)


def test_parse_graph_examples():
    g = cp.parse_graph('{"rank": 2, "edges": []}')
    assert g.rank == 2 and g.bond_order(0, 1) == 2

    fig1b = cp.parse_graph(json.dumps({
        "rank": 4,
        "edges": [
            {"u": 0, "v": 1, "m": 4}, {"u": 0, "v": 2, "m": 4},
            {"u": 0, "v": 3, "m": 4}, {"u": 1, "v": 2, "m": 4},
            {"u": 1, "v": 3, "m": 4}, {"u": 2, "v": 3, "m": "inf", "c": 1.1},
        ],
    }))
    assert fig1b.gram[2, 3] == pytest.approx(-1.1)

    with pytest.raises(GraphError):
        cp.parse_graph('{"rank": 3, "edges": [{"u": 0, "v": 0, "m": 3}]}')
    with pytest.raises(GraphError):
        cp.parse_graph("not json")
    with pytest.raises(GraphError):
        cp.parse_graph('{"rank": 3, "edges": [{"u": 0, "v": 1, "m": 2}]}')
    with pytest.raises(GraphError):
        cp.parse_graph('{"rank": 3, "edges": [{"u": 0, "v": 1, "m": "inf", "c": 0.5}]}')
    with pytest.raises(GraphError):
        cp.parse_graph('{"rank": 3, "edges": [{"u": 0, "v": 3, "m": 3}]}')
    with pytest.raises(GraphError):
        cp.parse_graph(
            '{"rank": 3, "edges": [{"u": 0, "v": 1, "m": 3}, {"u": 1, "v": 0, "m": 3}]}'
        )
    with pytest.raises(GraphError):
        cp.parse_graph('{"rank": 3, "edges": [{"u": 0, "v": 1, "m": 3, "c": 1.5}]}')


def test_serialize_round_trip(fig1b, five_cycle, universal4):
    for g in (fig1b, five_cycle, universal4, cp.path_graph([3, 5])):
        assert cp.parse_graph(cp.serialize_graph(g)) == g
        assert cp.parse_compact(cp.to_compact(g)) == g
        assert cp.load_graph(cp.serialize_graph(g)) == g
        assert cp.load_graph(cp.to_compact(g)) == g


def test_compact_form():
    g = cp.parse_compact("n=4; 0-1:4 0-2:4 2-3:inf(1.1)")
    assert g.rank == 4
    assert g.label(2, 3).c == 1.1
    assert g.label(1, 3) is None
    with pytest.raises(GraphError):
        cp.parse_compact("0-1:4")
    with pytest.raises(GraphError):
        cp.parse_compact("n=4; 0-1:bogus")


def test_gram_matrix_examples(universal4, fig1b):
    b = cp.gram_matrix(cp.path_graph([3]))
    assert b[0, 1] == pytest.approx(-0.5)
    # all infinite bonds with weight 1: 2I - J
    n = 4
    assert np.allclose(universal4.gram, 2 * np.eye(n) - np.ones((n, n)))
    assert fig1b.gram[2, 3] == pytest.approx(-1.1)


def test_gram_symmetric_unit_diagonal(fig1b, five_cycle, universal4):
    for g in (fig1b, five_cycle, universal4, cp.complete_graph(5, 3)):
        b = g.gram
        assert np.array_equal(b, b.T)
        assert np.array_equal(np.diag(b), np.ones(g.rank))


def test_induced_subgraph(fig1a):
    g = cp.complete_graph(4, 3)
    assert cp.induced_subgraph(g, range(4)) == g
    tri = cp.induced_subgraph(g, [0, 1, 3])
    assert tri == cp.complete_graph(3, 3)
    # any two vertices of the rank-4 all-4 graph leave a single bond of order 4
    sub = cp.induced_subgraph(fig1a, [1, 3])
    assert sub.rank == 2 and sub.label(0, 1).m == 4
    with pytest.raises(GraphError):
        cp.induced_subgraph(g, [])
    with pytest.raises(GraphError):
        cp.induced_subgraph(g, [0, 7])


def test_subgraph_commutes_with_gram():
    g = cp.CoxeterGraph(
        5,
        (
            (0, 1, cp.EdgeLabel(3)),
            (1, 2, cp.EdgeLabel(5)),
            (2, 3, cp.EdgeLabel(None, 1.2)),
            (0, 4, cp.EdgeLabel(6)),
        ),
    )
    keep = [0, 2, 3]
    sub = cp.induced_subgraph(g, keep)
    assert np.allclose(sub.gram, g.gram[np.ix_(keep, keep)])


def _relabel(g, perm):
    return cp.CoxeterGraph(
        g.rank, tuple((perm[u], perm[v], lab) for u, v, lab in g.edges)
    )


def test_canonical_key_exhaustive_small():
    graphs = [
        cp.path_graph([3, 4, 5]),
        cp.cycle_graph([3, 3, 4, 6]),
        cp.complete_graph(4, 3),
        cp.CoxeterGraph(5, (
            (0, 1, cp.EdgeLabel(3)), (1, 2, cp.EdgeLabel(None, 1.3)),
            (1, 3, cp.EdgeLabel(4)), (3, 4, cp.EdgeLabel(4)),
        )),
    ]
    for g in graphs:
        key = cp.canonical_key(g)
        for perm in itertools.permutations(range(g.rank)):
            assert cp.canonical_key(_relabel(g, perm)) == key


def test_canonical_key_distinguishes():
    assert cp.canonical_key(cp.path_graph([3, 4])) == cp.canonical_key(cp.path_graph([4, 3]))
    k4 = cp.complete_graph(4, 3)
    k4_minus = cp.CoxeterGraph(4, k4.edges[:-1])
    assert cp.canonical_key(k4) != cp.canonical_key(k4_minus)
    # infinite bond with c = 1 differs from any finite bond
    assert cp.canonical_key(cp.path_graph([3])) != cp.canonical_key(
        cp.path_graph([("inf", 1.0)])
    )
    assert cp.canonical_key(cp.path_graph([("inf", 1.0)])) != cp.canonical_key(
        cp.path_graph([("inf", 1.25)])
    )


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            kind = draw(st.integers(min_value=0, max_value=3))
            if kind == 0:
                continue
            if kind == 3:
                c = draw(st.sampled_from([1.0, 1.1, 1.5]))
                edges.append((u, v, cp.EdgeLabel(None, c)))
            else:
                m = draw(st.integers(min_value=3, max_value=6))
                edges.append((u, v, cp.EdgeLabel(m)))
    return cp.CoxeterGraph(n, tuple(edges))


@settings(max_examples=60, deadline=None)
@given(labeled_graphs(), st.randoms(use_true_random=False))
def test_canonical_key_random_relabelings(g, rng):
    perm = list(range(g.rank))
    rng.shuffle(perm)
    assert cp.canonical_key(_relabel(g, perm)) == cp.canonical_key(g)


def _symmetric_families():
    inf, dotted = cp.EdgeLabel(None, 1.0), cp.EdgeLabel(None, 1.5)
    for n in range(1, 8):
        for lab in (3, 4, inf, dotted):
            yield cp.complete_graph(n, lab)
    for n in range(3, 10):
        yield cp.cycle_graph([3] * n)
        yield cp.cycle_graph([4, 5] * (n // 2) + [4] * (n % 2))
    for n in range(1, 9):
        for lab in (cp.EdgeLabel(3), inf):
            yield cp.CoxeterGraph(n + 1, tuple((0, v, lab) for v in range(1, n + 1)))
    for lab in (cp.EdgeLabel(3), dotted):
        yield cp.CoxeterGraph(5, tuple((u, v, lab) for u in (0, 1) for v in (2, 3, 4)))


@pytest.mark.parametrize("g", list(_symmetric_families()), ids=cp.to_compact)
def test_canonical_key_matches_reference_on_symmetric_families(g):
    """Complete graphs, cycles, stars and K_{2,3}: large automorphism groups."""
    assert cp.canonical_key(g) == reference_census.canonical_key(g)


def test_canonical_key_matches_reference_on_census(census_entries):
    """The census graphs and a random relabeling of each key as the reference keys them."""
    assert len(census_entries) == 326
    rng = random.Random(17)
    for e in census_entries:
        perm = list(range(e.rank))
        rng.shuffle(perm)
        for g in (e.graph, _relabel(e.graph, perm)):
            assert cp.canonical_key(g) == reference_census.canonical_key(g) == e.key


ORACLE_LABELS = tuple(cp.EdgeLabel(m) for m in range(3, 8)) + tuple(
    cp.EdgeLabel(None, c) for c in (1.0, 1.5, 3.0)
)


@st.composite
def oracle_graphs(draw):
    """Rank 1-9; each pair has no edge, a label 3-7, inf, or a dotted label."""
    n = draw(st.integers(min_value=1, max_value=9))
    density = draw(st.sampled_from((0.2, 0.5, 0.9)))
    labels = draw(st.lists(st.sampled_from(ORACLE_LABELS), min_size=1, max_size=4, unique=True))
    edges = [
        (u, v, draw(st.sampled_from(labels)))
        for u, v in itertools.combinations(range(n), 2)
        if draw(st.floats(0.0, 1.0)) < density
    ]
    return cp.CoxeterGraph(n, tuple(edges))


@settings(max_examples=150, deadline=None)
@given(oracle_graphs(), st.randoms(use_true_random=False))
def test_canonical_key_matches_reference(g, rng):
    perm = list(range(g.rank))
    rng.shuffle(perm)
    for h in (g, _relabel(g, perm)):
        assert cp.canonical_key(h) == reference_census.canonical_key(h)


def test_graph_to_dict_defaults():
    g = cp.path_graph([("inf", 1.0)])
    doc = graph_to_dict(g)
    assert doc["edges"][0] == {"u": 0, "v": 1, "m": "inf"}
