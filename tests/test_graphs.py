import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxpack as cp
from coxpack import graphs
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
    for c in (math.inf, math.nan):
        with pytest.raises(GraphError):
            cp.EdgeLabel(None, c)
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
    # a bool is an int to isinstance, but to_compact would write it as False/True
    for u, v in ((True, False), (0, True)):
        with pytest.raises(GraphError, match="vertex ids"):
            cp.CoxeterGraph(2, ((u, v, 3),))


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
    with pytest.raises(GraphError):  # json reads 1e400 as inf
        cp.parse_graph('{"rank": 3, "edges": [{"u": 0, "v": 1, "m": "inf", "c": 1e400}]}')
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
    with pytest.raises(GraphError):
        cp.parse_compact("n=2; 0-1:inf(inf)")


def test_gram_matrix_examples(universal4, fig1b):
    b = cp.path_graph([3]).gram
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
    examples = [
        cp.path_graph([3, 4, 5]),
        cp.cycle_graph([3, 3, 4, 6]),
        cp.complete_graph(4, 3),
        cp.CoxeterGraph(5, (
            (0, 1, cp.EdgeLabel(3)), (1, 2, cp.EdgeLabel(None, 1.3)),
            (1, 3, cp.EdgeLabel(4)), (3, 4, cp.EdgeLabel(4)),
        )),
    ]
    for g in examples:
        relabeled = [_relabel(g, perm) for perm in itertools.permutations(range(g.rank))]
        assert set(cp.canonical_keys(relabeled)) == {cp.canonical_key(g)}


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
    key, relabeled = cp.canonical_keys([g, _relabel(g, perm)])
    assert relabeled == key


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
    gs, want = [], []
    for e in census_entries:
        perm = list(range(e.rank))
        rng.shuffle(perm)
        for g in (e.graph, _relabel(e.graph, perm)):
            gs.append(g)
            want.append(reference_census.canonical_key(g))
            assert want[-1] == e.key
    assert cp.canonical_keys(gs) == want


ORACLE_LABELS = tuple(cp.EdgeLabel(m) for m in range(3, 8)) + tuple(
    cp.EdgeLabel(None, c) for c in (1.0, 1.5, 3.0)
)


@st.composite
def oracle_graphs(draw, max_rank=9):
    """Rank 1 to max_rank; each pair has no edge, a label 3-7, inf, or a dotted label."""
    n = draw(st.integers(min_value=1, max_value=max_rank))
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
    pair = [g, _relabel(g, perm)]
    assert cp.canonical_keys(pair) == [reference_census.canonical_key(h) for h in pair]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_token_keys_cut_from_one_join(data):
    """Keys cut from one join of a call's encodings equal each least leaf's
    own "|".join, for multi-character texts (some of several bytes) and up to
    300 distinct tokens, at _KEY_BLOCK 1, at a drawn block size and at the
    default."""
    n = data.draw(st.integers(1, 8), label="rank")
    count = data.draw(st.integers(1, 12), label="graphs")
    tokens = data.draw(st.integers(1, 300), label="tokens")
    texts = data.draw(
        st.lists(st.text("mi.0123456789é", min_size=1, max_size=6), min_size=tokens,
                 max_size=tokens, unique=True),
        label="texts",
    ) + ["-"]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    codes = np.where(rng.random((count, n, n)) < 0.6, rng.integers(0, tokens, (count, n, n)), tokens)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    tok = np.where(upper, codes, codes.transpose(0, 2, 1)).astype(np.int16)
    tok[:, np.arange(n), np.arange(n)] = tokens
    want = [
        f"{n}:{'|'.join(texts[t] for t in enc.tolist())}".encode()
        for enc in graphs._KeySearch(tok.astype(np.int64), tokens).least_leaves()
    ]
    for block in (1, data.draw(st.integers(1, count), label="key block"), graphs._KEY_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_KEY_BLOCK", block)
            assert graphs._token_keys(tok, texts) == want


@settings(max_examples=25, deadline=None)
@given(st.lists(oracle_graphs(), max_size=8), st.randoms(use_true_random=False))
def test_canonical_keys_in_input_order(gs, rng):
    """Mixed ranks, rank 1 and repeats: one batched call keys each graph as a call of its own."""
    gs = gs + [cp.CoxeterGraph(1), *rng.sample(gs, min(3, len(gs)))]
    rng.shuffle(gs)
    assert cp.canonical_keys(gs) == [cp.canonical_key(g) for g in gs]
    assert cp.canonical_keys([]) == []


@settings(max_examples=50, deadline=None)
@given(oracle_graphs(max_rank=7))
def test_sibling_pruning_keeps_the_key(g):
    """With every sibling kept (no first-path pruning) the least leaf is the same."""
    key = cp.canonical_key(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_first_siblings", lambda parent, enc, bits: np.arange(len(parent)))
        assert cp.canonical_key(g) == key


def test_first_child_takes_its_parents_dive_leaf():
    """Each leaf a first child takes from its parent is the leaf its own dive reaches."""
    take, taken = graphs._KeySearch.dive_leaves, []

    def checking(self, kids, owner, parent, dived):
        leaves = take(self, kids, owner, parent, dived)
        assert leaves.tobytes() == self.dive(kids, owner).tobytes()
        taken.append(dived is not None)
        return leaves

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs._KeySearch, "dive_leaves", checking)
        cp.canonical_keys(list(_symmetric_families()))
        cp.canonical_key(SYMMETRIC_KEYS["8 disjoint triangles"][0])
    assert any(taken)


@pytest.mark.parametrize("first, second", [(3, 19), (5, 37), (0, 32)])
def test_canonical_keys_with_few_children_of_far_apart_graphs(first, second):
    """Two symmetric graphs among many discrete at the root, keyed in one call.

    Their few children have parents far apart in the block (indices congruent
    mod 8 and mod 32), which must not merge them into one sibling group.
    """
    rng = random.Random(first)
    gs = []
    while len(gs) < 40:
        labels = [rng.choice((3, 4, 5, 6)) for _ in range(7)]
        if labels != labels[::-1]:  # an asymmetric path: discrete after refinement
            gs.append(cp.path_graph(labels))
    gs[first] = cp.path_graph([3] * 7)
    gs[second] = _relabel(cp.path_graph([3] * 7), [7, 2, 5, 0, 3, 6, 1, 4])
    want = [reference_census.canonical_key(g) for g in gs]
    assert cp.canonical_keys(gs) == want
    assert [cp.canonical_key(g) for g in gs] == want


def test_lex_order_refuses_keys_wider_than_int64():
    with pytest.raises(ValueError, match="do not pack"):
        graphs._lex_order(np.arange(4), np.zeros((4, 2), dtype=np.int64), 58)


def _disjoint(copies, h):
    """`copies` disjoint copies of the graph h."""
    edges = tuple((i * h.rank + u, i * h.rank + v, lab) for i in range(copies) for u, v, lab in h.edges)
    return cp.CoxeterGraph(copies * h.rank, edges)


def _runs(key: str) -> bytes:
    """A key written as runs: 'n:' then 'part*count' items joined by '|'."""
    head, body = key.split(":")
    parts = []
    for item in body.split("|"):
        part, count = item.split("*")
        parts += [part] * int(count)
    return f"{head}:{'|'.join(parts)}".encode()


# keys of graphs with large automorphism groups, as runs of equal parts; computed
# with reference_census.canonical_key, which is too slow on the star for Tier-1
SYMMETRIC_KEYS = {
    "star of rank 32": (
        cp.CoxeterGraph(32, tuple((0, v, cp.EdgeLabel(3)) for v in range(1, 32))),
        "32:m3*31|-*465",
    ),
    "16 disjoint edges": (
        _disjoint(16, cp.path_graph([3])),
        "32:m3*1|-*60|m3*1|-*56|m3*1|-*52|m3*1|-*48|m3*1|-*44|m3*1|-*40|m3*1|-*36|m3*1|-*32"
        "|m3*1|-*28|m3*1|-*24|m3*1|-*20|m3*1|-*16|m3*1|-*12|m3*1|-*8|m3*1|-*4|m3*1",
    ),
    "8 disjoint triangles": (
        _disjoint(8, cp.complete_graph(3, 3)),
        "24:m3*2|-*21|m3*1|-*42|m3*2|-*18|m3*1|-*36|m3*2|-*15|m3*1|-*30|m3*2|-*12|m3*1|-*24"
        "|m3*2|-*9|m3*1|-*18|m3*2|-*6|m3*1|-*12|m3*2|-*3|m3*1|-*6|m3*3",
    ),
    "K12": (cp.complete_graph(12, 3), "12:m3*66"),
}


@pytest.mark.parametrize("name", list(SYMMETRIC_KEYS))
def test_canonical_key_of_symmetric_graphs(name):
    """Literal keys, in a bounded number of refined node rows, so a lost pruning fails fast."""
    g, want = SYMMETRIC_KEYS[name]
    refine, rows = graphs._KeySearch.refine, []

    def bounded(self, colors, cells, owner):
        rows.append(len(colors))
        if sum(rows) > 20_000:
            raise AssertionError(f"more than 20,000 node rows refined for the {name}")
        return refine(self, colors, cells, owner)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs._KeySearch, "refine", bounded)
        assert cp.canonical_key(g) == _runs(want)


def test_graph_to_dict_defaults():
    g = cp.path_graph([("inf", 1.0)])
    doc = graph_to_dict(g)
    assert doc["edges"][0] == {"u": 0, "v": 1, "m": "inf"}
