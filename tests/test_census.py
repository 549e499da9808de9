import math
import random
import re
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxpack as cp
from coxpack import census, forms
from coxpack.cli import main
from coxpack.forms import minors_psd
from coxpack.census import (
    ADMISSIBLE_LABELS,
    Family,
    _catalog_level01,
    _deletion_tables,
    _family_survivors,
    _gram_stack,
    _is_cycle,
    _is_path,
    _is_tailed_cycle,
    _is_tree,
    _joined,
    _labeled,
    _labels,
    _leaves,
    _nomination_batches,
    _rank_survivors,
    _specials,
    census_report,
    enumerate_level1,
    enumerate_level2,
    nominate,
)
from reference_census import filter_level2, filter_level2_arrays

TOLS = (5e-4, 1e-3, 2e-3)


@pytest.fixture(scope="module")
def level1():
    return enumerate_level1(10)


@pytest.fixture(scope="module")
def level1_5():
    """The level-1 catalog enumerate_level2(max_rank=6) nominates from."""
    return enumerate_level1(5)


def test_shape_predicates():
    assert _is_tree(cp.path_graph([3, 3, 3]))
    assert _is_path(cp.path_graph([3, 3, 3]))
    assert not _is_path(
        cp.CoxeterGraph(4, (
            (0, 1, cp.EdgeLabel(3)), (0, 2, cp.EdgeLabel(3)), (0, 3, cp.EdgeLabel(3)),
        ))
    )
    assert _is_cycle(cp.cycle_graph([3, 4, 3, 4]))
    tailed = cp.CoxeterGraph(4, (
        (0, 1, cp.EdgeLabel(3)), (1, 2, cp.EdgeLabel(3)),
        (0, 2, cp.EdgeLabel(3)), (2, 3, cp.EdgeLabel(4)),
    ))
    assert _is_tailed_cycle(tailed)
    assert not _is_tailed_cycle(cp.cycle_graph([3, 3, 3]))


def test_specials_are_level1():
    k4, k4e, k23 = _specials()
    assert cp.level(k4) == 1
    assert cp.level(k4e) == 1
    assert cp.level(k23) == 1
    assert len(k4.edges) == 6 and len(k4e.edges) == 5 and len(k23.edges) == 6


def test_relabeled_specials_never_level1():
    """Changing any bond of a special graph to 4, 5 or 6 breaks level 1."""
    for base in _specials():
        for i, (u, v, _) in enumerate(base.edges):
            for m in (4, 5, 6):
                edges = list(base.edges)
                edges[i] = (u, v, cp.EdgeLabel(m))
                g = cp.CoxeterGraph(base.rank, tuple(edges))
                assert cp.level(g) != 1


def test_enumerate_level1_contents(level1):
    keys = {cp.canonical_key(g) for g in level1}
    assert cp.canonical_key(_specials()[0]) in keys  # K4 qualifies
    # finite and affine shapes are filtered out
    assert cp.canonical_key(cp.path_graph([3, 3, 3])) not in keys
    assert cp.canonical_key(cp.cycle_graph([3, 3, 3])) not in keys
    assert all(cp.level(g) == 1 for g in level1)
    assert len(keys) == len(level1)
    assert all(g.rank <= 10 for g in level1)


def _reference_catalog(max_n, labels, zero_tol):
    """The level-1 catalog built one candidate at a time: one key and one level each."""
    labs = [cp.EdgeLabel(m) for m in labels]
    l0_trees = {1: [cp.CoxeterGraph(1)]}
    l1_trees = []
    for k in range(1, max_n):
        grown = []
        seen = set()
        for base in l0_trees[k]:
            for v in range(k):
                for lab in labs:
                    cand = _labeled(*_joined(base, v), [lab])
                    key = cp.canonical_key(cand)
                    if key in seen:
                        continue
                    seen.add(key)
                    lv = cp.level(cand, zero_tol)
                    if lv == 0:
                        grown.append(cand)
                    elif lv == 1:
                        l1_trees.append(cand)
        l0_trees[k + 1] = grown

    l0_paths = {k: [t for t in trees if _is_path(t)] for k, trees in l0_trees.items()}

    l1_cycles = []
    for k in range(2, max_n):
        seen = set()
        for base in l0_paths[k]:
            ends = _leaves(base)
            for lab1, lab2 in product(labs, repeat=2):
                cand = _labeled(*_joined(base, *ends), [lab1, lab2])
                key = cp.canonical_key(cand)
                if key in seen:
                    continue
                seen.add(key)
                if cp.level(cand, zero_tol) == 1:
                    l1_cycles.append(cand)

    l1_tailed = []
    for m in range(3, max_n):
        base = cp.cycle_graph([3] * m)
        for lab in labs:
            cand = _labeled(*_joined(base, 0), [lab])
            if cp.level(cand, zero_tol) == 1:
                l1_tailed.append(cand)

    return l0_trees, l1_trees, l1_cycles, l1_tailed


@pytest.mark.parametrize("tol", TOLS)
def test_catalog_matches_per_candidate_reference(level1, tol):
    """Stacked level decisions keep the same catalog graphs, in the same order."""

    def compact(groups):
        return [[cp.to_compact(g) for g in gs] for gs in groups]

    l0_trees, *rest = _reference_catalog(10, ADMISSIBLE_LABELS, tol)
    want = [*l0_trees.values(), *rest]
    l0_trees, l1_trees, l1_cycles, l1_tailed = _catalog_level01(10, ADMISSIBLE_LABELS, tol)
    # the level-1 trees and cycles come keyed by their own canonical keys
    for keyed in (l1_trees, l1_cycles):
        assert list(keyed) == [cp.canonical_key(g) for g in keyed.values()]
    got = [*l0_trees.values(), l1_trees.values(), l1_cycles.values(), l1_tailed]
    assert compact(got) == compact(want)
    got = [cp.to_compact(g) for g in enumerate_level1(10, zero_tol=tol)]
    assert got == [cp.to_compact(g) for g in level1]
    assert len(got) == 96


def test_enumerate_level1_validation():
    with pytest.raises(ValueError):
        enumerate_level1(11)
    with pytest.raises(ValueError):
        enumerate_level1(10, labels=(3, 4, 5, 6, 7))


@pytest.mark.parametrize("kwargs", [{"max_rank": 4}, {"max_rank": 12}])
def test_enumerate_level2_validation(kwargs):
    with pytest.raises(ValueError):
        enumerate_level2(**kwargs)


def test_nominate_from_k4(level1):
    cands = list(nominate(Family.FROM_K4, level1))
    assert len(cands) == 624  # sum over nonempty subsets of 4^|subset|
    assert all(g.rank == 5 for g in cands)


def test_nominate_two_cycles_has_butterfly(level1):
    found = False
    for g in nominate(Family.TWO_CYCLES, level1):
        degs = sorted(g.degree(v) for v in range(g.rank))
        if g.rank == 5 and degs == [2, 2, 2, 2, 4]:
            found = True
            break
    assert found


def test_nominate_tree_count(level1):
    trees = [g for g in level1 if _is_tree(g)]
    t = trees[0]
    cands = [g for g in nominate(Family.TREE, [t])]
    assert len(cands) == t.rank * 4


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_gram_stacks_match_nominate(level1_5, family):
    """The batches' Gram stacks are the candidates' Gram matrices, bitwise and in order,
    and the memoized survivors are the reference filter's at every tolerance."""
    labs = _labels(ADMISSIBLE_LABELS)
    batches = list(_nomination_batches(family, level1_5))
    graphs = [g for g in nominate(family, level1_5) if 5 <= g.rank <= 6]
    for n in (5, 6):
        want = [g.gram for g in graphs if g.rank == n]
        group = [b for b in batches if b[0].rank == n]
        if not group:
            assert not want
            continue
        got = _gram_stack(group, labs)
        assert got.shape == (len(want), n, n)
        assert got.tobytes() == np.stack(want).tobytes()
    # survivors are rebuilt as the same graphs, in the same order
    for tol in TOLS:
        assert _family_survivors(family, level1_5, labs, 6, tol) == filter_level2(graphs, tol)


@st.composite
def batches_of_rank(draw, n):
    """A batch on n vertices: a few free pairs over a base with some fixed edges."""
    pairs = list(combinations(range(n), 2))
    free = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True))
    free = tuple(p if draw(st.booleans()) else p[::-1] for p in free)
    rest = [p for p in pairs if p not in free and p[::-1] not in free]
    fixed = draw(st.lists(st.sampled_from(rest), max_size=n, unique=True))
    marks = draw(st.lists(st.sampled_from(ADMISSIBLE_LABELS), min_size=len(fixed),
                          max_size=len(fixed)))
    return cp.CoxeterGraph(n, tuple((u, v, cp.EdgeLabel(m)) for (u, v), m in zip(fixed, marks))), free


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_survivors_match_reference_filter(data):
    """Batches of one rank decided together, in table blocks that cross batch
    boundaries, keep the members the per-candidate filter keeps, at every tolerance."""
    n = data.draw(st.integers(5, 8), label="rank")
    batches = data.draw(st.lists(batches_of_rank(n), min_size=2, max_size=4), label="batches")
    labs = _labels(ADMISSIBLE_LABELS)
    values = np.array([lab.gram_entry() for lab in labs])
    rows = sum(len(_deletion_tables(base, pairs, len(labs))[1]) for base, pairs in batches)
    chunk = data.draw(st.integers(1, rows - 1), label="block rows")
    grams = _gram_stack(batches, labs)
    first = np.cumsum([0] + [len(labs) ** len(pairs) for _, pairs in batches])
    for tol in TOLS:
        with mock.patch.object(census, "_EIG_CHUNK", chunk):
            got = _rank_survivors(batches, values, tol)
        assert all(codes.dtype == np.int8 for codes in got)
        members = [
            lo + codes @ len(labs) ** np.arange(len(pairs))[::-1]
            for lo, codes, (_, pairs) in zip(first, got, batches)
        ]
        want = filter_level2_arrays(grams, tol)
        assert np.concatenate(members).tolist() == want.tolist()


def test_empty_batch_sends_no_rows_to_one_vertex_stage(monkeypatch):
    """A batch whose members all fail a two-vertex deletion adds no rows to the
    one-vertex stage, which decides the other batch's members left."""
    sent = []
    kernel = census.minors_psd

    def counting(grams, k, zero_tol):
        sent.append((k, len(grams)))
        return kernel(grams, k, zero_tol)

    # deleting vertices 0 and 1 leaves the hyperbolic triangle 2-3-4 (bonds 4)
    four = cp.EdgeLabel(4)
    empty = (cp.CoxeterGraph(5, ((2, 3, four), (2, 4, four), (3, 4, four))), ((0, 1), (0, 2)))
    live = _joined(_specials()[0], 0, 1)
    labs = _labels(ADMISSIBLE_LABELS)
    values = np.array([lab.gram_entry() for lab in labs])
    left = int(minors_psd(_gram_stack([live], labs), 2, 1e-3).sum())
    assert left

    monkeypatch.setattr(census, "minors_psd", counting)
    for batches in ([empty], [empty, live], [live, empty]):
        sent.clear()
        got = _rank_survivors(batches, values, 1e-3)
        assert [codes.shape for codes, b in zip(got, batches) if b is empty] == [(0, 2)]
        ones = [size for k, size in sent if k == 1]
        assert ones == [0 if batches == [empty] else left]
        assert {k for k, _ in sent} == {0, 1}


def test_census_kernel_work_bound(monkeypatch):
    """Matrices and calls sent to eigvalsh by enumerate_level2(max_rank=8).

    One minor per candidate and deletion is 1,271,785; the two-vertex
    deletion tables leave 92,172.  Deciding each family's tables of one rank
    in blocks, and verifying each rank's survivors on one stack, takes 109
    calls (one minors_psd call per deletion and batch took 9,734).  With the
    Cholesky screen on every stack, however small, no matrix reaches
    eigvalsh at any of the three tolerances: every census decision is
    certified at a margin of tol/2.
    """
    matrices, calls = [0], [0]
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        low = eigvalsh(a)
        matrices[0] += math.prod(low.shape[:-1])
        calls[0] += 1
        return low

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert len(enumerate_level2(max_rank=8)) == 304
    assert matrices[0] < 120_000
    assert calls[0] < 400

    monkeypatch.setattr(forms, "_SCREEN_MIN", 1)
    for tol in TOLS:
        matrices[0] = 0
        assert len(enumerate_level2(max_rank=8, zero_tol=tol)) == 304
        assert matrices[0] == 0


NOMINATED_AT_RANK11 = {
    Family.FROM_K4: 624,
    Family.FROM_K4_MINUS_E: 624,
    Family.FROM_K23: 3_124,
    Family.TWO_CYCLES: 372_736,
    Family.CYCLE: 272,
    Family.CYCLE_TAIL1: 1_304,
    Family.CYCLE_TAIL2: 40,
    Family.CYCLE_TWO_TAILS: 184,
    Family.TREE: 1_000,
}


def test_nomination_counts_at_rank11(level1):
    batches = {
        f: [b for b in _nomination_batches(f, level1) if 5 <= b[0].rank <= 11] for f in Family
    }
    counts = {f: sum(4 ** len(pairs) for _, pairs in bs) for f, bs in batches.items()}
    assert counts == NOMINATED_AT_RANK11
    assert sum(counts.values()) == 379_908
    assert sum(map(len, batches.values())) == 525
    # the two-vertex-deletion tables over the free pairs each deletion keeps
    rows = sum(
        4 ** sum(1 for pair in pairs if not set(pair) & set(drop))
        for bs in batches.values()
        for base, pairs in bs
        for drop in combinations(range(base.rank), 2)
    )
    assert rows == 76_858


@pytest.mark.parametrize(
    "pairs",
    [((0, 4), (0, 4)), ((0, 1),), ((4, 4),), ((0, 5),), ((-1, 4),)],
    ids=["duplicate pair", "duplicate of a base edge", "self-loop", "out of range", "negative"],
)
def test_gram_stack_rejects_malformed_batch(pairs):
    base = cp.CoxeterGraph(5, ((0, 1, cp.EdgeLabel(3)),))
    with pytest.raises(cp.GraphError):
        _gram_stack([(base, pairs)], _labels(ADMISSIBLE_LABELS))


def test_census_builds_graphs_only_for_survivors(monkeypatch, level1_5):
    """Rejected candidates (51,160 nominated at max_rank 6) never become graphs."""
    n_batches = sum(1 for f in Family for _ in _nomination_batches(f, level1_5))
    counts = {"graphs": 0, "survivors": 0}
    init, survivors = cp.CoxeterGraph.__post_init__, census._family_survivors

    def counting_init(self):
        counts["graphs"] += 1
        init(self)

    def counting_survivors(*args):
        out = survivors(*args)
        counts["survivors"] += len(out)
        return out

    monkeypatch.setattr(census, "enumerate_level1", lambda *args: level1_5)
    monkeypatch.setattr(census, "_family_survivors", counting_survivors)
    monkeypatch.setattr(cp.CoxeterGraph, "__post_init__", counting_init)
    assert len(enumerate_level2(max_rank=6)) == 255
    # each batch builds its base and its validated first member, and each
    # special-graph family builds the three special graphs once
    assert counts["graphs"] <= 2 * n_batches + 3 * 3 + counts["survivors"]


def test_census_rejects_a_survivor_of_level_1(monkeypatch, level1_5, tmp_path, capsys):
    """A survivor that is not of level 2 stops the census, naming the graph."""
    bad = next(g for g in level1_5 if g.rank == 5)
    survivors = census._family_survivors

    def injected(family, *args):
        out = survivors(family, *args)
        return out[:3] + [bad] + out[3:] if family is Family.TREE else out

    monkeypatch.setattr(census, "enumerate_level1", lambda *args: level1_5)
    monkeypatch.setattr(census, "_family_survivors", injected)
    with pytest.raises(cp.InconsistencyError, match=re.escape(cp.to_compact(bad))):
        enumerate_level2(max_rank=6)
    assert main(["enum", "--max-rank", "6", "--out", str(tmp_path / "census.csv")]) == 3
    assert cp.to_compact(bad) in capsys.readouterr().err


def test_filter_level2_agrees_with_direct_level(level1):
    cands = [g for g in nominate(Family.FROM_K23, level1) if g.rank >= 5]
    fast = {cp.canonical_key(g) for g in filter_level2(cands, 1e-3)}
    slow = {cp.canonical_key(g) for g in cands if cp.level(g) == 2}
    assert fast == slow


def test_census_rank5_slice():
    entries = enumerate_level2(max_rank=5)
    assert len(entries) == 189  # frozen from the verified full run
    assert all(e.rank == 5 for e in entries)


def test_census_entries_verified(census_entries):
    assert len(census_entries) == len({e.key for e in census_entries})
    sample = random.Random(5).sample(census_entries, 12)
    for e in sample:
        assert cp.level(e.graph) == 2
        assert 5 <= e.rank <= 11
        assert e.n_imaginary + e.n_real + e.n_surreal == e.rank
        assert e.graph.is_connected()


def test_census_labels_admissible(census_entries):
    for e in census_entries:
        for _, _, lab in e.graph.edges:
            assert lab.m in ADMISSIBLE_LABELS


def test_census_closure(census_entries):
    """Deleting any vertex leaves components of level at most 1."""
    sample = random.Random(9).sample(census_entries, 10)
    for e in sample:
        g = e.graph
        for v in range(g.rank):
            rest = [u for u in range(g.rank) if u != v]
            sub = cp.induced_subgraph(g, rest)
            for comp in _components(sub):
                assert cp.level(cp.induced_subgraph(sub, comp)) <= 1


def _components(g):
    unseen = set(range(g.rank))
    comps = []
    while unseen:
        stack = [unseen.pop()]
        comp = {stack[0]}
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in unseen:
                    unseen.remove(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def test_census_11_vertices_are_trees(census_entries):
    elevens = [e for e in census_entries if e.rank == 11]
    assert elevens and all(_is_tree(e.graph) for e in elevens)
    assert any(e.rank == 10 for e in census_entries)


def test_dedup_stable_under_candidate_shuffle(level1):
    """The admitted key set cannot depend on nomination order."""
    cands = [g for g in nominate(Family.FROM_K4_MINUS_E, level1) if g.rank >= 5]
    ordered = {cp.canonical_key(g) for g in filter_level2(cands, 1e-3)}
    shuffled = cands[:]
    random.Random(3).shuffle(shuffled)
    assert {cp.canonical_key(g) for g in filter_level2(shuffled, 1e-3)} == ordered


def test_census_contains_butterfly(census_entries):
    """Two triangles sharing a vertex survive recognition with some labeling."""
    hits = [
        e
        for e in census_entries
        if e.rank == 5
        and sorted(e.graph.degree(v) for v in range(5)) == [2, 2, 2, 2, 4]
    ]
    assert hits


def test_census_frames_valid(census_entries):
    import numpy as np

    from coxpack.balls import lorentz_frame

    for e in census_entries:
        b = e.graph.gram
        frame = lorentz_frame(b)
        n = e.rank
        target = np.diag([1.0] * (n - 1) + [-1.0])
        assert np.abs(frame.basis_change.T @ b @ frame.basis_change - target).max() <= 1e-9


def test_census_report(census_entries):
    rep = census_report(census_entries)
    assert rep.total == len(census_entries)
    assert sum(rep.by_family_rank.values()) == rep.total
    assert set(rep.rank_histogram()) <= set(range(5, 12))
    assert rep.strict_total == sum(1 for e in census_entries if e.strict)
    assert rep.class_totals == (
        sum(e.n_imaginary for e in census_entries),
        sum(e.n_real for e in census_entries),
        sum(e.n_surreal for e in census_entries),
    )


def test_entry_roles_match_classifier(census_entries):
    from collections import Counter

    from coxpack.tangency import VertexClass, classify_weight_norm

    for e in census_entries:
        _, norms = cp.fundamental_weights(e.graph.gram)
        roles = Counter(classify_weight_norm(norm, level2=True) for norm in norms)
        assert (e.n_imaginary, e.n_real, e.n_surreal) == (
            roles[VertexClass.IMAGINARY],
            roles[VertexClass.REAL],
            roles[VertexClass.SURREAL],
        )
