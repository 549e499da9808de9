import functools
import math
import random
import re
import tracemalloc
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
    _code_stack,
    _gram_stack,
    _graphs,
    _grown,
    _is_cycle,
    _is_path,
    _is_tailed_cycle,
    _is_tree,
    _joined,
    _leaves,
    _nomination_batches,
    _rank_survivors,
    _specials,
    _stacked,
    _survivors,
    census_report,
    enumerate_level1,
    enumerate_level2,
)
from reference_census import canonical_key, filter_level2, filter_level2_arrays, labeled, nominate


@functools.cache
def _reference_key(rank, edges):
    """reference_census.canonical_key, computed once per graph for all tolerances."""
    return canonical_key(cp.CoxeterGraph(rank, edges))


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
    keys = set(cp.canonical_keys(level1))
    k4, path, cycle = cp.canonical_keys(
        [_specials()[0], cp.path_graph([3, 3, 3]), cp.cycle_graph([3, 3, 3])]
    )
    assert k4 in keys  # K4 qualifies
    # finite and affine shapes are filtered out
    assert path not in keys and cycle not in keys
    assert all(cp.level(g) == 1 for g in level1)
    assert len(keys) == len(level1)
    assert all(g.rank <= 10 for g in level1)


def _reference_catalog(max_n, labels, zero_tol):
    """The level-1 catalog built one candidate at a time: one reference key and one level each."""
    codes = [ADMISSIBLE_LABELS.index(m) for m in labels]
    l0_trees = {1: [cp.CoxeterGraph(1)]}
    l1_trees = []
    for k in range(1, max_n):
        grown = []
        seen = set()
        for base in l0_trees[k]:
            for v in range(k):
                for code in codes:
                    cand = labeled(*_joined(_grown(base), v), [code])
                    key = _reference_key(cand.rank, cand.edges)
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
            for pair_codes in product(codes, repeat=2):
                cand = labeled(*_joined(_grown(base), *ends), pair_codes)
                key = _reference_key(cand.rank, cand.edges)
                if key in seen:
                    continue
                seen.add(key)
                if cp.level(cand, zero_tol) == 1:
                    l1_cycles.append(cand)

    l1_tailed = []
    for m in range(3, max_n):
        base = cp.cycle_graph([3] * m)
        for code in codes:
            cand = labeled(*_joined(_grown(base), 0), [code])
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
    l0_trees, l1_trees, l1_cycles, l1_tailed, specials = _catalog_level01(10, tol, _specials())
    # the level-0 trees come as label codes, the level-1 graphs and the specials keyed by their
    # own keys, the specials in the key searches of the catalog's steps of ranks 4 and 5
    assert all(stack.shape[1:] == (k, k) for k, stack in l0_trees.items())
    for keyed in (l1_trees, l1_cycles, l1_tailed, specials):
        assert list(keyed) == cp.canonical_keys(list(keyed.values()))
    assert list(specials.values()) == _specials()
    got = [*map(_graphs, l0_trees.values()), l1_trees.values(), l1_cycles.values(),
           l1_tailed.values()]
    assert compact(got) == compact(want)
    got = [cp.to_compact(g) for g in enumerate_level1(10, zero_tol=tol)]
    assert got == [cp.to_compact(g) for g in level1]
    assert len(got) == 96


def test_enumerate_level1_up_to_each_rank(level1):
    """enumerate_level1(n) is the catalog's graphs of rank <= n, in the same
    order, for every n: a special graph comes with its rank's step or not at all."""
    for n in range(2, 10):
        assert enumerate_level1(n) == [g for g in level1 if g.rank <= n]


def test_enumerate_level1_validation():
    with pytest.raises(ValueError):
        enumerate_level1(11)


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


@pytest.fixture(scope="module")
def survivors_6(level1_5):
    """The survivors of enumerate_level2(max_rank=6) at each tolerance, as (family, graph) pairs."""
    return {
        tol: [(f, g) for families, stack in _survivors(level1_5, 6, tol)
              for f, g in zip(families, _graphs(stack), strict=True)]
        for tol in TOLS
    }


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_gram_stacks_match_nominate(level1_5, survivors_6, family):
    """The Gram stack of each shape's batches is the candidates' Gram matrices,
    bitwise and in order, and the family's tagged survivors are the reference
    filter's at every tolerance."""
    batches = [b for b in _nomination_batches(family, level1_5) if b[0].rank in (5, 6)]
    graphs = list(nominate(family, level1_5, range(5, 7)))
    sizes = [4 ** len(pairs) for _, pairs in batches]
    assert sum(sizes) == len(graphs)
    first = np.cumsum([0] + sizes)
    for shape in sorted({(base.rank, len(pairs)) for base, pairs in batches}):
        group = [i for i, (base, pairs) in enumerate(batches) if (base.rank, len(pairs)) == shape]
        want = [g.gram for i in group for g in graphs[first[i] : first[i + 1]]]
        got, _ = _gram_stack([batches[i] for i in group])
        assert got.shape == (len(want), shape[0], shape[0])
        assert got.tobytes() == np.stack(want).tobytes()
    # survivors rebuilt from their label codes are the same graphs, rank by rank in the same order
    for tol in TOLS:
        got = [g for f, g in survivors_6[tol] if f is family]
        assert got == sorted(filter_level2(graphs, tol), key=lambda g: g.rank)


@st.composite
def batches_of_rank(draw, n, max_pairs=5, min_pairs=1):
    """A batch on n vertices: a few free pairs over a base with some fixed edges."""
    pairs = list(combinations(range(n), 2))
    free = draw(st.lists(st.sampled_from(pairs), min_size=min_pairs, max_size=max_pairs, unique=True))
    free = tuple(p if draw(st.booleans()) else p[::-1] for p in free)
    rest = [p for p in pairs if p not in free and p[::-1] not in free]
    fixed = draw(st.lists(st.sampled_from(rest), max_size=n, unique=True))
    marks = draw(st.lists(st.sampled_from(ADMISSIBLE_LABELS), min_size=len(fixed),
                          max_size=len(fixed)))
    return cp.CoxeterGraph(n, tuple((u, v, cp.EdgeLabel(m)) for (u, v), m in zip(fixed, marks))), free


def table_rows(batches) -> int:
    """Rows of every two-vertex deletion's table: radix ** (free pairs it keeps)."""
    n = batches[0][0].rank
    return sum(
        len(ADMISSIBLE_LABELS) ** sum(u in keep and v in keep for u, v in pairs)
        for _, pairs in batches
        for keep in map(set, combinations(range(n), n - 2))
    )


def rank_survivors(batches, zero_tol):
    """_rank_survivors on the batches' arrays, its members split into one code array per batch."""
    b, codes = _rank_survivors(*_stacked(batches), zero_tol)
    assert (np.diff(b) >= 0).all()
    return np.split(codes, np.searchsorted(b, np.arange(1, len(batches))))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_survivors_match_reference_filter(data):
    """Batches of one shape (rank and free-pair count), decided together in
    waves and in table blocks that cross batch boundaries, keep the members
    the per-candidate filter keeps, at every tolerance.  Batches of 6 free
    pairs have members that die early, so later waves skip their rows."""
    n = data.draw(st.integers(5, 8), label="rank")
    k = data.draw(st.integers(1, 6), label="free pairs")
    batch = batches_of_rank(n, max_pairs=k, min_pairs=k)
    batches = data.draw(st.lists(batch, min_size=2, max_size=4 if k < 6 else 2), label="batches")
    radix = len(ADMISSIBLE_LABELS)
    rows = table_rows(batches)
    chunk = data.draw(st.integers(1, rows - 1), label="block rows")
    grams, _ = _gram_stack(batches)
    first = np.cumsum([0] + [radix ** len(pairs) for _, pairs in batches])
    decided = []
    kernel = census.minors_psd

    def counting(stack, k, zero_tol):
        decided.append(len(stack) if k == 0 else 0)
        return kernel(stack, k, zero_tol)

    for tol in TOLS:
        decided.clear()
        # a budget of chunk minors of the two-vertex deletions, (n - 2) x (n - 2)
        with mock.patch.object(forms, "_KERNEL_ENTRIES", chunk * (n - 2) ** 2), \
                mock.patch.object(census, "minors_psd", counting):
            got = rank_survivors(batches, tol)
        assert all(codes.dtype == np.int8 for codes in got)
        assert max(decided, default=0) <= chunk and sum(decided) <= rows
        members = [
            lo + codes @ radix ** np.arange(len(pairs))[::-1]
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
    live = _joined(_grown(_specials()[0]), 0, 1)
    left = int(minors_psd(_gram_stack([live])[0], 2, 1e-3).sum())
    assert left

    monkeypatch.setattr(census, "minors_psd", counting)
    for batches in ([empty], [empty, live], [live, empty]):
        sent.clear()
        got = rank_survivors(batches, 1e-3)
        assert [codes.shape for codes, b in zip(got, batches) if b is empty] == [(0, 2)]
        ones = [size for k, size in sent if k == 1]
        assert ones == [0 if batches == [empty] else left]
        assert {k for k, _ in sent} == {0, 1}


def test_later_blocks_hold_only_rows_a_live_member_reads(monkeypatch):
    """Four batches of rank 5 with the free pair 0-1, and vertex 2 joined to 0
    and 1 by bonds 3: the triangle 0-1-2 is affine with label 3 on the free
    pair and hyperbolic with 4, 5 or 6.  Keeping it is deletion 0, first in
    deletion-major order, so the first block of wave 1 (a quarter of the
    budget, 16 rows) holds deletion 0's row for every member and kills three
    members of four.  The two other deletions that keep the pair then
    decide only the rows of the members labeled 3: 24 rows of wave 1, not
    48, after the 28 rows of wave 0, which kill no one."""
    blocks = []
    kernel = census.minors_psd

    def recording(stack, k, zero_tol):
        if k == 0:
            blocks.append(stack.copy())
        return kernel(stack, k, zero_tol)

    three = cp.EdgeLabel(3)
    batches = [
        (cp.CoxeterGraph(5, ((0, 2, three), (1, 2, three), (3, 4, cp.EdgeLabel(m)))), ((0, 1),))
        for m in ADMISSIBLE_LABELS
    ]
    monkeypatch.setattr(census, "minors_psd", recording)
    monkeypatch.setattr(forms, "_KERNEL_ENTRIES", 64 * 3 * 3)  # 64 minors of 3x3 a block
    _rank_survivors(*_stacked(batches), 1e-3)
    assert [len(block) for block in blocks] == [16, 12, 16, 8]
    # the last block's rows are those of the members labeled 3
    assert (blocks[-1][:, 0, 1] == three.gram_entry()).all()


def test_census_kernel_work_bound(monkeypatch):
    """Matrices the kernel decides, and eigvalsh calls, for enumerate_level2(max_rank=8).

    One minor per candidate and deletion is 1,271,785.  Deciding every row
    of the two-vertex deletion tables took 92,172 matrices in all; deciding
    the tables in waves, only the rows a live candidate reads, took 49,847,
    and with the kills applied after every block of a wave, 46,514.  The
    tables of each shape's batches (rank and free-pair count, whatever their
    families) are decided in blocks per wave, and each rank's survivors are
    verified on one stack: 58 eigvalsh calls (80 with a call
    per family and rank; one minors_psd call per deletion and batch took
    9,734).  With the Cholesky screen on every stack, however small, no
    matrix reaches eigvalsh at any of the three tolerances: every census
    decision is certified at a margin of tol/2.
    """
    matrices, calls, eigen = [0], [0], [0]
    eigvalsh, decide = np.linalg.eigvalsh, forms._decide

    def counting(a):
        low = eigvalsh(a)
        eigen[0] += math.prod(low.shape[:-1])
        calls[0] += 1
        return low

    def deciding(stack, zero_tol, finite):
        matrices[0] += len(stack)
        return decide(stack, zero_tol, finite)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(forms, "_decide", deciding)
    assert len(enumerate_level2(max_rank=8)) == 304
    assert matrices[0] <= 46_514
    assert calls[0] < 400

    monkeypatch.setattr(forms, "_SCREEN_MIN", 1)
    for tol in TOLS:
        matrices[0] = eigen[0] = 0
        assert len(enumerate_level2(max_rank=8, zero_tol=tol)) == 304
        assert matrices[0] <= 46_514
        assert eigen[0] == 0


def test_census_member_mask_stays_small():
    """enumerate_level2(max_rank=8) peaks at about 4.1 MB under tracemalloc.

    The members of the batches of one shape are one boolean mask; building
    it from a table of every member's label codes peaks near 26 MB.
    """
    tracemalloc.start()
    try:
        assert len(enumerate_level2(max_rank=8)) == 304
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


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


def test_census_decides_each_shape_once(monkeypatch, level1):
    """enumerate_level2(max_rank=11) calls _rank_survivors once per shape
    (rank and free-pair count) of its batches, whatever their families: 23
    calls, where one call per family and rank took 36."""
    shapes = []
    decide = census._rank_survivors

    def recording(stack, uv, zero_tol, levels=None):
        shapes.append((stack.shape[-1], uv.shape[1]))
        return decide(stack, uv, zero_tol, levels)

    monkeypatch.setattr(census, "enumerate_level1", lambda *args: level1)
    monkeypatch.setattr(census, "_rank_survivors", recording)
    assert len(enumerate_level2(max_rank=11)) == 326
    assert len(shapes) == len(set(shapes)) == 23


def census_shapes(level1):
    """The arrays of each shape's batches that enumerate_level2(max_rank=11) nominates, with
    the level of each base less its last vertex."""
    tagged = [(f, b) for f in Family for b in _nomination_batches(f, level1)
              if 5 <= b[0].rank <= 11]
    for shape in sorted({(base.rank, len(pairs)) for _, (base, pairs) in tagged}):
        group = [(f, b) for f, b in tagged if (b[0].rank, len(b[1])) == shape]
        levels = np.array([census._BASE_LEVEL[f] for f, _ in group])
        yield (*_stacked([b for _, b in group]), levels)


def test_levels_change_no_survivor(level1):
    """For every census shape and each tolerance, _rank_survivors returns the
    same batches and codes with the levels nomination proves as without them."""
    shapes = list(census_shapes(level1))
    assert len(shapes) == 23
    for stack, uv, levels in shapes:
        for tol in TOLS:
            want = _rank_survivors(stack, uv, tol)
            got = _rank_survivors(stack, uv, tol, levels)
            assert [(x.dtype, x.tolist()) for x in got] == [(x.dtype, x.tolist()) for x in want]


def test_census_recognition_work(monkeypatch, level1):
    """enumerate_level2(max_rank=11) lists no wave-0 row, one of a deletion
    that keeps no free pair, for a batch whose base less its last vertex
    has level <= 1, which every batch's has: its tables decide 16,666 rows
    in 49 kernel calls, where they decided 21,640 in 73 with the 4,974
    wave-0 rows.  Only the 4 shapes that hold two_cycles' edgeless bases
    reach the one-vertex stage, one call each (167 graphs, where 23 calls
    decided 891)."""
    shape = []
    blocks = []  # rows, and rows that keep no free pair, of each block of table rows
    stage = []  # shape and graphs of each one-vertex stage call
    decide, kernel, set_labels = census._rank_survivors, census.minors_psd, census._set_labels

    def recording(stack, uv, zero_tol, levels=None):
        assert (levels <= 1).all()
        shape[:] = [(stack.shape[-1], uv.shape[1])]
        return decide(stack, uv, zero_tol, levels)

    def labeling(stack, at, values, mask=None):
        if mask is not None:  # table rows, with the free pairs each keeps
            blocks.append((len(mask), int((~mask.any(axis=1)).sum())))
        return set_labels(stack, at, values, mask)

    def counting(stack, k, zero_tol, **kwargs):
        if k == 1:
            stage.append((*shape, len(stack)))
        return kernel(stack, k, zero_tol, **kwargs)

    monkeypatch.setattr(census, "enumerate_level1", lambda *args: level1)
    monkeypatch.setattr(census, "_rank_survivors", recording)
    monkeypatch.setattr(census, "_set_labels", labeling)
    monkeypatch.setattr(census, "minors_psd", counting)
    assert len(enumerate_level2(max_rank=11)) == 326
    assert sum(wave0 for _, wave0 in blocks) == 0
    assert sum(rows for rows, _ in blocks) <= 16_666 and len(blocks) <= 49
    edgeless = {(stack.shape[-1], uv.shape[1]) for stack, uv, levels in census_shapes(level1)
                if (levels == 0).any()}
    assert sorted(s for s, _ in stage) == sorted(edgeless) and len(edgeless) == 4
    assert sum(graphs for _, graphs in stage) <= 167


def _hyperbolic_beside_a_vertex():
    """Rank 5: vertex 0 beside the triangle 1-2-3 of bonds 4, which is
    hyperbolic, and vertex 4, isolated, joined to 0 by the free pair."""
    four = cp.EdgeLabel(4)
    return _joined(cp.CoxeterGraph(5, ((1, 2, four), (1, 3, four), (2, 3, four))), 0)


@pytest.mark.parametrize(
    "batch, two_cycles_level, error",
    [
        (_joined(cp.CoxeterGraph(5), 0), None, cp.InconsistencyError),
        (_hyperbolic_beside_a_vertex(), None, cp.InconsistencyError),
        ((cp.CoxeterGraph(5, ((3, 4, cp.EdgeLabel(3)),)), ((0, 4),)), None, cp.GraphError),
        (None, 1, cp.GraphError),
    ],
    ids=["level 0 as 1", "hyperbolic as 1", "last vertex not isolated", "two_cycles as 1"],
)
def test_false_level_cannot_pass_silently(monkeypatch, level1_5, batch, two_cycles_level, error):
    """A level nomination claims falsely either stops the census or is refused
    on the arrays: a batch tagged tree whose base less its last vertex is
    edgeless or hyperbolic, or a base in which that vertex is not isolated,
    and two_cycles' bases claimed to have level 1.  Without the levels the
    same nomination gives the census of rank 5."""
    nominated = census._nomination_batches

    def with_batch(family, level1):
        yield from nominated(family, level1)
        if family is Family.TREE and batch is not None:
            yield batch

    monkeypatch.setattr(census, "enumerate_level1", lambda *args: level1_5)
    monkeypatch.setattr(census, "_nomination_batches", with_batch)
    if two_cycles_level is not None:
        monkeypatch.setitem(census._BASE_LEVEL, Family.TWO_CYCLES, two_cycles_level)
    message = {cp.InconsistencyError: "recognition accepted", cp.GraphError: "vertex 4 has an edge"}
    with pytest.raises(error, match=message[error]):
        enumerate_level2(max_rank=5)
    decide = census._rank_survivors
    monkeypatch.setattr(census, "_rank_survivors", lambda stack, uv, tol, _: decide(stack, uv, tol))
    assert len(enumerate_level2(max_rank=5)) == 189


def test_census_key_and_stack_work(monkeypatch):
    """enumerate_level2(max_rank=11) keys in 16 _token_keys calls (9 catalog
    steps, which also key the special graphs of ranks 4 and 5, and 7 ranks
    of survivors), each one _KeySearch, and never calls canonical_keys; each
    shape's batches become arrays once, 23 _stacked calls."""
    counts = {"_token_keys": 0, "_KeySearch": 0, "_stacked": 0}
    token_keys, stacked = census._token_keys, census._stacked

    class CountedSearch(cp.graphs._KeySearch):
        def __init__(self, *args):
            counts["_KeySearch"] += 1
            super().__init__(*args)

    def counted(name, f):
        def call(*args):
            counts[name] += 1
            return f(*args)

        return call

    monkeypatch.setattr(cp.graphs, "_KeySearch", CountedSearch)
    monkeypatch.setattr(census, "_token_keys", counted("_token_keys", token_keys))
    monkeypatch.setattr(census, "_stacked", counted("_stacked", stacked))
    for module in (cp.graphs, census):
        monkeypatch.setattr(module, "canonical_keys", mock.Mock(side_effect=AssertionError),
                            raising=False)
    assert len(enumerate_level2(max_rank=11)) == 326
    assert counts == {"_token_keys": 16, "_KeySearch": 16, "_stacked": 23}


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
    "pairs, message",
    [
        (((0, 4), (0, 4)), r"\(0, 4\) of batch 0 is repeated"),
        (((0, 1),), r"\(0, 1\) of batch 0 duplicates a base edge"),
        (((4, 4),), r"\(4, 4\) of batch 0 is a self-loop"),
        (((0, 5),), r"\(0, 5\) of batch 0 is out of range"),
        (((-1, 4),), r"\(-1, 4\) of batch 0 is out of range"),
    ],
    ids=["duplicate pair", "duplicate of a base edge", "self-loop", "out of range", "negative"],
)
def test_gram_stack_rejects_malformed_batch(monkeypatch, pairs, message):
    """The free pairs are checked on their arrays, with no graph built."""
    base = cp.CoxeterGraph(5, ((0, 1, cp.EdgeLabel(3)),))
    good = (base, ((2, 3), (3, 4))[: len(pairs)])
    monkeypatch.setattr(cp.CoxeterGraph, "__post_init__", mock.Mock(side_effect=AssertionError))
    with pytest.raises(cp.GraphError, match=message.replace("batch 0", "batch 1")):
        _stacked([good, (base, pairs)])
    with pytest.raises(cp.GraphError, match=message):
        _gram_stack([(base, pairs)])


@pytest.mark.parametrize("ranks, widths", [((5, 6), (1, 1)), ((5, 5), (1, 2))])
def test_stacked_rejects_mixed_shapes(ranks, widths):
    """A batch list whose ranks or free-pair counts differ is not one shape."""
    batches = [(cp.CoxeterGraph(n), ((0, 1), (2, 3))[:w]) for n, w in zip(ranks, widths)]
    with pytest.raises(cp.GraphError, match="one \\(rank, free pairs\\) shape"):
        _stacked(batches)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_keys_from_code_stacks_match_graph_keys(data):
    """Keys searched on a stack of label codes, in blocks of any size, equal
    canonical_keys of the graphs built from it, and a relabeled stack keys alike."""
    n = data.draw(st.integers(3, 11), label="rank")
    count = data.draw(st.integers(1, 6), label="graphs")
    labels = data.draw(st.lists(st.sampled_from(range(len(ADMISSIBLE_LABELS))), min_size=1,
                                max_size=4, unique=True), label="label codes")
    density = data.draw(st.sampled_from((0.2, 0.5, 0.9)), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = (count, n, n)
    codes = np.where(rng.random(shape) < density, rng.choice(labels, shape), census._ABSENT)
    # symmetric, from the upper triangle, with no edge on the diagonal
    upper = np.triu(np.ones((n, n), dtype=bool))
    stack = np.where(upper, codes, codes.transpose(0, 2, 1)).astype(np.int8)
    stack[:, np.arange(n), np.arange(n)] = census._ABSENT
    graphs = _graphs(stack)
    assert _code_stack(graphs, n).tobytes() == stack.tobytes()
    want = cp.canonical_keys(graphs)
    perm = rng.permutation(n)
    block = data.draw(st.integers(1, count), label="key block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp.graphs, "_KEY_BLOCK", block)
        assert cp.graphs._token_keys(stack, census._TEXTS) == want
        assert cp.graphs._token_keys(stack[:, perm][:, :, perm], census._TEXTS) == want


def test_census_builds_graphs_only_for_survivors(monkeypatch):
    """Candidates stay label codes until the output (51,160 nominated at
    max_rank 6): enumerate_level2 builds a graph for each base, each entry,
    each level-1 class of the catalog and each special graph, and for
    nothing else."""
    level1 = enumerate_level1(5)
    _, *classes = _catalog_level01(5, 1e-3)
    bases = {id(base): base for f in Family for base, _ in _nomination_batches(f, level1)}
    # enumerate_level1 and each special-graph family build the three special graphs
    specials = 4 * len(_specials())
    builds = []
    init = cp.CoxeterGraph.__post_init__

    def counting_init(self):
        builds.append(self)
        init(self)

    monkeypatch.setattr(cp.CoxeterGraph, "__post_init__", counting_init)
    entries = enumerate_level2(max_rank=6)
    assert len(entries) == 255
    assert len(builds) == len(bases) + len(entries) + sum(map(len, classes)) + specials == 464


def test_census_rejects_a_survivor_of_level_1(monkeypatch, level1_5, tmp_path, capsys):
    """A survivor that is not of level 2 stops the census, naming the graph."""
    bad = next(g for g in level1_5 if g.rank == 5)
    survivors = census._survivors

    def injected(*args):
        ranks = survivors(*args)
        families, stack = ranks[0]
        assert stack.shape[1:] == (5, 5)
        stack = np.insert(stack, 3, _code_stack([bad], 5), axis=0)
        ranks[0] = families[:3] + [Family.TREE] + families[3:], stack
        return ranks

    monkeypatch.setattr(census, "enumerate_level1", lambda *args: level1_5)
    monkeypatch.setattr(census, "_survivors", injected)
    with pytest.raises(cp.InconsistencyError, match=re.escape(cp.to_compact(bad))):
        enumerate_level2(max_rank=6)
    assert main(["enum", "--max-rank", "6", "--out", str(tmp_path / "census.csv")]) == 3
    assert cp.to_compact(bad) in capsys.readouterr().err


def test_filter_level2_agrees_with_direct_level(level1):
    cands = [g for g in nominate(Family.FROM_K23, level1) if g.rank >= 5]
    fast = set(cp.canonical_keys(filter_level2(cands, 1e-3)))
    slow = set(cp.canonical_keys([g for g in cands if cp.level(g) == 2]))
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
    ordered = set(cp.canonical_keys(filter_level2(cands, 1e-3)))
    shuffled = cands[:]
    random.Random(3).shuffle(shuffled)
    assert set(cp.canonical_keys(filter_level2(shuffled, 1e-3))) == ordered


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
