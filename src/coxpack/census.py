"""Census of connected level-2 graphs on 5..11 vertices over labels {3,4,5,6}.

Candidates are nominated family by family from a catalog of level-1 graphs
(trees, cycles, and cycles with a pendant edge) plus three simply-laced
special graphs.  A family is a list of batches: a base graph plus a few free
vertex pairs, standing for every labeling of those pairs, so a candidate is
a row of label codes and a CoxeterGraph is built only for the candidates
that pass numeric level recognition (about 890 of 380k at rank 11).

Recognition decides each minor once.  A graph has level 2 when every
two-vertex deletion is finite or affine (its Gram minor is positive
semidefinite) and some one-vertex deletion is not; a principal submatrix of
a positive semidefinite matrix is positive semidefinite (Cauchy
interlacing), so the full matrix then fails too and needs no test of its
own.  The minor a two-vertex deletion keeps depends only on the labels of
the free pairs inside it, so each deletion of each batch has a table of
those sub-labelings, and every candidate reads its verdict by mixed-radix
code; a table row is bitwise the candidate's own minor, so the verdicts are
exactly those of a per-candidate filter.  The tables of all batches of one
family and rank are decided together, in blocks of rows, and the one-vertex
deletions then in one stack for the candidates left.  The level-1 catalog
decides levels 0 and 1 on Gram stacks and keys only the graphs it keeps;
level is invariant under isomorphism, so the first representative of each
kept class is unchanged.  Every survivor is verified to have level 2 from
its own Gram matrix, one stack per rank, before survivors are deduplicated
by canonical key.  The census runs in one process.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .forms import _EIG_CHUNK, DEFAULT_ZERO_TOL, fundamental_weights, minors_psd
from .graphs import (
    CoxeterGraph,
    EdgeLabel,
    canonical_key,
    complete_graph,
    cycle_graph,
    to_compact,
)
from .tangency import (
    InconsistencyError,
    VertexClass,
    classify_weight_norm,
)

ADMISSIBLE_LABELS = (3, 4, 5, 6)


class Family(Enum):
    """Nomination family, in dedup priority order."""

    FROM_K4 = "from_k4"
    FROM_K4_MINUS_E = "from_k4_minus_e"
    FROM_K23 = "from_k23"
    TWO_CYCLES = "two_cycles"
    CYCLE = "cycle"
    CYCLE_TAIL1 = "cycle_tail1"
    CYCLE_TAIL2 = "cycle_tail2"
    CYCLE_TWO_TAILS = "cycle_two_tails"
    TREE = "tree"


@dataclass(frozen=True)
class CensusEntry:
    graph: CoxeterGraph
    key: bytes
    family: Family
    strict: bool
    n_imaginary: int
    n_real: int
    n_surreal: int

    @property
    def rank(self) -> int:
        return self.graph.rank


# ---------------------------------------------------------------------------
# Shape predicates and small graph surgery.
# ---------------------------------------------------------------------------


# (base, free_pairs): see Nomination below
Batch = tuple[CoxeterGraph, tuple[tuple[int, int], ...]]


def _joined(g: CoxeterGraph, *vs: int) -> Batch:
    """Batch adding one vertex to g, joined to each of vs."""
    return CoxeterGraph(g.rank + 1, g.edges), tuple((v, g.rank) for v in vs)


def _labeled(base: CoxeterGraph, pairs, labeling) -> CoxeterGraph:
    """The batch member that gives free pair i the label labeling[i]."""
    return CoxeterGraph(
        base.rank, base.edges + tuple((u, v, lab) for (u, v), lab in zip(pairs, labeling))
    )


def _label_codes(k: int, radix: int) -> np.ndarray:
    """Every labeling of k free pairs as a row of label indices, in product order."""
    return np.indices((radix,) * k, dtype=np.int8).reshape(k, radix**k).T


def _member_grams(gram: np.ndarray, pairs, codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One Gram matrix per row of codes, giving free pair i the value values[row[i]].

    gram is the base's Gram matrix (zero at the free pairs); each result
    equals the member's CoxeterGraph.gram bitwise.
    """
    stack = np.repeat(gram[None], len(codes), axis=0)
    if len(pairs):
        u, v = np.array(pairs).T
        stack[:, u, v] = stack[:, v, u] = values[codes]
    return stack


def _is_tree(g: CoxeterGraph) -> bool:
    return len(g.edges) == g.rank - 1 and g.is_connected()


def _is_path(g: CoxeterGraph) -> bool:
    return _is_tree(g) and all(g.degree(v) <= 2 for v in range(g.rank))


def _is_cycle(g: CoxeterGraph) -> bool:
    return (
        g.rank >= 3
        and len(g.edges) == g.rank
        and g.is_connected()
        and all(g.degree(v) == 2 for v in range(g.rank))
    )


def _is_tailed_cycle(g: CoxeterGraph) -> bool:
    """A cycle with exactly one pendant edge attached."""
    if len(g.edges) != g.rank or not g.is_connected():
        return False
    degs = sorted(g.degree(v) for v in range(g.rank))
    return g.rank >= 4 and degs[0] == 1 and degs[-1] == 3 and all(
        d == 2 for d in degs[1:-1]
    )


def _leaves(g: CoxeterGraph) -> list[int]:
    return [v for v in range(g.rank) if g.degree(v) == 1]


def _path_order(g: CoxeterGraph) -> list[int]:
    """Vertices of a path graph from one end to the other."""
    ends = _leaves(g)
    order = [ends[0]]
    prev = None
    while len(order) < g.rank:
        cur = order[-1]
        nxt = [w for w in g.neighbors(cur) if w != prev]
        prev = cur
        order.append(nxt[0])
    return order


# ---------------------------------------------------------------------------
# Level-1 catalog.  Connected level-0 graphs lose a non-cut vertex and stay
# connected level-0, so trees grow leaf by leaf from a single vertex; a
# level-1 tree is a level-0 tree plus one pendant edge, a level-1 cycle is a
# level-0 path with its ends joined to a new vertex, and a level-1 tailed
# cycle hangs a pendant edge on an unlabeled (all-3) cycle, the only
# positive-semidefinite cycles.  Each growth step decides levels 0 and 1 on
# one Gram stack and builds and keys only the graphs of level <= 1.
# ---------------------------------------------------------------------------


def _levels01(batches: list[Batch], labs: list[EdgeLabel], zero_tol: float):
    """The members of level 0 or 1 of same-rank batches, with their levels, in order.

    Both levels are decided on one _gram_stack, so apart from the first member
    of each batch, which the stack builds as a check, a graph is built only for
    a member of level <= 1.
    """
    grams = _gram_stack(batches, labs)
    levels = np.where(minors_psd(grams, 0, zero_tol), 0, 2)
    rest = np.flatnonzero(levels)
    levels[rest[minors_psd(grams[rest], 1, zero_tol)]] = 1
    members = (
        (base, pairs, labeling)
        for base, pairs in batches
        for labeling in product(labs, repeat=len(pairs))
    )
    for (base, pairs, labeling), lv in zip(members, levels):
        if lv <= 1:
            yield _labeled(base, pairs, labeling), int(lv)


def _catalog_level01(max_n: int, labels, zero_tol: float):
    """Level-0 trees by rank, and the level-1 trees, cycles and tailed cycles.

    The level-1 trees and cycles come keyed, as dicts from canonical key to
    graph in the order found; their growth loops key them anyway.
    """
    labs = [EdgeLabel(m) for m in labels]
    l0_trees: dict[int, list[CoxeterGraph]] = {1: [CoxeterGraph(1)]}
    l1_trees: dict[bytes, CoxeterGraph] = {}
    for k in range(1, max_n):
        grown: dict[bytes, CoxeterGraph] = {}
        batches = [_joined(base, v) for base in l0_trees[k] for v in range(k)]
        for cand, lv in _levels01(batches, labs, zero_tol):
            key = canonical_key(cand)
            if key not in grown and key not in l1_trees:
                (grown if lv == 0 else l1_trees)[key] = cand
        l0_trees[k + 1] = list(grown.values())

    l0_paths = {k: [t for t in trees if _is_path(t)] for k, trees in l0_trees.items()}

    l1_cycles: dict[bytes, CoxeterGraph] = {}
    for k in range(2, max_n):
        batches = [_joined(base, *_leaves(base)) for base in l0_paths[k]]
        for cand, lv in _levels01(batches, labs, zero_tol):
            if lv == 1:
                l1_cycles.setdefault(canonical_key(cand), cand)

    l1_tailed: list[CoxeterGraph] = []
    for m in range(3, max_n):
        batch = _joined(cycle_graph([3] * m), 0)
        l1_tailed.extend(cand for cand, lv in _levels01([batch], labs, zero_tol) if lv == 1)

    return l0_trees, l1_trees, l1_cycles, l1_tailed


def _specials() -> list[CoxeterGraph]:
    k4 = complete_graph(4, 3)
    k4_minus_e = CoxeterGraph(4, tuple(e for e in k4.edges if (e[0], e[1]) != (2, 3)))
    k23 = CoxeterGraph(
        5, tuple((u, v, EdgeLabel(3)) for u in (0, 1) for v in (2, 3, 4))
    )
    return [k4, k4_minus_e, k23]


def enumerate_level1(
    max_n: int = 10,
    labels: Iterable[int] = ADMISSIBLE_LABELS,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> list[CoxeterGraph]:
    """Connected level-1 trees, cycles, and singly-tailed cycles, plus specials.

    These shapes (and the three special graphs) are the only connected
    level <= 1 graphs that appear as building blocks of level-2 graphs on
    five or more vertices, which also pins the label set to {3, 4, 5, 6}.
    """
    labels = tuple(sorted(set(labels)))
    if labels != ADMISSIBLE_LABELS:
        raise ValueError(f"unsupported label set {labels}; expected {ADMISSIBLE_LABELS}")
    if not 2 <= max_n <= 10:
        raise ValueError(f"max_n must lie in 2..10, got {max_n}")
    _, l1_trees, l1_cycles, l1_tailed = _catalog_level01(max_n, labels, zero_tol)
    keyed = [*l1_trees.items(), *l1_cycles.items()]
    keyed += [(canonical_key(g), g) for g in l1_tailed + _specials() if g.rank <= max_n]
    _check_level([g for _, g in keyed], 1, zero_tol, "catalog graph {} is not level 1")
    out: dict[bytes, CoxeterGraph] = {}
    for key, g in keyed:
        out.setdefault(key, g)
    return [out[k] for k in sorted(out)]


# ---------------------------------------------------------------------------
# Nomination.  Every family is a list of batches (base, free_pairs): base is
# a graph on the candidates' full rank (a vertex the family adds is the last
# one, isolated in base), and the batch stands for the graphs that add every
# free pair to base as an edge, over all labelings in itertools.product
# order.  nominate() expands batches into graphs; enumerate_level2 filters
# them as label codes and builds graphs only for survivors.
# ---------------------------------------------------------------------------


def _labels(labels: Iterable[int]) -> list[EdgeLabel]:
    return [EdgeLabel(m) for m in sorted(set(labels))]


def _butterfly_edges() -> list[tuple[int, int]]:
    return [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]


def _theta_edges(a: int, bsz: int, c: int) -> tuple[int, list[tuple[int, int]]]:
    """Two hub vertices joined by three paths with a, b, c interior vertices."""
    edges = []
    nxt = 2
    for size in (a, bsz, c):
        chain = [0] + list(range(nxt, nxt + size)) + [1]
        nxt += size
        edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return nxt, edges


_SPECIAL_INDEX = {Family.FROM_K4: 0, Family.FROM_K4_MINUS_E: 1, Family.FROM_K23: 2}


def _nomination_batches(family: Family, level1: list[CoxeterGraph]) -> Iterator[Batch]:
    """The batches of one family, in nomination order."""
    if family in _SPECIAL_INDEX:
        # a new vertex joined to a nonempty subset of a special graph
        base = _specials()[_SPECIAL_INDEX[family]]
        for r in range(1, base.rank + 1):
            for subset in combinations(range(base.rank), r):
                yield _joined(base, *subset)
    elif family is Family.TWO_CYCLES:
        yield CoxeterGraph(5), tuple(_butterfly_edges())
        for a, bsz, c in [(0, 1, 1), (0, 1, 2), (0, 2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]:
            rank, shape = _theta_edges(a, bsz, c)
            yield CoxeterGraph(rank), tuple(shape)
    elif family is Family.CYCLE:
        # a path of level 1 closed up by a new vertex joined to both ends
        for p in level1:
            if _is_path(p):
                yield _joined(p, *_leaves(p))
    elif family is Family.CYCLE_TAIL1:
        # pendant edge on a level-1 cycle
        for cyc in level1:
            if _is_cycle(cyc):
                for v in range(cyc.rank):
                    yield _joined(cyc, v)
        # level-1 tree with three leaves, new vertex joined to two of them;
        # the remaining branch becomes the tail and must have length one
        for t in level1:
            if not _is_tree(t):
                continue
            leaves = _leaves(t)
            if len(leaves) != 3:
                continue
            hub = next(v for v in range(t.rank) if t.degree(v) == 3)
            for l1, l2 in combinations(leaves, 2):
                third = next(x for x in leaves if x not in (l1, l2))
                if third in t.neighbors(hub):
                    yield _joined(t, l1, l2)
        # level-1 path, new vertex joined to the second and the last vertex
        for p in level1:
            if not _is_path(p) or p.rank < 3:
                continue
            order = _path_order(p)
            for seq in (order, order[::-1]):
                yield _joined(p, seq[1], seq[-1])
    elif family is Family.CYCLE_TAIL2:
        # grow the tail of a level-1 tailed cycle by one edge
        for tc in level1:
            if _is_tailed_cycle(tc):
                yield _joined(tc, _leaves(tc)[0])
    elif family is Family.CYCLE_TWO_TAILS:
        # pendant edge on any cycle vertex of a level-1 tailed cycle
        for tc in level1:
            if not _is_tailed_cycle(tc):
                continue
            tail = _leaves(tc)[0]
            for v in range(tc.rank):
                if v != tail:
                    yield _joined(tc, v)
    elif family is Family.TREE:
        for t in level1:
            if _is_tree(t):
                for v in range(t.rank):
                    yield _joined(t, v)
    else:
        raise ValueError(f"unknown family {family!r}")


def nominate(
    family: Family,
    level1: list[CoxeterGraph],
    labels: Iterable[int] = ADMISSIBLE_LABELS,
) -> Iterator[CoxeterGraph]:
    """Candidate stream for one family; no level filtering happens here.

    These are the graphs whose Gram matrices enumerate_level2 filters, in
    the same order; it builds a graph only for a candidate that passes.
    """
    labs = _labels(labels)
    for base, pairs in _nomination_batches(family, level1):
        for labeling in product(labs, repeat=len(pairs)):
            yield _labeled(base, pairs, labeling)


def _gram_stack(batches: list[Batch], labs: list[EdgeLabel]) -> np.ndarray:
    """Gram matrices of every member of the batches (all of one rank), in order.

    Bitwise equal to the members' CoxeterGraph.gram.  Each batch's first
    member is built as a graph, so a malformed free pair (out of range, a
    self-loop, or a duplicate of a pair or of a base edge) raises GraphError.
    The level-1 catalog decides its levels on these stacks; tests filter the
    nomination stacks with a per-candidate eigvalsh filter as the reference
    for _rank_survivors.
    """
    values = np.array([lab.gram_entry() for lab in labs])
    for base, pairs in batches:
        _labeled(base, pairs, labs[:1] * len(pairs))
    return np.concatenate([
        _member_grams(base.gram, pairs, _label_codes(len(pairs), len(labs)), values)
        for base, pairs in batches
    ])


# ---------------------------------------------------------------------------
# Recognition: staged, vectorized level-2 filtering.
# level(g) == 2 is equivalent to: some vertex deletion is not positive
# semidefinite, and every deletion of two vertices is.  A non-PSD full
# matrix is a necessary precondition.  _rank_survivors is the census's
# path; the tests keep a filter that decides each candidate's own minors by
# direct eigvalsh calls as its reference.
# ---------------------------------------------------------------------------


class _Tables(NamedTuple):
    """The two-vertex-deletion tables of a batch, one row per sub-labeling.

    Deletion d keeps the vertices keeps[d], and the free pairs inside[d] lie
    within them.  Row i belongs to deletion drop[i] and labels the free
    pairs codes[i]: deletion d's table starts at row starts[d] and runs over
    the labelings of its inside pairs in product order, with code 0 on the
    pairs it drops.  Its verdicts, shaped radix along each inside pair and
    1 along the others, broadcast to the verdicts of all batch members.
    """

    keeps: np.ndarray
    drop: np.ndarray
    codes: np.ndarray
    starts: np.ndarray
    inside: np.ndarray


def _deletion_tables(base: CoxeterGraph, pairs, radix: int) -> _Tables:
    """Every two-vertex deletion's table of a batch, built as whole arrays."""
    n = base.rank
    keeps = np.array(list(combinations(range(n), n - 2)))
    kept = np.zeros((len(keeps), n), dtype=bool)
    kept[np.arange(len(keeps))[:, None], keeps] = True
    u, v = np.array(pairs, dtype=int).reshape(-1, 2).T
    inside = kept[:, u] & kept[:, v]
    # mixed-radix place value of each inside pair, the first one most significant
    place = radix ** (np.cumsum(inside[:, ::-1], axis=1)[:, ::-1] - inside)
    sizes = radix ** inside.sum(axis=1)
    starts = np.cumsum(sizes) - sizes
    drop = np.repeat(np.arange(len(keeps)), sizes)
    row = np.arange(len(drop)) - starts[drop]
    codes = (row[:, None] // place[drop] % radix * inside[drop]).astype(np.int8)
    return _Tables(keeps, drop, codes, starts, inside)


def _table_minors(batch: Batch, values: np.ndarray, table: _Tables, rows: slice) -> np.ndarray:
    """The Gram minors of a slice of a batch's table rows, bitwise the members' own."""
    base, pairs = batch
    grams = _member_grams(base.gram, pairs, table.codes[rows], values)
    keep = table.keeps[table.drop[rows]]
    return grams[np.arange(len(keep))[:, None, None], keep[:, :, None], keep[:, None, :]]


def _rank_survivors(batches: list[Batch], values: np.ndarray, zero_tol: float) -> list[np.ndarray]:
    """Label codes of the level-2 members of same-rank batches, one array per batch.

    Every two-vertex deletion must be positive semidefinite, and its minor
    depends only on the labels of the free pairs it keeps.  So the tables
    of every deletion of every batch are decided once, _EIG_CHUNK rows per
    minors_psd call across batch boundaries, and each member reads its
    verdict in each table by its labels of the pairs inside.  Some
    one-vertex deletion must then fail, decided in one call on the Gram
    matrices of the members left; by interlacing, the full matrix then
    fails too and needs no test of its own.
    """
    radix = len(values)
    tables = [_deletion_tables(base, pairs, radix) for base, pairs in batches]
    bounds = np.cumsum([0] + [len(table.drop) for table in tables])
    verdicts = []
    for lo in range(0, bounds[-1], _EIG_CHUNK):
        hi = lo + _EIG_CHUNK
        block = [
            _table_minors(batch, values, table, slice(max(lo - start, 0), hi - start))
            for batch, table, start, end in zip(batches, tables, bounds, bounds[1:])
            if start < hi and end > lo
        ]
        verdicts.append(minors_psd(np.concatenate(block), 0, zero_tol))
    verdicts = np.concatenate(verdicts)

    left = []
    for (_, pairs), table, lo in zip(batches, tables, bounds):
        ok = np.ones((radix,) * len(pairs), dtype=bool)
        for start, inside in zip(lo + table.starts, table.inside):
            shape = np.where(inside, radix, 1)
            ok &= verdicts[start : start + shape.prod()].reshape(shape)
        left.append(np.argwhere(ok).astype(np.int8))
    grams = np.concatenate([
        _member_grams(base.gram, pairs, codes, values) for (base, pairs), codes in zip(batches, left)
    ])
    fails = ~minors_psd(grams, 1, zero_tol)
    ends = np.cumsum([len(codes) for codes in left])
    return [codes[ok] for codes, ok in zip(left, np.split(fails, ends[:-1]))]


def _by_rank(graphs: list[CoxeterGraph], decide) -> np.ndarray:
    """decide(grams) on one stack of the graphs' own Gram matrices per rank, as one mask."""
    mask = np.zeros(len(graphs), dtype=bool)
    for n in sorted({g.rank for g in graphs}):
        idx = [i for i, g in enumerate(graphs) if g.rank == n]
        mask[idx] = decide(np.stack([graphs[i].gram for i in idx]))
    return mask


def _check_level(graphs: list[CoxeterGraph], r: int, zero_tol: float, message: str) -> None:
    """Raise InconsistencyError naming the first graph whose level is not r.

    Decided as forms.level decides, on one Gram stack per rank: level(g) == r
    when the deletion of r vertices leaves every minor positive semidefinite
    and no deletion of j < r vertices does.
    """

    def has_level(grams: np.ndarray) -> np.ndarray:
        mask = minors_psd(grams, r, zero_tol)
        for j in range(r):
            mask &= ~minors_psd(grams, j, zero_tol)
        return mask

    bad = np.flatnonzero(~_by_rank(graphs, has_level))
    if bad.size:
        raise InconsistencyError(message.format(to_compact(graphs[bad[0]])))


# ---------------------------------------------------------------------------
# The census.
# ---------------------------------------------------------------------------


def _make_entry(g: CoxeterGraph, key: bytes, family: Family, strict: bool) -> CensusEntry:
    _, norms = fundamental_weights(g.gram)
    roles = [classify_weight_norm(norm, level2=True) for norm in norms]
    return CensusEntry(
        g,
        key,
        family,
        strict,
        roles.count(VertexClass.IMAGINARY),
        roles.count(VertexClass.REAL),
        roles.count(VertexClass.SURREAL),
    )


def _family_survivors(
    family: Family,
    level1: list[CoxeterGraph],
    labs: list[EdgeLabel],
    max_rank: int,
    zero_tol: float,
) -> list[CoxeterGraph]:
    """Candidates of one family that pass recognition, in nomination order.

    Candidates are filtered as label codes, the batches of each rank
    together; only survivors become graphs.  Each batch's first member is
    built as a graph, so a malformed free pair (out of range, a self-loop,
    or a duplicate of a pair or of a base edge) raises GraphError.
    """
    values = np.array([lab.gram_entry() for lab in labs])
    batches = [b for b in _nomination_batches(family, level1) if 5 <= b[0].rank <= max_rank]
    for base, pairs in batches:
        _labeled(base, pairs, labs[:1] * len(pairs))
    codes: dict[int, np.ndarray] = {}
    for n in sorted({base.rank for base, _ in batches}):
        idx = [i for i, (base, _) in enumerate(batches) if base.rank == n]
        codes.update(zip(idx, _rank_survivors([batches[i] for i in idx], values, zero_tol)))
    return [
        _labeled(base, pairs, [labs[c] for c in row])
        for i, (base, pairs) in enumerate(batches)
        for row in codes[i]
    ]


def enumerate_level2(
    max_rank: int = 11,
    labels: Iterable[int] = ADMISSIBLE_LABELS,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> list[CensusEntry]:
    """All connected level-2 graphs on 5..max_rank vertices, sorted by key.

    Candidates come from the nomination families in declaration order; the
    first family to produce a graph keeps the tag.  Every survivor is
    verified to have level 2 from its own Gram matrix, independent of how it
    was constructed.
    """
    if not 5 <= max_rank <= 11:
        raise ValueError(f"max_rank must lie in 5..11, got {max_rank}")
    level1 = enumerate_level1(min(10, max_rank - 1), labels, zero_tol)
    labs = _labels(labels)
    survivors = [
        (family, g)
        for family in Family
        for g in _family_survivors(family, level1, labs, max_rank, zero_tol)
    ]
    _check_level([g for _, g in survivors], 2, zero_tol, "recognition accepted {} but level != 2")
    firsts: dict[bytes, tuple[Family, CoxeterGraph]] = {}
    for family, g in survivors:
        firsts.setdefault(canonical_key(g), (family, g))
    graphs = [g for _, g in firsts.values()]
    strict = _by_rank(graphs, lambda grams: minors_psd(grams, 2, zero_tol, finite=True))
    entries = [
        _make_entry(g, key, family, bool(s))
        for (key, (family, g)), s in zip(firsts.items(), strict)
    ]
    entries.sort(key=lambda e: e.key)
    return entries


@dataclass(frozen=True)
class CensusReport:
    total: int
    strict_total: int
    by_family_rank: dict[tuple[Family, int], int]
    class_totals: tuple[int, int, int]  # imaginary, real, surreal

    def rank_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for (_, rank), cnt in self.by_family_rank.items():
            hist[rank] = hist.get(rank, 0) + cnt
        return dict(sorted(hist.items()))


def census_report(entries: list[CensusEntry]) -> CensusReport:
    by_fr: dict[tuple[Family, int], int] = {}
    n_im = n_re = n_su = 0
    strict = 0
    for e in sorted(entries, key=lambda e: e.key):
        by_fr[(e.family, e.rank)] = by_fr.get((e.family, e.rank), 0) + 1
        n_im += e.n_imaginary
        n_re += e.n_real
        n_su += e.n_surreal
        strict += e.strict
    return CensusReport(len(entries), strict, by_fr, (n_im, n_re, n_su))


_CSV_COLUMNS = [
    "key",
    "rank",
    "family",
    "strict",
    "n_imaginary",
    "n_real",
    "n_surreal",
    "edge_list",
]


def entry_row(e: CensusEntry) -> dict:
    return {
        "key": e.key.decode("ascii"),
        "rank": e.rank,
        "family": e.family.value,
        "strict": e.strict,
        "n_imaginary": e.n_imaginary,
        "n_real": e.n_real,
        "n_surreal": e.n_surreal,
        "edge_list": to_compact(e.graph),
    }


def write_census_csv(entries: list[CensusEntry], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for e in sorted(entries, key=lambda e: e.key):
            row = entry_row(e)
            row["strict"] = "true" if row["strict"] else "false"
            writer.writerow(row)


def write_census_json(entries: list[CensusEntry], path) -> None:
    rows = [entry_row(e) for e in sorted(entries, key=lambda e: e.key)]
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
