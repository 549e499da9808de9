"""Census of connected level-2 graphs on 5..11 vertices over labels {3,4,5,6}.

Candidates are nominated family by family from a catalog of level-1 graphs
(trees, cycles, and cycles with a pendant edge) plus three simply-laced
special graphs.  A family is a list of batches: a base graph plus a few free
vertex pairs, standing for every labeling of those pairs.  The members of
the batches of one shape (rank and free-pair count), whatever their
families, are one boolean mask over label codes (_members), so a candidate
is a row of codes, and a CoxeterGraph is built only for the candidates that
pass numeric level recognition (about 890 of 380k at rank 11).

Recognition decides each minor at most once, and only when a live
candidate reads it.  A graph has level 2 when every two-vertex deletion is
finite or affine (its Gram minor is positive semidefinite) and some
one-vertex deletion is not; a principal submatrix of a positive
semidefinite matrix is positive semidefinite (Cauchy interlacing), so the
full matrix then fails too and needs no test of its own.  The minor a
two-vertex deletion keeps depends only on the labels of the free pairs
inside it, so each deletion of each batch has a table of those
sub-labelings, and every candidate reads its verdict by mixed-radix code; a
table row is bitwise the candidate's own minor, so the verdicts are exactly
those of a per-candidate filter.  The tables of all batches of one shape
are decided in waves of increasing inside-pair count.  A wave lists its rows
deletion by deletion across the batches and decides them in blocks; after
each block the candidates reading a failing row die, and the rows that no
candidate still alive reads are dropped.  A candidate survives exactly when
every row it reads passes, so skipping those rows changes no survivor, and
a candidate that fails one row costs no later row.  The one-vertex
deletions are then decided in one stack for the candidates left.  The
level-1 catalog decides levels 0 and 1 on Gram stacks and keys only the
graphs it keeps; level is invariant under isomorphism, so the first
representative of each kept class is unchanged.  Every survivor is verified
to have level 2 from its own Gram matrix, one stack per rank, before
survivors are deduplicated by canonical key.  The census runs in one process.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator

import numpy as np

from .forms import DEFAULT_ZERO_TOL, _levels, _per_call, fundamental_weights, minors_psd
from .graphs import (
    CoxeterGraph,
    EdgeLabel,
    canonical_keys,
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
_LABELS = tuple(EdgeLabel(m) for m in ADMISSIBLE_LABELS)
_VALUES = np.array([lab.gram_entry() for lab in _LABELS])  # label code -> Gram entry


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


def _labeled(base: CoxeterGraph, pairs, codes) -> CoxeterGraph:
    """The batch member that gives free pair i the label of code codes[i]."""
    return CoxeterGraph(
        base.rank, base.edges + tuple((u, v, _LABELS[c]) for (u, v), c in zip(pairs, codes))
    )


def _stacked(batches: list[Batch]) -> tuple[np.ndarray, np.ndarray]:
    """Batches of one shape as arrays: batch b has the base Gram matrix
    grams[b] (zero at its free pairs) and free pair p at the vertices uv[b, p]."""
    uv = np.array([pairs for _, pairs in batches], dtype=int).reshape(len(batches), -1, 2)
    return np.stack([base.gram for base, _ in batches]), uv


def _members(uv: np.ndarray) -> np.ndarray:
    """Every member of the batches with free pairs uv, as one all-true boolean
    mask shaped (batch, radix, ..., radix), one code axis per free pair: np.nonzero
    lists the members in batch order and each batch's labelings in product order."""
    return np.ones(uv.shape[:1] + (len(_LABELS),) * uv.shape[1], dtype=bool)


def _set_labels(stack: np.ndarray, at: np.ndarray, codes: np.ndarray, mask=None) -> np.ndarray:
    """Write the Gram entry of label code codes[i, p] into stack[i] at the
    symmetric places at[i, p] wherever mask[i, p] holds (everywhere by
    default, one pair across the whole stack at a time); returns the stack."""
    if mask is None:
        i = np.arange(len(stack))
        for (x, y), p in zip(at.transpose(1, 2, 0), codes.T):
            stack[i, x, y] = stack[i, y, x] = _VALUES[p]
        return stack
    i, p = np.nonzero(mask)
    x, y = at[i, p].T
    stack[i, x, y] = stack[i, y, x] = _VALUES[codes[i, p]]
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
# one Gram stack and builds only the graphs of level <= 1, and keys them in
# one canonical_keys call.
# ---------------------------------------------------------------------------


def _levels01(batches: list[Batch], zero_tol: float):
    """The members of level 0 or 1 of same-rank batches, with their levels, in order.

    Both levels are decided on one _gram_stack, so apart from the first member
    of each batch, which the stack builds as a check, a graph is built only for
    a member of level <= 1, from the label codes its Gram matrix was built from.
    """
    grams, members = _gram_stack(batches)
    levels = _levels(grams, zero_tol, below=2)
    keep = levels <= 1
    for (b, *codes), lv in zip(members[keep].tolist(), levels[keep].tolist()):
        yield _labeled(*batches[b], codes), lv


def _catalog_level01(max_n: int, zero_tol: float):
    """Level-0 trees by rank, and the level-1 trees, cycles and tailed cycles.

    The level-1 trees and cycles come keyed, as dicts from canonical key to
    graph in the order found; their growth loops key them anyway.
    """
    l0_trees: dict[int, list[CoxeterGraph]] = {1: [CoxeterGraph(1)]}
    l1_trees: dict[bytes, CoxeterGraph] = {}
    for k in range(1, max_n):
        grown: dict[bytes, CoxeterGraph] = {}
        batches = [_joined(base, v) for base in l0_trees[k] for v in range(k)]
        kept = list(_levels01(batches, zero_tol))
        for key, (cand, lv) in zip(canonical_keys([cand for cand, _ in kept]), kept):
            if key not in grown and key not in l1_trees:
                (grown if lv == 0 else l1_trees)[key] = cand
        l0_trees[k + 1] = list(grown.values())

    l0_paths = {k: [t for t in trees if _is_path(t)] for k, trees in l0_trees.items()}

    l1_cycles: dict[bytes, CoxeterGraph] = {}
    for k in range(2, max_n):
        batches = [_joined(base, *_leaves(base)) for base in l0_paths[k]]
        cands = [cand for cand, lv in _levels01(batches, zero_tol) if lv == 1]
        for key, cand in zip(canonical_keys(cands), cands):
            l1_cycles.setdefault(key, cand)

    l1_tailed: list[CoxeterGraph] = []
    for m in range(3, max_n):
        batch = _joined(cycle_graph([3] * m), 0)
        l1_tailed.extend(cand for cand, lv in _levels01([batch], zero_tol) if lv == 1)

    return l0_trees, l1_trees, l1_cycles, l1_tailed


def _specials() -> list[CoxeterGraph]:
    k4 = complete_graph(4, 3)
    k4_minus_e = CoxeterGraph(4, tuple(e for e in k4.edges if (e[0], e[1]) != (2, 3)))
    k23 = CoxeterGraph(
        5, tuple((u, v, EdgeLabel(3)) for u in (0, 1) for v in (2, 3, 4))
    )
    return [k4, k4_minus_e, k23]


def enumerate_level1(max_n: int = 10, zero_tol: float = DEFAULT_ZERO_TOL) -> list[CoxeterGraph]:
    """Connected level-1 trees, cycles, and singly-tailed cycles, plus specials.

    These shapes (and the three special graphs) are the only connected
    level <= 1 graphs that appear as building blocks of level-2 graphs on
    five or more vertices, which also pins the label set to {3, 4, 5, 6}.
    """
    if not 2 <= max_n <= 10:
        raise ValueError(f"max_n must lie in 2..10, got {max_n}")
    _, l1_trees, l1_cycles, l1_tailed = _catalog_level01(max_n, zero_tol)
    keyed = [*l1_trees.items(), *l1_cycles.items()]
    rest = [g for g in l1_tailed + _specials() if g.rank <= max_n]
    keyed += zip(canonical_keys(rest), rest)
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
# order, as _members lists them.  enumerate_level2 filters the members as
# label codes and builds graphs only for survivors.
# ---------------------------------------------------------------------------


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
        yield CoxeterGraph(5), ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))  # butterfly
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


def _checked(batches: list[Batch]) -> list[Batch]:
    """The batches, once each one's first member is built as a graph.

    So a malformed free pair (out of range, a self-loop, or a duplicate of
    a pair or of a base edge) raises GraphError.
    """
    for base, pairs in batches:
        _labeled(base, pairs, (0,) * len(pairs))
    return batches


def _gram_stack(batches: list[Batch]) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices of every member of the _checked batches of one shape,
    bitwise their CoxeterGraph.gram, and the members, np.argwhere(_members).

    The level-1 catalog decides its levels on these stacks; tests filter the
    nomination stacks of each shape with a per-candidate eigvalsh filter as
    the reference for _rank_survivors.
    """
    grams, uv = _stacked(_checked(batches))
    members = np.argwhere(_members(uv))
    b, codes = members[:, 0], members[:, 1:]
    return _set_labels(grams[b], uv[b], codes), members


# ---------------------------------------------------------------------------
# Recognition: staged, vectorized level-2 filtering.
# level(g) == 2 is equivalent to: some vertex deletion is not positive
# semidefinite, and every deletion of two vertices is.  A non-PSD full
# matrix is a necessary precondition.  _rank_survivors is the census's
# path; the tests keep a filter that decides each candidate's own minors by
# direct eigvalsh calls as its reference.
# ---------------------------------------------------------------------------


def _rank_survivors(batches: list[Batch], zero_tol: float) -> list[np.ndarray]:
    """Label codes of the level-2 members of batches of one shape (rank and
    free-pair count), one array per batch.

    Every two-vertex deletion must be positive semidefinite, and its minor
    depends only on the labels of the free pairs inside it, so each
    deletion of a batch has a table with one row per labeling of those
    pairs.  The members alive are one boolean array ok, the _members mask,
    and read a deletion's table by mixed-radix code: its verdicts broadcast
    along the pairs outside.  Tables are decided in waves of increasing
    inside-pair count.  A wave lists the rows some member alive reads,
    deletion-major (one deletion across every batch, then the next), and
    decides them in blocks of forms._per_call(n - 2) rows, _KERNEL_ENTRIES
    entries (809 minors at rank 11); its first block holds a quarter of
    that.  After each block, every member that reads a failing row dies,
    and the rows left that no member alive reads are dropped, by the same
    read tables the wave was listed from.  A member survives exactly when
    every row it reads passes, and each row is bitwise its readers' own
    minor, so a row that only dead members read can change no survivor.
    Until the first kill every row is read; once the live members' codes
    take no more room than ok, reads and kills go through those codes, not
    the whole mask.  Some one-vertex deletion must then fail, decided in one
    call on the Gram matrices of the members left; by interlacing, the full
    matrix then fails too and needs no test of its own.
    """
    grams, uv = _stacked(batches)
    n, width = grams.shape[-1], uv.shape[1]
    keeps = np.array(list(combinations(range(n), n - 2)))
    kept = np.zeros((len(keeps), n), dtype=bool)
    kept[np.arange(len(keeps))[:, None], keeps] = True
    # by (batch, deletion, free pair): whether the pair is inside, and its place in the minor
    inside = kept[:, uv].all(axis=-1).transpose(1, 0, 2)
    at = (np.cumsum(kept, axis=1) - 1)[:, uv].transpose(1, 0, 2, 3)
    masks = inside @ (1 << np.arange(width))
    counts = inside.sum(axis=-1)
    ok = _members(uv)
    full = True  # every member alive, until the first kill
    live = None  # the live members' coordinates, once they take no more room than ok

    def table(mask: int) -> tuple[int, ...]:
        """Shape of a table of inside pairs mask: ok's, with one code along each pair outside."""
        return (len(ok), *(ok.shape[a + 1] if mask >> a & 1 else 1 for a in range(width)))

    def projected(mask: int) -> tuple[np.ndarray, ...]:
        """The live members' places in a table of inside pairs mask."""
        return (live[0], *(x if mask >> a & 1 else 0 for a, x in enumerate(live[1:])))

    def reads(mask: int) -> np.ndarray:
        """Which rows of the tables of inside pairs mask some live member reads."""
        if full:
            return np.ones(table(mask), dtype=bool)
        if live is None:
            outside = tuple(a + 1 for a in range(width) if not mask >> a & 1)
            return ok.any(axis=outside, keepdims=True)
        read = np.zeros(table(mask), dtype=bool)
        read[projected(mask)] = True
        return read

    def by_mask(b, d):
        """Each inside-pair mask of the tables (batch b, deletion d), with where it is theirs."""
        mask = masks[b, d]
        return ((m, mask == m) for m in np.unique(mask).tolist())

    def still_read(b, d, codes):
        """The rows (batch b, deletion d, label codes) that some live member reads."""
        keep = np.zeros(len(b), dtype=bool)
        for m, sel in by_mask(b, d):
            keep[sel] = reads(m)[(b[sel], *codes[sel].T)]
        return b[keep], d[keep], codes[keep]

    def kill(b, d, codes) -> None:
        """Every member that reads one of the rows dies."""
        nonlocal full, live
        for m, sel in by_mask(b, d):
            bad = np.zeros(table(m), dtype=bool)
            bad[(b[sel], *codes[sel].T)] = True
            if live is None:
                np.logical_and(ok, ~bad, out=ok)
            else:
                ok[tuple(x[bad[projected(m)]] for x in live)] = False
        full = False
        if live is not None:
            live = tuple(x[ok[live]] for x in live)
        elif 8 * ok.ndim * np.count_nonzero(ok) <= ok.size:
            live = np.unravel_index(np.flatnonzero(ok), ok.shape)

    per_call = _per_call(n - 2)
    for c in range(width + 1):
        # wave c: each deletion with c pairs inside, deletion-major, each row a live member reads
        d, b = np.nonzero((counts == c).T)
        rows = []
        for m, sel in by_mask(b, d):
            entry = np.flatnonzero(sel)
            e, *digits = np.nonzero(reads(m)[b[entry]])
            rows.append((entry[e], np.stack(digits, axis=-1).astype(np.int8)))
        if not rows:
            continue
        entry, codes = (np.concatenate(col) for col in zip(*rows))
        order = np.argsort(entry, kind="stable")
        b, d, codes = b[entry[order]], d[entry[order]], codes[order]
        # blocks of rows; after each, its failing rows kill and the rows no one alive reads drop.
        # A small first block lets the first kills spare most of the wave's rows.
        size = max(1, per_call // 4)
        while len(b):
            bb, dd, cc = b[:size], d[:size], codes[:size]
            b, d, codes = b[size:], d[size:], codes[size:]
            keep = keeps[dd]
            minors = grams[bb[:, None, None], keep[:, :, None], keep[:, None, :]]
            _set_labels(minors, at[bb, dd], cc, inside[bb, dd])
            failed = ~minors_psd(minors, 0, zero_tol)
            if failed.any():
                kill(bb[failed], dd[failed], cc[failed])
                b, d, codes = still_read(b, d, codes)
            size = per_call

    # the members left, in batch order, to the one-vertex stage
    alive = np.argwhere(ok)
    b, codes = alive[:, 0], alive[:, 1:].astype(np.int8)
    fails = ~minors_psd(_set_labels(grams[b], uv[b], codes), 1, zero_tol)
    return [codes[fails & (b == i)] for i in range(len(batches))]


def _by_rank(graphs: list[CoxeterGraph], decide) -> np.ndarray:
    """decide(grams) on one stack of the graphs' own Gram matrices per rank, as one mask."""
    mask = np.zeros(len(graphs), dtype=bool)
    for n in sorted({g.rank for g in graphs}):
        idx = [i for i, g in enumerate(graphs) if g.rank == n]
        mask[idx] = decide(np.stack([graphs[i].gram for i in idx]))
    return mask


def _check_level(graphs: list[CoxeterGraph], r: int, zero_tol: float, message: str) -> None:
    """Raise InconsistencyError naming the first graph whose level is not r.

    Decided by forms._levels, as forms.level decides, on one Gram stack per rank.
    """
    bad = np.flatnonzero(~_by_rank(graphs, lambda grams: _levels(grams, zero_tol, r + 1) == r))
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


def _survivors(
    level1: list[CoxeterGraph], max_rank: int, zero_tol: float
) -> list[tuple[Family, CoxeterGraph]]:
    """Candidates that pass recognition, tagged with their family, in nomination order.

    Candidates are filtered as label codes, the _checked batches of each
    shape (rank and free-pair count) together, whatever their families;
    only survivors become graphs.
    """
    tagged = [
        (f, b) for f in Family for b in _nomination_batches(f, level1) if 5 <= b[0].rank <= max_rank
    ]
    batches = _checked([b for _, b in tagged])
    shapes = [(base.rank, len(pairs)) for base, pairs in batches]
    codes: dict[int, np.ndarray] = {}
    for shape in sorted(set(shapes)):
        idx = [i for i, s in enumerate(shapes) if s == shape]
        codes.update(zip(idx, _rank_survivors([batches[i] for i in idx], zero_tol)))
    return [(f, _labeled(*b, row)) for i, (f, b) in enumerate(tagged) for row in codes[i].tolist()]


def enumerate_level2(max_rank: int = 11, zero_tol: float = DEFAULT_ZERO_TOL) -> list[CensusEntry]:
    """All connected level-2 graphs on 5..max_rank vertices, sorted by key.

    Candidates come from the nomination families in declaration order; the
    first family to produce a graph keeps the tag.  Every survivor is
    verified to have level 2 from its own Gram matrix, independent of how it
    was constructed.
    """
    if not 5 <= max_rank <= 11:
        raise ValueError(f"max_rank must lie in 5..11, got {max_rank}")
    level1 = enumerate_level1(min(10, max_rank - 1), zero_tol)
    survivors = _survivors(level1, max_rank, zero_tol)
    _check_level([g for _, g in survivors], 2, zero_tol, "recognition accepted {} but level != 2")
    firsts: dict[bytes, tuple[Family, CoxeterGraph]] = {}
    for key, (family, g) in zip(canonical_keys([g for _, g in survivors]), survivors):
        firsts.setdefault(key, (family, g))
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
