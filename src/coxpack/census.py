"""Census of connected level-2 graphs on 5..11 vertices over labels {3,4,5,6}.

Candidates are nominated family by family from a catalog of level-1 graphs
(trees, cycles, and cycles with a pendant edge) plus three simply-laced
special graphs.  A family is a list of batches: a base graph plus a few free
vertex pairs, standing for every labeling of those pairs; the batches that
add a vertex to one graph share one base.  The census works on label codes
from the catalog to the output: a graph is a (n, n) matrix of codes, its
Gram matrix and its canonical key are computed from the codes, and a
CoxeterGraph is built only for a base, a level-1 class of the catalog and a
census entry (607 graphs at rank 11, for 379,908 candidates).  The members
of the batches of one shape (rank and free-pair count), whatever their
families, are one boolean mask over the free pairs' codes (_members), and
the free pairs are checked on their arrays (_stacked), once per shape:
recognition and the survivors' codes share those arrays.

Recognition decides each minor at most once, and only when a live candidate
reads it.  A graph has level 2 when every two-vertex deletion is finite or
affine (its Gram minor is positive semidefinite) and some one-vertex
deletion is not; a principal submatrix of a positive semidefinite matrix is
positive semidefinite (Cauchy interlacing), so the full matrix then fails
too and needs no test of its own.  The minor a two-vertex deletion keeps
depends only on the labels of the free pairs inside it, so each deletion of
each batch has a table of those sub-labelings, and every candidate reads
its verdict by mixed-radix code; a table row is bitwise the candidate's own
minor.  Verdicts nomination proves are skipped: each base less its last
vertex has level <= 1, so a deletion keeping no free pair passes (wave 0),
and at level 1 deleting that vertex leaves a graph that is not positive
semidefinite.  The tables of all batches of one shape are decided in waves
of increasing inside-pair count.  A wave lists its rows deletion by
deletion across the batches and decides them in blocks; after each block
the candidates reading a failing row die, and the rows that no candidate
still alive reads are dropped.  A candidate survives exactly when every row
it reads passes, so skipping those rows changes no survivor, and a
candidate that fails one row costs no later row.  The one-vertex deletions
of the candidates of edgeless bases left are then decided in one stack.  A
false proof could only add survivors, which their level check refuses.

The level-1 catalog grows one rank per step: the step's candidates decide
levels 0 and 1 on one Gram stack, and only those of level <= 1 are keyed,
in one key search; level is invariant under isomorphism, so the first
representative of each kept class is unchanged.  The three special graphs
are keyed from their codes in the key search of their rank's step.  Every
survivor (890 at rank 11) is verified to have level 2 from its own Gram
matrix, one stack per rank apart from recognition's tables, before
survivors are deduplicated by canonical key, one key search per rank; the
first survivor of each key becomes an entry, its strictness, fundamental
weights and weight roles taken on one stack per rank.  The census runs in
one process.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .forms import DEFAULT_ZERO_TOL, _levels, _per_call, fundamental_weights, minors_psd
from .graphs import (
    CoxeterGraph,
    EdgeLabel,
    GraphError,
    _token_keys,
    complete_graph,
    to_compact,
)
from .tangency import (
    InconsistencyError,
    VertexClass,
    classify_weight_norm,
)

ADMISSIBLE_LABELS = (3, 4, 5, 6)
_LABELS = tuple(EdgeLabel(m) for m in ADMISSIBLE_LABELS)
_CODE = {m: c for c, m in enumerate(ADMISSIBLE_LABELS)}  # bond order -> label code
_ABSENT = len(_LABELS)  # the code of a non-edge and of the diagonal
# label code -> off-diagonal Gram entry
_ENTRIES = np.array([lab.gram_entry() for lab in _LABELS] + [0.0])
_TEXTS = [f"m{m}" for m in ADMISSIBLE_LABELS] + ["-"]  # code -> its text in a canonical key


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
# Batches, label codes and shape predicates.
# ---------------------------------------------------------------------------


# (base, free_pairs): see Nomination below
Batch = tuple[CoxeterGraph, tuple[tuple[int, int], ...]]


def _grown(g: CoxeterGraph) -> CoxeterGraph:
    """g with one more vertex, isolated."""
    return CoxeterGraph(g.rank + 1, g.edges)


def _joined(base: CoxeterGraph, *vs: int) -> Batch:
    """Batch joining the last vertex of base, isolated in it, to each of vs."""
    return base, tuple((v, base.rank - 1) for v in vs)


def _code_stack(graphs: list[CoxeterGraph], n: int) -> np.ndarray:
    """Label codes of graphs of rank n over ADMISSIBLE_LABELS, one (n, n) int8
    matrix each: code c on an edge labeled ADMISSIBLE_LABELS[c], _ABSENT off the edges."""
    edges = [(j, u, v, _CODE[lab.m]) for j, g in enumerate(graphs) for u, v, lab in g.edges]
    j, u, v, c = np.array(edges, dtype=np.intp).reshape(-1, 4).T
    stack = np.full((len(graphs), n, n), _ABSENT, dtype=np.int8)
    stack[j, u, v] = stack[j, v, u] = c
    return stack


def _graphs(stack: np.ndarray) -> list[CoxeterGraph]:
    """The graph of each (n, n) matrix of label codes in the stack."""
    j, u, v = np.nonzero(np.triu(stack < _ABSENT, 1))
    edges: list[list] = [[] for _ in stack]
    for at, x, y, c in zip(j.tolist(), u.tolist(), v.tolist(), stack[j, u, v].tolist()):
        edges[at].append((x, y, _LABELS[c]))
    return [CoxeterGraph(stack.shape[-1], tuple(e)) for e in edges]


def _grams(stack: np.ndarray) -> np.ndarray:
    """Gram matrices of a stack of label codes, bitwise their graphs' CoxeterGraph.gram."""
    grams = _ENTRIES[stack]
    diagonal = np.arange(stack.shape[-1])
    grams[:, diagonal, diagonal] = 1.0
    return grams


def _stacked(batches: list[Batch]) -> tuple[np.ndarray, np.ndarray]:
    """Batches of one shape as arrays: batch b has the base label codes
    stack[b] and free pair p at the vertices uv[b, p].

    Raises GraphError unless the batches share one rank and free-pair count,
    and each free pair joins two distinct vertices in range that no other
    pair of its batch and no base edge joins.
    """
    shapes = sorted({(base.rank, len(pairs)) for base, pairs in batches})
    if len(shapes) != 1:
        raise GraphError(f"batches of one (rank, free pairs) shape expected, got {shapes}")
    [(n, width)] = shapes
    uv = np.array([pairs for _, pairs in batches], dtype=np.intp).reshape(len(batches), width, 2)
    stack = _code_stack([base for base, _ in batches], n)

    def refuse(bad: np.ndarray, what: str) -> None:
        if bad.any():
            b, p = np.argwhere(bad)[0]
            raise GraphError(f"free pair {tuple(uv[b, p].tolist())} of batch {b} {what}")

    refuse(((uv < 0) | (uv >= n)).any(axis=-1), f"is out of range (rank {n})")
    u, v = uv[..., 0], uv[..., 1]
    refuse(u == v, "is a self-loop")
    refuse(stack[np.arange(len(uv))[:, None], u, v] != _ABSENT, "duplicates a base edge")
    pair = np.minimum(u, v) * n + np.maximum(u, v)
    refuse(np.tril(pair[:, :, None] == pair[:, None, :], -1).any(axis=-1), "is repeated")
    return stack, uv


def _members(uv: np.ndarray) -> np.ndarray:
    """Every member of the batches with free pairs uv, as one all-true boolean
    mask shaped (batch, radix, ..., radix), one code axis per free pair: np.nonzero
    lists the members in batch order and each batch's labelings in product order."""
    return np.ones(uv.shape[:1] + (len(_LABELS),) * uv.shape[1], dtype=bool)


def _member_codes(stack: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Label codes of every member of the batches with base codes stack and
    free pairs uv, in _members order."""
    members = np.argwhere(_members(uv))
    b, codes = members[:, 0], members[:, 1:]
    return _set_labels(stack[b], uv[b], codes)


def _set_labels(stack: np.ndarray, at: np.ndarray, values: np.ndarray, mask=None) -> np.ndarray:
    """Write values[i, p], label codes into a code stack or their Gram
    entries into a Gram stack, into stack[i] at the symmetric places
    at[i, p] wherever mask[i, p] holds (everywhere by default, one pair
    across the whole stack at a time); returns the stack."""
    if mask is None:
        i = np.arange(len(stack))
        for (x, y), value in zip(at.transpose(1, 2, 0), values.T):
            stack[i, x, y] = stack[i, y, x] = value
        return stack
    i, p = np.nonzero(mask)
    x, y = at[i, p].T
    stack[i, x, y] = stack[i, y, x] = values[i, p]
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
# positive-semidefinite cycles.  The catalog grows one rank per step, as
# label codes: the step's trees, cycles and tailed cycles are decided on one
# Gram stack and keyed in one key search, and a graph is built only for the
# first representative of each level-1 class.
# ---------------------------------------------------------------------------


def _catalog_level01(max_n: int, zero_tol: float, specials: Sequence[CoxeterGraph] = ()):
    """Level-0 trees by rank, the level-1 trees, cycles and tailed cycles, and specials keyed.

    The level-0 trees are label-code stacks, one (tree, k, k) stack for each
    rank k, one tree per class.  The level-1 trees, cycles and tailed cycles
    come keyed, as dicts from canonical key to graph, each holding the first
    member of its class in candidate order (base, vertex, labeling), and so
    do the specials, keyed in the search of their rank's step (not leveled).
    """
    l0_trees = {1: np.full((1, 1, 1), _ABSENT, dtype=np.int8)}
    l1_trees: dict[bytes, CoxeterGraph] = {}
    l1_cycles: dict[bytes, CoxeterGraph] = {}
    l1_tailed: dict[bytes, CoxeterGraph] = {}
    keyed_specials: dict[bytes, CoxeterGraph] = {}
    for k in range(1, max_n):
        trees = l0_trees[k]
        grown = np.full((len(trees), k + 1, k + 1), _ABSENT, dtype=np.int8)
        grown[:, :k, :k] = trees
        # (base codes, free pairs) of each kind of candidate; trees: each
        # vertex of each level-0 tree joined to the new vertex k
        t, v = np.divmod(np.arange(len(trees) * k), k)
        kinds = [(grown[t], np.stack([v, np.full_like(v, k)], axis=-1)[:, None])]
        if k >= 2:
            # cycles: both ends of each level-0 path joined to k
            degree = (trees < _ABSENT).sum(axis=2)
            paths = np.flatnonzero((degree <= 2).all(axis=1))
            ends = np.nonzero(degree[paths] == 1)[1].reshape(-1, 2)
            kinds.append((grown[paths], np.stack([ends, np.full_like(ends, k)], axis=-1)))
        if k >= 3:
            # tailed cycles: vertex 0 of the all-3 cycle on k vertices joined to k
            ring = np.full((1, k + 1, k + 1), _ABSENT, dtype=np.int8)
            i = np.arange(k)
            ring[0, i, (i + 1) % k] = ring[0, (i + 1) % k, i] = _CODE[3]
            kinds.append((ring, np.array([[[0, k]]])))
        stacks = [_member_codes(*batches) for batches in kinds]
        stack = np.concatenate(stacks)
        levels = _levels(_grams(stack), zero_tol, below=2)
        kind = np.repeat(np.arange(len(stacks)), [len(x) for x in stacks])
        kept = np.flatnonzero((levels == 1) | (kind == 0) & (levels == 0))
        same = [g for g in specials if g.rank == k + 1]
        keys = _token_keys(np.concatenate([stack[kept], _code_stack(same, k + 1)]), _TEXTS)
        keyed_specials.update(zip(keys[len(kept):], same))
        firsts: dict[bytes, int] = {}
        for key, i in zip(keys, kept.tolist()):
            firsts.setdefault(key, i)
        l0_trees[k + 1] = stack[[i for i in firsts.values() if levels[i] == 0]]
        classes = [(key, i) for key, i in firsts.items() if levels[i] == 1]
        for (key, i), g in zip(classes, _graphs(stack[[i for _, i in classes]])):
            (l1_trees, l1_cycles, l1_tailed)[kind[i]][key] = g
    return l0_trees, l1_trees, l1_cycles, l1_tailed, keyed_specials


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
    _, *kinds = _catalog_level01(max_n, zero_tol, _specials())
    keyed = [item for kind in kinds for item in kind.items()]
    for n in sorted({g.rank for _, g in keyed}):
        stack = _code_stack([g for _, g in keyed if g.rank == n], n)
        _check_level(stack, 1, zero_tol, "catalog graph {} is not level 1")
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
# label codes and keeps the survivors as label codes.
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
# the level of each base of a family less its last vertex, as _nomination_batches proves it
_BASE_LEVEL = {family: 0 if family is Family.TWO_CYCLES else 1 for family in Family}


def _nomination_batches(family: Family, level1: list[CoxeterGraph]) -> Iterator[Batch]:
    """The batches of one family, in nomination order; the batches that add a
    vertex to one graph share one base.  With level1 from enumerate_level1,
    each base's last vertex is isolated in it and the base less it has level
    _BASE_LEVEL[family]: two_cycles' bases are edgeless, and every other
    family's free pairs join that vertex to a level-1 catalog or special graph.
    """
    if family in _SPECIAL_INDEX:
        # a new vertex joined to a nonempty subset of a special graph
        special = _specials()[_SPECIAL_INDEX[family]]
        base = _grown(special)
        for r in range(1, special.rank + 1):
            for subset in combinations(range(special.rank), r):
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
                yield _joined(_grown(p), *_leaves(p))
    elif family is Family.CYCLE_TAIL1:
        # pendant edge on a level-1 cycle
        for cyc in level1:
            if _is_cycle(cyc):
                base = _grown(cyc)
                for v in range(cyc.rank):
                    yield _joined(base, v)
        # level-1 tree with three leaves, new vertex joined to two of them;
        # the remaining branch becomes the tail and must have length one
        for t in level1:
            if not _is_tree(t):
                continue
            leaves = _leaves(t)
            if len(leaves) != 3:
                continue
            hub = next(v for v in range(t.rank) if t.degree(v) == 3)
            base = _grown(t)
            for l1, l2 in combinations(leaves, 2):
                third = next(x for x in leaves if x not in (l1, l2))
                if third in t.neighbors(hub):
                    yield _joined(base, l1, l2)
        # level-1 path, new vertex joined to the second and the last vertex
        for p in level1:
            if not _is_path(p) or p.rank < 3:
                continue
            order = _path_order(p)
            base = _grown(p)
            for seq in (order, order[::-1]):
                yield _joined(base, seq[1], seq[-1])
    elif family is Family.CYCLE_TAIL2:
        # grow the tail of a level-1 tailed cycle by one edge
        for tc in level1:
            if _is_tailed_cycle(tc):
                yield _joined(_grown(tc), _leaves(tc)[0])
    elif family is Family.CYCLE_TWO_TAILS:
        # pendant edge on any cycle vertex of a level-1 tailed cycle
        for tc in level1:
            if not _is_tailed_cycle(tc):
                continue
            tail = _leaves(tc)[0]
            base = _grown(tc)
            for v in range(tc.rank):
                if v != tail:
                    yield _joined(base, v)
    elif family is Family.TREE:
        for t in level1:
            if _is_tree(t):
                base = _grown(t)
                for v in range(t.rank):
                    yield _joined(base, v)
    else:
        raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Recognition: staged, vectorized level-2 filtering.
# level(g) == 2 is equivalent to: some vertex deletion is not positive
# semidefinite, and every deletion of two vertices is.  A non-PSD full
# matrix is a necessary precondition.  _rank_survivors is the census's
# path; the tests keep a filter that decides each candidate's own minors by
# direct eigvalsh calls as its reference.
# ---------------------------------------------------------------------------


def _rank_survivors(
    stack: np.ndarray, uv: np.ndarray, zero_tol: float, levels: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The level-2 members of the batches of one shape (rank and free-pair
    count) with base codes stack and free pairs uv, as _stacked gives them:
    each member's batch and its free pairs' label codes, in _members order.

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
    the whole mask, and the members left are taken from them.  Some
    one-vertex deletion must then fail, decided in one call on the Gram
    matrices of the members left; by interlacing, the full matrix then fails
    too and needs no test of its own.

    levels, if given, is the level of each batch's base less its last
    vertex v, L, as nomination proves it.  Where it is <= 1, v must be
    isolated in the base (GraphError otherwise), and no wave-0 row is
    listed: a deletion keeping no free pair leaves L - x or L - x - y beside
    v, positive semidefinite.  Where it is 1, every free pair must join v,
    so a member less v is L, which is not: the one-vertex stage is skipped.
    """
    grams = _grams(stack)
    n, width = grams.shape[-1], uv.shape[1]
    levels = np.full(len(uv), 2) if levels is None else levels  # level 2 proves nothing
    stray = (stack[:, -1] != _ABSENT).any(axis=-1) & (levels <= 1)
    stray |= (uv != n - 1).all(axis=-1).any(axis=-1) & (levels == 1)
    if stray.any():
        raise GraphError(f"batch {np.argmax(stray)}: vertex {n - 1} has an edge or misses a pair")
    keeps = np.array(list(combinations(range(n), n - 2)))
    kept = np.zeros((len(keeps), n), dtype=bool)
    kept[np.arange(len(keeps))[:, None], keeps] = True
    # by (batch, deletion, free pair): whether the pair is inside, and its place in the minor
    inside = kept[:, uv].all(axis=-1).transpose(1, 0, 2)
    at = (np.cumsum(kept, axis=1) - 1)[:, uv].transpose(1, 0, 2, 3)
    masks = inside @ (1 << np.arange(width))
    # the wave of each (batch, deletion); -1, none, for the wave-0 rows a level proves
    counts = np.where((levels <= 1)[:, None] & ~inside.any(axis=-1), -1, inside.sum(axis=-1))
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
            _set_labels(minors, at[bb, dd], _ENTRIES[cc], inside[bb, dd])
            failed = ~minors_psd(minors, 0, zero_tol)
            if failed.any():
                kill(bb[failed], dd[failed], cc[failed])
                b, d, codes = still_read(b, d, codes)
            size = per_call

    # the members left, in batch order, to the one-vertex stage
    b, *digits = np.nonzero(ok) if live is None else live
    codes = np.stack(digits, axis=-1).astype(np.int8)
    fails = (levels == 1)[b]
    if not (levels == 1).all():
        rest = ~fails
        stage = _set_labels(grams[b[rest]], uv[b[rest]], _ENTRIES[codes[rest]])
        fails[rest] = ~minors_psd(stage, 1, zero_tol)
    return b[fails], codes[fails]


def _check_level(stack: np.ndarray, r: int, zero_tol: float, message: str) -> None:
    """Raise InconsistencyError naming the first graph of a label-code stack whose level is not r.

    Decided by forms._levels, as forms.level decides, on the graphs' Gram matrices.
    """
    bad = np.flatnonzero(_levels(_grams(stack), zero_tol, r + 1) != r)
    if bad.size:
        raise InconsistencyError(message.format(to_compact(_graphs(stack[bad[:1]])[0])))


# ---------------------------------------------------------------------------
# The census.
# ---------------------------------------------------------------------------


def _survivors(
    level1: list[CoxeterGraph], max_rank: int, zero_tol: float
) -> list[tuple[list[Family], np.ndarray]]:
    """Candidates that pass recognition, one (families, codes) pair per rank
    from 5 up, in nomination order: each survivor's family, and its label
    codes as one (survivor, n, n) stack.

    Candidates are filtered as label codes, the batches of each shape (rank
    and free-pair count) together, whatever their families; a survivor's
    codes are its base's with its free pairs' codes written in.
    """
    tagged = [
        (f, b) for f in Family for b in _nomination_batches(f, level1) if 5 <= b[0].rank <= max_rank
    ]
    shapes = [(base.rank, len(pairs)) for _, (base, pairs) in tagged]
    found: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for shape in sorted(set(shapes)):
        idx = np.array([i for i, s in enumerate(shapes) if s == shape])
        stack, uv = _stacked([tagged[i][1] for i in idx])
        levels = np.array([_BASE_LEVEL[tagged[i][0]] for i in idx])
        b, codes = _rank_survivors(stack, uv, zero_tol, levels)
        found.setdefault(shape[0], []).append((idx[b], _set_labels(stack[b], uv[b], codes)))
    ranks = []
    for n in sorted(found):
        at, stack = (np.concatenate(col) for col in zip(*found[n]))
        order = np.argsort(at, kind="stable")
        ranks.append(([tagged[i][0] for i in at[order].tolist()], stack[order]))
    return ranks


def enumerate_level2(max_rank: int = 11, zero_tol: float = DEFAULT_ZERO_TOL) -> list[CensusEntry]:
    """All connected level-2 graphs on 5..max_rank vertices, sorted by key.

    Candidates come from the nomination families in declaration order; the
    first family to produce a graph keeps the tag.  Every survivor is
    verified to have level 2 from its own Gram matrix, independent of how it
    was constructed, before survivors are deduplicated.  A graph is built
    only for the first survivor of each key.
    """
    if not 5 <= max_rank <= 11:
        raise ValueError(f"max_rank must lie in 5..11, got {max_rank}")
    level1 = enumerate_level1(min(10, max_rank - 1), zero_tol)
    entries = []
    for families, stack in _survivors(level1, max_rank, zero_tol):
        _check_level(stack, 2, zero_tol, "recognition accepted {} but level != 2")
        firsts: dict[bytes, int] = {}
        for i, key in enumerate(_token_keys(stack, _TEXTS)):
            firsts.setdefault(key, i)
        stack = stack[list(firsts.values())]
        grams = _grams(stack)
        strict = minors_psd(grams, 2, zero_tol, finite=True)
        roles = classify_weight_norm(fundamental_weights(grams)[1], level2=True)
        # VertexClass lists the roles in the order of CensusEntry's counts
        counts = [(roles == role).sum(axis=1).tolist() for role in VertexClass]
        entries += (
            CensusEntry(g, key, families[i], s, *c)
            for (key, i), g, s, *c in zip(firsts.items(), _graphs(stack), strict.tolist(), *counts)
        )
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
