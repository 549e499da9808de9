"""Edge-labeled Coxeter graphs: construction, serialization, canonical keys.

A graph on vertices 0..rank-1 carries at most one label per unordered pair.
An absent edge means the two generators commute (bond order 2).  Labels are
stored exactly as given; all floating-point work happens downstream on the
Gram matrix.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

MAX_RANK = 32


class GraphError(ValueError):
    """Malformed graph input or an operation violating a graph invariant."""


@dataclass(frozen=True)
class EdgeLabel:
    """Label of one edge: finite bond order m >= 3, or infinity with finite weight c >= 1.

    An infinite bond with c > 1 is a dotted edge in Vinberg's convention;
    c = 1 is an ordinary infinite bond.  The two kinds stay distinct even
    when they produce the same Gram entry family.
    """

    m: int | None
    c: float = 1.0

    def __post_init__(self):
        if self.m is None:
            if not isinstance(self.c, (int, float)) or isinstance(self.c, bool):
                raise GraphError(f"infinite label weight must be a number, got {self.c!r}")
            object.__setattr__(self, "c", float(self.c))
            if not (math.isfinite(self.c) and self.c >= 1.0):
                raise GraphError(f"infinite label needs a finite c >= 1, got {self.c}")
        else:
            if not isinstance(self.m, int) or isinstance(self.m, bool):
                raise GraphError(f"finite label order must be an integer, got {self.m!r}")
            if self.m < 3:
                raise GraphError(f"finite label needs m >= 3 (m = 2 is an absent edge), got {self.m}")
            if self.c != 1.0:
                raise GraphError("weight c applies only to infinite labels")

    @property
    def dotted(self) -> bool:
        return self.m is None and self.c > 1.0

    def gram_entry(self) -> float:
        if self.m is None:
            return -self.c
        return -math.cos(math.pi / self.m)

    def token(self) -> tuple[int, float]:
        """Totally ordered, hashable code distinguishing label kinds and values."""
        if self.m is None:
            return (1, float(self.c))
        return (0, float(self.m))

    def __str__(self) -> str:
        if self.m is not None:
            return str(self.m)
        return "inf" if self.c == 1.0 else f"inf({self.c!r})"


@dataclass(frozen=True)
class CoxeterGraph:
    """Immutable labeled graph; edges are held sorted so equality is set-like."""

    rank: int
    edges: tuple[tuple[int, int, EdgeLabel], ...] = ()

    def __post_init__(self):
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise GraphError(f"rank must be an integer, got {self.rank!r}")
        if self.rank < 1:
            raise GraphError(f"rank must be >= 1, got {self.rank}")
        if self.rank > MAX_RANK:
            raise GraphError(f"rank {self.rank} exceeds the supported maximum {MAX_RANK}")
        seen = set()
        norm = []
        for item in self.edges:
            try:
                u, v, lab = item
            except (TypeError, ValueError):
                raise GraphError(f"edge must be a (u, v, label) triple, got {item!r}") from None
            if not isinstance(u, int) or not isinstance(v, int) or bool in (type(u), type(v)):
                raise GraphError(f"vertex ids must be integers, got {item!r}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.rank and 0 <= v < self.rank):
                raise GraphError(f"vertex id out of range in edge {item!r} (rank {self.rank})")
            if not isinstance(lab, EdgeLabel):
                lab = _coerce_label(lab)
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                raise GraphError(f"duplicate edge {a}-{b}")
            seen.add((a, b))
            norm.append((a, b, lab))
        norm.sort(key=lambda e: (e[0], e[1]))
        object.__setattr__(self, "edges", tuple(norm))

    @cached_property
    def _labels(self) -> dict[tuple[int, int], EdgeLabel]:
        return {(u, v): lab for u, v, lab in self.edges}

    def label(self, u: int, v: int) -> EdgeLabel | None:
        """Label of edge uv, or None when the generators commute."""
        if u > v:
            u, v = v, u
        return self._labels.get((u, v))

    def bond_order(self, u: int, v: int) -> float:
        lab = self.label(u, v)
        if lab is None:
            return 2
        return math.inf if lab.m is None else lab.m

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.rank)]
        for u, v, _ in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(x)) for x in nbrs)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def is_connected(self) -> bool:
        if self.rank == 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self._adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.rank

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram matrix of the bilinear form in the simple-root basis (read-only)."""
        b = np.eye(self.rank)
        for u, v, lab in self.edges:
            b[u, v] = b[v, u] = lab.gram_entry()
        b.setflags(write=False)
        return b


def _coerce_label(lab) -> EdgeLabel:
    """Accept EdgeLabel, an integer order, or ('inf', c) for convenience."""
    if isinstance(lab, EdgeLabel):
        return lab
    if isinstance(lab, int) and not isinstance(lab, bool):
        return EdgeLabel(lab)
    if isinstance(lab, tuple) and len(lab) == 2 and lab[0] == "inf":
        return EdgeLabel(None, lab[1])
    raise GraphError(f"cannot interpret edge label {lab!r}")


def induced_subgraph(g: CoxeterGraph, keep) -> CoxeterGraph:
    """Subgraph on `keep`, vertices relabeled 0..k-1 preserving relative order."""
    kept = sorted(set(keep))
    if not kept:
        raise GraphError("induced subgraph needs a nonempty vertex set")
    if kept[0] < 0 or kept[-1] >= g.rank:
        raise GraphError(f"vertex set {kept} not contained in 0..{g.rank - 1}")
    remap = {v: i for i, v in enumerate(kept)}
    edges = [
        (remap[u], remap[v], lab)
        for u, v, lab in g.edges
        if u in remap and v in remap
    ]
    return CoxeterGraph(len(kept), tuple(edges))


# ---------------------------------------------------------------------------
# Canonical form.  Individualization-refinement, exact for edge-labeled
# graphs, with the search tree of every graph of one rank walked breadth
# first in numpy (McKay & Piperno, Practical graph isomorphism II, 2014).
#
# Refinement signs a vertex by its colour and its edges alone, as the sorted
# codes tok * n + colour of its neighbours, with one sentinel that ranks
# after every edge code at its non-edges and on the diagonal.  These
# signatures order vertices exactly as full rows of (token, colour) pairs
# over all other vertices would: non-edges sort after every edge, so the
# sentinel puts a longer neighbour list first, and the non-neighbours'
# colours follow from the colour histogram.  Token ranks are taken over all
# the graphs keyed together; each graph's own ranks are a monotone
# relabelling of them, so they order signatures the same way.  A round
# ranks each node's signatures; a node is refined when its cell count stops
# growing, and its colours are then the ranks of its cells.
#
# A node's target cell is its smallest colour c with two or more vertices.
# Its children individualize each vertex v of the cell in turn: v keeps
# colour c and every other vertex of colour >= c moves up by one, the ranks
# of the split 2c + 1, with 2c for v.  A discrete colouring is a leaf; its
# encoding is the upper triangle of the token matrix in colour order, and
# the key is the least encoding over the leaves.
#
# Sibling pruning: each child dives along its first path, individualizing
# the lowest vertex of its target cell until the colouring is discrete, and
# of the siblings whose dive leaves encode alike only the first is kept.
# Equal encodings of leaves lambda_1, lambda_2 (vertex -> position) give an
# automorphism sigma = lambda_2^-1 o lambda_1.  Refinement preserves the
# order of cells, so every leaf below a node puts each of the node's cells
# in the same block of positions: sigma preserves the parent colouring and
# maps v_1 to v_2.  It then maps the subtree of v_1 onto that of v_2 with
# the same encodings, so pruning never changes the least leaf.  A node's
# first child individualizes the lowest vertex of its target cell, which is
# the first step of the node's own dive, so it reuses the node's dive leaf.
# ---------------------------------------------------------------------------


# graphs searched together: bounds the working set, which grows with the
# nodes of a level (0.9 MiB for the census's largest call, its 620
# survivors of rank 5, which is one block)
_KEY_BLOCK = 1024


def canonical_key(g: CoxeterGraph) -> bytes:
    """Deterministic byte string; equal exactly for isomorphic labeled graphs."""
    return canonical_keys([g])[0]


def canonical_keys(graphs: Sequence[CoxeterGraph]) -> list[bytes]:
    """canonical_key of each graph, in input order; graphs of one rank are searched together."""
    tokens = sorted({lab.token() for g in graphs for _, _, lab in g.edges})
    code = {t: i for i, t in enumerate(tokens)}
    texts = [f"m{int(c)}" if kind == 0 else f"i{c!r}" for kind, c in tokens] + ["-"]
    keys = [b""] * len(graphs)
    for n in sorted({g.rank for g in graphs}):
        same = [i for i, g in enumerate(graphs) if g.rank == n]
        edges = np.fromiter(
            (x for j, i in enumerate(same) for u, v, lab in graphs[i].edges
             for x in (j, u, v, code[lab.token()])),
            dtype=np.int64,
        )
        j, u, v, t = edges.reshape(-1, 4).T
        tok = np.full((len(same), n, n), len(tokens), dtype=np.min_scalar_type(len(tokens)))
        tok[j, u, v] = tok[j, v, u] = t
        for i, key in zip(same, _token_keys(tok, texts), strict=True):
            keys[i] = key
    return keys


def _token_keys(tok: np.ndarray, texts: Sequence[str]) -> list[bytes]:
    """The canonical_key of each graph of a (graph, n, n) stack of token codes.

    Code t < len(texts) - 1 is an edge labelled texts[t], and the last code,
    len(texts) - 1, marks the non-edges and the diagonal.  Codes must order
    the labels as EdgeLabel.token does; which codes they are does not
    matter, since the search reads them only through their order.  Graphs
    are searched _KEY_BLOCK at a time.  A key is f"{n}:" and its encoding's
    texts joined by "|"; every key of the call is cut from one join of the
    encodings, each text led by its "|", at the byte sizes of its texts.
    """
    n, absent = tok.shape[-1], len(texts) - 1
    words = np.array(["|" + text for text in texts], dtype=object)
    encs = [_KeySearch(tok[lo : lo + _KEY_BLOCK].astype(np.int64), absent).least_leaves()
            for lo in range(0, len(tok), _KEY_BLOCK)]
    enc = np.concatenate([np.zeros((0, n * (n - 1) // 2), dtype=np.intp), *encs])
    blob = "".join(words[enc].ravel().tolist()).encode()
    sizes = np.array([len(word.encode()) for word in words])[enc].sum(axis=1)
    ends = np.cumsum(sizes)
    head = f"{n}:".encode()
    return [head + blob[lo + 1 : hi] for lo, hi in zip((ends - sizes).tolist(), ends.tolist())]


class _KeySearch:
    """The search trees of a (graph, n, n) stack of token ranks, `absent` at non-edges.

    A node is a colouring, one (n,) row of a (node, n) array, with the index
    of its graph in a parallel `owner` array.
    """

    def __init__(self, tok: np.ndarray, absent: int):
        self.tok, self.n = tok, tok.shape[-1]
        self.edge = tok < absent
        self.base = np.where(self.edge, tok * self.n, absent * self.n)
        # signature columns past the largest degree hold the sentinel in every row
        self.width = int(self.edge.sum(axis=2).max())
        self.code_bits = max(absent * self.n, 1).bit_length()
        self.tok_bits = max(absent, 1).bit_length()

    def least_leaves(self) -> np.ndarray:
        """Each graph's least leaf encoding, walking the trees one level at a time."""
        owner = np.arange(len(self.tok))
        nodes = np.zeros((len(owner), self.n), dtype=np.int64)
        nodes = self.refine(nodes, np.ones_like(owner), owner)
        dived = None  # each node's dive leaf, once it has one
        encs, owners = [], []
        while len(nodes):
            target = _targets(nodes)
            leaf = target < 0
            encs.append(self.encode(nodes[leaf], owner[leaf]))
            owners.append(owner[leaf])
            # a leaf's target is -1, so only the other nodes have children, each
            # parent's in increasing vertex order
            parent, v = np.nonzero(nodes == target[:, None])
            owner = owner[parent]
            kids = self.refine(*_split(nodes[parent], target[parent], v), owner)
            leaves = self.dive_leaves(kids, owner, parent, dived)
            keep = _first_siblings(parent, self.encode(leaves, owner), self.tok_bits)
            nodes, owner, dived = kids[keep], owner[keep], leaves[keep]
        owner, enc = np.concatenate(owners), np.concatenate(encs)
        order, _ = _lex_order(owner, enc, self.tok_bits)
        first = np.ones(len(order), dtype=bool)
        first[1:] = owner[order[1:]] != owner[order[:-1]]
        return enc[order[first]]

    def refine(self, colors: np.ndarray, cells: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Each node's colouring refined until its cell count stops growing, as cell ranks.

        A refined colouring is a fixed point, so a row that is done is refined
        again, unchanged, until every row is done.
        """
        n = self.n
        base, edge = self.base[owner], self.edge[owner]
        node = np.arange(len(colors))[:, None] * n
        while True:
            codes = base + edge * colors[:, None, :]
            codes.sort(axis=2)
            cols = codes[:, :, : self.width].reshape(len(colors) * n, self.width)
            order, new = _lex_order((node + colors).ravel(), cols, self.code_bits)
            ranks = np.cumsum(new).reshape(-1, n)
            ranks -= ranks[:, :1]  # the rows of a node are n consecutive ones in sorted order
            colors = np.empty_like(colors)
            colors.reshape(-1)[order] = ranks.reshape(-1)
            count = ranks[:, -1] + 1
            if ((count == cells) | (count == n)).all():
                return colors
            cells = count

    def dive(self, colors: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """The first-path leaf below each node.

        A discrete colouring individualizes its last vertex, which changes
        nothing, so every row takes each step.
        """
        while ((target := _targets(colors)) >= 0).any():
            target[target < 0] = self.n - 1
            v = np.where(colors == target[:, None], np.arange(self.n), self.n).min(axis=1)
            colors = self.refine(*_split(colors, target, v), owner)
        return colors

    def dive_leaves(self, kids, owner, parent, dived) -> np.ndarray:
        """The first-path leaf below each child of the nodes whose leaves are dived.

        A parent's first child individualizes the lowest vertex of its target
        cell, the first step of the parent's own dive, so it ends at the
        parent's leaf; only the other children dive.  The root's children,
        dived None, all dive.
        """
        if dived is None:
            return self.dive(kids, owner)
        first = np.ones(len(parent), dtype=bool)
        first[1:] = parent[1:] != parent[:-1]
        leaves = np.empty_like(kids)
        leaves[first] = dived[parent[first]]
        leaves[~first] = self.dive(kids[~first], owner[~first])
        return leaves

    def encode(self, leaves: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Upper triangle of each leaf's token matrix, rows and columns in colour order."""
        perm = np.empty_like(leaves)
        perm[np.arange(len(leaves))[:, None], leaves] = np.arange(self.n)
        vertex = np.arange(self.n)
        iu, ju = np.nonzero(vertex[:, None] < vertex)
        return self.tok[owner[:, None], perm[:, iu], perm[:, ju]]


def _targets(colors: np.ndarray) -> np.ndarray:
    """Each node's target cell, its smallest colour of two or more vertices; -1 if discrete."""
    nodes, n = colors.shape
    sizes = np.bincount((colors + n * np.arange(nodes)[:, None]).ravel(), minlength=nodes * n)
    first = np.where(sizes.reshape(nodes, n) > 1, np.arange(n), n).min(axis=1)
    return np.where(first < n, first, -1)


def _split(colors: np.ndarray, target: np.ndarray, v: np.ndarray):
    """Colourings with vertex v individualized in its cell `target`, and their cell counts."""
    split = colors + (colors >= target[:, None])
    split[np.arange(len(v)), v] = target
    return split, colors.max(axis=1) + 2


def _first_siblings(parent: np.ndarray, enc: np.ndarray, bits: int) -> np.ndarray:
    """The children kept: the first of each parent's children whose dive leaves encode alike.

    `parent` is nondecreasing.  It indexes the previous level, which may hold
    far more nodes than there are children, so the parents are numbered
    0, 1, 2, ... first: _lex_order packs `first` into the bits of the row count.
    """
    group = np.zeros(len(parent), dtype=np.int64)
    np.cumsum(parent[1:] != parent[:-1], out=group[1:])
    order, new = _lex_order(group, enc, bits)
    return np.sort(order[new])


def _lex_order(first: np.ndarray, cols: np.ndarray, bits: int):
    """Stable lexicographic order of the rows (first, *cols), and where its runs of equal rows start.

    Entries of `first` lie in [0, len(first)) and those of cols in [0, 2**bits);
    ValueError unless 2 * len(first).bit_length() + bits <= 63.
    Only int64 keys are sorted: each pass packs the ranks so far, as many
    columns as fit and the row index into one key.
    """
    rows = len(first)
    shift = max(rows, 1).bit_length()
    if 2 * shift + bits > 63:
        raise ValueError(f"{rows} rows of {bits}-bit columns do not pack into int64 keys")
    step = (63 - 2 * shift) // bits
    ranks, idx = first, np.arange(rows)
    for j in range(0, max(cols.shape[1], 1), step):
        key = ranks
        for col in cols[:, j : j + step].T:
            key = (key << bits) + col
        key = np.sort((key << shift) + idx)
        high = key >> shift
        order = key - (high << shift)
        new = np.ones(rows, dtype=bool)
        new[1:] = high[1:] != high[:-1]
        ranks = np.empty(rows, dtype=np.int64)
        ranks[order] = np.cumsum(new) - 1
    return order, new


# ---------------------------------------------------------------------------
# Serialization: JSON document and a compact one-line text form.
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> CoxeterGraph:
    """Parse the JSON document form: {"rank": n, "edges": [{"u","v","m"[,"c"]}]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphError("edges must be a JSON array")
    edges = []
    for e in raw_edges:
        if not isinstance(e, dict):
            raise GraphError(f"edge entries must be objects, got {e!r}")
        unknown = set(e) - {"u", "v", "m", "c"}
        if unknown:
            raise GraphError(f"unknown edge fields {sorted(unknown)}")
        try:
            u, v, m = e["u"], e["v"], e["m"]
        except KeyError as exc:
            raise GraphError(f"edge missing field {exc}") from None
        if m != "inf" and "c" in e:
            raise GraphError("weight c is only allowed together with m = \"inf\"")
        # CoxeterGraph checks the rank, the endpoints and each label's type and value
        edges.append((u, v, ("inf", e.get("c", 1.0)) if m == "inf" else m))
    return CoxeterGraph(doc.get("rank"), tuple(edges))


def graph_to_dict(g: CoxeterGraph) -> dict:
    edges = []
    for u, v, lab in g.edges:
        if lab.m is not None:
            edges.append({"u": u, "v": v, "m": lab.m})
        elif lab.c == 1.0:
            edges.append({"u": u, "v": v, "m": "inf"})
        else:
            edges.append({"u": u, "v": v, "m": "inf", "c": lab.c})
    return {"rank": g.rank, "edges": edges}


def serialize_graph(g: CoxeterGraph) -> str:
    return json.dumps(graph_to_dict(g), sort_keys=True)


def to_compact(g: CoxeterGraph) -> str:
    """One-line form: 'n=4; 0-1:4 0-2:4 2-3:inf(1.1)'."""
    parts = [f"n={g.rank};"]
    for u, v, lab in g.edges:
        parts.append(f"{u}-{v}:{lab}")
    return " ".join(parts)


def parse_compact(text: str) -> CoxeterGraph:
    toks = text.replace(";", " ").split()
    if not toks or not toks[0].startswith("n="):
        raise GraphError(f"compact form must start with 'n=<rank>': {text!r}")
    try:
        rank = int(toks[0][2:])
    except ValueError:
        raise GraphError(f"bad rank in {toks[0]!r}") from None
    edges = []
    for tok in toks[1:]:
        try:
            pair, spec = tok.split(":")
            u, v = pair.split("-")
            u, v = int(u), int(v)
        except ValueError:
            raise GraphError(f"bad edge token {tok!r}") from None
        if spec == "inf":
            m, c = None, 1.0
        elif spec.startswith("inf(") and spec.endswith(")"):
            try:
                m, c = None, float(spec[4:-1])
            except ValueError:
                raise GraphError(f"bad weight in {tok!r}") from None
        else:
            try:
                m, c = int(spec), 1.0
            except ValueError:
                raise GraphError(f"bad label in {tok!r}") from None
        edges.append((u, v, EdgeLabel(m, c)))
    return CoxeterGraph(rank, tuple(edges))


def load_graph(text: str) -> CoxeterGraph:
    """Parse either the JSON document or the compact text form."""
    if text.lstrip().startswith("{"):
        return parse_graph(text)
    return parse_compact(text)


# ---------------------------------------------------------------------------
# Builders used throughout tests, samples and the census.
# ---------------------------------------------------------------------------


def complete_graph(n: int, label) -> CoxeterGraph:
    lab = _coerce_label(label)
    return CoxeterGraph(n, tuple((u, v, lab) for u, v in combinations(range(n), 2)))


def universal_graph(n: int) -> CoxeterGraph:
    """All bonds infinite with weight 1; complete_graph(n, ("inf", c)) gives weight c."""
    return complete_graph(n, EdgeLabel(None))


def path_graph(labels) -> CoxeterGraph:
    labs = [_coerce_label(x) for x in labels]
    return CoxeterGraph(len(labs) + 1, tuple((i, i + 1, lab) for i, lab in enumerate(labs)))


def cycle_graph(labels) -> CoxeterGraph:
    labs = [_coerce_label(x) for x in labels]
    n = len(labs)
    if n < 3:
        raise GraphError("a cycle needs at least 3 edges")
    edges = [(i, (i + 1) % n, lab) for i, lab in enumerate(labs)]
    return CoxeterGraph(n, tuple(edges))
