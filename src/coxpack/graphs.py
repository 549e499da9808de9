"""Edge-labeled Coxeter graphs: construction, serialization, canonical keys.

A graph on vertices 0..rank-1 carries at most one label per unordered pair.
An absent edge means the two generators commute (bond order 2).  Labels are
stored exactly as given; all floating-point work happens downstream on the
Gram matrix.
"""

from __future__ import annotations

import json
import math
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


# token used for an absent edge; sorts after every real label
_NO_EDGE = (2, 0.0)


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
# Canonical form.  Individualization-refinement with automorphism pruning:
# exact for edge-labeled graphs, cheap at rank <= 32 and trivial at the
# census sizes (rank <= 11).  Refinement signs a vertex by its colour and
# its edges alone, as the sorted codes tokcode * n + colour of its
# neighbours and a sentinel that ranks after every edge.  These signatures
# order vertices exactly as full rows of (token, colour) pairs over all
# other vertices would: non-edges sort after every edge, so the sentinel
# puts a longer neighbour list first, and the non-neighbours' colours
# follow from the colour histogram.  So the colourings, the search tree and
# the key are those of the full rows.
# ---------------------------------------------------------------------------


def canonical_key(g: CoxeterGraph) -> bytes:
    """Deterministic byte string; equal exactly for isomorphic labeled graphs."""
    n = g.rank
    if n == 1:
        return b"1:"

    tokens = [lab.token() for _, _, lab in g.edges]
    tok = [[_NO_EDGE] * n for _ in range(n)]
    # tokcode[t] is t's rank among the sorted edge tokens, times n
    tokcode = {t: i * n for i, t in enumerate(sorted(set(tokens)))}
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v, _), t in zip(g.edges, tokens):
        tok[u][v] = tok[v][u] = t
        nbrs[u].append((tokcode[t], v))
        nbrs[v].append((tokcode[t], u))
    sentinel = len(tokcode) * n  # the no-edge rank, after every edge code

    def refine(colors: list[int]) -> list[int]:
        cells = len(set(colors))
        while True:
            sigs = [
                (colors[v], *sorted([code + colors[u] for code, u in nbrs[v]]), sentinel)
                for v in range(n)
            ]
            order = {s: i for i, s in enumerate(sorted(set(sigs)))}
            colors = [order[s] for s in sigs]
            # each signature starts with its colour, so no new cell means a
            # stable partition; its colours are now ranks and stay as they are
            if len(order) == cells:
                return colors
            cells = len(order)

    def encode(perm: list[int]) -> tuple:
        return tuple(
            tok[perm[i]][perm[j]] for i in range(n) for j in range(i + 1, n)
        )

    best: dict = {"enc": None, "perm": None}
    autos: list[list[int]] = []

    def same_orbit(v: int, tried: list[int], fixed: tuple[int, ...]) -> bool:
        usable = [p for p in autos if all(p[f] == f for f in fixed)]
        if not usable:
            return False
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in usable:
            for a in range(n):
                ra, rb = find(a), find(p[a])
                if ra != rb:
                    parent[ra] = rb
        rv = find(v)
        return any(find(u) == rv for u in tried)

    def search(colors: list[int], fixed: tuple[int, ...]):
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            perm = [v for _, v in sorted((colors[v], v) for v in range(n))]
            enc = encode(perm)
            if best["enc"] is None or enc < best["enc"]:
                best["enc"] = enc
                best["perm"] = perm
            elif enc == best["enc"] and perm != best["perm"]:
                auto = [0] * n
                for i in range(n):
                    auto[best["perm"][i]] = perm[i]
                autos.append(auto)
            return
        tried: list[int] = []
        for v in target:
            if same_orbit(v, tried, fixed):
                continue
            tried.append(v)
            split = [2 * c + 1 for c in colors]
            split[v] = 2 * colors[v]
            search(refine(split), fixed + (v,))

    search(refine([0] * n), ())

    parts = []
    for t in best["enc"]:
        if t == _NO_EDGE:
            parts.append("-")
        elif t[0] == 0:
            parts.append(f"m{int(t[1])}")
        else:
            parts.append(f"i{t[1]!r}")
    return f"{n}:".encode() + "|".join(parts).encode()


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
