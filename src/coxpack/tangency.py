"""Chambers of the Coxeter complex and tangency graphs of level-2 packings.

Chambers are group elements; the vertices of a chamber are the images of the
fundamental weights, colored by which weight they come from.  Tangency edges
come in two kinds: pairs inside a common chamber whose normalized product is
-1, and same-color pairs across a shared panel whose color has norm 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dedup import VectorStore
from .forms import DEFAULT_ZERO_TOL, fundamental_weights, level, minors_psd
from .graphs import CoxeterGraph
from .groups import GroupBFS
from .orbits import VectorClass, WeightRecord, bilinear, classify_norm, spacelike_unit_rows

_TANGENCY_TOL = 1e-9


class LevelError(ValueError):
    """The operation requires a level-2 system."""


class InconsistencyError(RuntimeError):
    """A structural guarantee failed (e.g. a level-2 weight norm above 1)."""


class VertexClass(Enum):
    IMAGINARY = "imaginary"
    REAL = "real"
    SURREAL = "surreal"


@dataclass(frozen=True)
class ComplexVertex:
    id: int
    color: int
    vector: np.ndarray
    word_length: int
    norm: float
    vclass: VertexClass

    @property
    def klass(self) -> VectorClass:
        """Space-like for real and surreal vertices, as for a weight record."""
        return classify_norm(self.norm, self.norm)


@dataclass(frozen=True)
class Chamber:
    element: np.ndarray
    word: tuple[int, ...]
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class CoxeterComplex:
    graph: CoxeterGraph
    max_length: int
    chambers: tuple[Chamber, ...]
    vertices: tuple[ComplexVertex, ...]
    adjacency: tuple[dict[int, int], ...]


@dataclass(frozen=True)
class TangencyEdge:
    u: int
    v: int
    tag: str  # "real" | "surreal"


@dataclass(frozen=True)
class TangencyGraph:
    vertices: tuple[ComplexVertex, ...]
    edges: tuple[TangencyEdge, ...]
    truncation_length: int

    def edge_set(self) -> set[tuple[int, int]]:
        return {(e.u, e.v) for e in self.edges}


def classify_weight_norm(norm: float, level2: bool = False) -> VertexClass:
    """Role of a fundamental weight of norm B(omega, omega).

    Imaginary at norm <= 0, surreal at norm 1 and real otherwise, each
    decided up to 1e-9; every weight role in the library comes from here.
    A norm above 1 is real, except on a level-2 system (level2=True), where
    it is impossible and raises InconsistencyError.
    """
    if norm > 1.0 + _TANGENCY_TOL:
        if level2:
            raise InconsistencyError(
                f"weight norm {norm} exceeds 1 on a level-2 system"
            )
        return VertexClass.REAL
    if abs(norm - 1.0) <= _TANGENCY_TOL:
        return VertexClass.SURREAL
    if norm <= _TANGENCY_TOL:
        return VertexClass.IMAGINARY
    return VertexClass.REAL


def classify_vertex(omega: WeightRecord, b: np.ndarray) -> VertexClass:
    """Imaginary for norm <= 0, surreal at norm 1, real in between."""
    norm = bilinear(b, omega.vector, omega.vector)
    return classify_weight_norm(norm)


def chambers_up_to_length(
    g: CoxeterGraph,
    max_length: int,
    max_records: int | None = None,
    require_lorentzian: bool = True,
) -> CoxeterComplex:
    """One chamber per group element of length <= max_length.

    Vertex ids are assigned by deduplicating weight vectors across chambers,
    so stabilizer repeats collapse to a single vertex of a single color.
    """
    from .forms import TypeClass, classify_gram

    b = g.gram
    if require_lorentzian and classify_gram(b, DEFAULT_ZERO_TOL) is not TypeClass.LORENTZIAN:
        raise LevelError("the chamber complex is built for Lorentzian systems")
    n = g.rank
    fund, fund_norms = fundamental_weights(b)

    bfs = GroupBFS(b, max_length, max_records=max_records)
    store = VectorStore(n)
    vertices: list[ComplexVertex] = []
    chambers: list[Chamber] = []
    for eid in range(len(bfs)):
        mat = bfs.matrices[eid]
        moved = mat @ fund
        ids = []
        for s in range(n):
            vec = moved[:, s]
            vid, is_new = store.add(vec)
            if is_new:
                vec = np.array(vec)
                vec.setflags(write=False)
                vertices.append(
                    ComplexVertex(
                        vid,
                        s,
                        vec,
                        bfs.lengths[eid],
                        float(fund_norms[s]),
                        classify_weight_norm(float(fund_norms[s])),
                    )
                )
            elif vertices[vid].color != s:
                raise InconsistencyError("chamber vertex acquired two colors")
            ids.append(vid)
        mat = np.array(mat)
        mat.setflags(write=False)
        chambers.append(Chamber(mat, bfs.words[eid], tuple(ids)))
    return CoxeterComplex(
        g, max_length, tuple(chambers), tuple(vertices), tuple(bfs.adjacency)
    )


def tangency_graph(
    g: CoxeterGraph,
    max_length: int,
    zero_tol: float = DEFAULT_ZERO_TOL,
    max_records: int | None = None,
    witness_margin: int = 3,
) -> TangencyGraph:
    """Tangency graph restricted to the vertices seen by length-bounded chambers.

    The result is the induced subgraph of the infinite tangency graph on the
    real and surreal vertices first seen by chambers of length <= max_length.
    An edge between two seen vertices can be witnessed only inside a common
    (or, for surreal pairs, adjacent) chamber, which may sit slightly deeper
    than either endpoint; chambers are therefore explored to
    max_length + witness_margin.  The geometric oracle cross-check guards the
    margin at the scales the artifact exercises.
    """
    if level(g, zero_tol) != 2:
        raise LevelError("tangency graphs are defined for level-2 systems")
    cx = chambers_up_to_length(g, max_length + witness_margin, max_records=max_records)
    b = g.gram
    n = g.rank

    for v in cx.vertices:
        classify_weight_norm(v.norm, level2=True)  # raises on norm > 1
    seen = {
        v.id
        for v in cx.vertices
        if v.vclass is not VertexClass.IMAGINARY and v.word_length <= max_length
    }

    # vertex ids are positions in cx.vertices
    rows, ids = spacelike_unit_rows(cx.vertices)
    unit = np.zeros((len(cx.vertices), n))
    unit[ids] = rows
    bunit = unit @ b

    edges: set[tuple[int, int, str]] = set()
    chamber_vertex = np.array([c.vertices for c in cx.chambers])
    for s in range(n):
        for t in range(s + 1, n):
            us = chamber_vertex[:, s]
            vt = chamber_vertex[:, t]
            vals = np.einsum("ij,ij->i", bunit[us], unit[vt])
            near = np.abs(vals + 1.0) <= _TANGENCY_TOL
            for k in np.nonzero(near)[0]:
                a, c = int(us[k]), int(vt[k])
                if a in seen and c in seen:
                    edges.add((min(a, c), max(a, c), "real"))

    # fundamental weights are the vertices of the identity chamber
    fund = cx.chambers[0].vertices
    surreal_colors = [
        s for s in range(n) if cx.vertices[fund[s]].vclass is VertexClass.SURREAL
    ]
    if surreal_colors:
        for eid, chamber in enumerate(cx.chambers):
            for s in surreal_colors:
                nid = cx.adjacency[eid].get(s)
                if nid is None:
                    continue
                a = chamber.vertices[s]
                c = cx.chambers[nid].vertices[s]
                if a != c and a in seen and c in seen:
                    edges.add((min(a, c), max(a, c), "surreal"))

    verts = tuple(v for v in cx.vertices if v.id in seen)
    out = tuple(TangencyEdge(u, v, tag) for u, v, tag in sorted(edges))
    return TangencyGraph(verts, out, max_length)


def geometric_oracle(weights, b: np.ndarray, tol: float = _TANGENCY_TOL) -> set[tuple[int, int]]:
    """All index pairs of space-like weights whose separation is 1, found directly."""
    unit, idx = spacelike_unit_rows(weights)
    if len(idx) < 2:
        return set()
    hit = np.abs(unit @ b @ unit.T + 1.0) <= tol
    rows, cols = np.nonzero(np.triu(hit, 1))
    return {(idx[a], idx[c]) for a, c in zip(rows.tolist(), cols.tolist())}


def is_strict_level2(g: CoxeterGraph, zero_tol: float = DEFAULT_ZERO_TOL) -> bool:
    """True when deleting any two vertices leaves a finite (not just affine) graph.

    Finite means every eigenvalue of the minor exceeds zero_tol, the strict
    side of classify_gram's test; minors_psd(..., finite=True) decides it for
    all two-vertex deletions at once.
    """
    if level(g, zero_tol) != 2:
        raise LevelError("strictness is defined for level-2 systems")
    return bool(minors_psd(g.gram[None], 2, zero_tol, finite=True)[0])
