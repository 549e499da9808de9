"""Tangency graphs of level-2 packings, and chambers of the Coxeter complex.

The vertices of the chamber of a group element w are the images w(omega_s)
of the fundamental weights, colored by s.  Tangency edges come in two kinds:
pairs inside a common chamber whose normalized product is -1, and same-color
pairs across a shared panel whose color has norm 1.  `tangency_graph` reads
both off orbits of dominant weights without enumerating chambers;
`chambers_up_to_length` builds the explicit complex from the orbit of rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .forms import DEFAULT_ZERO_TOL, fundamental_weights, level, minors_psd
from .graphs import CoxeterGraph
from .orbits import (
    VectorClass,
    _descent_words,
    _frozen,
    _walk,
    classify_norm,
    spacelike_unit_rows,
)

_TANGENCY_TOL = 1e-9


class LevelError(ValueError):
    """The operation requires a level-2 system."""


class InconsistencyError(RuntimeError):
    """A structural guarantee failed (e.g. a level-2 weight norm above 1)."""


class VertexClass(Enum):
    IMAGINARY = "imaginary"
    REAL = "real"
    SURREAL = "surreal"


# role index (norm <= 0) + 2 * (norm == 1), each up to _TANGENCY_TOL -> role
_ROLES = np.array([VertexClass.REAL, VertexClass.IMAGINARY, VertexClass.SURREAL], dtype=object)


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


def classify_weight_norm(
    norm: float | np.ndarray, level2: bool = False
) -> VertexClass | np.ndarray:
    """Role of a fundamental weight of norm B(omega, omega); of an array of
    norms, their roles as an object array of the same shape.

    Imaginary at norm <= 0, surreal at norm 1 and real otherwise, each
    decided up to 1e-9; every weight role in the library comes from here.
    A norm above 1 is real, except on a level-2 system (level2=True), where
    it is impossible and raises InconsistencyError.
    """
    high = norm > 1.0 + _TANGENCY_TOL
    if level2 and (high if type(high) is bool else high.any()):  # a float's test is a bool
        raise InconsistencyError(f"weight norm {np.max(norm)} exceeds 1 on a level-2 system")
    return _ROLES[(norm <= _TANGENCY_TOL) + 2 * (abs(norm - 1.0) <= _TANGENCY_TOL)]


def _vertex_keys(b: np.ndarray, colors: np.ndarray, vectors: np.ndarray, steps: int) -> list:
    """Bytes of each weight row's color and canonical descent word, cut at `steps` letters.

    Weights of one color are equal exactly when their keys are, if no word is cut.
    """
    keys = np.column_stack([colors, _descent_words(b, vectors, steps)])
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist()


def chambers_up_to_length(
    g: CoxeterGraph,
    max_length: int,
    max_records: int | None = None,
) -> CoxeterComplex:
    """One chamber per group element of length <= max_length, in order of length.

    rho = sum of omega_s lies in the open fundamental chamber, on which W
    acts simply transitively, so the orbit walk of rho meets each element w
    once, carrying the vertices w(omega_s); their matrix transposed times B
    is w.  A chamber's word is the canonical descent word of w rho, whose
    reflections multiply out to w in order.  Vertex ids follow first
    appearance.  adjacency[w][i] is the chamber of w s_i, if within max_length.
    Any non-singular form will do; a singular one raises SingularFormError.
    """
    if max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    b = g.gram
    n = g.rank
    fund, fund_norms = fundamental_weights(b)

    points, colors, ends, lengths, _ = _walk(
        b, fund.sum(axis=0)[None], +1, max_length + 1, max_records,
        "group element generation", fund[None], np.zeros((1, n), int),
    )
    elements = ends.transpose(0, 2, 1) @ b
    ends, lengths, steps = ends.reshape(-1, n), lengths.ravel(), max_length + 1

    index: dict[bytes, int] = {}
    keys = _vertex_keys(b, np.tile(np.arange(n), len(points)), ends, steps)
    ids = np.array([index.setdefault(key, len(index)) for key in keys]).reshape(-1, n)
    first = np.unique(ids, return_index=True)[1]
    rows = zip((first % n).tolist(), _frozen(ends[first]), lengths[first].tolist())
    norms = fund_norms.tolist()
    roles = classify_weight_norm(fund_norms)
    vertices = tuple(
        ComplexVertex(i, c, vec, ell, norms[c], roles[c]) for i, (c, vec, ell) in enumerate(rows)
    )

    # the walk points are one weight orbit, of color 0, keyed like vertices
    chamber_of = {key: i for i, key in enumerate(_vertex_keys(b, colors, points, steps))}
    # w(alpha_i) is a root, negative (all coordinates <= 0) exactly when w s_i
    # is shorter than w; w s_i rho = w rho - 2 w(alpha_i)
    upper, gens = np.nonzero(elements.sum(axis=1) < 0)
    lower = _vertex_keys(b, colors[upper], points[upper] - 2.0 * elements[upper, :, gens], steps)
    adjacency: list[dict[int, int]] = [{} for _ in points]
    for w, i, key in zip(upper.tolist(), gens.tolist(), lower):
        adjacency[w][i] = chamber_of[key]
        adjacency[chamber_of[key]][i] = w
    words = _descent_words(b, points, steps)
    sizes = (words >= 0).sum(axis=1).tolist()
    chambers = tuple(
        Chamber(element, tuple(word[:k]), tuple(row))
        for element, word, k, row in zip(_frozen(elements), words.tolist(), sizes, ids.tolist())
    )
    return CoxeterComplex(g, max_length, chambers, vertices, tuple(adjacency))


def tangency_graph(
    g: CoxeterGraph,
    max_length: int,
    zero_tol: float = DEFAULT_ZERO_TOL,
    max_records: int | None = None,
) -> TangencyGraph:
    """Tangency graph on the real and surreal vertices of word length <= max_length.

    The result is the induced subgraph of the infinite tangency graph on
    the points w(omega_s), l(w) <= max_length, of the non-imaginary
    fundamental weights' orbits.  Vertices are ordered by (word length,
    color, order within the orbit layer), and a vertex's id is its position.

    Edges are orbits of dominant points, walked like the weights, each
    point carrying its two endpoints.  B is W-invariant, so a color pair
    s, t with B^-1[s, t] / sqrt(B^-1[s, s] B^-1[t, t]) = -1 is tangent in
    every chamber: its real edges {w omega_s, w omega_t} are the orbit of
    omega_s + omega_t.  The surreal edges {w omega_s, w s_s omega_s} of a
    surreal color s are the orbit of omega_s - alpha_s, half their sum.

    The endpoints lie in the closure of one chamber, or of two across the
    panel whose wall holds the edge point, so a simple root on which the
    edge point is positive is nowhere negative on them: a step of the walk
    lengthens an endpoint by 0 or 1 and never shortens it.  The walk drops
    every point with an endpoint longer than max_length; what remains is
    closed under canonical parents, so every edge between two vertices is
    reached.  max_records caps the vertex plus the edge-orbit records.
    """
    if level(g, zero_tol) != 2:
        raise LevelError("tangency graphs are defined for level-2 systems")
    if max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    b = g.gram
    n = g.rank
    fund, norms = fundamental_weights(b)
    roles = [classify_weight_norm(x, level2=True) for x in norms.tolist()]
    colors = np.array([s for s in range(n) if roles[s] is not VertexClass.IMAGINARY], dtype=int)

    vectors, c, _, _, vlengths = _walk(
        b, fund[colors], +1, max_length + 1, max_records, "tangency vertex generation"
    )
    order = np.lexsort((c, vlengths))
    vectors, vcolors, vlengths = vectors[order], colors[c[order]], vlengths[order]

    # one dominant edge point per kind: its endpoints, their lengths and colors
    starts, start_lengths, end_colors, tags = [], [], [], []
    for i, s in enumerate(colors.tolist()):
        for t in colors[i + 1 :].tolist():
            if abs(fund[s, t] / math.sqrt(norms[s] * norms[t]) + 1.0) <= _TANGENCY_TOL:
                starts.append((fund[s], fund[t]))
                start_lengths.append((0, 0))
                end_colors.append((s, t))
                tags.append("real")
        if roles[s] is VertexClass.SURREAL:
            starts.append((fund[s], fund[s] - 2.0 * np.eye(n)[s]))  # omega_s, s_s omega_s
            start_lengths.append((0, 1))
            end_colors.append((s, s))
            tags.append("surreal")
    starts = np.array(starts, dtype=float).reshape(-1, 2, n)
    start_lengths = np.array(start_lengths, dtype=int).reshape(-1, 2)
    _, kinds, ends, lengths, _ = _walk(
        b, starts.sum(axis=1), +1, None, max_records, "tangency edge generation",
        starts, start_lengths, max_length, total=len(vectors),
    )

    # an endpoint is the vertex with its color and canonical descent word
    ecolors = np.array(end_colors, dtype=int).reshape(-1, 2)[kinds].ravel()
    ekeys = _vertex_keys(b, ecolors, ends.reshape(-1, n), max_length + 1)
    index = {key: i for i, key in enumerate(_vertex_keys(b, vcolors, vectors, max_length + 1))}
    ids = np.array([index.get(key, -1) for key in ekeys], dtype=int).reshape(-1, 2)
    if (ids < 0).any() or (vlengths[ids] != lengths).any():
        raise InconsistencyError("a tangency edge endpoint is not a vertex of its length")

    edges = sorted(
        zip(ids.min(axis=1).tolist(), ids.max(axis=1).tolist(), [tags[k] for k in kinds.tolist()])
    )
    rows = zip(vcolors.tolist(), _frozen(vectors), vlengths.tolist())
    verts = tuple(
        ComplexVertex(i, c, vec, ell, float(norms[c]), roles[c])
        for i, (c, vec, ell) in enumerate(rows)
    )
    return TangencyGraph(verts, tuple(TangencyEdge(u, v, tag) for u, v, tag in edges), max_length)


def geometric_oracle(weights, b: np.ndarray) -> set[tuple[int, int]]:
    """All index pairs of space-like weights whose separation is 1, found directly."""
    unit, idx = spacelike_unit_rows(weights)
    if len(idx) < 2:
        return set()
    hit = np.abs(unit @ b @ unit.T + 1.0) <= _TANGENCY_TOL
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
