"""Root and weight orbits, projective normalization, limit-point samples."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .forms import (
    DEFAULT_ZERO_TOL,
    NotLorentzianError,
    TypeClass,
    classify_gram,
    fundamental_weights,
)
from .graphs import CoxeterGraph

_ISO_TOL = 1e-12
# Relative zero test for B(v, alpha_j) (see _zero_tol) and for heights (see
# projective_coords).  Over 46 systems of rank 3-11, true zeros measured below
# 3e-16 of the scale and nonzero values above 1.8e-4 of it.
_ZERO_RTOL = 1e-10


class OrbitCapError(RuntimeError):
    """A generation cap was exceeded; results would be incomplete."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeded the record cap of {cap}")
        self.cap = cap


class VectorClass(Enum):
    SPACE_LIKE = "space_like"
    TIME_LIKE = "time_like"
    LIGHT_LIKE = "light_like"


@dataclass(frozen=True)
class RootRecord:
    """A positive root with its minimal depth and coordinate-sum height."""

    vector: np.ndarray
    depth: int
    height: float


@dataclass(frozen=True)
class WeightRecord:
    vector: np.ndarray
    word_length: int
    norm: float
    klass: VectorClass
    color: int


def spacelike_unit_rows(weights) -> tuple[np.ndarray, list[int]]:
    """Rows w.vector / sqrt(w.norm) of the space-like weights, and their positions.

    Takes weight records, or anything else with a vector, a norm and a klass
    (the vertices of a Coxeter complex).  The rows are B-unit normals of the
    weights' balls; with no space-like weight there are none.
    """
    rows, norms, ids = [], [], []
    dim = 0
    for i, w in enumerate(weights):
        dim = len(w.vector)
        if w.klass is VectorClass.SPACE_LIKE:
            rows.append(w.vector)
            norms.append(w.norm)
            ids.append(i)
    return _unit_rows(np.array(rows).reshape(len(ids), dim), np.array(norms, dtype=float)), ids


def _unit_rows(vectors: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Rows v / sqrt(norm), elementwise: the bits of one row at a time."""
    return vectors / np.sqrt(norms)[:, None]


@dataclass(frozen=True)
class ProjectivePoint:
    coords: np.ndarray | None
    at_infinity: bool = False


@dataclass(frozen=True)
class RootSource:
    depth: int


@dataclass(frozen=True)
class WeightSource:
    length: int


@dataclass(frozen=True)
class LimitSample:
    """Projectivized deepest orbit shell; residual measures closeness to the light cone."""

    points: tuple[ProjectivePoint, ...]
    source: RootSource | WeightSource
    quadratic_residual: float
    dropped_zero_height: int = 0


def bilinear(b: np.ndarray, x, y) -> float:
    return float(np.asarray(x) @ b @ np.asarray(y))


def reflect(x, alpha, b: np.ndarray) -> np.ndarray:
    """Image of x under the reflection fixing the hyperplane orthogonal to alpha."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    q = bilinear(b, alpha, alpha)
    if abs(q) <= _ISO_TOL:
        raise ValueError("cannot reflect in an isotropic vector")
    return x - (2.0 * bilinear(b, x, alpha) / q) * alpha


def _frozen(a: np.ndarray) -> np.ndarray:
    """a as a read-only float array; a float array is marked in place, not copied."""
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _zero_tol(vectors: np.ndarray, scale: float) -> np.ndarray:
    """Bound at or below which B(v, alpha_j) counts as zero, per row v of the last axis.

    B(v, alpha_j) sums terms of size at most |v|_1 * max|B|, and its
    rounding error grows with them; scaling the bound by that sum keeps
    the test meaningful on long orbit vectors.  `scale` is max|B|, taken
    once per walk or descent.
    """
    return _ZERO_RTOL * np.abs(vectors).sum(axis=-1) * scale


def _orbit_layers(
    b: np.ndarray,
    start: np.ndarray,
    sign: int,
    ends: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
    max_length: int | None = None,
):
    """Layers of a canonical-parent orbit tree as (vectors, colors, ends, lengths) arrays.

    Row k of `start` has color k.  With u = sign * B(v, alpha_.), the
    children of v are s_i v for each i with u_i > 0.  A child keeps only
    the parent reached through its smallest descent, min{j : sign *
    B(child, alpha_j) < 0}, so each orbit point appears once, one layer
    below that parent.  sign = -1 lays out the positive roots by depth
    from the simple roots (depth lemma); sign = +1 lays out the orbits of
    the fundamental weights by minimal coset length.

    A point may carry endpoint rows, `ends` of shape (m, k, n), reflected
    along with it, and their weight lengths `lengths` of shape (m, k).  A
    step s_i adds 1 to an endpoint's length when sign * B(endpoint,
    alpha_i) > 0 and leaves it otherwise; with max_length, which needs
    ends, no point with an endpoint longer than it is yielded or expanded.
    A plain walk, with no ends, yields None for ends and lengths.  The
    first layer is yielded even when empty, and the generator stops right
    after an empty layer; otherwise it is endless, and the caller stops it.
    """
    # v @ sb is sign * (v @ b), and v @ nsb its negation, bit for bit
    sb, nsb, scale = sign * b, -sign * b, np.abs(b).max()
    layer = np.array(start, dtype=float)
    colors = np.arange(len(layer))
    tol = _zero_tol(layer, scale)  # a row's bound, carried along with it
    if ends is not None:
        ends, lengths = np.array(ends, dtype=float), np.array(lengths, dtype=int)
    while True:
        if max_length is not None:
            ok = (lengths <= max_length).all(axis=1)
            layer, colors, tol, ends, lengths = (
                a.compress(ok, axis=0) for a in (layer, colors, tol, ends, lengths)
            )
        yield layer, colors, ends, lengths
        if not len(layer):
            return
        u = layer @ sb
        up = u > tol[:, None]
        rows, cols = up.nonzero()
        k = np.arange(len(rows))
        children = layer.take(rows, axis=0)
        children[k, cols] -= (2.0 * sign) * u[up]
        tol = _zero_tol(children, scale)
        descents = children @ nsb > tol[:, None]  # sign * B(child, alpha_j) < -tol
        descents[k, cols] = True  # exact: sign * B(s_i v, alpha_i) = -u_i < 0
        keep = descents.argmax(axis=1) == cols
        rows, cols = rows.compress(keep), cols.compress(keep)
        layer, tol, colors = children.compress(keep, axis=0), tol.compress(keep), colors.take(rows)
        if ends is not None:
            ends, lengths = ends.take(rows, axis=0), lengths.take(rows, axis=0)
            ue = np.einsum("mkn,nm->mk", ends, sb[:, cols])
            lengths += ue > _zero_tol(ends, scale)
            ends[k[: len(rows)], :, cols] -= (2.0 * sign) * ue


def _walk(
    b, start, sign, count, max_records, what, ends=None, lengths=None, max_length=None, total=0
):
    """The first `count` layers of _orbit_layers (all of them for None), stacked.

    Returns the vectors, colors, ends, lengths and each row's layer index;
    a plain walk's ends and lengths have no columns.  The walk yields at
    least one layer, so with count >= 1 the columns keep their shapes when
    empty.  OrbitCapError once `total` plus the rows exceed max_records.
    """
    columns = []
    for layer in islice(_orbit_layers(b, start, sign, ends, lengths, max_length), count):
        total += len(layer[0])
        if max_records is not None and total > max_records:
            raise OrbitCapError(what, max_records)
        columns.append(layer if ends is not None else layer[:2])
    sizes = [len(layer[0]) for layer in columns]
    vectors, colors, *rest = (np.concatenate(column) for column in zip(*columns))
    if ends is None:
        rest = np.empty((len(vectors), 0, len(b))), np.empty((len(vectors), 0), dtype=int)
    return vectors, colors, *rest, np.repeat(np.arange(len(sizes)), sizes)


def _descent_words(b: np.ndarray, vectors: np.ndarray, steps: int) -> np.ndarray:
    """Canonical descent word of each weight row, padded with -1, up to `steps` letters.

    Letter k is the smallest j with B(v, alpha_j) < 0 after the first k
    letters have been applied as reflections; the word ends where v turns
    dominant.  It is the path of _orbit_layers (sign = +1) from the
    fundamental weight to v, read backwards, so two weights of one color
    are equal exactly when their words are.
    """
    nb, scale = -b, np.abs(b).max()
    rows = np.array(vectors, dtype=float)  # the rows not yet dominant, reflected so far
    words = np.full((len(rows), steps), -1, dtype=np.int16)
    active = r = np.arange(len(rows))
    for k in range(steps):
        w = rows @ nb  # -B(v, alpha_.), bit for bit
        neg = w > _zero_tol(rows, scale)[:, None]
        down = neg.any(axis=1)
        active, rows, w, neg = (a.compress(down, axis=0) for a in (active, rows, w, neg))
        if not len(active):
            break
        j = neg.argmax(axis=1)
        words[active, k] = j
        rows[r[: len(active)], j] += 2.0 * w[r[: len(active)], j]
    return words


def quadratic_form(b: np.ndarray, vectors) -> np.ndarray:
    """B(v, v) for each row v."""
    vectors = np.asarray(vectors, dtype=float)
    return np.einsum("ij,ij->i", vectors @ b, vectors)


def _root_columns(
    g: CoxeterGraph, depth: int, max_records: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """roots_up_to_depth as arrays: the roots as rows, their depths and their heights."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    vectors, *_, layer = _walk(g.gram, np.eye(g.rank), -1, depth, max_records, "root generation")
    return vectors, layer + 1, vectors.sum(axis=1)


def roots_up_to_depth(
    g: CoxeterGraph, depth: int, max_records: int | None = None
) -> list[RootRecord]:
    """All positive roots of depth <= depth, in order of depth.

    Layer 1 holds the simple roots.  By the depth lemma, s_i beta lies one
    deeper than beta exactly when B(beta, alpha_i) < 0, and each root of
    depth >= 2 is kept only as the child of s_j beta, j the smallest index
    with B(beta, alpha_j) > 0.  Each layer is therefore computed from the
    previous one with no lookups.  A root's depth is the least number of
    simple reflections taking a simple root to it.
    """
    vectors, depths, heights = _root_columns(g, depth, max_records)
    return [
        RootRecord(v, d, h)
        for v, d, h in zip(_frozen(vectors), depths.tolist(), heights.tolist())
    ]


_LIGHT_RTOL = 1e-9  # a norm within this of zero, relative to max(1, |reference|), is light-like


_CLASSES = np.array(
    [VectorClass.LIGHT_LIKE, VectorClass.SPACE_LIKE, VectorClass.TIME_LIKE], dtype=object
)


def _classify_norms(norms, reference_norms):
    """The VectorClass of each norm against its reference, as an object array.

    Two floats give one VectorClass at scalar cost: classify_norm.
    """
    light = abs(norms) <= _LIGHT_RTOL * np.maximum(1.0, abs(reference_norms))
    return _CLASSES[~light * (2 - (norms > 0))]  # light, else space- or time-like


def classify_norm(norm: float, reference_norm: float) -> VectorClass:
    return _classify_norms(norm, reference_norm)


def _weight_columns(
    g: CoxeterGraph, length: int, max_records: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """weights_up_to_length as arrays: weights as rows, word lengths, colors, norms, classes.

    The classes are VectorClass members in an object array.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    b = g.gram
    fund, fund_norms = fundamental_weights(b)
    vectors, colors, *_, lengths = _walk(b, fund, +1, length + 1, max_records, "weight generation")
    norms = quadratic_form(b, vectors)
    return vectors, lengths, colors, norms, _classify_norms(norms, fund_norms[colors])


def weights_up_to_length(
    g: CoxeterGraph, length: int, max_records: int | None = None
) -> list[WeightRecord]:
    """All distinct weights w(omega_s) over elements of word length <= length.

    Each orbit of a fundamental weight is walked as a tree: s_i lambda
    lies one layer deeper than lambda exactly when B(lambda, alpha_i) > 0,
    and is kept only as the child of s_j lambda, j the smallest index with
    B(s_i lambda, alpha_j) < 0.  A weight's layer, recorded as its word
    length, is the length of the shortest element w with w(omega_s) equal
    to it; generators fixing a weight therefore never inflate it.
    """
    vectors, lengths, colors, norms, classes = _weight_columns(g, length, max_records)
    return [
        WeightRecord(v, ell, norm, klass, s)
        for v, ell, norm, klass, s in zip(
            _frozen(vectors), lengths.tolist(), norms.tolist(), classes, colors.tolist()
        )
    ]


def projective_coords(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Affine-chart coordinates v / height of each row, and which rows have them.

    A row whose height (coordinate sum) is zero relative to its size lies
    at infinity; its coordinates are left at zero.
    """
    vectors = np.asarray(vectors, dtype=float)
    heights = vectors.sum(axis=1)
    finite = np.abs(heights) > _ZERO_RTOL * np.abs(vectors).sum(axis=1)
    coords = np.zeros_like(vectors)
    np.divide(vectors, heights[:, None], out=coords, where=finite[:, None])
    return coords, finite


def projectivize(x) -> ProjectivePoint:
    """Affine chart of the direction of x: x / height, or the point at infinity."""
    x = np.asarray(x, dtype=float)
    if not x.any():
        raise ValueError("cannot projectivize the zero vector")
    coords, finite = projective_coords(x[None, :])
    if not finite[0]:
        return ProjectivePoint(None, at_infinity=True)
    return ProjectivePoint(_frozen(coords[0]))


def normalize_spacelike(x, b: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    q = bilinear(b, x, x)
    if not q > _ISO_TOL:
        raise ValueError(f"vector is not space-like (B(x,x) = {q:.3e})")
    return x / math.sqrt(q)


def limit_sample(g: CoxeterGraph, source: RootSource | WeightSource) -> LimitSample:
    """Projectivized deepest shell of the requested orbit, with its residual.

    The whole orbit up to the shell is walked, with no record cap, and only
    the shell itself is projectivized.  Weights of zero height have no
    affine coordinates and are counted as dropped.
    """
    b = g.gram
    if classify_gram(b, DEFAULT_ZERO_TOL) is not TypeClass.LORENTZIAN:
        raise NotLorentzianError("limit samples are defined for Lorentzian systems")
    if isinstance(source, RootSource):
        vectors, depths, _ = _root_columns(g, source.depth)
        shell = vectors[depths == source.depth]
    elif isinstance(source, WeightSource):
        vectors, lengths, *_ = _weight_columns(g, source.length)
        shell = vectors[lengths == source.length]
    else:
        raise TypeError(f"source must be RootSource or WeightSource, got {source!r}")
    coords, finite = projective_coords(shell)
    coords = _frozen(coords[finite])
    residual = float(np.abs(quadratic_form(b, coords)).max(initial=0.0))
    points = tuple(ProjectivePoint(c) for c in coords)
    return LimitSample(points, source, residual, int(len(shell) - finite.sum()))
