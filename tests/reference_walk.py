"""The orbit walk and descent words as they were before the walk was tuned.

`_orbit_layers`, `_walk` and `_descent_words` take max|B| inside every
`_zero_tol` call and carry empty endpoint arrays through plain walks.
They are kept verbatim as oracles: the library's walk must return the
same arrays bit for bit, and its descents the same words.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from coxpack.orbits import _ZERO_RTOL, OrbitCapError


def _zero_tol(vectors: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bound at or below which B(v, alpha_j) counts as zero, per row v of the last axis.

    B(v, alpha_j) sums terms of size at most |v|_1 * max|B|, and its
    rounding error grows with them; scaling the bound by that sum keeps
    the test meaningful on long orbit vectors.
    """
    return _ZERO_RTOL * np.abs(vectors).sum(axis=-1) * np.abs(b).max()


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
    alpha_i) > 0 and leaves it otherwise; no point with an endpoint longer
    than max_length is yielded or expanded.  The first layer is yielded
    even when empty, and the generator stops right after an empty layer;
    otherwise it is endless, and the caller stops it.
    """
    layer = np.array(start, dtype=float)
    colors = np.arange(len(layer))
    if ends is None:
        ends, lengths = np.empty((len(layer), 0, len(b))), np.empty((len(layer), 0))
    ends, lengths = np.array(ends, dtype=float), np.array(lengths, dtype=int)
    while True:
        if max_length is not None:
            ok = (lengths <= max_length).all(axis=1)
            layer, colors, ends, lengths = layer[ok], colors[ok], ends[ok], lengths[ok]
        yield layer, colors, ends, lengths
        if not len(layer):
            return
        u = sign * (layer @ b)
        rows, cols = np.nonzero(u > _zero_tol(layer, b)[:, None])
        k = np.arange(len(rows))
        children = layer[rows]
        children[k, cols] -= (2.0 * sign) * u[rows, cols]
        descents = sign * (children @ b) < -_zero_tol(children, b)[:, None]
        descents[k, cols] = True  # exact: sign * B(s_i v, alpha_i) = -u_i < 0
        keep = descents.argmax(axis=1) == cols
        rows, cols, layer = rows[keep], cols[keep], children[keep]
        colors, ends, lengths = colors[rows], ends[rows], lengths[rows]
        if ends.shape[1]:
            ue = sign * np.einsum("mkn,nm->mk", ends, b[:, cols])
            lengths += ue > _zero_tol(ends, b)
            m = np.arange(len(rows))[:, None]
            ends[m, np.arange(ends.shape[1]), cols[:, None]] -= (2.0 * sign) * ue


def _walk(
    b, start, sign, count, max_records, what, ends=None, lengths=None, max_length=None, total=0
):
    """The first `count` layers of _orbit_layers (all of them for None), stacked.

    Returns the vectors, colors, ends, lengths and each row's layer index.
    The walk yields at least one layer, so with count >= 1 the columns keep
    their shapes when empty.  OrbitCapError once `total` plus the rows
    exceed max_records.
    """
    columns = []
    layers = _orbit_layers(b, start, sign, ends, lengths, max_length)
    for k, (layer, *rest) in enumerate(islice(layers, count)):
        total += len(layer)
        if max_records is not None and total > max_records:
            raise OrbitCapError(what, max_records)
        columns.append((layer, *rest, np.full(len(layer), k)))
    return tuple(np.concatenate(column) for column in zip(*columns))


def _descent_words(b: np.ndarray, vectors: np.ndarray, steps: int) -> np.ndarray:
    """Canonical descent word of each weight row, padded with -1, up to `steps` letters.

    Letter k is the smallest j with B(v, alpha_j) < 0 after the first k
    letters have been applied as reflections; the word ends where v turns
    dominant.  It is the path of _orbit_layers (sign = +1) from the
    fundamental weight to v, read backwards, so two weights of one color
    are equal exactly when their words are.
    """
    v = np.array(vectors, dtype=float)
    words = np.full((len(v), steps), -1, dtype=np.int16)
    active = np.arange(len(v))
    for k in range(steps):
        rows = v[active]
        u = rows @ b
        neg = u < -_zero_tol(rows, b)[:, None]
        down = neg.any(axis=1)
        active, u, neg = active[down], u[down], neg[down]
        if not len(active):
            break
        j = neg.argmax(axis=1)
        words[active, k] = j
        v[active, j] -= 2.0 * u[np.arange(len(active)), j]
    return words
