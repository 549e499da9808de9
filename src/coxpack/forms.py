"""Signature, type and level classification of Coxeter bilinear forms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .graphs import CoxeterGraph

DEFAULT_ZERO_TOL = 1e-3
_SYMMETRY_TOL = 1e-12
_EIG_CHUNK = 8192  # matrices per eigvalsh call
_SINGULAR_RTOL = 1e-9  # a form with |det| below this times max(max|B|, 1)^n is singular


class FormError(ValueError):
    """Invalid matrix input for a form-level operation."""


class SingularFormError(FormError):
    """The bilinear form is singular; fundamental weights are undefined."""


class NotLorentzianError(FormError):
    """An operation required signature (n-1, 0, 1)."""


class TypeClass(Enum):
    FINITE = "finite"
    AFFINE = "affine"
    LORENTZIAN = "lorentzian"
    OTHER_INDEFINITE = "other_indefinite"


@dataclass(frozen=True)
class Signature:
    n_plus: int
    n_zero: int
    n_minus: int
    min_eigenvalue: float

    @property
    def n(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus


def _check_gram(b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise FormError(f"expected a square matrix, got shape {b.shape}")
    if b.size and np.abs(b - b.T).max() > _SYMMETRY_TOL:
        raise FormError("matrix is not symmetric")
    return b


def _check_tol(zero_tol: float) -> None:
    if not (math.isfinite(zero_tol) and zero_tol > 0):
        raise ValueError(f"zero_tol must be finite and positive, got {zero_tol}")


def signature(b, zero_tol: float = DEFAULT_ZERO_TOL) -> Signature:
    """Eigenvalue sign counts of a symmetric matrix, with |lambda| <= zero_tol as zero."""
    _check_tol(zero_tol)
    b = _check_gram(b)
    w = np.linalg.eigvalsh(b)
    n_minus = int(np.sum(w < -zero_tol))
    n_plus = int(np.sum(w > zero_tol))
    n_zero = w.size - n_minus - n_plus
    return Signature(n_plus, n_zero, n_minus, float(w[0]))


def classify_gram(b, zero_tol: float = DEFAULT_ZERO_TOL) -> TypeClass:
    sig = signature(b, zero_tol)
    if sig.n_minus == 0:
        return TypeClass.FINITE if sig.n_zero == 0 else TypeClass.AFFINE
    if sig.n_minus == 1 and sig.n_zero == 0:
        return TypeClass.LORENTZIAN
    return TypeClass.OTHER_INDEFINITE


def classify_type(g: CoxeterGraph, zero_tol: float = DEFAULT_ZERO_TOL) -> TypeClass:
    return classify_gram(g.gram, zero_tol)


def minors_psd(
    grams, k: int, zero_tol: float = DEFAULT_ZERO_TOL, finite: bool = False
) -> np.ndarray:
    """Mask of the stacked Gram matrices whose every k-vertex deletion passes.

    A principal minor on n - k vertices passes when its minimum eigenvalue
    is >= -zero_tol (finite or affine), or with finite=True > zero_tol
    (finite).  Minors go to eigvalsh about _EIG_CHUNK at a time: while many
    matrices remain, one deletion across all of them; while few remain, a
    block of deletions each.  A matrix drops out at its first failing block.
    """
    _check_tol(zero_tol)
    grams = np.asarray(grams, dtype=float)
    count, n = grams.shape[0], grams.shape[-1]
    if not 0 <= k < n:
        raise ValueError(f"deletion count k must satisfy 0 <= k < {n}, got {k}")
    keeps = np.array(list(combinations(range(n), n - k)))
    alive = np.arange(count)
    done = 0
    while done < len(keeps) and alive.size:
        block = keeps[done : done + max(1, _EIG_CHUNK // alive.size)]
        done += len(block)
        # with k == 0 the one block is the whole stack: decide it without a copy
        minors = grams if k == 0 else grams[
            alive[:, None, None, None], block[None, :, :, None], block[None, :, None, :]
        ].reshape(-1, n - k, n - k)
        low = np.concatenate(
            [
                np.linalg.eigvalsh(minors[lo : lo + _EIG_CHUNK])[:, 0]
                for lo in range(0, len(minors), _EIG_CHUNK)
            ]
        ).reshape(alive.size, len(block))
        ok = low > zero_tol if finite else low >= -zero_tol
        alive = alive[ok.all(axis=1)]
    mask = np.zeros(count, dtype=bool)
    mask[alive] = True
    return mask


def is_level_at_most(g: CoxeterGraph, r: int, zero_tol: float = DEFAULT_ZERO_TOL) -> bool:
    """True when every induced subgraph on rank - r vertices is finite or affine.

    That is, every principal minor of the Gram matrix on rank - r vertices
    is positive semidefinite up to zero_tol; one minors_psd call decides it.
    """
    n = g.rank
    if not 0 <= r < n:
        raise ValueError(f"level bound r must satisfy 0 <= r < {n}, got {r}")
    return bool(minors_psd(g.gram[None], r, zero_tol)[0])


def level(g: CoxeterGraph, zero_tol: float = DEFAULT_ZERO_TOL) -> int:
    """Smallest r with is_level_at_most(g, r); rank-1 subgraphs make r = rank-1 suffice."""
    for r in range(g.rank):
        if is_level_at_most(g, r, zero_tol):
            return r
    raise AssertionError("unreachable: single vertices are positive definite")


def fundamental_weights(b) -> tuple[np.ndarray, np.ndarray]:
    """Dual-basis vectors of a non-singular form, in simple-root coordinates.

    Returns (weights, norms) where weights[s] solves B(alpha_s, w) = delta_st:
    the rows (equivalently columns) of the inverse matrix.  norms[s] is the
    quadratic form value of weights[s], which equals inverse[s, s].
    """
    b = _check_gram(b)
    n = b.shape[0]
    det = float(np.linalg.det(b))
    scale = float(np.abs(b).max()) if b.size else 1.0
    if abs(det) < _SINGULAR_RTOL * max(scale, 1.0) ** n:
        raise SingularFormError(f"form is singular (|det| = {abs(det):.3e}); weights undefined")
    w = np.linalg.inv(b)
    w = (w + w.T) / 2.0
    w.setflags(write=False)
    norms = np.diag(w).copy()
    norms.setflags(write=False)
    return w, norms
