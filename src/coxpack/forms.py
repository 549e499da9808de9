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
_SCREEN_MIN = 128  # smaller stacks skip the Cholesky screen, whose fixed cost exceeds eigvalsh's
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
    (finite).  Minors are decided about _EIG_CHUNK at a time, by _decide:
    while many matrices remain, one deletion across all of them; while few
    remain, a block of deletions each.  A matrix drops out at its first
    failing block.
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
        ok = np.concatenate(
            [
                _decide(minors[lo : lo + _EIG_CHUNK], zero_tol, finite)
                for lo in range(0, len(minors), _EIG_CHUNK)
            ]
        ).reshape(alive.size, len(block))
        alive = alive[ok.all(axis=1)]
    mask = np.zeros(count, dtype=bool)
    mask[alive] = True
    return mask


def _pivots_positive(stack: np.ndarray, shift: float) -> np.ndarray:
    """Mask of the matrices A in the stack whose A - shift*I has a Cholesky
    factorization with every pivot positive.

    Each of the n pivot steps takes the Schur complement of the whole stack
    in elementwise ops, so a matrix's pivots do not depend on the rest of
    the stack.  A matrix stops changing at its first nonpositive pivot, so
    no square root of a negative number and no division by zero happens.
    """
    n = stack.shape[-1]
    ok = np.ones(len(stack), dtype=bool)
    s = stack - shift * np.eye(n)
    for _ in range(n):
        pivot = s[:, 0, 0]
        ok &= pivot > 0
        col = s[:, 1:, :1] / np.sqrt(np.where(ok, pivot, np.inf))[:, None, None]
        outer = col * col.transpose(0, 2, 1)
        s = np.subtract(s[:, 1:, 1:], outer, out=outer)
    return ok


def _decide(stack: np.ndarray, zero_tol: float, finite: bool) -> np.ndarray:
    """Mask of the matrices in the stack whose minimum eigenvalue passes.

    A matrix passes at low >= -zero_tol, or with finite=True at
    low > zero_tol, where low is its minimum eigenvalue from eigvalsh.
    From _SCREEN_MIN matrices on, two Cholesky factorizations decide most
    of them first, at margin delta = zero_tol / 2 around that threshold t:
    all pivots of A - (t + delta)I positive certify a pass, a nonpositive
    pivot of A - (t - delta)I certifies a failure, and only the matrices
    left in between go to eigvalsh.  Cholesky is backward stable (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10), so the screen
    agrees with eigvalsh as long as delta lies far above the roundoff of
    both kernels, about 1e-13 for these unit-diagonal Gram matrices.
    """
    t = zero_tol if finite else -zero_tol

    def passes(a: np.ndarray) -> np.ndarray:
        low = np.linalg.eigvalsh(a)[:, 0]
        return low > t if finite else low >= t

    if len(stack) < _SCREEN_MIN:
        return passes(stack)
    delta = zero_tol / 2
    ok = _pivots_positive(stack, t + delta)
    rest = np.flatnonzero(~ok)
    band = rest[_pivots_positive(stack[rest], t - delta)]
    if band.size:
        ok[band] = passes(stack[band])
    return ok


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
