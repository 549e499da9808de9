"""Signature, type and level classification of Coxeter bilinear forms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .graphs import CoxeterGraph, GraphError

DEFAULT_ZERO_TOL = 1e-3
_SYMMETRY_TOL = 1e-12
# float64 entries per stacked kernel call (0.5 MB): 7,281 minors of 3x3, 809 of 9x9, 541 of 11x11
_KERNEL_ENTRIES = 1 << 16
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


def _check_gram(b, stacked: bool = False) -> np.ndarray:
    """b as a float array: one symmetric matrix, or with stacked=True a stack (m, n, n) of them."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 + stacked or b.shape[-2] != b.shape[-1]:
        raise FormError(f"expected a square matrix, got shape {b.shape}")
    if b.size and np.abs(b - np.swapaxes(b, -1, -2)).max() > _SYMMETRY_TOL:
        raise FormError("matrix is not symmetric")
    return b


def _check_tol(zero_tol: float) -> None:
    if not (math.isfinite(zero_tol) and zero_tol > 0):
        raise ValueError(f"zero_tol must be finite and positive, got {zero_tol}")


def _check_resolvable(b: np.ndarray, zero_tol: float) -> None:
    """Raise GraphError when the eigenvalues of b are too coarse to compare with zero_tol.

    A symmetric eigensolver's absolute error is about n * eps * max|b|
    (Golub and Van Loan, Matrix Computations, section 8.1); once that bound
    reaches zero_tol, a sign decision at zero_tol is noise.
    """
    _check_tol(zero_tol)
    bound = b.shape[-1] * np.finfo(float).eps * (float(np.abs(b).max()) if b.size else 0.0)
    if bound >= zero_tol:
        raise GraphError(
            f"eigenvalue roundoff bound n*eps*max|B| = {bound:.3e} reaches the zero "
            f"tolerance {zero_tol:g}; the form's signature cannot be decided"
        )


def signature(b, zero_tol: float = DEFAULT_ZERO_TOL) -> Signature:
    """Eigenvalue sign counts of a symmetric matrix, with |lambda| <= zero_tol as zero.

    Raises GraphError when eigvalsh's roundoff reaches zero_tol.
    """
    b = _check_gram(b)
    _check_resolvable(b, zero_tol)
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
    """Mask of the stacked Gram matrices, shape (m, n, n), whose every
    k-vertex deletion passes.

    A principal minor on n - k vertices passes when its minimum eigenvalue
    is >= -zero_tol (finite or affine), or with finite=True > zero_tol
    (finite).  Minors are gathered and decided by _decide in stacks of at
    most _per_call(n - k) matrices, _KERNEL_ENTRIES entries: while many
    matrices remain, one deletion across them, a stack of rows at a time;
    while few remain, a block of deletions each.  A matrix drops out at its
    first failing block.  A minor's verdict does not depend on the other
    minors of its stack (the Cholesky screen works elementwise along the
    stack, and eigvalsh factors each matrix alone), so neither the budget
    nor the order of the stacks changes the mask.
    """
    _check_tol(zero_tol)
    grams = np.asarray(grams, dtype=float)
    if grams.ndim != 3 or grams.shape[1] != grams.shape[2]:
        raise FormError(f"expected a stack of shape (m, n, n), got shape {grams.shape}")
    count, n = grams.shape[0], grams.shape[-1]
    if not 0 <= k < n:
        raise ValueError(f"deletion count k must satisfy 0 <= k < {n}, got {k}")
    keeps = np.array(list(combinations(range(n), n - k)))
    per_call = _per_call(n - k)
    alive = np.arange(count)
    done = 0
    while done < len(keeps) and alive.size:
        block = keeps[done : done + max(1, per_call // alive.size)]
        done += len(block)
        rows = max(1, per_call // len(block))
        ok = []
        for lo in range(0, alive.size, rows):
            # with k == 0 the one block is the whole stack: decide it in slices, without a copy
            at = alive[lo : lo + rows, None, None, None]
            minors = grams[lo : lo + rows] if k == 0 else grams[
                at, block[None, :, :, None], block[None, :, None, :]
            ].reshape(-1, n - k, n - k)
            ok.append(_decide(minors, zero_tol, finite))
        alive = alive[np.concatenate(ok).reshape(alive.size, len(block)).all(axis=1)]
    mask = np.zeros(count, dtype=bool)
    mask[alive] = True
    return mask


def _per_call(m: int) -> int:
    """m x m matrices in one stacked kernel call: _KERNEL_ENTRIES entries, at least one matrix."""
    return max(1, _KERNEL_ENTRIES // (m * m))


def _pivots_positive(stack: np.ndarray, shift: float) -> np.ndarray:
    """Mask of the matrices A in the stack whose A - shift*I has a Cholesky
    factorization with every pivot positive.

    A - shift*I is written once, entry-major: s[i, j] holds entry (i, j) of
    every matrix, a contiguous vector along the stack.  Each of the n pivot
    steps takes the Schur complement of the whole stack in elementwise ops
    on those vectors, so a matrix's pivots do not depend on the rest of the
    stack, and each entry goes through the same IEEE operations, in the same
    order, as in a matrix-major (m, n, n) stack: the pivots are the same
    bits.  A matrix stops changing at its first nonpositive pivot, so no
    square root of a negative number and no division by zero happens.
    """
    n = stack.shape[-1]
    ok = np.ones(len(stack), dtype=bool)
    s = np.subtract(stack.transpose(1, 2, 0), shift * np.eye(n)[:, :, None], order="C")
    for _ in range(n):
        pivot = s[0, 0]
        ok &= pivot > 0
        col = s[1:, 0] / np.sqrt(np.where(ok, pivot, np.inf))
        outer = col[:, None] * col[None, :]
        s = np.subtract(s[1:, 1:], outer, out=outer)
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
    Raises GraphError when eigvalsh's roundoff on the Gram matrix reaches zero_tol.
    """
    n = g.rank
    if not 0 <= r < n:
        raise ValueError(f"level bound r must satisfy 0 <= r < {n}, got {r}")
    _check_resolvable(g.gram, zero_tol)
    return bool(minors_psd(g.gram[None], r, zero_tol)[0])


def level(g: CoxeterGraph, zero_tol: float = DEFAULT_ZERO_TOL) -> int:
    """Smallest r with is_level_at_most(g, r); rank-1 subgraphs make r = rank-1 suffice.

    Raises GraphError when eigvalsh's roundoff on the Gram matrix reaches zero_tol.
    """
    _check_resolvable(g.gram, zero_tol)
    return int(_levels(g.gram[None], zero_tol)[0])


def _levels(grams, zero_tol: float, below: int | None = None) -> np.ndarray:
    """level of each stacked Gram matrix, or `below` for one of level >= below.

    r = 0, 1, ... is tried on the matrices still undecided, one minors_psd
    call each, and a matrix's level is the first r at which it passes.
    """
    grams = np.asarray(grams, dtype=float)
    stop = grams.shape[-1] if below is None else below
    levels = np.full(len(grams), stop)
    rest = np.arange(len(grams))
    for r in range(stop):
        if not rest.size:
            break
        ok = minors_psd(grams[rest], r, zero_tol)
        levels[rest[ok]] = r
        rest = rest[~ok]
    return levels


def fundamental_weights(b) -> tuple[np.ndarray, np.ndarray]:
    """Dual-basis vectors of a non-singular form, in simple-root coordinates.

    Returns (weights, norms) where weights[s] solves B(alpha_s, w) = delta_st:
    the rows (equivalently columns) of the inverse matrix.  norms[s] is the
    quadratic form value of weights[s], which equals inverse[s, s].  Given
    a stack of forms (m, n, n), returns the stacks (m, n, n) and (m, n); each
    form is checked and inverted alone, so its weights are the same bits as
    from a call of its own, and one singular form raises.
    """
    single = np.ndim(b) != 3
    stack = _check_gram(b, stacked=not single)
    if single:
        stack = stack[None]
    n = stack.shape[-1]
    sign, logdet = np.linalg.slogdet(stack)
    scale = np.abs(stack).max(axis=(1, 2), initial=1.0)
    # |det| < rtol * max(max|B|, 1)^n, compared in logs so that no power overflows
    singular = (sign == 0) | (logdet < math.log(_SINGULAR_RTOL) + n * np.log(scale))
    if singular.any():
        logdet = logdet[np.argmax(singular)]
        raise SingularFormError(f"form is singular (log|det| = {logdet:.3e}); weights undefined")
    w = np.linalg.inv(stack)
    w = (w + w.transpose(0, 2, 1)) / 2.0
    norms = np.diagonal(w, axis1=1, axis2=2).copy()
    if single:
        w, norms = w[0], norms[0]
    w.setflags(write=False)
    norms.setflags(write=False)
    return w, norms
