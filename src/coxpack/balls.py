"""Balls attached to space-like vectors: caps, separations, packings, residuals.

A space-like direction cuts the projective light cone (a sphere in frame
coordinates) along a spherical cap; after stereographic projection that cap
becomes a Euclidean ball in dimension rank - 2.  Pairwise relations between
balls reduce to the bilinear form of the normalized vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .forms import DEFAULT_ZERO_TOL, NotLorentzianError, signature
from .orbits import (
    _ISO_TOL,
    ProjectivePoint,
    _frozen,
    _unit_rows,
    bilinear,
    normalize_spacelike,
    spacelike_unit_rows,
)

_ALGEBRAIC_TOL = 1e-9
_ANGULAR_TOL = 1e-6
_NUDGE_RETRIES = 3  # frame rotations tried before projecting anyway
_PAIR_BUDGET = 1 << 16  # products a pair audit holds at once


@dataclass(frozen=True)
class LorentzFrame:
    """Basis change M with M^T B M = diag(1, ..., 1, -1); time axis last."""

    basis_change: np.ndarray
    inverse: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis_change.shape[0]

    def to_frame(self, x) -> np.ndarray:
        return self.inverse @ np.asarray(x, dtype=float)


@dataclass(frozen=True)
class SphericalCap:
    center: np.ndarray
    angular_radius: float

    def __post_init__(self):
        _check_caps(np.asarray(self.center, dtype=float)[None], np.array([self.angular_radius]))


@dataclass(frozen=True)
class EuclideanBall:
    """Inversive coordinates: curvature kappa and the vector kappa * center.

    kappa > 0 is an ordinary ball, kappa < 0 the complement of an open ball,
    kappa = 0 a half-space {<y, n> >= offset} with the unit normal n stored
    in curvature_center and the offset kept separately.
    """

    curvature: float
    curvature_center: np.ndarray
    halfspace_offset: float | None = None

    @property
    def is_halfspace(self) -> bool:
        return self.curvature == 0.0

    @property
    def radius(self) -> float:
        if self.is_halfspace:
            return math.inf
        return abs(1.0 / self.curvature)

    @property
    def center(self) -> np.ndarray:
        if self.is_halfspace:
            raise ValueError("a half-space has no center")
        return self.curvature_center / self.curvature


class PairKind(Enum):
    DISJOINT = "disjoint"
    TANGENT = "tangent"
    TRANSVERSAL = "transversal"
    DEEP_INTERSECT = "deep_intersect"


@dataclass(frozen=True)
class PairRelation:
    kind: PairKind
    separation: float


@dataclass(frozen=True)
class ClusterReport:
    is_packing: bool
    min_separation: float
    violating_pairs: tuple[tuple[int, int, float], ...]
    deep_pairs: tuple[tuple[int, int, float], ...]


def lorentz_frame(b: np.ndarray, zero_tol: float = DEFAULT_ZERO_TOL) -> LorentzFrame:
    """Diagonalize a Lorentzian form to the standard (+, ..., +, -) frame.

    The time axis is oriented so the barycenter direction of the simple roots
    has positive last frame coordinate, making caps deterministic across runs.
    """
    b = np.asarray(b, dtype=float)
    sig = signature(b, zero_tol)
    n = b.shape[0]
    if not (sig.n_minus == 1 and sig.n_zero == 0):
        raise NotLorentzianError(
            f"signature ({sig.n_plus}, {sig.n_zero}, {sig.n_minus}) is not Lorentzian"
        )
    target = np.ones(n)
    target[-1] = -1.0
    if np.array_equal(b, np.diag(target)):
        ident = np.eye(n)
        ident.setflags(write=False)
        return LorentzFrame(ident, ident)
    lam, vec = np.linalg.eigh(b)
    order = list(range(1, n)) + [0]  # eigh sorts ascending; move the negative one last
    cols = vec[:, order]
    scale = 1.0 / np.sqrt(np.abs(lam[order]))
    m = cols * scale
    diag = np.ones(n)
    diag[-1] = -1.0
    inv = (diag[:, None] * m.T) @ b  # M^{-1} = D M^T B
    barycenter = np.full(n, 1.0 / n)
    if (inv @ barycenter)[-1] < 0:
        m = m.copy()
        m[:, -1] = -m[:, -1]
        inv = (diag[:, None] * m.T) @ b
    m.setflags(write=False)
    inv.setflags(write=False)
    return LorentzFrame(m, inv)


def cap_of(x, frame: LorentzFrame, b: np.ndarray) -> SphericalCap:
    """Spherical cap cut on the light sphere by the ball of a space-like vector.

    Writing the normalized vector in frame coordinates as (v, t), future light
    rays (u, 1) satisfy B(x, (u, 1)) <= 0 exactly on the cap of angular radius
    arccos(-t/|v|) around -v/|v|.
    """
    centers, radii = _cap_rows(np.asarray(x, dtype=float)[None, :], frame, b)
    return SphericalCap(_frozen(centers[0]), float(radii[0]))


def _cap_rows(vectors: np.ndarray, frame: LorentzFrame, b: np.ndarray):
    """cap_of for each row of a 2-D array: the cap centers as rows, and their radii.

    Each product is a stack of one-row products, which numpy's matmul
    computes with the same vector kernels (gemv, dot) as a single row, so
    every row gets cap_of's bits; a 2-D product (gemm) or np.arccos would
    round differently.
    """
    q = (vectors[:, None, :] @ b @ vectors[:, :, None])[:, 0, 0]  # bilinear(b, x, x)
    bad = np.flatnonzero(~(q > _ISO_TOL))
    if bad.size:
        raise ValueError(f"vector is not space-like (B(x,x) = {q[bad[0]]:.3e})")
    xhat = vectors / np.sqrt(q)[:, None]
    y = (frame.inverse @ xhat[:, :, None])[:, :, 0]
    v, t = y[:, :-1], y[:, -1]
    nv = _row_norms(v)
    centers = -v / nv[:, None]
    radii = np.array(list(map(math.acos, np.clip(-t / nv, -1.0, 1.0).tolist())))
    _check_caps(centers, radii)
    return centers, radii


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, with its bits: the square root of the row's dot product."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _check_caps(centers: np.ndarray, radii: np.ndarray) -> None:
    """Unit cap centers and radii in (0, pi), else ValueError; one cap per row."""
    if (np.abs(_row_norms(centers) - 1.0) > 1e-12).any():
        raise ValueError("cap center must be a unit vector")
    bad = np.flatnonzero(~((0.0 < radii) & (radii < math.pi)))
    if bad.size:
        raise ValueError(f"cap radius must lie in (0, pi), got {radii[bad[0]]}")


def separation(x, y, b: np.ndarray) -> float:
    """Inversive separation of the two balls: -B of the normalized vectors."""
    return -bilinear(b, normalize_spacelike(x, b), normalize_spacelike(y, b))


def classify_pair(x, y, b: np.ndarray) -> PairRelation:
    s = separation(x, y, b)
    if s > 1.0 + _ALGEBRAIC_TOL:
        kind = PairKind.DISJOINT
    elif abs(s - 1.0) <= _ALGEBRAIC_TOL:
        kind = PairKind.TANGENT
    elif s < -_ALGEBRAIC_TOL:
        kind = PairKind.DEEP_INTERSECT
    else:
        kind = PairKind.TRANSVERSAL
    return PairRelation(kind, s)


def stereographic(cap: SphericalCap, pole_axis: int) -> EuclideanBall:
    """Euclidean image of a cap under stereographic projection from a pole axis.

    The projection goes from the unit vector along pole_axis onto the
    hyperplane of the remaining axes (kept in their original order).  A cap
    whose boundary passes through the pole maps to a half-space; a cap whose
    interior contains the pole maps to the complement of a ball.
    """
    d = cap.center.size
    if not 0 <= pole_axis < d:
        raise ValueError(f"pole_axis must index the sphere's ambient axes 0..{d - 1}")
    rows = _stereographic_rows(cap.center[None, :], np.array([cap.angular_radius]), pole_axis)
    return _balls_of_rows(*rows)[0]


def _stereographic_rows(centers: np.ndarray, radii: np.ndarray, pole_axis: int):
    """stereographic for each cap row: curvatures, curvature centers as rows, offsets.

    A half-space row has curvature 0.0, its unit normal as curvature
    center and its offset; every other row has offset None.  Cosines,
    sines and arccosines go through math, row by row, for the same bits
    as one cap at a time.
    """
    c_s = centers[:, pole_axis]
    c_w = np.delete(centers, pole_axis, axis=1)
    cos_r = np.array(list(map(math.cos, radii.tolist())))
    sin_r = np.array(list(map(math.sin, radii.tolist())))
    # angular gap between the pole and the cap boundary circle
    half = _pole_gaps(c_s, radii) <= _ALGEBRAIC_TOL
    kappa = (cos_r - c_s) / sin_r
    kc = c_w / sin_r[:, None]
    offsets: list[float | None] = [None] * len(radii)
    if half.any():
        w = _row_norms(c_w[half])
        if (w < 1e-12).any():
            raise ValueError("degenerate cap: boundary through the pole with axial center")
        kappa[half] = 0.0
        kc[half] = c_w[half] / w[:, None]
        for i, offset in zip(np.flatnonzero(half).tolist(), (cos_r[half] / w).tolist()):
            offsets[i] = offset
    return kappa, kc, offsets


def _pole_gaps(c_s: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """|angle from the pole to each cap center - cap radius|, per row."""
    angles = list(map(math.acos, np.clip(c_s, -1.0, 1.0).tolist()))
    return np.abs(np.array(angles) - radii)


def _balls_of_rows(kappa: np.ndarray, kc: np.ndarray, offsets: list) -> list[EuclideanBall]:
    """EuclideanBall of each row of _stereographic_rows."""
    return [EuclideanBall(k, _frozen(c), o) for k, c, o in zip(kappa.tolist(), kc, offsets)]


def validate_cluster(weights, b: np.ndarray) -> ClusterReport:
    """Pairwise separation audit of the balls of the space-like weights.

    A packing requires every distinct pair to have separation >= 1; pairs
    below that are reported, and pairs with negative separation (deep
    intersections) are listed separately since no reflection orbit should
    produce them.
    """
    unit, ids = spacelike_unit_rows(weights)
    return _cluster_report(unit, ids, b)


def _cluster_report(unit: np.ndarray, ids, b: np.ndarray):
    """validate_cluster on B-unit rows; ids[i] names row i in the reported pairs."""
    if len(ids) < 2:
        return ClusterReport(True, math.inf, (), ())
    k = unit.shape[0]
    bu = unit @ b
    min_sep = math.inf
    violating: list[tuple[int, int, float]] = []
    deep: list[tuple[int, int, float]] = []
    chunk = max(1, _PAIR_BUDGET // k)
    for lo in range(0, k - 1, chunk):  # the last row has no pair j > i
        hi = min(k, lo + chunk)
        seps = bu[lo:hi] @ unit.T
        np.negative(seps, out=seps)
        # row i's pairs j > i are one run of the flat chunk; reduce every run at once
        rows = np.arange(min(hi, k - 1) - lo)
        cuts = np.stack([rows * k + lo + rows + 1, (rows + 1) * k], axis=1).ravel()
        low = np.minimum.reduceat(seps.ravel(), cuts[cuts < seps.size])[::2]
        min_sep = min(min_sep, float(low.min()))
        for r in np.flatnonzero(low < 1.0 - _ALGEBRAIC_TOL):
            i = lo + int(r)
            for j in np.flatnonzero(seps[r, i + 1 :] < 1.0 - _ALGEBRAIC_TOL) + i + 1:
                s = float(seps[r, j])
                violating.append((ids[i], ids[int(j)], s))
                if s < -_ALGEBRAIC_TOL:
                    deep.append((ids[i], ids[int(j)], s))
    return ClusterReport(
        is_packing=not violating,
        min_separation=min_sep,
        violating_pairs=tuple(sorted(violating)),
        deep_pairs=tuple(sorted(deep)),
    )


def residual_margin(p: ProjectivePoint, weights, b: np.ndarray) -> float:
    """min over ball normals of B(p, normal); negative inside some ball interior."""
    return float(residual_margins([p], weights, b)[0])


def residual_margins(points, weights, b: np.ndarray) -> np.ndarray:
    """Vectorized residual_margin over many affine points."""
    pts = [p.coords for p in points]
    if any(p.at_infinity for p in points):
        raise ValueError("residual margins are defined for affine points only")
    unit, ids = spacelike_unit_rows(weights)
    if not pts:
        return np.empty(0)
    if not ids:
        return np.full(len(pts), math.inf)
    arr = np.array(pts) @ b
    out = np.empty(arr.shape[0])
    chunk = max(1, _PAIR_BUDGET // len(ids))
    for lo in range(0, arr.shape[0], chunk):
        hi = min(arr.shape[0], lo + chunk)
        out[lo:hi] = (arr[lo:hi] @ unit.T).min(axis=1)
    return out


def project_packing(
    caps: list[SphericalCap],
) -> tuple[list[EuclideanBall], list[SphericalCap], np.ndarray]:
    """Project caps from the last sphere axis, nudging the frame off boundaries.

    When some cap boundary passes within the angular guard of the pole, a
    fixed small rotation of the sphere is applied (up to _NUDGE_RETRIES times) so
    every ball stays finite.  Returns the balls, the caps actually projected
    (rotated when a nudge occurred), and the applied rotation.
    """
    if not caps:
        return [], [], np.eye(0)
    centers = np.array([c.center for c in caps])
    radii = np.array([c.angular_radius for c in caps])
    rows, used, rot = _project_rows(centers, radii)
    if used is not centers:
        caps = [SphericalCap(_frozen(c), r) for c, r in zip(used, radii.tolist())]
    return _balls_of_rows(*rows), list(caps), rot


def _project_rows(centers: np.ndarray, radii: np.ndarray):
    """project_packing on cap rows: _stereographic_rows' arrays, the centers used, the rotation.

    The centers used are `centers` itself unless the frame was nudged.
    """
    d = centers.shape[1]
    if not len(radii):
        return _stereographic_rows(centers, radii, d - 1), centers, np.eye(0)
    pole = d - 1
    rot = np.eye(d)
    step = np.eye(d)
    if d >= 2:
        a = 1.0 / 64.0
        step[0, 0] = step[pole, pole] = math.cos(a)
        step[0, pole] = -math.sin(a)
        step[pole, 0] = math.sin(a)
    current = centers
    for attempt in range(_NUDGE_RETRIES + 1):
        risky = (_pole_gaps(current[:, pole], radii) < _ANGULAR_TOL).any()
        if not risky or attempt == _NUDGE_RETRIES or d < 2:
            return _stereographic_rows(current, radii, pole), current, rot
        rot = step @ rot
        current = (rot @ centers[:, :, None])[:, :, 0]  # row by row, as in _cap_rows
        _check_caps(current, radii)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class _PackingRows:
    """A packing's audit, caps and balls as arrays, one row per space-like weight.

    Row i is validate_cluster's, cap_of's and project_packing's result for
    weight i, with its bits; the caps are the ones projected, in the
    frame rotated by `rotation` when project_packing nudged it.
    """

    report: ClusterReport
    cap_centers: np.ndarray
    cap_radii: np.ndarray
    curvatures: np.ndarray
    curvature_centers: np.ndarray
    halfspace_offsets: list[float | None]
    rotation: np.ndarray

    @property
    def halfspace(self) -> np.ndarray:
        """EuclideanBall.is_halfspace of each row."""
        return self.curvatures == 0.0

    def balls(self) -> list[EuclideanBall]:
        return _balls_of_rows(self.curvatures, self.curvature_centers, self.halfspace_offsets)


def _packing_rows(
    vectors: np.ndarray, norms: np.ndarray, frame: LorentzFrame, b: np.ndarray
) -> _PackingRows:
    """The packing of space-like weight rows with B(v, v) = norms, in `frame`."""
    report = _cluster_report(_unit_rows(vectors, norms), range(len(vectors)), b)
    centers, radii = _cap_rows(vectors, frame, b)
    (kappa, kc, offsets), centers, rot = _project_rows(centers, radii)
    return _PackingRows(report, centers, radii, kappa, kc, offsets, rot)
