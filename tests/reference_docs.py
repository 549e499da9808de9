"""Reference `roots`, `weights` and `pack` documents, built one record at a time.

These are the command line's document builders from before it wrote columns:
the orbits are collected one layer at a time into RootRecord and
WeightRecord lists, every record is a dict, the document goes through
json.dumps(doc, indent=1), the unit rows of the packing audit are divided
one weight at a time, and the balls come from per-cap arithmetic (cap_of,
stereographic and project_packing one cap at a time).  None of it calls the
command line's array code, which must write the same bytes.
"""

from __future__ import annotations

import json
import math
from itertools import islice

import numpy as np

import coxpack as cp
from coxpack import balls as balls_mod
from coxpack.balls import EuclideanBall, SphericalCap
from coxpack.forms import fundamental_weights
from coxpack.orbits import (
    RootRecord,
    VectorClass,
    WeightRecord,
    _orbit_layers,
    classify_norm,
    normalize_spacelike,
    projective_coords,
    quadratic_form,
)
from coxpack.render import svg_packing


def roots(g, depth: int) -> list[RootRecord]:
    records = []
    layers = _orbit_layers(g.gram, np.eye(g.rank), -1)
    for d, (layer, *_) in enumerate(islice(layers, depth), 1):
        heights = layer.sum(axis=1).tolist()
        records += [RootRecord(v, d, h) for v, h in zip(layer, heights)]
    return records


def weights(g, length: int) -> list[WeightRecord]:
    b = g.gram
    fund, fund_norms = fundamental_weights(b)
    records = []
    layers = _orbit_layers(b, fund, +1)
    for ell, (layer, colors, *_) in enumerate(islice(layers, length + 1)):
        norms = quadratic_form(b, layer).tolist()
        records += [
            WeightRecord(v, ell, norm, classify_norm(norm, fund_norms[s]), s)
            for v, norm, s in zip(layer, norms, colors.tolist())
        ]
    return records


def _projective_rows(vectors: np.ndarray, layers: np.ndarray, b: np.ndarray):
    coords, finite = projective_coords(vectors)
    residuals = np.abs(quadratic_form(b, coords))
    by_layer = {
        str(k): float(residuals[finite & (layers == k)].max()) for k in np.unique(layers[finite])
    }
    rows = [c if f else None for c, f in zip(coords.tolist(), finite.tolist())]
    return rows, by_layer


def roots_text(g, depth: int) -> str:
    records = roots(g, depth)
    vectors = np.array([r.vector for r in records])
    depths = np.array([r.depth for r in records])
    projective, residual_by_depth = _projective_rows(vectors, depths, g.gram)
    rows = [
        {"coords": coords, "depth": r.depth, "height": r.height, "projective": proj}
        for r, coords, proj in zip(records, vectors.tolist(), projective)
    ]
    doc = {
        "graph": cp.to_compact(g),
        "max_depth": depth,
        "count": len(rows),
        "quadratic_residual_by_depth": residual_by_depth,
        "records": rows,
    }
    return json.dumps(doc, indent=1) + "\n"


def weights_text(g, length: int) -> str:
    records = weights(g, length)
    vectors = np.array([r.vector for r in records])
    lengths = np.array([r.word_length for r in records])
    projective, residual_by_length = _projective_rows(vectors, lengths, g.gram)
    rows = [
        {
            "coords": coords,
            "word_length": r.word_length,
            "height": height,
            "norm": r.norm,
            "class": r.klass.value,
            "color": r.color,
            "projective": proj,
        }
        for r, coords, height, proj in zip(
            records, vectors.tolist(), vectors.sum(axis=1).tolist(), projective
        )
    ]
    doc = {
        "graph": cp.to_compact(g),
        "max_length": length,
        "count": len(rows),
        "quadratic_residual_by_length": residual_by_length,
        "records": rows,
    }
    return json.dumps(doc, indent=1) + "\n"


# -- balls, one cap at a time ---------------------------------------------


def separations(spacelike, b):
    """Every pair i < j of the weights' balls and its separation, pairs in row order.

    The separations are validate_cluster's chunked products; each chunk's
    upper triangle is taken at once.
    """
    k = len(spacelike)
    unit = np.array([w.vector / math.sqrt(w.norm) for w in spacelike]).reshape(k, -1)
    bu = unit @ b
    chunk = max(1, int(4e6) // k)
    rows, cols, seps = [], [], []
    for lo in range(0, k, chunk):
        block = -(bu[lo : lo + chunk] @ unit.T)
        i, j = np.triu_indices(len(block), lo + 1, k)
        rows.append(lo + i)
        cols.append(j)
        seps.append(block[i, j])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(seps)


def audit(spacelike, b, tol: float = 1e-9):
    """validate_cluster's packing flag, minimum separation and pair counts."""
    if len(spacelike) < 2:
        return True, math.inf, 0, 0
    _, _, seps = separations(spacelike, b)
    low = seps < 1.0 - tol
    n_violating = int(low.sum())
    n_deep = int((low & (seps < -tol)).sum())
    return n_violating == 0, float(seps.min()), n_violating, n_deep


def cap_of(x, frame, b) -> SphericalCap:
    xhat = normalize_spacelike(x, b)
    y = frame.to_frame(xhat)
    v, t = y[:-1], float(y[-1])
    nv = float(np.linalg.norm(v))
    center = -v / nv
    center.setflags(write=False)
    radius = math.acos(max(-1.0, min(1.0, -t / nv)))
    return SphericalCap(center, radius)


def stereographic(cap: SphericalCap, pole_axis: int) -> EuclideanBall:
    c_s = float(cap.center[pole_axis])
    c_w = np.delete(cap.center, pole_axis)
    cos_r = math.cos(cap.angular_radius)
    gap = abs(math.acos(max(-1.0, min(1.0, c_s))) - cap.angular_radius)
    if gap <= balls_mod._ALGEBRAIC_TOL:  # read at call time, as the package does
        w = float(np.linalg.norm(c_w))
        return EuclideanBall(0.0, c_w / w, cos_r / w)
    sin_r = math.sin(cap.angular_radius)
    return EuclideanBall((cos_r - c_s) / sin_r, c_w / sin_r)


def project_packing(caps, retries: int = 3):
    if not caps:
        return [], [], np.eye(0)
    d = caps[0].center.size
    pole = d - 1
    rot = np.eye(d)
    step = np.eye(d)
    if d >= 2:
        a = 1.0 / 64.0
        step[0, 0] = step[pole, pole] = math.cos(a)
        step[0, pole] = -math.sin(a)
        step[pole, 0] = math.sin(a)
    current = caps
    for attempt in range(retries + 1):
        risky = any(
            abs(math.acos(max(-1.0, min(1.0, float(c.center[pole])))) - c.angular_radius) < 1e-6
            for c in current
        )
        if not risky or attempt == retries or d < 2:
            return [stereographic(c, pole) for c in current], list(current), rot
        rot = step @ rot
        current = [SphericalCap(rot @ c.center, c.angular_radius) for c in caps]
    raise AssertionError("unreachable")


def pack_text(g, length: int, fmt: str = "json", tol: float = 1e-3) -> str:
    """`coxpack pack` output at the default --min-radius and --canvas."""
    b = g.gram
    frame = cp.lorentz_frame(b, tol)
    spacelike = [w for w in weights(g, length) if w.klass is VectorClass.SPACE_LIKE]
    is_packing, min_separation, n_violating, n_deep = audit(spacelike, b)
    raw_caps = [cap_of(w.vector, frame, b) for w in spacelike]
    balls, caps, rot = project_packing(raw_caps)

    m = np.array(frame.basis_change)
    if rot.size:
        ext = np.eye(g.rank)
        ext[: g.rank - 1, : g.rank - 1] = rot
        m = m @ ext.T

    summary = (
        f"is_packing={'true' if is_packing else 'false'} "
        f"min_separation={min_separation:.9f} balls={len(balls)} "
        f"orbit_length={length}"
    )
    if fmt == "svg":
        pairs = [(ball, w.color) for ball, w in zip(balls, spacelike)]
        return svg_packing(pairs, 0.75, 800, summary)

    rows = []
    for ball, cap, w in zip(balls, caps, spacelike):
        row = {
            "color": w.color,
            "word_length": w.word_length,
            "cap_center": [float(x) for x in cap.center],
            "cap_radius": cap.angular_radius,
            "curvature": ball.curvature,
            "curvature_center": [float(x) for x in ball.curvature_center],
        }
        if ball.is_halfspace:
            row["halfspace_offset"] = ball.halfspace_offset
        rows.append(row)
    doc = {
        "graph": cp.to_compact(g),
        "frame": [[float(x) for x in row] for row in m],
        "orbit_length": length,
        "validation": {
            "is_packing": is_packing,
            "min_separation": None if math.isinf(min_separation) else min_separation,
            "n_violating_pairs": n_violating,
            "n_deep_pairs": n_deep,
        },
        "balls": rows,
    }
    return json.dumps(doc, indent=1) + "\n"
