import math

import numpy as np
import pytest

import coxpack as cp
import reference_docs as ref
from coxpack.balls import (
    PairKind,
    project_packing,
    residual_margins,
)
from coxpack.forms import NotLorentzianError
from coxpack.orbits import RootSource, VectorClass


def spacelike_weights(g, length):
    return [
        w
        for w in cp.weights_up_to_length(g, length)
        if w.klass is VectorClass.SPACE_LIKE
    ]


def test_lorentz_frame_diagonal_input():
    b = np.diag([1.0, 1.0, -1.0])
    frame = cp.lorentz_frame(b)
    d = frame.basis_change.T @ b @ frame.basis_change
    assert np.allclose(d, np.diag([1.0, 1.0, -1.0]), atol=1e-12)
    assert np.allclose(np.abs(frame.basis_change), np.eye(3), atol=1e-12)


def test_lorentz_frame_universal(universal4):
    b = universal4.gram
    frame = cp.lorentz_frame(b)
    target = np.diag([1.0, 1.0, 1.0, -1.0])
    assert np.abs(frame.basis_change.T @ b @ frame.basis_change - target).max() <= 1e-9
    # future orientation: barycenter direction has positive last frame coordinate
    assert frame.to_frame(np.full(4, 0.25))[-1] > 0
    assert np.allclose(frame.inverse @ frame.basis_change, np.eye(4), atol=1e-9)


def test_lorentz_frame_rejects_non_lorentzian():
    with pytest.raises(NotLorentzianError):
        cp.lorentz_frame(np.eye(3))
    with pytest.raises(NotLorentzianError):
        cp.lorentz_frame(cp.cycle_graph([3, 3, 3]).gram)


def test_cap_of_hemisphere(universal4):
    b = universal4.gram
    frame = cp.lorentz_frame(b)
    # frame coordinates (1, 0, 0, 0) give a space-like vector with t = 0
    x = frame.basis_change @ np.array([1.0, 0.0, 0.0, 0.0])
    cap = cp.cap_of(x, frame, b)
    assert cap.angular_radius == pytest.approx(math.pi / 2, abs=1e-12)
    assert np.allclose(cap.center, [-1.0, 0.0, 0.0], atol=1e-12)


def test_cap_radius_grows_toward_pi(universal4):
    b = universal4.gram
    frame = cp.lorentz_frame(b)
    radii = []
    for t in (0.0, 1.0, 4.0):
        x = frame.basis_change @ np.array([math.sqrt(1 + t * t), 0.0, 0.0, t])
        radii.append(cp.cap_of(x, frame, b).angular_radius)
    assert radii[0] < radii[1] < radii[2] < math.pi


def test_caps_of_universal_weights_pairwise_tangent(universal4):
    b = universal4.gram
    frame = cp.lorentz_frame(b)
    w, _ = cp.fundamental_weights(b)
    caps = [cp.cap_of(w[s], frame, b) for s in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            ang = math.acos(
                max(-1.0, min(1.0, float(caps[i].center @ caps[j].center)))
            )
            assert ang == pytest.approx(
                caps[i].angular_radius + caps[j].angular_radius, abs=1e-9
            )


def test_cap_requires_spacelike(universal4):
    b = universal4.gram
    frame = cp.lorentz_frame(b)
    with pytest.raises(ValueError):
        cp.cap_of(np.full(4, 0.25), frame, b)


def test_separation_examples(universal4):
    b = universal4.gram
    w, _ = cp.fundamental_weights(b)
    assert cp.separation(w[0], w[0], b) == pytest.approx(-1.0, abs=1e-12)
    assert cp.separation(w[0], w[1], b) == pytest.approx(1.0, abs=1e-12)


def test_separation_fig1b_overlap(fig1b):
    report = cp.validate_cluster(spacelike_weights(fig1b, 6), fig1b.gram)
    assert not report.is_packing
    # frozen from the orbit search at length 6
    assert report.min_separation == pytest.approx(0.844808474431, abs=1e-6)
    assert report.min_separation < 1 - 1e-6
    assert not report.deep_pairs


def test_classify_pair(universal4):
    b = universal4.gram
    w, _ = cp.fundamental_weights(b)
    assert cp.classify_pair(w[0], w[1], b).kind is PairKind.TANGENT
    assert cp.classify_pair(w[0], w[0], b).kind is PairKind.DEEP_INTERSECT
    b2 = np.eye(3)  # commuting generators: orthogonal mirrors
    e = np.eye(3)
    rel = cp.classify_pair(e[0], e[1], b2)
    assert rel.kind is PairKind.TRANSVERSAL and rel.separation == pytest.approx(0.0)
    far = np.array([3.0, 0.0, 0.0])
    assert cp.classify_pair(e[1] + far, e[1] - far, b2).kind is not PairKind.TANGENT


def test_stereographic_centered_cap():
    # cap centered at -pole with radius theta projects to a disk of radius tan(theta/2)
    for theta in (0.3, 1.0, 2.0):
        center = np.array([0.0, 0.0, -1.0])
        ball = cp.stereographic(cp.SphericalCap(center, theta), pole_axis=2)
        assert ball.curvature > 0
        assert ball.radius == pytest.approx(math.tan(theta / 2), abs=1e-12)
        assert np.allclose(ball.center, 0.0, atol=1e-12)


def test_stereographic_pole_inside_cap():
    center = np.array([0.0, 0.0, 1.0])
    ball = cp.stereographic(cp.SphericalCap(center, 0.8), pole_axis=2)
    assert ball.curvature < 0


def test_stereographic_boundary_through_pole():
    # center at angle r from the pole: the boundary passes through the pole
    r = 1.1
    center = np.array([math.sin(r), 0.0, math.cos(r)])
    ball = cp.stereographic(cp.SphericalCap(center, r), pole_axis=2)
    assert ball.is_halfspace
    assert ball.halfspace_offset is not None
    assert np.linalg.norm(ball.curvature_center) == pytest.approx(1.0)


def test_cap_separation_consistency(universal4, five_cycle):
    """Cap geometry (angular distances vs radii) must agree with separations."""
    for g in (universal4, five_cycle):
        b = g.gram
        frame = cp.lorentz_frame(b)
        ws = spacelike_weights(g, 3)
        caps = [cp.cap_of(w.vector, frame, b) for w in ws]
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, len(ws), size=(80, 2))
        for i, j in pairs:
            if i == j:
                continue
            rel = cp.classify_pair(ws[i].vector, ws[j].vector, b)
            ang = math.acos(max(-1.0, min(1.0, float(caps[i].center @ caps[j].center))))
            rsum = caps[i].angular_radius + caps[j].angular_radius
            rdiff = abs(caps[i].angular_radius - caps[j].angular_radius)
            if rel.kind is PairKind.DISJOINT:
                assert ang > rsum - 1e-6
            elif rel.kind is PairKind.TANGENT:
                assert ang == pytest.approx(rsum, abs=1e-6)
            elif rel.kind is PairKind.TRANSVERSAL:
                assert rdiff - 1e-6 < ang < rsum + 1e-6
            elif rel.separation < -1 - 1e-9:
                assert ang < rdiff + 1e-6


def test_stereographic_tangency_preserved(universal4):
    b = universal4.gram
    frame = cp.lorentz_frame(b)
    ws = spacelike_weights(universal4, 3)
    caps = [cp.cap_of(w.vector, frame, b) for w in ws]
    balls, _, _ = project_packing(caps)
    checked = 0
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if cp.classify_pair(ws[i].vector, ws[j].vector, b).kind is not PairKind.TANGENT:
                continue
            bi, bj = balls[i], balls[j]
            if bi.is_halfspace or bj.is_halfspace:
                continue
            dist = float(np.linalg.norm(bi.center - bj.center))
            scale = max(1.0, bi.radius, bj.radius)
            if bi.curvature > 0 and bj.curvature > 0:
                assert abs(dist - (bi.radius + bj.radius)) <= 1e-6 * scale
            else:
                assert abs(dist - abs(bi.radius - bj.radius)) <= 1e-6 * scale
            checked += 1
    assert checked >= 6


def test_validate_cluster_packing(universal4):
    report = cp.validate_cluster(spacelike_weights(universal4, 6), universal4.gram)
    assert report.is_packing
    assert report.min_separation == pytest.approx(1.0, abs=1e-9)
    assert not report.violating_pairs and not report.deep_pairs


def test_validate_cluster_pairs_match_reference(fig1b):
    """Every overlapping and every deep pair, named by weight position.

    fig1b's 3,566 space-like weights at length 7 span four separation chunks;
    repeating every 700th weight adds deep pairs (separation -1).
    """
    ws = spacelike_weights(fig1b, 7)
    ws += ws[::700]
    tol = 1e-9  # balls._ALGEBRAIC_TOL
    report = cp.validate_cluster(ws, fig1b.gram)
    i, j, seps = ref.separations(ws, fig1b.gram)
    low = seps < 1.0 - tol
    want = sorted(zip(i[low].tolist(), j[low].tolist(), seps[low].tolist()))
    assert report.min_separation == float(seps.min())
    assert report.violating_pairs == tuple(want)
    assert report.deep_pairs == tuple(p for p in want if p[2] < -tol)
    assert len(want) > 1_832 and len(report.deep_pairs) == 6
    assert not report.is_packing


def test_validate_cluster_last_chunk_holds_only_the_last_row(universal4):
    """4,471 balls make five separation chunks of 894 rows and a sixth holding
    only the last row, which has no pair of its own."""
    ws = spacelike_weights(universal4, 8)[:4471]
    report = cp.validate_cluster(ws, universal4.gram)
    assert report.is_packing
    assert report.min_separation == pytest.approx(1.0, abs=1e-9)


def test_validate_cluster_degenerate(universal4):
    ws = spacelike_weights(universal4, 0)
    report = cp.validate_cluster(ws[:1], universal4.gram)
    assert report.is_packing and report.min_separation == math.inf
    assert report.violating_pairs == () and report.deep_pairs == ()


def test_residual_margin_interior_point(universal4):
    b = universal4.gram
    frame = cp.lorentz_frame(b)
    ws = spacelike_weights(universal4, 0)
    # light ray through the cap center of ball(w0) lies inside that ball
    cap = cp.cap_of(ws[0].vector, frame, b)
    ray = frame.basis_change @ np.concatenate([cap.center, [1.0]])
    p = cp.projectivize(ray)
    assert cp.residual_margin(p, ws, b) < 0


def test_residual_margin_empty(universal4):
    p = cp.projectivize(np.array([1.0, 0.0, 0.0, 0.0]))
    assert cp.residual_margin(p, [], universal4.gram) == math.inf


def test_residual_margin_decay(universal4):
    b = universal4.gram
    ws = spacelike_weights(universal4, 6)
    eps = []
    for d in (4, 6, 8):
        pts = cp.limit_sample(universal4, RootSource(d)).points
        eps.append(max(0.0, -float(residual_margins(pts, ws, b).min())))
    assert eps[0] > eps[1] > eps[2]


def test_project_packing_rotates_off_pole():
    # a cap whose boundary passes through the pole triggers the retry rotation
    r = 0.9
    risky = cp.SphericalCap(np.array([math.sin(r), 0.0, math.cos(r)]), r)
    safe = cp.SphericalCap(np.array([0.0, 0.0, -1.0]), 0.4)
    balls, caps_used, rot = project_packing([risky, safe])
    assert not np.allclose(rot, np.eye(3))
    assert all(not b.is_halfspace for b in balls)
    # the caps actually projected carry the rotation
    assert np.allclose(caps_used[0].center, rot @ risky.center)
    assert caps_used[0].angular_radius == risky.angular_radius
