import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxpack as cp
from coxpack.forms import NotLorentzianError
from coxpack.groups import simple_reflections
from coxpack.orbits import (
    OrbitCapError,
    RootSource,
    VectorClass,
    WeightSource,
    _classify_norms,
    _walk,
    _weight_columns,
    bilinear,
    classify_norm,
)


def dihedral_positive_roots(b, reflections_applied):
    """Brute-force oracle: apply all generator words up to the given length."""
    n = b.shape[0]
    gens = simple_reflections(b)
    found = {}
    frontier = [(np.eye(n)[i], 1) for i in range(n)]
    for vec, depth in frontier:
        found[tuple(np.round(vec, 9))] = depth
    for _ in range(reflections_applied):
        nxt = []
        for vec, depth in frontier:
            for i in range(n):
                img = gens[i] @ vec
                if img.min() < -1e-9:
                    continue
                key = tuple(np.round(img, 9))
                if key not in found:
                    found[key] = depth + 1
                    nxt.append((img, depth + 1))
        frontier = nxt
    return found


def test_reflect_examples():
    b = cp.path_graph([3]).gram
    a1, a2 = np.eye(2)
    assert np.allclose(cp.reflect(a1, a1, b), -a1)
    assert np.allclose(cp.reflect(a2, a1, b), a1 + a2)  # B(a1, a2) = -1/2
    # orthogonal vector is fixed
    b2 = np.eye(2)
    assert np.allclose(cp.reflect(a2, a1, b2), a2)
    with pytest.raises(ValueError):
        cp.reflect(a1, np.array([1.0, 1.0]), cp.path_graph([("inf", 1.0)]).gram)


def test_reflection_preserves_form(fig1a, universal4, star_inf):
    rng = np.random.default_rng(20240901)
    for g in (fig1a, universal4, star_inf):
        b = g.gram
        gens = simple_reflections(b)
        for _ in range(20):
            x = rng.normal(size=g.rank)
            y = rng.normal(size=g.rank)
            i = rng.integers(g.rank)
            before = bilinear(b, x, y)
            after = bilinear(b, gens[i] @ x, gens[i] @ y)
            assert after == pytest.approx(before, abs=1e-9)


def test_roots_depth_one_is_simple(fig1a):
    records = cp.roots_up_to_depth(fig1a, 1)
    assert len(records) == 4
    assert all(r.depth == 1 and r.height == 1.0 for r in records)
    vecs = np.array([r.vector for r in records])
    assert np.allclose(vecs, np.eye(4))


def test_roots_finite_dihedral():
    g = cp.path_graph([3])
    records = cp.roots_up_to_depth(g, 9)
    got = {tuple(np.round(r.vector, 9)): r.depth for r in records}
    assert got == {(1.0, 0.0): 1, (0.0, 1.0): 1, (1.0, 1.0): 2}


def test_roots_infinite_dihedral_matches_oracle():
    g = cp.path_graph([("inf", 1.0)])
    for depth in (2, 3, 5):
        records = cp.roots_up_to_depth(g, depth)
        got = {tuple(np.round(r.vector, 9)): r.depth for r in records}
        assert got == dihedral_positive_roots(g.gram, depth - 1)
    # depth 3 contains the four depth <= 2 roots plus (3,2) and (2,3)
    records = cp.roots_up_to_depth(g, 3)
    vecs = {tuple(np.round(r.vector).astype(int)) for r in records}
    assert vecs == {(1, 0), (0, 1), (1, 2), (2, 1), (3, 2), (2, 3)}


def test_root_record_invariants(fig1a, five_cycle):
    for g in (fig1a, five_cycle):
        b = g.gram
        for r in cp.roots_up_to_depth(g, 6):
            assert bilinear(b, r.vector, r.vector) == pytest.approx(1.0, abs=1e-9)
            assert r.vector.min() >= -1e-9
            assert r.height == pytest.approx(float(r.vector.sum()))
            if r.depth == 1:
                assert np.count_nonzero(np.abs(r.vector) > 1e-12) == 1


def test_universal_shell_counts():
    """The universal system is relation-free: shell sizes are exactly 4 * 3^(d-1)."""
    from collections import Counter

    from coxpack.groups import GroupBFS

    g = cp.universal_graph(4)
    shells = Counter(r.depth for r in cp.roots_up_to_depth(g, 8))
    assert shells == {d: 4 * 3 ** (d - 1) for d in range(1, 9)}
    lens = Counter(GroupBFS(g.gram, 5).lengths)
    assert lens == {0: 1, **{l: 4 * 3 ** (l - 1) for l in range(1, 6)}}


def test_roots_validation():
    with pytest.raises(ValueError):
        cp.roots_up_to_depth(cp.path_graph([3]), 0)
    with pytest.raises(OrbitCapError):
        cp.roots_up_to_depth(cp.universal_graph(4), 6, max_records=10)


def test_walk_stacks_layers():
    """_walk stacks the layers; a finite orbit ends, and an empty one keeps its shapes."""
    b = cp.path_graph([3]).gram  # A2: alpha_0, alpha_1, then alpha_0 + alpha_1
    vectors, colors, ends, lengths, layer = _walk(b, np.eye(2), -1, 5, None, "roots")
    assert layer.tolist() == [0, 0, 1] and colors.tolist() == [0, 1, 1]
    assert np.allclose(vectors, [[1, 0], [0, 1], [1, 1]])
    assert ends.shape == (3, 0, 2) and lengths.shape == (3, 0)
    empty = _walk(b, np.empty((0, 2)), -1, 5, None, "roots")
    assert [c.shape for c in empty] == [(0, 2), (0,), (0, 0, 2), (0, 0), (0,)]


def test_walk_cap_boundary():
    """The exact record count passes; one fewer, or one record already counted, raises."""
    b = cp.universal_graph(4).gram
    count = len(_walk(b, np.eye(4), -1, 4, None, "roots")[0])
    assert count == 4 + 12 + 36 + 108
    assert len(_walk(b, np.eye(4), -1, 4, count, "roots")[0]) == count
    with pytest.raises(OrbitCapError) as err:
        _walk(b, np.eye(4), -1, 4, count - 1, "roots")
    assert err.value.cap == count - 1
    with pytest.raises(OrbitCapError):
        _walk(b, np.eye(4), -1, 4, count, "roots", total=1)


def test_weights_length_zero(universal4):
    records = cp.weights_up_to_length(universal4, 0)
    assert len(records) == 4
    w, norms = cp.fundamental_weights(universal4.gram)
    for r in records:
        assert r.word_length == 0
        assert np.allclose(r.vector, w[r.color])
        assert r.norm == pytest.approx(norms[r.color])


def test_weights_universal_length_one(universal4):
    records = cp.weights_up_to_length(universal4, 1)
    assert len(records) == 8  # each generator moves only its own weight
    by_len = {}
    for r in records:
        by_len.setdefault(r.word_length, 0)
        by_len[r.word_length] += 1
    assert by_len == {0: 4, 1: 4}
    # sigma_s(omega_s) = omega_s - 2 alpha_s
    w, _ = cp.fundamental_weights(universal4.gram)
    moved = {r.color: r.vector for r in records if r.word_length == 1}
    for s in range(4):
        expected = w[s] - 2 * np.eye(4)[s]
        assert np.allclose(moved[s], expected, atol=1e-9)


def test_weight_norm_constant_on_orbit(fig1a, five_cycle, star_inf):
    for g in (fig1a, five_cycle, star_inf):
        _, norms = cp.fundamental_weights(g.gram)
        for r in cp.weights_up_to_length(g, 5):
            assert r.norm == pytest.approx(norms[r.color], abs=1e-9)
            assert bilinear(g.gram, r.vector, r.vector) == pytest.approx(r.norm, abs=1e-9)


def test_weights_singular_form_error():
    with pytest.raises(cp.SingularFormError):
        cp.weights_up_to_length(cp.cycle_graph([3, 3, 3]), 2)


def test_classify_norm():
    assert classify_norm(0.5, 0.5) is VectorClass.SPACE_LIKE
    assert classify_norm(-0.5, -0.5) is VectorClass.TIME_LIKE
    assert classify_norm(1e-12, 1e-12) is VectorClass.LIGHT_LIKE


# The acceptance limit systems with their benchmark weight lengths.
BENCH_WEIGHTS = {
    "universal4": ("n=4; 0-1:inf 0-2:inf 0-3:inf 1-2:inf 1-3:inf 2-3:inf", 6),
    "complete4": ("n=4; 0-1:4 0-2:4 0-3:4 1-2:4 1-3:4 2-3:4", 6),
    "cycle5": ("n=5; 0-1:4 0-4:4 1-2:4 2-3:4 3-4:4", 7),
    "star": ("n=4; 0-3:inf 1-3:inf 2-3:inf", 8),
}


@pytest.mark.parametrize("name", sorted(BENCH_WEIGHTS))
def test_weight_classes_match_classify_norm(name):
    """The whole-array classes are classify_norm's, record by record."""
    text, length = BENCH_WEIGHTS[name]
    g = cp.parse_compact(text)
    _, fund_norms = cp.fundamental_weights(g.gram)
    for ell in (0, length):
        _, _, colors, norms, classes = _weight_columns(g, ell)
        assert classes.dtype == object and len(classes) == len(norms)
        want = [classify_norm(n, r) for n, r in zip(norms.tolist(), fund_norms[colors].tolist())]
        assert classes.tolist() == want


def test_classify_norms_edges():
    """The light-like band scales with the reference; no norm is left unclassified."""
    norms = np.array([0.0, 1e-9, -1e-9, 2e-9, -2e-9, 5e-9, 5e-9, 1.0, -1.0])
    refs = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 10.0, -1.0, 1.0, 1.0])
    got = _classify_norms(norms, refs)
    assert got.tolist() == [classify_norm(n, r) for n, r in zip(norms, refs)]
    assert _classify_norms(np.zeros(0), np.zeros(0)).shape == (0,)


def test_projectivize():
    a = np.array([1.0, 0.0, 0.0])
    p = cp.projectivize(a)
    assert not p.at_infinity and np.allclose(p.coords, a)
    q = cp.projectivize(5 * np.array([0.2, 0.5, 0.3]))
    assert np.allclose(q.coords, [0.2, 0.5, 0.3])
    assert cp.projectivize(np.array([1.0, -1.0])).at_infinity
    with pytest.raises(ValueError):
        cp.projectivize(np.zeros(3))


def test_normalize_spacelike(universal4):
    b = universal4.gram
    root = cp.roots_up_to_depth(universal4, 3)[-1]
    assert np.allclose(cp.normalize_spacelike(root.vector, b), root.vector)
    w, _ = cp.fundamental_weights(b)
    assert np.allclose(cp.normalize_spacelike(w[0], b), 2 * w[0])
    timelike = np.full(4, 0.25)
    with pytest.raises(ValueError):
        cp.normalize_spacelike(timelike, b)


def test_limit_sample_roots(fig1a):
    s5 = cp.limit_sample(fig1a, RootSource(5))
    s7 = cp.limit_sample(fig1a, RootSource(7))
    assert s5.quadratic_residual > s7.quadratic_residual > 0
    for p in s7.points:
        assert float(np.sum(p.coords)) == pytest.approx(1.0, abs=1e-12)
    shell = [r.vector / r.height for r in cp.roots_up_to_depth(fig1a, 7) if r.depth == 7]
    assert np.allclose([p.coords for p in s7.points], shell)


def test_limit_sample_weights(fig1a):
    s = cp.limit_sample(fig1a, WeightSource(4))
    assert s.dropped_zero_height == 0
    assert all(not p.at_infinity for p in s.points)
    weights = cp.weights_up_to_length(fig1a, 4)
    shell = [w.vector / w.vector.sum() for w in weights if w.word_length == 4]
    assert np.allclose([p.coords for p in s.points], shell)


def test_limit_sample_requires_lorentzian():
    with pytest.raises(NotLorentzianError):
        cp.limit_sample(cp.path_graph([3, 3]), RootSource(3))
    with pytest.raises(NotLorentzianError):
        cp.limit_sample(cp.path_graph([("inf", 1.0)]), RootSource(3))


def test_affine_dihedral_roots_converge_projectively():
    # roots k a1 + (k +- 1) a2 head to the single isotropic direction (1/2, 1/2)
    g = cp.path_graph([("inf", 1.0)])
    records = [r for r in cp.roots_up_to_depth(g, 24) if r.depth == 24]
    for r in records:
        p = cp.projectivize(r.vector)
        assert np.allclose(p.coords, [0.5, 0.5], atol=1.5 / 24)


def test_light_directions_separate(fig1a):
    b = fig1a.gram
    pts = [p.coords for p in cp.limit_sample(fig1a, RootSource(9)).points]
    rng = np.random.default_rng(7)
    idx = rng.integers(0, len(pts), size=(60, 2))
    for i, j in idx:
        p, q = pts[i], pts[j]
        if np.linalg.norm(p - q) >= 0.01:
            assert bilinear(b, p, q) < 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_weight_fixed_by_other_generators(s, t):
    g = cp.universal_graph(4)
    b = g.gram
    gens = simple_reflections(b)
    w, _ = cp.fundamental_weights(b)
    moved = gens[t] @ w[s]
    if s != t:
        assert np.allclose(moved, w[s], atol=1e-12)
    else:
        assert np.allclose(moved, w[s] - 2 * np.eye(4)[s], atol=1e-12)
