"""The batched minor-PSD kernel against the per-minor reference loop.

The reference is the loop the library used before forms.minors_psd: one
eigvalsh call on each principal minor b[np.ix_(idx, idx)], a minor on
rank - r vertices passing at minimum eigenvalue >= -tol (finite: > tol).
The kernel's Cholesky screen runs only on stacks of forms._SCREEN_MIN
matrices or more, so the tests that check it lower that constant to 1.
"""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxpack as cp
from coxpack import forms
from coxpack.forms import minors_psd
from coxpack.tangency import is_strict_level2
from reference_census import filter_level2_arrays

TOLS = (5e-4, 1e-3, 2e-3)


def minor_min_eigs(b, r):
    """Minimum eigenvalue of each principal minor of b on rank - r vertices."""
    n = b.shape[0]
    for keep in combinations(range(n), n - r):
        idx = np.fromiter(keep, dtype=int)
        yield float(np.linalg.eigvalsh(b[np.ix_(idx, idx)])[0])


def ref_is_level_at_most(g, r, tol):
    return all(low >= -tol for low in minor_min_eigs(g.gram, r))


def ref_level(g, tol):
    return next(r for r in range(g.rank) if ref_is_level_at_most(g, r, tol))


def ref_is_strict_level2(g, tol):
    return all(low > tol for low in minor_min_eigs(g.gram, 2))


LABELS = tuple(cp.EdgeLabel(m) for m in (3, 4, 5, 6)) + tuple(
    cp.EdgeLabel(None, c) for c in (1.0, 1.5, 3.0)
)


@st.composite
def graphs_of_rank(draw, n):
    """A graph on n vertices; each pair has no edge or a label in
    {3, 4, 5, 6, inf}, or a dotted one with c in {1.5, 3}."""
    density = draw(st.sampled_from((0.3, 0.5, 0.8)))
    edges = []
    for u, v in combinations(range(n), 2):
        if draw(st.floats(0.0, 1.0)) >= density:
            continue
        edges.append((u, v, draw(st.sampled_from(LABELS))))
    return cp.CoxeterGraph(n, tuple(edges))


@st.composite
def graph_batches(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    return draw(st.lists(graphs_of_rank(n), min_size=1, max_size=12))


@settings(max_examples=60, deadline=None)
@given(graph_batches(), st.sampled_from(TOLS + (1e-9,)), st.sampled_from((3, 8192)))
def test_kernel_matches_reference(batch, tol, chunk):
    # chunk 3 splits every eigvalsh stack and every deletion block; the
    # Cholesky screen runs on every stack, however small
    with mock.patch.object(forms, "_EIG_CHUNK", chunk), mock.patch.object(forms, "_SCREEN_MIN", 1):
        levels = []
        for g in batch:
            for r in range(g.rank):
                assert cp.is_level_at_most(g, r, tol) == ref_is_level_at_most(g, r, tol)
            lv = cp.level(g, tol)
            assert lv == ref_level(g, tol)
            if lv == 2:
                assert is_strict_level2(g, tol) == ref_is_strict_level2(g, tol)
            levels.append(lv)
        grams = np.stack([g.gram for g in batch])
        survivors = filter_level2_arrays(grams, tol)
    assert sorted(survivors.tolist()) == [i for i, lv in enumerate(levels) if lv == 2]


@pytest.mark.parametrize(
    "text",
    [
        "n=5; 0-2:3 0-3:3 0-4:3 1-2:3 1-3:3 1-4:4",  # strict
        "n=5; 0-1:3 0-2:4 2-3:4 3-4:3",  # not strict
        "n=5; 0-1:3 0-2:4 1-3:6 3-4:3",
        "n=4; 0-1:4 0-2:4 0-3:4 1-2:4 1-3:4 2-3:4",
        "n=5; 0-1:4 0-4:4 1-2:4 2-3:4 3-4:4",
    ],
)
@pytest.mark.parametrize("tol", TOLS)
def test_strictness_matches_reference(text, tol):
    g = cp.parse_compact(text)
    assert cp.level(g, tol) == 2
    assert is_strict_level2(g, tol) == ref_is_strict_level2(g, tol)


def test_kernel_masks_a_stack():
    # eigenvalues {1/2, 3/2}, {0, 2} and {-1/2, 5/2}: finite, affine, hyperbolic
    grams = np.array([[[1.0, c], [c, 1.0]] for c in (-0.5, -1.0, -1.5)])
    assert minors_psd(grams, 0).tolist() == [True, True, False]
    assert minors_psd(grams, 0, finite=True).tolist() == [True, False, False]
    assert minors_psd(grams, 1).tolist() == [True, True, True]
    assert minors_psd(grams[:0], 1).tolist() == []


@pytest.mark.parametrize("finite", [False, True])
@pytest.mark.parametrize("tol", TOLS + (1e-9,))
def test_screen_defers_exactly_the_near_band(monkeypatch, tol, finite):
    """2x2 Gram matrices with minimum eigenvalue 1 - |c| placed around the
    threshold t: the rows within tol/4 of t, on both sides, reach eigvalsh,
    and the rows at least tol away are decided by the screen alone."""
    t = tol if finite else -tol
    near = t + tol * np.array([-1 / 4, -1 / 8, -1 / 16, 0.0, 1 / 16, 1 / 8, 1 / 4])
    far = t + tol * np.array([-10.0, -2.0, -1.0, 1.0, 2.0, 10.0])
    lows = np.concatenate([far[:3], near, far[3:]])
    grams = np.array([[[1.0, low - 1.0], [low - 1.0, 1.0]] for low in lows])
    sent = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        sent.extend(a)
        return eigvalsh(a)

    monkeypatch.setattr(forms, "_SCREEN_MIN", 1)
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    got = minors_psd(grams, 0, tol, finite=finite)
    monkeypatch.undo()
    assert np.array(sent).tobytes() == grams[3:-3].tobytes()
    want = [next(minor_min_eigs(b, 0)) for b in grams]
    assert got.tolist() == [low > t if finite else low >= t for low in want]
    assert got[:3].tolist() == [False] * 3 and got[-3:].tolist() == [True] * 3


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
def test_kernel_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        minors_psd(np.eye(3)[None], 1, tol)
    with pytest.raises(ValueError):
        cp.level(cp.path_graph([3, 3]), tol)


@pytest.mark.parametrize("k", [-1, 3])
def test_kernel_rejects_bad_deletion_count(k):
    with pytest.raises(ValueError):
        minors_psd(np.eye(3)[None], k)
