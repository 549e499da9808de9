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
from coxpack import census, forms
from coxpack.forms import FormError, minors_psd
from coxpack.tangency import is_strict_level2
from reference_census import filter_level2_arrays, pivots_positive

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
@given(graph_batches(), st.sampled_from(TOLS + (1e-9,)), st.sampled_from((1, 3 * 8**2, 1 << 16)))
def test_kernel_matches_reference(batch, tol, budget):
    # a budget of 1 entry decides each matrix in its own call, which splits
    # every stack and every deletion block; 3 * 8**2 entries take 3 minors of
    # 8x8 or 21 of 3x3 a call.  The Cholesky screen runs on every stack,
    # however small
    with mock.patch.object(forms, "_KERNEL_ENTRIES", budget), \
            mock.patch.object(forms, "_SCREEN_MIN", 1):
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
        assert forms._levels(grams, tol).tolist() == levels
        assert forms._levels(grams, tol, below=2).tolist() == [min(lv, 2) for lv in levels]
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


# the Gram entry of an edge: labels 3-6, an infinite bond and dotted edges
BONDS = [np.cos(np.pi / m) for m in (3, 4, 5, 6)] + [1.0, 1.5, 3.0]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 11),
    count=st.integers(1, 300),
    density=st.sampled_from((0.2, 0.4, 0.8)),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from(TOLS),
)
def test_screen_matches_the_matrix_major_reference(n, count, density, seed, tol):
    """The entry-major screen gives the mask of the matrix-major one on
    Coxeter-like stacks of rank 1-11: at the margins t +- tol/2 around both
    thresholds t = +-tol, and on both sides of, and at, an eigenvalue of
    each matrix, where its last pivot is roundoff and its sign follows the
    last bits of every step before it."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((count, n, n)) < density, 1) * rng.choice(BONDS, (count, n, n))
    grams = np.eye(n) - upper - upper.transpose(0, 2, 1)
    for shift in (t + s * tol / 2 for t in (tol, -tol) for s in (-1, 1)):
        want = pivots_positive(grams, shift)
        assert forms._pivots_positive(grams, shift).tolist() == want.tolist()
    # each matrix less one of its eigenvalues, singular up to roundoff
    eigen = np.linalg.eigvalsh(grams)[np.arange(count), rng.integers(n, size=count)]
    near = grams - eigen[:, None, None] * np.eye(n)
    for shift in (-1e-9, -1e-13, 0.0, 1e-13, 1e-9):
        want = pivots_positive(near, shift)
        assert forms._pivots_positive(near, shift).tolist() == want.tolist()


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


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (2, 2, 3, 3), (4,)])
def test_kernel_rejects_a_stack_of_the_wrong_shape(shape):
    with pytest.raises(FormError, match=r"shape \(m, n, n\)"):
        minors_psd(np.zeros(shape), 1)


def _recorded_stacks(monkeypatch) -> list[int]:
    """The entries of each stack forms._decide receives, from now on."""
    sizes = []
    decide = forms._decide

    def recording(stack, zero_tol, finite):
        sizes.append(stack.size)
        return decide(stack, zero_tol, finite)

    monkeypatch.setattr(forms, "_decide", recording)
    return sizes


UNBOUNDED = 1 << 62


@pytest.mark.parametrize("k", [0, 1, 2])
def test_kernel_stays_inside_its_budget(monkeypatch, k):
    """Every stack minors_psd decides holds at most _KERNEL_ENTRIES entries:
    the whole-stack slices (k = 0), the gathered minors of one deletion
    across more matrices than the budget holds, and the deletion blocks of
    the few matrices left.  The verdicts are those of one unbounded call."""
    rng = np.random.default_rng(k)
    n, count, budget = 9, 300, 1 << 12
    # sparse graphs with labels 3-6: some pass every deletion, most fail one
    upper = np.triu(rng.random((count, n, n)) < 0.25, 1) * rng.choice(
        [np.cos(np.pi / m) for m in (3, 4, 5, 6)], (count, n, n)
    )
    grams = np.eye(n) - upper - upper.transpose(0, 2, 1)
    sizes = _recorded_stacks(monkeypatch)
    monkeypatch.setattr(forms, "_KERNEL_ENTRIES", UNBOUNDED)
    want = minors_psd(grams, k, 1e-3)
    assert max(sizes) > budget
    sizes.clear()
    monkeypatch.setattr(forms, "_KERNEL_ENTRIES", budget)
    got = minors_psd(grams, k, 1e-3)
    assert got.tolist() == want.tolist() and 0 < want.sum() < count
    assert len(sizes) > 1 and max(sizes) <= budget


@pytest.mark.parametrize("budget", [1 << 12, forms._KERNEL_ENTRIES])
def test_census_kernel_calls_stay_inside_the_budget(monkeypatch, budget):
    """_rank_survivors on theta(2,2,2) (rank 8, 262,144 members) decides its
    table rows and one-vertex deletions in stacks of at most _KERNEL_ENTRIES
    entries, and keeps the members that a run with an unbounded budget
    keeps.  Unbounded, its largest stack is 1,536 minors of 6x6 (55,296
    entries), so the smaller budget splits it."""
    rank, pairs = census._theta_edges(2, 2, 2)
    batches = [(cp.CoxeterGraph(rank), tuple(pairs))]
    assert rank == 8 and len(pairs) == 9
    sizes = _recorded_stacks(monkeypatch)
    blocks = []  # the entries of each block of table rows _rank_survivors gathers
    kernel = census.minors_psd

    def recording(grams, k, zero_tol):
        blocks.append(grams.size if k == 0 else 0)
        return kernel(grams, k, zero_tol)

    monkeypatch.setattr(census, "minors_psd", recording)
    monkeypatch.setattr(forms, "_KERNEL_ENTRIES", UNBOUNDED)
    want = census._rank_survivors(*census._stacked(batches), 1e-3)
    assert max(sizes) == max(blocks) == 55_296
    sizes.clear()
    blocks.clear()
    monkeypatch.setattr(forms, "_KERNEL_ENTRIES", budget)
    got = census._rank_survivors(*census._stacked(batches), 1e-3)
    assert max(sizes) <= budget and max(blocks) <= budget
    assert [x.tolist() for x in got] == [x.tolist() for x in want]
    assert len(want[1])
