import numpy as np

from coxpack.dedup import VectorStore


def test_store_basic():
    store = VectorStore(3)
    i, new = store.add(np.array([0.0, 1.0, 0.5]))
    assert (i, new) == (0, True)
    j, new = store.add(np.array([0.0, 1.0, 0.5]))
    assert (j, new) == (0, False)
    k, new = store.add(np.array([0.0, 1.0, 0.6]))
    assert (k, new) == (1, True)
    assert len(store) == 2


def test_store_tolerance_across_grid_boundary():
    # values straddling a quantization boundary must still merge
    store = VectorStore(2, tol=1e-7)
    base = np.array([1e-3 - 2e-9, 0.25])
    other = base + np.array([4e-9, -3e-9])
    i, _ = store.add(base)
    j, new = store.add(other)
    assert j == i and not new


def test_store_integer_coordinates():
    # exact integers sit on naive grid boundaries in every coordinate
    store = VectorStore(16)
    v = np.zeros(16)
    v[3] = 1.0
    i, new = store.add(v)
    assert new
    j, new = store.add(v + 1e-9)
    assert j == i and not new
    k, new = store.add(np.ones(16))
    assert new and k != i


def test_store_distinguishes_beyond_tolerance():
    store = VectorStore(2, tol=1e-7)
    a, _ = store.add(np.array([0.5, 0.5]))
    b, new = store.add(np.array([0.5 + 1e-5, 0.5]))
    assert new and b != a
