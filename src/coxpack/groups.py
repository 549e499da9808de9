"""Breadth-first enumeration of group elements in the reflection representation."""

from __future__ import annotations

import numpy as np

from .dedup import VectorStore
from .orbits import OrbitCapError


def simple_reflections(b: np.ndarray) -> np.ndarray:
    """Matrices of the generators acting on simple-root coordinates, shape (n, n, n).

    Generator i sends x to x - 2 B(x, alpha_i) alpha_i, i.e. subtracts twice
    row i of the Gram matrix from coordinate i.
    """
    n = b.shape[0]
    gens = np.broadcast_to(np.eye(n), (n, n, n)).copy()
    for i in range(n):
        gens[i, i, :] -= 2.0 * b[i, :]
    return gens


class GroupBFS:
    """All distinct group elements of word length <= max_length.

    Elements are products of simple reflections, deduplicated by their matrix.
    `lengths[i]` is the word length of element i (its BFS layer), `words[i]`
    one reduced word realizing it, and `adjacency[i]` maps a generator index
    to the neighbor element id when that neighbor lies within the truncation.
    """

    def __init__(self, gram: np.ndarray, max_length: int, max_records: int | None = None):
        if max_length < 0:
            raise ValueError("max_length must be >= 0")
        n = gram.shape[0]
        self.rank = n
        self.gens = simple_reflections(gram)
        self._store = VectorStore(n * n)
        self.matrices: list[np.ndarray] = []
        self.lengths: list[int] = []
        self.words: list[tuple[int, ...]] = []
        self.adjacency: list[dict[int, int]] = []

        ident = np.eye(n)
        self._store.add(ident.ravel())
        self.matrices.append(ident)
        self.lengths.append(0)
        self.words.append(())
        self.adjacency.append({})

        frontier = [0]
        for ell in range(1, max_length + 1):
            stacked = np.stack([self.matrices[e] for e in frontier])
            new_frontier: list[int] = []
            for i in range(n):
                children = (stacked @ self.gens[i]).reshape(len(frontier), n * n)
                for j, eid in enumerate(frontier):
                    cid, is_new = self._store.add(children[j])
                    if is_new:
                        self.matrices.append(children[j].reshape(n, n))
                        self.lengths.append(ell)
                        self.words.append(self.words[eid] + (i,))
                        self.adjacency.append({})
                        new_frontier.append(cid)
                        if max_records is not None and len(self.matrices) > max_records:
                            raise OrbitCapError("group element generation", max_records)
                    self.adjacency[eid][i] = cid
                    self.adjacency[cid][i] = eid
            if not new_frontier:
                break
            frontier = new_frontier

    def __len__(self) -> int:
        return len(self.matrices)
