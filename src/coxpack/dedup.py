"""Tolerance-verified deduplication of float vectors, for the breadth-first test references.

Products reaching one algebraic vector by different routes differ in their
last bits.  Plain grid quantization can split one vector into two keys when
a coordinate lands near a grid boundary, so the store buckets rows on a
coarse grid, probes every cell a match could occupy, and confirms candidates
with an exact infinity-norm comparison.  Matching is therefore independent
of where grid boundaries fall.
"""

from __future__ import annotations

from itertools import product

import numpy as np

DEFAULT_TOL = 1e-7
_GRID = 1e-3
# Irrational grid offset: orbit coordinates are full of small rationals
# (0, 1, 1/2, ...) that would otherwise sit exactly on cell boundaries and
# force a probe in every dimension at once.
_OFFSET = _GRID * 0.3819660112501051
_MAX_PROBES = 4096


class VectorStore:
    """Append-only set of vectors with `find` and `add` under an inf-norm tolerance."""

    def __init__(self, dim: int, tol: float = DEFAULT_TOL):
        self.dim = dim
        self.tol = float(tol)
        self._buckets: dict[bytes, list[int]] = {}
        self._data = np.empty((256, dim))
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _probe_keys(self, v: np.ndarray):
        lo = np.floor((v + _OFFSET - self.tol) / _GRID).astype(np.int64)
        hi = np.floor((v + _OFFSET + self.tol) / _GRID).astype(np.int64)
        wide = np.nonzero(hi > lo)[0]
        if wide.size == 0:
            yield lo.tobytes()
            return
        total = int(np.prod(hi[wide] - lo[wide] + 1.0))
        if total > _MAX_PROBES:
            raise RuntimeError(f"dedup probe explosion ({total} cells); tolerance misconfigured")
        key = lo.copy()
        ranges = [range(lo[d], hi[d] + 1) for d in wide]
        for combo in product(*ranges):
            key[wide] = combo
            yield key.tobytes()

    def find(self, v: np.ndarray) -> int | None:
        v = np.asarray(v, dtype=float)
        for key in self._probe_keys(v):
            ids = self._buckets.get(key)
            if not ids:
                continue
            cand = self._data[ids]
            hits = np.abs(cand - v).max(axis=1) <= self.tol
            if hits.any():
                return ids[int(np.argmax(hits))]
        return None

    def add(self, v: np.ndarray) -> tuple[int, bool]:
        """Return (id, is_new); stores the vector only when no match exists."""
        v = np.asarray(v, dtype=float)
        found = self.find(v)
        if found is not None:
            return found, False
        if self._count == self._data.shape[0]:
            grown = np.empty((2 * self._data.shape[0], self.dim))
            grown[: self._count] = self._data[: self._count]
            self._data = grown
        idx = self._count
        self._data[idx] = v
        self._count += 1
        home = np.floor((v + _OFFSET) / _GRID).astype(np.int64).tobytes()
        self._buckets.setdefault(home, []).append(idx)
        return idx, True
