"""References for the census's candidates and its two hot kernels.

The level-2 filter decides every principal minor with a direct
np.linalg.eigvalsh call on a stack of minors, one deletion at a time, so it
stays an oracle for forms.minors_psd and its Cholesky screen as well as for
the census's memoized tables.  canonical_key is the one-graph depth-first
search with automorphism pruning that graphs.canonical_key ran before keys
were searched breadth first in batches, and before its refinement step
signed vertices by their edges: it signs each vertex by its full row of
(token, colour) pairs.  It defines the key bytes the batched search keeps.

nominate builds the candidates of the nomination batches one CoxeterGraph at
a time (labeled builds one), the reference for the label-code stacks the
census decides and keys.
pivots_positive is the Cholesky screen as forms._pivots_positive ran it on
matrix-major (m, n, n) stacks, the reference for its entry-major layout.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

import numpy as np

from coxpack.census import ADMISSIBLE_LABELS, Family, _nomination_batches
from coxpack.graphs import CoxeterGraph, EdgeLabel

# token used for an absent edge; sorts after every real label
_NO_EDGE = (2, 0.0)


def labeled(base: CoxeterGraph, pairs, codes) -> CoxeterGraph:
    """The batch member that gives free pair i the label ADMISSIBLE_LABELS[codes[i]]."""
    edges = tuple((u, v, EdgeLabel(ADMISSIBLE_LABELS[c])) for (u, v), c in zip(pairs, codes))
    return CoxeterGraph(base.rank, base.edges + edges)


def nominate(family: Family, level1: list[CoxeterGraph], ranks=None) -> Iterator[CoxeterGraph]:
    """Candidate graphs of one family, in nomination order; no level filtering.

    Every labeling of each batch's free pairs, in itertools.product order
    over ADMISSIBLE_LABELS.  With `ranks`, only the batches whose rank is in
    it are expanded.
    """
    for base, pairs in _nomination_batches(family, level1):
        if ranks is None or base.rank in ranks:
            for codes in product(range(len(ADMISSIBLE_LABELS)), repeat=len(pairs)):
                yield labeled(base, pairs, codes)


def minors_pass(grams: np.ndarray, k: int, tol: float, finite: bool = False) -> np.ndarray:
    """Mask of the stacked Gram matrices whose every k-vertex deletion passes.

    A minor passes at minimum eigenvalue >= -tol, or with finite=True > tol.
    """
    n = grams.shape[-1]
    alive = np.arange(len(grams))
    for keep in combinations(range(n), n - k):
        if not alive.size:
            break
        idx = np.array(keep)
        low = np.linalg.eigvalsh(grams[alive[:, None, None], idx[:, None], idx])[:, 0]
        alive = alive[low > tol if finite else low >= -tol]
    mask = np.zeros(len(grams), dtype=bool)
    mask[alive] = True
    return mask


def pivots_positive(stack: np.ndarray, shift: float) -> np.ndarray:
    """Mask of the matrices A in the (m, n, n) stack whose A - shift*I has a
    Cholesky factorization with every pivot positive, each pivot step taken
    on strided (m, n, n) slices."""
    n = stack.shape[-1]
    ok = np.ones(len(stack), dtype=bool)
    s = stack - shift * np.eye(n)
    for _ in range(n):
        pivot = s[:, 0, 0]
        ok &= pivot > 0
        col = s[:, 1:, :1] / np.sqrt(np.where(ok, pivot, np.inf))[:, None, None]
        outer = col * col.transpose(0, 2, 1)
        s = np.subtract(s[:, 1:, 1:], outer, out=outer)
    return ok


def filter_level2_arrays(grams: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the stacked Gram matrices that belong to level-2 graphs."""
    alive = np.arange(grams.shape[0])
    # the full matrix must fail positive semidefiniteness
    alive = alive[~minors_pass(grams, 0, tol)]
    # so must some single-vertex deletion
    alive = alive[~minors_pass(grams[alive], 1, tol)]
    # and every two-vertex deletion must pass it
    return alive[minors_pass(grams[alive], 2, tol)]


def filter_level2(graphs: list[CoxeterGraph], tol: float) -> list[CoxeterGraph]:
    """The level-2 graphs of a list, in list order, by filter_level2_arrays."""
    keep: list[int] = []
    for n in sorted({g.rank for g in graphs}):
        idxs = [i for i, g in enumerate(graphs) if g.rank == n]
        rows = filter_level2_arrays(np.stack([graphs[i].gram for i in idxs]), tol)
        keep.extend(idxs[row] for row in rows)
    keep.sort()
    return [graphs[i] for i in keep]



def canonical_key(g: CoxeterGraph) -> bytes:
    """Deterministic byte string; equal exactly for isomorphic labeled graphs."""
    n = g.rank
    tok = [[_NO_EDGE] * n for _ in range(n)]
    for u, v, lab in g.edges:
        t = lab.token()
        tok[u][v] = t
        tok[v][u] = t

    if n == 1:
        return b"1:"

    def refine(colors: list[int]) -> list[int]:
        while True:
            sigs = []
            for v in range(n):
                row = sorted((tok[v][u], colors[u]) for u in range(n) if u != v)
                sigs.append((colors[v], tuple(row)))
            order = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [order[s] for s in sigs]
            if new == colors:
                return colors
            colors = new

    def encode(perm: list[int]) -> tuple:
        return tuple(
            tok[perm[i]][perm[j]] for i in range(n) for j in range(i + 1, n)
        )

    best: dict = {"enc": None, "perm": None}
    autos: list[list[int]] = []

    def same_orbit(v: int, tried: list[int], fixed: tuple[int, ...]) -> bool:
        usable = [p for p in autos if all(p[f] == f for f in fixed)]
        if not usable:
            return False
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in usable:
            for a in range(n):
                ra, rb = find(a), find(p[a])
                if ra != rb:
                    parent[ra] = rb
        rv = find(v)
        return any(find(u) == rv for u in tried)

    def search(colors: list[int], fixed: tuple[int, ...]):
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            perm = [v for _, v in sorted((colors[v], v) for v in range(n))]
            enc = encode(perm)
            if best["enc"] is None or enc < best["enc"]:
                best["enc"] = enc
                best["perm"] = perm
            elif enc == best["enc"] and perm != best["perm"]:
                auto = [0] * n
                for i in range(n):
                    auto[best["perm"][i]] = perm[i]
                autos.append(auto)
            return
        tried: list[int] = []
        for v in target:
            if same_orbit(v, tried, fixed):
                continue
            tried.append(v)
            split = [2 * c + 1 for c in colors]
            split[v] = 2 * colors[v]
            search(refine(split), fixed + (v,))

    search(refine([0] * n), ())

    parts = []
    for t in best["enc"]:
        if t == _NO_EDGE:
            parts.append("-")
        elif t[0] == 0:
            parts.append(f"m{int(t[1])}")
        else:
            parts.append(f"i{t[1]!r}")
    return f"{n}:".encode() + "|".join(parts).encode()

