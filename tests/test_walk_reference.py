"""The orbit walk and the descents against reference_walk, bit for bit.

Each library call of `_walk`, `_zero_tol` and `_descent_words` is recorded
and replayed through the reference code on three sets: the roots and
weights of the four acceptance limit systems at the benchmark's depths,
the walk of rho behind `chambers_up_to_length`, and the vertex and edge
walks of `tangency_graph` on one census graph per rank.
"""

import copy

import numpy as np
import pytest

import coxpack as cp
import reference_walk as ref
from coxpack import orbits, tangency

# name -> (compact graph, root depth, weight length), as the orbits benchmark walks them
LIMIT_SYSTEMS = {
    "universal4": ("n=4; 0-1:inf 0-2:inf 0-3:inf 1-2:inf 1-3:inf 2-3:inf", 7, 6),
    "complete4": ("n=4; 0-1:4 0-2:4 0-3:4 1-2:4 1-3:4 2-3:4", 8, 6),
    "cycle5": ("n=5; 0-1:4 0-4:4 1-2:4 2-3:4 3-4:4", 9, 7),
    "star": ("n=4; 0-3:inf 1-3:inf 2-3:inf", 10, 8),
}


def _recorded(monkeypatch, module, name) -> list:
    """Wrap module.name; each call appends (args, kwargs, result) to the returned list.

    The arguments are copied first: the walk updates endpoint arrays in place.
    """
    calls, fn = [], getattr(module, name)

    def spy(*args, **kwargs):
        call = copy.deepcopy((args, kwargs))
        calls.append((*call, fn(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(module, name, spy)
    return calls


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _assert_walks(walks, tols, b):
    """Every recorded walk and zero bound equals the reference's."""
    assert walks and tols
    for args, kwargs, out in walks:
        _assert_bitwise(out, ref._walk(*args, **kwargs))
    for (vectors, _), _, out in tols:
        _assert_bitwise([out], [ref._zero_tol(vectors, b)])


@pytest.mark.parametrize("name", [*sorted(LIMIT_SYSTEMS), "fig1b"])
def test_orbit_walks_match_reference(monkeypatch, name, request):
    """fig1b's dotted bond makes max|B| = 1.1: a bound's product order shows in its bits."""
    if name == "fig1b":
        g, depth, length = request.getfixturevalue(name), 7, 5
    else:
        text, depth, length = LIMIT_SYSTEMS[name]
        g = cp.parse_compact(text)
    walks = _recorded(monkeypatch, orbits, "_walk")
    tols = _recorded(monkeypatch, orbits, "_zero_tol")
    orbits._root_columns(g, depth)
    orbits._weight_columns(g, length)
    assert len(walks) == 2
    _assert_walks(walks, tols, g.gram)


@pytest.mark.parametrize("name", ["universal4", "fig1a"])
def test_chamber_walk_and_descent_match_reference(monkeypatch, name, request):
    g = request.getfixturevalue(name)
    walks = _recorded(monkeypatch, tangency, "_walk")
    tols = _recorded(monkeypatch, orbits, "_zero_tol")
    descents = _recorded(monkeypatch, tangency, "_descent_words")
    cx = tangency.chambers_up_to_length(g, 4)
    _assert_walks(walks, tols, g.gram)
    # one descent of the vertices, the chambers and the chambers below them
    ((b, vectors, steps), _, words), = descents
    cut, end = len(cx.chambers) * g.rank, len(cx.chambers) * (g.rank + 1)
    parts = vectors[:cut], vectors[cut:end], vectors[end:]
    _assert_bitwise([words], [np.concatenate([ref._descent_words(b, p, steps) for p in parts])])


def test_tangency_walks_and_keys_match_reference(monkeypatch, census_sorted):
    graphs = list({e.rank: e.graph for e in reversed(census_sorted)}.values())
    assert sorted(g.rank for g in graphs) == list(range(5, 12))
    for g in graphs:
        with monkeypatch.context() as m:
            walks = _recorded(m, tangency, "_walk")
            tols = _recorded(m, orbits, "_zero_tol")
            keys = _recorded(m, tangency, "_vertex_keys")
            descents = _recorded(m, tangency, "_descent_words")
            tg = tangency.tangency_graph(g, 5)
        assert len(walks) == 2 and len(walks[1][2][0])  # vertex walk, then a nonempty edge walk
        _assert_walks(walks, tols, g.gram)
        # the merged call keys the vertices, then the edge endpoints
        ((b, vectors, steps), _, _), = descents
        ((colors, _), _, merged), = keys
        nv = len(tg.vertices)
        separate = [
            tangency._vertex_keys(colors[part], ref._descent_words(b, vectors[part], steps))
            for part in (slice(None, nv), slice(nv, None))
        ]
        assert merged == separate[0] + separate[1]
