"""`coxpack roots`, `weights` and `pack` write the reference documents' bytes.

The reference builders (reference_docs.py) make one dict per record and call
json.dumps(doc, indent=1); the command line fills a record template from
columns.  The two must agree byte for byte.
"""

import functools
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxpack as cp
import reference_docs as ref
from coxpack import cli
from coxpack.balls import _check_caps, project_packing
from coxpack.cli import _FloatTexts, _int_texts, _list_texts, _write_records, main

# The acceptance limit systems at the benchmark's roots depth, weights length
# and pack length.
SYSTEMS = {
    "universal4": ("n=4; 0-1:inf 0-2:inf 0-3:inf 1-2:inf 1-3:inf 2-3:inf", 7, 6, 6),
    "complete4": ("n=4; 0-1:4 0-2:4 0-3:4 1-2:4 1-3:4 2-3:4", 8, 6, 6),
    "cycle5": ("n=5; 0-1:4 0-4:4 1-2:4 2-3:4 3-4:4", 9, 7, 7),
    "star": ("n=4; 0-3:inf 1-3:inf 2-3:inf", 10, 8, 8),
}
# Its weights of length 1 include one of zero height, at infinity.
ZERO_HEIGHT = "n=5; 0-1:3 0-2:3 0-3:3 0-4:3 1-2:3 1-3:3 2-3:3"
# The (2, 3, 7) triangle group: compact hyperbolic, so no space-like weight.
NO_BALLS = "n=3; 0-1:3 1-2:7"


def relabel(g, seed: int = 1):
    perm = list(range(g.rank))
    random.Random(seed).shuffle(perm)
    return cp.CoxeterGraph(g.rank, tuple((perm[u], perm[v], lab) for u, v, lab in g.edges))


def same_text(got: str, want: str) -> bool:
    """got == want, else an AssertionError naming the first differing line.

    pytest's own diff of two megabyte documents takes minutes.
    """
    if got != want:
        a, b = got.splitlines(), want.splitlines()
        i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        raise AssertionError(f"line {i + 1}: got {a[i:i + 1]}, want {b[i:i + 1]}")
    return True


def cli_text(tmp_path, g, argv) -> str:
    graph = tmp_path / "graph.txt"
    graph.write_text(cp.to_compact(g) + "\n")
    out = tmp_path / "out"
    assert main([argv[0], str(graph), *argv[1:], "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("relabeled", [False, True], ids=["plain", "relabeled"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_acceptance_systems_match_reference(tmp_path, name, relabeled):
    text, depth, wlen, plen = SYSTEMS[name]
    g = cp.parse_compact(text)
    if relabeled:
        g = relabel(g)
    for argv, want in (
        (["roots", "--depth", str(depth)], ref.roots_text(g, depth)),
        (["weights", "--length", str(wlen)], ref.weights_text(g, wlen)),
        (["pack", "--length", str(plen)], ref.pack_text(g, plen)),
    ):
        assert same_text(cli_text(tmp_path, g, argv), want)


@pytest.mark.parametrize("relabeled", [False, True], ids=["plain", "relabeled"])
def test_pack_svg_matches_reference(tmp_path, relabeled):
    g = cp.parse_compact(SYSTEMS["complete4"][0])
    if relabeled:
        g = relabel(g)
    got = cli_text(tmp_path, g, ["pack", "--length", "6", "--format", "svg"])
    assert same_text(got, ref.pack_text(g, 6, fmt="svg"))


def test_finite_path_roots(tmp_path):
    g = cp.path_graph([3, 3])
    got = cli_text(tmp_path, g, ["roots", "--depth", "9"])
    assert json.loads(got)["count"] == 6
    assert same_text(got, ref.roots_text(g, 9))
    g = cp.path_graph([3])
    assert same_text(cli_text(tmp_path, g, ["roots", "--depth", "9"]), ref.roots_text(g, 9))


def test_zero_height_weights_read_null(tmp_path):
    g = cp.parse_compact(ZERO_HEIGHT)
    got = cli_text(tmp_path, g, ["weights", "--length", "4"])
    assert any(r["projective"] is None for r in json.loads(got)["records"])
    assert same_text(got, ref.weights_text(g, 4))
    assert same_text(cli_text(tmp_path, g, ["roots", "--depth", "5"]), ref.roots_text(g, 5))
    assert same_text(cli_text(tmp_path, g, ["pack", "--length", "4"]), ref.pack_text(g, 4))


def test_halfspace_rows_match_reference(tmp_path, monkeypatch):
    # A wide pole-gap tolerance turns the caps whose boundary passes near
    # the pole into half-spaces.
    monkeypatch.setattr(cp.balls, "_ALGEBRAIC_TOL", 0.2)
    g = cp.parse_compact(SYSTEMS["cycle5"][0])
    got = cli_text(tmp_path, g, ["pack", "--length", "4"])
    rows = json.loads(got)["balls"]
    half = [r for r in rows if "halfspace_offset" in r]
    assert half and len(half) < len(rows)
    assert all(r["curvature"] == 0.0 for r in half)
    assert same_text(got, ref.pack_text(g, 4))


def test_pack_without_balls(tmp_path):
    g = cp.parse_compact(NO_BALLS)
    got = cli_text(tmp_path, g, ["pack", "--length", "4"])
    assert json.loads(got)["balls"] == []
    assert same_text(got, ref.pack_text(g, 4))


# -- the block writer: the bytes do not depend on the block size -----------

BLOCKS = [1, 3, cli._BLOCK_ROWS]


@functools.cache
def reference_texts(name: str) -> dict[tuple[str, ...], str]:
    """The reference document of each of roots, weights and pack on an acceptance system."""
    text, depth, wlen, plen = SYSTEMS[name]
    g = cp.parse_compact(text)
    return {
        ("roots", "--depth", str(depth)): ref.roots_text(g, depth),
        ("weights", "--length", str(wlen)): ref.weights_text(g, wlen),
        ("pack", "--length", str(plen)): ref.pack_text(g, plen),
    }


@pytest.mark.parametrize("block_rows", BLOCKS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_bytes_do_not_depend_on_the_block(tmp_path, capsys, monkeypatch, name, block_rows):
    """Each document through --out and through stdout.  One-row blocks pay the
    writer's per-block cost on every row, so they write to stdout only;
    test_edge_documents_do_not_depend_on_the_block writes them through --out."""
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    g = cp.parse_compact(SYSTEMS[name][0])
    graph = tmp_path / "graph.txt"
    graph.write_text(cp.to_compact(g) + "\n")
    for argv, want in reference_texts(name).items():
        if block_rows > 1:
            assert same_text(cli_text(tmp_path, g, list(argv)), want)
        capsys.readouterr()
        assert main([argv[0], str(graph), *argv[1:]]) == 0
        assert same_text(capsys.readouterr().out, want)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 6, cli._BLOCK_ROWS])
def test_edge_documents_do_not_depend_on_the_block(tmp_path, monkeypatch, block_rows):
    """Null projective rows, half-space rows, no balls, and 6 records: a multiple of 1, 2, 3, 6."""
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    g = cp.path_graph([3, 3])
    got = cli_text(tmp_path, g, ["roots", "--depth", "9"])
    assert json.loads(got)["count"] == 6
    assert same_text(got, ref.roots_text(g, 9))
    g = cp.parse_compact(ZERO_HEIGHT)
    assert same_text(cli_text(tmp_path, g, ["weights", "--length", "4"]), ref.weights_text(g, 4))
    g = cp.parse_compact(NO_BALLS)
    assert same_text(cli_text(tmp_path, g, ["pack", "--length", "4"]), ref.pack_text(g, 4))
    # half-spaces, as in test_halfspace_rows_match_reference
    monkeypatch.setattr(cp.balls, "_ALGEBRAIC_TOL", 0.2)
    g = cp.parse_compact(SYSTEMS["cycle5"][0])
    got = cli_text(tmp_path, g, ["pack", "--length", "4"])
    assert '"halfspace_offset"' in got
    assert same_text(got, ref.pack_text(g, 4))


def test_roots_peak_memory_is_below_its_output(tmp_path, universal4):
    """The writer holds one block of texts at a time, not the document.

    Writing the whole document at once peaked at about 5 times its size.
    """
    graph = tmp_path / "graph.txt"
    graph.write_text(cp.to_compact(universal4) + "\n")
    out = tmp_path / "roots.json"
    tracemalloc.start()
    try:
        assert main(["roots", str(graph), "--depth", "9", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 8_000_000
    assert peak < out.stat().st_size


def test_float_texts_keep_a_bounded_table(monkeypatch):
    floats = _FloatTexts()
    values = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e22, 0.1]
    assert floats(values) == [json.dumps(v) for v in values]
    assert len(floats.bits) == 7 and np.all(floats.bits[:-1] < floats.bits[1:])
    floats.texts[np.searchsorted(floats.bits, np.float64(1e22).view(np.uint64))] = "kept"
    assert floats(np.array([[1e22], [2.5]])) == ["kept", "2.5"]
    assert len(floats.bits) == 8
    monkeypatch.setattr(cli, "_TABLE_SIZE", 9)
    assert floats([1e22, 3.5]) == ["1e+22", "3.5"]  # the table starts afresh first
    assert floats.texts.tolist() == ["3.5", "1e+22"]


@pytest.mark.parametrize("cmd", ["roots", "weights", "pack"])
def test_record_cap_counts_every_record(tmp_path, capsys, universal4, cmd):
    flag = ["--depth", "4"] if cmd == "roots" else ["--length", "3"]
    counted = "weights" if cmd == "pack" else cmd
    total = json.loads(cli_text(tmp_path, universal4, [counted, *flag]))["count"]
    graph = str(tmp_path / "graph.txt")
    assert main([cmd, graph, *flag, "--max-records", str(total)]) == 0
    assert main([cmd, graph, *flag, "--max-records", str(total - 1)]) == 5
    assert f"record cap of {total - 1}" in capsys.readouterr().err


# -- the writer against json.dumps ------------------------------------------


def dump_records(head: dict, key: str, columns: dict, block_rows: int = cli._BLOCK_ROWS) -> str:
    """_write_records' text for records given as whole columns, block_rows at a time."""
    parts: list[str] = []
    count = len(next(iter(columns.values()), []))
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        _write_records(
            parts.append, head, key, count, lambda rows: {k: v[rows] for k, v in columns.items()}
        )
    return "".join(parts)


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e22, 0.1, -2.5e-8]
floats = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False, width=64).map(np.float64),
)
ascii_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
scalars = st.one_of(floats, st.integers(-10**12, 10**12), st.booleans(), st.none(), ascii_text)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(ascii_text, inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def record_docs(draw):
    """A head of any JSON values and records shaped like the orbit commands' rows."""
    head = draw(st.dictionaries(ascii_text.filter(lambda k: k != "rows"), values, max_size=5))
    n = draw(st.integers(0, 6))
    width = draw(st.integers(0, 3))
    rows = [
        {
            "coords": [draw(floats) for _ in range(width)],
            "depth": draw(st.integers(-5, 10**6)),
            "norm": draw(floats),
            "class": draw(st.sampled_from(["space_like", "time_like", "light_like"])),
            "projective": draw(st.none() | st.just([draw(floats) for _ in range(width)])),
            "halfspace_offset": draw(st.none() | floats),
        }
        for _ in range(n)
    ]
    return head, rows, width


def _columns(rows, width):
    coords = np.array([r["coords"] for r in rows], dtype=float).reshape(len(rows), width)
    projective = np.array(
        [[0.0] * width if r["projective"] is None else r["projective"] for r in rows],
        dtype=float,
    ).reshape(len(rows), width)
    table = _FloatTexts()  # shared by the columns, to check texts kept across calls
    proj_texts = _list_texts(projective, table)
    offsets = [r["halfspace_offset"] for r in rows]
    offset_texts = table([0.0 if v is None else v for v in offsets])
    return {
        "coords": _list_texts(coords, table),
        "depth": _int_texts([r["depth"] for r in rows]),
        "norm": table([r["norm"] for r in rows]),
        "class": [json.dumps(r["class"]) for r in rows],
        "projective": [
            "null" if r["projective"] is None else t for r, t in zip(rows, proj_texts)
        ],
        "halfspace_offset": [None if v is None else t for v, t in zip(offsets, offset_texts)],
    }


@settings(max_examples=200, deadline=None)
@given(record_docs(), st.integers(1, 7))
def test_writer_matches_json_dumps(doc, block_rows):
    head, rows, width = doc
    want_rows = [
        {k: v for k, v in r.items() if k != "halfspace_offset" or v is not None} for r in rows
    ]
    want = json.dumps({**head, "rows": want_rows}, indent=1) + "\n"
    assert dump_records(head, "rows", _columns(rows, width), block_rows) == want


def test_writer_special_floats_and_halfspace_row():
    head = {"nested": {"a": [math.nan, -0.0, np.float64(0.1)], "b": {}, "c": []}, "flag": True}
    rows = [
        {"coords": [math.inf, -math.inf, 1e-300], "depth": 1, "norm": np.float64(1e22),
         "class": "space_like", "projective": None, "halfspace_offset": None},
        {"coords": [-0.0, math.nan, 0.1], "depth": 2, "norm": -0.0,
         "class": "time_like", "projective": [1.0, 2.0, 3.0], "halfspace_offset": 0.25},
    ]
    text = dump_records(head, "rows", _columns(rows, 3))
    assert dump_records(head, "rows", _columns(rows, 3), block_rows=1) == text
    want_rows = [dict(rows[0]), rows[1]]
    del want_rows[0]["halfspace_offset"]
    assert text == json.dumps({**head, "rows": want_rows}, indent=1) + "\n"
    assert '"halfspace_offset": 0.25' in text and "NaN" in text and "-Infinity" in text


def test_writer_zero_records():
    head = {"graph": "n=1", "count": 0}
    assert dump_records(head, "records", {"coords": [], "depth": []}) == (
        json.dumps({**head, "records": []}, indent=1) + "\n"
    )


# -- the batched ball arithmetic against one cap at a time --------------------


def _same_ball(got, want):
    assert got.curvature == want.curvature
    assert got.curvature_center.tobytes() == want.curvature_center.tobytes()
    assert got.halfspace_offset == want.halfspace_offset


def test_caps_and_balls_match_one_cap_at_a_time(five_cycle):
    b = five_cycle.gram
    frame = cp.lorentz_frame(b)
    ws = [w for w in cp.weights_up_to_length(five_cycle, 4) if w.klass.value == "space_like"]
    for w in ws:
        got, want = cp.cap_of(w.vector, frame, b), ref.cap_of(w.vector, frame, b)
        assert got.center.tobytes() == want.center.tobytes()
        assert got.angular_radius == want.angular_radius
        for pole in range(got.center.size):
            _same_ball(cp.stereographic(got, pole), ref.stereographic(want, pole))


def test_packing_rotation_matches_one_cap_at_a_time():
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(40, 3))
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    caps = [cp.SphericalCap(c, r) for c, r in zip(centers, rng.uniform(0.05, 3.0, 40))]
    r = 0.9  # boundary through the pole: the frame is nudged
    caps.append(cp.SphericalCap(np.array([math.sin(r), 0.0, math.cos(r)]), r))
    balls, used, rot = project_packing(caps)
    want_balls, want_used, want_rot = ref.project_packing(caps)
    assert rot.tobytes() == want_rot.tobytes() and not np.array_equal(rot, np.eye(3))
    for got, want in zip(used, want_used):
        assert got.center.tobytes() == want.center.tobytes()
    for got, want in zip(balls, want_balls, strict=True):
        _same_ball(got, want)


def test_cap_checks_decide_as_spherical_cap():
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(400, 4))
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    # |center| - 1 at +-1e-12 give or take the last bits: the check's own bound
    centers *= 1.0 + np.where(np.arange(len(centers)) % 2, 1e-12, -1e-12)[:, None]
    unit = []
    for c in centers:
        try:
            cp.SphericalCap(c, 1.0)
        except ValueError:
            unit.append(False)
        else:
            unit.append(True)
    unit = np.array(unit)
    assert unit.any() and not unit.all()
    _check_caps(centers[unit], np.ones(unit.sum()))
    for c in centers[~unit]:
        with pytest.raises(ValueError, match="unit vector"):
            _check_caps(np.vstack([centers[unit], c]), np.ones(unit.sum() + 1))


@pytest.mark.parametrize("name", ["universal4", "cycle5"])
def test_record_lists_match_per_layer_reference(name):
    g = cp.parse_compact(SYSTEMS[name][0])
    for got, want in (
        (cp.roots_up_to_depth(g, 6), ref.roots(g, 6)),
        (cp.weights_up_to_length(g, 5), ref.weights(g, 5)),
    ):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.vector.tobytes() == b.vector.tobytes()
            assert [v for k, v in vars(a).items() if k != "vector"] == [
                v for k, v in vars(b).items() if k != "vector"
            ]


def test_halfspace_ball_matches_one_cap_at_a_time():
    r = 1.1
    cap = cp.SphericalCap(np.array([math.sin(r), 0.0, math.cos(r)]), r)
    ball = cp.stereographic(cap, pole_axis=2)
    assert ball.is_halfspace
    _same_ball(ball, ref.stereographic(cap, 2))
