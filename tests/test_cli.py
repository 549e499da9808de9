import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coxpack as cp
from coxpack.cli import build_parser, main


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="graph.json"):
        path = tmp_path / name
        path.write_text(cp.serialize_graph(g))
        return str(path)

    return write


def run(capsys, argv):
    """Exit code, stdout and stderr of the command line; argparse's usage errors exit 2."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_fig1a(graph_file, capsys, fig1a):
    code, out, _ = run(capsys, ["classify", graph_file(fig1a)])
    assert code == 0
    assert "type: lorentzian" in out
    assert "level: 2" in out
    assert "strict: true" in out


def test_classify_fig1b(graph_file, capsys, fig1b):
    code, out, _ = run(capsys, ["classify", graph_file(fig1b)])
    assert code == 0
    assert "type: lorentzian" in out and "level: 3" in out


def test_classify_finite_path(graph_file, capsys):
    code, out, _ = run(capsys, ["classify", graph_file(cp.path_graph([3, 3]))])
    assert code == 0
    assert "type: finite" in out and "level: 0" in out


def test_classify_json_format(graph_file, capsys, five_cycle):
    code, out, _ = run(capsys, ["classify", graph_file(five_cycle), "--format", "json"])
    doc = json.loads(out)
    assert doc["level"] == 2 and doc["type"] == "lorentzian"
    assert len(doc["weights"]) == 5


def test_classify_accepts_compact(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("n=4; 0-1:4 0-2:4 0-3:4 1-2:4 1-3:4 2-3:4")
    code, out, _ = run(capsys, ["classify", str(path)])
    assert code == 0 and "level: 2" in out


def test_classify_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rank": 3, "edges": [{"u": 0, "v": 0, "m": 3}]}')
    code, _, err = run(capsys, ["classify", str(path)])
    assert code == 2 and "parse error" in err
    code, _, _ = run(capsys, ["classify", str(tmp_path / "missing.json")])
    assert code == 2


def test_unwritable_output_is_usage_error(graph_file, capsys, tmp_path, fig1a):
    """An output path in a missing directory exits 2 with one line, like an unreadable input."""
    bad = tmp_path / "missing" / "x.txt"
    code, _, err = run(capsys, ["classify", graph_file(fig1a), "--out", str(bad)])
    assert code == 2 and err.startswith(f"error: cannot write {bad}: ")
    assert not bad.parent.exists()


def test_enum_checks_its_outputs_before_the_census(capsys, tmp_path, monkeypatch):
    """An unwritable --out or --json exits 2 before the census runs, and creates neither file."""
    from coxpack import census

    def no_census(**_):
        raise AssertionError("the census ran")

    monkeypatch.setattr(census, "enumerate_level2", no_census)
    bad = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, ["enum", "--out", str(bad)])
    assert code == 2 and err.startswith(f"error: cannot write {bad}: ") and not out
    good = tmp_path / "ok.csv"
    bad = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["enum", "--out", str(good), "--json", str(bad)])
    assert code == 2 and err.startswith(f"error: cannot write {bad}: ") and not out
    assert not good.exists() and not bad.parent.exists()
    good.write_text("kept")
    code, _, _ = run(capsys, ["enum", "--out", str(good), "--json", str(bad)])
    assert code == 2 and good.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.csv"]


def _entry(g, key=b"k"):
    from coxpack import census

    return census.CensusEntry(g, key, census.Family.CYCLE, False, 0, g.rank, 0)


@pytest.mark.parametrize(
    "entries, message",
    [
        (
            [_entry(cp.cycle_graph([4] * 5)), _entry(cp.cycle_graph([5] * 5))],
            "duplicate canonical keys",
        ),
        ([_entry(cp.cycle_graph([4] * 4))], "rank 4 outside 5..6"),
        ([_entry(cp.cycle_graph([4] * 7))], "rank 7 outside 5..6"),
        ([_entry(cp.cycle_graph([4, 4, 4, 4, 7]))], "label outside {3,4,5,6}"),
    ],
    ids=["duplicate key", "rank below 5", "rank above max", "label 7"],
)
def test_enum_rechecks_census_invariants(capsys, tmp_path, monkeypatch, entries, message):
    """A census that breaks an invariant exits 7 and writes no CSV."""
    from coxpack import census

    monkeypatch.setattr(census, "enumerate_level2", lambda **_: entries)
    out = tmp_path / "census.csv"
    code, stdout, err = run(capsys, ["enum", "--max-rank", "6", "--out", str(out)])
    assert code == 7 and not stdout
    assert err == f"invariant failure: {message}\n"
    assert not out.exists()


def test_classify_singular_form(graph_file, capsys):
    """An affine form has no fundamental weights: text and JSON say so."""
    affine = graph_file(cp.cycle_graph([3, 3, 3]))  # A~2
    code, out, _ = run(capsys, ["classify", affine])
    assert code == 0 and "type: affine" in out
    assert out.endswith("weights: undefined (singular form)\n")
    code, out, _ = run(capsys, ["classify", affine, "--format", "json"])
    doc = json.loads(out)
    assert code == 0 and doc["type"] == "affine" and doc["weights"] is None
    assert '"weights": null' in out


def test_cached_parser_runs_a_replaced_command(graph_file, capsys, monkeypatch, universal4):
    """main builds its parser once, and finds cmd_<command> in the module at each call."""
    from coxpack import cli

    path = graph_file(universal4)
    code, out, _ = run(capsys, ["roots", path, "--depth", "2"])
    assert code == 0 and json.loads(out)["count"] == 16
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_roots", lambda args: seen.append(args.depth) or 0)
    assert run(capsys, ["roots", path, "--depth", "3"]) == (0, "", "")
    assert seen == [3]


def test_usage_error_leaves_no_state_in_the_parser(graph_file, capsys, universal4):
    """After usage errors, the cached parser reads a command line as a new parser does."""
    from coxpack import cli

    path = graph_file(universal4)
    for bad in (
        ["pack", path, "--length", "x", "--format", "svg", "--canvas", "9"],
        ["pack", path, "--length", "2", "--format", "png"],
        ["roots", path, "--depth", "0", "--max-records", "4"],
    ):
        code, out, err = run(capsys, bad)
        assert code == 2 and not out and "usage:" in err
    good = ["pack", path, "--length", "2"]
    got = cli.build_parser().parse_args(good)
    assert vars(got) == vars(cli.build_parser.__wrapped__().parse_args(good))
    assert got.format == "json" and got.canvas == 800 and got.max_records is None
    code, out, _ = run(capsys, good)
    assert code == 0 and json.loads(out)["balls"]


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--depth", "11"],
        ["weights", "--length", "9"],
        ["pack", "--length", "9"],
        ["pack", "--length", "9", "--format", "svg"],
        ["tangency", "--length", "5"],
        ["classify"],
    ],
    ids=lambda argv: "-".join(argv[::2]),
)
def test_unwritable_output_exits_before_the_work(
    graph_file, capsys, tmp_path, monkeypatch, universal4, argv
):
    """An unwritable --out exits 2 before the walk or any other work, and creates no file."""
    from coxpack import cli

    def no_work(*_, **__):
        raise AssertionError("the command ran")

    for name in ("_root_columns", "_weight_columns", "tangency_graph", "signature"):
        monkeypatch.setattr(cli, name, no_work)
    bad = tmp_path / "missing" / "x.json"
    argv = [argv[0], graph_file(universal4), *argv[1:], "--out"]
    code, out, err = run(capsys, [*argv, str(bad)])
    assert code == 2 and err.startswith(f"error: cannot write {bad}: ") and not out
    assert not bad.parent.exists()
    code, _, err = run(capsys, [*argv, str(tmp_path)])
    assert code == 2 and err.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("cmd", ["roots", "weights", "pack"])
def test_failed_orbit_command_leaves_no_file(graph_file, capsys, tmp_path, universal4, cmd):
    out = tmp_path / "x.json"
    flag = ["--depth", "8"] if cmd == "roots" else ["--length", "6"]
    argv = [cmd, graph_file(universal4), *flag, "--max-records", "20", "--out", str(out)]
    code, _, err = run(capsys, argv)
    assert code == 5 and "cap" in err
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_error_mid_stream_is_usage_error(graph_file, capsys, universal4):
    """A write that fails after the first blocks (no space left) still exits 2."""
    code, out, err = run(
        capsys, ["roots", graph_file(universal4), "--depth", "6", "--out", "/dev/full"]
    )
    assert code == 2 and err.startswith("error: cannot write /dev/full: ") and not out


def test_roots_finite(graph_file, capsys):
    code, out, _ = run(capsys, ["roots", graph_file(cp.path_graph([3])), "--depth", "9"])
    doc = json.loads(out)
    assert doc["count"] == 3
    assert code == 0


def test_roots_cap_exceeded(graph_file, capsys, universal4):
    code, _, err = run(
        capsys,
        ["roots", graph_file(universal4), "--depth", "8", "--max-records", "20"],
    )
    assert code == 5 and "cap" in err


def test_weights_output(graph_file, capsys, star_inf):
    code, out, _ = run(capsys, ["weights", graph_file(star_inf), "--length", "3"])
    doc = json.loads(out)
    assert doc["count"] > 4
    classes = {r["class"] for r in doc["records"]}
    assert classes <= {"space_like", "time_like", "light_like"}
    assert code == 0


def test_pack_json(graph_file, capsys, universal4):
    code, out, _ = run(capsys, ["pack", graph_file(universal4), "--length", "3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["validation"]["is_packing"] is True
    assert doc["validation"]["min_separation"] == pytest.approx(1.0, abs=1e-9)
    ball = doc["balls"][0]
    assert set(ball) >= {"color", "word_length", "cap_center", "cap_radius",
                         "curvature", "curvature_center"}
    frame = np.array(doc["frame"])
    b = universal4.gram
    target = np.diag([1.0, 1.0, 1.0, -1.0])
    assert np.abs(frame.T @ b @ frame - target).max() <= 1e-9


def test_pack_svg_rank4_only(graph_file, capsys, five_cycle):
    code, _, err = run(
        capsys, ["pack", graph_file(five_cycle), "--length", "2", "--format", "svg"]
    )
    assert code == 4


def test_pack_svg_deterministic(graph_file, tmp_path, capsys, universal4):
    gf = graph_file(universal4)
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert main(["pack", gf, "--length", "4", "--format", "svg", "--out", str(out1)]) == 0
    assert main(["pack", gf, "--length", "4", "--format", "svg", "--out", str(out2)]) == 0
    svg = out1.read_bytes()
    assert svg == out2.read_bytes()
    assert svg.startswith(b"<?xml") and b"<circle" in svg
    assert b"is_packing=true" in svg


def test_tangency_level3_exits_6(graph_file, capsys, fig1b):
    code, _, err = run(capsys, ["tangency", graph_file(fig1b), "--length", "2"])
    assert code == 6


def test_tangency_universal(graph_file, capsys, universal4):
    code, out, _ = run(capsys, ["tangency", graph_file(universal4), "--length", "2"])
    doc = json.loads(out)
    assert code == 0
    assert doc["oracle_agrees"] is True
    fund = [v["id"] for v in doc["vertices"] if v["word_length"] == 0]
    edges = {(e["u"], e["v"]) for e in doc["edges"]}
    among_fund = [e for e in edges if e[0] in fund and e[1] in fund]
    assert len(among_fund) == 6


def test_tangency_edge_format(graph_file, capsys):
    g = cp.load_graph("n=5; 0-1:3 0-2:4 2-3:4 3-4:3")
    code, out, _ = run(capsys, ["tangency", graph_file(g), "--length", "3", "--format", "edges"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("# oracle_agrees=")
    for line in lines[:-1]:
        u, v, tag = line.split()
        assert tag in ("real", "surreal")


def test_tangency_cap_exceeded(graph_file, capsys):
    g = cp.load_graph("n=5; 0-1:3 0-2:4 2-3:4 3-4:3")
    argv = ["tangency", graph_file(g), "--length", "4", "--max-records", "2"]
    code, _, err = run(capsys, argv)
    assert code == 5 and "cap" in err


def test_enum_rank5(tmp_path, capsys):
    out_csv = tmp_path / "census.csv"
    out_json = tmp_path / "census.json"
    code, out, _ = run(
        capsys,
        ["enum", "--max-rank", "5", "--out", str(out_csv), "--json", str(out_json)],
    )
    assert code == 0
    assert "total=189" in out
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "key,rank,family,strict,n_imaginary,n_real,n_surreal,edge_list"
    assert len(rows) == 190
    mirror = json.loads(out_json.read_text())
    assert len(mirror) == 189
    # round-trip the stored edge lists
    for row in mirror[:20]:
        g = cp.parse_compact(row["edge_list"])
        assert cp.level(g) == 2
        assert cp.canonical_key(g).decode("ascii") == row["key"]


def test_weights_singular_exits_2(graph_file, capsys):
    affine = cp.cycle_graph([3, 3, 3])
    code, _, err = run(capsys, ["weights", graph_file(affine), "--length", "2"])
    assert code == 2 and "singular" in err


@pytest.mark.parametrize(
    "text",
    ["n=2; 0-1:inf(inf)", '{"rank": 2, "edges": [{"u": 0, "v": 1, "m": "inf", "c": 1e400}]}'],
    ids=["compact", "json"],
)
def test_infinite_weight_exits_2(tmp_path, capsys, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 2 and "parse error" in err and not out


@pytest.mark.parametrize(
    "edge",
    [
        {"u": 0, "v": 1, "m": None},
        {"u": 0, "v": 1, "m": 3.0},
        {"u": 0.0, "v": 1, "m": 3},
        {"u": 0, "v": 1, "m": "inf", "c": True},
        {"u": 0, "v": 1, "m": "inf", "c": "2"},
    ],
    ids=["m-null", "m-float", "u-float", "c-bool", "c-string"],
)
def test_json_value_of_wrong_type_is_parse_error(tmp_path, capsys, edge):
    """A JSON null is no label: "m": null must not read as an infinite bond."""
    text = json.dumps({"rank": 2, "edges": [edge]})
    with pytest.raises(cp.GraphError):
        cp.parse_graph(text)
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 2 and "parse error" in err and not out


@pytest.mark.parametrize(
    "text, reason",
    [
        ("n=2; 0-1:inf(inf)", "finite c >= 1"),
        ("n=2; 0-1:inf(0.5)", "finite c >= 1"),
        ("n=2; 0-1:2", "absent edge"),
        ("n=2; 0-1:inf(x)", "bad weight in '0-1:inf(x)'"),
        ("n=2; 0-1:x", "bad label in '0-1:x'"),
    ],
)
def test_compact_label_error_names_its_reason(tmp_path, capsys, text, reason):
    """A label the parser read but EdgeLabel rejects reports EdgeLabel's reason."""
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 2 and reason in err and not out


@pytest.mark.parametrize(
    "text",
    ["n=3; 0-1:inf(1e150) 1-2:3", "n=11; 0-1:inf(1e30) " + " ".join(f"{i}-{i + 1}:3" for i in range(1, 10))],
    ids=["rank3", "rank11"],
)
@pytest.mark.parametrize(
    "argv",
    [["classify"], ["weights", "--length", "2"], ["tangency", "--length", "2"]],
    ids=["classify", "weights", "tangency"],
)
def test_huge_weight_exit_code_is_not_1(tmp_path, capsys, text, argv):
    """max|B|^n overflows a float here; the singularity test must not.

    The weights are singular to working precision, and the eigenvalues'
    roundoff, about n * eps * max|B|, exceeds the zero tolerance, so
    classify and tangency refuse to decide a signature or level.
    """
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
    assert code == 2 and not out
    assert ("singular" if argv[0] == "weights" else "roundoff") in err


def test_pack_non_lorentzian_exits_2(graph_file, capsys):
    code, _, _ = run(capsys, ["pack", graph_file(cp.path_graph([3, 3, 3])), "--length", "2"])
    assert code == 2


def test_cli_leaves_group_search_unimported():
    """The command line runs on the orbit walk; the BFS and its vector store stay unloaded."""
    src = str(Path(cp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, coxpack.cli; "
        "print(sorted(m for m in sys.modules if m in ('coxpack.groups', 'coxpack.dedup')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
    from coxpack import groups

    assert groups.OrbitCapError is cp.OrbitCapError


def test_enum_jobs_flag(tmp_path, capsys):
    out_csv = tmp_path / "c.csv"
    code, out, _ = run(capsys, ["enum", "--max-rank", "5", "--jobs", "2", "--out", str(out_csv)])
    assert code == 0 and "total=189" in out


def test_enum_strict_only(tmp_path, capsys):
    out_csv = tmp_path / "strict.csv"
    code, out, _ = run(capsys, ["enum", "--max-rank", "5", "--strict-only", "--out", str(out_csv)])
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()[1:]
    assert all(",true," in r for r in rows)


BAD_TOLS = ["0", "-1", "nan", "inf"]


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize(
    "cmd",
    [
        # the ids keep their numbers from when classify and roots, retired duplicates now,
        # were cmd0 and cmd1
        pytest.param(["weights", "--length", "1"], id="cmd2"),
        pytest.param(["pack", "--length", "1"], id="cmd3"),
        pytest.param(["tangency", "--length", "1"], id="cmd4"),
    ],
)
def test_bad_tol_is_usage_error(graph_file, capsys, tmp_path, fig1a, cmd, tol):
    """A bad --tol exits 2 and writes nothing; weights rejects the flag itself."""
    out = tmp_path / "out.txt"
    argv = [cmd[0], graph_file(fig1a), *cmd[1:], "--tol", tol, "--out", str(out)]
    if cmd[0] == "weights":
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code, (stdout, err) = exc.value.code, capsys.readouterr()
        assert "unrecognized arguments: --tol" in err
    else:
        code, stdout, err = run(capsys, argv)
        assert "--tol" in err
    assert code == 2
    assert not stdout and not out.exists()


# every option of each subcommand, and its positional arguments
OPTIONS = {
    "classify": {"graph", "--format", "--tol", "--out"},
    "roots": {"graph", "--depth", "--max-records", "--out"},
    "weights": {"graph", "--length", "--max-records", "--out"},
    "pack": {
        "graph", "--length", "--format", "--min-radius", "--canvas",
        "--tol", "--max-records", "--out",
    },
    "tangency": {"graph", "--length", "--format", "--tol", "--max-records", "--out"},
    "enum": {"--max-rank", "--json", "--strict-only", "--jobs", "--tol", "--out"},
}


def test_each_command_takes_only_its_options():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {
            a.option_strings[-1] if a.option_strings else a.dest
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, sub in commands.choices.items()
    }
    assert got == OPTIONS


# every bounded flag: its values just outside the bound, and the last ones inside it
BOUNDS = {
    "--tol": (["0", "-1", "nan", "inf"], ["1e-300", "1e300"]),
    "--max-records": (["0", "-3"], ["1"]),
    "--depth": (["0"], ["1"]),
    "--length": (["-1"], ["0"]),
    "--min-radius": (["-1e-300", "-1", "nan", "inf"], ["0", "1e300"]),
    "--canvas": (["0", "-10"], ["1"]),
    "--max-rank": (["4", "12"], ["5", "11"]),
    "--jobs": (["0", "-3"], ["1"]),
}


def _bounded_actions():
    """(command, action) for each option of each subcommand whose type checks a bound."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (name, a)
        for name, sub in commands.choices.items()
        for a in sub._actions
        if getattr(a.type, "__qualname__", "").startswith("_bounded.")
    ]


BOUNDED = [(name, a.option_strings[-1]) for name, a in _bounded_actions()]


def test_bound_table_covers_every_bounded_flag():
    """Each command's copy of a flag in the table checks its bound, and no other flag does."""
    table = {(cmd, flag) for cmd, flags in OPTIONS.items() for flag in flags if flag in BOUNDS}
    assert set(BOUNDED) == table and len(table) == 16


def test_help_states_each_flags_bound():
    """The rule an out-of-range value is refused with is the one the flag's help gives."""
    for _, action in _bounded_actions():
        bad, good = BOUNDS[action.option_strings[-1]]
        for value in good:
            assert action.type(value) == float(value)
        for value in bad:
            with pytest.raises(argparse.ArgumentTypeError) as exc:
                action.type(value)
            rule = str(exc.value).removeprefix("must be ").removesuffix(f", got {value}")
            assert rule in action.help


@pytest.mark.parametrize(
    "cmd, flag, value",
    [(cmd, flag, value) for cmd, flag in BOUNDED for value in BOUNDS[flag][0]],
)
def test_out_of_range_value_is_usage_error(capsys, tmp_path, fig1a, cmd, flag, value):
    """argparse refuses the value: exit 2 naming the flag, nothing on stdout or in --out."""
    graph = tmp_path / "g.json"
    graph.write_text(cp.serialize_graph(fig1a))
    required = {"roots": ["--depth", "2"], "enum": []}.get(cmd, ["--length", "1"])
    args = [cmd] if cmd == "enum" else [cmd, str(graph), *required]
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(out), f"{flag}={value}"])
    stdout, err = capsys.readouterr()
    assert exc.value.code == 2 and f"argument {flag}: " in err
    assert not stdout and not out.exists()


@pytest.mark.parametrize(
    "cmd, flag",
    [
        (["classify"], ["--jobs", "1"]),
        (["classify"], ["--max-records", "5"]),
        (["roots", "--depth", "2"], ["--jobs", "1"]),
        (["roots", "--depth", "2"], ["--tol", "1e-3"]),
        (["roots", "--depth", "2"], ["--format", "json"]),
        (["weights", "--length", "1"], ["--jobs", "1"]),
        (["weights", "--length", "1"], ["--tol", "1e-3"]),
        (["weights", "--length", "1"], ["--format", "json"]),
        (["pack", "--length", "1"], ["--jobs", "1"]),
        (["tangency", "--length", "1"], ["--jobs", "1"]),
        (["enum", "--max-rank", "5"], ["--max-records", "5"]),
    ],
    ids=lambda v: v[0],
)
def test_removed_flag_is_usage_error(graph_file, capsys, tmp_path, fig1a, cmd, flag):
    """A flag the command does not read exits 2 before any output."""
    args = [cmd[0]] if cmd[0] == "enum" else [cmd[0], graph_file(fig1a)]
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main([*args, *cmd[1:], *flag, "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert exc.value.code == 2 and f"unrecognized arguments: {flag[0]}" in err
    assert not stdout and not out.exists()


def test_classify_json_roles_match_classifier(tmp_path, capsys):
    from coxpack.tangency import VertexClass, classify_weight_norm

    path = tmp_path / "g.txt"
    path.write_text("n=5; 0-1:3 0-2:4 1-3:6 3-4:3")  # SURREAL_GRAPH of test_tangency.py
    code, out, _ = run(capsys, ["classify", str(path), "--format", "json"])
    assert code == 0
    _, norms = cp.fundamental_weights(cp.load_graph(path.read_text()).gram)
    roles = [classify_weight_norm(norm, level2=True) for norm in norms]
    assert VertexClass.SURREAL in roles
    assert [w["role"] for w in json.loads(out)["weights"]] == [r.value for r in roles]
