"""Command-line front end: classify, roots, weights, pack, tangency, enum."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import census as census_mod
from .balls import _packing_rows, lorentz_frame
from .forms import (
    FormError,
    SingularFormError,
    classify_type,
    fundamental_weights,
    level,
    signature,
)
from .graphs import GraphError, load_graph, to_compact
from .orbits import (
    OrbitCapError,
    VectorClass,
    _root_columns,
    _weight_columns,
    classify_norm,
    projective_coords,
    quadratic_form,
)
from .render import svg_packing
from .tangency import (
    InconsistencyError,
    LevelError,
    classify_weight_norm,
    geometric_oracle,
    is_strict_level2,
    tangency_graph,
)

EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
EXIT_SVG_RANK = 4
EXIT_ORBIT_CAP = 5
EXIT_LEVEL = 6
EXIT_ENUM_INVARIANT = 7


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _file_error(verb: str, path: str):
    """Report an OSError while the block reads or writes path as a usage error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot {verb} {path}: {exc}") from None


def _check_writable(paths: list[str]) -> None:
    """Exit 2 unless each path opens for writing; leave behind no file this created."""
    created = []
    try:
        for path in paths:
            existed = os.path.exists(path)
            with _file_error("write", path), open(path, "a"):
                pass
            if not existed:
                created.append(path)
    finally:
        for path in created:
            os.remove(path)


def _read_graph(path: str):
    with _file_error("read", path), open(path) as fh:
        return load_graph(fh.read())


def _emit(text: str, out: str | None) -> None:
    if out:
        with _file_error("write", out), open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    g = _read_graph(args.graph)
    tol = args.tol
    b = g.gram
    sig = signature(b, tol)
    tclass = classify_type(g, tol)
    lv = level(g, tol)
    info: dict = {
        "graph": to_compact(g),
        "rank": g.rank,
        "type": tclass.value,
        "signature": {
            "n_plus": sig.n_plus,
            "n_zero": sig.n_zero,
            "n_minus": sig.n_minus,
            "min_eigenvalue": sig.min_eigenvalue,
        },
        "level": lv,
    }
    if lv == 2:
        info["strict"] = is_strict_level2(g, tol)
    try:
        _, norms = fundamental_weights(b)
    except SingularFormError:
        info["weights"] = None
    else:
        info["weights"] = [
            {
                "color": s,
                "norm": float(norm),
                "class": classify_norm(norm, norm).value,
                "role": classify_weight_norm(norm, level2=lv == 2).value,
            }
            for s, norm in enumerate(norms)
        ]

    if args.format == "json":
        _emit(json.dumps(info, indent=1) + "\n", args.out)
    else:
        lines = [
            f"graph: {info['graph']}",
            f"rank: {g.rank}",
            f"type: {tclass.value}",
            f"signature: n_plus={sig.n_plus} n_zero={sig.n_zero} n_minus={sig.n_minus} "
            f"min_eigenvalue={sig.min_eigenvalue:.6f}",
            f"level: {lv}",
        ]
        if "strict" in info:
            lines.append(f"strict: {'true' if info['strict'] else 'false'}")
        if info["weights"] is None:
            lines.append("weights: undefined (singular form)")
        else:
            for w in info["weights"]:
                lines.append(
                    f"weight[{w['color']}]: norm={w['norm']:.9f} "
                    f"class={w['class']} role={w['role']}"
                )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values) -> list[str]:
    """json.dumps' text for each float of an array, flattened.

    Each distinct bit pattern is formatted once.  Only 0.1-22% of the
    values in a roots or weights column of the benchmark's systems are
    distinct, and there this is 4-10 times faster than formatting every
    value; where no value repeats it costs about the same.  float.__repr__,
    not repr: numpy 2's repr of a numpy float names its type.
    """
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    bits, where = np.unique(flat.view(np.uint64), return_inverse=True)
    distinct = bits.view(float)
    texts = list(map(float.__repr__, distinct.tolist()))
    if not np.isfinite(distinct).all():
        texts = [_NONFINITE.get(t, t) for t in texts]
    return np.array(texts, dtype=object)[where].tolist()


def _list_texts(rows: np.ndarray) -> list[str]:
    """json.dumps(row, indent=1) of each row of a 2-D float array, as a record's value."""
    n = rows.shape[1]
    if not n:
        return ["[]"] * len(rows)
    template = "[\n    " + ",\n    ".join(["%s"] * n) + "\n   ]"
    texts = iter(_float_texts(rows))
    return [template % row for row in zip(*[texts] * n)]


def _int_texts(values) -> list[str]:
    return list(map(str, np.asarray(values).tolist()))


def _dump_records(head: dict, key: str, columns: dict[str, list]) -> str:
    """json.dumps({**head, key: records}, indent=1) + "\n", records given as columns.

    `columns` maps each record key, in order, to the JSON text of its value
    in every record, as json.dumps(..., indent=1) writes it inside a
    record.  A None text omits the key from that record; the first key
    must be present in all.  CPython's json module uses its C encoder only
    without indent, so orbit documents of thousands of records are filled
    into a record template instead; the bytes are the same.
    """
    parts, cols = [], []
    for name, col in columns.items():
        field = f'"{name}": '
        if None in col:
            parts.append("%s")
            cols.append(["" if v is None else ",\n   " + field + v for v in col])
        else:
            parts.append((",\n   " if parts else "   ") + field + "%s")
            cols.append(col)
    template = "  {\n" + "".join(parts) + "\n  }"
    records = [template % values for values in zip(*cols)]
    text = json.dumps({**head, key: []}, indent=1)
    if records:
        text = text[: -len("[]\n}")] + "[\n" + ",\n".join(records) + "\n ]\n}"
    return text + "\n"


def _projective_rows(vectors: np.ndarray, layers: np.ndarray, b: np.ndarray):
    """JSON text of each row's projective coordinates, and the max |B(p, p)| per layer.

    A row at infinity reads null.
    """
    coords, finite = projective_coords(vectors)
    residuals = np.abs(quadratic_form(b, coords))
    by_layer = {
        str(k): float(residuals[finite & (layers == k)].max()) for k in np.unique(layers[finite])
    }
    texts = _list_texts(coords)
    for i in np.flatnonzero(~finite).tolist():
        texts[i] = "null"
    return texts, by_layer


def cmd_roots(args) -> int:
    g = _read_graph(args.graph)
    vectors, depths, heights = _root_columns(g, args.depth, max_records=args.max_records)
    projective, residual_by_depth = _projective_rows(vectors, depths, g.gram)
    head = {
        "graph": to_compact(g),
        "max_depth": args.depth,
        "count": len(vectors),
        "quadratic_residual_by_depth": residual_by_depth,
    }
    columns = {
        "coords": _list_texts(vectors),
        "depth": _int_texts(depths),
        "height": _float_texts(heights),
        "projective": projective,
    }
    _emit(_dump_records(head, "records", columns), args.out)
    return 0


def cmd_weights(args) -> int:
    g = _read_graph(args.graph)
    vectors, lengths, colors, norms, classes = _weight_columns(
        g, args.length, max_records=args.max_records
    )
    projective, residual_by_length = _projective_rows(vectors, lengths, g.gram)
    head = {
        "graph": to_compact(g),
        "max_length": args.length,
        "count": len(vectors),
        "quadratic_residual_by_length": residual_by_length,
    }
    class_text = {k: json.dumps(k.value) for k in VectorClass}
    columns = {
        "coords": _list_texts(vectors),
        "word_length": _int_texts(lengths),
        "height": _float_texts(vectors.sum(axis=1)),
        "norm": _float_texts(norms),
        "class": [class_text[k] for k in classes],
        "color": _int_texts(colors),
        "projective": projective,
    }
    _emit(_dump_records(head, "records", columns), args.out)
    return 0


def cmd_pack(args) -> int:
    g = _read_graph(args.graph)
    if args.format == "svg" and g.rank != 4:
        raise _CliError(EXIT_SVG_RANK, f"svg output requires rank 4 (disks), got rank {g.rank}")
    b = g.gram
    frame = lorentz_frame(b, args.tol)
    vectors, lengths, colors, norms, classes = _weight_columns(
        g, args.length, max_records=args.max_records
    )
    space = classes == VectorClass.SPACE_LIKE
    lengths, colors = lengths[space], colors[space]
    packing = _packing_rows(vectors[space], norms[space], frame, b)
    report = packing.report

    m = np.array(frame.basis_change)
    if packing.rotation.size:
        ext = np.eye(g.rank)
        ext[: g.rank - 1, : g.rank - 1] = packing.rotation
        m = m @ ext.T

    summary = (
        f"is_packing={'true' if report.is_packing else 'false'} "
        f"min_separation={report.min_separation:.9f} balls={len(lengths)} "
        f"orbit_length={args.length}"
    )

    if args.format == "svg":
        pairs = list(zip(packing.balls(), colors.tolist()))
        _emit(svg_packing(pairs, args.min_radius, args.canvas, summary), args.out)
        return 0

    head = {
        "graph": to_compact(g),
        "frame": m.tolist(),
        "orbit_length": args.length,
        "validation": {
            "is_packing": report.is_packing,
            "min_separation": None
            if math.isinf(report.min_separation)
            else report.min_separation,
            "n_violating_pairs": len(report.violating_pairs),
            "n_deep_pairs": len(report.deep_pairs),
        },
    }
    columns = {
        "color": _int_texts(colors),
        "word_length": _int_texts(lengths),
        "cap_center": _list_texts(packing.cap_centers),
        "cap_radius": _float_texts(packing.cap_radii),
        "curvature": _float_texts(packing.curvatures),
        "curvature_center": _list_texts(packing.curvature_centers),
        "halfspace_offset": [
            json.dumps(offset) if half else None
            for half, offset in zip(packing.halfspace.tolist(), packing.halfspace_offsets)
        ],
    }
    _emit(_dump_records(head, "balls", columns), args.out)
    return 0


def cmd_tangency(args) -> int:
    g = _read_graph(args.graph)
    tg = tangency_graph(g, args.length, args.tol, max_records=args.max_records)
    # vertex ids are positions in tg.vertices, the indices the oracle reports
    agrees = geometric_oracle(tg.vertices, g.gram) == tg.edge_set()

    if args.format == "edges":
        lines = [f"{e.u} {e.v} {e.tag}" for e in tg.edges]
        lines.append(f"# oracle_agrees={'true' if agrees else 'false'}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    doc = {
        "graph": to_compact(g),
        "truncation_length": tg.truncation_length,
        "vertices": [
            {
                "id": v.id,
                "color": v.color,
                "klass": v.vclass.value,
                "word_length": v.word_length,
            }
            for v in tg.vertices
        ],
        "edges": [{"u": e.u, "v": e.v, "tag": e.tag} for e in tg.edges],
        "oracle_agrees": agrees,
    }
    _emit(json.dumps(doc, indent=1) + "\n", args.out)
    return 0


def cmd_enum(args) -> int:
    out_path = args.out or "census.csv"
    _check_writable([p for p in (out_path, args.json) if p])
    entries = census_mod.enumerate_level2(max_rank=args.max_rank, zero_tol=args.tol)
    problems = []
    keys = [e.key for e in entries]
    if len(set(keys)) != len(keys):
        problems.append("duplicate canonical keys")
    for e in entries:
        if not 5 <= e.rank <= args.max_rank:
            problems.append(f"rank {e.rank} outside 5..{args.max_rank}")
            break
    labels = census_mod.ADMISSIBLE_LABELS
    for e in entries:
        if any(lab.m not in labels for _, _, lab in e.graph.edges):
            problems.append(f"label outside {{{','.join(map(str, labels))}}}")
            break
    if problems:
        for p in problems:
            print(f"invariant failure: {p}", file=sys.stderr)
        return EXIT_ENUM_INVARIANT

    selected = [e for e in entries if e.strict] if args.strict_only else entries
    with _file_error("write", out_path):
        census_mod.write_census_csv(selected, out_path)
    if args.json:
        with _file_error("write", args.json):
            census_mod.write_census_json(selected, args.json)
    report = census_mod.census_report(selected)
    hist = ",".join(f"{r}:{c}" for r, c in report.rank_histogram().items())
    print(f"total={report.total} strict={report.strict_total} ranks={hist} out={out_path}")
    return 0


# ---------------------------------------------------------------------------


def _bounded(kind, low, high=math.inf, strict=False):
    """An argparse type: a finite `kind` value >= low (> low if strict) and <= high."""
    rule = f"in {low}..{high}" if high < math.inf else f"{'>' if strict else '>='} {low}"
    rule = "finite and " + rule if kind is float else rule

    def parse(text: str):
        value = kind(text)
        if not ((low < value if strict else low <= value) and value <= high and value < math.inf):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; each subcommand takes only the options it reads."""
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol", type=_bounded(float, 0, strict=True), default=1e-3,
        help="eigenvalue zero tolerance, finite and > 0",
    )
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--max-records", type=_bounded(int, 1), help="cap orbit record counts, >= 1")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file (default stdout)")
    length = {"type": _bounded(int, 0), "required": True, "help": "word length, >= 0"}

    parser = argparse.ArgumentParser(
        prog="coxpack",
        description="Geometric Coxeter systems: classification, orbits, ball packings, census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[tol, out], help="type, signature, level, weights")
    p.add_argument("graph", help="graph file (JSON or compact form)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("roots", parents=[cap, out], help="positive roots up to a depth, as JSON")
    p.add_argument("graph")
    p.add_argument("--depth", type=_bounded(int, 1), required=True, help="root depth, >= 1")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser(
        "weights", parents=[cap, out], help="weight orbit up to a word length, as JSON"
    )
    p.add_argument("graph")
    p.add_argument("--length", **length)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("pack", parents=[tol, cap, out], help="ball packing data or SVG")
    p.add_argument("graph")
    p.add_argument("--length", **length)
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.add_argument(
        "--min-radius", type=_bounded(float, 0), default=0.75,
        help="drop smaller disks (px), finite and >= 0",
    )
    p.add_argument("--canvas", type=_bounded(int, 1), default=800, help="canvas size in px, >= 1")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser(
        "tangency", parents=[tol, cap, out], help="tangency graph of a level-2 system"
    )
    p.add_argument("graph")
    p.add_argument("--length", **length)
    p.add_argument("--format", choices=["json", "edges"], default="json")
    p.set_defaults(func=cmd_tangency)

    p = sub.add_parser("enum", parents=[tol], help="census of level-2 graphs")
    p.add_argument("--max-rank", type=_bounded(int, 5, 11), default=11, help="top rank, in 5..11")
    p.add_argument("--out", default=None, help="CSV file (default census.csv)")
    p.add_argument("--json", default=None, help="also write a JSON mirror")
    p.add_argument("--strict-only", action="store_true")
    p.add_argument(
        "--jobs", type=_bounded(int, 1), default=1, help=">= 1; the census runs in one process"
    )
    p.set_defaults(func=cmd_enum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except GraphError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OrbitCapError as exc:
        print(f"orbit cap: {exc}", file=sys.stderr)
        return EXIT_ORBIT_CAP
    except LevelError as exc:
        print(f"level error: {exc}", file=sys.stderr)
        return EXIT_LEVEL
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except FormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
