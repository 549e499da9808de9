"""Command-line front end: classify, roots, weights, pack, tangency, enum."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import NamedTuple

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


@contextmanager
def _output(out: str | None):
    """The write function of the file `out`, or of stdout when out is None."""
    if not out:
        yield sys.stdout.write
        return
    with _file_error("write", out), open(out, "w") as fh:
        yield fh.write


def _emit(text: str, out: str | None) -> None:
    with _output(out) as write:
        write(text)


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
                "norm": norm,
                "class": classify_norm(norm, norm).value,
                "role": classify_weight_norm(norm, level2=lv == 2).value,
            }
            for s, norm in enumerate(norms.tolist())
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
_BLOCK_ROWS = 2048  # records rendered and written at a time
_TABLE_SIZE = 1 << 18  # float texts a document keeps between blocks: about 20 MB at most


class _Field(NamedTuple):
    """A record key and its column: float rows (a JSON list each), floats, ints or choices.

    A column of choices holds keys of `choices`, which maps each to its
    JSON text.  Rows where `present` is False have no value: there the key
    reads null when absent is "null", and is left out when absent is "".
    """

    key: str
    values: np.ndarray
    choices: dict | None = None
    present: np.ndarray | None = None
    absent: str = ""


class _Tokens:
    """A document's token texts by id: "", "null", its fixed pieces, then its floats'.

    Each distinct float bit pattern is formatted once, by float.__repr__
    (numpy 2's repr of a numpy float names its type), and kept for the
    document's later blocks: only 0.1-22% of the floats of a roots or
    weights document of the benchmark's systems are distinct.  The float
    texts start afresh when a block would take them past _TABLE_SIZE, so
    the table stays bounded whatever the document's size.  A block's int
    texts follow the kept ones, where the next block's texts overwrite them.
    """

    def __init__(self, fixed: list[str]):
        self.id = {text: i for i, text in enumerate(dict.fromkeys(["", "null", *fixed]))}
        self.texts = np.array(list(self.id), dtype=object)  # grows by doubling
        self.fixed = self.size = len(self.texts)
        self.bits = np.empty(0, dtype=np.uint64)  # the kept floats' bits, sorted
        self.ids = np.empty(0, dtype=np.intp)  # and their texts' ids

    def _put(self, texts: list[str]) -> int:
        """Write texts after the kept ones; the first one's id."""
        end = self.size + len(texts)
        if end > len(self.texts):
            grown = np.empty(max(end, 2 * len(self.texts)), dtype=object)
            grown[: self.size] = self.texts[: self.size]
            self.texts = grown
        self.texts[self.size : end] = texts
        return self.size

    def floats(self, values: np.ndarray) -> np.ndarray:
        """The ids of json.dumps' text of each float of a float64 array, in its shape."""
        bits, where = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
        if len(self.bits) + len(bits) > _TABLE_SIZE:
            self.texts[self.fixed : self.size] = None
            self.size = self.fixed
            self.bits, self.ids = self.bits[:0], self.ids[:0]
        at = np.searchsorted(self.bits, bits)
        new = at == len(self.bits)
        new[~new] = self.bits[at[~new]] != bits[~new]
        ids = np.empty(len(bits), dtype=np.intp)
        ids[~new] = self.ids[at[~new]]
        fresh = bits[new].view(float)
        texts = list(map(float.__repr__, fresh.tolist()))
        for i in np.flatnonzero(~np.isfinite(fresh)).tolist():
            texts[i] = _NONFINITE[texts[i]]
        ids[new] = np.arange(self._put(texts), self.size + len(texts))
        self.size += len(texts)
        self.bits = np.insert(self.bits, at[new], bits[new])
        self.ids = np.insert(self.ids, at[new], ids[new])
        return ids[where].reshape(values.shape)

    def ints(self, values: np.ndarray) -> np.ndarray:
        """The ids of the text of each int, in values' shape, until the next texts are put."""
        numbers, where = np.unique(values.ravel(), return_inverse=True)
        return self._put(list(map(str, numbers.tolist()))) + where.reshape(values.shape)


_KINDS = ("float", "int", "choice")


def _kind(field: _Field) -> str:
    if field.choices is not None:
        return "choice"
    return "int" if field.values.dtype.kind in "iu" else "float"


def _template(fields: list[_Field]) -> list[tuple]:
    """A record of these fields as slots (text, field, group), in order.

    A slot is a fixed text (field None), or a value of field number
    `field`, whose text is then the field's kind.  A field with a `present`
    mask has a group of slots, which its absent rows fill with null and
    empty texts or with empty texts only.  Adjacent fixed texts of one
    group are one slot.  The first slot is the ",\n" before the record.
    """
    slots = [(",\n", None, -1), ("  {\n", None, None)]
    for f, field in enumerate(fields):
        group = None if field.present is None else f
        key = (",\n   " if f else "   ") + json.dumps(field.key) + ": "
        slots.append((key, None, None if field.absent else group))
        if field.values.ndim == 1:
            slots.append((_kind(field), f, group))
            continue
        for j in range(field.values.shape[1]):
            slots += [(",\n    " if j else "[\n    ", None, group), (_kind(field), f, group)]
        slots.append(("\n   ]" if field.values.shape[1] else "[]", None, group))
    slots.append(("\n  }", None, None))
    merged = slots[:1]
    for text, f, group in slots[1:]:
        last, last_f, last_group = merged[-1]
        if f is None and last_f is None and group == last_group:
            merged[-1] = (last + text, None, group)
        else:
            merged.append((text, f, group))
    return merged


def _write_records(write, head: dict, key: str, fields: list[_Field]) -> None:
    """write json.dumps({**head, key: records}, indent=1) + "\\n", record i from row i of fields.

    CPython's json module uses its C encoder only without indent, so orbit
    documents of thousands of records are rendered from one token table
    instead.  _BLOCK_ROWS records at a time become one id matrix, records
    by template slots, whose texts are joined and written at once.  Only
    one block's ids and text are alive at a time, and the bytes are the
    same whatever the block size.
    """
    text = json.dumps({**head, key: []}, indent=1)
    count = len(fields[0].values)
    if not count:
        write(text + "\n")
        return
    write(text[: -len("[]\n}")] + "[\n")
    slots = _template(fields)
    choices = [t for field in fields if field.choices for t in field.choices.values()]
    tokens = _Tokens([t for t, f, _ in slots if f is None] + choices)
    ids = np.array([tokens.id[t] if f is None else 0 for t, f, _ in slots], dtype=np.intp)
    # by kind: its fields, and the slots of their values in one block's columns
    kinds = {k: [field for field in fields if _kind(field) == k] for k in _KINDS}
    at = {k: [i for i, (t, f, _) in enumerate(slots) if f is not None and t == k] for k in kinds}
    lookups = [{v: tokens.id[t] for v, t in field.choices.items()} for field in kinds["choice"]]
    groups = []
    for f, field in enumerate(fields):
        if field.present is not None:
            where = [i for i, (_, _, group) in enumerate(slots) if group == f]
            fill = [tokens.id["null"] if field.absent else 0] + [0] * (len(where) - 1)
            groups.append((field.present, where, fill))
    for lo in range(0, count, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        block = np.tile(ids, (len(fields[0].values[rows]), 1))
        columns = {k: [f.values[rows].reshape(len(block), -1) for f in kinds[k]] for k in kinds}
        if columns["float"]:
            block[:, at["float"]] = tokens.floats(np.concatenate(columns["float"], 1, dtype=float))
        if columns["int"]:
            block[:, at["int"]] = tokens.ints(np.concatenate(columns["int"], 1))
        for slot, values, lookup in zip(at["choice"], columns["choice"], lookups):
            block[:, slot] = list(map(lookup.__getitem__, values.ravel().tolist()))
        for present, where, fill in groups:
            block[np.ix_(~present[rows], where)] = fill
        if not lo:
            block[0, 0] = 0  # no ",\n" before the first record
        write("".join(tokens.texts[block.ravel()].tolist()))
    write("\n ]\n}\n")


def _projective_rows(vectors: np.ndarray, layers: np.ndarray, b: np.ndarray):
    """Each row's projective coordinates, whether it has them, and the max |B(p, p)| per layer."""
    coords, finite = projective_coords(vectors)
    residuals = np.abs(quadratic_form(b, coords))
    by_layer = {
        str(k): float(residuals[finite & (layers == k)].max()) for k in np.unique(layers[finite])
    }
    return coords, finite, by_layer


def cmd_roots(args) -> int:
    g = _read_graph(args.graph)
    vectors, depths, heights = _root_columns(g, args.depth, max_records=args.max_records)
    coords, finite, residual_by_depth = _projective_rows(vectors, depths, g.gram)
    head = {
        "graph": to_compact(g),
        "max_depth": args.depth,
        "count": len(vectors),
        "quadratic_residual_by_depth": residual_by_depth,
    }
    fields = [
        _Field("coords", vectors),
        _Field("depth", depths),
        _Field("height", heights),
        _Field("projective", coords, present=finite, absent="null"),
    ]
    with _output(args.out) as write:
        _write_records(write, head, "records", fields)
    return 0


def cmd_weights(args) -> int:
    g = _read_graph(args.graph)
    vectors, lengths, colors, norms, classes = _weight_columns(
        g, args.length, max_records=args.max_records
    )
    coords, finite, residual_by_length = _projective_rows(vectors, lengths, g.gram)
    head = {
        "graph": to_compact(g),
        "max_length": args.length,
        "count": len(vectors),
        "quadratic_residual_by_length": residual_by_length,
    }
    fields = [
        _Field("coords", vectors),
        _Field("word_length", lengths),
        _Field("height", vectors.sum(axis=1)),
        _Field("norm", norms),
        _Field("class", classes, {k: json.dumps(k.value) for k in VectorClass}),
        _Field("color", colors),
        _Field("projective", coords, present=finite, absent="null"),
    ]
    with _output(args.out) as write:
        _write_records(write, head, "records", fields)
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
    fields = [
        _Field("color", colors),
        _Field("word_length", lengths),
        _Field("cap_center", packing.cap_centers),
        _Field("cap_radius", packing.cap_radii),
        _Field("curvature", packing.curvatures),
        _Field("curvature_center", packing.curvature_centers),
        _Field(
            "halfspace_offset",
            np.array(packing.halfspace_offsets, dtype=float),  # None reads nan
            present=packing.halfspace,
        ),
    ]
    with _output(args.out) as write:
        _write_records(write, head, "balls", fields)
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
    with _file_error("write", args.out):
        census_mod.write_census_csv(selected, args.out)
    if args.json:
        with _file_error("write", args.json):
            census_mod.write_census_json(selected, args.json)
    report = census_mod.census_report(selected)
    hist = ",".join(f"{r}:{c}" for r, c in report.rank_histogram().items())
    print(f"total={report.total} strict={report.strict_total} ranks={hist} out={args.out}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; each subcommand takes only the options it reads."""
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

    p = sub.add_parser("roots", parents=[cap, out], help="positive roots up to a depth, as JSON")
    p.add_argument("graph")
    p.add_argument("--depth", type=_bounded(int, 1), required=True, help="root depth, >= 1")

    p = sub.add_parser(
        "weights", parents=[cap, out], help="weight orbit up to a word length, as JSON"
    )
    p.add_argument("graph")
    p.add_argument("--length", **length)

    p = sub.add_parser("pack", parents=[tol, cap, out], help="ball packing data or SVG")
    p.add_argument("graph")
    p.add_argument("--length", **length)
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.add_argument(
        "--min-radius", type=_bounded(float, 0), default=0.75,
        help="drop smaller disks (px), finite and >= 0",
    )
    p.add_argument("--canvas", type=_bounded(int, 1), default=800, help="canvas size in px, >= 1")

    p = sub.add_parser(
        "tangency", parents=[tol, cap, out], help="tangency graph of a level-2 system"
    )
    p.add_argument("graph")
    p.add_argument("--length", **length)
    p.add_argument("--format", choices=["json", "edges"], default="json")

    p = sub.add_parser("enum", parents=[tol], help="census of level-2 graphs")
    p.add_argument("--max-rank", type=_bounded(int, 5, 11), default=11, help="top rank, in 5..11")
    p.add_argument("--out", default="census.csv", help="CSV file (default census.csv)")
    p.add_argument("--json", default=None, help="also write a JSON mirror")
    p.add_argument("--strict-only", action="store_true")
    p.add_argument(
        "--jobs", type=_bounded(int, 1), default=1, help=">= 1; the census runs in one process"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a usage error, like argparse's: before the work, and before exits 3-7
        _check_writable([p for p in (args.out, getattr(args, "json", None)) if p])
        # looked up at each call, so a replaced cmd_* (a test's or a tracer's) runs
        return globals()[f"cmd_{args.command}"](args)
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
