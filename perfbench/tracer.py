"""Span tracer that wraps coxpack's public functions from outside the program.

While installed, every public function of every coxpack module is replaced,
in each module namespace that binds it, by a wrapper that records a span;
so are `CoxeterGraph.__post_init__`, the `CoxeterGraph.gram` property,
`VectorStore.add`, `GroupBFS.__init__` and `numpy.linalg.eigvalsh`.  A span
is named after the layer that defines the function (`forms.level`, also when
called as `coxpack.census.level`).

Spans are aggregated in memory as they close: calls, inclusive seconds, self
seconds (a span minus the time its child spans cover), calls per parent
span, and per-layer work counts.  `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import types
from collections import defaultdict
from time import perf_counter

MODULES = (
    "graphs", "forms", "orbits", "balls", "tangency", "census",
    "cli", "render", "dedup", "groups",
)


def _spacelike(weights) -> int:
    return sum(1 for w in weights if w.klass.value == "space_like")


def _out_bytes(args) -> dict:
    out = args[0].out
    return {"cli.out_bytes": os.path.getsize(out) if out and os.path.exists(out) else 0}


# span name -> function(result, args) giving work counts to add
COUNTS = {
    "census.enumerate_level1": lambda r, a: {"census.enumerate_level1.graphs": len(r)},
    "census.enumerate_level2": lambda r, a: {"census.entries": len(r)},
    "census.write_census_csv": lambda r, a: {
        "census.write_census_csv.bytes": os.path.getsize(a[1])
    },
    "numpy.eigvalsh": lambda r, a: {"numpy.eigvalsh.matrices": math.prod(r.shape[:-1])},
    "tangency.chambers_up_to_length": lambda r, a: {
        "tangency.chambers_up_to_length.chambers": len(r.chambers),
        "tangency.chambers_up_to_length.vertices": len(r.vertices),
    },
    "tangency.tangency_graph": lambda r, a: {
        "tangency.tangency_graph.edges": len(r.edges),
        "tangency.tangency_graph.seen": len(r.vertices),
    },
    "tangency.geometric_oracle": lambda r, a: {"tangency.geometric_oracle.pairs": len(r)},
    "groups.GroupBFS": lambda r, a: {"groups.GroupBFS.elements": len(a[0])},
    "dedup.VectorStore.add": lambda r, a: {"dedup.VectorStore.add.new": int(r[1])},
    "orbits.roots_up_to_depth": lambda r, a: {"orbits.roots_up_to_depth.records": len(r)},
    "orbits.weights_up_to_length": lambda r, a: {
        "orbits.weights_up_to_length.records": len(r)
    },
    "orbits.limit_sample": lambda r, a: {"orbits.limit_sample.points": len(r.points)},
    "balls.validate_cluster": lambda r, a: {
        "balls.validate_cluster.pairs": math.comb(_spacelike(a[0]), 2)
    },
    "balls.residual_margins": lambda r, a: {
        "balls.residual_margins.pairs": len(a[0]) * _spacelike(a[1])
    },
    "cli.cmd_roots": lambda r, a: _out_bytes(a),
    "cli.cmd_weights": lambda r, a: _out_bytes(a),
    "cli.cmd_pack": lambda r, a: _out_bytes(a),
    "cli.cmd_enum": lambda r, a: _out_bytes(a),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.parent_calls: dict[tuple[str | None, str], int] = defaultdict(int)
        self._open: list[list] = []  # [name, seconds covered by child spans]
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str):
        parent = self._open[-1][0] if self._open else None
        frame = [name, 0.0]
        self._open.append(frame)
        return frame, parent, perf_counter()

    def _exit(self, frame, parent, start, counted: bool = True) -> float:
        dt = perf_counter() - start
        self._open.pop()
        name = frame[0]
        if counted:
            self.calls[name] += 1
            self.parent_calls[(parent, name)] += 1
        self.seconds[name] += dt
        self.self_seconds[name] += dt - frame[1]
        if self._open:
            self._open[-1][1] += dt
        return dt

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(*state)
            if count is not None:
                for key, n in count(result, args).items():
                    self.counts[key] += n
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        """Time each resumption of the generator; each item counts as a candidate.

        The first argument (a census family for `nominate`) also keys a
        per-family total.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            sub = f"{name}.{getattr(args[0], 'value', args[0])}" if args else name
            return self._timed_items(name, sub, fn(*args, **kwargs))

        return traced

    def _timed_items(self, name: str, sub: str, inner):
        while True:
            state = self._enter(name)
            try:
                item = next(inner)
            except StopIteration:
                self.seconds[sub] += self._exit(*state, counted=False)
                return
            except BaseException:
                self._exit(*state, counted=False)
                raise
            self.seconds[sub] += self._exit(*state, counted=False)
            self.counts[f"{name}.candidates"] += 1
            self.counts[f"{sub}.candidates"] += 1
            yield item

    # -- installing wrappers ----------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy

        pkg = importlib.import_module("coxpack")
        mods = {m: importlib.import_module(f"coxpack.{m}") for m in MODULES}
        wrapped: dict = {}
        for mod in (pkg, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith("coxpack.")
                ):
                    continue
                if value not in wrapped:
                    layer = value.__module__.split(".", 1)[1]
                    wrapped[value] = self.wrap(f"{layer}.{value.__name__}", value)
                self._patch(mod, attr, wrapped[value])

        graph_cls = mods["graphs"].CoxeterGraph
        self._patch(graph_cls, "__post_init__",
                    self.wrap("graphs.CoxeterGraph", graph_cls.__post_init__))
        gram = vars(graph_cls)["gram"]  # functools.cached_property
        self._patch(gram, "func", self.wrap("graphs.gram", gram.func))
        store = mods["dedup"].VectorStore
        self._patch(store, "add", self.wrap("dedup.VectorStore.add", store.add))
        bfs = mods["groups"].GroupBFS
        self._patch(bfs, "__init__", self.wrap("groups.GroupBFS", bfs.__init__))
        self._patch(numpy.linalg, "eigvalsh",
                    self.wrap("numpy.eigvalsh", numpy.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- report -----------------------------------------------------------

    def summary(self) -> dict:
        """Every recorded span and count, for the result file."""
        return {
            "spans": {
                name: {
                    "calls": self.calls.get(name, 0),
                    "s": self.seconds[name],
                    "self_s": self.self_seconds.get(name),
                }
                for name in sorted(self.seconds)
            },
            "counts": dict(sorted(self.counts.items())),
            "calls_by_parent": {
                f"{parent} > {name}": n
                for (parent, name), n in sorted(
                    self.parent_calls.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            },
        }


# coxpack.census.Family values at the seed, spelled out because BENCHMARK.json
# names a metric per family
FAMILIES = (
    "from_k4", "from_k4_minus_e", "from_k23", "two_cycles", "cycle",
    "cycle_tail1", "cycle_tail2", "cycle_two_tails", "tree",
)


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced pass, as {name: (value, unit)}."""
    out: dict[str, tuple[float, str]] = {}

    def span(name: str, *fields: str) -> None:
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = (t.calls.get(name, 0), "count")
            elif f == "s":
                out[f"{name}.s"] = (t.seconds.get(name, 0.0), "s")
            else:
                out[f"{name}.self_s"] = (t.self_seconds.get(name, 0.0), "s")

    def count(key: str, unit: str = "count") -> None:
        out[key] = (t.counts.get(key, 0), unit)

    def ratio(key: str, num: float, den: float) -> None:
        out[key] = (num / den if den else 0.0, "ratio")

    span("graphs.CoxeterGraph", "calls", "s")
    span("graphs.gram", "calls", "s")
    span("graphs.canonical_key", "calls", "s")
    span("numpy.eigvalsh", "calls", "s")
    count("numpy.eigvalsh.matrices")
    for name in ("forms.level", "forms.classify_gram", "forms.fundamental_weights"):
        span(name, "calls", "s")
    span("census.enumerate_level1", "s")
    count("census.enumerate_level1.graphs")
    span("census.nominate", "s")
    count("census.nominate.candidates")
    for fam in FAMILIES:
        span(f"census.nominate.{fam}", "s")
        count(f"census.nominate.{fam}.candidates")
    span("census.enumerate_level2", "self_s")
    # each survivor of recognition is re-verified by one direct level() call
    out["census.survivors"] = (
        t.parent_calls.get(("census.enumerate_level2", "forms.level"), 0), "count"
    )
    count("census.entries")
    ratio("census.yield", t.counts.get("census.entries", 0),
          t.counts.get("census.nominate.candidates", 0))
    span("census.write_census_csv", "s")
    count("census.write_census_csv.bytes", "bytes")
    span("tangency.is_strict_level2", "calls", "s")
    span("tangency.chambers_up_to_length", "s")
    count("tangency.chambers_up_to_length.chambers")
    count("tangency.chambers_up_to_length.vertices")
    span("tangency.tangency_graph", "self_s")
    count("tangency.tangency_graph.edges")
    count("tangency.tangency_graph.seen")
    ratio("tangency.chambers_per_edge",
          t.counts.get("tangency.chambers_up_to_length.chambers", 0),
          t.counts.get("tangency.tangency_graph.edges", 0))
    span("tangency.geometric_oracle", "s")
    count("tangency.geometric_oracle.pairs")
    # oracle pairs that the tangency graphs lack: checks.py fails any edge
    # that is not an oracle pair, so this is pairs minus edges
    out["tangency.oracle_missing"] = (
        t.counts.get("tangency.geometric_oracle.pairs", 0)
        - t.counts.get("tangency.tangency_graph.edges", 0),
        "count",
    )
    span("groups.GroupBFS", "s")
    count("groups.GroupBFS.elements")
    span("dedup.VectorStore.add", "calls", "s")
    ratio("dedup.VectorStore.add.new_ratio",
          t.counts.get("dedup.VectorStore.add.new", 0), t.calls.get("dedup.VectorStore.add", 0))
    span("dedup.unique_rows", "calls", "s")
    span("orbits.roots_up_to_depth", "s")
    count("orbits.roots_up_to_depth.records")
    span("orbits.weights_up_to_length", "s")
    count("orbits.weights_up_to_length.records")
    span("orbits.limit_sample", "calls", "s")
    count("orbits.limit_sample.points")
    span("balls.validate_cluster", "s")
    count("balls.validate_cluster.pairs")
    span("balls.cap_of", "calls", "s")
    span("balls.project_packing", "s")
    span("balls.residual_margins", "s")
    count("balls.residual_margins.pairs")
    span("render.svg_packing", "s")
    for cmd in ("roots", "weights", "pack", "enum"):
        span(f"cli.cmd_{cmd}", "self_s")
    count("cli.out_bytes", "bytes")
    return out
