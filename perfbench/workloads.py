"""Workloads: seeded input generation, the timed operations and their checks.

`setup(workload, seed, workdir)` turns a seed into inputs and returns the
operations of one pass.  Each operation calls into coxpack's public
interface; its result is compared with golden values recorded at the seed
commit (golden.json) by the functions in checks.py.  coxpack is imported
inside `setup`, never at module level, so that timing `setup` in a fresh
process covers the import of coxpack and numpy.

Operations look coxpack functions up through their modules at call time,
so the tracer's wrappers are used when a traced pass is running.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
POOL = HERE / "census_pool.csv"

WORKLOADS = ("census", "orbits", "tangency")

# The census CSV is byte-identical at each of these zero tolerances.
CENSUS_TOLS = ("5e-4", "1e-3", "2e-3")

# The acceptance limit systems: name -> (compact graph, roots depth,
# weights length, pack length).  Slowly growing orbits go deeper so each
# system costs about the same.
ORBIT_SYSTEMS = {
    "universal4": ("n=4; 0-1:inf 0-2:inf 0-3:inf 1-2:inf 1-3:inf 2-3:inf", 7, 6, 6),
    "complete4": ("n=4; 0-1:4 0-2:4 0-3:4 1-2:4 1-3:4 2-3:4", 8, 6, 6),
    "cycle5": ("n=5; 0-1:4 0-4:4 1-2:4 2-3:4 3-4:4", 9, 7, 7),
    "star": ("n=4; 0-3:inf 1-3:inf 2-3:inf", 10, 8, 8),
}
SVG_SYSTEM = "complete4"
LIMIT_ROOT_SHELLS = (3, 5, 7)
LIMIT_WEIGHT_SHELLS = (3, 5)
MARGIN_WEIGHT_LENGTH = 5

TANGENCY_LENGTH = 5
# Strata of the sample: (membership test on a golden entry, graphs drawn).
# Ranks 5-7 are "small" and 9 "large"; ranks 8, 10 and 11 are never drawn
# (a rank-10 or rank-11 graph alone takes 13-29 s).  At a given rank the
# cost of a graph grows with the chambers its sweep visits, so a stratum
# draws only among graphs whose chamber count lies within CHAMBER_BAND of
# the stratum's median: every seed asks for about the same work.
TANGENCY_STRATA = (
    (lambda e: e["rank"] == 5 and not e["strict"], 1),
    (lambda e: e["rank"] == 6 and not e["strict"], 1),
    (lambda e: e["rank"] == 7 and not e["strict"], 1),
    (lambda e: e["rank"] <= 7 and e["strict"], 1),
    (lambda e: e["rank"] == 9, 1),
)
CHAMBER_BAND = 0.05


@dataclass
class Op:
    """One timed call into coxpack and the golden check of its result."""

    kind: str  # per-kind seconds are summed over ops of one kind
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def load_pool() -> list[dict]:
    """The 326 census graphs, in the order of the seed's census CSV."""
    with open(POOL, newline="") as fh:
        return [
            {"rank": int(r["rank"]), "strict": r["strict"] == "true", "graph": r["edge_list"]}
            for r in csv.DictReader(fh)
        ]


def relabel(g, rng: random.Random):
    """The same graph under a random permutation of its vertices."""
    from coxpack import graphs

    perm = list(range(g.rank))
    rng.shuffle(perm)
    return graphs.CoxeterGraph(g.rank, tuple((perm[u], perm[v], lab) for u, v, lab in g.edges))


def setup(workload: str, seed: int, workdir: Path) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    import coxpack.cli  # noqa: F401  set-up covers importing the whole program

    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    golden = load_golden()
    return {"census": _census, "orbits": _orbits, "tangency": _tangency}[workload](
        rng, workdir, golden
    )


def quiet_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the coxpack command line in-process, capturing what it prints."""
    from coxpack import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_op(kind: str, label: str, argv: list[str], out: Path, check) -> Op:
    argv = argv + ["--out", str(out)]

    def verify(result) -> list[str]:
        rc, _, err = result
        if rc != 0:
            return [f"exit code {rc}: {err.strip()}"]
        return check(out)

    return Op(kind, label, lambda: quiet_cli(argv), verify)


def _json_check(fn, golden):
    return lambda path: fn(json.loads(path.read_text()), golden)


def _census(rng: random.Random, workdir: Path, golden: dict) -> list[Op]:
    tol = rng.choice(CENSUS_TOLS)
    out = workdir / "census.csv"
    argv = ["enum", "--max-rank", "11", "--tol", tol, "--jobs", "1", "--out", str(out)]

    def verify(result) -> list[str]:
        rc, summary, _ = result
        return checks.census_problems(rc, summary, out.read_bytes(), golden["census"])

    return [Op("census", f"enum --tol {tol}", lambda: quiet_cli(argv), verify)]


def _orbits(rng: random.Random, workdir: Path, golden: dict) -> list[Op]:
    from coxpack import graphs

    ops = []
    for name, (text, depth, wlen, plen) in ORBIT_SYSTEMS.items():
        g = relabel(graphs.parse_compact(text), rng)
        path = workdir / f"{name}.txt"
        path.write_text(graphs.to_compact(g) + "\n")
        gold = golden["orbits"][name]
        ops.append(_cli_op(
            "roots", f"roots {name} --depth {depth}",
            ["roots", str(path), "--depth", str(depth)], workdir / f"{name}-roots.json",
            _json_check(checks.roots_problems, gold["roots_per_depth"]),
        ))
        ops.append(_cli_op(
            "weights", f"weights {name} --length {wlen}",
            ["weights", str(path), "--length", str(wlen)], workdir / f"{name}-weights.json",
            _json_check(checks.weights_problems, gold["weights_per_length"]),
        ))
        ops.append(_cli_op(
            "pack", f"pack {name} --length {plen}",
            ["pack", str(path), "--length", str(plen)], workdir / f"{name}-pack.json",
            _json_check(checks.pack_problems, gold["pack"]),
        ))
        if name == SVG_SYSTEM:
            ops.append(_cli_op(
                "pack", f"pack {name} --length {plen} --format svg",
                ["pack", str(path), "--length", str(plen), "--format", "svg"],
                workdir / f"{name}-pack.svg",
                lambda p, gold=gold: checks.svg_problems(p.read_text(), gold["pack"]),
            ))
        ops.append(Op(
            "limits", f"limits {name}", lambda g=g: limits_summary(g),
            lambda result, gold=gold: checks.limits_problems(result, gold["limits"]),
        ))
    return ops


def limits_summary(g) -> dict:
    """Criterion-7 library path: limit samples over several shells, then margins."""
    from coxpack import balls, orbits

    def shell(sample) -> list:
        return [len(sample.points), sample.dropped_zero_height, sample.quadratic_residual]

    roots = {d: orbits.limit_sample(g, orbits.RootSource(d)) for d in LIMIT_ROOT_SHELLS}
    weights = {
        L: orbits.limit_sample(g, orbits.WeightSource(L)) for L in LIMIT_WEIGHT_SHELLS
    }
    spacelike = [
        w
        for w in orbits.weights_up_to_length(g, MARGIN_WEIGHT_LENGTH)
        if w.klass is orbits.VectorClass.SPACE_LIKE
    ]
    deepest = roots[max(LIMIT_ROOT_SHELLS)].points
    margins = balls.residual_margins(deepest, spacelike, g.gram)
    return {
        "root_shells": {str(d): shell(s) for d, s in roots.items()},
        "weight_shells": {str(L): shell(s) for L, s in weights.items()},
        "margins": [int(margins.size), float(margins.min())],
    }


def tangency_sample(golden: dict, rng: random.Random) -> list[int]:
    """Pool indices of a rank-stratified sample of near-equal chamber counts.

    Each stratum contributes its count of graphs, drawn without replacement
    among its members whose chamber count is within CHAMBER_BAND of the
    members' median.
    """
    drawn = []
    for accept, k in TANGENCY_STRATA:
        members = [int(i) for i, e in golden.items() if accept(e)]
        middle = statistics.median(golden[str(i)]["chambers"] for i in members)
        band = [i for i in members
                if abs(golden[str(i)]["chambers"] - middle) <= CHAMBER_BAND * middle]
        drawn += rng.sample(band, k)
    return drawn


def _tangency(rng: random.Random, workdir: Path, golden: dict) -> list[Op]:
    from coxpack import graphs

    pool = load_pool()
    gold = golden["tangency"]["graphs"]
    ops = []
    for idx in tangency_sample(gold, rng):
        entry = pool[idx]
        g = relabel(graphs.parse_compact(entry["graph"]), rng)
        kind = "tangency_small" if entry["rank"] <= 7 else "tangency_large"
        ops.append(Op(
            kind, f"tangency pool[{idx}] rank {entry['rank']}",
            lambda g=g: tangency_op(g),
            lambda got, want=gold[str(idx)]: checks.tangency_problems(got, want),
        ))
    return ops


def tangency_op(g) -> dict:
    """tangency_graph at the benchmark length, then the geometric oracle on its vertices."""
    from coxpack import orbits, tangency

    tg = tangency.tangency_graph(g, TANGENCY_LENGTH)
    records = [
        orbits.WeightRecord(v.vector, v.word_length, v.norm, orbits.VectorClass.SPACE_LIKE, v.color)
        for v in tg.vertices
    ]
    pairs = tangency.geometric_oracle(records, g.gram)
    ids = [v.id for v in tg.vertices]
    oracle = {(min(ids[a], ids[c]), max(ids[a], ids[c])) for a, c in pairs}
    edges = tg.edge_set()
    return {
        "vertices": len(tg.vertices),
        "edges": len(edges),
        "oracle_pairs": len(oracle),
        "missing": len(oracle - edges),
        "extra": len(edges - oracle),
    }
