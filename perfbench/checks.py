"""Golden-output checks for the benchmark's operations.

Every function compares one operation's output with the golden values in
golden.json and returns a list of problems; an empty list means the output
is correct.  The functions take plain Python data (parsed JSON, counts), so
they can be tested without running coxpack.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter

# Limit-sample residuals are invariant under vertex relabeling up to
# floating-point reassociation; margins sit near zero, so they get an
# absolute tolerance instead.
RESIDUAL_RTOL = 1e-6
MARGIN_ATOL = 1e-9


def _layer_counts(values, first: int) -> list[int]:
    """Counts per layer, from layer `first` up to the deepest layer present."""
    counts = Counter(values)
    return [counts.get(k, 0) for k in range(first, max(counts, default=first - 1) + 1)]


def _compare(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got}, expected {want}"]


def census_problems(rc: int, summary: str, csv_bytes: bytes, golden: dict) -> list[str]:
    """`coxpack enum` must exit 0, report the golden totals and write the golden CSV."""
    problems = _compare("enum exit code", rc, 0)
    want = f"total={golden['total']} strict={golden['strict']} "
    if not summary.startswith(want):
        problems.append(f"enum summary {summary.strip()!r} does not start with {want!r}")
    digest = hashlib.sha256(csv_bytes).hexdigest()
    problems += _compare("census CSV sha256", digest, golden["csv_sha256"])
    return problems


def roots_problems(doc: dict, per_depth: list[int]) -> list[str]:
    """Root counts per depth 1..D; per_depth[0] is depth 1."""
    records = doc["records"]
    got = _layer_counts((r["depth"] for r in records), 1)
    return _compare("roots per depth", got, per_depth) + _compare(
        "roots count field", doc["count"], len(records)
    )


def weights_problems(doc: dict, per_length: list[int]) -> list[str]:
    """Weight counts per word length 0..L."""
    records = doc["records"]
    got = _layer_counts((r["word_length"] for r in records), 0)
    return _compare("weights per length", got, per_length) + _compare(
        "weights count field", doc["count"], len(records)
    )


def pack_problems(doc: dict, golden: dict) -> list[str]:
    return _compare(
        "pack is_packing", doc["validation"]["is_packing"], golden["is_packing"]
    ) + _compare("pack balls", len(doc["balls"]), golden["balls"])


_SVG_SUMMARY = re.compile(r"<!-- is_packing=(true|false) .*? balls=(\d+) ")


def svg_problems(text: str, golden: dict) -> list[str]:
    """The SVG header repeats the packing summary; the document must be complete."""
    m = _SVG_SUMMARY.search(text)
    if m is None or not text.rstrip().endswith("</svg>"):
        return ["svg output lacks its summary comment or closing tag"]
    return _compare("svg is_packing", m.group(1) == "true", golden["is_packing"]) + _compare(
        "svg balls", int(m.group(2)), golden["balls"]
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RESIDUAL_RTOL, abs_tol=0.0)


def limits_problems(summary: dict, golden: dict) -> list[str]:
    """Shell sizes, dropped points, residuals and residual-set margins.

    Both arguments map "root_shells" and "weight_shells" to {shell: [points,
    dropped, residual]}, and "margins" to [count, min].
    """
    problems = []
    for key in ("root_shells", "weight_shells"):
        problems += _compare(f"{key} shells", sorted(summary[key]), sorted(golden[key]))
        for shell, want in golden[key].items():
            got = summary[key].get(shell)
            if got is None:
                continue
            problems += _compare(f"{key}[{shell}] points/dropped", got[:2], want[:2])
            if not _close(got[2], want[2]):
                problems.append(f"{key}[{shell}] residual {got[2]!r} != {want[2]!r}")
    count, low = summary["margins"]
    problems += _compare("margin count", count, golden["margins"][0])
    if not abs(low - golden["margins"][1]) <= MARGIN_ATOL:
        problems.append(f"min residual margin {low!r} != {golden['margins'][1]!r}")
    return problems


def tangency_problems(got: dict, golden: dict) -> list[str]:
    """Vertex, oracle-pair and edge counts against the seed's.

    `got` counts the tangency edges, the geometric oracle's pairs on the same
    vertices, and the pairs found by only one of them.  Every edge must be an
    oracle pair.  The edge count must equal the oracle's, or, for a graph on
    which the seed already missed oracle pairs, the seed's edge count.
    Strict graphs have no edges.
    """
    problems = _compare("tangency vertices", got["vertices"], golden["vertices"])
    problems += _compare("oracle pairs", got["oracle_pairs"], golden["oracle_pairs"])
    if got["extra"]:
        problems.append(f"{got['extra']} tangency edges are not oracle pairs")
    if got["edges"] not in (golden["oracle_pairs"], golden["edges"]):
        problems.append(
            f"tangency edges: got {got['edges']}, expected {golden['oracle_pairs']}"
        )
    if golden["strict"] and got["edges"]:
        problems.append(f"strict graph has {got['edges']} tangency edges")
    return problems
