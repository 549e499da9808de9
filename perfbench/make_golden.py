"""Record the benchmark's golden values from the coxpack under ./src.

Run from the repository root, at the commit whose outputs are golden:

    python3 perfbench/make_golden.py

It runs the census at every tolerance the census workload can draw
(the CSV must be byte-identical), writes the census graphs to
perfbench/census_pool.csv, computes the orbit outputs of the unrelabeled
acceptance systems and the tangency results of every census graph, and
writes perfbench/golden.json.  Takes about 15 minutes on 2 cores.
"""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads


def _census(tmp: Path) -> dict:
    digests, summaries = set(), set()
    for tol in workloads.CENSUS_TOLS:
        out = tmp / f"census-{tol}.csv"
        rc, summary, err = workloads.quiet_cli(
            ["enum", "--max-rank", "11", "--tol", tol, "--jobs", "1", "--out", str(out)]
        )
        if rc != 0:
            raise SystemExit(f"enum --tol {tol} failed: {err}")
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        summaries.add(" ".join(summary.split()[:2]))
    if len(digests) != 1 or len(summaries) != 1:
        raise SystemExit(f"census differs across tolerances: {digests} {summaries}")
    total, strict = (int(part.split("=")[1]) for part in summaries.pop().split())
    with open(out, newline="") as src, open(workloads.POOL, "w", newline="") as dst:
        writer = csv.writer(dst, lineterminator="\n")
        writer.writerow(["rank", "strict", "edge_list"])
        for row in csv.DictReader(src):
            writer.writerow([row["rank"], row["strict"], row["edge_list"]])
    return {"csv_sha256": digests.pop(), "total": total, "strict": strict}


def _orbits(tmp: Path) -> dict:
    from coxpack import graphs

    golden = {}
    for name, (text, depth, wlen, plen) in workloads.ORBIT_SYSTEMS.items():
        path = tmp / f"{name}.txt"
        path.write_text(text + "\n")
        docs = {}
        for cmd, flag, value in (("roots", "--depth", depth), ("weights", "--length", wlen),
                                 ("pack", "--length", plen)):
            out = tmp / f"{name}-{cmd}.json"
            rc, _, err = workloads.quiet_cli([cmd, str(path), flag, str(value), "--out", str(out)])
            if rc != 0:
                raise SystemExit(f"{cmd} {name} failed: {err}")
            docs[cmd] = json.loads(out.read_text())
        depths = [r["depth"] for r in docs["roots"]["records"]]
        lengths = [r["word_length"] for r in docs["weights"]["records"]]
        golden[name] = {
            "roots_per_depth": [depths.count(d) for d in range(1, max(depths) + 1)],
            "weights_per_length": [lengths.count(k) for k in range(max(lengths) + 1)],
            "pack": {
                "is_packing": docs["pack"]["validation"]["is_packing"],
                "balls": len(docs["pack"]["balls"]),
            },
            "limits": workloads.limits_summary(graphs.parse_compact(text)),
        }
    return golden


def _tangency() -> dict:
    from coxpack import graphs, tangency

    build = tangency.chambers_up_to_length
    chambers = []

    def counting(*args, **kwargs):
        cx = build(*args, **kwargs)
        chambers.append(len(cx.chambers))
        return cx

    tangency.chambers_up_to_length = counting
    out = {}
    try:
        for idx, entry in enumerate(workloads.load_pool()):
            start = perf_counter()
            got = workloads.tangency_op(graphs.parse_compact(entry["graph"]))
            seconds = perf_counter() - start
            if got["extra"]:
                raise SystemExit(f"pool[{idx}]: edges that are not oracle pairs: {got}")
            out[str(idx)] = {
                "rank": entry["rank"],
                "strict": entry["strict"],
                "vertices": got["vertices"],
                "edges": got["edges"],
                "oracle_pairs": got["oracle_pairs"],
                "chambers": chambers[-1],
                "seconds": round(seconds, 3),
            }
            print(f"pool[{idx}] {out[str(idx)]}", flush=True)
    finally:
        tangency.chambers_up_to_length = build
    return out


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    tmp = root / ".bench_out" / "golden"
    tmp.mkdir(parents=True, exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout
    golden = {
        "recorded_at": commit.strip(),
        "census": _census(tmp),
        "orbits": _orbits(tmp),
        "tangency": {"length": workloads.TANGENCY_LENGTH, "graphs": _tangency()},
    }
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
