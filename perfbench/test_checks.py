"""Tests of the benchmark's golden checks and failure accounting.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
They need no coxpack computation and take well under a second.
"""

import copy
import hashlib
import json
from pathlib import Path

import checks
import run
import tracer
import workloads

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _roots_doc(per_depth):
    records = [
        {"coords": [1.0], "depth": d, "height": 1.0, "projective": None}
        for d, n in enumerate(per_depth, 1)
        for _ in range(n)
    ]
    return {"count": len(records), "records": records}


def test_roots_golden_passes_and_dropped_record_fails():
    golden = [4, 6, 12]
    doc = _roots_doc(golden)
    assert checks.roots_problems(doc, golden) == []
    dropped = copy.deepcopy(doc)
    dropped["records"].pop()
    dropped["count"] -= 1
    assert checks.roots_problems(dropped, golden)
    deeper = copy.deepcopy(doc)
    deeper["records"].append(dict(doc["records"][-1], depth=4))
    deeper["count"] += 1
    assert checks.roots_problems(deeper, golden)


def test_weights_count_field_must_match_records():
    golden = [4, 4, 8]
    records = [{"word_length": k} for k, n in enumerate(golden) for _ in range(n)]
    assert checks.weights_problems({"count": 16, "records": records}, golden) == []
    assert checks.weights_problems({"count": 17, "records": records}, golden)


def test_pack_and_svg():
    golden = {"is_packing": True, "balls": 3}
    doc = {"validation": {"is_packing": True}, "balls": [{}, {}, {}]}
    assert checks.pack_problems(doc, golden) == []
    assert checks.pack_problems(dict(doc, balls=[{}, {}]), golden)
    svg = "<?xml?>\n<!-- is_packing=true min_separation=1.0 balls=3 orbit_length=6 -->\n</svg>\n"
    assert checks.svg_problems(svg, golden) == []
    assert checks.svg_problems(svg.replace("balls=3", "balls=2"), golden)
    assert checks.svg_problems(svg.replace("</svg>", ""), golden)


def test_census_hash_and_summary():
    data = b"key,rank\n"
    golden = {"csv_sha256": hashlib.sha256(data).hexdigest(), "total": 326, "strict": 42}
    summary = "total=326 strict=42 ranks=5:189 out=x\n"
    assert checks.census_problems(0, summary, data, golden) == []
    assert checks.census_problems(0, summary, data[:-1], golden)
    assert checks.census_problems(0, "total=325 strict=42 ranks=", data, golden)
    assert checks.census_problems(7, summary, data, golden)


def test_limits_shells_and_margins():
    golden = {
        "root_shells": {"4": [108, 0, 0.25]},
        "weight_shells": {"4": [108, 0, 0.5]},
        "margins": [108, -1e-14],
    }
    good = copy.deepcopy(golden)
    good["root_shells"]["4"][2] *= 1 + 1e-9
    assert checks.limits_problems(good, golden) == []
    dropped = copy.deepcopy(golden)
    dropped["root_shells"]["4"][0] = 107
    assert checks.limits_problems(dropped, golden)
    missing = copy.deepcopy(golden)
    del missing["weight_shells"]["4"]
    assert checks.limits_problems(missing, golden)


def test_tangency_accepts_seed_or_complete_edges_only():
    complete = {"vertices": 28, "edges": 80, "oracle_pairs": 80, "strict": False}
    seed_incomplete = dict(complete, edges=78)

    def got(edges, extra=0):
        return {"vertices": 28, "edges": edges, "oracle_pairs": 80,
                "missing": 80 - edges + extra, "extra": extra}

    assert checks.tangency_problems(got(80), complete) == []
    assert checks.tangency_problems(got(79), complete)
    assert checks.tangency_problems(got(78), seed_incomplete) == []
    assert checks.tangency_problems(got(80), seed_incomplete) == []
    assert checks.tangency_problems(got(77), seed_incomplete)
    assert checks.tangency_problems(got(80, extra=1), complete)
    strict = {"vertices": 5, "edges": 0, "oracle_pairs": 0, "strict": True}
    assert checks.tangency_problems(
        {"vertices": 5, "edges": 1, "oracle_pairs": 0, "missing": 0, "extra": 1}, strict
    )


def test_corrupted_output_counts_as_failed_op_and_run_goes_on():
    golden = [4, 6, 12]
    good = _roots_doc(golden)
    corrupted = copy.deepcopy(good)
    corrupted["records"].pop(3)

    def boom():
        raise RuntimeError("op crashed")

    ops = [
        workloads.Op("roots", "good", lambda: good, lambda d: checks.roots_problems(d, golden)),
        workloads.Op("roots", "dropped", lambda: corrupted,
                     lambda d: checks.roots_problems(d, golden)),
        workloads.Op("roots", "raises", boom, lambda d: []),
        workloads.Op("weights", "after", lambda: None, lambda d: []),
    ]
    p = run.run_pass(ops, run.HostSpeed())
    assert (p.attempted, p.failed) == (4, 2)
    assert len(p.op_s) == len(p.ref_s) == 4
    for kinds in run.typical_pass(ops, [p, p]):
        assert kinds.keys() == {"roots", "weights"}
    assert any(msg.startswith("dropped: roots per depth") for msg in p.problems)


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    metrics = run.per_layer_metrics(tracer.Tracer(), {}, 0.0, 0.0, 0.0, 0.0)
    names = list(metrics)
    assert names == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, (_, unit) in metrics.items():
        assert units[name] == unit, name
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_ref", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_cost_is_time_in_loops_sampled_around_the_operation():
    speed = run.HostSpeed()
    speed.loop_s = [1.0] * 6 + [4.0] * 2 + [1.0] * 6
    # the two samples inside the operation, and SAMPLE_PAD on either side
    assert speed.reference(6, 8) == (2 * 4.0 + 2 * run.SAMPLE_PAD * 1.0) / (2 + 2 * run.SAMPLE_PAD)
    assert run.Pass(op_s=[3.0], ref_s=[0.5]).cost(0) == 6.0
