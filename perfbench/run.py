"""coxpack benchmark: the census, orbits and tangency workloads.

Run from the root of a checkout (it imports coxpack from ./src):

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

The seed generates the workload's inputs.  Load is a closed loop from this
one process: a pass runs the workload's operations one after another, each
starting when the previous one has finished, and passes repeat while the
next one, if as long as the longest so far, would end within `--seconds`
(at least one pass).  While the passes run, the host's speed is sampled
(HostSpeed); an operation's cost is its time in units of the sampled loop,
and `wall_ref` sums each operation's median cost over the passes.  Every
output is checked against golden values recorded at the seed commit; a
mismatch, an exception or a non-zero exit status counts as a failed
operation and the run goes on.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (BENCHMARK.json `end_to_end`).  With `--trace 1` the
same untraced passes run, then one more pass with every public coxpack
function wrapped in a span (tracer.py), and the JSON object carries the
per-layer metrics.  Lines before it list every metric with its unit, and
a result file with an environment stamp goes to
.bench_out/results/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
OP_KINDS = ("roots", "weights", "pack", "limits", "tangency_small", "tangency_large")
SETUP_RUNS = 11
SAMPLE_INTERVAL_S = 0.02
SAMPLE_LOOP = 10_000  # iterations; about 0.6 ms on a 2-core Xeon VM
SAMPLE_PAD = 4

# Times set-up in a fresh interpreter: the import of coxpack (and numpy)
# plus input generation.  argv: bench dir, src dir, workload, seed, workdir.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]), workloads.Path(sys.argv[5]))
print(time.perf_counter() - t0)
"""


class HostSpeed:
    """Samples the host's speed while operations run.

    On a shared host the processor's speed drifts by tens of percent for
    seconds to minutes at a time, so that a whole run can fall in a slow
    spell.  While installed, a timer signal interrupts the program every
    SAMPLE_INTERVAL_S to time a fixed pure-Python loop of SAMPLE_LOOP
    iterations.  An operation's time (less the loops run inside it) divided
    by the mean loop time sampled during it, and SAMPLE_PAD samples on
    either side, is its cost in loop units: it follows the program rather
    than the host.
    """

    def __init__(self) -> None:
        self.loop_s: list[float] = []

    def sample(self, *_signal) -> None:
        start = perf_counter()
        total = 0
        for i in range(SAMPLE_LOOP):
            total += i * i
        self.loop_s.append(perf_counter() - start)

    def reference(self, first: int, end: int) -> float:
        """Mean loop seconds of samples first..end-1, with SAMPLE_PAD more on either side."""
        return statistics.fmean(self.loop_s[max(0, first - SAMPLE_PAD):end + SAMPLE_PAD])

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Pass:
    wall_s: float = 0.0
    op_s: list[float] = field(default_factory=list)  # per operation, less sampling
    ref_s: list[float] = field(default_factory=list)  # mean sampled loop time per operation
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def cost(self, i: int) -> float:
        """Operation i's time in units of the sampled loop."""
        return self.op_s[i] / self.ref_s[i]


def run_pass(ops: list[workloads.Op], speed: HostSpeed) -> Pass:
    """Run every operation once; only the calls into coxpack are timed."""
    p = Pass()
    speed.sample()  # so that every operation has samples around it
    spans = []
    for op in ops:
        p.attempted += 1
        first = len(speed.loop_s)
        start = perf_counter()
        try:
            result = op.call()
        except Exception:  # a failing operation is counted; the run goes on
            elapsed, end = perf_counter() - start, len(speed.loop_s)
            found = [traceback.format_exc(limit=3).strip()]
        else:
            elapsed, end = perf_counter() - start, len(speed.loop_s)
            try:
                found = op.check(result)
            except Exception:  # malformed output
                found = [traceback.format_exc(limit=3).strip()]
            del result
        spans.append((first, end))
        elapsed -= sum(speed.loop_s[first:end])
        p.op_s.append(elapsed)
        p.wall_s += elapsed
        if found:
            p.failed += 1
            p.problems += [f"{op.label}: {msg}" for msg in found]
    speed.sample()
    p.ref_s = [speed.reference(first, end) for first, end in spans]
    return p


def closed_loop(ops: list[workloads.Op], seconds: float, speed: HostSpeed) -> list[Pass]:
    """Passes until the next one, as long as the slowest so far, would end past `seconds`."""
    passes: list[Pass] = []
    start = perf_counter()
    longest = 0.0
    while not passes or perf_counter() - start + longest <= seconds:
        began = perf_counter()
        passes.append(run_pass(ops, speed))
        longest = max(longest, perf_counter() - began)
    return passes


def typical_pass(ops: list[workloads.Op], passes: list[Pass]) -> tuple[dict, dict]:
    """Per operation kind: seconds and cost in loop units.

    Each sums the kind's operations' medians over the passes.
    """
    kind_s: dict[str, float] = {}
    kind_ref: dict[str, float] = {}
    for i, op in enumerate(ops):
        kind_s[op.kind] = kind_s.get(op.kind, 0.0) + statistics.median(p.op_s[i] for p in passes)
        kind_ref[op.kind] = kind_ref.get(op.kind, 0.0) + statistics.median(
            p.cost(i) for p in passes
        )
    return kind_s, kind_ref


def setup_seconds(workload: str, seed: int, src: Path, workdir: Path) -> list[float]:
    """Set-up time of SETUP_RUNS fresh interpreters, each waited for."""
    argv = [sys.executable, "-c", _SETUP_PROBE, str(HERE), str(src), workload, str(seed),
            str(workdir / "setup-probe")]
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def per_layer_metrics(t: tracer.Tracer, kind_ref: dict[str, float], wall_s: float,
                      reference: float, cpu_s: float,
                      overhead_ref: float) -> dict[str, tuple[float, str]]:
    out = tracer.layer_metrics(t)
    out["process.wall_s"] = (wall_s, "s")
    out["process.reference_s"] = (reference, "s")
    out["process.cpu_s"] = (cpu_s, "s")
    out["process.trace_overhead_ref"] = (overhead_ref, "ref")
    for kind in OP_KINDS:
        out[f"{kind}_ref"] = (kind_ref.get(kind, 0.0), "ref")
    return out


def _blas_threads() -> int | None:
    """Thread count of numpy's OpenBLAS, asked of the loaded library."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(root: Path, seed: int, load_1m: float) -> dict:
    import numpy

    try:
        # the checkout may not be a repository; never read one above it
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "coxpack").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "load_1m_at_start": load_1m,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_1m = os.getloadavg()[0]
    root = Path.cwd()
    src = root / "src"
    if not (src / "coxpack" / "__init__.py").is_file():
        print(f"error: no coxpack sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    out_dir = root / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = workloads.setup(args.workload, args.seed, workdir)
        stamp = environment(root, args.seed, load_1m)
        with HostSpeed() as speed:
            passes = closed_loop(ops, args.seconds, speed)
        reference = statistics.median(speed.loop_s)
        kind_s, kind_ref = typical_pass(ops, passes)
        wall, cost = sum(kind_s.values()), sum(kind_ref.values())
        trace_summary = setup = None
        if args.trace:
            t = tracer.Tracer()
            cpu0 = os.times()
            t.install()
            try:
                with HostSpeed() as traced_speed:
                    traced = run_pass(ops, traced_speed)
            finally:
                t.uninstall()
            cpu1 = os.times()
            cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
            passes.append(traced)
            traced_cost = sum(traced.cost(i) for i in range(len(ops)))
            metrics = per_layer_metrics(t, kind_ref, wall, reference, cpu_s, traced_cost - cost)
            trace_summary = t.summary()
        else:
            setup = setup_seconds(args.workload, args.seed, src, workdir)
            metrics = {
                "wall_ref": (cost, "ref"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": stamp,
        "ops": [op.label for op in ops],
        "setup_runs_s": setup,
        "passes": [{"wall_s": p.wall_s, "op_s": p.op_s, "ref_s": p.ref_s, "failed": p.failed}
                   for p in passes],
        "op_kind_s": kind_s,
        "op_kind_ref": kind_ref,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": trace_summary,
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=1) + "\n")

    for msg in problems:
        print(f"FAILED {msg}")
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"load_1m={load_1m:.2f} result={result_file.relative_to(root)}")
    print(f"error_rate {failed / attempted} ratio ({failed}/{attempted} ops)")
    if not args.trace:
        print(f"wall_s {wall} s")
        for kind in kind_s:
            print(f"{kind}_s {kind_s[kind]} s")
            print(f"{kind}_ref {kind_ref[kind]} ref")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
