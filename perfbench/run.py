"""rankmix benchmark: time the public entry points on three workloads.

    python3 perfbench/run.py --workload pipeline_gauss --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the run times whole operations (see ``workloads.py``) for
``--seconds`` seconds, checks each one, and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced runs of the same
operations and reports per-layer self times and computed counts (see
``spans.py``), plus the tracing overhead. Every run prints a readable report
and the machine it ran on, then, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs each workload in its own process. Scratch files go to
``.bench_out/`` and are removed, except the span file of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"
NAMES = ("pipeline_gauss", "exp2_sweep", "cli_mallows")

MIN_OPS = 3  # an untraced run times at least this many operations
COUNT_OPS = 2  # a traced run traces at least this many; counts come from these
SETUP_PROBES = 3  # fresh processes whose set-up time gives setup_s (median)
TAIL_BEYOND = 10  # op_s.tail: the highest percentile with this many ops above it


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Use at most nproc BLAS threads; must run before numpy is imported."""
    limit = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rankmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
    }


@contextmanager
def scoring_tap(evaluations: list):
    """Record the (predicted, truth) label pairs every pipeline scores, so the
    checks can recompute risk and the true component count."""
    from rankmix import pipeline

    original = pipeline.misclassification_rate

    def tap(predicted, truth, *args, **kwargs):
        evaluations.append((list(predicted), list(truth)))
        return original(predicted, truth, *args, **kwargs)

    pipeline.misclassification_rate = tap
    try:
        yield
    finally:
        pipeline.misclassification_rate = original


def timed_op(workload, op: int, tracer=None):
    evaluations: list = []
    with scoring_tap(evaluations), tracer.installed(op) if tracer else nullcontext():
        start = time.perf_counter()
        output = workload.run(op)
        elapsed = time.perf_counter() - start
    return elapsed, workload.check(op, output, evaluations)


def probe_setup(name: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), repr(start)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def tail(times: list):
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above it."""
    if len(times) <= TAIL_BEYOND:
        return None
    ordered = sorted(times)
    return ordered[-TAIL_BEYOND - 1], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)


class Tally:
    """Attempted and failed operations; failures print their traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # one bad op must not stop the run: count it, show it
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def add_failures(self, messages: list):
        for message in messages:
            self.failed += 1
            print(f"perfbench: check failed: {message}", file=sys.stderr)


def measure(workload, seconds: float, tally: Tally) -> dict:
    times, risks, k_exact, rows = [], [], [], 0
    start = time.perf_counter()
    op = 0
    while op < MIN_OPS or time.perf_counter() - start < seconds:
        result = tally.run(timed_op, workload, op)
        if result is not None:
            elapsed, outcome = result
            times.append(elapsed)
            rows += outcome.rows
            risks.extend(outcome.risks)
            k_exact.extend(outcome.k_exact)
        op += 1
    tally.add_failures(workload.finish())
    if not times:
        return {}
    risk = statistics.fmean(risks)
    found = tail(times)
    report = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (found[0], f"s at p{found[1]:.1f}") if found else (None, f"s: {len(times)} ops, too few"),
        "rows_per_s": (rows / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "risk.mean": (risk, "share"),
        "accuracy.mean": (1.0 - risk, "share"),
        "k_hat.exact": (statistics.fmean(k_exact), "share"),
        "fail.share": (tally.failed / tally.attempted, "share"),
        "ok.share": (1.0 - tally.failed / tally.attempted, "share"),
        "ops": (len(times), "count"),
        "op_times": times,
    }
    return report


def measure_traced(workload, seconds: float, tally: Tally, tracer) -> dict:
    untraced, traced = [], []
    start = time.perf_counter()
    pair = 0
    while pair < COUNT_OPS or time.perf_counter() - start < seconds:
        for with_trace in (False, True) if pair % 2 == 0 else (True, False):
            result = tally.run(timed_op, workload, pair, tracer if with_trace else None)
            if result is not None:
                (traced if with_trace else untraced).append(result[0])
        pair += 1
    tally.add_failures(workload.finish())
    if not traced or not untraced:
        return {}
    ops = pair
    self_t = tracer.self_times()
    layer = tracer.layer_times()
    first = range(COUNT_OPS)
    counts = {}
    for op in first:
        for key, value in tracer.counts[op].items():
            counts[key] = counts.get(key, 0) + value
    all_rows = sum(c["generators.rows"] for c in tracer.counts.values())
    sampling = tracer.inclusive_time({"generators.sample_mixture", "generators.sample_embedded_batch"})

    def per_count_op(key):
        return counts.get(key, 0) / COUNT_OPS

    return {
        "generators.self.s": (layer["generators"] / ops, "s"),
        "generators.sample_mixture.s": (self_t["generators.sample_mixture"] / ops, "s"),
        "generators.sample_embedded_batch.s": (self_t["generators.sample_embedded_batch"] / ops, "s"),
        "generators.mask.s": (self_t["generators.mask"] / ops, "s"),
        "generators.rows_per_s": (all_rows / sampling, "1/s"),
        "rankings.embed.s": (self_t["rankings.embed"] / ops, "s"),
        "rankings.embed.calls": (tracer.calls({"rankings.embed"}, first) / COUNT_OPS, "count"),
        "estimation.self.s": (layer["estimation"] / ops, "s"),
        "estimation.stack.s": (self_t["estimation.stack"] / ops, "s"),
        "estimation.compute_svd.s": (self_t["estimation.compute_svd"] / ops, "s"),
        "estimation.svd.values_computed": (per_count_op("estimation.svd.values_computed"), "count"),
        "estimation.svd.flops": (per_count_op("estimation.svd.flops"), "flop"),
        "estimation.hsvt.s": (self_t["estimation.hsvt"] / ops, "s"),
        "estimation.m_hat.bytes": (per_count_op("estimation.m_hat.bytes"), "B"),
        "clustering.self.s": (layer["clustering"] / ops, "s"),
        "clustering.select_t2.s": (self_t["clustering.select_t2"] / ops, "s"),
        "clustering.single_linkage.s": (self_t["clustering.single_linkage"] / ops, "s"),
        "clustering.calls": (
            tracer.calls({"clustering.select_t2", "clustering.single_linkage"}, first) / COUNT_OPS, "count"
        ),
        "clustering.dist_coords": (per_count_op("clustering.dist_coords"), "count"),
        "clustering.bytes_scanned": (per_count_op("clustering.bytes_scanned"), "B"),
        "evaluation.self.s": (layer["evaluation"] / ops, "s"),
        "evaluation.misclassification_rate.s": (self_t["evaluation.misclassification_rate"] / ops, "s"),
        "fileio.self.s": (layer["fileio"] / ops, "s"),
        "fileio.write_matrix.s": (self_t["fileio.write_matrix"] / ops, "s"),
        "fileio.read_matrix.s": (self_t["fileio.read_matrix"] / ops, "s"),
        "fileio.bytes": (per_count_op("fileio.bytes"), "B"),
        "pipeline.self.s": (layer["pipeline"] / ops, "s"),
        "experiments.self.s": (layer["experiments"] / ops, "s"),
        "cli.self.s": (layer["cli"] / ops, "s"),
        "trace.op.s": (statistics.fmean(traced), "s"),
        "trace.accounted": (sum(layer.values()) / ops / statistics.fmean(traced), "ratio"),
        "trace.overhead": (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "rankmix" / "__init__.py").is_file():
        print(f"perfbench: no rankmix sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in NAMES
        ]
        return max(codes)

    threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import rankmix

    if Path(rankmix.__file__).resolve().parent != (SRC / "rankmix").resolve():
        print(f"perfbench: imported rankmix from {rankmix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    print("# environment " + json.dumps(environment(threads)), flush=True)
    setup = None if args.trace else probe_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    tally = Tally()
    try:
        if args.trace:
            tracer = Tracer()
            report = measure_traced(workload, args.seconds, tally, tracer)
            tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            report = measure(workload, args.seconds, tally)
            if report:
                report["setup_s"] = (statistics.median(setup), f"s (median of {len(setup)})")
    finally:
        workload.close()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} attempted={tally.attempted} failed={tally.failed}")
    if "op_times" in report:
        print("# op_s " + " ".join(f"{t:.4f}" for t in report.pop("op_times")))
    for name, (value, unit) in report.items():
        print(f"{name:40s} {'-' if value is None else format(value, '.6g'):>14s} {unit}")
    if not report:
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]} for m in declared}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
