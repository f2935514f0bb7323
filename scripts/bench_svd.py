"""Time the row kernels, the HSVT decomposition and whole pipeline runs at a
base revision and at the working tree, and write the medians to a JSON file.

    python scripts/bench_svd.py [--base REV] [--repeats 5] [--out BENCH_gram_svd.json]

Every (n, N, p) of the grid is a 3-component Gaussian mixture (sigma 0.3)
with the same spec and seed on both trees. For each one a repeat measures,
with time.perf_counter: sample_mixture of the N rows and mask of them at p,
LAPACK's thin SVD (tests/oracles.py::oracle_thin_svd) of the masked matrix,
pipeline.denoise of the masked batch as run_pipeline calls it, one
run_pipeline call, and single_linkage (automatic t2) of that run's N x r
coordinates, estimate.coords.

Both trees run in one worker process: the working tree's src/ is imported as
rankmix and the base tree's, extracted with `git archive`, as rankmix_base
(no module in src/rankmix imports rankmix by name, so the renamed copy is a
separate package). Each column is CALLS pairs of calls, one base call and one
change call, the tree that goes first alternating from pair to pair, so a
machine whose speed level holds for seconds moves both trees alike; a
column's value is each tree's median over its calls, and "change_faster"
counts the pairs in which the change's call was the faster one, over all
repeats. Each column starts after one PAUSE_S sleep: numpy and scipy may
each link their own OpenBLAS, whose worker threads spin for a while after a
call, and a column timed right after one on the other library would pay for
that spin. Each repeat is a fresh worker, after one untimed warm-up pipeline
run per tree. The base revision must have pipeline.denoise. The script fails
unless both trees sample and mask the same bytes and return the same labels,
k_hat and risk on every grid point.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID = ((15, 180, 0.4), (40, 600, 0.5), (40, 1000, 0.3), (50, 2000, 0.6), (100, 2000, 0.3))
K, SIGMA, SEED = 3, 0.3, 2024
TIMES = ("sample_mixture_s", "mask_s", "oracle_thin_svd_s", "denoise_s", "run_pipeline_s", "single_linkage_s")
OUTCOMES = ("sample_sha256", "mask_sha256", "labels_sha256", "k_hat", "risk")
TREES = ("base", "change")
PACKAGES = {"base": "rankmix_base", "change": "rankmix"}
PAUSE_S = 0.5
CALLS = 5


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout


def _source_sha256(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def worker(base_src: str, base_first: bool) -> None:
    """Measure every grid point once on both trees, calls interleaved; print JSON."""
    sys.path[:0] = [str(ROOT / "src"), base_src, str(ROOT / "tests")]
    import numpy as np

    from oracles import oracle_thin_svd

    trees = {
        name: {module: importlib.import_module(f"{package}.{module}")
               for module in ("clustering", "generators", "pipeline")}
        for name, package in PACKAGES.items()
    }

    def spec_of(tree, n):
        g = tree["generators"]
        return g.MixtureSpec(
            [g.ComponentSpec.gaussian(g.normal_utilities(n, np.random.SeedSequence([SEED, n, c])), SIGMA)
             for c in range(K)],
            weights=[1.0 / K] * K,
        )

    n, N, p = GRID[0]  # warm-up: first calls pay for lazy imports and BLAS thread start
    for tree in trees.values():
        tree["pipeline"].run_pipeline(spec_of(tree, n), N=N, p=p, seed=SEED)
    first, second = TREES if base_first else TREES[::-1]
    out = {}

    def timed(column, call):
        """CALLS interleaved pairs of call(tree); each tree's last result."""
        time.sleep(PAUSE_S)
        results = {}
        for i in range(CALLS):
            for name in (first, second) if i % 2 == 0 else (second, first):
                start = time.perf_counter()
                results[name] = call(trees[name], name)
                seconds[name][column].append(time.perf_counter() - start)
        return results

    def sha256(array):
        return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

    for n, N, p in GRID:
        seconds = {name: {column: [] for column in TIMES} for name in TREES}
        spec = {name: spec_of(tree, n) for name, tree in trees.items()}
        sampled = timed("sample_mixture_s", lambda t, name: t["generators"].sample_mixture(spec[name], N, SEED))
        masked = timed("mask_s", lambda t, name: t["generators"].mask(sampled[name], p, SEED))
        hashes = {name: (sha256(sampled[name].values), sha256(masked[name].values)) for name in TREES}
        del sampled  # both trees' matrices are held at once: keep no more of them than needed
        timed("oracle_thin_svd_s", lambda t, name: oracle_thin_svd(masked[name].values))
        timed("denoise_s", lambda t, name: t["pipeline"].denoise(masked[name]))
        result = timed("run_pipeline_s", lambda t, name: t["pipeline"].run_pipeline(spec[name], N=N, p=p, seed=SEED))
        timed("single_linkage_s", lambda t, name: t["clustering"].single_linkage(result[name].estimate.coords))
        out[f"{n},{N},{p}"] = {
            name: dict(
                seconds=seconds[name],
                sample_sha256=hashes[name][0],
                mask_sha256=hashes[name][1],
                labels_sha256=sha256(np.asarray(result[name].clustering.labels, dtype=np.int64)),
                k_hat=result[name].clustering.k_hat,
                risk=result[name].evaluation.risk,
            )
            for name in TREES
        }
    print(json.dumps(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_gram_svd.json"))
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--base-first", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, bool(args.base_first))
        return 0

    threads = os.environ.get("OPENBLAS_NUM_THREADS") or str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src/rankmix"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        base_src = Path(tmp) / "src"
        (base_src / "rankmix").rename(base_src / PACKAGES["base"])
        for rep in range(args.repeats):
            command = [sys.executable, __file__, "--worker", str(base_src), "--base-first", str(int(rep % 2 == 0))]
            done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout))
            print(f"repeat {rep} done", file=sys.stderr, flush=True)
        digests = {"base": _source_sha256(base_src / PACKAGES["base"]),
                   "change": _source_sha256(ROOT / "src" / "rankmix")}

    grid = []
    for n, N, p in GRID:
        key = f"{n},{N},{p}"
        point = {"n": n, "N": N, "p": p, "d": n * (n - 1) // 2}
        runs_here = [run[key] for run in runs]
        outcomes = {tuple(run[name][o] for o in OUTCOMES) for run in runs_here for name in TREES}
        if len(outcomes) != 1:
            raise SystemExit(f"base and change disagree on samples, masks, labels, k_hat or risk at n,N,p = {key}")
        for name in TREES:
            point[name] = {t: statistics.median(statistics.median(run[name]["seconds"][t]) for run in runs_here)
                           for t in TIMES}
        point["change_faster"] = {
            t: sum(c < b for run in runs_here for b, c in zip(run["base"]["seconds"][t], run["change"]["seconds"][t]))
            for t in TIMES
        }
        point.update(zip(OUTCOMES, next(iter(outcomes))))
        grid.append(point)

    import numpy
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    report = {
        "what": f"median wall seconds over {args.repeats} repeats of each tree's median of {CALLS} calls, "
                f"base and change calls interleaved in one process; change_faster counts the "
                f"{args.repeats * CALLS} base/change pairs in which the change was faster; inputs: "
                f"{K}-component Gaussian mixture, sigma {SIGMA}, seed {SEED}; sampled and masked values, "
                "labels, k_hat and risk equal on both trees; denoise_s is pipeline.denoise as run_pipeline "
                "calls it",
        "environment": {
            "host": platform.node(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas": blas(numpy.__config__.CONFIG),
            "scipy_blas": blas(scipy.__config__.CONFIG),
            "blas_threads": int(threads),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "base": {"rev": args.base, "git_sha": _git("rev-parse", args.base).strip(),
                 "source_sha256": digests["base"]},
        "change": {"git_sha": _git("rev-parse", "HEAD").strip(),
                   "uncommitted_changes": bool(_git("status", "--porcelain", "src").strip()),
                   "source_sha256": digests["change"]},
        "grid": grid,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for point in grid:
        b, c, wins = point["base"], point["change"], point["change_faster"]
        print(f"n={point['n']:>3} N={point['N']:>4} p={point['p']}: "
              + ", ".join(f"{t[:-2]} {b[t]:.4f} -> {c[t]:.4f} s ({wins[t]}/{args.repeats * CALLS})"
                          for t in TIMES if t != "oracle_thin_svd_s"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
