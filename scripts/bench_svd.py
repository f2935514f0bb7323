"""Time the row kernels, the HSVT decomposition and whole pipeline runs at a
base revision and at the working tree, and write the medians to a JSON file.

    python scripts/bench_svd.py [--base REV] [--repeats 5] [--out BENCH_gram_svd.json]

Every (n, N, p) of the grid is a 3-component Gaussian mixture (sigma 0.3)
with the same spec and seed on both trees. For each one a repeat measures,
with time.perf_counter: sample_mixture of the N rows and mask of them at p,
LAPACK's thin SVD (tests/oracles.py::oracle_thin_svd) of the masked matrix,
rankmix's compute_svd of it as an ObservationMatrix, one run_pipeline
call, and single_linkage (automatic t2) of that run's N x r coordinates,
estimate.coords. compute_svd is called as run_pipeline calls it: for the singular
values the automatic threshold rule reads, on a tree whose estimation
module has _values_read, and for all of them otherwise. Each column is
the median of CALLS back-to-back calls, which drops an odd slow call, such
as a first call that pays for waking up after the sleep; a machine whose
speed level holds for seconds still moves a whole column. Each column
starts after one PAUSE_S sleep: numpy and scipy may each link their
own OpenBLAS, whose worker threads spin for a while after a call, and a
column timed right after one on the other library would pay for that spin.
Each repeat runs in a fresh process per tree, after one untimed warm-up
pipeline run, and the tree that runs first alternates between repeats.
The base tree's src/ is extracted with `git archive`. The script fails
unless both trees sample and mask the same bytes and return the same labels,
k_hat and risk on every grid point.
"""

from __future__ import annotations

import argparse
import hashlib
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
TIMES = ("sample_mixture_s", "mask_s", "oracle_thin_svd_s", "compute_svd_s", "run_pipeline_s", "single_linkage_s")
OUTCOMES = ("sample_sha256", "mask_sha256", "labels_sha256", "k_hat", "risk")
PAUSE_S = 0.5
CALLS = 5


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "rankmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def worker(src: str) -> None:
    """Measure every grid point once with rankmix imported from src; print JSON."""
    sys.path[:0] = [src, str(ROOT / "tests")]
    import numpy as np

    from oracles import oracle_thin_svd
    from rankmix import estimation
    from rankmix.clustering import single_linkage
    from rankmix.estimation import ObservationMatrix
    from rankmix.generators import ComponentSpec, MixtureSpec, mask, normal_utilities, sample_mixture
    from rankmix.pipeline import run_pipeline

    def spec_of(n):
        return MixtureSpec(
            [ComponentSpec.gaussian(normal_utilities(n, np.random.SeedSequence([SEED, n, c])), SIGMA)
             for c in range(K)],
            weights=[1.0 / K] * K,
        )

    n, N, p = GRID[0]  # warm-up: first calls pay for lazy imports and BLAS thread start
    run_pipeline(spec_of(n), N=N, p=p, seed=SEED)
    values_read = getattr(estimation, "_values_read", None)  # absent before the top-K eigensolve
    out = {}

    def timed(fn, *args, **kwargs):
        time.sleep(PAUSE_S)
        calls = []
        for _ in range(CALLS):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            calls.append(time.perf_counter() - start)
        times.append(statistics.median(calls))
        return result

    def sha256(array):
        return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

    for n, N, p in GRID:
        spec = spec_of(n)
        times = []
        sampled = timed(sample_mixture, spec, N, SEED)
        masked = timed(mask, sampled, p, SEED)
        obs = ObservationMatrix.from_samples(masked)
        top = {} if values_read is None else {"top": values_read(obs.N, obs.d, None)}
        timed(oracle_thin_svd, obs.values)
        timed(estimation.compute_svd, obs, **top)
        result = timed(run_pipeline, spec, N=N, p=p, seed=SEED)
        timed(single_linkage, result.estimate.coords)
        labels = np.asarray(result.clustering.labels, dtype=np.int64)
        out[f"{n},{N},{p}"] = dict(
            zip(TIMES, times),
            sample_sha256=sha256(sampled.values),
            mask_sha256=sha256(masked.values),
            labels_sha256=sha256(labels),
            k_hat=result.clustering.k_hat,
            risk=result.evaluation.risk,
        )
    print(json.dumps(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_gram_svd.json"))
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0

    threads = os.environ.get("OPENBLAS_NUM_THREADS") or str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"base": Path(tmp) / "src", "change": ROOT / "src"}
        runs = {name: [] for name in trees}
        for rep in range(args.repeats):
            order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
            for name in order:
                done = subprocess.run([sys.executable, __file__, "--worker", str(trees[name])],
                                      env=env, capture_output=True, text=True, check=True)
                runs[name].append(json.loads(done.stdout))
                print(f"repeat {rep} {name} done", file=sys.stderr, flush=True)
        digests = {name: _source_sha256(src) for name, src in trees.items()}

    grid = []
    for n, N, p in GRID:
        key = f"{n},{N},{p}"
        point = {"n": n, "N": N, "p": p, "d": n * (n - 1) // 2}
        outcomes = set()
        for name in trees:
            samples = [run[key] for run in runs[name]]
            point[name] = {t: statistics.median(s[t] for s in samples) for t in TIMES}
            outcomes |= {tuple(s[o] for o in OUTCOMES) for s in samples}
        if len(outcomes) != 1:
            raise SystemExit(f"base and change disagree on samples, masks, labels, k_hat or risk at n,N,p = {key}")
        point.update(zip(OUTCOMES, next(iter(outcomes))))
        grid.append(point)

    import numpy
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    report = {
        "what": f"median wall seconds over {args.repeats} repeats of the median of {CALLS} back-to-back "
                f"calls; inputs: {K}-component Gaussian "
                f"mixture, sigma {SIGMA}, seed {SEED}; sampled and masked values, labels, k_hat and "
                "risk equal on both trees; compute_svd_s is the call run_pipeline makes (auto "
                "threshold rule, no rank hint)",
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
        b, c = point["base"], point["change"]
        print(f"n={point['n']:>3} N={point['N']:>4} p={point['p']}: "
              + ", ".join(f"{t[:-2]} {b[t]:.4f} -> {c[t]:.4f} s" for t in TIMES if t != "oracle_thin_svd_s"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
