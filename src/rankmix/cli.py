"""Command-line entry points: generate / denoise / cluster / evaluate / tau-estimate / experiment.

Each subcommand reads and writes the plain-text formats in :mod:`rankmix.fileio`,
so the stages can be chained from a shell:

    rankmix generate --spec mix.txt --num 600 --p 0.8 --seed 0 --out obs.txt
    rankmix denoise --in obs.txt --auto --out mhat.txt
    rankmix cluster --in mhat.txt --auto --out labels.txt
    rankmix evaluate --pred labels.txt --truth obs.txt.labels

denoise passes the ObservationMatrix that fileio.read_observations checked
(0 where the file has NA) to rankmix.pipeline.denoise and writes the rank-r
estimate as two factors: OUT holds the N x r U_r S_r / p_hat, OUT.basis the
r x d V_r^T, and the dense estimate is read_matrix(OUT) @ read_matrix(OUT.basis).
V_r^T has orthonormal rows, so the rows of OUT lie at the pairwise distances
of the dense estimate's rows, and cluster reads OUT as it is. OUT.meta lists
the singular values the t1 rule read: ceil(sqrt(min(N, d))) + 1 with --auto,
r + 1 with --rank r. denoise runs on one BLAS thread (see _one_blas_thread),
so its files do not depend on OPENBLAS_NUM_THREADS.
"""

import argparse
import ctypes
import functools
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from .clustering import single_linkage
from .evaluation import empirical_tau, misclassification_rate
from .experiments import EXPERIMENTS, ExperimentConfig, default_config, run_experiment
from .fileio import (
    read_labels,
    read_matrix,
    read_mixture_spec,
    read_observations,
    write_key_values,
    write_labels,
    write_matrix,
    write_observations,
)
from .generators import mask, sample_mixture
from .pipeline import PipelineError, denoise


def _openblas_thread_setter():
    """openblas_set_num_threads_local of the OpenBLAS that a scipy wheel
    bundles for scipy.linalg (it sets the thread count and returns the old
    one), or None where scipy links another BLAS."""
    for path in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas*.so")):
        try:
            setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


_SET_BLAS_THREADS = _openblas_thread_setter()


@contextmanager
def _one_blas_thread():
    """Run scipy's BLAS and LAPACK calls on one thread, then restore the count.

    A CLI denoise of a 600 x 780 observation file spends most of its time in
    the SVD. A second OpenBLAS thread saves about a tenth of that on an
    idle machine, but its worker spins after every call and each parallel
    call waits for it: on 2 cores with one other busy thread, the denoise
    took 140 ms on two BLAS threads and 50 ms on one, and two CLI chains run
    side by side slowed to seconds per op. On one thread the output also
    does not depend on the thread count. Library callers keep the count
    they set; this is the command line's choice. On OpenBLAS built with
    pthreads the count is the library's, not the calling thread's."""
    if _SET_BLAS_THREADS is None:
        yield
        return
    previous = _SET_BLAS_THREADS(1)
    try:
        yield
    finally:
        _SET_BLAS_THREADS(previous)


def _cmd_generate(args) -> int:
    spec = read_mixture_spec(args.spec)
    batch = mask(sample_mixture(spec, args.num, args.seed), args.p, args.seed)
    write_observations(args.out, batch.values)  # 0 in memory, NA in files
    write_labels(args.out + ".labels", batch.labels)
    return 0


def _cmd_denoise(args) -> int:
    obs = read_observations(args.infile)
    with _one_blas_thread():
        svd, estimate = denoise(obs, args.rank)
    write_matrix(args.out, estimate.coords)
    write_matrix(args.out + ".basis", estimate.Vt)
    write_key_values(
        args.out + ".meta",
        {
            "p_hat": estimate.p_hat,
            "threshold_used": estimate.threshold_used,
            "kept_rank": estimate.kept_rank,
            "singular_values": svd.singular_values,
        },
    )
    return 0


def _cmd_cluster(args) -> int:
    rows = read_matrix(args.infile)
    if np.isnan(rows).any():
        raise ValueError(
            f"{args.infile} has missing entries; cluster expects a dense matrix "
            "(run denoise first)"
        )
    result = single_linkage(rows, args.t2)
    write_labels(args.out, result.labels)
    write_key_values(
        args.out + ".meta",
        {
            "k_hat": result.k_hat,
            "threshold_used": result.threshold_used,
            "mst_edge_weights": result.mst_edge_weights,
        },
    )
    return 0


def _cmd_evaluate(args) -> int:
    predicted = read_labels(args.pred)
    truth = read_labels(args.truth)
    risk, matching = misclassification_rate(predicted, truth)
    print(f"risk={risk!r}")
    print("matching=" + ",".join(f"{i}:{j}" for i, j in matching))
    return 0


def _cmd_tau_estimate(args) -> int:
    spec = read_mixture_spec(args.spec)
    if spec.k != 1:
        raise ValueError(
            f"tau-estimate expects a single-component spec file, got {spec.k} components"
        )
    tau = empirical_tau(
        spec.components[0],
        args.samples,
        num_directions=args.directions,
        rng_seed=args.seed,
    )
    print(f"tau_hat={tau!r}")
    return 0


def _cmd_experiment(args) -> int:
    if args.config is None:
        cfg = default_config(args.which, args.out, paper_scale=args.paper_scale)
    else:
        cfg = ExperimentConfig.from_file(
            args.config, args.which, args.out, paper_scale=args.paper_scale
        )
    for path in run_experiment(cfg):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmix",
        description="Learn mixtures of random utility models from pairwise-comparison data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw masked observations from a mixture spec")
    p.add_argument("--spec", required=True, help="mixture spec file")
    p.add_argument("--num", required=True, type=int, help="number of rows to draw")
    p.add_argument("--p", required=True, type=float, help="observation probability per entry")
    p.add_argument("--seed", required=True, type=int, help="master seed")
    p.add_argument("--out", required=True, help="output matrix file (labels go to OUT.labels)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("denoise", help="threshold the singular values of an observation matrix")
    p.add_argument("--in", dest="infile", required=True, help="observation matrix file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rank", type=int, help="keep exactly this many singular values")
    group.add_argument("--auto", action="store_true", help="pick the rank from the spectrum")
    p.add_argument(
        "--out", required=True, help="coordinates file (basis goes to OUT.basis, details to OUT.meta)"
    )
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("cluster", help="single-linkage clustering of matrix rows")
    p.add_argument("--in", dest="infile", required=True, help="dense matrix file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t2", type=float, help="distance threshold for merging")
    group.add_argument("--auto", action="store_true", help="pick the threshold from tree-edge gaps")
    p.add_argument("--out", required=True, help="label file (details go to OUT.meta)")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("evaluate", help="misclassification rate of predicted vs true labels")
    p.add_argument("--pred", required=True, help="predicted label file")
    p.add_argument("--truth", required=True, help="true label file")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("tau-estimate", help="projection sub-gaussian norm of one component")
    p.add_argument("--spec", required=True, help="single-component mixture spec file")
    p.add_argument("--samples", required=True, type=int, help="sample size per direction")
    p.add_argument("--directions", required=True, type=int, help="number of random directions")
    p.add_argument("--seed", required=True, type=int, help="master seed")
    p.set_defaults(func=_cmd_tau_estimate)

    p = sub.add_parser("experiment", help="run a sweep and write CSV files")
    p.add_argument("which", choices=EXPERIMENTS, help="which sweep to run")
    p.add_argument("--config", help="key=value config file (defaults used when omitted)")
    p.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the full-size grids instead of the quick desk grids",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it costs about a millisecond,
    and a process that runs several commands (the CLI benchmark workload
    makes four main calls per operation) need not pay it for each."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, PipelineError) as err:
        print(f"rankmix: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
