"""Command-line entry points: generate / denoise / cluster / evaluate / tau-estimate / experiment.

Each subcommand reads and writes the plain-text formats in :mod:`rankmix.fileio`,
so the stages can be chained from a shell:

    rankmix generate --spec mix.txt --num 600 --p 0.8 --seed 0 --out obs.txt
    rankmix denoise --in obs.txt --auto --out mhat.txt
    rankmix cluster --in mhat.txt --auto --out labels.txt
    rankmix evaluate --pred labels.txt --truth obs.txt.labels
"""

import argparse
import sys

import numpy as np

from .clustering import single_linkage
from .estimation import ObservationMatrix, compute_svd, hsvt, select_threshold
from .evaluation import empirical_tau, misclassification_rate
from .experiments import EXPERIMENTS, ExperimentConfig, default_config, run_experiment
from .fileio import (
    read_labels,
    read_matrix,
    read_mixture_spec,
    write_key_values,
    write_labels,
    write_matrix,
)
from .generators import mask, sample_mixture

TOP_SINGULAR_VALUES = 20


def _cmd_generate(args) -> int:
    spec = read_mixture_spec(args.spec)
    batch = mask(sample_mixture(spec, args.num, args.seed), args.p, args.seed)
    write_matrix(args.out, batch.values)
    write_labels(args.out + ".labels", batch.labels)
    return 0


def _cmd_denoise(args) -> int:
    obs = ObservationMatrix.from_dense(read_matrix(args.infile))
    svd = compute_svd(obs)
    threshold = select_threshold(svd, target_rank=args.rank)
    estimate = hsvt(obs, threshold, svd=svd)
    write_matrix(args.out, estimate.m_hat)
    write_key_values(
        args.out + ".meta",
        {
            "p_hat": estimate.p_hat,
            "threshold_used": estimate.threshold_used,
            "kept_rank": estimate.kept_rank,
            "singular_values": svd.singular_values[:TOP_SINGULAR_VALUES],
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
    p.add_argument("--out", required=True, help="denoised matrix file (details go to OUT.meta)")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"rankmix: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
