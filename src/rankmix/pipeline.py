"""End-to-end run: sample a mixture, mask, denoise, cluster, score.

The stages are fixed: stack the masked embeddings, estimate the observation
probability, take the SVD, choose the singular value threshold (from a rank
hint when given, by spectral gap otherwise), rescale-and-threshold, cluster
(one MST whose weight gap chooses the distance threshold and whose cut gives
the single-linkage labels), then score the labels against the hidden truth.
Every stage failure is re-raised as a PipelineError tagged with the stage
name, and every random choice descends from the one seed argument.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .clustering import ClusteringResult, single_linkage
from .estimation import HsvtEstimate, ObservationMatrix, SvdResult, compute_svd, hsvt, select_threshold
from .evaluation import EvaluationReport, misclassification_rate, separation_gamma
from .generators import MixtureSpec, SampleBatch, cluster_mean, mask, sample_mixture


class PipelineError(RuntimeError):
    """A stage failed; .stage names it, the cause is chained."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


@dataclass(frozen=True)
class PipelineResult:
    """Clustering and evaluation plus the intermediates that produced them.

    Iterates as the (clustering, evaluation) pair so callers can unpack it.
    """

    clustering: ClusteringResult
    evaluation: EvaluationReport
    diagnostics: dict
    obs: ObservationMatrix
    svd: SvdResult
    estimate: HsvtEstimate

    def __iter__(self):
        return iter((self.clustering, self.evaluation))


def run_pipeline_samples(batch: SampleBatch, exact_means=None, rank_hint: int | None = None) -> PipelineResult:
    """Denoise-cluster-score a batch of labeled (possibly masked) rows.

    exact_means, when given, are the true component means used for the
    separation diagnostic; with fewer than two of them gamma is None.
    """
    with _stage("stack"):
        obs = ObservationMatrix.from_samples(batch)
    with _stage("svd"):
        svd = compute_svd(obs)
    with _stage("select_t1"):
        t1 = select_threshold(svd, target_rank=rank_hint)
    with _stage("hsvt"):
        estimate = hsvt(obs, t1, svd=svd)
    with _stage("cluster"):
        clustering = single_linkage(estimate.m_hat)
    with _stage("evaluate"):
        risk, matching = misclassification_rate(clustering.labels, batch.labels)
        gamma = None
        if exact_means is not None and len(exact_means) >= 2:
            gamma = separation_gamma(exact_means)
        evaluation = EvaluationReport(risk=risk, matching=matching, gamma=gamma)
    diagnostics = {
        "N": obs.N,
        "d": obs.d,
        "p_hat": estimate.p_hat,
        "t1": t1,
        "t2": clustering.threshold_used,
        "kept_rank": estimate.kept_rank,
        "k_hat": clustering.k_hat,
        "risk": risk,
    }
    return PipelineResult(clustering, evaluation, diagnostics, obs, svd, estimate)


def run_pipeline(
    spec: MixtureSpec,
    N: int,
    p: float,
    seed: int,
    rank_hint: int | None = None,
) -> PipelineResult:
    """Sample N rows from the mixture, keep entries with probability p, then
    denoise, cluster, and score against the hidden labels."""
    with _stage("sample"):
        batch = sample_mixture(spec, N, seed)
    with _stage("mask"):
        batch = mask(batch, p, seed)
    with _stage("means"):
        exact_means = [cluster_mean(c) for c in spec.components] if spec.k >= 2 else None
    return run_pipeline_samples(batch, exact_means=exact_means, rank_hint=rank_hint)
