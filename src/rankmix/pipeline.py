"""End-to-end run: sample a mixture, mask, denoise, cluster, score.

The stages are fixed: sample, mask (the masked batch is the observation
matrix, 0 where missing), select_t1 (from a rank hint when given, by spectral
gap otherwise) around the svd, hsvt into rank-r factors, cluster the N x r
coordinates (one MST whose weight gap chooses the distance threshold and whose
cut gives the single-linkage labels; their distances are those of the dense
estimate's rows, which is never built), then evaluate against the hidden truth.
Every stage failure is re-raised as a PipelineError tagged with the stage
name, and every random choice descends from the one seed argument.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .clustering import ClusteringResult, single_linkage
from .estimation import (
    HsvtEstimate,
    ObservationMatrix,
    SvdResult,
    _GramSpectrum,
    _values_read,
    hsvt,
    select_threshold,
)
from .evaluation import EvaluationReport, misclassification_rate
from .generators import MixtureSpec, SampleBatch, mask, sample_mixture
from .rankings import _own


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


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Clustering and evaluation plus the intermediates that produced them.

    obs is the denoised batch itself; diagnostics is read-only. Iterates as
    the (clustering, evaluation) pair so callers can unpack it.
    """

    clustering: ClusteringResult
    evaluation: EvaluationReport
    diagnostics: MappingProxyType
    obs: ObservationMatrix
    svd: SvdResult
    estimate: HsvtEstimate

    def __post_init__(self):
        _own(self, diagnostics=MappingProxyType(dict(self.diagnostics)))

    def __iter__(self):
        return iter((self.clustering, self.evaluation))


def denoise(obs: ObservationMatrix, rank_hint: int | None = None) -> tuple[SvdResult, HsvtEstimate]:
    """SVD, t1 (from the rank hint, else the spectral gap) and HSVT of obs, as
    run by the pipeline and by CLI denoise. The select_t1 stage counts the
    values the t1 rule reads (_values_read) before the svd, so a refused rank
    hint fails before the Gram matrix is formed. The svd stage reduces the
    Gram matrix once and reads every singular value; t1 comes from the ones
    the rule reads, and only then are the vectors of the components above
    it computed. The svd returned holds the values read and the vectors of
    the kept components only."""
    with _stage("select_t1"):
        reads = _values_read(obs.N, obs.d, rank_hint)
    with _stage("svd"):
        spectrum = _GramSpectrum(obs)
        values = spectrum.svd(reads, 0)
    with _stage("select_t1"):
        t1 = select_threshold(values, target_rank=rank_hint)
    with _stage("svd"):
        svd = spectrum.svd(reads, int(np.count_nonzero(values.singular_values > t1)))
    with _stage("hsvt"):
        estimate = hsvt(obs, t1, svd=svd)
    return svd, estimate


def run_pipeline_samples(batch: SampleBatch, rank_hint: int | None = None) -> PipelineResult:
    """Denoise-cluster-score a batch of labeled (possibly masked) rows."""
    svd, estimate = denoise(batch, rank_hint)
    with _stage("cluster"):
        clustering = single_linkage(estimate.coords)
    with _stage("evaluate"):
        risk, matching = misclassification_rate(clustering.labels, batch.labels)
        evaluation = EvaluationReport(risk=risk, matching=matching)
    diagnostics = {
        "N": batch.N,
        "d": batch.d,
        "p_hat": estimate.p_hat,
        "t1": estimate.threshold_used,
        "t2": clustering.threshold_used,
        "kept_rank": estimate.kept_rank,
        "k_hat": clustering.k_hat,
        "risk": risk,
    }
    return PipelineResult(clustering, evaluation, diagnostics, batch, svd, estimate)


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
    return run_pipeline_samples(batch, rank_hint=rank_hint)
