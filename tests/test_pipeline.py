"""End-to-end pipeline tests: sample, mask, denoise, cluster, evaluate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmix.generators import ComponentSpec, MixtureSpec, SampleBatch, mask, normal_utilities, sample_mixture
from rankmix.pipeline import PipelineError, PipelineResult, run_pipeline, run_pipeline_samples
from rankmix.seeding import substream


def _gaussian_mixture(k, n, sigma, seed):
    comps = [
        ComponentSpec.gaussian(normal_utilities(n, substream(seed, 4, i)), sigma)
        for i in range(k)
    ]
    return MixtureSpec(comps, np.full(k, 1.0 / k))


def test_single_component_risk_stays_small():
    # single-linkage can split off lone tail rows, so k_hat == 1 is the
    # typical outcome rather than a sure one; each spurious singleton costs
    # 1/N risk, so risk stays near 0 either way
    ks, risks = [], []
    for seed in range(10):
        spec = MixtureSpec([ComponentSpec.gaussian(np.linspace(1, 0, 8), 0.4)], [1.0])
        clustering, evaluation = run_pipeline(spec, N=60, p=1.0, seed=seed)
        ks.append(clustering.k_hat)
        risks.append(evaluation.risk)
    assert min(ks) == 1
    assert max(ks) <= 4
    assert np.mean(risks) <= 0.05


def test_success_regime_low_noise():
    risks = []
    for seed in range(10):
        spec = _gaussian_mixture(5, 30, 0.3, seed)
        result = run_pipeline(spec, N=250, p=1.0, seed=seed)
        risks.append(result.evaluation.risk)
    assert np.mean(risks) <= 0.02


def test_failure_regime_high_noise():
    risks = []
    for seed in range(10):
        spec = _gaussian_mixture(5, 30, 1.0, seed)
        result = run_pipeline(spec, N=250, p=1.0, seed=seed)
        risks.append(result.evaluation.risk)
    assert np.mean(risks) >= 0.3


def test_result_unpacks_as_pair():
    spec = _gaussian_mixture(2, 10, 0.3, 3)
    result = run_pipeline(spec, N=80, p=1.0, seed=3)
    assert isinstance(result, PipelineResult)
    clustering, evaluation = result
    assert clustering is result.clustering
    assert evaluation is result.evaluation


def test_deterministic_given_seed():
    spec = _gaussian_mixture(3, 12, 0.4, 5)
    a = run_pipeline(spec, N=90, p=0.7, seed=11)
    b = run_pipeline(spec, N=90, p=0.7, seed=11)
    assert np.array_equal(a.clustering.labels, b.clustering.labels)
    assert a.evaluation.risk == b.evaluation.risk
    assert a.diagnostics == b.diagnostics


def test_different_seeds_differ():
    spec = _gaussian_mixture(3, 12, 1.5, 5)
    a = run_pipeline(spec, N=90, p=0.5, seed=1)
    b = run_pipeline(spec, N=90, p=0.5, seed=2)
    assert not np.array_equal(a.obs.values, b.obs.values)


def test_rank_hint_controls_kept_rank():
    spec = _gaussian_mixture(4, 20, 0.3, 7)
    result = run_pipeline(spec, N=200, p=1.0, seed=7, rank_hint=4)
    assert result.estimate.kept_rank == 4
    assert result.evaluation.risk == 0.0


def test_fractional_rank_hint_rejected():
    # a rank hint of 2.7 must not quietly keep rank 2; 4.0 keeps rank 4
    spec = _gaussian_mixture(4, 10, 0.2, seed=3)
    with pytest.raises(PipelineError, match="select_t1: target_rank must be integer") as info:
        run_pipeline(spec, N=40, p=1.0, seed=7, rank_hint=2.7)
    assert isinstance(info.value.__cause__, ValueError)
    assert run_pipeline(spec, N=40, p=1.0, seed=7, rank_hint=4.0).estimate.kept_rank == 4


def test_diagnostics_fields():
    spec = _gaussian_mixture(2, 10, 0.3, 9)
    result = run_pipeline(spec, N=100, p=0.8, seed=9)
    diag = result.diagnostics
    for key in ("N", "d", "p_hat", "t1", "t2", "kept_rank", "k_hat", "risk"):
        assert key in diag
    assert diag["N"] == 100
    assert diag["d"] == 45
    assert 0.7 < diag["p_hat"] < 0.9
    assert diag["k_hat"] == result.clustering.k_hat


def test_gamma_reported_for_multi_component():
    spec = _gaussian_mixture(3, 10, 0.3, 13)
    result = run_pipeline(spec, N=120, p=1.0, seed=13)
    assert result.evaluation.gamma is not None
    assert result.evaluation.gamma > 0


def test_invalid_p_tagged_with_stage():
    spec = _gaussian_mixture(2, 8, 0.3, 1)
    with pytest.raises(PipelineError) as err:
        run_pipeline(spec, N=50, p=0.0, seed=1)
    assert err.value.stage == "mask"


def test_run_on_premade_samples():
    spec = _gaussian_mixture(2, 12, 0.3, 21)
    samples = mask(sample_mixture(spec, 120, 21), 0.9, 21)
    result = run_pipeline_samples(samples, exact_means=None)
    assert result.evaluation.risk <= 0.05
    assert result.evaluation.gamma is None


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.0, 0.6]))
def test_permuting_rows_relabels_partition_and_keeps_risk(seed, perm_seed, p):
    spec = _gaussian_mixture(3, 10, 0.4, seed)
    batch = mask(sample_mixture(spec, 90, seed), p, seed)
    perm = np.random.default_rng(perm_seed).permutation(len(batch))
    shuffled = SampleBatch(batch.values[perm], batch.labels[perm], batch.row_ids[perm])
    a = run_pipeline_samples(batch)
    b = run_pipeline_samples(shuffled)
    # same partition up to relabelling: the label pairs form a bijection
    pairs = set(zip(a.clustering.labels[perm].tolist(), b.clustering.labels.tolist()))
    assert len(pairs) == a.clustering.k_hat == b.clustering.k_hat
    assert a.evaluation.risk == b.evaluation.risk
