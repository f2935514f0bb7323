"""End-to-end pipeline tests: sample, mask, denoise, cluster, evaluate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmix.estimation import ObservationMatrix, SvdResult, _values_read, hsvt
from rankmix.generators import ComponentSpec, MixtureSpec, SampleBatch, mask, normal_utilities, sample_mixture
from rankmix.pipeline import PipelineError, PipelineResult, denoise, run_pipeline, run_pipeline_samples
from rankmix.seeding import substream


def _gaussian_mixture(k, n, sigma, seed):
    comps = [
        ComponentSpec.gaussian(normal_utilities(n, substream(seed, 4, i)), sigma)
        for i in range(k)
    ]
    return MixtureSpec(comps, np.full(k, 1.0 / k))


def test_result_types_compare_by_identity():
    # their fields are arrays, so field-wise == would ask an array for a truth
    # value; two equal results are still two objects
    spec = _gaussian_mixture(2, 6, 0.3, 0)
    first, second = run_pipeline(spec, N=20, p=0.8, seed=1), run_pipeline(spec, N=20, p=0.8, seed=1)
    values, eye = first.obs.values, (np.ones(3), np.eye(3), np.eye(3))
    component = ComponentSpec.gaussian(normal_utilities(5, 0), 0.3)
    pairs = {
        "ComponentSpec": (component, ComponentSpec.gaussian(normal_utilities(5, 0), 0.3)),
        "MixtureSpec": (MixtureSpec([component], [1.0]), MixtureSpec([component], [1.0])),
        "ObservationMatrix": (ObservationMatrix(values), ObservationMatrix(values)),
        "SampleBatch": (sample_mixture(spec, 20, 1), sample_mixture(spec, 20, 1)),
        "SvdResult": (SvdResult(*eye), SvdResult(*eye)),
        "HsvtEstimate": (first.estimate, second.estimate),
        "ClusteringResult": (first.clustering, second.clustering),
        "PipelineResult": (first, second),
    }
    for name, (x, y) in pairs.items():
        assert type(x).__name__ == name
        assert x is not y and x != y and not x == y, name
        assert x == x and hash(x) == hash(x), name
        assert len({x, y}) == 2, name


def test_a_result_owns_every_array_it_holds_read_only():
    # a write to a factor would leave the cached m_hat and the coordinates
    # disagreeing, with no error raised
    result = run_pipeline(_gaussian_mixture(2, 6, 0.3, 0), N=20, p=0.8, seed=1)
    arrays = {
        "obs.values": result.obs.values,
        "obs.labels": result.obs.labels,
        "svd.U": result.svd.U,
        "svd.Vt": result.svd.Vt,
        "svd.singular_values": result.svd.singular_values,
        "estimate.left": result.estimate.left,
        "estimate.Vt": result.estimate.Vt,
        "estimate.m_hat": result.estimate.m_hat,
        "clustering.labels": result.clustering.labels,
        "clustering.mst_edge_weights": result.clustering.mst_edge_weights,
    }
    for name, array in arrays.items():
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 1
        assert np.array_equal(array, before), name
    with pytest.raises(TypeError):
        result.diagnostics["t2"] = 0.0
    assert result.diagnostics["t2"] == result.clustering.threshold_used


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
    assert result.svd.singular_values.size == 5  # the rule reads sigma_1 .. sigma_5 only
    auto = run_pipeline(spec, N=200, p=1.0, seed=7)
    assert auto.svd.singular_values.size == 15  # ceil(sqrt(min(200, 190))) + 1


@pytest.mark.parametrize("rank_hint", [None, 2, 6])
def test_the_svd_holds_the_values_read_and_the_kept_vectors_only(rank_hint):
    spec = _gaussian_mixture(3, 12, 0.4, 11)
    result = run_pipeline(spec, N=150, p=0.7, seed=11, rank_hint=rank_hint)
    svd, kept = result.svd, result.estimate.kept_rank
    assert svd.singular_values.size == _values_read(150, 66, rank_hint)
    assert 0 < kept < svd.singular_values.size
    assert svd.U.shape == (150, kept) and svd.Vt.shape == (kept, 66)
    assert np.array_equal(result.estimate.Vt, svd.Vt)


@pytest.mark.parametrize("rank_hint", [None, 2, 6])
def test_hsvt_at_the_pipelines_t1_gives_the_pipelines_estimate_bit_for_bit(rank_hint):
    # pipeline.denoise and hsvt build the estimate the same way: at the same
    # threshold they keep the same components with the same factors
    for seed in range(30):
        spec = _gaussian_mixture(3, 8 + 3 * (seed % 5), 0.4, seed)
        obs = mask(sample_mixture(spec, 60 + 7 * seed, seed), 0.3 + 0.02 * seed, seed)
        _, est = denoise(obs, rank_hint)
        again = hsvt(obs, est.threshold_used)
        assert (again.kept_rank, again.p_hat) == (est.kept_rank, est.p_hat)
        assert again.left.tobytes() == est.left.tobytes() and again.Vt.tobytes() == est.Vt.tobytes()


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


def test_invalid_p_tagged_with_stage():
    spec = _gaussian_mixture(2, 8, 0.3, 1)
    with pytest.raises(PipelineError) as err:
        run_pipeline(spec, N=50, p=0.0, seed=1)
    assert err.value.stage == "mask"


def test_run_on_premade_samples():
    spec = _gaussian_mixture(2, 12, 0.3, 21)
    samples = mask(sample_mixture(spec, 120, 21), 0.9, 21)
    result = run_pipeline_samples(samples)
    assert result.evaluation.risk <= 0.05


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.0, 0.6]))
def test_permuting_rows_relabels_partition_and_keeps_risk(seed, perm_seed, p):
    spec = _gaussian_mixture(3, 10, 0.4, seed)
    batch = mask(sample_mixture(spec, 90, seed), p, seed)
    perm = np.random.default_rng(perm_seed).permutation(len(batch))
    shuffled = SampleBatch(batch.values[perm], batch.labels[perm])
    a = run_pipeline_samples(batch)
    b = run_pipeline_samples(shuffled)
    # same partition up to relabelling: the label pairs form a bijection
    pairs = set(zip(a.clustering.labels[perm].tolist(), b.clustering.labels.tolist()))
    assert len(pairs) == a.clustering.k_hat == b.clustering.k_hat
    assert a.evaluation.risk == b.evaluation.risk
