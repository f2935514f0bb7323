"""The observation format (an N x d matrix of +-1/2, 0 where missing) is
checked at every public boundary and nowhere else.

sample_mixture and mask build batches that are valid by construction and do
not check them, and a batch is the ObservationMatrix that the pipeline
denoises, since it owns frozen arrays that no caller can write to.
"""

import numpy as np
import pytest

from rankmix import generators, rankings
from rankmix.cli import main
from rankmix.estimation import ObservationMatrix
from rankmix.experiments import default_config, run_experiment
from rankmix.fileio import write_mixture_spec, write_observations
from rankmix.generators import ComponentSpec, MixtureSpec, SampleBatch, mask, normal_utilities, sample_mixture
from rankmix.pipeline import run_pipeline, run_pipeline_samples


@pytest.fixture
def checks(monkeypatch):
    """A list that grows by one per check of the observation format."""
    seen = []
    original = rankings._check_masked_embedding

    def counted(values):
        seen.append(values.shape)
        original(values)

    monkeypatch.setattr(rankings, "_check_masked_embedding", counted)
    return seen


def _spec(n=12, k=2):
    return MixtureSpec(
        [ComponentSpec.gaussian(normal_utilities(n, seed), 0.3) for seed in range(k)], np.full(k, 1.0 / k)
    )


@pytest.mark.parametrize("p", (0.5, 1.0))
def test_run_pipeline_checks_the_matrix_once(checks, p):
    run_pipeline(_spec(), N=60, p=p, seed=3)
    assert checks == []  # built by sample_mixture and mask, denoised as it is: none is a boundary


def test_a_batch_is_the_observation_matrix_the_pipeline_denoises():
    batch = mask(sample_mixture(_spec(), 40, 5), 0.6, 5)
    assert isinstance(batch, ObservationMatrix)
    assert run_pipeline_samples(batch).obs is batch


def test_an_exp2_sweep_checks_each_cell_once(checks, tmp_path):
    # the shape of perfbench's exp2_sweep: 5 trial batches, each masked at 4 values of p
    cfg = default_config("exp2", str(tmp_path)).replace(
        n_list=(15,), k=3, lam=60.0, noise_list=(0.5,), p_list=(0.8, 0.4, 0.2, 0.1), trials=5, seed=1
    )
    run_experiment(cfg)
    assert checks == []


def test_cli_generate_and_denoise_check_once_each(checks, tmp_path):
    write_mixture_spec(tmp_path / "mix.txt", _spec())
    obs = str(tmp_path / "obs.txt")
    assert main(["generate", "--spec", str(tmp_path / "mix.txt"), "--num", "40", "--p", "0.7",
                 "--seed", "2", "--out", obs]) == 0
    assert len(checks) == 1  # write_observations, at the file boundary
    assert main(["denoise", "--in", obs, "--rank", "2", "--out", str(tmp_path / "mhat.txt")]) == 0
    assert len(checks) == 1  # read_observations decodes the writer's bytes; denoise takes its matrix as it is


def test_writing_the_callers_arrays_after_building_does_not_reach_the_pipeline():
    values = np.array(mask(sample_mixture(_spec(), 30, 4), 0.6, 4).values)
    labels = np.zeros(30)
    batch = SampleBatch(values, labels)
    want = run_pipeline_samples(SampleBatch(values, labels))
    values[0, 0] = 0.3  # invalid, were it to reach the batch
    labels[:] = 1
    got = run_pipeline_samples(batch)
    assert got.obs.values.tobytes() == want.obs.values.tobytes()
    assert np.array_equal(got.clustering.labels, want.clustering.labels)
    assert got.evaluation.risk == want.evaluation.risk


def test_library_built_batches_match_the_public_constructor():
    for batch in (sample_mixture(_spec(), 25, 1), mask(sample_mixture(_spec(), 25, 1), 0.4, 2)):
        rebuilt = SampleBatch(batch.values, batch.labels)
        for field in ("values", "labels"):
            built, checked = getattr(batch, field), getattr(rebuilt, field)
            assert built.dtype == checked.dtype and built.tobytes() == checked.tobytes()
            assert not built.flags.writeable


@pytest.mark.parametrize("bad", (0.3, np.nan, np.inf, 1.0))
def test_every_public_constructor_refuses_an_invalid_matrix(bad, tmp_path):
    values = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.5]])
    values[1, 1] = bad
    dense = np.where(values == 0.0, np.nan, values)
    refusals = {
        "SampleBatch": lambda: SampleBatch(values, [0, 1]),
        "ObservationMatrix": lambda: ObservationMatrix(values),
        "from_dense": lambda: ObservationMatrix.from_dense(dense),
        "write_observations": lambda: write_observations(tmp_path / "obs.txt", values),
    }
    for name, build in refusals.items():
        if name == "from_dense" and np.isnan(bad):
            continue  # NaN is the file's missing marker, so a NaN there is not invalid
        with pytest.raises(ValueError, match="exactly"):
            build()
    assert not (tmp_path / "obs.txt").exists()
    for build in (lambda: SampleBatch(values[0], [0]), lambda: ObservationMatrix(values[0])):
        with pytest.raises(ValueError, match="2-d"):
            build()


def test_names_the_benchmark_tracer_wraps_stay_bound():
    # perfbench/spans.py replaces these unconditionally while it traces an
    # operation; were one renamed or turned into a plain function, its
    # --trace 1 runs and perfbench/test_counts.py would fail
    assert generators.embed is rankings.embed
    for name in ("from_samples", "from_dense"):
        assert isinstance(vars(ObservationMatrix)[name], classmethod), name
