"""Tests for the experiment sweeps: config parsing, CSV schemas, determinism."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import rankmix
from rankmix import experiments
from rankmix.experiments import (
    EXP2_COLUMNS,
    EXP3_FAMILIES,
    ExperimentConfig,
    _write_csv,
    default_config,
    run_experiment,
)


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    return rows[0], rows[1:]


def _tiny_exp2(tmp_path, **overrides):
    cfg = default_config("exp2", str(tmp_path / "out"))
    changes = dict(
        n_list=(12,), k=2, lam=25.0, noise_list=(0.3,), p_list=(1.0, 0.3), trials=2, seed=5
    )
    changes.update(overrides)
    return cfg.replace(**changes)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_default_configs_valid():
    for exp in ("exp1", "exp2", "exp3"):
        cfg = default_config(exp, "out")
        assert cfg.experiment == exp
        assert cfg.trials >= 1
        cfg_paper = default_config(exp, "out", paper_scale=True)
        assert cfg_paper.experiment == exp


def test_paper_scale_widens_exp1_component_count():
    desk = default_config("exp1", "out")
    paper = default_config("exp1", "out", paper_scale=True)
    assert desk.k < paper.k
    assert paper.k == 100


def test_config_from_file_overrides(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("seed=11\nn=10,20\nk=3\nlambda=40\nsigma=0.5\np=1.0,0.5\ntrials=4\n")
    cfg = ExperimentConfig.from_file(path, "exp2", str(tmp_path / "out"))
    assert cfg.seed == 11
    assert cfg.n_list == (10, 20)
    assert cfg.k == 3
    assert cfg.lam == 40.0
    assert cfg.noise_list == (0.5,)
    assert cfg.family == "gaussian"
    assert cfg.p_list == (1.0, 0.5)
    assert cfg.trials == 4


def test_config_beta_selects_mnl(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("beta=0.7,1.0\n")
    cfg = ExperimentConfig.from_file(path, "exp2", str(tmp_path / "out"))
    assert cfg.family == "mnl"
    assert cfg.noise_list == (0.7, 1.0)


def test_config_rejects_both_sigma_and_beta(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("sigma=0.3\nbeta=0.7\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(path, "exp2", "out")


def test_config_takes_at_most_one_noise_key(tmp_path):
    # with two of them, the order of lines in the file would pick the family and grid
    path = tmp_path / "config.txt"
    for text in ("sigma=0.3\nnoise=0.9\n", "noise=0.9\nbeta=0.3\n", "sigma=0.3\nbeta=0.7\nnoise=0.9\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="at most one"):
            ExperimentConfig.from_file(path, "exp2", "out")
    path.write_text("noise=0.9,1.1\n")
    cfg = ExperimentConfig.from_file(path, "exp2", "out")
    assert cfg.noise_list == (0.9, 1.1)
    assert cfg.family == default_config("exp2", "out").family


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("frobnicate=1\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(path, "exp2", "out")


@pytest.mark.parametrize("value", ["zero", "normal"])
def test_config_refuses_the_removed_utilities_key(tmp_path, value):
    # exp3 always uses all-zero utilities; the key that chose otherwise is gone
    path = tmp_path / "config.txt"
    path.write_text(f"utilities={value}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unrecognized config key 'utilities'$"):
        ExperimentConfig.from_file(path, "exp3", "out")


def test_config_rejects_bad_grid_values(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("p=0.0,1.0\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(path, "exp2", "out")


def test_exp1_config_takes_one_p_and_one_trial(tmp_path):
    # exp1 writes one sigma-block per noise level, from one trial at one p
    base = default_config("exp1", "out")
    for changes in (dict(p_list=(1.0, 0.5)), dict(trials=3)):
        with pytest.raises(ValueError, match="one p and one trial"):
            base.replace(**changes)
    path = tmp_path / "config.txt"
    for text in ("p=1.0,0.5\n", "trials=3\n", "p=1.0,0.5\ntrials=3\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="one p and one trial"):
            ExperimentConfig.from_file(path, "exp1", "out")
    path.write_text("p=0.5\ntrials=1\n")
    assert ExperimentConfig.from_file(path, "exp1", "out").p_list == (0.5,)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_rejects_non_finite_lambda_and_noise(tmp_path, value):
    # NaN compares False with every bound, so a check like `lam <= 0` lets it
    # through to numpy's Poisson draw
    base = default_config("exp2", "out")
    with pytest.raises(ValueError, match="finite"):
        base.replace(lam=float(value))
    with pytest.raises(ValueError, match="finite"):
        base.replace(noise_list=(0.3, float(value)))
    path = tmp_path / "config.txt"
    for text in (f"lambda={value}\n", f"sigma={value}\n", f"beta=0.5,{value}\n", f"noise={value}\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig.from_file(path, "exp2", "out")


@pytest.mark.parametrize(
    "field, fraction, integral",
    [("trials", 1.5, 2.0), ("k", 2.5, 3.0), ("n_list", (12, 10.5), (12, 10.0)), ("samples", 1000.5, 1000.0),
     ("directions", 2.5, 2.0)],
)
def test_config_refuses_a_fractional_count_when_built(field, fraction, integral):
    # a fractional count would otherwise fail mid-sweep, in range() or as a seed
    # that names another field; an integral float is kept as the int it equals
    base = default_config("exp3", "out")
    with pytest.raises(ValueError, match=f"^{field} must be integer values$"):
        base.replace(**{field: fraction})
    kept = getattr(base.replace(**{field: integral}), field)
    assert kept == integral and all(type(v) is int for v in (kept if field == "n_list" else (kept,)))


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_config_refuses_a_bad_seed_when_built(tmp_path, seed):
    # refused when built, so run_experiment never makes the output directory
    out = tmp_path / "out"
    message = f"^seed must be a non-negative integer, got {seed}$"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(experiment="exp2", out_dir=str(out), seed=seed)
    with pytest.raises(ValueError, match=message):
        run_experiment(_tiny_exp2(tmp_path, seed=seed))
    assert not out.exists()
    assert type(_tiny_exp2(tmp_path, seed=np.int64(3)).seed) is int


# ---------------------------------------------------------------------------
# exp2
# ---------------------------------------------------------------------------

def test_exp2_schema_and_grid(tmp_path):
    cfg = _tiny_exp2(tmp_path)
    paths = run_experiment(cfg)
    assert len(paths) == 1
    header, rows = _read_csv(paths[0])
    assert header == list(EXP2_COLUMNS)
    assert len(rows) == 1 * 1 * 2 * 2  # n x noise x p x trials
    for row in rows:
        rec = dict(zip(header, row))
        assert int(rec["n"]) == 12
        assert int(rec["k"]) == 2
        assert float(rec["sigma_or_beta"]) == 0.3
        assert float(rec["p"]) in (1.0, 0.3)
        assert int(rec["trial"]) in (0, 1)
        assert 0.0 <= float(rec["risk"]) <= 1.0
        assert int(rec["k_hat"]) >= 1
        assert 0.0 < float(rec["p_hat"]) <= 1.0
        assert float(rec["t1"]) > 0.0
        assert float(rec["t2"]) > 0.0


def test_exp2_success_at_full_observation(tmp_path):
    cfg = _tiny_exp2(tmp_path, n_list=(15,), lam=60.0, p_list=(1.0,), trials=3)
    (path,) = run_experiment(cfg)
    header, rows = _read_csv(path)
    risks = [float(dict(zip(header, r))["risk"]) for r in rows]
    assert np.mean(risks) <= 0.01


def test_exp2_bit_identical_reruns(tmp_path):
    cfg_a = _tiny_exp2(tmp_path / "a")
    cfg_b = _tiny_exp2(tmp_path / "b")
    (pa,) = run_experiment(cfg_a)
    (pb,) = run_experiment(cfg_b)
    assert Path(pa).read_bytes() == Path(pb).read_bytes()


_EXP2_IN_A_PROCESS = """
import sys
import numpy as np
from rankmix import experiments
labels, run = [], experiments.run_pipeline_samples
def recorded(batch):
    result = run(batch)
    labels.append(result.clustering.labels)
    return result
experiments.run_pipeline_samples = recorded
cfg = experiments.default_config("exp2", sys.argv[1]).replace(
    n_list=(30,), lam=300.0, noise_list=(0.3,), p_list=(1.0, 0.4, 0.1, 0.02), trials=3, seed=11
)
experiments.run_experiment(cfg)
np.save(sys.argv[1] + "/labels.npy", np.concatenate(labels))
"""


def test_exp2_across_blas_thread_counts_keeps_decisions_and_bounds_floats(tmp_path):
    # README's determinism contract: CSV bytes are identical only for a fixed
    # machine, BLAS build and thread count, since a parallel BLAS sums in an
    # order that depends on its thread count. Across thread counts labels,
    # risk, k_hat and p_hat are identical, and t1 and t2 agree within 1e-12
    # relative.
    csvs, labels = [], []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=str(Path(rankmix.__file__).parent.parent),
        )
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", _EXP2_IN_A_PROCESS, str(out)], env=env, check=True, timeout=600)
        csvs.append(_read_csv(out / "exp2_risk.csv"))
        labels.append(np.load(out / "labels.npy"))
    assert np.array_equal(*labels)
    (header, one), (header_two, two) = csvs
    assert header == header_two == list(EXP2_COLUMNS) and len(one) == len(two) == 12
    exact = [header.index(c) for c in ("n", "k", "sigma_or_beta", "p", "trial", "risk", "k_hat", "p_hat")]
    for a, b in zip(one, two):
        assert [a[i] for i in exact] == [b[i] for i in exact]
        for column in ("t1", "t2"):
            i = header.index(column)
            assert float(a[i]) == pytest.approx(float(b[i]), rel=1e-12, abs=0.0), (column, a, b)


def test_exp2_draws_each_trial_batch_once_and_masks_it_per_p(tmp_path, monkeypatch):
    calls = []
    original = experiments._poisson_samples

    def counted(cfg, n, noise_idx, trial):
        calls.append((n, noise_idx, trial))
        return original(cfg, n, noise_idx, trial)

    monkeypatch.setattr(experiments, "_poisson_samples", counted)
    (path,) = run_experiment(_tiny_exp2(tmp_path, noise_list=(0.3, 0.5), trials=3))
    assert calls == [(12, noise_idx, trial) for noise_idx in range(2) for trial in range(3)]
    header, rows = _read_csv(path)
    cells = [(float(r[2]), float(r[3]), int(r[4])) for r in rows]
    assert cells == [(noise, p, trial) for noise in (0.3, 0.5) for p in (1.0, 0.3) for trial in range(3)]


def test_exp2_seed_changes_output(tmp_path):
    (pa,) = run_experiment(_tiny_exp2(tmp_path / "a"))
    (pb,) = run_experiment(_tiny_exp2(tmp_path / "b", seed=6))
    assert Path(pa).read_bytes() != Path(pb).read_bytes()


# ---------------------------------------------------------------------------
# exp1
# ---------------------------------------------------------------------------

def test_exp1_bit_identical_reruns(tmp_path):
    kw = dict(n_list=(10,), k=2, lam=20.0, noise_list=(0.3, 0.5), p_list=(0.7,), seed=4)
    pa = run_experiment(default_config("exp1", str(tmp_path / "a")).replace(**kw))
    pb = run_experiment(default_config("exp1", str(tmp_path / "b")).replace(**kw))
    assert len(pa) == len(pb) == 2
    for a, b in zip(pa, pb):
        assert Path(a).read_bytes() == Path(b).read_bytes()


def test_exp1_after_columns_equal_dense_estimate(tmp_path, monkeypatch):
    # exp1 works on the factors; its columns must match the dense m_hat's
    results = []
    original = experiments.run_pipeline_samples

    def recorded(batch):
        results.append(original(batch))
        return results[-1]

    monkeypatch.setattr(experiments, "run_pipeline_samples", recorded)
    kw = dict(n_list=(10,), k=2, lam=20.0, noise_list=(0.3, 0.5), p_list=(0.7,), seed=4)
    dist_path, proj_path = run_experiment(default_config("exp1", str(tmp_path)).replace(**kw))
    after = np.array([float(r[5]) for r in _read_csv(dist_path)[1]])
    pcs = np.array([[float(r[3]), float(r[4])] for r in _read_csv(proj_path)[1]])
    want_after = np.concatenate([pdist(r.estimate.m_hat, "sqeuclidean") for r in results])
    want_pcs = np.vstack([r.estimate.m_hat @ r.svd.Vt[:2].T for r in results])
    assert len(results) == 2
    assert np.abs(after - want_after).max() <= 1e-12 * np.abs(want_after).max()
    assert np.all(np.abs(pcs - want_pcs).max(axis=0) <= 1e-12 * np.abs(want_pcs).max(axis=0))


def test_csv_writer_leaves_no_file_when_rows_fail(tmp_path):
    def rows():
        yield (1, 0.5)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        _write_csv(tmp_path / "x.csv", ("a", "b"), rows())
    assert list(tmp_path.iterdir()) == []


def test_exp1_outputs_and_margin_improvement(tmp_path):
    cfg = default_config("exp1", str(tmp_path / "out")).replace(
        n_list=(12,), k=2, lam=30.0, noise_list=(0.3,), seed=3
    )
    paths = run_experiment(cfg)
    by_name = {Path(p).name: p for p in paths}
    assert set(by_name) == {"exp1_distances.csv", "exp1_projections.csv"}

    header, rows = _read_csv(by_name["exp1_distances.csv"])
    assert header == ["sigma", "row_i", "row_j", "same_cluster", "dist_sq_before", "dist_sq_after"]
    n_rows = len({r[1] for r in rows} | {r[2] for r in rows})
    assert len(rows) == n_rows * (n_rows - 1) // 2

    # success regime: the intra/inter separation margin must widen after
    # denoising
    intra_b = [float(r[4]) for r in rows if r[3] == "1"]
    inter_b = [float(r[4]) for r in rows if r[3] == "0"]
    intra_a = [float(r[5]) for r in rows if r[3] == "1"]
    inter_a = [float(r[5]) for r in rows if r[3] == "0"]
    margin_before = min(inter_b) - max(intra_b)
    margin_after = min(inter_a) - max(intra_a)
    assert margin_after > margin_before

    header, rows = _read_csv(by_name["exp1_projections.csv"])
    assert header == ["sigma", "row", "label", "pc1", "pc2"]
    assert len(rows) == n_rows
    assert {r[2] for r in rows} == {"0", "1"}


def test_exp1_poisson_sizes_vary_with_seed(tmp_path):
    sizes = set()
    for seed in range(3):
        cfg = default_config("exp1", str(tmp_path / f"out{seed}")).replace(
            n_list=(8,), k=2, lam=20.0, noise_list=(0.5,), seed=seed
        )
        paths = run_experiment(cfg)
        proj = [p for p in paths if p.endswith("exp1_projections.csv")][0]
        _, rows = _read_csv(proj)
        sizes.add(len(rows))
    assert len(sizes) > 1  # component sizes are Poisson draws, not fixed


def test_poisson_sizes_split_into_independent_poisson_lambda_counts():
    # N ~ Poisson(k lambda) with equal-weight labels: each component's size is
    # Poisson(lambda) (mean = variance = lambda) and the sizes are uncorrelated;
    # a fixed N would give correlation -1/(k-1) = -0.5 instead
    k, lam, trials = 3, 5.0, 3000
    cfg = default_config("exp2", "unused").replace(n_list=(2,), k=k, lam=lam, seed=13)
    sizes = np.array(
        [np.bincount(experiments._poisson_samples(cfg, 2, 0, t).labels, minlength=k) for t in range(trials)]
    )
    assert sizes.shape == (trials, k)
    # 4 standard errors each: sqrt(lam/T) for a mean, sqrt((lam + 2 lam^2)/T)
    # for a Poisson sample variance, 1/sqrt(T) for a correlation under independence
    assert np.all(np.abs(sizes.mean(axis=0) - lam) <= 4 * np.sqrt(lam / trials))
    assert np.all(np.abs(sizes.var(axis=0, ddof=1) - lam) <= 4 * np.sqrt((lam + 2 * lam**2) / trials))
    corr = np.corrcoef(sizes, rowvar=False)[np.triu_indices(k, 1)]
    assert np.all(np.abs(corr) <= 4 / np.sqrt(trials))


# ---------------------------------------------------------------------------
# exp3
# ---------------------------------------------------------------------------

def test_exp3_row_count_and_schema(tmp_path):
    cfg = default_config("exp3", str(tmp_path / "out")).replace(
        n_list=(10, 20), noise_list=(1.0,), samples=150, directions=4, trials=1, seed=2
    )
    paths = run_experiment(cfg)
    assert [Path(p).name for p in paths] == [f"exp3_{family}.csv" for family in EXP3_FAMILIES]
    assert EXP3_FAMILIES == ("mnl", "gaussian")
    for p in paths:
        header, rows = _read_csv(p)
        assert header == ["family", "n", "sigma_or_beta", "samples", "trials", "tau_hat"]
        assert len(rows) == 2 * 1  # |n grid| x |noise grid|
        for row in rows:
            assert float(row[5]) > 0.0


def test_exp3_tau_grows_with_n(tmp_path):
    cfg = default_config("exp3", str(tmp_path / "out")).replace(
        n_list=(10, 40), noise_list=(1.0,), samples=200, directions=4, trials=1, seed=4
    )
    paths = run_experiment(cfg)
    for p in paths:
        _, rows = _read_csv(p)
        taus = {int(r[1]): float(r[5]) for r in rows}
        assert taus[40] > taus[10]


def test_exp3_bit_identical_reruns(tmp_path):
    kw = dict(n_list=(10,), noise_list=(0.5, 1.0), samples=120, directions=3, trials=2, seed=8)
    pa = run_experiment(default_config("exp3", str(tmp_path / "a")).replace(**kw))
    pb = run_experiment(default_config("exp3", str(tmp_path / "b")).replace(**kw))
    for a, b in zip(sorted(pa), sorted(pb)):
        assert Path(a).read_bytes() == Path(b).read_bytes()
