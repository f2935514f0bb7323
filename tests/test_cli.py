"""Command-line interface tests; run in-process except one entry-point check."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankmix
from rankmix.cli import main
from rankmix.fileio import (
    read_key_values,
    read_labels,
    read_matrix,
    write_labels,
    write_mixture_spec,
)
from rankmix.generators import ComponentSpec, MixtureSpec


def _write_two_component_spec(path, n=12, sigma=0.3, seed=0):
    rng = np.random.default_rng(seed)
    comps = [ComponentSpec.gaussian(rng.normal(size=n), sigma) for _ in range(2)]
    write_mixture_spec(path, MixtureSpec(comps, [0.5, 0.5]))


def test_help_exits_zero():
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0


def test_console_script_installed(tmp_path):
    """`rankmix --help` exits 0 and lists `generate`.

    With an installed executable on PATH that executable is run. From a
    source checkout the `[project.scripts]` target is run the way an
    installer's launcher runs it, against the package this suite imported.
    """
    if shutil.which("rankmix"):
        proc = subprocess.run(["rankmix", "--help"], capture_output=True, text=True)
    else:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["rankmix"]
        module, attr = target.split(":")
        launcher = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'rankmix'; sys.exit({attr}())"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rankmix.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "--help"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
    assert proc.returncode == 0
    assert "generate" in proc.stdout


def test_generate_writes_matrix_and_labels(tmp_path):
    spec_path = tmp_path / "mix.txt"
    _write_two_component_spec(spec_path)
    out = tmp_path / "obs.txt"
    rc = main(
        ["generate", "--spec", str(spec_path), "--num", "40", "--p", "0.8",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    values = read_matrix(out)
    assert values.shape == (40, 66)
    assert np.isnan(values).any()
    observed = values[~np.isnan(values)]
    assert set(np.unique(observed)) <= {-0.5, 0.5}
    labels = read_labels(str(out) + ".labels")
    assert labels.shape == (40,)
    assert set(labels.tolist()) <= {0, 1}


def test_generate_rejects_infinite_noise(tmp_path, capsys):
    spec_path = tmp_path / "mix.txt"
    spec_path.write_text(
        "n=2\nk=1\nweights=1.0\n"
        "component.0.family=gaussian\ncomponent.0.sigma=inf\ncomponent.0.utilities=0.0,1.0\n"
    )
    out = tmp_path / "obs.txt"
    rc = main(["generate", "--spec", str(spec_path), "--num", "5", "--p", "1.0",
               "--seed", "0", "--out", str(out)])
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_generate_deterministic(tmp_path):
    spec_path = tmp_path / "mix.txt"
    _write_two_component_spec(spec_path)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        main(["generate", "--spec", str(spec_path), "--num", "25", "--p", "0.9",
              "--seed", "7", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_denoise_rank_and_meta(tmp_path):
    spec_path = tmp_path / "mix.txt"
    _write_two_component_spec(spec_path)
    obs = tmp_path / "obs.txt"
    main(["generate", "--spec", str(spec_path), "--num", "60", "--p", "1.0",
          "--seed", "1", "--out", str(obs)])
    denoised = tmp_path / "mhat.txt"
    rc = main(["denoise", "--in", str(obs), "--rank", "2", "--out", str(denoised)])
    assert rc == 0
    m_hat = read_matrix(denoised)
    assert m_hat.shape == (60, 66)
    assert not np.isnan(m_hat).any()
    meta = read_key_values(str(denoised) + ".meta")
    assert meta["kept_rank"] == "2"
    assert float(meta["p_hat"]) == 1.0
    assert float(meta["threshold_used"]) > 0
    svals = [float(tok) for tok in meta["singular_values"].split(",")]
    assert len(svals) == 20
    assert svals == sorted(svals, reverse=True)


def test_denoise_auto(tmp_path):
    spec_path = tmp_path / "mix.txt"
    _write_two_component_spec(spec_path)
    obs = tmp_path / "obs.txt"
    main(["generate", "--spec", str(spec_path), "--num", "50", "--p", "1.0",
          "--seed", "2", "--out", str(obs)])
    denoised = tmp_path / "mhat.txt"
    assert main(["denoise", "--in", str(obs), "--auto", "--out", str(denoised)]) == 0
    meta = read_key_values(str(denoised) + ".meta")
    assert int(meta["kept_rank"]) >= 1


def test_denoise_requires_rank_or_auto(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["denoise", "--in", "x.txt", "--out", "y.txt"])
    assert e.value.code == 2
    assert "--rank" in capsys.readouterr().err


def test_cluster_outputs(tmp_path):
    rows = np.vstack([np.zeros((5, 4)), np.full((6, 4), 3.0)])
    from rankmix.fileio import write_matrix

    matrix = tmp_path / "rows.txt"
    write_matrix(matrix, rows)
    labels_path = tmp_path / "labels.txt"
    rc = main(["cluster", "--in", str(matrix), "--auto", "--out", str(labels_path)])
    assert rc == 0
    labels = read_labels(labels_path)
    assert labels.tolist() == [0] * 5 + [1] * 6
    meta = read_key_values(str(labels_path) + ".meta")
    assert meta["k_hat"] == "2"
    weights = [float(tok) for tok in meta["mst_edge_weights"].split(",")]
    assert len(weights) == 10
    assert weights == sorted(weights)


def test_cluster_explicit_t2(tmp_path):
    from rankmix.fileio import write_matrix

    matrix = tmp_path / "rows.txt"
    write_matrix(matrix, np.arange(8.0).reshape(4, 2))
    labels_path = tmp_path / "labels.txt"
    assert main(["cluster", "--in", str(matrix), "--t2", "0.0", "--out", str(labels_path)]) == 0
    assert read_labels(labels_path).tolist() == [0, 1, 2, 3]


def test_evaluate_prints_risk_and_matching(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    write_labels(pred, [1, 0, 1, 0])
    write_labels(truth, [0, 1, 0, 1])
    assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 0
    out = capsys.readouterr().out
    assert "risk=0.0" in out
    assert "matching=0:1,1:0" in out


def test_full_cli_flow_success_regime(tmp_path, capsys):
    spec_path = tmp_path / "mix.txt"
    _write_two_component_spec(spec_path, n=15, sigma=0.3)
    obs = tmp_path / "obs.txt"
    main(["generate", "--spec", str(spec_path), "--num", "80", "--p", "1.0",
          "--seed", "5", "--out", str(obs)])
    denoised = tmp_path / "mhat.txt"
    main(["denoise", "--in", str(obs), "--auto", "--out", str(denoised)])
    labels_path = tmp_path / "labels.txt"
    main(["cluster", "--in", str(denoised), "--auto", "--out", str(labels_path)])
    assert main(["evaluate", "--pred", str(labels_path),
                 "--truth", str(obs) + ".labels"]) == 0
    out = capsys.readouterr().out
    risk = float(out.split("risk=")[1].splitlines()[0])
    assert risk <= 0.05


def test_tau_estimate_prints(tmp_path, capsys):
    spec_path = tmp_path / "one.txt"
    write_mixture_spec(
        spec_path, MixtureSpec([ComponentSpec.mnl(np.zeros(2), 1.0)], [1.0])
    )
    rc = main(["tau-estimate", "--spec", str(spec_path), "--samples", "400",
               "--directions", "4", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    tau = float(out.split("tau_hat=")[1])
    assert 0.4 <= tau <= 0.8


def test_tau_estimate_rejects_multi_component(tmp_path, capsys):
    spec_path = tmp_path / "two.txt"
    _write_two_component_spec(spec_path)
    rc = main(["tau-estimate", "--spec", str(spec_path), "--samples", "200",
               "--directions", "2", "--seed", "0"])
    assert rc == 1
    assert "component" in capsys.readouterr().err


def test_experiment_subcommand(tmp_path):
    config = tmp_path / "config.txt"
    config.write_text("n=10\nnoise=1.0\nsamples=120\ndirections=3\nseed=1\n")
    out_dir = tmp_path / "results"
    rc = main(["experiment", "exp3", "--config", str(config), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "exp3_mnl.csv").exists()
    assert (out_dir / "exp3_gaussian.csv").exists()


def test_experiment_defaults_without_config(tmp_path):
    out_dir = tmp_path / "results"
    rc = main(["experiment", "exp1", "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "exp1_distances.csv").exists()
    assert (out_dir / "exp1_projections.csv").exists()


def test_missing_file_reports_error(tmp_path, capsys):
    rc = main(["denoise", "--in", str(tmp_path / "nope.txt"), "--auto",
               "--out", str(tmp_path / "out.txt")])
    assert rc == 1
    assert "nope.txt" in capsys.readouterr().err
