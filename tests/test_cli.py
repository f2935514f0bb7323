"""Command-line interface tests; run in-process except one entry-point check."""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rankmix
from rankmix import cli, estimation
from rankmix.cli import main
from rankmix.clustering import single_linkage
from rankmix.estimation import ObservationMatrix, estimate_p_hat
from rankmix.fileio import (
    read_key_values,
    read_labels,
    read_matrix,
    read_mixture_spec,
    read_observations,
    write_labels,
    write_mixture_spec,
)
from rankmix.generators import ComponentSpec, MixtureSpec, SampleBatch, mask
from rankmix.pipeline import PipelineError, denoise, run_pipeline
from rankmix.rankings import Permutation


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


def test_python_dash_m_runs_the_cli(tmp_path):
    # src/rankmix/__main__.py: exit codes and the error line come through
    env = dict(os.environ, PYTHONPATH=str(Path(rankmix.__file__).parent.parent))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "rankmix", *argv], capture_output=True, text=True, cwd=tmp_path, env=env
        )

    assert run("--help").returncode == 0
    proc = run("denoise", "--in", str(tmp_path / "missing.txt"), "--auto", "--out", str(tmp_path / "x"))
    assert proc.returncode == 1
    assert "rankmix: error:" in proc.stderr


def test_package_and_project_versions_agree():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == rankmix.__version__


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(2, 8),
    st.floats(0.0, 1.0, exclude_min=True),
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_file_boundary_keeps_the_zero_marker(N, n, p, seed, bad):
    # in memory 0 marks a missing entry; generate writes it as NA, and both
    # read_observations and from_dense read it back as 0
    rng = np.random.default_rng(seed)
    values = np.where(rng.random((N, n * (n - 1) // 2)) < 0.5, 0.5, -0.5)
    batch = mask(SampleBatch(values, rng.integers(0, 3, N)), p, seed)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "read_mixture_spec"), \
            mock.patch.object(cli, "sample_mixture"), \
            mock.patch.object(cli, "mask", return_value=batch):
        out = str(Path(tmp) / "obs.txt")
        assert main(["generate", "--spec", "spec.txt", "--num", str(N), "--p", str(p),
                     "--seed", str(seed), "--out", out]) == 0
        from_file = ObservationMatrix.from_dense(read_matrix(out))
        decoded = read_observations(out).values
    from_memory = ObservationMatrix.from_samples(batch)
    assert np.shares_memory(from_memory.values, batch.values)
    assert from_file.values.tobytes() == from_memory.values.tobytes()
    assert decoded.tobytes() == from_memory.values.tobytes()
    assert estimate_p_hat(from_file) == estimate_p_hat(from_memory)
    broken = batch.values.copy()
    broken[rng.integers(N), rng.integers(broken.shape[1])] = bad
    with pytest.raises(ValueError, match="exactly"):
        SampleBatch(broken, batch.labels)
    with pytest.raises(ValueError, match="exactly"):
        ObservationMatrix(broken)


def test_denoise_rank_and_meta(tmp_path):
    spec_path = tmp_path / "mix.txt"
    _write_two_component_spec(spec_path)
    obs = tmp_path / "obs.txt"
    main(["generate", "--spec", str(spec_path), "--num", "60", "--p", "1.0",
          "--seed", "1", "--out", str(obs)])
    denoised = tmp_path / "mhat.txt"
    rc = main(["denoise", "--in", str(obs), "--rank", "2", "--out", str(denoised)])
    assert rc == 0
    coords = read_matrix(denoised)
    basis = read_matrix(str(denoised) + ".basis")
    assert coords.shape == (60, 2)
    assert basis.shape == (2, 66)
    assert not np.isnan(coords).any() and not np.isnan(basis).any()
    meta = read_key_values(str(denoised) + ".meta")
    assert meta["kept_rank"] == "2"
    assert float(meta["p_hat"]) == 1.0
    assert float(meta["threshold_used"]) > 0
    svals = [float(tok) for tok in meta["singular_values"].split(",")]
    assert len(svals) == 3  # the r + 1 values the t1 rule read for --rank 2
    assert svals == sorted(svals, reverse=True)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["gaussian", "mallows"]),
    st.integers(3, 8),
    st.integers(2, 40),
    st.sampled_from([0.3, 0.7, 1.0]),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.integers(1, 4)),
)
# two equal rows: sigma_3 of the Gram route is noise, returned as 0, so --rank 3 keeps 2
@example("gaussian", 4, 3, 1.0, 2, 3)
# rows at 0, +-a and -a/2 twice: the two largest MST gaps are equal up to rounding
@example("mallows", 3, 5, 0.7, 2, 1)
def test_denoise_writes_the_factors_of_hsvt(family, n, N, p, seed, rank):
    # OUT and OUT.basis are hsvt's coords and Vt; their product is m_hat and
    # cluster on OUT decides as single_linkage on the dense m_hat does
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        comps = [ComponentSpec.gaussian(rng.normal(size=n), 0.3) for _ in range(2)]
    else:
        comps = [ComponentSpec.mallows(Permutation(rng.permutation(n)), 0.5) for _ in range(2)]
    d = n * (n - 1) // 2
    if rank is not None:
        rank = min(rank, N, d)
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, obs_path, out, labels = (str(Path(tmp) / name) for name in
                                            ("mix.txt", "obs.txt", "mhat.txt", "labels.txt"))
        write_mixture_spec(spec_path, MixtureSpec(comps, [0.5, 0.5]))
        assert main(["generate", "--spec", spec_path, "--num", str(N), "--p", str(p),
                     "--seed", str(seed), "--out", obs_path]) == 0
        how = ["--auto"] if rank is None else ["--rank", str(rank)]
        assert main(["denoise", "--in", obs_path, *how, "--out", out]) == 0
        assert main(["cluster", "--in", out, "--auto", "--out", labels]) == 0
        obs = ObservationMatrix.from_dense(read_matrix(obs_path))
        coords, basis = read_matrix(out), read_matrix(out + ".basis")
        predicted, meta = read_labels(labels), read_key_values(labels + ".meta")
    _, estimate = denoise(obs, rank)
    assert coords.tobytes() == estimate.coords.tobytes()
    assert basis.tobytes() == estimate.Vt.tobytes()
    r = estimate.kept_rank
    assert coords.shape == (N, r) and basis.shape == (r, d)
    assert np.abs(basis @ basis.T - np.eye(r)).max(initial=0.0) <= 1e-12
    atol = 1e-12 * np.abs(estimate.m_hat).max()
    assert np.abs(coords @ basis - estimate.m_hat).max() <= atol
    dense = single_linkage(estimate.m_hat)
    assert predicted.tolist() == dense.labels.tolist()
    assert int(meta["k_hat"]) == dense.k_hat
    assert float(meta["threshold_used"]) == pytest.approx(dense.threshold_used, rel=1e-12, abs=atol)
    weights = [float(tok) for tok in meta["mst_edge_weights"].split(",")]
    assert np.allclose(weights, dense.mst_edge_weights, rtol=1e-12, atol=atol)


def test_all_missing_observations_denoise_to_rank_zero_and_one_cluster(tmp_path, capsys):
    # an all-NA file keeps rank 0: OUT is N x 0 and every row sits at distance 0
    obs, out, labels = tmp_path / "obs.txt", tmp_path / "mhat.txt", tmp_path / "labels.txt"
    obs.write_text("5 6\n" + "NA NA NA NA NA NA\n" * 5)
    assert main(["denoise", "--in", str(obs), "--auto", "--out", str(out)]) == 0
    assert read_key_values(str(out) + ".meta")["kept_rank"] == "0"
    assert read_matrix(out).shape == (5, 0)
    assert read_matrix(str(out) + ".basis").shape == (0, 6)
    assert main(["cluster", "--in", str(out), "--auto", "--out", str(labels)]) == 0
    assert read_key_values(str(labels) + ".meta")["k_hat"] == "1"
    assert read_labels(labels).tolist() == [0] * 5
    assert capsys.readouterr().err == ""


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


def test_denoise_names_the_file_and_row_of_an_entry_off_the_tokens(tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("3 3\n0.5 -0.5 NA\n-0.5 0.3 0.5\n0.5 NA -0.5\n")
    assert main(["denoise", "--in", str(obs), "--auto", "--out", str(tmp_path / "mhat.txt")]) == 1
    assert capsys.readouterr().err == (
        f"rankmix: error: {obs}: row 1: every entry must be exactly +1/2 or -1/2, or NA where missing\n"
    )


def test_denoise_names_the_file_and_row_of_a_literal_zero(tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("3 3\n0.5 -0.5 NA\n-0.5 0.5 0.5\n0.5 0 -0.5\n")
    assert main(["denoise", "--in", str(obs), "--auto", "--out", str(tmp_path / "mhat.txt")]) == 1
    assert capsys.readouterr().err == f"rankmix: error: {obs}: row 2: a missing entry is written NA, not 0\n"


@pytest.mark.parametrize("rank", ["0", "4"])
def test_failing_denoise_stage_exits_1_and_names_the_stage(tmp_path, capsys, rank):
    # a PipelineError is reported like any other error: rankmix: error: <stage>: <cause>
    obs, out = tmp_path / "obs.txt", tmp_path / "mhat.txt"
    obs.write_text("3 3\n0.5 -0.5 NA\n-0.5 0.5 0.5\n0.5 NA -0.5\n")
    assert main(["denoise", "--in", str(obs), "--rank", rank, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"rankmix: error: select_t1: target_rank must lie in [1, 3], got {rank}")
    assert not out.exists()


@pytest.mark.parametrize("hint", [0, 29, 2.7, np.nan])
def test_a_refused_rank_hint_never_reaches_the_eigensolve(tmp_path, capsys, monkeypatch, hint):
    # 8 items give d = 28 pairs, so with N = 40 rows m = min(N, d) = 28 and 29 is m + 1
    spec, obs, out = tmp_path / "mix.txt", tmp_path / "obs.txt", tmp_path / "mhat.txt"
    _write_two_component_spec(spec, n=8)
    assert main(["generate", "--spec", str(spec), "--num", "40", "--p", "0.6", "--seed", "1", "--out", str(obs)]) == 0
    calls, real_dsterf = [], estimation.dsterf

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real_dsterf(*args, **kwargs)

    monkeypatch.setattr(estimation, "dsterf", spy)
    integral = float(hint).is_integer()
    message = f"select_t1: target_rank must lie in [1, 28], got {hint}" if integral else \
        "select_t1: target_rank must be integer values"
    with pytest.raises(PipelineError, match="^" + re.escape(message) + "$"):
        denoise(read_observations(obs), hint)
    with pytest.raises(PipelineError, match="^" + re.escape(message) + "$"):
        run_pipeline(read_mixture_spec(spec), N=40, p=0.6, seed=1, rank_hint=hint)
    if integral:  # --rank parses an int, so 2.7 and NaN cannot reach denoise from the command line
        capsys.readouterr()
        assert main(["denoise", "--in", str(obs), "--rank", str(hint), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"rankmix: error: {message}\n"
        assert not out.exists()
    assert calls == []


def _blas_threads():
    """scipy's OpenBLAS thread count, read by setting it and setting it back."""
    count = cli._SET_BLAS_THREADS(1)
    cli._SET_BLAS_THREADS(count)
    return count


_needs_thread_setter = pytest.mark.skipif(
    cli._SET_BLAS_THREADS is None, reason="scipy does not bundle OpenBLAS here"
)


@_needs_thread_setter
def test_denoise_runs_on_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    obs, column, out = tmp_path / "obs.txt", tmp_path / "column.txt", tmp_path / "mhat.txt"
    obs.write_text("3 3\n0.5 -0.5 NA\n-0.5 0.5 0.5\n0.5 NA -0.5\n")
    column.write_text("3 1\n0.5\nNA\n-0.5\n")  # one singular value: select_t1 refuses it after the svd
    before = _blas_threads()
    seen, real_dsterf = [], estimation.dsterf

    def spy(*args, **kwargs):
        seen.append(_blas_threads())
        return real_dsterf(*args, **kwargs)

    monkeypatch.setattr(estimation, "dsterf", spy)
    assert main(["denoise", "--in", str(obs), "--auto", "--out", str(out)]) == 0
    assert main(["denoise", "--in", str(column), "--auto", "--out", str(out)]) == 1
    assert seen == [1, 1] and _blas_threads() == before


_DENOISE_IN_A_PROCESS = """
import numpy as np
from rankmix.cli import main
from rankmix.fileio import write_mixture_spec
from rankmix.generators import ComponentSpec, MixtureSpec
from rankmix.rankings import Permutation
rng = np.random.default_rng(0)
spec = MixtureSpec([ComponentSpec.mallows(Permutation(rng.permutation(40)), 0.8) for _ in range(3)], [1 / 3] * 3)
write_mixture_spec("mix.txt", spec)
assert main(["generate", "--spec", "mix.txt", "--num", "600", "--p", "0.5", "--seed", "3", "--out", "obs.txt"]) == 0
assert main(["denoise", "--in", "obs.txt", "--auto", "--out", "mhat.txt"]) == 0
"""


@_needs_thread_setter
def test_denoise_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    # on OPENBLAS_NUM_THREADS=2 the threaded eigensolve of this 600 x 780
    # matrix moves the last bits; on one thread the files are the same
    files = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=str(Path(rankmix.__file__).parent.parent),
        )
        out = tmp_path / threads
        out.mkdir()
        subprocess.run([sys.executable, "-c", _DENOISE_IN_A_PROCESS], cwd=out, env=env, check=True, timeout=300)
        files.append([(out / name).read_bytes() for name in ("mhat.txt", "mhat.txt.basis", "mhat.txt.meta")])
    assert files[0] == files[1]


@pytest.mark.parametrize(
    "command, body",
    [
        ("denoise", "3 x\n"),
        ("denoise", "1.5 2\n0.5 NA\n"),
        ("denoise", "1 -3\n0.5\n"),
        ("evaluate", "0\n1\nx\n"),
    ],
    ids=("letter-size", "float-size", "negative-size", "letter-label"),
)
def test_malformed_header_or_label_names_the_file(tmp_path, capsys, command, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    if command == "denoise":
        argv = ["denoise", "--in", str(path), "--auto", "--out", str(tmp_path / "out.txt")]
    else:
        write_labels(tmp_path / "truth.txt", [0, 1, 1])
        argv = ["evaluate", "--pred", str(path), "--truth", str(tmp_path / "truth.txt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "bad.txt" in err
    if command == "evaluate":
        assert "bad.txt:3:" in err  # the line number of the bad label


@pytest.mark.parametrize(
    "command, body, named",
    [
        ("generate", "n=x\nk=1\n", "n='x'"),
        ("generate", "n=2\nk=1\nweights=abc\n", "weights='abc'"),
        ("experiment", "trials=x\n", "trials='x'"),
        ("denoise", "2 2\n0.5 NA\n0.5 x\n", "row 1"),
    ],
    ids=("spec-n", "spec-weights", "config-trials", "matrix-token"),
)
def test_unparsable_value_names_the_file_and_the_key_or_row(tmp_path, capsys, command, body, named):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    out = str(tmp_path / "out")
    argv = {
        "generate": ["generate", "--spec", str(path), "--num", "3", "--p", "1.0", "--seed", "0", "--out", out],
        "experiment": ["experiment", "exp2", "--config", str(path), "--out", out],
        "denoise": ["denoise", "--in", str(path), "--auto", "--out", out],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err
    assert named in err
