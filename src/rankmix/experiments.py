"""Parameter sweeps emitting CSV: denoising geometry, risk curves, tau growth.

Three sweeps, each writing one CSV per figure-worth of data:

* exp1 — per-noise-level dumps of pairwise squared distances between rows
  before and after denoising, plus 2-component spectral projections
  (success/failure geometry of the clustering);
* exp2 — misclassification risk as the observation probability p sweeps
  toward 0, one row per (n, noise, p, trial) cell;
* exp3 — empirical sub-Gaussian dispersion tau_hat against n for each
  family in EXP3_FAMILIES (mnl, then gaussian), one CSV per family and one
  row per (n, noise) cell, averaged over trials.

Component sizes are Poisson(lambda) draws and utilities are standard normal
per component, refreshed per trial. A config file sets the noise grid with
at most one of sigma= (gaussian), beta= (mnl) or noise= (keeps the family).
Grids default to desk scale; the paper_scale flag switches to the full
published grids. All outputs are byte-deterministic functions of the config
(floats are written with repr, rows in fixed grid order, files written
atomically).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist

from .estimation import ObservationMatrix
from .evaluation import empirical_tau
from .generators import (
    GAUSSIAN,
    MNL,
    ComponentSpec,
    SampleBatch,
    mask,
    normal_utilities,
    sample_embedded_batch,
)
from .pipeline import run_pipeline_samples
from .seeding import TAG_MASK, TAG_SAMPLE, TAG_SIZES, TAG_TRIAL, TAG_UTILITIES, child_seed, substream

EXPERIMENTS = ("exp1", "exp2", "exp3")
EXP2_COLUMNS = ("n", "k", "sigma_or_beta", "p", "trial", "risk", "k_hat", "p_hat", "t1", "t2")
EXP3_COLUMNS = ("family", "n", "sigma_or_beta", "samples", "trials", "tau_hat")
EXP3_FAMILIES = (MNL, GAUSSIAN)
UTILITIES_MODES = ("zero", "normal")

_DESK = {
    "exp1": dict(
        n_list=(30,), k=5, lam=50.0, noise_list=(0.3, 0.5, 1.0), p_list=(1.0,), trials=1
    ),
    "exp2": dict(
        n_list=(30,),
        k=2,
        lam=500.0,
        noise_list=(0.3,),
        p_list=(1.0, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05, 0.02),
        trials=10,
    ),
    "exp3": dict(n_list=(50, 100, 200), noise_list=(1.0,), trials=1),
}
_PAPER = {
    "exp1": dict(k=100),
    "exp2": dict(n_list=(15, 30, 45), noise_list=(0.3, 0.5, 0.7, 1.0)),
    "exp3": dict(
        n_list=(10, 25, 50, 100, 150, 200),
        noise_list=(0.05, 0.1, 0.25, 0.5, 1.0),
        trials=10,
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep's full parameterization; every field shows up in the output."""

    experiment: str
    out_dir: str
    seed: int = 0
    trials: int = 1
    n_list: tuple[int, ...] = (30,)
    k: int = 2
    lam: float = 50.0
    p_list: tuple[float, ...] = (1.0,)
    noise_list: tuple[float, ...] = (0.3,)
    family: str = GAUSSIAN
    samples: int = 1000
    directions: int = 32
    utilities_mode: str = "zero"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.n_list or any(n < 2 for n in self.n_list):
            raise ValueError("n grid must be nonempty with every n >= 2")
        if self.k < 1 or not 0 < self.lam < math.inf:
            raise ValueError("need k >= 1 and a finite lambda > 0")
        if not self.p_list or any(not (0.0 < p <= 1.0) for p in self.p_list):
            raise ValueError("p grid values must lie in (0, 1]")
        if not self.noise_list or any(not 0 < v < math.inf for v in self.noise_list):
            raise ValueError("noise grid values must be finite and positive")
        if self.family not in (GAUSSIAN, MNL):
            raise ValueError(f"family must be gaussian or mnl, got {self.family!r}")
        if self.samples < 100 or self.directions < 1:
            raise ValueError("need samples >= 100 and directions >= 1")
        if self.utilities_mode not in UTILITIES_MODES:
            raise ValueError(f"utilities mode must be one of {UTILITIES_MODES}")
        if self.experiment == "exp1" and (len(self.p_list) != 1 or self.trials != 1):
            # exp1 dumps one sigma-block per noise level from trial 0 at p_list[0]
            raise ValueError("exp1 takes exactly one p and one trial")

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_file(cls, path, experiment: str, out_dir: str, paper_scale: bool = False):
        """Start from the defaults for the experiment, override from key=value."""
        from .fileio import read_key_values

        kv = read_key_values(path)
        cfg = default_config(experiment, out_dir, paper_scale=paper_scale)
        if "experiment" in kv:
            declared = kv.pop("experiment")
            if declared != experiment:
                raise ValueError(f"{path}: config declares {declared!r}, running {experiment!r}")
        if sum(key in kv for key in ("sigma", "beta", "noise")) > 1:
            raise ValueError(f"{path}: give at most one of sigma, beta and noise")
        changes: dict = {}
        for key, value in kv.items():
            if key == "seed":
                changes["seed"] = int(value)
            elif key == "trials":
                changes["trials"] = int(value)
            elif key == "n":
                changes["n_list"] = tuple(int(tok) for tok in value.split(","))
            elif key == "k":
                changes["k"] = int(value)
            elif key == "lambda":
                changes["lam"] = float(value)
            elif key == "p":
                changes["p_list"] = tuple(float(tok) for tok in value.split(","))
            elif key == "sigma":
                changes["noise_list"] = tuple(float(tok) for tok in value.split(","))
                changes["family"] = GAUSSIAN
            elif key == "beta":
                changes["noise_list"] = tuple(float(tok) for tok in value.split(","))
                changes["family"] = MNL
            elif key == "noise":
                changes["noise_list"] = tuple(float(tok) for tok in value.split(","))
            elif key == "samples":
                changes["samples"] = int(value)
            elif key == "directions":
                changes["directions"] = int(value)
            elif key == "utilities":
                changes["utilities_mode"] = value
            else:
                raise ValueError(f"{path}: unrecognized config key {key!r}")
        return cfg.replace(**changes)


def default_config(experiment: str, out_dir: str, paper_scale: bool = False) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    fields = dict(_DESK[experiment])
    if paper_scale:
        fields.update(_PAPER[experiment])
    return ExperimentConfig(experiment=experiment, out_dir=out_dir, **fields)


# ---------------------------------------------------------------------------
# deterministic CSV output
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header, rows) -> str:
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:  # rows may be a generator that fails part way
                fh.write(",".join(_cell(v) for v in row) + "\n")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    return str(path)


# ---------------------------------------------------------------------------
# shared generation
# ---------------------------------------------------------------------------

def _component(cfg: ExperimentConfig, n: int, noise: float, trial: int, index: int) -> ComponentSpec:
    u = normal_utilities(n, substream(cfg.seed, TAG_UTILITIES, trial, n, index))
    return ComponentSpec(cfg.family, float(noise), utilities=u)


def _poisson_samples(cfg: ExperimentConfig, n: int, noise_idx: int, trial: int) -> SampleBatch:
    """Poisson(lambda)-sized blocks, one stream and one label per component."""
    noise = cfg.noise_list[noise_idx]
    sizes = substream(cfg.seed, TAG_SIZES, trial, n, noise_idx).poisson(cfg.lam, size=cfg.k)
    if int(sizes.sum()) < 2:
        raise ValueError(f"Poisson sizes for lambda={cfg.lam} summed to {int(sizes.sum())} rows")
    blocks = [
        sample_embedded_batch(
            _component(cfg, n, noise, trial, i), int(m), substream(cfg.seed, TAG_SAMPLE, trial, n, noise_idx, i)
        )
        for i, m in enumerate(sizes)
        if m > 0
    ]
    labels = np.repeat(np.arange(cfg.k), sizes)
    return SampleBatch(np.vstack(blocks), labels, np.arange(labels.size))


# ---------------------------------------------------------------------------
# the three sweeps
# ---------------------------------------------------------------------------

def _run_exp1(cfg: ExperimentConfig, out: Path) -> list[str]:
    p = cfg.p_list[0]
    proj_rows = []

    def dist_rows():
        # streamed into the CSV: a cell has about N^2/2 pairs, its projections only N rows
        for n in cfg.n_list:
            for noise_idx, noise in enumerate(cfg.noise_list):
                batch = _poisson_samples(cfg, n, noise_idx, trial=0)
                if p < 1.0:
                    batch = mask(batch, p, child_seed(cfg.seed, TAG_MASK, 0, n, noise_idx))
                result = run_pipeline_samples(batch)
                est = result.estimate
                truth = batch.labels.tolist()
                sq_before = pdist(result.obs.values, "sqeuclidean")
                sq_after = pdist(est.coords, "sqeuclidean")  # equals m_hat's row distances
                idx = 0
                N = len(batch)
                for i in range(N):
                    for j in range(i + 1, N):
                        same = 1 if truth[i] == truth[j] else 0
                        yield float(noise), i, j, same, float(sq_before[idx]), float(sq_after[idx])
                        idx += 1
                pcs = est.coords @ (est.Vt @ result.svd.Vt[:2].T)  # m_hat @ Vt[:2].T, factored
                for i in range(N):
                    proj_rows.append((float(noise), i, truth[i], float(pcs[i, 0]), float(pcs[i, 1])))

    return [
        _write_csv(
            out / "exp1_distances.csv",
            ("sigma", "row_i", "row_j", "same_cluster", "dist_sq_before", "dist_sq_after"),
            dist_rows(),
        ),
        _write_csv(out / "exp1_projections.csv", ("sigma", "row", "label", "pc1", "pc2"), proj_rows),
    ]


def _run_exp2(cfg: ExperimentConfig, out: Path) -> list[str]:
    rows = []
    for n in cfg.n_list:
        for noise_idx, noise in enumerate(cfg.noise_list):
            for p_idx, p in enumerate(cfg.p_list):
                for trial in range(cfg.trials):
                    batch = _poisson_samples(cfg, n, noise_idx, trial)
                    masked = mask(
                        batch, p, child_seed(cfg.seed, TAG_MASK, trial, n, noise_idx, p_idx)
                    )
                    result = run_pipeline_samples(masked)
                    diag = result.diagnostics
                    rows.append(
                        (
                            n,
                            cfg.k,
                            float(noise),
                            float(p),
                            trial,
                            float(result.evaluation.risk),
                            diag["k_hat"],
                            float(diag["p_hat"]),
                            float(diag["t1"]),
                            float(diag["t2"]),
                        )
                    )
    return [_write_csv(out / "exp2_risk.csv", EXP2_COLUMNS, rows)]


def _exp3_spec(
    cfg: ExperimentConfig, family: str, fam_idx: int, n: int, noise: float, noise_idx: int, trial: int
):
    if cfg.utilities_mode == "zero":
        u = np.zeros(n)
    else:
        u = normal_utilities(n, substream(cfg.seed, TAG_UTILITIES, fam_idx, n, noise_idx, trial))
    return ComponentSpec(family, float(noise), utilities=u)


def _run_exp3(cfg: ExperimentConfig, out: Path) -> list[str]:
    paths = []
    for fam_idx, family in enumerate(EXP3_FAMILIES):
        rows = []
        for n in cfg.n_list:
            for noise_idx, noise in enumerate(cfg.noise_list):
                taus = []
                for trial in range(cfg.trials):
                    spec = _exp3_spec(cfg, family, fam_idx, n, noise, noise_idx, trial)
                    taus.append(
                        empirical_tau(
                            spec,
                            num_samples=cfg.samples,
                            num_directions=cfg.directions,
                            rng_seed=child_seed(cfg.seed, TAG_TRIAL, fam_idx, n, noise_idx, trial),
                        )
                    )
                rows.append(
                    (family, n, float(noise), cfg.samples, cfg.trials, float(np.mean(taus)))
                )
        paths.append(_write_csv(out / f"exp3_{family}.csv", EXP3_COLUMNS, rows))
    return paths


def run_experiment(cfg: ExperimentConfig) -> list[str]:
    """Run one sweep, returning the paths of the CSV files written."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = {"exp1": _run_exp1, "exp2": _run_exp2, "exp3": _run_exp3}[cfg.experiment]
    return runner(cfg, out)
