"""The three benchmark workloads.

Each workload builds its inputs from the workload seed when it is created
(that is the set-up that ``setup_s`` times), runs one operation per call of
``run`` (the timed part), and checks that operation's outputs from outside
the program in ``check``. The checks recompute what they verify with numpy
and scipy directly and never call rankmix to judge rankmix.

Operations reach the program only through the module attributes
``rankmix.pipeline.run_pipeline``, ``rankmix.experiments.run_experiment`` and
``rankmix.cli.main``, looked up at call time, so the tracer in ``spans.py``
can wrap them and everything they call.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from rankmix import cli, experiments, pipeline
from rankmix.fileio import write_mixture_spec
from rankmix.generators import ComponentSpec, MixtureSpec, normal_utilities
from rankmix.rankings import Permutation

# SeedSequence purposes: everything a run draws descends from (seed, purpose, ...)
_OPS = 0
_SPEC = 1


def op_seed(seed: int, op: int) -> int:
    """The program seed of operation ``op`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, _OPS, op]).generate_state(1)[0])


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's own recomputation."""


@dataclass
class Outcome:
    """What one checked operation produced: rows processed and, per scored
    clustering, its risk and whether k_hat equals the true component count."""

    rows: int
    risks: list
    k_exact: list


# ------------------------------------------------------------ shared checks

def optimal_risk(predicted, truth) -> float:
    """Misclassification risk under the best one-to-one label matching."""
    _, p = np.unique(np.asarray(predicted), return_inverse=True)
    _, t = np.unique(np.asarray(truth), return_inverse=True)
    agree = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(agree, (p, t), 1.0)
    rows, cols = linear_sum_assignment(agree, maximize=True)
    return 1.0 - agree[rows, cols].sum() / p.size


def same_partition(a, b) -> bool:
    pairs = set(zip(np.asarray(a).tolist(), np.asarray(b).tolist()))
    return len(pairs) == len(set(np.asarray(a).tolist())) == len(set(np.asarray(b).tolist()))


def check_epsilon_graph(rows: np.ndarray, t2: float, labels) -> None:
    """Labels must be the connected components of {(i, j): |row_i - row_j| <= t2}."""
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial.distance import pdist, squareform

    adjacency = squareform(pdist(rows)) <= t2
    _, components = connected_components(adjacency, directed=False)
    if not same_partition(components, labels):
        raise CheckFailed(f"labels are not the epsilon-graph components at t2={t2!r}")


def check_risk(reported: float, predicted, truth) -> float:
    expected = optimal_risk(predicted, truth)
    if abs(reported - expected) > 1e-12:
        raise CheckFailed(f"reported risk {reported!r}, recomputed {expected!r}")
    return expected


# ---------------------------------------------------------------- workloads

class Workload:
    """Base: owns a scratch directory inside ``workdir`` for the run's files."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=workdir))

    def run(self, op: int):
        raise NotImplementedError

    def check(self, op: int, output, evaluations: list) -> Outcome:
        raise NotImplementedError

    def finish(self) -> list:
        """Checks made once per run after the timed loop; returns failure messages."""
        return []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


class PipelineGauss(Workload):
    """One op: run_pipeline on a 3-component Gaussian mixture, n=40, N=1000, p=0.3."""

    name = "pipeline_gauss"
    N, P, ITEMS, K, SIGMA = 1000, 0.3, 40, 3, 0.3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.spec = MixtureSpec(
            [
                ComponentSpec.gaussian(
                    normal_utilities(self.ITEMS, np.random.SeedSequence([seed, _SPEC, c])),
                    self.SIGMA,
                )
                for c in range(self.K)
            ],
            weights=[1.0 / self.K] * self.K,
        )

    def run(self, op: int):
        return pipeline.run_pipeline(self.spec, N=self.N, p=self.P, seed=op_seed(self.seed, op))

    def check(self, op, result, evaluations) -> Outcome:
        labels = np.asarray(result.clustering.labels)
        if len(evaluations) != 1:
            raise CheckFailed(f"expected one scoring call, saw {len(evaluations)}")
        predicted, truth = evaluations[0]
        if labels.shape != (self.N,) or not np.array_equal(predicted, labels):
            raise CheckFailed("scored labels differ from the returned labels")
        if result.clustering.k_hat != len(np.unique(labels)):
            raise CheckFailed("k_hat differs from the number of distinct labels")
        check_epsilon_graph(result.estimate.m_hat, result.diagnostics["t2"], labels)
        risk = check_risk(result.evaluation.risk, labels, truth)
        return Outcome(self.N, [risk], [result.clustering.k_hat == len(np.unique(truth))])


class Exp2Sweep(Workload):
    """One op: the exp2 risk-vs-p sweep, n=15, k=3, lambda=60, sigma=0.5,
    p in {0.8, 0.4, 0.2, 0.1}, 5 trials (20 cells)."""

    name = "exp2_sweep"
    CELLS = 20

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.config = experiments.ExperimentConfig(
            experiment="exp2",
            out_dir=str(self.tmp / "out"),
            trials=5,
            n_list=(15,),
            k=3,
            lam=60.0,
            p_list=(0.8, 0.4, 0.2, 0.1),
            noise_list=(0.5,),
            family="gaussian",
        )
        self.first_csv: bytes | None = None

    def _sweep(self, op: int, out_dir: Path) -> list:
        cfg = self.config.replace(seed=op_seed(self.seed, op), out_dir=str(out_dir))
        return experiments.run_experiment(cfg)

    def run(self, op: int):
        return self._sweep(op, self.tmp / "out")

    def check(self, op, paths, evaluations) -> Outcome:
        (path,) = paths
        csv = Path(path).read_bytes()
        lines = csv.decode().splitlines()
        if lines[0].split(",") != list(experiments.EXP2_COLUMNS):
            raise CheckFailed(f"unexpected CSV header {lines[0]!r}")
        rows = [dict(zip(experiments.EXP2_COLUMNS, line.split(","))) for line in lines[1:]]
        if len(rows) != self.CELLS or len(evaluations) != self.CELLS:
            raise CheckFailed(f"expected {self.CELLS} cells, got {len(rows)} rows, {len(evaluations)} scorings")
        risks, k_exact, total = [], [], 0
        for row, (predicted, truth) in zip(rows, evaluations):
            risks.append(check_risk(float(row["risk"]), predicted, truth))
            if int(row["k_hat"]) != len(np.unique(predicted)):
                raise CheckFailed(f"k_hat {row['k_hat']} differs from the scored labels")
            k_exact.append(int(row["k_hat"]) == len(np.unique(truth)))
            total += len(truth)
        if op == 0:
            self.first_csv = csv
        return Outcome(total, risks, k_exact)

    def finish(self) -> list:
        """Re-run operation 0: the CSV must come back byte for byte."""
        if self.first_csv is None:
            return []
        (path,) = self._sweep(0, self.tmp / "rerun")
        if Path(path).read_bytes() != self.first_csv:
            return ["exp2 CSV of operation 0 changed when re-run with the same seed"]
        return []


class CliMallows(Workload):
    """One op: generate -> denoise --auto -> cluster --auto -> evaluate through
    rankmix.cli.main on a 3-component Mallows mixture, n=40, N=600, p=0.5."""

    name = "cli_mallows"
    N, P, ITEMS, K, PHI = 600, 0.5, 40, 3, 0.8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(np.random.SeedSequence([seed, _SPEC]))
        spec = MixtureSpec(
            [ComponentSpec.mallows(Permutation(rng.permutation(self.ITEMS)), self.PHI) for _ in range(self.K)],
            weights=[1.0 / self.K] * self.K,
        )
        self.spec_path = self.tmp / "spec.txt"
        write_mixture_spec(self.spec_path, spec)

    def run(self, op: int):
        t = str(self.tmp)
        steps = [
            ["generate", "--spec", str(self.spec_path), "--num", str(self.N), "--p", str(self.P),
             "--seed", str(op_seed(self.seed, op)), "--out", f"{t}/obs.txt"],
            ["denoise", "--in", f"{t}/obs.txt", "--auto", "--out", f"{t}/mhat.txt"],
            ["cluster", "--in", f"{t}/mhat.txt", "--auto", "--out", f"{t}/labels.txt"],
            ["evaluate", "--pred", f"{t}/labels.txt", "--truth", f"{t}/obs.txt.labels"],
        ]
        codes = []
        printed = io.StringIO()
        for argv in steps:
            with contextlib.redirect_stdout(printed):
                codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        return codes, printed.getvalue()

    def check(self, op, output, evaluations) -> Outcome:
        codes, printed = output
        if codes != [0, 0, 0, 0]:
            raise CheckFailed(f"CLI exit codes {codes}")
        reported = dict(line.split("=", 1) for line in printed.splitlines() if "=" in line)
        predicted = np.loadtxt(self.tmp / "labels.txt", dtype=int)
        truth = np.loadtxt(self.tmp / "obs.txt.labels", dtype=int)
        if predicted.shape != (self.N,) or truth.shape != (self.N,):
            raise CheckFailed("label files do not hold one label per row")
        risk = check_risk(float(reported["risk"]), predicted, truth)
        meta = dict(
            line.split("=", 1) for line in (self.tmp / "labels.txt.meta").read_text().splitlines()
        )
        m_hat = np.loadtxt(self.tmp / "mhat.txt", skiprows=1)
        if m_hat.shape[0] != self.N or not np.isfinite(m_hat).all():
            raise CheckFailed("mhat.txt is not a finite dense N-row matrix")
        check_epsilon_graph(m_hat, float(meta["threshold_used"]), predicted)
        k_hat = int(meta["k_hat"])
        if k_hat != len(np.unique(predicted)):
            raise CheckFailed("k_hat in labels.txt.meta differs from the label file")
        return Outcome(self.N, [risk], [k_hat == len(np.unique(truth))])


WORKLOADS = {w.name: w for w in (PipelineGauss, Exp2Sweep, CliMallows)}
