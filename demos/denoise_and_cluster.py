"""End-to-end run: sample a mixture, hide entries, denoise, cluster, score.

Also replays the same flow through the text-file interfaces, which is what
the command line does:

    rankmix generate --spec mix.txt --num 300 --p 0.7 --seed 5 --out obs.txt
    rankmix denoise --in obs.txt --auto --out mhat.txt
    rankmix cluster --in mhat.txt --auto --out labels.txt
    rankmix evaluate --pred labels.txt --truth obs.txt.labels

denoise writes the rank-r estimate as two factors: mhat.txt holds the N x r
coordinates and mhat.txt.basis the r x d basis with orthonormal rows, so the
dense estimate is their product and cluster reads the coordinates directly.
"""

import tempfile
from pathlib import Path

import numpy as np

from rankmix import (
    ComponentSpec,
    MixtureSpec,
    normal_utilities,
    read_key_values,
    read_labels,
    read_matrix,
    run_pipeline,
    write_mixture_spec,
)
from rankmix.cli import main as rankmix_cli

k, n = 3, 20
spec = MixtureSpec(
    [ComponentSpec.gaussian(normal_utilities(n, 10 + c), 0.3) for c in range(k)],
    [1 / k] * k,
)

# library route
result = run_pipeline(spec, N=300, p=0.7, seed=5)
print("diagnostics:")
for key, value in result.diagnostics.items():
    print(f"  {key} = {value}")
print(f"k_hat = {result.clustering.k_hat},  risk = {result.evaluation.risk:.4f}")
print("matching (predicted:true) = " + ",".join(f"{i}:{j}" for i, j in result.evaluation.matching))

# same thing through the file formats / CLI entry point, in a directory removed afterwards
with tempfile.TemporaryDirectory(prefix="rankmix_demo_") as tmp:
    workdir = Path(tmp)
    mix = workdir / "mix.txt"
    obs = workdir / "obs.txt"
    mhat = workdir / "mhat.txt"
    labels = workdir / "labels.txt"
    write_mixture_spec(mix, spec)
    rankmix_cli(["generate", "--spec", str(mix), "--num", "300", "--p", "0.7",
                 "--seed", "5", "--out", str(obs)])
    rankmix_cli(["denoise", "--in", str(obs), "--auto", "--out", str(mhat)])
    rankmix_cli(["cluster", "--in", str(mhat), "--auto", "--out", str(labels)])
    print(f"\nfiles in {workdir}:")
    meta = read_key_values(str(mhat) + ".meta")
    print(f"  denoise meta: p_hat={meta['p_hat']} kept_rank={meta['kept_rank']}")
    coords, basis = read_matrix(mhat), read_matrix(str(mhat) + ".basis")
    m_hat = coords @ basis  # the dense estimate, rebuilt from its factors
    print(f"  denoise factors: {coords.shape} coordinates @ {basis.shape} basis = {m_hat.shape} estimate")
    print(f"  cluster found {read_key_values(str(labels) + '.meta')['k_hat']} clusters")
    print("evaluate says:")
    rankmix_cli(["evaluate", "--pred", str(labels), "--truth", str(obs) + ".labels"])

    # the two routes see the same data: identical label files modulo nothing
    assert read_labels(labels).tolist() == result.clustering.labels.tolist()
    print("\nCLI labels match the library run exactly.")
