"""Text file formats shared by the CLI tools.

Three small formats, all line-oriented ASCII:

* matrix: header line ``N d``, then N rows of entries with the literal
  token NA marking a missing value (NaN is written as NA; an infinite
  value is refused before the file is opened, since no reader accepts it);
* labels: one integer per line (integral floats and bools are written as
  integers; any other value is refused before the file is opened);
* key=value: one pair per line (mixture specs, experiment configs, and the
  .meta sidecars), ``#`` comments and blank lines ignored.

Floats are written with repr, so numeric round-trips are exact.
"""

from __future__ import annotations

import math

import numpy as np

from .generators import GAUSSIAN, MALLOWS, MNL, ComponentSpec, MixtureSpec
from .rankings import Permutation, _integer_values

_NOISE_KEY = {MNL: "beta", GAUSSIAN: "sigma", MALLOWS: "phi"}


def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "NA"
    return repr(float(x)) if isinstance(x, float) else str(x)


# ---------------------------------------------------------------------------
# matrices and labels
# ---------------------------------------------------------------------------

def write_matrix(path, values) -> None:
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("matrix must be 2-d")
    if np.isinf(values).any():
        raise ValueError("matrix entries must be finite or NaN (written as NA); got an infinite value")
    with open(path, "w") as fh:
        fh.write(f"{values.shape[0]} {values.shape[1]}\n")
        for row in values:
            fh.write(" ".join("NA" if math.isnan(v) else repr(v) for v in row.tolist()) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: header must be 'N d', got {lines[0]!r}")
    N, d = int(header[0]), int(header[1])
    if len(lines) - 1 != N:
        raise ValueError(f"{path}: header claims {N} rows, file has {len(lines) - 1}")
    out = np.empty((N, d), dtype=float)
    for i, line in enumerate(lines[1:]):
        toks = line.split()
        if len(toks) != d:
            raise ValueError(f"{path}: row {i} has {len(toks)} entries, expected {d}")
        out[i] = [math.nan if tok == "NA" else float(tok) for tok in toks]
        if np.count_nonzero(~np.isfinite(out[i])) != toks.count("NA"):
            raise ValueError(f"{path}: row {i} has a non-finite entry; only NA marks a missing value")
    return out


def write_labels(path, labels) -> None:
    labels = _integer_values(labels, "labels")
    with open(path, "w") as fh:
        for v in labels.tolist():
            fh.write(f"{v}\n")


def read_labels(path) -> np.ndarray:
    with open(path) as fh:
        return np.array([int(line.strip()) for line in fh if line.strip()], dtype=int)


# ---------------------------------------------------------------------------
# key=value files (configs, mixture specs, .meta sidecars)
# ---------------------------------------------------------------------------

def write_key_values(path, pairs: dict) -> None:
    with open(path, "w") as fh:
        for key, value in pairs.items():
            if isinstance(value, (list, tuple, np.ndarray)):
                value = ",".join(_fmt(v) for v in np.asarray(value).tolist())
            else:
                value = _fmt(value)
            fh.write(f"{key}={value}\n")


def read_key_values(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


# ---------------------------------------------------------------------------
# mixture specs
# ---------------------------------------------------------------------------

def write_mixture_spec(path, spec: MixtureSpec) -> None:
    pairs: dict = {
        "n": spec.n,
        "k": spec.k,
        "weights": list(np.asarray(spec.weights, dtype=float)),
    }
    for i, comp in enumerate(spec.components):
        prefix = f"component.{i}"
        pairs[f"{prefix}.family"] = comp.family
        pairs[f"{prefix}.{_NOISE_KEY[comp.family]}"] = float(comp.noise)
        if comp.family == MALLOWS:
            pairs[f"{prefix}.center"] = " ".join(str(int(a)) for a in comp.center.order)
        else:
            pairs[f"{prefix}.utilities"] = list(np.asarray(comp.utilities, dtype=float))
    write_key_values(path, pairs)


def _pop_required(kv: dict, key: str, path) -> str:
    if key not in kv:
        raise ValueError(f"{path}: missing key {key!r}")
    return kv.pop(key)


def read_mixture_spec(path) -> MixtureSpec:
    kv = read_key_values(path)
    n = int(_pop_required(kv, "n", path))
    k = int(_pop_required(kv, "k", path))
    weights = [float(tok) for tok in _pop_required(kv, "weights", path).split(",")]
    if len(weights) != k:
        raise ValueError(f"{path}: k={k} but weights has {len(weights)} entries")
    components = []
    for i in range(k):
        prefix = f"component.{i}"
        family = _pop_required(kv, f"{prefix}.family", path)
        if family not in _NOISE_KEY:
            raise ValueError(f"{path}: unknown family {family!r} for component {i}")
        noise = float(_pop_required(kv, f"{prefix}.{_NOISE_KEY[family]}", path))
        if family == MALLOWS:
            order = [int(tok) for tok in _pop_required(kv, f"{prefix}.center", path).split()]
            if len(order) != n:
                raise ValueError(f"{path}: component {i} center has {len(order)} items, expected {n}")
            components.append(ComponentSpec.mallows(Permutation(order), noise))
        else:
            utilities = [float(tok) for tok in _pop_required(kv, f"{prefix}.utilities", path).split(",")]
            if len(utilities) != n:
                raise ValueError(
                    f"{path}: component {i} utilities has {len(utilities)} entries, expected {n}"
                )
            components.append(ComponentSpec(family, noise, utilities=utilities))
    if kv:
        raise ValueError(f"{path}: unrecognized keys {sorted(kv)}")
    return MixtureSpec(components=tuple(components), weights=weights)
