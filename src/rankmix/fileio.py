"""Text file formats shared by the CLI tools.

Three small formats, all line-oriented ASCII:

* matrix: header line ``N d``, then N rows of entries with the literal
  token NA marking a missing value (NaN is written as NA; an infinite
  value is refused before the file is opened, since no reader accepts it).
  An N x 0 matrix is its header and N blank lines. write_observations
  writes the same format from an observation matrix held in memory with 0
  marking a missing value, through one table of three tokens (-0.5, NA,
  0.5) and one row encoder; read_observations, which CLI denoise uses,
  decodes through the same table, keeps the result only if the encoder
  gives back the file's bytes, else checks read_matrix's, and returns an
  ObservationMatrix. CLI denoise writes its estimate as two matrix files,
  the N x r coordinates and the r x d basis, whose product is the dense estimate;
* labels: one integer per line (integral floats and bools are written as
  integers; any other value is refused before the file is opened);
* key=value: one pair per line (mixture specs, experiment configs, and the
  .meta sidecars), ``#`` comments and blank lines ignored.

Floats are written with repr, so numeric round-trips are exact. A value
that does not parse, or that holds '_' or a non-ASCII character (which
int() and float() would read, '1_0' as 10), is reported with the file's
path and the row (matrices), the line (labels) or the key (key=value files).
"""

from __future__ import annotations

import math

import numpy as np

from .estimation import ObservationMatrix
from .generators import GAUSSIAN, MALLOWS, MNL, ComponentSpec, MixtureSpec
from .rankings import Permutation, _integer_values, _observations, _own

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


# The one token table of observation files. Code c = 2 * value + 1 is read as
# _OBSERVATION_VALUES[c] and written as _WRITTEN_TOKENS[c], token c of
# (repr(-0.5), missing, repr(0.5)) and a space, or as code c + 3, the token and
# a newline, at the end of a row. _TOKEN_WORDS holds each token NUL-padded to
# 8 bytes as one uint64 (no token holds a NUL). Tokens differ in their first
# byte, which gives the code (255: no token). Rows go _DECODE_BLOCK entries at
# a time, which keeps every temporary small (np.compress makes an int64 index
# per byte it keeps).
_OBSERVATION_VALUES = np.array([-0.5, 0.0, 0.5])
_WRITTEN_TOKENS = [token + sep for sep in (b" ", b"\n") for token in (b"-0.5", b"NA", b"0.5")]
_TOKEN_WORDS = np.frombuffer(b"".join(t.ljust(8, b"\0") for t in _WRITTEN_TOKENS), dtype=np.uint64)
_CODE_OF_FIRST_BYTE = np.full(256, 255, dtype=np.uint8)
_CODE_OF_FIRST_BYTE[[t[0] for t in _WRITTEN_TOKENS[:3]]] = range(3)
_DECODE_BLOCK = 1 << 14


def _encode_rows(codes: np.ndarray) -> np.ndarray:
    """The uint8 bytes of the rows of an N x d array of codes, d > 0: the
    body that write_observations writes and _decode_rows checks. Each code
    takes its padded token word, and the words' bytes lose their NULs."""
    row_end = np.zeros(codes.shape[1], dtype=np.uint8)
    row_end[-1] = len(_OBSERVATION_VALUES)
    padded = _TOKEN_WORDS.take(codes + row_end).view(np.uint8)
    return np.compress((padded != 0).ravel(), padded)


def write_observations(path, values) -> None:
    """Write an observation matrix held as +-1/2 with 0 marking a missing
    entry, in the matrix format: the bytes write_matrix writes for the copy
    with NA (NaN) in place of 0. The rows go through the one token table and
    the one encoder, _encode_rows, that read_observations checks with."""
    values = _observations(values)
    N, d = values.shape
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (N, d))
        if d == 0:
            fh.write(b"\n" * N)
            return
        step = max(1, _DECODE_BLOCK // d)
        for first in range(0, N, step):
            codes = (values[first:first + step] * 2.0 + 1.0).astype(np.uint8)
            fh.write(_encode_rows(codes))


def _decode_observations(data: bytes) -> np.ndarray | None:
    """The matrix whose write_observations bytes are data, or None unless
    data is exactly such bytes for an N x d matrix with N * d > 0."""
    end = data.find(b"\n")
    header = data[:end]
    sizes = header.split(b" ")
    if end < 0 or len(sizes) != 2 or not all(size.isdigit() for size in sizes):
        return None
    N, d = int(sizes[0]), int(sizes[1])
    if header != b"%d %d" % (N, d) or N * d == 0:
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=end + 1)
    row_ends = np.flatnonzero(body == ord("\n")) + 1
    if row_ends.size != N or row_ends[-1] != body.size:
        return None
    values = np.empty((N, d))
    step = max(1, _DECODE_BLOCK // d)
    for first in range(0, N, step):
        last = min(first + step, N)
        start = row_ends[first - 1] if first else 0
        codes = _decode_rows(body[start:row_ends[last - 1]], last - first, d)
        if codes is None:
            return None
        _OBSERVATION_VALUES.take(codes, out=values[first:last])
    return values


def _decode_rows(body: np.ndarray, N: int, d: int) -> np.ndarray | None:
    """The N x d codes of the tokens whose write_observations bytes are body,
    or None unless body is exactly such bytes.

    Each token is classified by its first byte; _encode_rows of the codes
    must then reproduce body byte for byte, which checks the token count,
    every separator and every byte of every token."""
    # a token starts the body or follows a byte at most b" " (which includes
    # both separators); the exact comparison below refuses any other such byte
    starts = np.empty(body.shape, dtype=bool)
    starts[:1] = True
    np.less_equal(body[:-1], ord(" "), out=starts[1:])
    codes = _CODE_OF_FIRST_BYTE.take(np.compress(starts, body))
    del starts
    if codes.size != N * d or codes.max() >= len(_OBSERVATION_VALUES):
        return None
    codes = codes.reshape(N, d)
    return codes if np.array_equal(_encode_rows(codes), body) else None


def read_observations(path) -> ObservationMatrix:
    """Read an observation matrix file as an ObservationMatrix, 0 where the
    file has NA. A file that is byte for byte what write_observations
    writes is decoded through its token table; any other file is read as
    read_matrix reads it, with its errors, and an entry other than -0.5, 0.5
    or NA is reported with the path and the row, ahead of read_matrix's
    refusal of a row with '_' or a non-ASCII character. Either check is the
    file's one check: the matrix owns the array it checked, uncopied."""
    with open(path, "rb") as fh:
        values = _decode_observations(fh.read())
    if values is None:
        values, rows = _matrix_rows(path)
        observed = np.isin(values, (-0.5, 0.5))
        invalid = ~observed & ~np.isnan(values)
        if invalid.any():
            i, j = np.unravel_index(invalid.argmax(), invalid.shape)
            problem = ("a missing entry is written NA, not 0" if values[i, j] == 0.0
                       else "every entry must be exactly +1/2 or -1/2, or NA where missing")
            raise ValueError(f"{path}: row {i}: {problem}")
        _check_rows_written(path, rows)
        values = np.where(observed, values, 0.0)
    return _own(ObservationMatrix, values=values)


def _written(text: str) -> str:
    """text, or a ValueError where it holds '_' or a non-ASCII character:
    int() and float() read both ('1_0' as 10, a non-ASCII digit as its ASCII
    one), and no writer here writes either. The readers check every label
    line, matrix row and key=value value with it, before or after parsing."""
    if "_" in text or not text.isascii():
        raise ValueError("numbers are written in ASCII digits, without '_'")
    return text


def _check_rows_written(path, rows) -> None:
    """_written of each row line, whole: one scan per row, not per entry."""
    for i, line in enumerate(rows):
        try:
            _written(line)
        except ValueError as err:
            raise ValueError(f"{path}: row {i}: {err}") from None


def read_matrix(path) -> np.ndarray:
    values, rows = _matrix_rows(path)
    _check_rows_written(path, rows)
    return values


def _matrix_rows(path) -> tuple[np.ndarray, list[str]]:
    """The matrix in the file at path and its row lines, with every check of
    read_matrix made but _check_rows_written's, which read_observations
    makes after its own."""
    with open(path) as fh:
        stripped = [line.strip() for line in fh]
    lines = [line for line in stripped if line]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or not all(size.isascii() and size.isdecimal() for size in header):
        raise ValueError(f"{path}: header must be 'N d', two non-negative integers, got {lines[0]!r}")
    N, d = int(header[0]), int(header[1])
    # blank lines are skipped, except that each row of an N x 0 matrix is one
    rows = stripped[stripped.index(lines[0]) + 1:] if d == 0 else lines[1:]
    if len(rows) != N:
        raise ValueError(f"{path}: header claims {N} rows, file has {len(rows)}")
    out = np.empty((N, d), dtype=float)
    for i, line in enumerate(rows):
        toks = line.split()
        if len(toks) != d:
            raise ValueError(f"{path}: row {i} has {len(toks)} entries, expected {d}")
        try:
            out[i] = [math.nan if tok == "NA" else float(tok) for tok in toks]
        except ValueError as err:
            raise ValueError(f"{path}: row {i}: {err}") from None
        if np.count_nonzero(~np.isfinite(out[i])) != toks.count("NA"):
            raise ValueError(f"{path}: row {i} has a non-finite entry; only NA marks a missing value")
    return out, rows


def write_labels(path, labels) -> None:
    labels = _integer_values(labels, "labels")
    with open(path, "w") as fh:
        for v in labels.tolist():
            fh.write(f"{v}\n")


def read_labels(path) -> np.ndarray:
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    labels.append(int(_written(line)))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected an integer label, got {line.strip()!r}") from None
    return np.array(labels, dtype=int)


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


def _list_of(convert, sep: str | None = ","):
    """A parser of a sep-separated list: text -> tuple of convert(token)."""
    return lambda text: tuple(convert(tok) for tok in text.split(sep))


def _parsed(path, key: str, text: str, convert):
    """convert(text), raising a ValueError that names the file and the key."""
    try:
        return convert(_written(text))
    except ValueError as err:
        raise ValueError(f"{path}: cannot parse {key}={text!r}: {err}") from None


def _pop_required(kv: dict, key: str, path, convert=str):
    if key not in kv:
        raise ValueError(f"{path}: missing key {key!r}")
    return _parsed(path, key, kv.pop(key), convert)


def read_mixture_spec(path) -> MixtureSpec:
    kv = read_key_values(path)
    n = _pop_required(kv, "n", path, int)
    k = _pop_required(kv, "k", path, int)
    weights = _pop_required(kv, "weights", path, _list_of(float))
    if len(weights) != k:
        raise ValueError(f"{path}: k={k} but weights has {len(weights)} entries")
    components = []
    for i in range(k):
        prefix = f"component.{i}"
        family = _pop_required(kv, f"{prefix}.family", path)
        if family not in _NOISE_KEY:
            raise ValueError(f"{path}: unknown family {family!r} for component {i}")
        noise = _pop_required(kv, f"{prefix}.{_NOISE_KEY[family]}", path, float)
        if family == MALLOWS:
            order = _pop_required(kv, f"{prefix}.center", path, _list_of(int, None))
            if len(order) != n:
                raise ValueError(f"{path}: component {i} center has {len(order)} items, expected {n}")
            components.append(ComponentSpec.mallows(Permutation(order), noise))
        else:
            utilities = _pop_required(kv, f"{prefix}.utilities", path, _list_of(float))
            if len(utilities) != n:
                raise ValueError(
                    f"{path}: component {i} utilities has {len(utilities)} entries, expected {n}"
                )
            components.append(ComponentSpec(family, noise, utilities=utilities))
    if kv:
        raise ValueError(f"{path}: unrecognized keys {sorted(kv)}")
    return MixtureSpec(components=tuple(components), weights=weights)
