"""Round-trip and validation tests for the text file formats.

Formats under test: matrix (`N d` header, NA for missing entries), labels
(one integer per line), mixture spec and meta files (key=value text).
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmix import fileio
from rankmix.estimation import ObservationMatrix
from rankmix.fileio import (
    read_key_values,
    read_labels,
    read_matrix,
    read_mixture_spec,
    read_observations,
    write_key_values,
    write_labels,
    write_matrix,
    write_mixture_spec,
    write_observations,
)
from rankmix.generators import ComponentSpec, MixtureSpec
from rankmix.rankings import Permutation


def test_matrix_roundtrip_with_missing(tmp_path):
    arr = np.array([[0.5, np.nan, -0.5], [np.nan, 0.5, 0.5]])
    path = tmp_path / "matrix.txt"
    write_matrix(path, arr)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 3"
    assert lines[1].split() == ["0.5", "NA", "-0.5"]
    back = read_matrix(path)
    assert back.shape == (2, 3)
    assert np.array_equal(np.isnan(back), np.isnan(arr))
    assert np.array_equal(back[~np.isnan(arr)], arr[~np.isnan(arr)])


_TRANSPOSED = (41, 25)  # given to the writer as an F-ordered transpose


# beyond the first three: the shapes with no entries skip the encoder, and the
# next two span several write blocks, of many rows and of one row each
@pytest.mark.parametrize(
    "shape", [(1, 1), (6, 10), (40, 3), (3, 0), (0, 4), (0, 0), (2000, 10), (2, 20000), _TRANSPOSED]
)
@pytest.mark.parametrize("missing", [0.0, 0.4, 1.0])
def test_observations_writer_matches_write_matrix_of_the_na_copy(tmp_path, shape, missing):
    rng = np.random.default_rng(shape[0])
    values = np.where(rng.random(shape) < 0.5, -0.5, 0.5)
    values[rng.random(shape) < missing] = 0.0
    if shape == _TRANSPOSED:
        values = np.ascontiguousarray(values.T).T
        assert values.flags.f_contiguous and not values.flags.c_contiguous
    write_observations(tmp_path / "obs.txt", values)
    write_matrix(tmp_path / "want.txt", np.where(values == 0.0, np.nan, values))
    assert (tmp_path / "obs.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


@pytest.mark.parametrize("bad", [0.4, np.nan, np.inf])
def test_observations_writer_refuses_values_off_the_three_tokens(tmp_path, bad):
    with pytest.raises(ValueError, match="exactly"):
        write_observations(tmp_path / "obs.txt", [[0.5, bad], [0.0, -0.5]])
    assert not (tmp_path / "obs.txt").exists()


def _observations_of(shape, missing, seed):
    rng = np.random.default_rng(seed)
    values = np.where(rng.random(shape) < 0.5, -0.5, 0.5)
    values[rng.random(shape) < missing] = 0.0
    return values


# the last two span several decode blocks, of many rows and of one row each
@pytest.mark.parametrize("shape", [(1, 1), (6, 10), (40, 3), (3, 0), (0, 4), (0, 0), (2000, 10), (2, 20000)])
@pytest.mark.parametrize("missing", [0.0, 0.4, 1.0])
def test_observations_reader_mirrors_the_writer(tmp_path, monkeypatch, shape, missing):
    values = _observations_of(shape, missing, shape[0])
    write_observations(tmp_path / "obs.txt", values)
    if 0 not in shape:  # the writer's bytes are decoded without read_matrix
        monkeypatch.setattr(fileio, "read_matrix", None)
    back = read_observations(tmp_path / "obs.txt").values
    assert back.shape == shape and back.dtype == float and not back.flags.writeable
    assert back.tobytes() == values.tobytes()


@pytest.mark.parametrize(
    "token, message",
    [("0.3", "every entry must be exactly +1/2 or -1/2, or NA where missing"),
     ("1_0", "every entry must be exactly +1/2 or -1/2, or NA where missing"),
     ("0", "a missing entry is written NA, not 0"),
     ("-0", "a missing entry is written NA, not 0")],
)
def test_observations_reader_names_the_file_and_row_of_a_bad_entry(tmp_path, token, message):
    path = tmp_path / "obs.txt"
    path.write_text(f"3 2\n0.5 NA\nNA 0.5\n-0.5 {token}\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: row 2: {message}") + "$"):
        read_observations(path)


def _spec_with_n(text):
    def write(path):
        write_mixture_spec(path, MixtureSpec([ComponentSpec.gaussian(np.arange(10.0), 0.5)], [1.0]))
        path.write_text(path.read_text().replace("n=10\n", f"n={text}\n"), encoding="utf-8")
    return write


# int() and float() read '1_0' as 10 and Arabic-Indic digits (U+0660-0669) as
# digits; no writer writes either, so every reader refuses them where it
# would otherwise parse them
@pytest.mark.parametrize(
    "reader, contents, where",
    [(read_labels, "0\n1_0\n", ":2: "),
     (read_labels, "0\n\u0663\n", ":2: "),
     (read_matrix, "2 1\n0.5\n1_0\n", ": row 1: "),
     (read_matrix, "1 2\n0.5 \u0665\n", ": row 0: "),
     (read_matrix, "\u0662 1\n0.5\n0.5\n", ": header "),
     (read_observations, "\u0662 1\n0.5\nNA\n", ": header "),
     (read_observations, "1 2\n0.5_0 NA\n", ": row 0: "),
     (read_mixture_spec, _spec_with_n("1_0"), ": cannot parse n="),
     (read_mixture_spec, _spec_with_n("\u0661\u0660"), ": cannot parse n=")],
)
def test_readers_refuse_numerals_the_writers_never_write(tmp_path, reader, contents, where):
    path = tmp_path / "file.txt"
    if callable(contents):
        contents(path)
    else:
        path.write_text(contents, encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}{where}")):
        reader(path)


# Each perturbation maps the header, the rows (lists of tokens) and a drawn
# position k to the file's new bytes, or to None where it does not apply.
def _join(header, rows, newline=b"\n"):
    return newline.join([header, *(b" ".join(row) for row in rows)]) + newline


def _in_body(old, new):
    def perturb(header, rows, k):
        return header + b"\n" + _join(header, rows)[len(header) + 1:].replace(old, new)
    return perturb


def _token_at(rows, k):
    cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    return cells[k % len(cells)] if cells else None


def _replace_token(new):
    def perturb(header, rows, k):
        if (cell := _token_at(rows, k)) is None:
            return None
        rows[cell[0]][cell[1]] = new
        return _join(header, rows)
    return perturb


def _drop_token(header, rows, k):
    if (cell := _token_at(rows, k)) is None:
        return None
    del rows[cell[0]][cell[1]]
    return _join(header, rows)


def _add_token(header, rows, k):
    if not rows:
        return None
    rows[k % len(rows)].append(b"0.5")
    return _join(header, rows)


def _move_token_down(header, rows, k):
    # the last token of a row becomes the first of the next: the token count holds
    if len(rows) < 2 or not rows[0]:
        return None
    i = k % (len(rows) - 1)
    rows[i + 1].insert(0, rows[i].pop())
    return _join(header, rows)


def _drop_row(header, rows, k):
    if not rows:
        return None
    del rows[k % len(rows)]
    return _join(header, rows)


_PERTURBATIONS = {
    "canonical": lambda header, rows, k: _join(header, rows),
    "crlf": lambda header, rows, k: _join(header, rows, b"\r\n"),
    "trailing space": _in_body(b"\n", b" \n"),
    "tab": _in_body(b" ", b"\t"),
    "double space": _in_body(b" ", b"  "),
    "0.50": _replace_token(b"0.50"),
    "+0.5": _replace_token(b"+0.5"),
    "-0": _replace_token(b"-0"),
    "na": _replace_token(b"na"),
    "0.3": _replace_token(b"0.3"),
    "-0.7": _replace_token(b"-0.7"),
    "NB": _replace_token(b"NB"),
    "stray letter": _replace_token(b"0.5x"),
    "no final newline": lambda header, rows, k: _join(header, rows)[:-1],
    "extra blank line": lambda header, rows, k: _join(header, rows) + b"\n",
    "leading blank line": lambda header, rows, k: b"\n" + _join(header, rows),
    "header with two spaces": lambda header, rows, k: _join(header.replace(b" ", b"  "), rows),
    "header with a leading zero": lambda header, rows, k: _join(b"0" + header, rows),
    "dropped token": _drop_token,
    "extra token": _add_token,
    "token moved to the next row": _move_token_down,
    "missing row": _drop_row,
}


def _accepted(dense) -> bool:
    try:
        ObservationMatrix.from_dense(dense)
    except ValueError:
        return False
    return True


def _reference_outcome(path):
    """What read_observations must do with the file at path: give the bytes
    of ObservationMatrix.from_dense(read_matrix(path)).values, raise
    read_matrix's error with its text, or, where from_dense refuses an
    entry, raise an error that names the path and the first such row."""
    try:
        dense = read_matrix(path)
    except ValueError as err:
        return "error", str(err)
    try:
        values = ObservationMatrix.from_dense(dense).values
    except ValueError:
        row = next(i for i in range(len(dense)) if not _accepted(dense[i:i + 1]))
        return "error starting", f"{path}: row {row}: "
    return "values", (values.shape, values.dtype, values.tobytes())


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 7),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(_PERTURBATIONS)),
    st.integers(0, 10**6),
)
def test_observations_reader_matches_read_matrix_and_from_dense(N, d, missing, seed, kind, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.txt"
        write_observations(path, _observations_of((N, d), missing, seed))
        header, *lines = path.read_bytes().split(b"\n")[:-1]
        text = _PERTURBATIONS[kind](header, [line.split(b" ") if d else [] for line in lines], k)
        if text is None:
            return
        path.write_bytes(text)
        want, expected = _reference_outcome(path)
        try:
            values = read_observations(path).values
        except ValueError as err:
            assert want != "values", (kind, text, err)
            same = str(err) == expected if want == "error" else str(err).startswith(expected)
            assert same, (kind, text, err)
        else:
            assert want == "values" and (values.shape, values.dtype, values.tobytes()) == expected, (kind, text)


def test_matrix_roundtrip_general_floats(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(7, 5))
    path = tmp_path / "m.txt"
    write_matrix(path, arr)
    assert np.array_equal(read_matrix(path), arr)  # repr round-trips exactly


@pytest.mark.parametrize("shape", [(3, 0), (1, 0), (0, 4), (0, 0)])
def test_matrix_roundtrip_with_no_rows_or_no_columns(tmp_path, shape):
    path = tmp_path / "m.txt"
    write_matrix(path, np.zeros(shape))
    back = read_matrix(path)
    assert back.shape == shape and back.dtype == float


@pytest.mark.parametrize(
    "body, message",
    [("3 0\n\n\n", "header claims 3 rows, file has 2"),
     ("3 0\n\n\n\n\n", "header claims 3 rows, file has 4"),
     ("2 0\n\n0.5\n", "row 1 has 1 entries, expected 0")],
)
def test_zero_column_matrix_keeps_the_row_checks(tmp_path, body, message):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        read_matrix(path)


def test_matrix_shape_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n0.5 NA 0.5\n0.5 0.5\n")
    with pytest.raises(ValueError):
        read_matrix(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_matrix_rejects_non_finite_tokens(tmp_path, token):
    path = tmp_path / "bad.txt"
    path.write_text(f"2 3\n0.5 NA 0.5\n0.5 {token} 0.5\n")
    with pytest.raises(ValueError, match=r"bad\.txt: row 1"):
        read_matrix(path)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_matrix_writer_refuses_infinite_values(tmp_path, bad):
    # read_matrix rejects an inf row, so writing one would leave an unreadable file
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="finite"):
        write_matrix(path, [[1.0, bad], [np.nan, 0.5]])
    assert not path.exists()


def test_labels_roundtrip(tmp_path):
    labels = np.array([0, 1, 1, 0, 2])
    path = tmp_path / "labels.txt"
    write_labels(path, labels)
    assert path.read_text() == "0\n1\n1\n0\n2\n"
    assert np.array_equal(read_labels(path), labels)


def test_labels_accept_integral_floats(tmp_path):
    path = tmp_path / "labels.txt"
    write_labels(path, [0.0, 1.0])
    assert path.read_text() == "0\n1\n"


@pytest.mark.parametrize("labels", [[0.5, 1.7, 2.2], [0.0, np.nan], [1.0, np.inf]])
def test_labels_reject_non_integer_values(tmp_path, labels):
    # a plain int cast would write [0.5, 1.7, 2.2] as 0 1 2
    path = tmp_path / "labels.txt"
    with pytest.raises(ValueError, match="integer"):
        write_labels(path, labels)
    assert not path.exists()


def test_key_values_roundtrip(tmp_path):
    path = tmp_path / "meta.txt"
    write_key_values(path, {"p_hat": 0.8, "kept_rank": 2, "singular_values": [3.5, 1.25]})
    kv = read_key_values(path)
    assert kv == {"p_hat": "0.8", "kept_rank": "2", "singular_values": "3.5,1.25"}


def test_key_values_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("# a comment\n\nseed=7\nn=30\n")
    assert read_key_values(path) == {"seed": "7", "n": "30"}


def test_key_values_duplicate_key_rejected(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("n=3\nn=4\n")
    with pytest.raises(ValueError):
        read_key_values(path)


def test_key_values_malformed_line_rejected(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("just some words\n")
    with pytest.raises(ValueError):
        read_key_values(path)


def _example_mixture():
    return MixtureSpec(
        components=(
            ComponentSpec.mnl([1.0, 0.5, 0.2, 0.0], 0.7),
            ComponentSpec.mallows(Permutation([3, 2, 1, 0]), 0.4),
        ),
        weights=[0.25, 0.75],
    )


def test_mixture_spec_roundtrip(tmp_path):
    spec = _example_mixture()
    path = tmp_path / "mixture.txt"
    write_mixture_spec(path, spec)
    back = read_mixture_spec(path)
    assert back.n == 4
    assert back.k == 2
    assert np.allclose(back.weights, [0.25, 0.75])
    assert back.components[0].family == "mnl"
    assert back.components[0].noise == 0.7
    assert np.array_equal(back.components[0].utilities, [1.0, 0.5, 0.2, 0.0])
    assert back.components[1].family == "mallows"
    assert back.components[1].noise == 0.4
    assert back.components[1].center == Permutation([3, 2, 1, 0])


def test_mixture_spec_literal_text(tmp_path):
    text = "\n".join(
        [
            "n=3",
            "k=2",
            "weights=0.5,0.5",
            "component.0.family=gaussian",
            "component.0.sigma=0.3",
            "component.0.utilities=1.0,0.0,-1.0",
            "component.1.family=mnl",
            "component.1.beta=1.0",
            "component.1.utilities=0.0,0.0,0.0",
            "",
        ]
    )
    path = tmp_path / "mixture.txt"
    path.write_text(text)
    spec = read_mixture_spec(path)
    assert spec.components[0].family == "gaussian"
    assert spec.components[0].noise == 0.3
    assert spec.components[1].family == "mnl"
    # writing reproduces an equivalent file
    out = tmp_path / "again.txt"
    write_mixture_spec(out, spec)
    assert read_mixture_spec(out).components[1].noise == 1.0


def test_mixture_spec_missing_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=3\nk=1\nweights=1.0\ncomponent.0.family=mnl\n")
    with pytest.raises(ValueError):
        read_mixture_spec(path)


def test_mixture_spec_weight_count_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "n=2\nk=2\nweights=1.0\n"
        "component.0.family=mnl\ncomponent.0.beta=1.0\ncomponent.0.utilities=0.0,1.0\n"
        "component.1.family=mnl\ncomponent.1.beta=1.0\ncomponent.1.utilities=0.0,1.0\n"
    )
    with pytest.raises(ValueError):
        read_mixture_spec(path)


def test_mixture_spec_rejects_nan_weights(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "n=2\nk=2\nweights=nan,nan\n"
        "component.0.family=mnl\ncomponent.0.beta=1.0\ncomponent.0.utilities=0.0,1.0\n"
        "component.1.family=mnl\ncomponent.1.beta=1.0\ncomponent.1.utilities=1.0,0.0\n"
    )
    with pytest.raises(ValueError, match="finite"):
        read_mixture_spec(path)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_mixture_spec_rejects_non_finite_noise(tmp_path, value):
    path = tmp_path / "bad.txt"
    path.write_text(
        "n=2\nk=1\nweights=1.0\n"
        f"component.0.family=gaussian\ncomponent.0.sigma={value}\ncomponent.0.utilities=0.0,1.0\n"
    )
    with pytest.raises(ValueError, match="finite"):
        read_mixture_spec(path)


def test_mixture_spec_utilities_length_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "n=3\nk=1\nweights=1.0\n"
        "component.0.family=mnl\ncomponent.0.beta=1.0\ncomponent.0.utilities=0.0,1.0\n"
    )
    with pytest.raises(ValueError):
        read_mixture_spec(path)


def test_mixture_spec_unknown_family(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "n=2\nk=1\nweights=1.0\n"
        "component.0.family=plackett\ncomponent.0.beta=1.0\ncomponent.0.utilities=0.0,1.0\n"
    )
    with pytest.raises(ValueError):
        read_mixture_spec(path)


def test_mixture_spec_wrong_noise_key(tmp_path):
    # a gaussian block must carry sigma, not beta
    path = tmp_path / "bad.txt"
    path.write_text(
        "n=2\nk=1\nweights=1.0\n"
        "component.0.family=gaussian\ncomponent.0.beta=1.0\ncomponent.0.utilities=0.0,1.0\n"
    )
    with pytest.raises(ValueError):
        read_mixture_spec(path)
