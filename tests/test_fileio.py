"""Round-trip and validation tests for the text file formats.

Formats under test: matrix (`N d` header, NA for missing entries), labels
(one integer per line), mixture spec and meta files (key=value text).
"""

import numpy as np
import pytest

from rankmix.fileio import (
    read_key_values,
    read_labels,
    read_matrix,
    read_mixture_spec,
    write_key_values,
    write_labels,
    write_matrix,
    write_mixture_spec,
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


def test_matrix_roundtrip_general_floats(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(7, 5))
    path = tmp_path / "m.txt"
    write_matrix(path, arr)
    assert np.array_equal(read_matrix(path), arr)  # repr round-trips exactly


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
