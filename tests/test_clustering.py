"""Tests for single-linkage clustering and its automatic t2 choice.

Expected labelings come from an independent epsilon-graph BFS oracle
(tests/oracles.py); threshold examples are worked by hand from sorted MST
edge weights.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankmix import cli, clustering
from rankmix.clustering import ClusteringResult, single_linkage
from rankmix.estimation import compute_svd, hsvt
from rankmix.fileio import write_matrix
from rankmix.generators import ComponentSpec, MixtureSpec, normal_utilities
from rankmix.pipeline import run_pipeline

from oracles import oracle_epsilon_graph_labels, oracle_mst_cut_labels, oracle_prim_full_scan


def _two_blobs(rng, n_per, dim, spread, gap):
    """Two Gaussian blobs centered gap apart along the first axis."""
    a = rng.normal(0.0, spread, size=(n_per, dim))
    b = rng.normal(0.0, spread, size=(n_per, dim))
    b[:, 0] += gap
    return np.vstack([a, b]), np.array([0] * n_per + [1] * n_per)


# ---------------------------------------------------------------------------
# single_linkage
# ---------------------------------------------------------------------------

def test_t2_zero_distinct_rows_all_singletons():
    rows = np.arange(12.0).reshape(6, 2)
    res = single_linkage(rows, 0.0)
    assert res.k_hat == 6
    assert list(res.labels) == [0, 1, 2, 3, 4, 5]


def test_t2_infinite_one_cluster():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(20, 4))
    res = single_linkage(rows, np.inf)
    assert res.k_hat == 1
    assert set(res.labels) == {0}


def test_two_groups_distance_ten_threshold_five():
    rng = np.random.default_rng(2)
    rows, truth = _two_blobs(rng, 15, 3, spread=0.2, gap=10.0)
    res = single_linkage(rows, 5.0)
    assert res.k_hat == 2
    assert list(res.labels) == oracle_epsilon_graph_labels(rows, 5.0)
    # groups recovered exactly: first blob appears first, so labels align
    assert np.array_equal(res.labels, truth)


def test_single_row():
    res = single_linkage(np.array([[1.0, 2.0]]), 0.0)
    assert res.k_hat == 1
    assert list(res.labels) == [0]
    assert res.mst_edge_weights.size == 0


def test_labels_surjective_and_result_fields():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(30, 2))
    res = single_linkage(rows, 0.4)
    assert isinstance(res, ClusteringResult)
    assert res.labels.shape == (30,)
    assert set(res.labels) == set(range(res.k_hat))
    assert res.threshold_used == 0.4
    assert res.mst_edge_weights.shape == (29,)
    assert np.all(np.diff(res.mst_edge_weights) >= 0)


def test_labels_assigned_by_first_appearance():
    # rows laid out so the second cluster's first member appears at index 1
    rows = np.array([[0.0], [100.0], [0.1], [100.1], [0.2]])
    res = single_linkage(rows, 1.0)
    assert list(res.labels) == [0, 1, 0, 1, 0]


def test_mst_cut_equals_epsilon_graph_on_random_instances():
    rng = np.random.default_rng(4)
    for trial in range(500):
        N = int(rng.integers(2, 51))
        dim = int(rng.integers(1, 5))
        rows = rng.normal(size=(N, dim))
        # thresholds spanning sub- and super-connectivity regimes
        t2 = float(rng.uniform(0.0, 3.0))
        res = single_linkage(rows, t2)
        assert list(res.labels) == oracle_epsilon_graph_labels(rows, t2), (
            f"trial {trial}: N={N} t2={t2}"
        )


def test_edges_of_length_exactly_t2_are_kept():
    # the cut is <= t2, not < t2; integer rows make every distance exact
    rows = np.array([[0.0], [1.0], [3.0], [4.0], [7.0]])
    assert single_linkage(rows, 1.0).labels.tolist() == [0, 0, 1, 1, 2]
    assert single_linkage(rows, 2.0).labels.tolist() == [0, 0, 0, 0, 1]
    assert single_linkage(rows, 3.0).labels.tolist() == [0, 0, 0, 0, 0]
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows = rng.integers(0, 4, size=(int(rng.integers(2, 30)), 3)).astype(float)
        for t2 in np.unique(single_linkage(rows, 0.0).mst_edge_weights):
            assert single_linkage(rows, t2).labels.tolist() == oracle_epsilon_graph_labels(rows, t2)


def test_permuting_rows_permutes_labels():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 3))
    t2 = 0.8
    base = single_linkage(rows, t2)
    perm = rng.permutation(40)
    permuted = single_linkage(rows[perm], t2)
    # identical as partitions: same label iff same label
    a = np.asarray(base.labels)[perm]
    b = np.asarray(permuted.labels)
    assert np.array_equal(a[:, None] == a[None, :], b[:, None] == b[None, :])
    assert base.k_hat == permuted.k_hat


def test_k_hat_monotone_in_t2():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(35, 2))
    thresholds = np.sort(rng.uniform(0.0, 4.0, size=25))
    ks = [single_linkage(rows, float(t)).k_hat for t in thresholds]
    assert all(k1 >= k2 for k1, k2 in zip(ks, ks[1:]))


def test_ground_truth_recovered_inside_separation_window():
    rng = np.random.default_rng(7)
    for trial in range(20):
        rows, truth = _two_blobs(rng, 12, 4, spread=0.3, gap=12.0)
        intra = max(
            np.linalg.norm(rows[i] - rows[j])
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
            if truth[i] == truth[j]
        )
        inter = min(
            np.linalg.norm(rows[i] - rows[j])
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
            if truth[i] != truth[j]
        )
        assert intra < inter, "blob geometry degenerate; adjust test constants"
        t2 = 0.5 * (intra + inter)
        res = single_linkage(rows, t2)
        assert np.array_equal(res.labels, truth)


def test_negative_t2_rejected():
    with pytest.raises(ValueError):
        single_linkage(np.zeros((3, 2)), -0.1)


# ---------------------------------------------------------------------------
# automatic t2: single_linkage(rows) with no threshold given
# ---------------------------------------------------------------------------

def _auto_t2(rows):
    return single_linkage(rows).threshold_used


def test_select_t2_chain_weights_1_1_1_9():
    # collinear points: consecutive gaps 1,1,1,9 are exactly the MST weights
    rows = np.array([[0.0], [1.0], [2.0], [3.0], [12.0]])
    assert _auto_t2(rows) == 5.0


def test_select_t2_equal_weights_falls_back_to_one_cluster():
    rows = np.array([[0.0], [1.0], [2.0], [3.0]])
    res = single_linkage(rows)
    assert res.threshold_used > 1.0
    assert res.k_hat == 1


def test_select_t2_small_gap_ratio_falls_back():
    # weights 1, 1.2, 1.4: largest gap ratio 1.2/1.0 < 1.5 -> fallback
    rows = np.array([[0.0], [1.0], [2.2], [3.6]])
    res = single_linkage(rows)
    assert res.threshold_used > 1.4  # exceeds every MST edge
    assert res.k_hat == 1


def test_select_t2_requires_two_rows():
    with pytest.raises(ValueError):
        single_linkage(np.zeros((1, 3)))


def test_select_t2_identical_rows():
    rows = np.zeros((5, 2))
    res = single_linkage(rows)
    assert res.threshold_used > 0.0
    assert res.k_hat == 1


def test_select_t2_permutation_invariant():
    rng = np.random.default_rng(8)
    rows, _ = _two_blobs(rng, 10, 3, spread=0.2, gap=8.0)
    t2 = _auto_t2(rows)
    for _ in range(5):
        assert _auto_t2(rows[rng.permutation(len(rows))]) == pytest.approx(t2)


def test_select_t2_separates_clear_two_cluster_data():
    rng = np.random.default_rng(9)
    hits = 0
    for trial in range(20):
        rows, truth = _two_blobs(rng, 20, 6, spread=0.25, gap=10.0)
        res = single_linkage(rows)
        t2 = res.threshold_used
        intra = max(
            np.linalg.norm(rows[i] - rows[j])
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
            if truth[i] == truth[j]
        )
        inter = min(
            np.linalg.norm(rows[i] - rows[j])
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
            if truth[i] != truth[j]
        )
        if intra < t2 < inter:
            hits += 1
            assert np.array_equal(res.labels, truth)
    # well-separated blobs: the heuristic should land in the window every time
    assert hits == 20


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        float,
        st.tuples(st.integers(2, 25), st.integers(1, 4)),
        elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    )
)
def test_auto_t2_labels_equal_epsilon_graph(rows):
    res = single_linkage(rows)
    assert list(res.labels) == oracle_epsilon_graph_labels(rows, res.threshold_used)
    assert (res.k_hat == 1) == bool(res.threshold_used > res.mst_edge_weights.max())


def _rows_of_kind(kind, N, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.normal(size=(N, d))
    if kind == "integer_ties":
        return rng.integers(0, 3, size=(N, d)).astype(float)
    if kind == "duplicated":
        distinct = rng.normal(size=(max(1, N // 3), d))
        return distinct[rng.integers(0, len(distinct), size=N)]
    return _two_blobs(rng, (N + 1) // 2, d, spread=0.3, gap=6.0)[0]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["gaussian", "integer_ties", "duplicated", "two_blobs"]),
    st.integers(2, 40),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
)
def test_single_linkage_matches_full_scan_prim(kind, N, d, seed):
    # scipy's pdist sums in another order than the oracle, so weights and t2
    # agree to rounding, not bit for bit; the partitions are identical
    rows = _rows_of_kind(kind, N, d, seed)
    res = single_linkage(rows)
    us, vs, ws = oracle_prim_full_scan(rows)
    ref_w = np.sort(ws)
    ref_t2 = clustering._gap_threshold(ref_w)
    ref_labels = oracle_mst_cut_labels(us, vs, ws <= ref_t2)
    assert np.allclose(res.mst_edge_weights, ref_w, rtol=1e-14, atol=0.0)
    assert res.threshold_used == pytest.approx(ref_t2, rel=1e-14, abs=0.0)
    assert list(res.labels) == ref_labels
    assert res.k_hat == max(ref_labels) + 1
    assert list(res.labels) == oracle_epsilon_graph_labels(rows, res.threshold_used)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 30),
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 1.0),
)
def test_factored_clustering_matches_dense(N, d, k, seed, p_hat):
    rng = np.random.default_rng(seed)
    centers = 4.0 * rng.normal(size=(k, d))
    y = centers[rng.integers(0, k, size=N)] + 0.3 * rng.normal(size=(N, d))
    svd = compute_svd(y)
    thresholds = np.append(svd.singular_values, 0.0)
    for r in range(min(N, d) + 1):  # every kept rank, 0 and min(N, d) included
        est = hsvt(y, thresholds[r], svd=svd, p_hat=p_hat)
        assert est.kept_rank == r and est.coords.shape == (N, r)
        factored = single_linkage(est.coords)
        dense = single_linkage(est.m_hat)
        assert factored.k_hat == dense.k_hat
        assert np.array_equal(factored.labels, dense.labels)
        atol = 1e-12 * np.abs(est.m_hat).max()
        assert np.allclose(factored.mst_edge_weights, dense.mst_edge_weights, rtol=1e-12, atol=atol)
        assert factored.threshold_used == pytest.approx(dense.threshold_used, rel=1e-12, abs=atol)


# ---------------------------------------------------------------------------
# input validation and the one shared tree
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("t2", [None, 2.0])
def test_non_finite_rows_rejected(bad, t2):
    with pytest.raises(ValueError, match="finite"):
        single_linkage(np.array([[0.0], [bad], [1.0]]), t2)


def _count_mst_builds(monkeypatch):
    """Patch clustering's scipy calls: one entry in trees per linkage call,
    and the shape of the rows each pdist call receives."""
    trees, shapes = [], []
    pdist, linkage = clustering.pdist, clustering.linkage

    def counted_pdist(rows):
        shapes.append(rows.shape)
        return pdist(rows)

    def counted_linkage(*args, **kwargs):
        trees.append(kwargs.get("method"))
        return linkage(*args, **kwargs)

    monkeypatch.setattr(clustering, "pdist", counted_pdist)
    monkeypatch.setattr(clustering, "linkage", counted_linkage)
    return trees, shapes


def test_run_pipeline_builds_one_mst(monkeypatch):
    # the one tree is built on the N x kept_rank factors; m_hat is never built
    trees, shapes = _count_mst_builds(monkeypatch)
    spec = MixtureSpec(
        [ComponentSpec.gaussian(normal_utilities(8, c), 0.3) for c in range(2)], [0.5, 0.5]
    )
    result = run_pipeline(spec, N=40, p=0.8, seed=0)
    assert trees == ["single"]
    assert shapes == [(40, result.estimate.kept_rank)]
    assert "m_hat" not in vars(result.estimate)


def test_cli_cluster_auto_builds_one_mst(monkeypatch, tmp_path):
    rows, _ = _two_blobs(np.random.default_rng(10), 6, 3, spread=0.2, gap=8.0)
    write_matrix(tmp_path / "m.txt", rows)
    trees, _ = _count_mst_builds(monkeypatch)
    argv = ["cluster", "--in", str(tmp_path / "m.txt"), "--auto", "--out", str(tmp_path / "l.txt")]
    assert cli.main(argv) == 0
    assert trees == ["single"]
