import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from oracles import (
    lex_pairs,
    oracle_embed,
    oracle_gaussian_marginal,
    oracle_keyed_uniforms,
    oracle_mallows_insertion,
    oracle_mallows_marginal,
    oracle_mallows_pmf,
    oracle_mask_rows,
    oracle_mnl_marginal,
    oracle_philox4x64_10,
    oracle_score_order,
    positions_of,
)
from rankmix.generators import (
    GAUSSIAN,
    MALLOWS,
    MNL,
    ComponentSpec,
    MixtureSpec,
    SampleBatch,
    _draws,
    cluster_mean,
    exact_pairwise_marginal,
    mask,
    normal_utilities,
    sample_mixture,
)
from rankmix.pipeline import run_pipeline
from rankmix.rankings import Permutation, embed
from rankmix.seeding import TAG_MASK, TAG_SAMPLE, _keyed_uniforms, _keyed_words, child_seed, substream

EULER_GAMMA = 0.5772156649015329

# frozen closed-form values (stdlib math, double checked by hand)
MNL_MARGINAL_1_0 = 0.7310585786300049  # e/(e+1)
GAUSS_MARGINAL_1_1 = 0.7602499389065233  # Phi(1/sqrt(2))


def _rows(spec, m, rng_seed):
    """m embedded draws of one component: the rows of a one-component mixture."""
    return sample_mixture(MixtureSpec([spec], [1.0]), m, rng_seed).values


# ---------------------------------------------------------------- spec types

def test_component_spec_validation():
    with pytest.raises(ValueError):
        ComponentSpec.mnl([1.0, 0.0], beta=0.0)
    with pytest.raises(ValueError):
        ComponentSpec.gaussian([1.0, 0.0], sigma=-1.0)
    with pytest.raises(ValueError):
        ComponentSpec.mallows(Permutation([0, 1, 2]), phi=1.0)
    with pytest.raises(ValueError):
        ComponentSpec.mallows(Permutation([0, 1, 2]), phi=0.0)
    # an infinite scale would sample near-constant rows while cluster_mean
    # reports the uniform mean 0
    for noise in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            ComponentSpec.mnl([1.0, 0.0], beta=noise)
        with pytest.raises(ValueError, match="finite"):
            ComponentSpec.gaussian([1.0, 0.0], sigma=noise)
    spec = ComponentSpec.mnl([1.0, 0.0, -1.0], beta=2.0)
    assert spec.family == MNL and spec.n == 3
    spec = ComponentSpec.mallows(Permutation([2, 0, 1]), phi=0.5)
    assert spec.family == MALLOWS and spec.n == 3


def test_mixture_spec_validation():
    c1 = ComponentSpec.gaussian([0.0, 1.0], sigma=1.0)
    c2 = ComponentSpec.gaussian([1.0, 0.0], sigma=1.0)
    with pytest.raises(ValueError):
        MixtureSpec([c1, c2], [0.7, 0.7])
    with pytest.raises(ValueError):
        MixtureSpec([c1, c2], [1.2, -0.2])
    c3 = ComponentSpec.gaussian([1.0, 0.0, 2.0], sigma=1.0)
    with pytest.raises(ValueError):
        MixtureSpec([c1, c3], [0.5, 0.5])
    # NaN compares False with every bound, so the sum check alone lets it through
    for weights in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf], [1.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            MixtureSpec([c1, c2], weights)
    m = MixtureSpec([c1, c2], [0.5, 0.5])
    assert m.k == 2 and m.n == 2


# ------------------------------------------------------------------ sampling

def test_gaussian_noiseless_limit_sorts_utilities():
    spec = ComponentSpec.gaussian([3.0, 2.0, 1.0], sigma=1e-9)
    for seed in range(200):
        (row,) = _rows(spec, 1, seed)
        assert np.array_equal(row, embed(Permutation([0, 1, 2])))


def test_mnl_two_item_marginal_matches_formula():
    spec = ComponentSpec.mnl([1.0, 0.0], beta=1.0)
    x = _rows(spec, 100_000, rng_seed=42)
    freq = float(np.mean(x[:, 0] == 0.5))
    assert abs(freq - MNL_MARGINAL_1_0) <= 0.01


def test_mallows_pmf_matches_brute_force():
    center = Permutation([0, 1, 2, 3])
    spec = ComponentSpec.mallows(center, phi=0.5)
    pairs = lex_pairs(4)
    want = {
        tuple(oracle_embed(perm)[pair] for pair in pairs): prob
        for perm, prob in oracle_mallows_pmf(tuple(center.order), 0.5).items()
    }
    draws = 100_000
    rows, counts = np.unique(_rows(spec, draws, 4), axis=0, return_counts=True)
    freq = {tuple(row.tolist()): count / draws for row, count in zip(rows, counts)}
    tv = 0.5 * sum(abs(freq.get(key, 0) - prob) for key, prob in want.items())
    assert tv <= 0.02


def test_gumbel_inverse_cdf_mean():
    for beta in (1.0, 2.0):
        rng = np.random.default_rng(11)
        g = _draws(ComponentSpec.mnl(np.zeros(2), beta), rng.random((50_000, 2)))
        assert abs(np.mean(g) - beta * EULER_GAMMA) / (beta * EULER_GAMMA) <= 0.02


def test_tied_scores_prefer_lower_index():
    # noise of scale 1e-300 vanishes against the utilities, so the scores tie exactly
    for family in (ComponentSpec.gaussian, ComponentSpec.mnl):
        for utilities, order in (([1.0, 1.0, 0.5], [0, 1, 2]), ([0.5, 1.0, 1.0], [1, 2, 0])):
            rows = _rows(family(utilities, 1e-300), 50, 0)
            assert np.array_equal(rows, np.tile(embed(Permutation(order)), (50, 1)))


def _component(family, n, seed):
    rng = np.random.default_rng(seed)
    if family == MALLOWS:
        return ComponentSpec.mallows(Permutation(rng.permutation(n)), phi=0.8)
    if family == MNL:
        return ComponentSpec.mnl(rng.normal(size=n), beta=0.7)
    return ComponentSpec.gaussian(rng.normal(size=n), sigma=0.4)


class _Replay:
    """Hands out one row's fixed uniforms where _per_row_reference draws from
    a Generator; choice inverts p's cdf on one uniform, as Generator.choice does."""

    def __init__(self, uniforms):
        self._u = list(uniforms)

    def random(self, size):
        out, self._u = self._u[:size], self._u[size:]
        return np.array(out)

    def choice(self, k, p):
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return int(np.searchsorted(cdf, self.random(1)[0], side="right"))


def _per_row_reference(spec, m, rng):
    """m rows drawn one at a time from rng (a Generator or a _Replay): n
    uniforms a row through the inverse CDF, or one rng.choice per inserted
    item for mallows."""
    rows = []
    for _ in range(m):
        if spec.family == MALLOWS:
            order = oracle_mallows_insertion(spec.center.order, spec.noise, rng)
        elif spec.family == MNL:
            order = oracle_score_order(spec.utilities - spec.noise * np.log(-np.log(rng.random(spec.n))))
        else:
            order = oracle_score_order(spec.utilities + spec.noise * ndtri(rng.random(spec.n)))
        embedded = oracle_embed(order)
        rows.append([embedded[pair] for pair in lex_pairs(spec.n)])
    return np.array(rows).reshape(m, spec.d)


@pytest.mark.parametrize("m", (1, 500))
@pytest.mark.parametrize("n", (2, 3, 7, 40))
@pytest.mark.parametrize("family", (MNL, GAUSSIAN, MALLOWS))
def test_batch_kernel_matches_per_row_reference(family, n, m):
    spec = _component(family, n, seed=n)
    want = np.vstack(
        [_per_row_reference(spec, 1, _Replay(oracle_keyed_uniforms(17, TAG_SAMPLE, row, n))) for row in range(m)]
    )
    assert np.array_equal(_rows(spec, m, 17), want)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from((MNL, GAUSSIAN, MALLOWS)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    m=st.integers(1, 30),
    prefix=st.integers(1, 30),
)
def test_sample_mixture_prefixes_do_not_depend_on_the_row_count(family, seed, n, m, prefix):
    one = MixtureSpec([_component(family, n, seed=n)], [1.0])
    for spec in (one, _three_family_mixture(n)):
        batch = sample_mixture(spec, m, seed)
        head = sample_mixture(spec, min(prefix, m), seed)
        assert np.array_equal(head.values, batch.values[: len(head)])
        assert np.array_equal(head.labels, batch.labels[: len(head)])


# ------------------------------------------------------------ exact marginals

def test_marginal_equal_utilities_is_half():
    spec = ComponentSpec.mnl([1.0, 1.0, 1.0], beta=0.7)
    assert exact_pairwise_marginal(spec, 0, 1) == 0.5
    spec = ComponentSpec.gaussian([2.0, 2.0], sigma=0.5)
    assert exact_pairwise_marginal(spec, 0, 1) == 0.5


def test_marginal_frozen_values():
    mnl = ComponentSpec.mnl([1.0, 0.0], beta=1.0)
    assert abs(exact_pairwise_marginal(mnl, 0, 1) - MNL_MARGINAL_1_0) < 1e-12
    gauss = ComponentSpec.gaussian([1.0, 0.0], sigma=1.0)
    assert abs(exact_pairwise_marginal(gauss, 0, 1) - GAUSS_MARGINAL_1_1) < 1e-12


def test_marginal_complement():
    spec = ComponentSpec.mnl([0.3, -0.2, 1.1], beta=0.9)
    for a in range(3):
        for b in range(3):
            if a != b:
                pab = exact_pairwise_marginal(spec, a, b)
                pba = exact_pairwise_marginal(spec, b, a)
                assert abs(pab + pba - 1.0) < 1e-12


def test_mallows_marginal_matches_enumeration():
    center = Permutation([2, 0, 3, 1])
    spec = ComponentSpec.mallows(center, phi=0.6)
    for a, b in lex_pairs(4):
        want = oracle_mallows_marginal(tuple(center.order), 0.6, a, b)
        assert abs(exact_pairwise_marginal(spec, a, b) - want) < 1e-12


def test_mallows_closed_form_matches_enumeration_n7():
    center = Permutation([3, 6, 0, 5, 1, 4, 2])
    for phi in (0.1, 0.8, 0.99):
        spec = ComponentSpec.mallows(center, phi=phi)
        pmf = [(positions_of(perm), prob) for perm, prob in oracle_mallows_pmf(tuple(center.order), phi).items()]
        mu = cluster_mean(spec)
        for k, (a, b) in enumerate(lex_pairs(7)):
            want = sum(prob for pos, prob in pmf if pos[a] < pos[b])
            assert abs(exact_pairwise_marginal(spec, a, b) - want) < 1e-12
            assert abs(exact_pairwise_marginal(spec, b, a) - (1.0 - want)) < 1e-12
            assert abs(mu[k] - (want - 0.5)) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [
        ComponentSpec.mnl([0.3, -1.2, 2.0, 0.0, 0.7], beta=0.4),
        ComponentSpec.gaussian([0.3, -1.2, 2.0, 0.0, 0.7], sigma=0.9),
        ComponentSpec.mallows(Permutation([3, 0, 4, 1, 2]), phi=0.6),
    ],
    ids=[MNL, GAUSSIAN, MALLOWS],
)
def test_cluster_mean_is_marginal_minus_half_on_every_pair(spec):
    mu = cluster_mean(spec)
    for k, (a, b) in enumerate(lex_pairs(spec.n)):
        assert mu[k] == exact_pairwise_marginal(spec, a, b) - 0.5


def test_mnl_marginals_reach_their_limits_without_warning():
    # exp(1000) overflows to inf; the marginals must still be their limits 0 and 1
    spec = ComponentSpec.mnl([0.0, 1000.0], beta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exact_pairwise_marginal(spec, 0, 1) == 0.0
        assert exact_pairwise_marginal(spec, 1, 0) == 1.0
        assert cluster_mean(spec).tolist() == [-0.5]


def test_run_pipeline_mallows_mixture_n12_reports_gamma():
    comps = [ComponentSpec.mallows(Permutation(order), phi=0.3) for order in (range(12), range(11, -1, -1))]
    result = run_pipeline(MixtureSpec(comps, [0.5, 0.5]), N=40, p=0.9, seed=0)
    assert result.evaluation.risk == 0.0


# -------------------------------------------------------------- cluster mean

def test_cluster_mean_equal_utilities_zero():
    spec = ComponentSpec.gaussian([1.0, 1.0, 1.0, 1.0], sigma=0.3)
    assert np.allclose(cluster_mean(spec), 0.0)


def test_cluster_mean_mnl_per_pair_formula():
    u = [1.0, 0.0, -1.0]
    spec = ComponentSpec.mnl(u, beta=1.0)
    mu = cluster_mean(spec)
    for k, (a, b) in enumerate(lex_pairs(3)):
        want = oracle_mnl_marginal(u[a], u[b], 1.0) - 0.5
        assert abs(mu[k] - want) < 1e-12
    assert np.all(np.abs(mu) <= 0.5)


def test_cluster_mean_gaussian_per_pair_formula():
    u = [0.4, -0.3, 0.9, 0.0]
    spec = ComponentSpec.gaussian(u, sigma=0.8)
    mu = cluster_mean(spec)
    for k, (a, b) in enumerate(lex_pairs(4)):
        want = oracle_gaussian_marginal(u[a], u[b], 0.8) - 0.5
        assert abs(mu[k] - want) < 1e-12


def test_cluster_mean_mallows_matches_enumeration():
    center = Permutation([1, 3, 0, 2])
    spec = ComponentSpec.mallows(center, phi=0.4)
    mu = cluster_mean(spec)
    for k, (a, b) in enumerate(lex_pairs(4)):
        want = oracle_mallows_marginal(tuple(center.order), 0.4, a, b) - 0.5
        assert abs(mu[k] - want) < 1e-12


def test_cluster_mean_monte_carlo():
    spec = ComponentSpec.gaussian([0.8, 0.2, -0.5, 0.0, 1.3], sigma=0.7)
    x = _rows(spec, 100_000, rng_seed=9)
    emp = x.mean(axis=0)
    assert np.max(np.abs(emp - cluster_mean(spec))) <= 0.01


# ------------------------------------------------------------------- mixture

def _two_component_mixture(n=5, sigma=0.4, seed=0):
    rng = np.random.default_rng(seed)
    u1 = rng.normal(size=n)
    u2 = rng.normal(size=n)
    c1 = ComponentSpec.gaussian(u1, sigma=sigma)
    c2 = ComponentSpec.gaussian(u2, sigma=sigma)
    return MixtureSpec([c1, c2], [0.5, 0.5])


def test_sample_mixture_single_component_labels():
    spec = MixtureSpec([ComponentSpec.mnl([1.0, 0.0], beta=1.0)], [1.0])
    samples = sample_mixture(spec, 50, rng_seed=3)
    assert len(samples) == 50
    assert np.all(samples.labels == 0)


def test_sample_mixture_label_frequencies():
    spec = _two_component_mixture(n=2)
    samples = sample_mixture(spec, 100_000, rng_seed=5)
    freq = np.mean(samples.labels)
    assert abs(freq - 0.5) <= 0.01


def test_sample_mixture_within_label_means_near_their_centers():
    spec = _two_component_mixture(n=6, sigma=0.2, seed=12)
    samples = sample_mixture(spec, 100, rng_seed=21)
    mu = [cluster_mean(c) for c in spec.components]
    for label in (0, 1):
        rows = samples.values[samples.labels == label]
        assert len(rows) > 10
        emp = rows.mean(axis=0)
        d_own = np.linalg.norm(emp - mu[label])
        d_other = np.linalg.norm(emp - mu[1 - label])
        assert d_own < d_other


def test_sample_mixture_deterministic():
    spec = _two_component_mixture()
    a = sample_mixture(spec, 20, rng_seed=8)
    b = sample_mixture(spec, 20, rng_seed=8)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.values, b.values)


def _three_family_mixture(n):
    return MixtureSpec([_component(family, n, seed=n) for family in (MNL, GAUSSIAN, MALLOWS)], [0.3, 0.3, 0.4])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), N=st.integers(1, 25))
def test_sample_mixture_row_equals_its_own_one_row_block(seed, n, N):
    spec = _three_family_mixture(n)
    batch = sample_mixture(spec, N, seed)
    for row in range(N):
        component = spec.components[batch.labels[row]]
        want = _per_row_reference(component, 1, _Replay(oracle_keyed_uniforms(seed, TAG_SAMPLE, row, n)))
        assert np.array_equal(batch.values[row], want[0])


def test_sample_batch_validates_in_bulk():
    values = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.5]])
    batch = SampleBatch(values, [0, 1])
    assert len(batch) == 2 and batch.labels.dtype == np.int64
    with pytest.raises(ValueError):
        SampleBatch(values, [0])  # one label short
    with pytest.raises(ValueError):
        SampleBatch(values[0], [0])  # not 2-d
    with pytest.raises(ValueError):
        SampleBatch(values * 2, [0, 1])  # +-1 is not an embedded value


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, 1.0, -1.0, 0.25, -0.25))
def test_sample_batch_refuses_every_value_but_the_three_markers(bad):
    values = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.5]])
    values[1, 2] = bad
    with pytest.raises(ValueError, match="exactly \\+1/2 or -1/2, or 0 where missing"):
        SampleBatch(values, [0, 1])


def test_sample_batch_leaves_the_callers_arrays_writable():
    values = np.array([[0.5, -0.5], [0.0, 0.5]])
    labels = np.array([0, 1], dtype=np.int64)
    batch = SampleBatch(values, labels)
    assert not (batch.values.flags.writeable or batch.labels.flags.writeable)
    values[0, 0] = 0.3  # invalid, were it to reach the batch
    labels[0] = 1
    assert batch.values.tolist() == [[0.5, -0.5], [0.0, 0.5]]  # a frozen copy
    assert batch.labels.tolist() == [0, 1]


def test_specs_leave_the_callers_arrays_writable():
    u = np.array([1.0, 0.0, 2.0])
    w = np.array([0.25, 0.75])
    component = ComponentSpec.gaussian(u, 0.3)
    spec = MixtureSpec([component, ComponentSpec.mnl(u, 1.0)], w)
    assert u.flags.writeable and w.flags.writeable
    assert not (component.utilities.flags.writeable or spec.weights.flags.writeable)
    u[0] = 9.0
    w[:] = 0.5
    assert component.utilities.tolist() == [1.0, 0.0, 2.0]  # a frozen copy
    assert spec.components[1].utilities.tolist() == [1.0, 0.0, 2.0]
    assert spec.weights.tolist() == [0.25, 0.75]


def test_negative_seed_is_refused_by_name():
    batch = sample_mixture(_two_component_mixture(), 3, rng_seed=1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        mask(batch, 0.5, rng_seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        sample_mixture(_two_component_mixture(), 3, rng_seed=-1)
    # the row count likewise, by name rather than with a TypeError from inside numpy
    for count in (2.5, 2.0, 0, "3"):
        with pytest.raises(ValueError, match=f"row count must be a positive integer, got {count}"):
            sample_mixture(_two_component_mixture(), count, rng_seed=1)


@pytest.mark.parametrize(
    "seed", (1.5, np.float64(2.0), "3", np.random.default_rng(0)), ids=("float", "numpy-float", "str", "generator")
)
def test_non_integral_seed_is_refused_by_name(seed):
    batch = sample_mixture(_two_component_mixture(), 3, rng_seed=1)
    message = "seed must be a non-negative integer, got " + re.escape(str(seed))
    for draw in (
        lambda: mask(batch, 0.5, seed),
        lambda: sample_mixture(_two_component_mixture(), 3, seed),
        lambda: substream(seed, TAG_SAMPLE),
        lambda: child_seed(4, TAG_SAMPLE, seed),
    ):
        with pytest.raises(ValueError, match=message):
            draw()


def test_numpy_integer_seeds_match_python_ints():
    batch = sample_mixture(_two_component_mixture(), 5, rng_seed=np.int64(1))
    assert np.array_equal(batch.values, sample_mixture(_two_component_mixture(), 5, rng_seed=1).values)
    assert np.array_equal(batch.values, sample_mixture(_two_component_mixture(), np.uint16(5), rng_seed=1).values)
    assert np.array_equal(mask(batch, 0.5, np.uint32(4)).values, mask(batch, 0.5, 4).values)
    assert child_seed(np.int16(3), np.uint8(1)) == child_seed(3, 1)


# ------------------------------------------------------------------- masking

def test_mask_p_one_is_identity():
    spec = _two_component_mixture()
    samples = sample_mixture(spec, 10, rng_seed=1)
    masked = mask(samples, 1.0, rng_seed=2)
    assert np.array_equal(samples.values, masked.values)


def test_mask_rejects_bad_p():
    spec = _two_component_mixture()
    samples = sample_mixture(spec, 2, rng_seed=1)
    for p in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            mask(samples, p, rng_seed=0)


def test_mask_observed_fraction_concentrates():
    # ~1e6 total entries: N=2300 rows with d=435
    spec = MixtureSpec(
        [ComponentSpec.gaussian(np.zeros(30), sigma=1.0)], [1.0]
    )
    samples = sample_mixture(spec, 2300, rng_seed=13)
    masked = mask(samples, 0.3, rng_seed=14)
    values = masked.values
    frac = np.count_nonzero(values) / values.size
    assert abs(frac - 0.3) <= 0.002


@pytest.mark.parametrize("N", (1, 500))
@pytest.mark.parametrize("n", (2, 3, 7, 40))
def test_mask_matches_per_row_reference(n, N):
    batch = sample_mixture(_three_family_mixture(n), N, rng_seed=n)
    for p in (0.05, 0.5, 1.0, np.float16(0.3)):
        masked = mask(batch, p, rng_seed=9)
        assert np.array_equal(masked.values, oracle_mask_rows(batch.values, p, 9, TAG_MASK))
        assert np.array_equal(masked.labels, batch.labels)


def test_philox_oracle_known_answers():
    ones = 2**64 - 1
    assert [f"{w:016x}" for w in oracle_philox4x64_10([0] * 4, [0] * 2)] == [
        "16554d9eca36314c", "db20fe9d672d0fdc", "d7e772cee186176b", "7e68b68aec7ba23b",
    ]
    assert [f"{w:016x}" for w in oracle_philox4x64_10([ones] * 4, [ones] * 2)] == [
        "87b092c3013fe90b", "438c3c67be8d0224", "9cc7d7c69cd777b6", "a09caebf594f0ba0",
    ]


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 40), width=st.integers(1, 50), seed=st.integers(0, 2**64 - 1))
def test_keyed_uniforms_follow_the_counter_contract(rows, width, seed):
    uniforms = _keyed_uniforms(seed, TAG_MASK, rows, width)
    assert uniforms.shape == (rows, width)
    assert ((uniforms > 0) & (uniforms < 1)).all()
    for r, row in enumerate(uniforms):
        assert row.tolist() == oracle_keyed_uniforms(seed, TAG_MASK, r, width)
    if rows:
        assert not np.array_equal(uniforms, _keyed_uniforms(seed, TAG_SAMPLE, rows, width))
    values = np.where(np.random.default_rng(seed % 2**32).random((rows, width)) < 0.5, -0.5, 0.5)
    batch = SampleBatch(values, np.zeros(rows))
    assert np.array_equal(mask(batch, 1.0, seed).values, values)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 40),
    data=st.data(),
    width=st.integers(1, 50),
    seed=st.integers(0, 2**64 - 1),
    p=st.sampled_from([0.05, 0.5, 1.0]),
)
def test_first_rows_do_not_depend_on_the_row_count(rows, data, width, seed, p):
    m = data.draw(st.integers(0, rows))
    assert np.array_equal(_keyed_words(seed, TAG_MASK, m, width), _keyed_words(seed, TAG_MASK, rows, width)[:m])
    values = np.where(np.random.default_rng(seed % 2**32).random((rows, width)) < 0.5, -0.5, 0.5)
    masked = mask(SampleBatch(values, np.zeros(rows)), p, seed).values
    assert np.array_equal(mask(SampleBatch(values[:m], np.zeros(m)), p, seed).values, masked[:m])


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 40),
    width=st.integers(1, 30),
    seed=st.integers(0, 2**64 - 1),
    where=st.sampled_from(["below", "at", "above", "one", "tiny"]),
    data=st.data(),
)
def test_mask_integer_threshold_matches_the_float_oracle(rows, width, seed, where, data):
    # mask compares raw words with an integer threshold; the oracle compares float
    # uniforms with p. p = (k + 1/2) * 2**-52 is a uniform's exact value (k is one
    # cell's word >> 12), so "at" and its two float neighbours decide that cell at
    # the boundary; p = 1 keeps all, and p below 2**-53 keeps nothing
    values = np.where(np.random.default_rng(seed % 2**32).random((rows, width)) < 0.5, -0.5, 0.5)
    batch = SampleBatch(values, np.zeros(rows))
    row, col = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, width - 1))
    cell = oracle_keyed_uniforms(seed, TAG_MASK, row, width)[col]
    p = {
        "below": np.nextafter(cell, 0.0),
        "at": cell,
        "above": np.nextafter(cell, 1.0),
        "one": 1.0,
        "tiny": data.draw(st.floats(5e-324, 2.0**-53, exclude_max=True)),
    }[where]
    masked = mask(batch, float(p), seed).values
    assert masked.tobytes() == oracle_mask_rows(values, p, seed, TAG_MASK).tobytes()
    if where in ("below", "at", "above"):
        assert (masked[row, col] != 0) == (where == "above")
    if where == "tiny":
        assert not masked.any()


def test_no_rows_draw_no_words():
    batch = SampleBatch(np.empty((0, 3)), np.empty(0))
    for p in (0.5, 1.0):
        assert mask(batch, p, 1).values.shape == (0, 3)
    assert _keyed_uniforms(1, TAG_MASK, 0, 5).shape == (0, 5)


# ------------------------------------------------------------------- helpers

def test_utility_helpers():
    u = normal_utilities(10, rng_seed=3)
    assert u.shape == (10,)


def test_batch_sampler_matches_shape_and_values():
    spec = ComponentSpec.mnl([0.2, -0.2, 0.4], beta=1.0)
    x = _rows(spec, 500, rng_seed=77)
    assert x.shape == (500, 3)
    assert set(np.unique(np.abs(x))) == {0.5}
    # distributional sanity: empirical marginal near the exact one
    p01 = exact_pairwise_marginal(spec, 0, 1)
    assert abs(np.mean(x[:, 0] == 0.5) - p01) < 0.1


def test_batch_sampler_mallows_matches_pmf_loosely():
    center = Permutation([0, 1, 2])
    spec = ComponentSpec.mallows(center, phi=0.3)
    x = _rows(spec, 20_000, rng_seed=15)
    want = oracle_mallows_marginal((0, 1, 2), 0.3, 0, 1)
    assert abs(np.mean(x[:, 0] == 0.5) - want) < 0.02
