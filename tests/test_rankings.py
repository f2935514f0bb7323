import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lex_pairs, oracle_embed, oracle_inversions, random_order
from rankmix.rankings import (
    MISSING,
    EmbeddedObservation,
    Permutation,
    embed,
    embedding_distance_sq,
    is_missing,
    kendall_tau,
    pair_index,
    pair_of,
)


def test_permutation_roundtrip():
    p = Permutation([2, 0, 1])
    assert p.n == 3
    assert list(p.order) == [2, 0, 1]
    assert list(p.position) == [1, 2, 0]
    for r in range(3):
        assert p.position[p.order[r]] == r


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 1, 3])
    with pytest.raises(ValueError):
        Permutation([])


def test_embed_single_pair():
    # n=2, order [0,1]: item 0 precedes item 1
    e = embed(Permutation([0, 1]))
    assert list(e.values) == [0.5]


def test_embed_full_reversal():
    # every pair flips under the full reversal
    e = embed(Permutation([2, 1, 0]))
    assert list(e.values) == [-0.5, -0.5, -0.5]


def test_embed_matches_position_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        order = random_order(rng, 4)
        e = embed(Permutation(order))
        want = oracle_embed(order)
        for (a, b), v in want.items():
            assert e.values[pair_index(a, b, 4)] == v


def test_embed_values_are_half_integers():
    rng = np.random.default_rng(8)
    for n in (2, 5, 9):
        e = embed(Permutation(random_order(rng, n)))
        assert e.n == n
        assert len(e.values) == n * (n - 1) // 2
        assert set(np.abs(e.values)) == {0.5}


def test_kendall_tau_identity_and_reversal():
    p = Permutation([0, 1, 2])
    assert kendall_tau(p, p) == 0
    assert kendall_tau(p, Permutation([2, 1, 0])) == 3


def test_kendall_tau_matches_inversion_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        o1 = random_order(rng, 5)
        o2 = random_order(rng, 5)
        got = kendall_tau(Permutation(o1), Permutation(o2))
        assert got == oracle_inversions(o1, o2)


def test_kendall_tau_dimension_mismatch():
    with pytest.raises(ValueError):
        kendall_tau(Permutation([0, 1]), Permutation([0, 1, 2]))


def test_kendall_tau_is_a_metric_on_random_triples():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        a, b, c = (Permutation(random_order(rng, n)) for _ in range(3))
        dab = kendall_tau(a, b)
        dba = kendall_tau(b, a)
        assert dab == dba
        assert dab <= kendall_tau(a, c) + kendall_tau(c, b)
        assert 0 <= dab <= n * (n - 1) // 2


def test_embedding_distance_identity():
    e = embed(Permutation([1, 0, 2]))
    assert embedding_distance_sq(e, e) == 0.0


def test_embedding_distance_reversal():
    d = embedding_distance_sq(embed(Permutation([0, 1, 2])), embed(Permutation([2, 1, 0])))
    assert d == 3.0


def test_embedding_distance_equals_kendall_tau():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p1 = Permutation(random_order(rng, n))
        p2 = Permutation(random_order(rng, n))
        d = embedding_distance_sq(embed(p1), embed(p2))
        assert abs(d - kendall_tau(p1, p2)) <= 1e-12


def test_embedding_distance_rejects_missing():
    e1 = embed(Permutation([0, 1, 2]))
    vals = e1.values.copy()
    vals[0] = MISSING
    e2 = EmbeddedObservation(vals, 3)
    with pytest.raises(ValueError):
        embedding_distance_sq(e1, e2)
    with pytest.raises(ValueError):
        embedding_distance_sq(e2, e1)


def test_embedded_observation_validates_entries():
    with pytest.raises(ValueError):
        EmbeddedObservation([0.4, 0.5, -0.5], 3)
    # MISSING entries are fine
    e = EmbeddedObservation([MISSING, 0.5, -0.5], 3)
    assert is_missing(e.values).tolist() == [True, False, False]


def test_pair_index_lexicographic_n4():
    want = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}
    for (a, b), k in want.items():
        assert pair_index(a, b, 4) == k
        assert pair_of(k, 4) == (a, b)


def test_pair_index_roundtrip_up_to_n20():
    for n in range(2, 21):
        for k, (a, b) in enumerate(lex_pairs(n)):
            assert pair_index(a, b, n) == k
            assert pair_of(k, n) == (a, b)


def test_pair_index_against_linear_scan_n100():
    # enumeration oracle for a big-ish n
    scan = {pair: k for k, pair in enumerate(lex_pairs(100))}
    assert pair_index(97, 99, 100) == scan[(97, 99)]
    assert pair_index(0, 99, 100) == scan[(0, 99)]


def test_pair_index_rejects_bad_pairs():
    for a, b in [(1, 1), (2, 1), (-1, 2), (0, 4)]:
        with pytest.raises(ValueError):
            pair_index(a, b, 4)
    with pytest.raises(ValueError):
        pair_of(6, 4)
    with pytest.raises(ValueError):
        pair_of(-1, 4)


def test_embedding_injective_exhaustively_small_n():
    import math

    for n in (2, 3, 4, 5):
        seen = set()
        for order in itertools.permutations(range(n)):
            seen.add(tuple(embed(Permutation(order)).values))
        assert len(seen) == math.factorial(n)


def test_global_sign_flip_preserves_distances():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        e1 = embed(Permutation(random_order(rng, n)))
        e2 = embed(Permutation(random_order(rng, n)))
        d = embedding_distance_sq(e1, e2)
        f1 = EmbeddedObservation(-e1.values, n)
        f2 = EmbeddedObservation(-e2.values, n)
        assert embedding_distance_sq(f1, f2) == d


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.randoms(use_true_random=False))
def test_distance_identity_property(n, rnd):
    order1 = list(range(n))
    order2 = list(range(n))
    rnd.shuffle(order1)
    rnd.shuffle(order2)
    p1, p2 = Permutation(order1), Permutation(order2)
    d = embedding_distance_sq(embed(p1), embed(p2))
    k = kendall_tau(p1, p2)
    assert d == float(k)
