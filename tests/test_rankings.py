import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lex_pairs, oracle_embed, oracle_embed_positions, oracle_inversions, random_order
from rankmix.rankings import (
    Permutation,
    _pairs,
    embed,
    embed_positions,
    embedding_distance_sq,
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


def test_permutation_rejects_non_integer_entries():
    # the int64 cast would truncate these to a valid order (or warn on NaN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([0.5, 1.7], [1.0, 0.5], [np.nan, 0.0], [np.inf, 0.0], [0, 1, 2.000001]):
            with pytest.raises(ValueError, match="integer"):
                Permutation(bad)
    assert Permutation([1.0, 0.0]).order.tolist() == [1, 0]
    assert Permutation(np.array([1.0, 0.0])).order.dtype == np.int64
    assert Permutation([True, False]).order.tolist() == [1, 0]
    assert Permutation(np.array([2, 0, 1], dtype=np.uint8)) == Permutation([2, 0, 1])


def test_embed_single_pair():
    # n=2, order [0,1]: item 0 precedes item 1
    e = embed(Permutation([0, 1]))
    assert list(e) == [0.5]


def test_embed_full_reversal():
    # every pair flips under the full reversal
    e = embed(Permutation([2, 1, 0]))
    assert list(e) == [-0.5, -0.5, -0.5]


def test_embed_matches_position_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        order = random_order(rng, 4)
        e = embed(Permutation(order))
        want = oracle_embed(order)
        for (a, b), v in want.items():
            assert e[pair_index(a, b, 4)] == v


def test_embed_values_are_half_integers():
    rng = np.random.default_rng(8)
    for n in (2, 5, 9):
        perm = Permutation(random_order(rng, n))
        e = embed(perm)
        assert e.shape == (n * (n - 1) // 2,) and e.dtype == np.float64
        assert set(np.abs(e)) == {0.5}
        assert not e.flags.writeable
        assert np.array_equal(e, embed_positions(perm.position))


@pytest.mark.parametrize("n", (2, 3, 255, 256, 257, 300))
def test_embed_positions_matches_the_where_form(n):
    # ranks are compared in uint8 up to n = 256 and in uint16 beyond; the
    # identity, the reversal and random rows, in int64 as the samplers make them
    rng = np.random.default_rng(n)
    rows = [np.arange(n), np.arange(n)[::-1]] + [rng.permutation(n) for _ in range(20)]
    position = np.array(rows, dtype=np.int64)
    got = embed_positions(position)
    assert got.dtype == np.float64 and got.shape == (len(rows), n * (n - 1) // 2)
    assert got.tobytes() == oracle_embed_positions(position).tobytes()
    assert embed_positions(position[3]).tobytes() == oracle_embed_positions(position[3]).tobytes()


@pytest.mark.parametrize("bad", (-1, 4))
def test_embed_positions_refuses_ranks_outside_the_item_range(bad):
    with pytest.raises(ValueError, match=r"ranks must lie in \[0, 4\)"):
        embed_positions(np.array([[0, 1, 2, bad]]))


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
    for missing in (0.0, np.nan):  # the in-memory marker, and NaN
        e2 = e1.copy()
        e2[0] = missing
        with pytest.raises(ValueError):
            embedding_distance_sq(e1, e2)
        with pytest.raises(ValueError):
            embedding_distance_sq(e2, e1)


def test_embedding_distance_validates_entries():
    e = embed(Permutation([0, 1, 2]))
    for bad in ([0.4, 0.5, -0.5], [0.0, 0.5, -0.5], [1.0, 0.5, -0.5], [np.inf, 0.5, -0.5]):
        with pytest.raises(ValueError):
            embedding_distance_sq(e, bad)
        with pytest.raises(ValueError):
            embedding_distance_sq(bad, e)
    for other in (embed(Permutation([0, 1, 2, 3])), [0.5]):  # unequal lengths, even broadcastable
        with pytest.raises(ValueError, match="equal length"):
            embedding_distance_sq(e, other)
    with pytest.raises(ValueError, match="1-d"):
        embedding_distance_sq(e[None, :], e[None, :])
    # exact +-1/2 lists are accepted as well as arrays
    assert embedding_distance_sq([0.5, 0.5, 0.5], [-0.5, 0.5, -0.5]) == 2.0


def test_pairs_are_lexicographic_and_read_only():
    for n in (2, 3, 7):
        first, second = _pairs(n)
        assert list(zip(first.tolist(), second.tolist())) == lex_pairs(n)
        assert not first.flags.writeable and not second.flags.writeable
        assert _pairs(n)[0] is first  # cached per n
    for n in (0, 1):
        with pytest.raises(ValueError):
            _pairs(n)


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
    # fractional arguments are refused, not computed with: pair_of(1.5, 3) would give (0, 2.5)
    for a, b in [(1, 1), (2, 1), (-1, 2), (0, 4), (0.5, 1), (0, 1.5)]:
        with pytest.raises(ValueError):
            pair_index(a, b, 4)
    with pytest.raises(ValueError):
        pair_of(6, 4)
    with pytest.raises(ValueError):
        pair_of(-1, 4)
    with pytest.raises(ValueError):
        pair_of(1.5, 4)
    with pytest.raises(ValueError):
        pair_index(0, 1, 4.5)
    with pytest.raises(ValueError):
        pair_of(0, 4.5)


def test_embedding_injective_exhaustively_small_n():
    import math

    for n in (2, 3, 4, 5):
        seen = set()
        for order in itertools.permutations(range(n)):
            seen.add(tuple(embed(Permutation(order))))
        assert len(seen) == math.factorial(n)


def test_global_sign_flip_preserves_distances():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        e1 = embed(Permutation(random_order(rng, n)))
        e2 = embed(Permutation(random_order(rng, n)))
        d = embedding_distance_sq(e1, e2)
        assert embedding_distance_sq(-e1, -e2) == d


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
