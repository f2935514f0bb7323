"""Pairwise embedding geometry: squared distance counts disagreeing pairs."""

import numpy as np

from rankmix import Permutation, embed, embedding_distance_sq, kendall_tau, pair_of

rng = np.random.default_rng(0)
n = 6

print("order1          order2          tau   ||i1-i2||^2")
for _ in range(8):
    p1 = Permutation(list(rng.permutation(n)))
    p2 = Permutation(list(rng.permutation(n)))
    tau = kendall_tau(p1, p2)
    dist_sq = embedding_distance_sq(embed(p1), embed(p2))
    print(f"{str(p1.order.tolist()):16s}{str(p2.order.tolist()):16s}{tau:<6d}{dist_sq:.1f}")

# the embedding coordinates live on item pairs in lexicographic order
p = Permutation([2, 0, 3, 1])
e = embed(p)  # a plain read-only array, one coordinate per item pair
print("\norder", p.order.tolist(), "-> embedding")
for k, v in enumerate(e):
    a, b = pair_of(k, p.n)
    first = a if v > 0 else b
    print(f"  pair ({a},{b}): {v:+.1f}   ({first} comes first)")
