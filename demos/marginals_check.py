"""Sampled pairwise win rates vs their closed forms, for each noise family."""

from rankmix import (
    ComponentSpec,
    MixtureSpec,
    Permutation,
    exact_pairwise_marginal,
    normal_utilities,
    pair_index,
    sample_mixture,
)

n = 5
m = 50_000

specs = {
    "mnl beta=1.0": ComponentSpec.mnl(normal_utilities(n, 1), 1.0),
    "gaussian sigma=0.7": ComponentSpec.gaussian(normal_utilities(n, 2), 0.7),
    "mallows phi=0.5": ComponentSpec.mallows(Permutation(list(range(n))), 0.5),
}

for name, spec in specs.items():
    batch = sample_mixture(MixtureSpec([spec], [1.0]), m, 7).values
    worst = 0.0
    print(f"\n{name}  (empirical over {m} samples vs exact)")
    print("  pair   empirical  exact")
    for a in range(n):
        for b in range(a + 1, n):
            empirical = 0.5 + batch[:, pair_index(a, b, n)].mean()
            exact = exact_pairwise_marginal(spec, a, b)
            worst = max(worst, abs(empirical - exact))
            if a == 0:  # print one row per opponent of item 0, keep it short
                print(f"  (0,{b})  {empirical:.4f}     {exact:.4f}")
    print(f"  worst abs gap over all {n * (n - 1) // 2} pairs: {worst:.4f}")
