"""How the two thresholds get picked, and what the diagnostics report says.

t1 cuts the singular-value spectrum (biggest consecutive ratio); t2 cuts the
minimum-spanning-tree edge weights of the rank-r coordinates (biggest
consecutive gap, or one cluster when no gap stands out).
"""

import numpy as np

from rankmix import (
    ComponentSpec,
    MixtureSpec,
    cluster_mean,
    hsvt,
    mask,
    normal_utilities,
    sample_mixture,
    separation_gamma,
    single_linkage,
    spectral_gap_check,
)
from rankmix.pipeline import denoise

k, n, N, p, sigma = 3, 20, 400, 0.8, 0.25
spec = MixtureSpec(
    [ComponentSpec.gaussian(normal_utilities(n, c), sigma) for c in range(k)],
    [1 / k] * k,
)
obs = mask(sample_mixture(spec, N, 0), p, 0)  # a SampleBatch is the observation matrix
svd, estimate = denoise(obs)  # as the pipeline runs it: svd holds the values the t1 rule read
t1 = estimate.threshold_used

print(f"top singular values of the zero-filled {obs.N}x{obs.d} matrix:")
print("  " + "  ".join(f"{s:7.2f}" for s in svd.singular_values[:8]))
ratios = svd.singular_values[:7] / svd.singular_values[1:8]
print("  ratios:" + "  ".join(f"{r:6.2f}" for r in ratios))

print(f"auto t1 = {t1:.2f} -> kept rank {estimate.kept_rank}, p_hat = {estimate.p_hat:.3f}")
r = estimate.kept_rank
lower = (svd.singular_values[r] + svd.singular_values[r + 1]) / 2  # hsvt takes any threshold
print(f"hsvt at t = {lower:.2f}, below sigma_{r + 1}, keeps rank {hsvt(obs, lower).kept_rank}")

# compare against the window the theory wants t1 to sit in
means = [cluster_mean(c) for c in spec.components]
report = spectral_gap_check(obs, np.vstack(means)[obs.labels], t1, tau_star=0.55 * np.sqrt(n - 1), true_p=p)
print(f"noise ||Y - pM||_2 = {report.noise_norm:.2f} (its bound Delta with C = 1: {report.delta:.1f}), "
      f"p*sigma_r(M) = {report.sigma_r_pm:.2f}")
print(f"window ({report.noise_norm:.2f}, {report.sigma_r_pm - report.noise_norm:.2f}) "
      f"contains t1: {report.rank_preservation_predicted}")

clusters = single_linkage(estimate.coords)  # no t2 given: chosen from the same tree
t2 = clusters.threshold_used
w = clusters.mst_edge_weights  # sorted
g = int(np.searchsorted(w, t2, side="right"))  # w[g - 1] <= t2 < w[g]
if g < w.size:
    print(f"\nt2 sits in the MST-weight gap {w[g - 1]:.2f} -> {w[g]:.2f} (of {w.size} edges)")
else:
    print(f"\nno MST-weight gap stood out (of {w.size} edges): one cluster")
print(f"auto t2 = {t2:.2f} -> k_hat = {clusters.k_hat}; "
      f"the true means lie at least gamma = {separation_gamma(means):.2f} apart")
sizes = np.bincount(clusters.labels)
print(f"cluster sizes: {sizes.tolist()}")
