"""Independent reference implementations used to cross-check the library.

Everything in here is deliberately written the slow, obvious way (double loops,
exhaustive enumeration) and never imports from rankmix.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.linalg import eigh
from scipy.spatial.distance import pdist


def positions_of(order):
    """position[item] = rank, from an order array (order[rank] = item)."""
    n = len(order)
    pos = [0] * n
    for r, item in enumerate(order):
        pos[item] = r
    return pos


def oracle_inversions(order1, order2):
    """Count pairs (a, b), a < b, ranked in opposite relative order.

    Equivalent to the bubble-sort distance between the two orderings.
    """
    n = len(order1)
    p1 = positions_of(order1)
    p2 = positions_of(order2)
    count = 0
    for a in range(n):
        for b in range(a + 1, n):
            if (p1[a] < p1[b]) != (p2[a] < p2[b]):
                count += 1
    return count


def oracle_embed(order):
    """Map an order array to {(a, b): +-0.5}, +0.5 iff a is ranked before b."""
    n = len(order)
    pos = positions_of(order)
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            out[(a, b)] = 0.5 if pos[a] < pos[b] else -0.5
    return out


def oracle_embed_positions(position):
    """Rows of item ranks embedded by comparing them as given, in one np.where:
    coordinate (a, b), a < b in lexicographic order, is +0.5 iff rank a < rank b."""
    position = np.asarray(position)
    first, second = np.triu_indices(position.shape[-1], k=1)
    return np.where(position[..., first] < position[..., second], 0.5, -0.5)


def lex_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def oracle_mallows_pmf(center_order, phi):
    """Exact PMF {perm_tuple: prob} proportional to phi**d(perm, center)."""
    n = len(center_order)
    weights = {}
    for perm in itertools.permutations(range(n)):
        weights[perm] = phi ** oracle_inversions(perm, center_order)
    z = sum(weights.values())
    return {perm: w / z for perm, w in weights.items()}


def oracle_mallows_marginal(center_order, phi, a, b):
    """P(a ranked before b) under the exact Mallows PMF."""
    pmf = oracle_mallows_pmf(center_order, phi)
    total = 0.0
    for perm, prob in pmf.items():
        pos = positions_of(perm)
        if pos[a] < pos[b]:
            total += prob
    return total


def oracle_mnl_marginal(u_a, u_b, beta):
    wa = math.exp(u_a / beta)
    wb = math.exp(u_b / beta)
    return wa / (wa + wb)


def oracle_gaussian_marginal(u_a, u_b, sigma):
    x = (u_a - u_b) / (sigma * math.sqrt(2.0))
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def oracle_epsilon_graph_labels(rows, t2):
    """Connected components of the graph with an edge iff ||r_i - r_j|| <= t2.

    Labels are assigned by order of first row appearance, matching the library
    convention, so label arrays can be compared directly.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(rows[i] - rows[j]) <= t2:
                adj[i].append(j)
                adj[j].append(i)
    labels = [-1] * n
    next_label = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = next_label
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if labels[w] == -1:
                    labels[w] = next_label
                    stack.append(w)
        next_label += 1
    return labels


def oracle_fcluster_labels(rows, t2):
    """scipy's single-linkage tree cut by fcluster at distance t2, relabelled
    by order of first row appearance: the reference for single_linkage's own
    cut of the tree's merge list."""
    comp = fcluster(linkage(pdist(np.asarray(rows, dtype=float)), method="single"), t2, criterion="distance")
    first = {}
    return [first.setdefault(c, len(first)) for c in comp.tolist()]


def oracle_risk_exhaustive(predicted, truth):
    """Min disagreement fraction over injective matchings of label sets."""
    predicted = list(predicted)
    truth = list(truth)
    assert len(predicted) == len(truth)
    n = len(predicted)
    pred_labels = sorted(set(predicted))
    true_labels = sorted(set(truth))
    # agreement[i][j] = #rows with predicted label i and true label j
    agree = {
        (i, j): 0 for i in pred_labels for j in true_labels
    }
    for p, t in zip(predicted, truth):
        agree[(p, t)] += 1

    best = 0
    if len(pred_labels) <= len(true_labels):
        for image in itertools.permutations(true_labels, len(pred_labels)):
            total = sum(agree[(p, image[idx])] for idx, p in enumerate(pred_labels))
            best = max(best, total)
    else:
        for image in itertools.permutations(pred_labels, len(true_labels)):
            total = sum(agree[(image[idx], t)] for idx, t in enumerate(true_labels))
            best = max(best, total)
    return 1.0 - best / n


def random_order(rng, n):
    return list(rng.permutation(n))


def oracle_mallows_insertion(center_order, phi, rng):
    """One Mallows draw by repeated insertion: one rng.choice and one list.insert
    per item, so slot i at step j has probability proportional to phi**(j - i)."""
    order = [int(center_order[0])]
    for j in range(1, len(center_order)):
        weights = phi ** (j - np.arange(j + 1, dtype=float))
        probs = weights / weights.sum()
        order.insert(int(rng.choice(j + 1, p=probs)), int(center_order[j]))
    return order


def oracle_score_order(scores):
    """Items by descending score; on tied scores the lower item index comes first."""
    return sorted(range(len(scores)), key=lambda a: (-scores[a], a))


_MASK64 = 2**64 - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def oracle_philox4x64_10(counter, key):
    """One Philox4x64-10 block (Salmon et al. 2011) in Python integers:
    four 64-bit counter words and two key words in, four words out."""
    c = list(counter)
    k = list(key)
    for round_ in range(10):
        if round_:
            k = [(k[0] + _PHILOX_W[0]) & _MASK64, (k[1] + _PHILOX_W[1]) & _MASK64]
        p0 = _PHILOX_M[0] * c[0]
        p1 = _PHILOX_M[1] * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k[0], p1 & _MASK64, (p0 >> 64) ^ c[3] ^ k[1], p0 & _MASK64]
    return c


def oracle_keyed_uniforms(seed, tag, row, width):
    """The width uniforms of the row at position row: with q = ceil(width / 4),
    Philox blocks at counters row*q + 1 .. row*q + q under the key
    SeedSequence([seed, tag]).generate_state(2, uint64), each raw word x
    mapped to ((x >> 12) + 0.5) * 2**-52."""
    key = [int(w) for w in np.random.SeedSequence([int(seed), int(tag)]).generate_state(2, np.uint64)]
    q = -(-width // 4)
    words = []
    for c in range(int(row) * q + 1, int(row) * q + q + 1):
        words += oracle_philox4x64_10([(c >> (64 * w)) & _MASK64 for w in range(4)], key)
    return [((x >> 12) + 0.5) * 2.0**-52 for x in words[:width]]


def oracle_mask_rows(values, p, seed, tag):
    """Row by row: row r keeps a coordinate iff its uniform from
    oracle_keyed_uniforms(seed, tag, r, d) is below p, and holds 0
    otherwise."""
    out = []
    for r, row in enumerate(values):
        keep = np.array(oracle_keyed_uniforms(seed, tag, r, len(row))) < p
        out.append(np.where(keep, row, 0.0))
    return np.array(out).reshape(np.shape(values))


def oracle_prim_full_scan(rows):
    """Prim's algorithm that recomputes distances to every row at each step.

    Returns (u, v, w) arrays of the N-1 tree edges in insertion order; among
    tied distances the lowest row index joins first.
    """
    N = rows.shape[0]
    in_tree = np.zeros(N, dtype=bool)
    in_tree[0] = True
    best_dist = np.sqrt(((rows - rows[0]) ** 2).sum(axis=1))
    best_from = np.zeros(N, dtype=np.intp)
    best_dist[0] = np.inf
    us = np.empty(N - 1, dtype=np.intp)
    vs = np.empty(N - 1, dtype=np.intp)
    ws = np.empty(N - 1, dtype=float)
    for k in range(N - 1):
        j = int(np.argmin(best_dist))
        us[k] = best_from[j]
        vs[k] = j
        ws[k] = best_dist[j]
        in_tree[j] = True
        best_dist[j] = np.inf
        dj = np.sqrt(((rows - rows[j]) ** 2).sum(axis=1))
        closer = (dj < best_dist) & ~in_tree
        best_dist[closer] = dj[closer]
        best_from[closer] = j
    return us, vs, ws


def oracle_mst_cut_labels(us, vs, keep):
    """Labels of the forest left by the Prim tree (us, vs) after dropping each
    edge whose keep flag is False, by order of first row appearance.

    Prim order labels in one pass: u already has its component when v joins.
    """
    comp = [0] * (len(us) + 1)
    for k, (u, v, kept) in enumerate(zip(us.tolist(), vs.tolist(), keep.tolist())):
        comp[v] = comp[u] if kept else k + 1
    first = {}
    return [first.setdefault(c, len(first)) for c in comp]


def oracle_thin_svd(y):
    """LAPACK's thin SVD, (U, s, Vt) with s nonincreasing."""
    return np.linalg.svd(np.asarray(y, dtype=float), full_matrices=False)


def oracle_gram_svd(y):
    """The thin SVD (s, U, Vt) of y, s nonincreasing, from scipy's eigh of the
    whole Gram matrix a^T a (a = y, or y^T when y is wide), every eigenvector
    at once. Numerical zeros are those of rankmix's SvdResult: going down the
    spectrum, once sigma_j <= sqrt(m eps) sigma_1 or ||a v_j|| is, sigma_j and
    every later value are 0, each with a zero back-product column."""
    y = np.asarray(y, dtype=float)
    wide = y.shape[0] < y.shape[1]
    a = y.T if wide else y
    m = a.shape[1]
    eigenvalues, v = eigh(a.T @ a)
    s = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    v = v[:, ::-1]
    w = a @ v
    floor = math.sqrt(m * np.finfo(float).eps) * s[0]
    zero = False
    for j in range(m):
        zero = zero or s[j] <= floor or np.linalg.norm(w[:, j]) <= floor
        if zero:
            s[j], w[:, j] = 0.0, 0.0
        else:
            w[:, j] /= s[j]
    return (s, v, w.T) if wide else (s, w, v.T)


def oracle_hsvt(svd, threshold, p_hat):
    """Hard thresholding of an oracle SvdResult (singular_values, U, Vt):
    the r components with sigma_j > threshold as the factors left = U_r S_r
    and Vt = V_r^T, with kept_rank r, coords = left / p_hat and the dense
    m_hat = left @ Vt / p_hat. The svd must hold the vectors of every kept
    component."""
    s = np.asarray(svd.singular_values)
    r = int(np.count_nonzero(s > threshold))
    assert r <= svd.U.shape[1], f"threshold {threshold} keeps {r} components, the svd holds {svd.U.shape[1]}"
    left = svd.U[:, :r] * s[:r]
    Vt = svd.Vt[:r]
    return SimpleNamespace(left=left, Vt=Vt, kept_rank=r, coords=left / p_hat, m_hat=left @ Vt / p_hat)
