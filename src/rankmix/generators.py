"""Samplers and exact oracles for random-utility ranking models.

Three families are supported. The first two draw a noisy score per item,
Z_a = u_a + eps_a, and rank items by sorting scores in descending order:

* ``mnl``      -- Gumbel noise with mode 0 and scale beta (the multinomial
                  logit / Plackett-Luce family); the chance that a beats b in
                  a pairwise readout is w_a / (w_a + w_b), w_x = exp(u_x/beta).
* ``gaussian`` -- centered normal noise with standard deviation sigma; the
                  pairwise readout is Phi((u_a - u_b) / (sigma*sqrt(2))).

The third, ``mallows``, places mass proportional to phi**d(sigma, center) on
each ranking, with d the Kendall tau distance, and is sampled exactly by
repeated insertion: the item at insertion step j lands r slots ahead of the
back of the partial ranking with probability proportional to phi**r.

Masking keeps each embedded coordinate independently with probability p and
stores MISSING otherwise. All randomness is governed by an integer master
seed with per-row substreams keyed by row identity, so masking and sampling
are independently reproducible and row order never changes row randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .rankings import EmbeddedObservation, Permutation, _indexer, embed
from .seeding import TAG_LABELS, TAG_MASK, TAG_SAMPLE, substream

MNL = "mnl"
GAUSSIAN = "gaussian"
MALLOWS = "mallows"


@dataclass(frozen=True)
class ComponentSpec:
    """One mixture component: a model family plus its parameters.

    ``noise`` is beta for mnl, sigma for gaussian, and phi for mallows;
    ``utilities`` applies to mnl/gaussian and ``center`` to mallows.
    """

    family: str
    noise: float
    utilities: np.ndarray | None = None
    center: Permutation | None = None

    def __post_init__(self):
        if self.family not in (MNL, GAUSSIAN, MALLOWS):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == MALLOWS:
            if not isinstance(self.center, Permutation):
                raise ValueError("mallows components need a center permutation")
            if self.utilities is not None:
                raise ValueError("mallows components take no utilities")
            if not (0.0 < self.noise < 1.0):
                raise ValueError("mallows scale phi must lie strictly in (0, 1)")
        else:
            if self.center is not None:
                raise ValueError(f"{self.family} components take no center")
            u = np.asarray(self.utilities, dtype=float)
            if u.ndim != 1 or u.size < 2 or not np.isfinite(u).all():
                raise ValueError("utilities must be a finite vector of length >= 2")
            if not self.noise > 0.0:
                raise ValueError("noise scale must be strictly positive")
            u.setflags(write=False)
            object.__setattr__(self, "utilities", u)

    @classmethod
    def mnl(cls, utilities, beta: float) -> "ComponentSpec":
        return cls(MNL, float(beta), utilities=np.asarray(utilities, dtype=float))

    @classmethod
    def gaussian(cls, utilities, sigma: float) -> "ComponentSpec":
        return cls(GAUSSIAN, float(sigma), utilities=np.asarray(utilities, dtype=float))

    @classmethod
    def mallows(cls, center: Permutation, phi: float) -> "ComponentSpec":
        return cls(MALLOWS, float(phi), center=center)

    @property
    def n(self) -> int:
        if self.family == MALLOWS:
            return self.center.n
        return int(self.utilities.size)

    @property
    def d(self) -> int:
        return self.n * (self.n - 1) // 2


@dataclass(frozen=True)
class MixtureSpec:
    """k components sharing an item count, plus their mixing weights."""

    components: tuple
    weights: np.ndarray

    def __init__(self, components, weights):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one component")
        n = components[0].n
        if any(c.n != n for c in components):
            raise ValueError("all components must share the same item count")
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(components),):
            raise ValueError("weights must match the number of components")
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        return self.components[0].n


@dataclass(frozen=True)
class LabeledSample:
    """An embedded (possibly masked) observation plus its hidden label.

    ``row_id`` is the sample's identity from generation time; mask substreams
    key on it, which is what makes masking commute with reordering rows.
    """

    observation: EmbeddedObservation
    true_label: int
    row_id: int | None = None


# ----------------------------------------------------------------- sampling

def gumbel(beta: float, size, rng: np.random.Generator) -> np.ndarray:
    """Gumbel(0, beta) draws by inverse CDF: -beta * ln(-ln U)."""
    u = rng.random(size)
    with np.errstate(divide="ignore"):
        return -beta * np.log(-np.log(u))


def order_from_scores(scores: np.ndarray) -> np.ndarray:
    """Descending stable sort; on ties the lower item index is preferred."""
    return np.argsort(-np.asarray(scores, dtype=float), kind="stable")


def sample_component(spec: ComponentSpec, rng_seed) -> Permutation:
    """Draw one ranking from a component. Deterministic given the seed."""
    rng = np.random.default_rng(rng_seed)
    if spec.family == MALLOWS:
        return Permutation(_sample_mallows(spec.center, spec.noise, rng))
    if spec.family == MNL:
        scores = spec.utilities + gumbel(spec.noise, spec.n, rng)
    else:
        scores = spec.utilities + spec.noise * rng.standard_normal(spec.n)
    return Permutation(order_from_scores(scores))


def _sample_mallows(center: Permutation, phi: float, rng: np.random.Generator) -> list:
    """Repeated-insertion sampling, exact in O(n^2).

    Inserting the j-th item of the center order at position i of the partial
    ranking creates j - i new pair disagreements with the center, hence
    position i gets probability proportional to phi**(j - i).
    """
    order = [int(center.order[0])]
    for j in range(1, center.n):
        item = int(center.order[j])
        weights = phi ** (j - np.arange(j + 1, dtype=float))
        probs = weights / weights.sum()
        pos = int(rng.choice(j + 1, p=probs))
        order.insert(pos, item)
    return order


def sample_embedded_batch(spec: ComponentSpec, m: int, rng_seed) -> np.ndarray:
    """m embedded draws from one component as an (m, d) array of +-1/2.

    One shared stream; use sample_mixture when per-row reproducibility
    matters. The mnl/gaussian path is vectorized across rows.
    """
    rng = np.random.default_rng(rng_seed)
    n = spec.n
    idx = _indexer(n)
    if spec.family == MALLOWS:
        rows = np.empty((m, spec.d))
        for i in range(m):
            rows[i] = embed(Permutation(_sample_mallows(spec.center, spec.noise, rng))).values
        return rows
    if spec.family == MNL:
        scores = spec.utilities[None, :] + gumbel(spec.noise, (m, n), rng)
    else:
        scores = spec.utilities[None, :] + spec.noise * rng.standard_normal((m, n))
    order = np.argsort(-scores, axis=1, kind="stable")
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.broadcast_to(np.arange(n), (m, n)), axis=1)
    return np.where(pos[:, idx.first] < pos[:, idx.second], 0.5, -0.5)


def sample_mixture(spec: MixtureSpec, N: int, rng_seed: int) -> list:
    """Draw N labeled, unmasked samples; labels are i.i.d. from the weights.

    Row ell uses the substream (rng_seed, ell, sample-tag), so any single row
    can be regenerated without touching the others.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    label_rng = substream(rng_seed, TAG_LABELS)
    labels = label_rng.choice(spec.k, size=N, p=spec.weights)
    out = []
    for row in range(N):
        component = spec.components[int(labels[row])]
        perm = sample_component(component, substream(rng_seed, row, TAG_SAMPLE))
        out.append(LabeledSample(embed(perm), int(labels[row]), row_id=row))
    return out


def mask(samples, p: float, rng_seed: int) -> list:
    """Keep each coordinate independently with probability p, else MISSING."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"keep probability must lie in (0, 1], got {p}")
    out = []
    for position, sample in enumerate(samples):
        row_id = sample.row_id if sample.row_id is not None else position
        rng = substream(rng_seed, row_id, TAG_MASK)
        keep = rng.random(sample.observation.values.size) < p
        values = np.where(keep, sample.observation.values, np.nan)
        out.append(
            LabeledSample(
                EmbeddedObservation(values, sample.observation.n),
                sample.true_label,
                row_id=sample.row_id,
            )
        )
    return out


# ------------------------------------------------------------ exact oracles

def exact_pairwise_marginal(spec: ComponentSpec, a: int, b: int) -> float:
    """P(item a is ranked before item b), exactly, in closed form."""
    n = spec.n
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise ValueError(f"need two distinct items in [0, {n}), got {a}, {b}")
    if spec.family == MNL:
        # w_a/(w_a+w_b) in overflow-safe logistic form
        return float(1.0 / (1.0 + math.exp((spec.utilities[b] - spec.utilities[a]) / spec.noise)))
    if spec.family == GAUSSIAN:
        return float(ndtr((spec.utilities[a] - spec.utilities[b]) / (spec.noise * math.sqrt(2.0))))
    pos = spec.center.position
    return float(_mallows_before(spec.noise, pos[a], pos[b]))


def cluster_mean(spec: ComponentSpec) -> np.ndarray:
    """Expected embedded vector: coordinate (a,b) = P(a before b) - 1/2."""
    idx = _indexer(spec.n)
    if spec.family == MNL:
        diff = (spec.utilities[idx.second] - spec.utilities[idx.first]) / spec.noise
        return 1.0 / (1.0 + np.exp(diff)) - 0.5
    if spec.family == GAUSSIAN:
        diff = (spec.utilities[idx.first] - spec.utilities[idx.second]) / (spec.noise * math.sqrt(2.0))
        return ndtr(diff) - 0.5
    pos = spec.center.position
    return _mallows_before(spec.noise, pos[idx.first], pos[idx.second]) - 0.5


def _mallows_before(phi: float, rank_a: np.ndarray, rank_b: np.ndarray) -> np.ndarray:
    """Mallows P(a before b) from the center ranks of a and b.

    Two items whose center ranks are D apart keep the center order with
    probability (D+1)/(1-phi**(D+1)) - D/(1-phi**D); 1-phi**k is computed as
    -expm1(k*log(phi)) to stay accurate for phi near 1.
    """
    delta = np.abs(rank_a - rank_b).astype(float)
    log_phi = math.log(phi)
    kept = (delta + 1.0) / -np.expm1((delta + 1.0) * log_phi) - delta / -np.expm1(delta * log_phi)
    return np.where(rank_a < rank_b, kept, 1.0 - kept)


# ------------------------------------------------------------ utility draws

def normal_utilities(n: int, rng_seed) -> np.ndarray:
    """The experiments' utility draw: u ~ N(0, I_n)."""
    return np.random.default_rng(rng_seed).standard_normal(n)


def hypercube_utilities(n: int, rng_seed) -> np.ndarray:
    """Uniform draw from the vertices of the +-1/2 hypercube."""
    rng = np.random.default_rng(rng_seed)
    return np.where(rng.random(n) < 0.5, -0.5, 0.5)


def rho_separated_utilities(n: int, rho: float) -> np.ndarray:
    """Descending utilities with every consecutive gap exactly rho."""
    return rho * np.arange(n - 1, -1, -1, dtype=float)
