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
repeated insertion (Doignon, Pekec & Regenwetter 2004): the item at step j
lands r slots ahead of the back of the partial ranking with probability
proportional to phi**r.

One kernel samples a block of m rows: uniforms (m, .) -- n per row, of
which mallows reads the first n-1 -- become noise terms, then item ranks
(m, n), then embedded rows (m, d); repeated insertion takes one numpy step
per item for all rows. Rows travel as one columnar ``SampleBatch`` (values
over +-1/2 with 0 where missing -- the one in-memory marker; files write
``NA`` -- labels, unique non-negative row ids); masking keeps each
coordinate with probability p.

Row randomness is counter-keyed by (seed, tag, row id): ``sample_mixture``
draws labels from the (seed, labels-tag) substream and row ell's uniforms
from the Philox block keyed by (seed, sample-tag) at row id ell, and
``mask`` draws row r's from (seed, mask-tag) at row id row_ids[r]
(``seeding._keyed_uniforms``). Any row can be regenerated alone and row order
never changes row randomness. ``sample_embedded_batch`` and the experiments'
Poisson blocks use one stream per block instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .rankings import Permutation, _check_masked_embedding, _pairs, embed_positions
from .rankings import embed  # noqa: F401 -- perfbench/spans.py wraps generators.embed, so it stays bound
from .seeding import TAG_LABELS, TAG_MASK, TAG_SAMPLE, _keyed_uniforms, substream

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
            if not 0.0 < self.noise < math.inf:
                raise ValueError("noise scale must be finite and strictly positive")
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
        if not np.isfinite(w).all() or (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be finite, nonnegative and sum to 1")
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
class SampleBatch:
    """N embedded, possibly masked rows with their hidden labels and row ids.

    ``values`` is (N, d) over {-1/2, +1/2, 0}, 0 marking a missing
    coordinate; NaN and inf are refused. ``row_ids`` are the rows' unique,
    non-negative identities from generation time; mask uniforms are keyed
    on them, which is what makes masking commute with reordering rows. The
    fields are read-only views, so the caller's arrays stay writable.
    """

    values: np.ndarray
    labels: np.ndarray
    row_ids: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        row_ids = np.asarray(self.row_ids, dtype=np.int64)
        if values.ndim != 2 or labels.shape != (values.shape[0],) or row_ids.shape != labels.shape:
            raise ValueError(
                f"need (N, d) values with N labels and N row ids, got shapes "
                f"{values.shape}, {labels.shape}, {row_ids.shape}"
            )
        _check_masked_embedding(values)
        if np.unique(row_ids).size != row_ids.size:
            raise ValueError("row ids must be unique")
        if (row_ids < 0).any():
            raise ValueError(f"row ids must be non-negative, got {row_ids.min()}")
        for name, array in (("values", values), ("labels", labels), ("row_ids", row_ids)):
            array = array.view()
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return self.values.shape[0]


# ----------------------------------------------------------------- sampling

def _draws(spec: ComponentSpec, uniforms: np.ndarray) -> np.ndarray:
    """The raw randomness of m rows from (m, n) uniforms ((m, n-1) suffice
    for mallows).

    mallows reads the first n-1 columns as they are; mnl turns the uniforms
    into Gumbel(0, beta) noise, -beta * ln(-ln U), and gaussian into
    N(0, sigma^2) noise, sigma * ndtri(U). Inverse CDFs use a fixed number
    of uniforms per row, which is what lets row randomness be counter-keyed.
    """
    if spec.family == MALLOWS:
        return uniforms[:, : spec.n - 1]
    if spec.family == MNL:
        with np.errstate(divide="ignore"):  # Generator.random can return U = 0
            return -spec.noise * np.log(-np.log(uniforms))
    return spec.noise * ndtri(uniforms)


def _embed_draws(spec: ComponentSpec, draws: np.ndarray) -> np.ndarray:
    """Raw draws (m, .) -> item ranks (m, n) -> embedded rows (m, d)."""
    if spec.family == MALLOWS:
        return embed_positions(_mallows_positions(spec.center, spec.noise, draws))
    # descending stable sort: on tied scores the lower item index comes first
    order = np.argsort(-(spec.utilities + draws), axis=1, kind="stable")
    return embed_positions(np.argsort(order, axis=1))


def _mallows_positions(center: Permutation, phi: float, uniforms: np.ndarray) -> np.ndarray:
    """Repeated insertion for every row at once, exact in O(m n^2).

    Inserting the j-th item of the center order at slot i of the partial
    ranking creates j - i new pair disagreements with the center, hence slot
    i gets probability proportional to phi**(j - i). Step j picks every row's
    slot with one searchsorted of that row's j-th uniform on the normalised
    cdf that ``Generator.choice`` builds for those probabilities.
    """
    rank = np.zeros((uniforms.shape[0], center.n), dtype=np.int64)  # column j: rank of center.order[j]
    for j in range(1, center.n):
        weights = phi ** (j - np.arange(j + 1, dtype=float))
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        slot = cdf.searchsorted(uniforms[:, j - 1], side="right")
        rank[:, :j] += rank[:, :j] >= slot[:, None]
        rank[:, j] = slot
    position = np.empty_like(rank)
    position[:, center.order] = rank
    return position


def sample_embedded_batch(spec: ComponentSpec, m: int, rng_seed) -> np.ndarray:
    """m embedded draws from one component as an (m, d) array of +-1/2.

    All m rows share one stream, ``default_rng(rng_seed).random`` of shape
    (m, n), or (m, n-1) for mallows, so a row depends on the rows drawn
    before it; sample_mixture keys every row by its own id instead.
    """
    width = spec.n - 1 if spec.family == MALLOWS else spec.n
    return _embed_draws(spec, _draws(spec, np.random.default_rng(rng_seed).random((m, width))))


def sample_mixture(spec: MixtureSpec, N: int, rng_seed: int) -> SampleBatch:
    """Draw N labeled, unmasked rows; labels are i.i.d. from the weights.

    Labels come from the (rng_seed, labels-tag) substream. Row ell reads the
    n uniforms keyed by (rng_seed, sample-tag) at row id ell, so any single
    row can be regenerated without touching the others; rng_seed must be a
    non-negative integer.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    uniforms = _keyed_uniforms(rng_seed, TAG_SAMPLE, np.arange(N), spec.n)
    labels = substream(rng_seed, TAG_LABELS).choice(spec.k, size=N, p=spec.weights)
    values = np.empty((N, spec.components[0].d))
    for label in np.unique(labels):
        component = spec.components[label]
        rows = np.flatnonzero(labels == label)
        values[rows] = _embed_draws(component, _draws(component, uniforms[rows]))
    return SampleBatch(values, labels, np.arange(N))


def mask(batch: SampleBatch, p: float, rng_seed: int) -> SampleBatch:
    """Keep each coordinate independently with probability p, else set it to 0.

    Row r keeps coordinate c iff its uniform keyed by (rng_seed, mask-tag) at
    row id batch.row_ids[r], column c, is below p; rng_seed must be a
    non-negative integer. p = 1 keeps every coordinate.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"keep probability must lie in (0, 1], got {p}")
    keep = _keyed_uniforms(rng_seed, TAG_MASK, batch.row_ids, batch.values.shape[1]) < p
    return SampleBatch(np.where(keep, batch.values, 0.0), batch.labels, batch.row_ids)


# ------------------------------------------------------------ exact oracles

def exact_pairwise_marginal(spec: ComponentSpec, a: int, b: int) -> float:
    """P(item a is ranked before item b), exactly, in closed form."""
    n = spec.n
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise ValueError(f"need two distinct items in [0, {n}), got {a}, {b}")
    return float(_before(spec, a, b))


def cluster_mean(spec: ComponentSpec) -> np.ndarray:
    """Expected embedded vector: coordinate (a,b) = P(a before b) - 1/2."""
    return _before(spec, *_pairs(spec.n)) - 0.5


def _before(spec: ComponentSpec, a, b):
    """P(item a before item b), elementwise over item indices a and b."""
    if spec.family == MNL:
        # w_a/(w_a+w_b) in logistic form; where exp overflows to inf it is 0.0
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp((spec.utilities[b] - spec.utilities[a]) / spec.noise))
    if spec.family == GAUSSIAN:
        return ndtr((spec.utilities[a] - spec.utilities[b]) / (spec.noise * math.sqrt(2.0)))
    pos = spec.center.position
    return _mallows_before(spec.noise, pos[a], pos[b])


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
