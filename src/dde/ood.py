"""Per-factor OOD reasoners: k-means over a factor's representative latent
dims, a Gaussian mixture built from the cluster structure, percentile
threshold calibration, scoring, and AUROC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Rng, ContractError
from .data import ConfigError

VAR_FLOOR = 1e-6
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6           # Lloyd stops once no center moves farther than this


@dataclass
class OodVerdict:
    score: float                # mixture log-likelihood
    is_ood: bool


@dataclass
class OodReasoner:
    factor: str
    dims: list                  # representative latent dims this scorer reads
    weights: np.ndarray         # (k,)
    means: np.ndarray           # (k, d)
    variances: np.ndarray       # (k, d) diagonal covariances
    threshold: float            # log-likelihood cutoff

    def to_dict(self) -> dict:
        return {
            "factor": self.factor,
            "dims": list(self.dims),
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
            "threshold": self.threshold,
        }


def _kmeans(points: np.ndarray, k: int, rng: Rng):
    """Lloyd's algorithm with k-means++ seeding; an emptied cluster is
    re-seeded from the point farthest from its assigned center."""
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    for j in range(1, k):
        d2 = np.min(((points[:, None, :] - centers[None, :j, :]) ** 2).sum(-1), axis=1)
        total = d2.sum()
        if total <= 0:
            centers[j] = points[int(rng.integers(n))]
            continue
        r = rng.uniform(0.0, total)
        centers[j] = points[np.searchsorted(np.cumsum(d2), r).clip(0, n - 1)]

    assign = np.zeros(n, dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        assign = d2.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = assign == j
            if mask.any():
                new_centers[j] = points[mask].mean(axis=0)
            else:
                far = d2[np.arange(n), assign].argmax()
                new_centers[j] = points[far]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(-1)).max()
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    return centers, d2.argmin(axis=1)


def fit(embeddings: np.ndarray, k: int, percentile: float = 5.0,
        seed: int = 0, factor: str = "", dims=None) -> OodReasoner:
    """Cluster calibration embeddings and build a GMM from the clusters;
    the threshold is the q-th percentile of calibration log-likelihoods."""
    pts = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if pts.ndim != 2:
        raise ContractError("embeddings must be (n, d)")
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > len(np.unique(pts, axis=0)):
        raise ConfigError(f"k={k} exceeds the number of distinct points")

    centers, assign = _kmeans(pts, k, Rng(seed))
    weights = np.zeros(k)
    variances = np.full((k, pts.shape[1]), VAR_FLOOR)
    for j in range(k):
        mask = assign == j
        weights[j] = mask.mean()
        if mask.any():
            variances[j] = np.maximum(pts[mask].var(axis=0), VAR_FLOOR)
    weights = np.maximum(weights, 1e-12)
    weights /= weights.sum()

    reasoner = OodReasoner(factor, list(dims) if dims is not None else
                           list(range(pts.shape[1])),
                           weights, centers, variances, threshold=-np.inf)
    reasoner.threshold = float(np.percentile(_loglik(reasoner, pts), percentile))
    return reasoner


def _loglik(reasoner: OodReasoner, z: np.ndarray) -> np.ndarray:
    """Mixture log-likelihood of each row of z, shape (n, d) -> (n,)."""
    diff = np.asarray(z, dtype=np.float64)[:, None, :] - reasoner.means
    log_comp = (np.log(reasoner.weights)
                - 0.5 * (np.log(2 * np.pi * reasoner.variances)
                         + diff ** 2 / reasoner.variances).sum(axis=2))
    mx = log_comp.max(axis=1)
    return mx + np.log(np.exp(log_comp - mx[:, None]).sum(axis=1))


def score(reasoner: OodReasoner, z) -> OodVerdict:
    """Mixture log-likelihood of z; OOD iff it falls below the threshold."""
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if z.shape[0] != reasoner.means.shape[1]:
        raise ContractError(f"embedding dim {z.shape[0]} != reasoner dim "
                            f"{reasoner.means.shape[1]}")
    s = float(_loglik(reasoner, z[None])[0])
    return OodVerdict(s, s < reasoner.threshold)


def auroc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUROC; higher score means more in-distribution.

    labels: truthy for ID, falsy for OOD.  Ties contribute 1/2.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray([bool(l) for l in labels])
    n_id = int(labels.sum())
    n_ood = int((~labels).sum())
    if n_id == 0 or n_ood == 0:
        raise ContractError("auroc needs both ID and OOD samples")
    # a tie group's average 1-based rank: its last rank minus half its spread
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
    r_id = ranks[labels].sum()
    return float((r_id - n_id * (n_id + 1) / 2.0) / (n_id * n_ood))
