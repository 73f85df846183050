"""Distillation, mutual-information, adaptability and isolation losses,
their bounded Lipschitz composites, and the margin hinge.

All functions run on the grad tape and accept either single latents (N,) or
batches (B, N); batched inputs produce one loss value per sample.
"""

from __future__ import annotations

from .tensor import Tensor, ContractError


def distill_loss(teacher, student) -> Tensor:
    """Symmetric KL between diagonal Gaussians, averaged over dimensions.

    (1/2N) sum_k [ (v_t + (mu_t - mu_s)^2)/v_s + (v_s + (mu_s - mu_t)^2)/v_t - 2 ]
    """
    if teacher.mu.shape != student.mu.shape:
        raise ContractError("teacher/student latent sizes differ")
    n = teacher.mu.shape[-1]
    vt = teacher.logvar.exp()
    vs = student.logvar.exp()
    dmu2 = (teacher.mu - student.mu) ** 2
    per_dim = (vt + dmu2) / vs + (vs + dmu2) / vt - 2.0
    return per_dim.sum(axis=-1) * (1.0 / (2 * n))


def mutual_info(a, mu, logvar) -> Tensor:
    """I = -1/2 * [ logvar + (a - mu)^2 / exp(logvar) ], elementwise."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    mu = mu if isinstance(mu, Tensor) else Tensor(mu)
    logvar = logvar if isinstance(logvar, Tensor) else Tensor(logvar)
    return (logvar + (a - mu) ** 2 / logvar.exp()) * -0.5


def _mean_mi(a: Tensor, latent, dims) -> Tensor:
    mi = mutual_info(a.take(dims, axis=-1),
                     latent.mu.take(dims, axis=-1),
                     latent.logvar.take(dims, axis=-1))
    return mi.mean(axis=-1)


def adapt_loss(a: Tensor, latent, a2: Tensor, latent2, rep_dims) -> Tensor:
    """Mean mutual-information difference over the representative dims:
    the teacher's information about the changed factor must transfer."""
    if not len(rep_dims):
        raise ContractError("representative dim set is empty")
    return _mean_mi(a, latent, rep_dims) - _mean_mi(a2, latent2, rep_dims)


def isolation_loss(a: Tensor, latent, a2: Tensor, latent2, rep_dims, n: int) -> Tensor:
    """Information-gap preservation: MI difference over representative dims
    (x minus x') plus the reversed difference over the complement."""
    if not 1 <= len(rep_dims) < n:
        raise ContractError("need 1 <= |rep dims| < N (complement non-empty)")
    comp = [i for i in range(n) if i not in set(rep_dims)]
    return ((_mean_mi(a, latent, rep_dims) - _mean_mi(a2, latent2, rep_dims))
            + (_mean_mi(a2, latent2, comp) - _mean_mi(a, latent, comp)))


def bounded(value: Tensor, kind: str) -> Tensor:
    """Bounded Lipschitz composite: logistic-based for kind D (range [0,1),
    Lipschitz 1/2, 0 maps to 0), arctan for kinds A/I (Lipschitz 1)."""
    if kind == "D":
        return (value.sigmoid() - 0.5) * 2.0
    if kind in ("A", "I"):
        return value.arctan()
    raise ContractError(f"unknown loss kind '{kind}'")


def hinge(value: Tensor, gamma: float) -> Tensor:
    """max(L - gamma, 0) with subgradient 0 at the kink."""
    if gamma < 0:
        raise ContractError("margin must be >= 0")
    return (value - gamma).relu()
