"""Distillation, mutual-information, adaptability and isolation losses,
their bounded Lipschitz composites, and the margin hinge.

All functions run on the grad tape and accept either single latents (N,) or
batches (B, N); batched inputs produce one loss value per sample.
"""

from __future__ import annotations

from .tensor import Tensor, ContractError, _as_tensor


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
    a, mu, logvar = map(_as_tensor, (a, mu, logvar))
    return (logvar + (a - mu) ** 2 / logvar.exp()) * -0.5


def _mean_over(mi: Tensor, dims) -> Tensor:
    return mi.take(dims, axis=-1).mean(axis=-1)


def adapt_loss(mi: Tensor, mi2: Tensor, rep_dims) -> Tensor:
    """Mean mutual-information difference over the representative dims:
    the teacher's information about the changed factor must transfer.
    `mi` and `mi2` are the pointwise MI tables of the two pair sides."""
    if not len(rep_dims):
        raise ContractError("representative dim set is empty")
    return _mean_over(mi, rep_dims) - _mean_over(mi2, rep_dims)


def isolation_loss(mi: Tensor, mi2: Tensor, rep_dims) -> Tensor:
    """Information-gap preservation: the adaptability loss (x minus x') plus
    the reversed difference over the complement of the representative dims."""
    n = mi.shape[-1]
    if not 1 <= len(rep_dims) < n:
        raise ContractError("need 1 <= |rep dims| < N (complement non-empty)")
    comp = [i for i in range(n) if i not in set(rep_dims)]
    return adapt_loss(mi, mi2, rep_dims) + (_mean_over(mi2, comp) - _mean_over(mi, comp))


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
