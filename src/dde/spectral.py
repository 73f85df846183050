"""Convolution operator spectra via a per-frequency DFT of the taps + SVD,
singular-value clipping, operator drift, the network Lipschitz coefficient,
and the Rademacher bounds for the three loss kinds.

Spectra use the circular-padding (block circulant) operator convention: the
operator's singular vectors are Fourier basis vectors, so the singular
values are exactly the per-frequency SVDs of the kernel transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, ContractError
from .data import chi_of_dataset


@dataclass
class SpectrumReport:
    values: np.ndarray          # all singular values, descending

    @property
    def max(self) -> float:
        return float(self.values[0])


@dataclass
class RademacherBound:
    dudley: float
    concentration: float
    zeta: float


def _as_kernel(kernel) -> np.ndarray:
    k = kernel.data if isinstance(kernel, Tensor) else np.asarray(kernel, dtype=np.float64)
    if k.ndim != 4:
        raise ContractError("kernel must have shape (C_out, C_in, k, k)")
    return k


def _freq_blocks(kernel: np.ndarray, spatial):
    """(real, pairs): the per-frequency C_out x C_in transforms of `kernel` on
    an h x w grid that carry distinct singular values.  A real kernel's
    transform at (-u, -v) is the conjugate of the one at (u, v), so `real`
    holds the self-conjugate frequencies (u in {0, h/2}, v in {0, w/2}) and
    `pairs` one frequency of each conjugate pair.  Taps beyond the grid wrap
    through the phase."""
    h, w = spatial
    co, ci, kh, kw = kernel.shape
    freq = np.arange(h * w)
    u, v = np.divmod(freq, w)
    conj = (-u % h) * w + (-v % w)
    a, b = np.divmod(np.arange(kh * kw), kw)
    turns = (np.outer(u, a) % h) / h + (np.outer(v, b) % w) / w   # (h*w, kh*kw)
    taps = kernel.reshape(co * ci, kh * kw).T
    real = np.cos(2 * np.pi * turns[conj == freq]) @ taps
    pairs = np.exp(-2j * np.pi * turns[conj > freq]) @ taps
    return real.reshape(-1, co, ci), pairs.reshape(-1, co, ci)


def conv_singular_values(kernel, spatial) -> SpectrumReport:
    """All H*W*min(C_in, C_out) singular values of the circulant conv
    operator, descending: the SVDs of the distinct per-frequency blocks,
    with each conjugate pair's values counted twice."""
    real, pairs = _freq_blocks(_as_kernel(kernel), spatial)
    sv = np.linalg.svd(pairs, compute_uv=False).ravel()
    values = np.concatenate([np.linalg.svd(real, compute_uv=False).ravel(), sv, sv])
    return SpectrumReport(np.sort(values)[::-1])


def _conv_norm(kernel: np.ndarray, spatial) -> float:
    """Largest singular value of the circulant conv operator: the top
    eigenvalue of each distinct block's Gram matrix on its smaller side."""
    top = 0.0
    for blocks in _freq_blocks(kernel, spatial):
        if blocks.shape[1] > blocks.shape[2]:
            blocks = blocks.swapaxes(1, 2)
        gram = blocks @ blocks.conj().swapaxes(1, 2)
        top = max(top, np.linalg.eigvalsh(gram)[:, -1].max(initial=0.0))
    return math.sqrt(top)


def clip_singular_values(kernel, spatial, theta: float) -> np.ndarray:
    """Clamp the conv operator's singular values to <= theta, returning a
    kernel with the original (k x k) support.

    Projection to the norm ball happens in the frequency domain; cropping
    back to k x k support can re-grow the norm slightly, so the two
    projections alternate until the re-measured norm is within 1e-10 of
    theta (both constraint sets are convex, so the alternation converges).
    """
    if theta <= 0:
        raise ContractError("clip threshold must be > 0")
    k = _as_kernel(kernel)
    h, w = spatial
    kh, kw = k.shape[2], k.shape[3]
    if kh > h or kw > w:
        raise ContractError("cannot clip a kernel larger than its input")
    if _conv_norm(k, spatial) <= theta + 1e-9:
        return k.copy()

    cur = k.copy()
    mx = np.inf
    for _ in range(500):
        coeffs = np.fft.fft2(cur, s=spatial, axes=(2, 3)).transpose(2, 3, 0, 1)
        u, s, vt = np.linalg.svd(coeffs, full_matrices=False)
        s = np.minimum(s, theta)
        clipped = (u * s[..., None, :]) @ vt
        full = np.real(np.fft.ifft2(clipped.transpose(2, 3, 0, 1), axes=(2, 3)))
        cur = full[:, :, :kh, :kw]
        mx = _conv_norm(cur, spatial)
        if mx <= theta + 1e-10:
            break
    if mx > theta:
        cur *= theta / mx
    return cur


def layer_spectrum(spec, kernel: np.ndarray, spatial) -> np.ndarray:
    """All singular values, descending, of layer `spec` run with `kernel` on
    an input of size `spatial`; a linear layer ignores `spatial`."""
    if spec.kind == "conv":
        return conv_singular_values(kernel, spatial).values
    return np.linalg.svd(kernel, compute_uv=False)


def layer_norm(spec, kernel: np.ndarray, spatial) -> float:
    """Operator norm of layer `spec` run with `kernel` on an input of size
    `spatial`: the first value of layer_spectrum, without the others."""
    if spec.kind == "conv":
        return _conv_norm(_as_kernel(kernel), spatial)
    return float(np.linalg.svd(kernel, compute_uv=False)[0])


def operator_drift(model, snapshot=None, per_layer: bool = False):
    """Summed spectral-norm distance between each layer's current effective
    operator and its initialization snapshot."""
    snapshot = model.snapshot if snapshot is None else snapshot
    spatial = model.layer_spatial()
    drifts = []
    for li, spec in enumerate(model.layers):
        diff = model.effective_kernel(li) - snapshot[li]
        drifts.append(layer_norm(spec, diff, spatial[li]))
    total = float(sum(drifts))
    return (total, drifts) if per_layer else total


def network_lipschitz(chi: float, kappa: float, delta_op: float,
                      nu: float, layer_count: int) -> float:
    """chi * kappa * delta_op * (1 + nu + delta_op/L)^L."""
    if min(chi, kappa, delta_op, nu) < 0 or layer_count < 1:
        raise ContractError("network_lipschitz args must be >= 0 with L >= 1")
    return chi * kappa * delta_op * (1.0 + nu + delta_op / layer_count) ** layer_count


def zeta_bound(m: int, d: int, delta: float, loss_bound: float,
               omega: float, kappa: float, chi: float, delta_op: float,
               nu: float, layer_count: int) -> RademacherBound:
    """High-probability generalization bound: Dudley term (from the network
    Lipschitz coefficient) plus the concentration term."""
    if m < 1 or d < 1:
        raise ContractError("m and d must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ContractError("delta must lie in (0, 1)")
    dudley = (2.0 * network_lipschitz(chi, kappa, delta_op, nu, layer_count)
              * math.sqrt(8.7 * d / m))
    concentration = (loss_bound + 2.0 * kappa * omega * m) * math.sqrt(math.log(1.0 / delta) / (2.0 * m))
    return RademacherBound(dudley, concentration, dudley + concentration)


DEFAULT_CERT_CONSTANTS = {
    # per-loss Lipschitz constants and range bounds, plus the shared inputs
    "kappa": {"D": 3.0, "A": 61.5, "I": 206.4},
    "loss_bound": {"D": 1.0, "A": 54.72, "I": 216.8},
    "omega": 0.001,
    "delta": 0.1,
    "m": {"D": 3000, "A": 1500, "I": 1500},
}


def certify(model, dataset, constants: dict | None = None, m_grid=None) -> dict:
    """Full certification report: per-layer spectra summaries, operator
    drift, kappa_theta per loss kind, and the three zeta bounds (with a
    zeta-vs-m table for plotting).  A per-kind table in `constants`
    overrides only the kinds it names."""
    model.check_fit(dataset)
    given = constants or {}
    consts = {k: {**v, **given.get(k, {})} if isinstance(v, dict) else given.get(k, v)
              for k, v in DEFAULT_CERT_CONSTANTS.items()}
    chi = chi_of_dataset(dataset)
    nu = model.init_norm_slack
    layer_count = len(model.layers)
    d = model.parameter_count()

    spatial = model.layer_spatial()
    spectra = []
    for li, spec in enumerate(model.layers):
        values = layer_spectrum(spec, model.effective_kernel(li), spatial[li])
        spectra.append({"layer": li, "kind": spec.kind,
                        "max": float(values[0]), "min": float(values[-1]),
                        "count": int(values.size)})

    delta_op = operator_drift(model)

    def bound(kind, m):
        return zeta_bound(m, d, consts["delta"], consts["loss_bound"][kind],
                          consts["omega"], consts["kappa"][kind], chi, delta_op,
                          nu, layer_count)

    bounds, kappa_thetas = {}, {}
    for kind in ("D", "A", "I"):
        kappa_thetas[kind] = network_lipschitz(chi, consts["kappa"][kind], delta_op,
                                               nu, layer_count)
        b = bound(kind, consts["m"][kind])
        bounds[kind] = {"m": consts["m"][kind], "dudley": b.dudley,
                        "concentration": b.concentration, "zeta": b.zeta}

    if m_grid is None:
        m_grid = [10, 30, 100, 300, 1000, 1500, 2000, 3000]
    zeta_vs_m = []
    for m in m_grid:
        row = {"m": m}
        for kind in ("D", "A", "I"):
            b = bound(kind, m)
            row[f"dudley_{kind}"] = b.dudley
            row[f"zeta_{kind}"] = b.zeta
        zeta_vs_m.append(row)

    return {
        "operator_convention": "circular-padding circulant spectra "
                               "(training uses zero padding)",
        "chi": chi,
        "nu": nu,
        "layer_count": layer_count,
        "parameter_count": d,
        "spectra": spectra,
        "delta_op": delta_op,
        "kappa_theta": kappa_thetas,
        "zeta": bounds,
        "constants": consts,
        "zeta_vs_m": zeta_vs_m,
    }
