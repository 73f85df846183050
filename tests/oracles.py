"""Independent reference implementations used to check the package.

Everything here is deliberately naive: finite differences for gradients,
quadruple loops for convolution, dense circulant matrices and a full-grid
FFT for operator spectra, pair counting for AUROC, and direct
transcriptions of the closed-form bound expressions.  These were written
and frozen before being compared against the package, and must stay
independent of it.  The one
exception is `standardize_tape`: it is built from the package's elementary
tape ops on purpose, as the chain-rule reference for the fused op.
"""

import math

import numpy as np

from dde.tensor import Tensor


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def conv2d_naive(x, w, stride=1, padding=0):
    """Zero-padded valid convolution (really cross-correlation), loops only."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    single = x.ndim == 3
    if single:
        x = x[None]
    b, cin, h, wd = x.shape
    cout, cin2, kh, kw = w.shape
    assert cin == cin2
    xp = np.zeros((b, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((b, cout, ho, wo))
    for n in range(b):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (xp[n, ci, i * stride + u, j * stride + v]
                                        * w[co, ci, u, v])
                    out[n, co, i, j] = acc
    return out[0] if single else out


def conv2d_input_grad_addat(g, w, x_shape, stride=1, padding=0):
    """Input gradient of the im2col conv2d: the (B, P, Cin*k*k) column
    gradient scattered back with one np.add.at per kernel tap (i, j)."""
    g = np.asarray(g, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    single = len(x_shape) == 3
    gd = g[None] if single else g
    b, cin, h, wd = (1, *x_shape) if single else x_shape
    cout, _, kh, kw = w.shape
    ho, wo = gd.shape[2], gd.shape[3]
    gcols = gd.reshape(b, cout, ho * wo).transpose(0, 2, 1)
    gwin = (gcols @ w.reshape(cout, -1)).reshape(b, ho, wo, cin, kh, kw)
    gxp = np.zeros((b, cin, h + 2 * padding, wd + 2 * padding))
    hs = np.arange(ho) * stride
    ws = np.arange(wo) * stride
    for i in range(kh):
        for j in range(kw):
            np.add.at(gxp, (slice(None), slice(None),
                            hs[:, None] + i, ws[None, :] + j),
                      gwin[:, :, :, :, i, j].transpose(0, 3, 1, 2))
    gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return gx[0] if single else gx


def standardize_tape(w, gain):
    """Scaled weight standardization built from elementary tape ops, so its
    gradient is the tape's own chain rule: gain * (w - mean) / denom with
    denom = std * sqrt(fan_in) + 1e-6 [std < 1e-12], means over fan-in."""
    axes = tuple(range(1, w.data.ndim))
    alpha = int(np.prod([w.data.shape[a] for a in axes]))
    mu = w
    for a in axes:
        mu = mu.mean(axis=a, keepdims=True)
    centered = w - mu
    var = centered * centered
    for a in axes:
        var = var.mean(axis=a, keepdims=True)
    std = (var + 1e-24).sqrt()
    stab = (std.data < 1e-12) * 1e-6
    denom = std * math.sqrt(alpha) + Tensor(stab)
    return centered * (gain / denom)


def epoch_batches_inline(rng, dataset, train_idx, factors, batch_size, latent_dim):
    """One epoch of the batch loop as train_teacher and distill ran it
    inline: a permutation and one pair pick per sample and factor, then per
    batch and factor one (b, latent_dim) normal draw, as distill's eps.
    Returns [(xs, {factor: (ia, ib, eps)})]."""
    out = []
    perm = rng.permutation(len(train_idx))
    pair_pick = {f: rng.integers(len(dataset.pair_sets[f].pairs),
                                 size=len(train_idx))
                 for f in factors}
    for start in range(0, len(perm), batch_size):
        pos = perm[start:start + batch_size]
        xs = np.array([train_idx[p] for p in pos])
        got = {}
        for f in factors:
            pairs = dataset.pair_sets[f].pairs
            pi = [pairs[pair_pick[f][p]] for p in pos]
            ia = np.array([p[0] for p in pi])
            ib = np.array([p[1] for p in pi])
            got[f] = (ia, ib, rng.normal((len(xs), latent_dim)))
        out.append((xs, got))
    return out


def dual_step_per_kind(lambdas, rates, hinges):
    """Projected dual ascent as it ran on per-kind tables: the
    {("A"|"I", f): v} inputs are split into lambda_a, lambda_i, eta_a and
    eta_i dicts keyed by factor, and each hinge updates its kind's dict.
    Returns (lambda_a, lambda_i)."""
    la = {f: v for (k, f), v in lambdas.items() if k == "A"}
    li = {f: v for (k, f), v in lambdas.items() if k == "I"}
    eta_a = {f: v for (k, f), v in rates.items() if k == "A"}
    eta_i = {f: v for (k, f), v in rates.items() if k == "I"}
    for (kind, f), h in hinges.items():
        if kind == "A":
            la[f] = max(la[f] + eta_a[f] * h, 0.0)
        else:
            li[f] = max(li[f] + eta_i[f] * h, 0.0)
    return la, li


def circulant_conv_matrix(w, spatial):
    """Dense matrix of the stride-1 circular-padding convolution operator.

    Maps a flattened (C_in, H, W) input to a flattened (C_out, H, W) output;
    the kernel taps wrap around the image borders.
    """
    w = np.asarray(w, dtype=np.float64)
    cout, cin, kh, kw = w.shape
    h, wd = spatial
    mat = np.zeros((cout * h * wd, cin * h * wd))
    for co in range(cout):
        for i in range(h):
            for j in range(wd):
                row = (co * h + i) * wd + j
                for ci in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            ii = (i + u) % h
                            jj = (j + v) % wd
                            col = (ci * h + ii) * wd + jj
                            mat[row, col] += w[co, ci, u, v]
    return mat


def conv_singular_values_fft(w, spatial):
    """All circulant-operator singular values, descending, as the package
    computed them before its distinct-frequency DFT: taps folded modulo the
    grid, a full fft2, and one SVD per frequency."""
    w = np.asarray(w, dtype=np.float64)
    h, wd = spatial
    kh, kw = w.shape[2], w.shape[3]
    if kh > h or kw > wd:
        folded = np.zeros(w.shape[:2] + (h, wd))
        ii, jj = np.meshgrid(np.arange(kh) % h, np.arange(kw) % wd, indexing="ij")
        np.add.at(folded, (slice(None), slice(None), ii, jj), w)
        w = folded
    coeffs = np.fft.fft2(w, s=(h, wd), axes=(2, 3)).transpose(2, 3, 0, 1)
    return np.sort(np.linalg.svd(coeffs, compute_uv=False).ravel())[::-1]


def symmetric_kl_distill(mu_t, lv_t, mu_s, lv_s):
    """(1/2N) sum_j [(v_t + dmu^2)/v_s + (v_s + dmu^2)/v_t - 2]."""
    mu_t, lv_t = np.asarray(mu_t, float), np.asarray(lv_t, float)
    mu_s, lv_s = np.asarray(mu_s, float), np.asarray(lv_s, float)
    vt, vs = np.exp(lv_t), np.exp(lv_s)
    d2 = (mu_t - mu_s) ** 2
    n = mu_t.shape[-1]
    return ((vt + d2) / vs + (vs + d2) / vt - 2.0).sum(-1) / (2.0 * n)


def mutual_info_closed(a, mu, lv):
    """-1/2 [ln sigma^2 + (a - mu)^2 / sigma^2] elementwise."""
    a, mu, lv = np.asarray(a, float), np.asarray(mu, float), np.asarray(lv, float)
    return -0.5 * (lv + (a - mu) ** 2 / np.exp(lv))


def kappa_theta_closed(chi, kappa, delta_op, nu, layers):
    return chi * kappa * delta_op * (1.0 + nu + delta_op / layers) ** layers


def zeta_closed(m, d, delta, loss_bound, omega, kappa, chi, delta_op, nu, layers):
    dudley = (2.0 * chi * kappa * delta_op
              * (1.0 + nu + delta_op / layers) ** layers
              * math.sqrt(8.7 * d / m))
    conc = (loss_bound + 2.0 * kappa * omega * m) * math.sqrt(math.log(1.0 / delta) / (2.0 * m))
    return dudley, conc, dudley + conc


def auroc_paircount(scores, labels):
    """Fraction of (ID, OOD) pairs where the ID score is higher; ties 1/2."""
    scores = list(map(float, scores))
    ids = [s for s, l in zip(scores, labels) if l]
    oods = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for si in ids:
        for so in oods:
            total += 1.0 if si > so else (0.5 if si == so else 0.0)
    return total / (len(ids) * len(oods))


def gaussian_mixture_loglik(z, weights, means, variances):
    """Direct (non-logsumexp) diagonal GMM log density."""
    z = np.asarray(z, float)
    dens = 0.0
    for w, m, v in zip(weights, means, variances):
        dens += w * np.prod(np.exp(-0.5 * (z - m) ** 2 / v) / np.sqrt(2 * np.pi * v))
    return math.log(dens)


def loglik_loop(reasoner, pts):
    """Mixture log-likelihood, one Python call per point (the per-sample
    form that ood._loglik vectorizes)."""
    out = []
    for z in np.asarray(pts, dtype=np.float64):
        diff = z[None, :] - reasoner.means
        log_comp = (np.log(reasoner.weights)
                    - 0.5 * (np.log(2 * np.pi * reasoner.variances)
                             + diff ** 2 / reasoner.variances).sum(axis=1))
        mx = log_comp.max()
        out.append(float(mx + np.log(np.exp(log_comp - mx).sum())))
    return np.array(out)


def adam_reference(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam trajectory for a scalar parameter."""
    x, m, v = float(x0), 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        x -= lr * mh / (math.sqrt(vh) + eps)
        out.append(x)
    return out
