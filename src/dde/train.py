"""Teacher pre-training and the primal-dual distillation loop.

The distillation loop follows the batched primal-dual recipe: per batch
element, a bounded distillation loss plus per-factor hinged adaptability and
isolation losses weighted by dual variables; Adam on the batch mean for the
primal step, then a projected ascent step on each dual variable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, Rng, AdamState, adam_step, grad, NumericError
from .data import FactorDataset, ConfigError
from .encoder import (EncoderModel, GaussianLatent, build_teacher, compress,
                      encode, encode_batched, sample, clip_norms as _clip_model)
from .losses import distill_loss, adapt_loss, isolation_loss, bounded, hinge


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss); message carries the epoch index."""


def dual_step(lambdas: dict, rates: dict, hinges: dict) -> dict:
    """Projected dual ascent, lambda' = max(lambda + eta * h, 0), at each
    ("A"|"I", factor) key of `hinges`, the batch-mean hinged losses; the
    other keys of `lambdas` keep their value."""
    if any(h < 0 for h in hinges.values()):
        raise ConfigError("hinged losses must be >= 0")
    return lambdas | {k: max(lambdas[k] + rates[k] * h, 0.0) for k, h in hinges.items()}


@dataclass
class TrainConfig:
    batch_size: int = 16
    lr: float = 1e-5            # primal (distillation) rate
    epochs: int = 50
    seed: int = 0
    ratio: float = 0.5
    margins: dict | None = None         # ("A"|"I", factor) -> gamma
    dual_init: dict | None = None       # ("A"|"I", factor) -> lambda^0
    dual_rates: dict | None = None      # ("A"|"I", factor) -> eta
    spectral_clip_enabled: bool = False
    spectral_clip_theta: float = 1.0
    early_stop_hinge: float = 1e-4
    early_stop_dloss: float = 1e-5
    early_stop_patience: int = 3

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.lr <= 0:
            raise ConfigError("learning rate must be > 0")


# Desk-scale defaults mirroring the two-factor schema: tight margins and
# aggressive dual rates on the pattern factor, looser on the overlay factor.
# Each maps factor -> the default of its A and I entries alike; a factor
# not listed takes the fallback that `_resolve_duals` gives its table.
DEFAULT_MARGINS = {"haze": 0.1, "backdrop": 0.0001}
DEFAULT_DUAL_INIT = {"haze": 2.0, "backdrop": 10.0}
DEFAULT_DUAL_RATES = {"haze": 0.05, "backdrop": 0.5}


def _resolve_duals(config: TrainConfig, factors):
    """(margins, lambdas, rates), each {("A"|"I", factor): value} over
    `factors`: each entry that the config gives overrides that default.
    Naming a factor that the dataset does not have, or a negative value, is
    a ConfigError."""
    out = []
    for what, given, defaults, fallback in (
            ("margins", config.margins, DEFAULT_MARGINS, 0.1),
            ("dual_init", config.dual_init, DEFAULT_DUAL_INIT, 1.0),
            ("dual_rates", config.dual_rates, DEFAULT_DUAL_RATES, 0.05)):
        given = given or {}
        for (kind, f), v in given.items():
            if f not in factors:
                raise ConfigError(f"distill.{what} names factor '{f}', "
                                  "which the dataset does not have")
            if v < 0:
                raise ConfigError(f"distill.{what}[{kind}][{f}] must be >= 0")
        out.append({(kind, f): given.get((kind, f), defaults.get(f, fallback))
                    for f in factors for kind in "AI"})
    return tuple(out)


@dataclass
class DualTrace:
    factors: list
    records: list = field(default_factory=list)     # one dict per epoch
    # one dict per batch: epoch, L_D, hinges, lambda_before, lambda_after
    batch_records: list = field(default_factory=list)

    def to_csv(self, path: str, meta: dict | None = None) -> None:
        cols = ["epoch", "L_D"]
        for f in self.factors:
            cols += [f"hinge_A_{f}", f"hinge_I_{f}"]
        for f in self.factors:
            cols += [f"lambda_A_{f}", f"lambda_I_{f}"]
        extra = {k: str(v) for k, v in (meta or {}).items()}
        cols += list(extra)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for rec in self.records:
                row = {c: repr(rec[c]) if isinstance(rec[c], float) else rec[c]
                       for c in cols if c in rec}
                writer.writerow(row | extra)


def _pair_factors(dataset: FactorDataset) -> list:
    """The dataset's factor names; every factor needs a pair set."""
    factors = [s.name for s in dataset.specs]
    for f in factors:
        if f not in dataset.pair_sets:
            raise ConfigError(f"dataset has no pair set for factor '{f}'")
    return factors


def _epoch_batches(rng: Rng, dataset: FactorDataset, train_idx, factors,
                   batch_size: int):
    """One epoch of (xs, {factor: (ia, ib)}) batches: xs are the batch's
    train images and (ia[j], ib[j]) one random match pair per image.  The
    permutation and every pair pick are drawn before the first batch."""
    perm = rng.permutation(len(train_idx))
    pair_pick = {f: rng.integers(len(dataset.pair_sets[f].pairs),
                                 size=len(train_idx))
                 for f in factors}
    for start in range(0, len(perm), batch_size):
        pos = perm[start:start + batch_size]
        pairs = {}
        for f in factors:
            pi = [dataset.pair_sets[f].pairs[pair_pick[f][p]] for p in pos]
            pairs[f] = (np.array([p[0] for p in pi]), np.array([p[1] for p in pi]))
        yield np.array([train_idx[p] for p in pos]), pairs


def _cache_teacher_latents(teacher: EncoderModel, images: np.ndarray, indices):
    """Teacher is frozen, so encode each needed image exactly once."""
    idx = sorted(set(indices))
    mu = np.zeros((len(images), teacher.latent_dim))
    lv = np.zeros_like(mu)
    mu[idx], lv[idx] = encode_batched(teacher, images[idx])
    return mu, lv


def distill(teacher: EncoderModel, dataset: FactorDataset, config: TrainConfig):
    """Primal-dual distillation of a student, compressed from the frozen
    teacher at config.ratio.  Returns (student, DualTrace)."""
    factors = _pair_factors(dataset)
    teacher.check_fit(dataset)
    teacher.freeze()
    student = compress(teacher, config.ratio, seed=config.seed + 1)

    margins, lambdas, rates = _resolve_duals(config, factors)
    rng = Rng(config.seed)
    train_idx = dataset.indices("train")
    images = dataset.images
    n = student.latent_dim
    rep = student.rep_dims

    needed = list(train_idx)
    for f in factors:
        for i, j in dataset.pair_sets[f].pairs:
            needed += [i, j]
    t_mu, t_lv = _cache_teacher_latents(teacher, images, needed)

    params = student.trainable()
    adam = AdamState()
    trace = DualTrace(factors)

    for epoch in range(config.epochs):
        first = len(trace.batch_records)
        for xs, pairs in _epoch_batches(rng, dataset, train_idx, factors,
                                        config.batch_size):
            b = len(xs)

            try:
                s_lat = encode(student, images[xs])
                t_lat = _const_latent(t_mu[xs], t_lv[xs])
                ld = bounded(distill_loss(t_lat, s_lat), "D")        # (b,)
                total = ld
                hinges = {}
                for f in factors:
                    ia, ib = pairs[f]
                    # one epsilon per pair, shared across (x, x')
                    eps = rng.normal((b, n))
                    a = sample(_const_latent(t_mu[ia], t_lv[ia]), eps=eps)
                    a2 = sample(_const_latent(t_mu[ib], t_lv[ib]), eps=eps)
                    sl = encode(student, images[ia])
                    sl2 = encode(student, images[ib])
                    h_a = hinge(bounded(adapt_loss(a, sl, a2, sl2, rep[f]), "A"),
                                margins[("A", f)])
                    h_i = hinge(bounded(isolation_loss(a, sl, a2, sl2, rep[f], n), "I"),
                                margins[("I", f)])
                    total = total + lambdas[("A", f)] * h_a + lambdas[("I", f)] * h_i
                    hinges[("A", f)] = float(h_a.data.mean())
                    hinges[("I", f)] = float(h_i.data.mean())
                root = total.mean()
                grads = grad(root, params)
                adam_step(params, grads, adam, config.lr)
            except NumericError as e:
                raise TrainingError(f"non-finite loss at epoch {epoch}: {e}") from e

            before, lambdas = lambdas, dual_step(lambdas, rates, hinges)
            if config.spectral_clip_enabled:
                _clip_model(student, config.spectral_clip_theta)
            trace.batch_records.append({
                "epoch": epoch, "L_D": float(ld.data.mean()), "hinges": hinges,
                "lambda_before": before, "lambda_after": lambdas})

        batches = trace.batch_records[first:]
        rec = {"epoch": epoch, "L_D": float(np.mean([br["L_D"] for br in batches]))}
        for kind, f in lambdas:
            rec[f"hinge_{kind}_{f}"] = float(np.mean([br["hinges"][(kind, f)]
                                                      for br in batches]))
            rec[f"lambda_{kind}_{f}"] = lambdas[(kind, f)]
        trace.records.append(rec)

        hinges_ok = all(rec[f"hinge_{kind}_{f}"] < config.early_stop_hinge
                        for kind, f in lambdas)
        if hinges_ok and len(trace.records) > config.early_stop_patience:
            window = [r["L_D"] for r in trace.records[-(config.early_stop_patience + 1):]]
            if max(window) - min(window) < config.early_stop_dloss:
                break

    return student, trace


def _const_latent(mu: np.ndarray, lv: np.ndarray):
    return GaussianLatent(Tensor(mu), Tensor(lv))


# ---------------------------------------------------------------------------
# Teacher pre-training: VAE objective plus weak pair alignment so that each
# factor's representative dims react to that factor and other dims do not.
# ---------------------------------------------------------------------------

@dataclass
class TeacherConfig:
    arch: dict = field(default_factory=dict)    # forwarded to build_teacher
    epochs: int = 100
    batch_size: int = 16
    lr: float = 1e-3
    seed: int = 0
    decoder_hidden: int = 128
    kl_weight: float = 0.005
    recon_weight: float = 1.0
    align_penalty: float = 2.0
    align_reward: float = 0.5


def _init_linear(rng: Rng, n_out: int, n_in: int):
    limit = np.sqrt(3.0 / n_in)
    return (Tensor(rng.uniform(-limit, limit, (n_out, n_in)), requires_grad=True),
            Tensor(np.zeros(n_out), requires_grad=True))


def train_teacher(dataset: FactorDataset, config: TeacherConfig) -> EncoderModel:
    """Train a partially disentangled teacher and return its encoder.

    Objective: reconstruction + KL to a standard normal, plus per-factor
    alignment on match pairs (penalize mean-shift outside the factor's
    representative dims, reward it inside).
    """
    factors = _pair_factors(dataset)
    arch = dict(config.arch)
    arch.setdefault("seed", config.seed)
    model = build_teacher(arch)
    model.check_fit(dataset)
    rng = Rng(config.seed + 7919)
    c, h, w = model.input_shape
    pix = c * h * w
    n = model.latent_dim

    dw1, db1 = _init_linear(rng, config.decoder_hidden, n)
    dw2, db2 = _init_linear(rng, pix, config.decoder_hidden)
    dec = [dw1, db1, dw2, db2]

    params = model.trainable() + dec
    adam = AdamState()
    train_idx = dataset.indices("train")
    images = dataset.images

    for epoch in range(config.epochs):
        for xs, pairs in _epoch_batches(rng, dataset, train_idx, factors,
                                        config.batch_size):
            b = len(xs)
            try:
                lat = encode(model, images[xs])
                eps = Tensor(rng.normal((b, n)))
                z = lat.mu + eps * (lat.logvar * 0.5).exp()
                hid = (z @ dw1.T + db1).leaky_relu(0.2)
                recon = hid @ dw2.T + db2
                target = images[xs].reshape(b, -1)
                mse = ((recon - Tensor(target)) ** 2).mean()
                v = lat.logvar.exp()
                kl = ((lat.mu ** 2 + v - 1.0 - lat.logvar).sum(axis=-1) * 0.5).mean()
                loss = config.recon_weight * mse + config.kl_weight * kl

                for f in factors:
                    ia, ib = pairs[f]
                    la = encode(model, images[ia])
                    lb = encode(model, images[ib])
                    dmu = la.mu - lb.mu
                    zf = model.rep_dims[f]
                    comp = [k for k in range(n) if k not in set(zf)]
                    pen = (dmu.take(comp, axis=-1) ** 2).mean()
                    rew = dmu.take(zf, axis=-1).abs().mean()
                    loss = loss + config.align_penalty * pen - config.align_reward * rew
                grads = grad(loss, params)
                adam_step(params, grads, adam, config.lr)
            except NumericError as e:
                raise TrainingError(f"teacher diverged at epoch {epoch}: {e}") from e

    return model
