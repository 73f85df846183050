"""Evaluation protocol: fit per-factor reasoners on the calibration split,
score held-out test samples (equal ID/OOD counts), and benchmark single-image
inference latency.
"""

from __future__ import annotations

import time

import numpy as np

from .data import FactorDataset
from .encoder import EncoderModel, encode, encode_batched
from .tensor import Tensor
from . import ood


def fit_reasoners(model: EncoderModel, dataset: FactorDataset,
                  percentile: float = 5.0, seed: int = 0) -> dict:
    """One reasoner per factor, fit on the calibration split restricted to
    that factor's representative dims; k is the number of factor values
    seen in training."""
    cal = dataset.indices("calibration")
    mu, _ = encode_batched(model, dataset.images[cal])
    reasoners = {}
    for spec in dataset.specs:
        dims = model.rep_dims[spec.name]
        reasoners[spec.name] = ood.fit(mu[:, dims], len(spec.train_values),
                                       percentile=percentile, seed=seed,
                                       factor=spec.name, dims=dims)
    return reasoners


def scoring_set(dataset: FactorDataset, factor: str):
    """Test indices for one factor's reasoner: ID samples have all factors
    in-train; OOD samples are out-of-train in this factor only.  The larger
    side is truncated deterministically so counts are equal."""
    spec = dataset.spec(factor)
    others = [s for s in dataset.specs if s.name != factor]
    id_idx, ood_idx = [], []
    for i in dataset.indices("test"):
        vals = dataset.factors[i]
        if any(vals[o.name] not in o.train_values for o in others):
            continue
        (id_idx if vals[factor] in spec.train_values else ood_idx).append(i)
    m = min(len(id_idx), len(ood_idx))
    return id_idx[:m], ood_idx[:m]


def factor_aurocs(model: EncoderModel, dataset: FactorDataset,
                  reasoners: dict) -> dict:
    """AUROC of each factor's reasoner (from fit_reasoners) on its balanced
    ID/OOD test set."""
    out = {}
    for spec in dataset.specs:
        f = spec.name
        id_idx, ood_idx = scoring_set(dataset, f)
        idx = id_idx + ood_idx
        # encoded per factor, in the batches this subset always used: a
        # different batch composition changes the last bits of mu
        mu, _ = encode_batched(model, dataset.images[idx])
        scores = ood._loglik(reasoners[f], mu[:, model.rep_dims[f]])
        labels = [True] * len(id_idx) + [False] * len(ood_idx)
        out[f] = ood.auroc(scores, labels)
    return out


def latency_benchmark(model: EncoderModel, images: np.ndarray,
                      runs: int = 1000) -> dict:
    """Single-image CPU inference latency over `runs` encodes (preprocessing
    from the stored byte image included, dataset load excluded)."""
    byte_imgs = [np.round(img * 255.0).astype(np.uint8) for img in images]
    times = []
    for r in range(runs):
        raw = byte_imgs[r % len(byte_imgs)]
        t0 = time.perf_counter()
        x = Tensor(raw.astype(np.float64) / 255.0)
        encode(model, x)
        times.append(time.perf_counter() - t0)
    times = np.array(times)
    return {
        "runs": runs,
        "mean_ms": float(times.mean() * 1e3),
        "p50_ms": float(np.percentile(times, 50) * 1e3),
        "p90_ms": float(np.percentile(times, 90) * 1e3),
        "p99_ms": float(np.percentile(times, 99) * 1e3),
    }


def evaluate_models(teacher: EncoderModel, student: EncoderModel,
                    dataset: FactorDataset, percentile: float = 5.0,
                    seed: int = 0, bench_runs: int = 1000) -> dict:
    bench_imgs = dataset.images[dataset.indices("test")[:32]]
    models = {"teacher": teacher, "student": student}
    fits = {who: fit_reasoners(m, dataset, percentile, seed)
            for who, m in models.items()}
    return {
        "auroc": {who: factor_aurocs(m, dataset, fits[who])
                  for who, m in models.items()},
        "model_bytes": {who: m.parameter_bytes() for who, m in models.items()},
        "reasoners": {who: {f: r.to_dict() for f, r in fits[who].items()}
                      for who in models},
        "timing": {who: latency_benchmark(m, bench_imgs, bench_runs)
                   for who, m in models.items()},
    }
