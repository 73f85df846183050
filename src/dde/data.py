"""Synthetic multi-factor image dataset: generation, partitioning, match
pairing, and the on-disk manifest + PPM format.

Each image is a backdrop pattern blended toward white by a haze intensity,
plus per-sample pixel noise.  Samples are partitioned by their factor value
combination; pair sets hold sample pairs whose partitions differ in exactly
one factor.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .tensor import Rng


class ConfigError(ValueError):
    """Invalid generation or factor configuration."""


class FactorError(ValueError):
    """No qualifying partitions / invalid factor reference."""


class ParseError(ValueError):
    """Malformed dataset manifest or image file."""


RENDER_ROLES = ("overlay-intensity", "background-pattern")


@dataclass(frozen=True)
class FactorSpec:
    name: str
    observed_values: tuple          # every value that can appear, ordered
    train_values: tuple             # subset seen in train/calibration
    render: str                     # "overlay-intensity" | "background-pattern"

    def __post_init__(self):
        if len(self.observed_values) < 2:
            raise ConfigError(f"factor '{self.name}' needs >=2 observed values")
        if len(self.train_values) < 2:
            raise ConfigError(f"factor '{self.name}' needs >=2 train values")
        if not set(self.train_values) <= set(self.observed_values):
            raise ConfigError(f"factor '{self.name}': train values not observed")
        if self.render not in RENDER_ROLES:
            raise ConfigError(f"factor '{self.name}': unknown render role '{self.render}'")
        if self.render == "overlay-intensity" and not all(
                isinstance(v, (int, float)) for v in self.observed_values):
            raise ConfigError(f"factor '{self.name}': an intensity must be a number")


@dataclass
class Partition:
    id: str
    assignment: dict                # factor name -> value
    indices: list


@dataclass
class PairSet:
    factor: str
    pairs: list                     # [(sample_idx, sample_idx), ...]


@dataclass
class FactorDataset:
    specs: list
    images: np.ndarray              # (M, 3, H, W) float64, values k/255
    factors: list                   # per-sample dict factor -> value
    splits: list                    # per-sample "train" | "calibration" | "test"
    partition_ids: list             # per-sample partition id
    pair_sets: dict = field(default_factory=dict)   # factor -> PairSet
    seed: int = 0

    def indices(self, split: str) -> list:
        return [i for i, s in enumerate(self.splits) if s == split]

    def spec(self, name: str) -> FactorSpec:
        for s in self.specs:
            if s.name == name:
                return s
        raise FactorError(f"unknown factor '{name}'")

    def __eq__(self, other):
        if not isinstance(other, FactorDataset):
            return NotImplemented
        return (self.specs == other.specs
                and np.array_equal(self.images, other.images)
                and self.factors == other.factors
                and self.splits == other.splits
                and self.partition_ids == other.partition_ids
                and {f: ps.pairs for f, ps in self.pair_sets.items()}
                == {f: ps.pairs for f, ps in other.pair_sets.items()}
                and self.seed == other.seed)


def default_factor_specs() -> list:
    """Two factors: a haze overlay (two held-out intensities) and a backdrop
    pattern (one held-out pattern)."""
    return [
        FactorSpec("haze", (0.0, 0.25, 0.5, 0.75), (0.25, 0.5), "overlay-intensity"),
        FactorSpec("backdrop", ("stripes", "checker", "gradient"),
                   ("stripes", "checker"), "background-pattern"),
    ]


def _backdrop(pattern, h: int, w: int) -> np.ndarray:
    ys, xs = np.mgrid[0:h, 0:w]
    if pattern == "stripes":
        base = np.where((ys // 2) % 2 == 0, 0.7, 0.2)
    elif pattern == "checker":
        base = np.where(((ys // 4) + (xs // 4)) % 2 == 0, 0.6, 0.3)
    elif pattern == "gradient":
        base = 0.2 + 0.4 * xs / max(w - 1, 1)
    else:
        raise ConfigError(f"unknown backdrop pattern '{pattern}'")
    # slight per-channel tint so color carries pattern information too
    tints = np.array([0.9, 1.0, 1.1])[:, None, None]
    return np.clip(base[None] * tints, 0.0, 0.95)


def _render(assignment: dict, specs, h: int, w: int, noise: np.ndarray) -> np.ndarray:
    base = np.full((3, h, w), 0.5)
    haze = 0.0
    for s in specs:
        v = assignment[s.name]
        if s.render == "background-pattern":
            base = _backdrop(v, h, w)
        else:
            haze = float(v)
    img = (1.0 - haze) * (base + noise) + haze
    # quantize to the PPM grid so save/load round-trips bit-exactly
    return np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


def _combos(specs):
    combos = [{}]
    for s in specs:
        combos = [dict(c, **{s.name: v}) for c in combos for v in s.observed_values]
    return combos


def _is_train_combo(assignment, specs) -> bool:
    return all(assignment[s.name] in s.train_values for s in specs)


def _partition_id(assignment, specs) -> str:
    return "|".join(f"{s.name}={assignment[s.name]}" for s in specs)


DEFAULT_COUNTS = {"train": 50, "calibration": 25, "test": 25}


def generate(specs, counts: dict | None = None, image_size=(32, 32), seed: int = 0,
             noise: float = 0.04) -> FactorDataset:
    """Build the dataset: every factor combination gets a test block; the
    all-train combinations also get train and calibration blocks.

    counts: {"train": n, "calibration": n, "test": n} samples per partition;
    a split that it leaves out takes its DEFAULT_COUNTS entry.
    noise scales the per-pixel Gaussian perturbation (task difficulty knob).
    Deterministic per seed; per-sample noise comes from (seed, sample index).
    """
    if noise < 0:
        raise ConfigError("noise level must be >= 0")
    h, w = image_size
    if h < 16 or w < 16:
        raise ConfigError("image size must be at least 16x16")
    counts = {**DEFAULT_COUNTS, **(counts or {})}
    for key, n in counts.items():
        if n < 1:
            raise ConfigError(f"counts['{key}'] must be >= 1")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError("factor names must be unique")

    rng = Rng(seed)
    images, factors, splits, pids = [], [], [], []
    idx = 0
    for combo in _combos(specs):
        blocks = [("test", counts["test"])]
        if _is_train_combo(combo, specs):
            blocks = [("train", counts["train"]),
                      ("calibration", counts["calibration"])] + blocks
        for split, n in blocks:
            for _ in range(n):
                perturb = rng.child(idx).normal((3, h, w)) * noise
                images.append(_render(combo, specs, h, w, perturb))
                factors.append(dict(combo))
                splits.append(split)
                pids.append(_partition_id(combo, specs))
                idx += 1

    return FactorDataset(list(specs), np.stack(images), factors, splits, pids, seed=seed)


def partition(dataset: FactorDataset) -> list:
    """Partition the train split by factor value combination."""
    groups: dict = {}
    for i in dataset.indices("train"):
        assignment = {s.name: dataset.factors[i][s.name] for s in dataset.specs}
        pid = _partition_id(assignment, dataset.specs)
        groups.setdefault(pid, (assignment, []))[1].append(i)
    return [Partition(pid, a, ix) for pid, (a, ix) in sorted(groups.items())]


def build_pairs(partitions, factor: str, count: int, seed: int = 0) -> PairSet:
    """Sample `count` pairs (with replacement) from partition pairs that
    differ only in `factor`."""
    qualifying = []
    for p in partitions:
        for q in partitions:
            if p.id == q.id:
                continue
            diff = [k for k in p.assignment if p.assignment[k] != q.assignment[k]]
            if diff == [factor]:
                qualifying.append((p, q))
    if not qualifying:
        raise FactorError(f"no partition pairs differ only in '{factor}'")

    rng = Rng(seed)
    pairs = []
    for _ in range(count):
        p, q = qualifying[int(rng.integers(len(qualifying)))]
        i = p.indices[int(rng.integers(len(p.indices)))]
        j = q.indices[int(rng.integers(len(q.indices)))]
        pairs.append((i, j))
    return PairSet(factor, pairs)


def build_all_pairs(dataset: FactorDataset, count: int, seed: int = 0) -> None:
    """Populate dataset.pair_sets for every factor."""
    parts = partition(dataset)
    for k, s in enumerate(dataset.specs):
        dataset.pair_sets[s.name] = build_pairs(parts, s.name, count, seed=seed + k)


# ---------------------------------------------------------------------------
# On-disk format: manifest.json + one P6 PPM per sample.
# ---------------------------------------------------------------------------

def _write_ppm(path: str, img: np.ndarray) -> None:
    c, h, w = img.shape
    pix = np.round(img * 255.0).astype(np.uint8).transpose(1, 2, 0)  # HWC
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(pix.tobytes())


def _read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"P6":
            raise ParseError(f"{path}: not a P6 PPM")
        dims = f.readline().split()
        maxval = f.readline().strip()
        if len(dims) != 2 or maxval != b"255":
            raise ParseError(f"{path}: bad PPM header")
        try:
            w, h = int(dims[0]), int(dims[1])
        except ValueError:
            raise ParseError(f"{path}: bad PPM dims {dims!r}") from None
        raw = f.read(h * w * 3)
        if len(raw) != h * w * 3:
            raise ParseError(f"{path}: truncated pixel data")
    pix = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return pix.transpose(2, 0, 1).astype(np.float64) / 255.0


def save(dataset: FactorDataset, out_dir: str, meta: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    samples = []
    for i in range(len(dataset.images)):
        fname = f"sample_{i:06d}.ppm"
        _write_ppm(os.path.join(out_dir, fname), dataset.images[i])
        samples.append({
            "file": fname,
            "factors": dataset.factors[i],
            "split": dataset.splits[i],
            "partition": dataset.partition_ids[i],
        })
    manifest = {
        "seed": dataset.seed,
        "image_size": list(dataset.images.shape[2:]),
        "factor_specs": [{
            "name": s.name,
            "observed_values": list(s.observed_values),
            "train_values": list(s.train_values),
            "render": s.render,
        } for s in dataset.specs],
        "samples": samples,
        "pairs": {f: ps.pairs for f, ps in dataset.pair_sets.items()},
    }
    if meta:
        manifest["provenance"] = meta
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)


def _require(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise ParseError(f"manifest: missing field '{key}' in {ctx}")
    return obj[key]


def load(in_dir: str) -> FactorDataset:
    path = os.path.join(in_dir, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(f"manifest: invalid JSON at line {e.lineno}: {e.msg}") from e

    specs = []
    for s in _require(manifest, "factor_specs", "manifest"):
        specs.append(FactorSpec(
            _require(s, "name", "factor spec"),
            tuple(_require(s, "observed_values", "factor spec")),
            tuple(_require(s, "train_values", "factor spec")),
            _require(s, "render", "factor spec"),
        ))

    images, factors, splits, pids = [], [], [], []
    for rec in _require(manifest, "samples", "manifest"):
        images.append(_read_ppm(os.path.join(in_dir, _require(rec, "file", "sample"))))
        factors.append(_require(rec, "factors", "sample"))
        splits.append(_require(rec, "split", "sample"))
        pids.append(_require(rec, "partition", "sample"))

    ds = FactorDataset(specs, np.stack(images), factors, splits, pids,
                       seed=int(manifest.get("seed", 0)))
    for f, pairs in _require(manifest, "pairs", "manifest").items():
        pairs = [(int(a), int(b)) for a, b in pairs]
        bad = [i for pair in pairs for i in pair if not 0 <= i < len(images)]
        if bad:
            raise ParseError(f"manifest: pair index {bad[0]} of factor '{f}' "
                             f"is outside [0, {len(images)})")
        ds.pair_sets[f] = PairSet(f, pairs)
    return ds


def chi_of_dataset(dataset: FactorDataset) -> float:
    """Maximum flattened L2 norm over training samples."""
    idx = dataset.indices("train")
    if not idx:
        raise ConfigError("dataset has no training samples")
    return float(max(np.linalg.norm(dataset.images[i].ravel()) for i in idx))
