"""Gaussian encoder models: teacher/student architectures, ratio compression,
scaled weight standardization (batch-norm folding), latent heads,
reparameterized sampling, and the binary weight format.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
import zlib
from dataclasses import dataclass, asdict, replace

import numpy as np

from .tensor import Tensor, Rng, conv2d, ContractError
from .data import ConfigError
from .spectral import layer_norm

LOGVAR_BOUND = 4.0
DEFAULT_GAIN = 1.7
DEFAULT_SLOPE = 0.2
MAGIC = b"DDE1"


class CorruptWeightsError(RuntimeError):
    """Weight file failed its checksum, is truncated or has a bad header."""


@dataclass
class LayerSpec:
    """One layer.  A conv layer runs its kernel through scaled weight
    standardization; a linear layer (a latent head) runs it as it is."""
    kind: str                   # "conv" | "linear"
    in_width: int
    out_width: int
    k: int = 0
    stride: int = 1
    padding: int = 0
    slope: float = DEFAULT_SLOPE
    gain: float = DEFAULT_GAIN

    def __post_init__(self):
        if self.kind not in ("conv", "linear"):
            raise ConfigError(f"layer kind must be 'conv' or 'linear', got {self.kind!r}")
        least = {"in_width": 1, "out_width": 1} | (
            {"k": 1, "stride": 1, "padding": 0} if self.kind == "conv" else {})
        for name, low in least.items():
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < low:
                raise ConfigError(f"layer {name} must be an integer >= {low}, got {v!r}")
        if not (0 < self.gain < math.inf and math.isfinite(self.slope)):
            raise ConfigError("gain must be positive and finite, and slope finite")

    @property
    def weight_shape(self) -> tuple:
        if self.kind == "conv":
            return (self.out_width, self.in_width, self.k, self.k)
        return (self.out_width, self.in_width)

    def out_size(self, hw) -> tuple:
        """Output spatial size (H, W) of this layer on an input of size hw."""
        if self.kind != "conv":
            return (1, 1)
        return tuple((n + 2 * self.padding - self.k) // self.stride + 1 for n in hw)


@dataclass
class GaussianLatent:
    """Per-sample latent mean and log-variance (last axis is the latent dim)."""
    mu: Tensor
    logvar: Tensor


def _standardize_forward(w: np.ndarray, gain: float):
    """Scaled weight standardization of an array over its fan-in axes.

    Returns (out, centered, std, denom) with out = centered * (gain / denom).
    The op order (per-axis sum * (1/n), w + (-mu), gain / denom, then the
    product) is the order the tape ran before this was fused, so a given
    weight standardizes to the same bits.
    """
    axes = range(1, w.ndim)
    mu = w
    for a in axes:
        mu = mu.sum(axis=a, keepdims=True) * (1.0 / w.shape[a])
    centered = w + (-mu)
    var = centered * centered
    for a in axes:
        var = var.sum(axis=a, keepdims=True) * (1.0 / w.shape[a])
    std = np.sqrt(var + 1e-24)
    denom = std * math.sqrt(w[0].size) + (std < 1e-12) * 1e-6
    return centered * (gain / denom), centered, std, denom


def standardize(w: Tensor, gain: float) -> Tensor:
    """Scaled weight standardization over the fan-in dimensions.

    Returns gain * (W - mean) / (std * sqrt(fan_in)); a 1e-6 stabilizer is
    added to the denominator for degenerate (constant) filters.  One tape
    node with a closed-form backward, so gradients flow through the
    normalization.
    """
    axes = tuple(range(1, w.data.ndim))
    if not axes:
        raise ContractError("standardize expects a weight with >=1 input dim")
    out_d, centered, std, denom = _standardize_forward(w.data, gain)
    alpha = w.data[0].size

    def bw(g):
        # y = c * s with c = w - mean(w), s = gain / (sqrt(alpha) * std + stab)
        # and std = sqrt(mean(c^2) + 1e-24); the stabilizer is a constant
        scale = gain / denom
        g_scale = (g * centered).sum(axis=axes, keepdims=True)
        g_var = g_scale * (-scale / denom) * math.sqrt(alpha) * 0.5 / std
        g_c = g * scale + g_var * (2.0 / alpha) * centered
        return (g_c - g_c.mean(axis=axes, keepdims=True),)

    out = Tensor(out_d, _parents=(w,), _op="standardize")
    out._backward = bw
    return out


class EncoderModel:
    """Layer specs + weights for a teacher or student Gaussian encoder.

    The trunk is a stack of standardized conv layers with leaky-ReLU; the
    last two layers are parallel linear heads producing mu and logvar of
    size N.  An effective-kernel snapshot at initialization supports
    operator-drift tracking.  Without `params` the weights are drawn from
    `seed` and every layer's operator norm is bounded by 1 + slack; with
    them (a loaded model) `params` and `snapshot` are kept as they are.
    """

    def __init__(self, input_shape, layers, latent_dim, rep_dims,
                 init_norm_slack, seed=0, params=None, snapshot=None):
        self.input_shape = tuple(input_shape)
        self.layers = list(layers)
        self.latent_dim = int(latent_dim)
        self.rep_dims = {f: sorted(int(i) for i in ix) for f, ix in rep_dims.items()}
        self.init_norm_slack = float(init_norm_slack)
        self._validate()
        self.params, self.snapshot = params, snapshot
        if params is None:
            rng = Rng(seed)
            self.params = []
            for spec in self.layers:
                limit = math.sqrt(3.0 / math.prod(spec.weight_shape[1:]))
                self.params.append({
                    "w": Tensor(rng.uniform(-limit, limit, spec.weight_shape),
                                requires_grad=True),
                    "b": Tensor(np.zeros(spec.out_width), requires_grad=True)})
            clip_norms(self, 1.0 + self.init_norm_slack)
            self.snapshot = [self.effective_kernel(li) for li in range(len(self.layers))]

    # -- construction ----------------------------------------------------

    def _validate(self):
        """Chained conv layers, two heads to the latent, disjoint rep dims."""
        kinds = [s.kind for s in self.layers]
        if kinds != ["conv"] * (len(kinds) - 2) + ["linear"] * 2:
            raise ConfigError("an encoder is conv layers, then exactly two "
                              "linear heads (mu, logvar)")
        feat = math.prod(_trunk_output(self.input_shape, self.layers[:-2]))
        for li, spec in enumerate(self.layers[-2:], len(self.layers) - 2):
            if (spec.in_width, spec.out_width) != (feat, self.latent_dim):
                raise ConfigError(f"layer {li} maps {spec.in_width} to {spec.out_width}, but "
                                  f"a head maps the trunk's {feat} to {self.latent_dim}")
        seen = set()
        for f, ix in self.rep_dims.items():
            if not ix:
                raise ConfigError(f"factor '{f}' has no representative dims")
            s = set(ix)
            if not s <= set(range(self.latent_dim)):
                raise ConfigError(f"factor '{f}' representative dims out of range")
            if s & seen:
                raise ConfigError("representative dims must be disjoint across factors")
            seen |= s

    def check_fit(self, dataset) -> None:
        """The dataset's images must have the model's input shape, and each
        of its factors needs representative dims in the model."""
        shape = tuple(dataset.images.shape[1:])
        if shape != self.input_shape:
            raise ConfigError(f"dataset images have shape {shape}, but the model "
                              f"takes {self.input_shape}")
        for s in dataset.specs:
            if s.name not in self.rep_dims:
                raise ConfigError(f"model has no representative dims for the "
                                  f"dataset's factor '{s.name}'")

    def layer_spatial(self) -> list:
        """Input spatial size (H, W) seen by each layer."""
        hw = tuple(self.input_shape[1:])
        out = []
        for spec in self.layers:
            out.append(hw)
            hw = spec.out_size(hw)
        return out

    # -- accounting -------------------------------------------------------

    def parameter_count(self) -> int:
        return sum(p["w"].size + p["b"].size for p in self.params)

    def parameter_bytes(self) -> int:
        return self.parameter_count() * 8

    def trainable(self) -> list:
        out = []
        for p in self.params:
            out.extend([p["w"], p["b"]])
        return out

    # layer index -> (weight array, gain, folded kernel); None until frozen
    _folded = None

    @property
    def frozen(self) -> bool:
        return self._folded is not None

    def freeze(self) -> None:
        """Take the weights off the tape and make them read-only, so that
        each conv layer's standardized kernel is folded once and reused by
        every encode."""
        if self.frozen:
            return
        for t in self.trainable():
            t.requires_grad = False
            t.data.flags.writeable = False
        self._folded = {}

    def effective_kernel(self, li: int) -> np.ndarray:
        """The operator actually applied by layer li (standardized if conv).

        On a frozen model a conv kernel is standardized once and returned
        read-only; it is folded again if the weight array or the gain changed.
        """
        spec = self.layers[li]
        w = self.params[li]["w"].data
        if spec.kind != "conv":
            return w.copy()
        if not self.frozen:
            return _standardize_forward(w, spec.gain)[0]
        return self._folded_kernel(li).data

    def _folded_kernel(self, li: int) -> Tensor:
        # kept as a Tensor so that encode checks the kernel for non-finite
        # values once, when it is folded, not on every call
        spec = self.layers[li]
        w = self.params[li]["w"].data
        hit = self._folded.get(li)
        if hit is None or hit[0] is not w or hit[1] != spec.gain:
            eff = _standardize_forward(w, spec.gain)[0]
            eff.flags.writeable = False
            hit = self._folded[li] = (w, spec.gain, Tensor(eff))
        return hit[2]


def clip_norms(model: EncoderModel, theta: float) -> None:
    """Bound every layer's operator norm by theta, in place.  A conv layer's
    norm is linear in its gain (standardization is scale-invariant in W), so
    an oversized one is scaled down through the gain; a linear kernel has its
    singular values clipped at theta."""
    spatial = model.layer_spatial()
    for li, spec in enumerate(model.layers):
        if spec.kind == "conv":
            sn = layer_norm(spec, model.effective_kernel(li), spatial[li])
            if sn > theta:
                spec.gain *= theta / sn
            continue
        w = model.params[li]["w"]
        u, s, vt = np.linalg.svd(w.data, full_matrices=False)
        if s[0] > theta:
            w.data = (u * np.minimum(s, theta)) @ vt


# build_teacher's architecture; each key of its `config` overrides one entry
DEFAULT_ARCH = dict(
    input_shape=(3, 32, 32),
    widths=(32, 64, 128, 256, 512),
    kernel=3, stride=2, padding=1,
    latent_dim=30,
    rep_dims={"haze": [3], "backdrop": [6]},
    gain=DEFAULT_GAIN, slope=DEFAULT_SLOPE,
    seed=0, init_norm_slack=4898.0,
)


def _trunk_output(input_shape, trunk) -> tuple:
    """(C, H, W) of what the conv layers `trunk` make of an input of
    `input_shape`; a ConfigError names the first layer that does not fit."""
    if len(input_shape) != 3 or not all(isinstance(n, numbers.Integral) and n >= 1
                                        for n in input_shape):
        raise ConfigError(f"input_shape must be 3 integers >= 1, got {list(input_shape)}")
    c, *hw = input_shape
    for li, spec in enumerate(trunk):
        if spec.in_width != c:
            raise ConfigError(f"layer {li} takes {spec.in_width} channels, "
                              f"but its input has {c}")
        if min(spec.out_size(hw)) < 1:
            raise ConfigError(f"layer {li}: kernel {spec.k} is larger than its "
                              f"padded input {tuple(hw)} (padding {spec.padding})")
        c, hw = spec.out_width, spec.out_size(hw)
    return (c, *hw)


def _with_heads(input_shape, trunk, latent_dim, rep_dims, **kwargs) -> EncoderModel:
    """The encoder of the conv layers `trunk` plus mu and logvar linear
    heads from the flattened trunk output to `latent_dim`."""
    feat = math.prod(_trunk_output(input_shape, trunk))
    heads = [LayerSpec("linear", feat, latent_dim) for _ in ("mu", "logvar")]
    return EncoderModel(input_shape, trunk + heads, latent_dim, rep_dims, **kwargs)


def build_teacher(config: dict | None = None) -> EncoderModel:
    """Five standardized stride-2 conv layers (32..512 wide) plus mu/logvar
    linear heads, N=30 by default (DEFAULT_ARCH)."""
    for key in config or {}:
        if key not in DEFAULT_ARCH:
            raise ConfigError(f"unknown config key '{key}' in teacher.arch")
    cfg = {**DEFAULT_ARCH, **(config or {})}
    widths = [cfg["input_shape"][0], *(int(w) for w in cfg["widths"])]
    trunk = [LayerSpec("conv", cin, cout, k=cfg["kernel"], stride=cfg["stride"],
                       padding=cfg["padding"], slope=cfg["slope"], gain=cfg["gain"])
             for cin, cout in zip(widths, widths[1:])]
    return _with_heads(cfg["input_shape"], trunk, int(cfg["latent_dim"]),
                       cfg["rep_dims"], seed=cfg["seed"],
                       init_norm_slack=cfg["init_norm_slack"])


def compress(teacher: EncoderModel, r: float, seed: int = 1) -> EncoderModel:
    """Shrink each conv layer's width by ratio r, keeping the geometry, the
    latent size and the representative dims; fresh init and snapshot."""
    if not 0.1 <= r <= 0.9:
        raise ConfigError(f"compression ratio {r} outside [0.1, 0.9]")
    trunk = []
    for spec in teacher.layers[:-2]:
        cin = trunk[-1].out_width if trunk else teacher.input_shape[0]
        trunk.append(replace(
            spec, in_width=cin, out_width=max(1, math.ceil((1.0 - r) * spec.out_width))))
    return _with_heads(teacher.input_shape, trunk, teacher.latent_dim,
                       teacher.rep_dims, seed=seed,
                       init_norm_slack=teacher.init_norm_slack)


def encode(model: EncoderModel, x) -> GaussianLatent:
    """Pure function of (weights, x); logvar is smoothly bounded to
    [-LOGVAR_BOUND, LOGVAR_BOUND] via tanh.

    Accepts a Tensor or array of shape (C,H,W) or (B,C,H,W).  A frozen
    model runs its folded kernels; any other model differentiates through
    the standardization.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    batched = x.data.ndim == 4
    h = x if batched else x.reshape(1, *x.shape)
    for li, (spec, p) in enumerate(zip(model.layers[:-2], model.params)):
        w = model._folded_kernel(li) if model.frozen else standardize(p["w"], spec.gain)
        h = conv2d(h, w, stride=spec.stride, padding=spec.padding)
        h = h + p["b"].reshape(1, -1, 1, 1)
        h = h.leaky_relu(spec.slope)
    flat = h.reshape(h.shape[0], -1)
    mu, raw = [flat @ p["w"].T + p["b"] for p in model.params[-2:]]
    # smooth tanh bound: keeps gradient alive at the rails and stops the
    # variance head from inflating its way out of the pairwise constraints
    logvar = (raw * (1.0 / LOGVAR_BOUND)).tanh() * LOGVAR_BOUND
    if not batched:
        mu, logvar = mu.reshape(-1), logvar.reshape(-1)
    return GaussianLatent(mu, logvar)


def encode_batched(model: EncoderModel, images: np.ndarray, batch: int = 64):
    """(mu, logvar) arrays of `images`, encoded `batch` images at a time."""
    mu = np.zeros((len(images), model.latent_dim))
    lv = np.zeros((len(images), model.latent_dim))
    for s in range(0, len(images), batch):
        lat = encode(model, images[s:s + batch])
        mu[s:s + batch] = lat.mu.data
        lv[s:s + batch] = lat.logvar.data
    return mu, lv


def sample(latent: GaussianLatent, rng: Rng | None = None, eps=None) -> Tensor:
    """Reparameterized draw a = eps * sigma + mu from a Gaussian latent, with
    sigma the standard deviation exp(logvar/2).  The result is a constant
    (off-tape) tensor.
    """
    eps = rng.normal(latent.mu.shape) if eps is None else np.asarray(eps, dtype=np.float64)
    return Tensor(eps * np.exp(latent.logvar.data / 2.0) + latent.mu.data)


# ---------------------------------------------------------------------------
# Weight file: magic "DDE1", uint64 header length, JSON header, float64 LE
# payload (per layer: weight then bias, then the snapshot kernels), then the
# uint32 LE CRC-32 of every byte before it, so that an edited header fails
# the checksum as an edited weight does.
# ---------------------------------------------------------------------------

def save_weights(model: EncoderModel, path: str, meta: dict | None = None) -> None:
    chunks = []
    for p in model.params:
        chunks.append(p["w"].data.astype("<f8").tobytes())
        chunks.append(p["b"].data.astype("<f8").tobytes())
    for s in model.snapshot:
        chunks.append(s.astype("<f8").tobytes())
    payload = b"".join(chunks)
    header = {
        "layers": [asdict(s) for s in model.layers],
        "latent_dim": model.latent_dim,
        "rep_dims": model.rep_dims,
        "input_shape": list(model.input_shape),
        "init_norm_slack": model.init_norm_slack,
        "parameter_count": model.parameter_count(),
    }
    if meta:
        header["meta"] = meta
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    head = MAGIC + struct.pack("<Q", len(hjson)) + hjson
    with open(path, "wb") as f:
        f.write(head)
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))


def load_weights(path: str) -> EncoderModel:
    """Read a weight file written by save_weights; the model is frozen.  A
    header that does not describe a valid encoder is unreadable."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise CorruptWeightsError(f"{path}: bad magic")
    bad_header = (struct.error, ValueError, KeyError, TypeError, AttributeError)
    try:
        (hlen,) = struct.unpack("<Q", blob[4:12])
        header = json.loads(blob[12:12 + hlen].decode("utf-8"))
        layers = [LayerSpec(**s) for s in header["layers"]]
        fields = {k: header[k] for k in ("input_shape", "latent_dim", "rep_dims",
                                         "init_norm_slack")}
        count = header["parameter_count"]
    except bad_header as e:
        # ValueError covers bad JSON, bad UTF-8 and an invalid layer spec
        raise CorruptWeightsError(f"{path}: unreadable header: {e!r}") from e
    # checked after the header parses, so that a damaged header is named as such
    if blob[-4:] != struct.pack("<I", zlib.crc32(memoryview(blob)[:-4])):
        raise CorruptWeightsError(f"{path}: checksum mismatch")
    payload = blob[12 + hlen:-4]
    off = 0

    def read(shape):
        nonlocal off
        n = math.prod(shape) * 8
        if off + n > len(payload):
            raise CorruptWeightsError(f"{path}: truncated payload")
        arr = np.frombuffer(payload[off:off + n], dtype="<f8").reshape(shape).copy()
        off += n
        return arr

    params = [{"w": Tensor(read(spec.weight_shape), requires_grad=True),
               "b": Tensor(read((spec.out_width,)), requires_grad=True)}
              for spec in layers]
    snapshot = [read(spec.weight_shape) for spec in layers]
    if off != len(payload):
        raise CorruptWeightsError(f"{path}: {len(payload) - off} bytes after the payload")
    try:
        model = EncoderModel(layers=layers, **fields, params=params, snapshot=snapshot)
    except bad_header as e:
        # ConfigError (a ValueError) names the geometry the header gets wrong
        raise CorruptWeightsError(f"{path}: unreadable header: {e}") from e
    if model.parameter_count() != count:
        raise CorruptWeightsError(f"{path}: parameter count mismatch")
    model.freeze()
    return model
