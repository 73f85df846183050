"""Dense float64 tensors with reverse-mode autodiff, Adam, and a seeded PRNG.

Every other module computes on this substrate.  The tape is implicit: each
Tensor remembers its parents and a backward closure, and ``grad`` replays the
graph in reverse topological order from a scalar root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NumericError(RuntimeError):
    """Raised when an op produces NaN/Inf or receives non-finite input."""


class ContractError(ValueError):
    """Raised when an op's preconditions are violated (shape, rank, range)."""


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite value produced by op '{op}'")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """N-dimensional float64 array, optionally participating in the grad tape."""

    __slots__ = ("data", "requires_grad", "_parents", "_backward", "_op")
    # numpy defers to the reflected operators, so `array * t` is `t.__rmul__`
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, _parents=(), _op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, _op)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = None
        self._op = _op

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        od, op = _operand(other)
        out = Tensor(self.data + od, _parents=(self, *op), _op="add")

        def bw(g):
            return (_unbroadcast(g, self.shape), *(_unbroadcast(g, od.shape) for _ in op))

        out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, _parents=(self,), _op="neg")
        out._backward = lambda g: (-g,)
        return out

    def __sub__(self, other):
        od, op = _operand(other)
        return self + (-other if op else -od)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        od, op = _operand(other)
        out = Tensor(self.data * od, _parents=(self, *op), _op="mul")

        def bw(g):
            return (_unbroadcast(g * od, self.shape),
                    *(_unbroadcast(g * self.data, od.shape) for _ in op))

        out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        od, op = _operand(other)
        out = Tensor(self.data / od, _parents=(self, *op), _op="div")

        def bw(g):
            return (_unbroadcast(g / od, self.shape),
                    *(_unbroadcast(-g * self.data / od ** 2, od.shape) for _ in op))

        out._backward = bw
        return out

    def __rtruediv__(self, other):
        return _as_tensor(other) / self

    def __pow__(self, p):
        p = float(p)
        out = Tensor(self.data ** p, _parents=(self,), _op="pow")
        out._backward = lambda g: (g * p * self.data ** (p - 1),)
        return out

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    # -- elementwise functions ------------------------------------------

    # exp and sqrt close over their output array, never over `out`: a closure
    # holding `out` is a reference cycle that keeps the whole tape (im2col
    # buffers included) alive until the cyclic collector runs.
    def exp(self):
        e = np.exp(self.data)
        out = Tensor(e, _parents=(self,), _op="exp")
        out._backward = lambda g: (g * e,)
        return out

    def sqrt(self):
        r = np.sqrt(self.data)
        out = Tensor(r, _parents=(self,), _op="sqrt")
        out._backward = lambda g: (g * 0.5 / r,)
        return out

    def abs(self):
        out = Tensor(np.abs(self.data), _parents=(self,), _op="abs")
        out._backward = lambda g: (g * np.sign(self.data),)
        return out

    def arctan(self):
        out = Tensor(np.arctan(self.data), _parents=(self,), _op="arctan")
        out._backward = lambda g: (g / (1.0 + self.data ** 2),)
        return out

    def sigmoid(self):
        s = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(s, _parents=(self,), _op="sigmoid")
        out._backward = lambda g: (g * s * (1.0 - s),)
        return out

    def tanh(self):
        t = np.tanh(self.data)
        out = Tensor(t, _parents=(self,), _op="tanh")
        out._backward = lambda g: (g * (1.0 - t ** 2),)
        return out

    def relu(self):
        # subgradient 0 at the kink
        mask = self.data > 0
        out = Tensor(self.data * mask, _parents=(self,), _op="relu")
        out._backward = lambda g: (g * mask,)
        return out

    def leaky_relu(self, slope: float = 0.2):
        mask = self.data > 0
        out = Tensor(np.where(mask, self.data, slope * self.data),
                     _parents=(self,), _op="leaky_relu")
        out._backward = lambda g: (g * np.where(mask, 1.0, slope),)
        return out

    # -- shape / reductions ----------------------------------------------

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), _parents=(self,), _op="reshape")
        out._backward = lambda g: (g.reshape(self.shape),)
        return out

    @property
    def T(self):
        out = Tensor(self.data.T, _parents=(self,), _op="transpose")
        out._backward = lambda g: (g.T,)
        return out

    def take(self, indices, axis: int = -1):
        """Gather along an axis (used to select representative latent dims)."""
        idx = np.asarray(indices, dtype=np.intp)
        out = Tensor(np.take(self.data, idx, axis=axis), _parents=(self,), _op="take")

        def bw(g):
            # unbuffered scatter-add: a repeated index accumulates in order
            gi = np.zeros_like(self.data)
            np.add.at(np.moveaxis(gi, axis, 0), idx, np.moveaxis(g, axis, 0))
            return (gi,)

        out._backward = bw
        return out

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                     _parents=(self,), _op="sum")

        def bw(g):
            g2 = g if axis is None or keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g2, self.shape).copy(),)

        out._backward = bw
        return out

    def mean(self, axis=None, keepdims: bool = False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operand(x):
    """(data, parents) of an operand.  A constant is no parent, so it puts no
    leaf on the tape, and a backward computes no gradient for it."""
    if isinstance(x, Tensor):
        return x.data, (x,)
    return np.asarray(x, dtype=np.float64), ()


def _matmul(a, b) -> Tensor:
    """a @ b where either side may be a constant."""
    (ad, ap), (bd, bp) = _operand(a), _operand(b)
    out = Tensor(ad @ bd, _parents=(*ap, *bp), _op="matmul")

    def bw(g):
        return (*(_unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape) for _ in ap),
                *(_unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape) for _ in bp))

    out._backward = bw
    return out


def conv2d(x: Tensor, w, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) on CHW or BCHW input.

    x: Tensor[C_in,H,W] or Tensor[B,C_in,H,W]; w: [C_out,C_in,k,k], a Tensor
    or a constant array, which gets no gradient.
    """
    if stride < 1:
        raise ContractError("stride must be >= 1")
    wdat, wp = _operand(w)
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4 or wdat.ndim != 4:
        raise ContractError("conv2d expects (B,)CHW input and OIkk kernel")
    b, cin, h, wd_ = xd.shape
    cout, cin_k, kh, kw = wdat.shape
    if cin != cin_k:
        raise ContractError(f"channel mismatch: input {cin} vs kernel {cin_k}")
    if kh > h + 2 * padding or kw > wd_ + 2 * padding:
        raise ContractError("kernel larger than padded input")

    # zero padding and the strided window view are built directly: np.pad
    # and sliding_window_view cost more in Python dispatch than in copying
    xp = np.zeros((b, cin, h + 2 * padding, wd_ + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd_] = xd
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd_ + 2 * padding - kw) // stride + 1
    sb, sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(                  # (B, Cin, Ho, Wo, kh, kw)
        xp, (b, cin, ho, wo, kh, kw),
        (sb, sc, sh * stride, sw * stride, sh, sw), writeable=False)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, cin * kh * kw)
    wflat = wdat.reshape(cout, -1)
    out_d = (cols @ wflat.T).transpose(0, 2, 1).reshape(b, cout, ho, wo)

    out = Tensor(out_d[0] if squeeze else out_d, _parents=(x, *wp), _op="conv2d")

    def bw(g):
        gd = g[None] if squeeze else g
        gcols = gd.reshape(b, cout, ho * wo).transpose(0, 2, 1)   # (B, P, Cout)
        gw = [np.einsum("bpo,bpk->ok", gcols, cols).reshape(wdat.shape) for _ in wp]
        if not x.requires_grad:
            return (None, *gw)
        gx_cols = gcols @ wflat                                   # (B, P, Cin*kh*kw)
        gwin = gx_cols.reshape(b, ho, wo, cin, kh, kw)
        gxp = np.zeros_like(xp)
        # within one tap (i, j) the strided windows never overlap, so a
        # slice += adds each tap in the same order as a scatter-add would
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                    gwin[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        gx = gxp[:, :, padding:padding + h, padding:padding + wd_]
        return (gx[0] if squeeze else gx, *gw)

    out._backward = bw
    return out


def grad(scalar: Tensor, leaves) -> list:
    """d(scalar)/d(leaf), an array, for each leaf by reverse replay of the tape."""
    if scalar.shape != ():
        raise ContractError("grad root must be a rank-0 tensor")

    topo, seen = [], set()
    stack = [(scalar, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads = {id(scalar): np.ones(())}
    for node in reversed(topo):
        g = grads.get(id(node))
        if g is None or node._backward is None:
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if not p.requires_grad:
                continue
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg

    return [grads[id(leaf)] if id(leaf) in grads else np.zeros(leaf.shape)
            for leaf in leaves]


@dataclass
class AdamState:
    """Per-parameter Adam moments plus hyperparameters."""
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def ensure(self, params):
        if not self.m:
            self.m = [np.zeros(p.shape) for p in params]
            self.v = [np.zeros(p.shape) for p in params]


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of params in place, from array grads."""
    state.ensure(params)
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NumericError("adam_step received non-finite gradients")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g ** 2
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


class Rng:
    """Seeded deterministic PRNG (PCG64); same seed gives the same stream
    on every platform.  Child streams are derived from (seed, key) so
    per-sample noise is order-independent."""

    def __init__(self, seed: int, _ss: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._ss = _ss if _ss is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._ss))

    def child(self, key: int) -> "Rng":
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(key),))
        return Rng(self.seed, _ss=ss)

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, lo: float, hi: float, shape=()) -> np.ndarray:
        return self._gen.uniform(lo, hi, shape)

    def integers(self, n: int, size=None):
        return self._gen.integers(0, n, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
