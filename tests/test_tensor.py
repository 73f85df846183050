import gc
import weakref

import numpy as np
import pytest

from dde.tensor import (Tensor, Rng, NumericError, ContractError,
                        grad, conv2d, AdamState, adam_step)

from oracles import (fd_grad, rel_err, conv2d_naive, adam_reference,
                     conv2d_input_grad_addat)


def check_grad(build, x0, tol=1e-4, h=1e-5):
    """build(Tensor) -> scalar Tensor; compares reverse-mode to central FD."""
    x = Tensor(np.asarray(x0, dtype=np.float64), requires_grad=True)
    (g,) = grad(build(x), [x])

    def f(arr):
        return build(Tensor(arr)).item()

    assert rel_err(g.data, fd_grad(f, x0, h=h)) <= tol


class TestElementwiseGrads:
    x = np.array([[0.3, -0.7, 1.2], [2.0, -0.1, 0.5]])

    @pytest.mark.parametrize("name,fn", [
        ("add", lambda t: (t + 1.5).sum()),
        ("sub", lambda t: (2.0 - t).sum()),
        ("mul", lambda t: (t * t).sum()),
        ("div", lambda t: (t / 3.0 + 1.0 / (t + 5.0)).sum()),
        ("pow", lambda t: ((t + 3.0) ** 2.5).sum()),
        ("neg", lambda t: (-t).sum()),
        ("exp", lambda t: t.exp().sum()),
        ("sqrt", lambda t: (t + 3.0).sqrt().sum()),
        ("abs", lambda t: t.abs().sum()),
        ("arctan", lambda t: t.arctan().sum()),
        ("sigmoid", lambda t: t.sigmoid().sum()),
        ("tanh", lambda t: t.tanh().sum()),
        ("leaky", lambda t: t.leaky_relu(0.2).sum()),
        ("mean", lambda t: (t * t).mean()),
        ("reshape", lambda t: (t.reshape(3, 2) ** 2).sum()),
        ("transpose", lambda t: (t.T @ t).sum()),
        ("axis-sum", lambda t: (t.sum(axis=1) ** 2).sum()),
        ("axis-mean", lambda t: (t.mean(axis=0) ** 3).sum()),
    ])
    def test_fd(self, name, fn):
        check_grad(fn, self.x)

    def test_relu_grad_off_kink(self):
        check_grad(lambda t: t.relu().sum(), self.x)

    def test_take_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (g,) = grad((x.take([0, 2], axis=-1) ** 2).sum(), [x])
        expected = np.array([[0.0, 0.0, 4.0], [6.0, 0.0, 10.0]])
        assert np.allclose(g.data, expected)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_take_grad_repeated_index_matches_loop(self, axis):
        x0 = Rng(3).normal((4, 5, 3))
        idx = [2, 0, 2, 1, 2]
        idx = [i % x0.shape[axis] for i in idx]
        x = Tensor(x0, requires_grad=True)
        up = Rng(4).normal(np.take(x0, idx, axis=axis).shape)
        (g,) = grad((x.take(idx, axis=axis) * up).sum(), [x])
        want = np.zeros_like(x0)
        for j, i in enumerate(idx):
            sl = [slice(None)] * 3
            sl[axis] = i
            gsl = [slice(None)] * 3
            gsl[axis] = j
            want[tuple(sl)] += up[tuple(gsl)]
        assert np.array_equal(g.data, want)


class TestBroadcastGrads:
    def test_broadcast_add(self):
        a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b0 = np.array([10.0, 20.0])
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        ga, gb = grad(((a + b) ** 2).sum(), [a, b])
        assert rel_err(ga.data, fd_grad(lambda v: (((v + b0) ** 2).sum()), a0)) <= 1e-4
        assert rel_err(gb.data, fd_grad(lambda v: (((a0 + v) ** 2).sum()), b0)) <= 1e-4

    def test_matmul_grads(self):
        a0 = np.arange(6.0).reshape(2, 3) / 7.0
        b0 = np.arange(12.0).reshape(3, 4) / 5.0
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        ga, gb = grad(((a @ b) ** 2).sum(), [a, b])
        assert rel_err(ga.data, fd_grad(lambda v: ((v @ b0) ** 2).sum(), a0)) <= 1e-4
        assert rel_err(gb.data, fd_grad(lambda v: ((a0 @ v) ** 2).sum(), b0)) <= 1e-4


def _leaves(t):
    """The tensors that have no parent, reached from `t` along the tape."""
    seen, stack, out = set(), [t], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out += [node] if not node._parents else []
            stack.extend(node._parents)
    return out


class TestConstantOperands:
    # a number on either side of + - * /, or an array on the right, joins no
    # tape, and the value and gradient equal those with the constant wrapped
    # as a leaf
    OPS = {"add": lambda x, c: x + c, "radd": lambda x, c: c + x,
           "sub": lambda x, c: x - c, "rsub": lambda x, c: c - x,
           "mul": lambda x, c: x * c, "rmul": lambda x, c: c * x,
           "div": lambda x, c: x / c}
    CASES = ([(name, 0.3) for name in sorted(OPS)]
             + [(name, np.array([1.5, -2.0, 0.7])) for name in ("add", "sub", "mul", "div")])

    @pytest.mark.parametrize("name,const", CASES)
    def test_no_leaf_and_same_numbers(self, name, const):
        x0 = np.array([0.4, -1.3, 2.2])
        got, wrapped = [], []
        for c, into in ((const, got), (Tensor(const), wrapped)):
            x = Tensor(x0, requires_grad=True)
            out = self.OPS[name](x, c) ** 2
            if into is got:
                assert len(_leaves(out)) == 1 and _leaves(out)[0] is x
            (g,) = grad(out.sum(), [x])
            into += [out.data, g.data]
        for a, b in zip(got, wrapped):
            assert np.array_equal(a, b)


class TestConv2d:
    def test_forward_matches_naive(self):
        rng = Rng(0)
        x = rng.normal((2, 3, 6, 6))
        w = rng.normal((4, 3, 3, 3))
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            got = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
            want = conv2d_naive(x, w, stride=stride, padding=padding)
            assert np.allclose(got.data, want, atol=1e-12)

    def test_forward_unbatched(self):
        rng = Rng(1)
        x = rng.normal((3, 5, 5))
        w = rng.normal((2, 3, 3, 3))
        got = conv2d(Tensor(x), Tensor(w), stride=1, padding=1)
        assert np.allclose(got.data, conv2d_naive(x, w, 1, 1), atol=1e-12)

    def test_grads_vs_fd(self):
        rng = Rng(2)
        x0 = rng.normal((1, 2, 5, 5))
        w0 = rng.normal((3, 2, 3, 3))
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        gx, gw = grad((conv2d(x, w, stride=2, padding=1) ** 2).sum(), [x, w])

        def fx(v):
            return float((conv2d_naive(v, w0, 2, 1) ** 2).sum())

        def fw(v):
            return float((conv2d_naive(x0, v, 2, 1) ** 2).sum())

        assert rel_err(gx.data, fd_grad(fx, x0)) <= 1e-4
        assert rel_err(gw.data, fd_grad(fw, w0)) <= 1e-4

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("batched", [True, False])
    def test_input_grad_bit_equal_to_scatter_add(self, stride, padding, k, batched):
        rng = Rng(5)
        shape = (2, 3, 7, 6) if batched else (3, 7, 6)
        x0, w0 = rng.normal(shape), rng.normal((4, 3, k, k))
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        out = conv2d(x, w, stride=stride, padding=padding)
        up = rng.normal(out.shape)
        gx, gw = grad((out * up).sum(), [x, w])
        want = conv2d_input_grad_addat(up, w0, shape, stride, padding)
        assert np.array_equal(gx.data, want)

        # an input off the tape gets no gradient, the kernel the same one
        x_const = Tensor(x0)
        out2 = conv2d(x_const, w, stride=stride, padding=padding)
        gx2, gw2 = out2._backward(up)
        assert gx2 is None
        assert np.array_equal(gw2, gw.data)
        (gw3,) = grad((out2 * up).sum(), [w])
        assert np.array_equal(gw3.data, gw.data)


class TestGradContract:
    def test_root_must_be_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            grad(x * 2.0, [x])

    def test_unreached_leaf_gets_zeros(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(2.0, requires_grad=True)
        (gy,) = grad((x * x).sum(), [y])
        assert np.allclose(gy.data, 0.0)

    def test_tape_freed_without_cycle_collector(self):
        # the backward closures must not refer back to their own node, or a
        # dropped graph lives on until the cyclic collector runs
        gc.disable()
        try:
            x = Tensor(np.array([0.5, 1.0, 2.0]), requires_grad=True)
            e = (x * 0.5).exp()
            r = (e + 1.0).sqrt()
            alive = [weakref.ref(e.data), weakref.ref(r.data)]
            loss = (r * e).sum()
            del e, r
            grad(loss, [x])
            assert all(ref() is not None for ref in alive)
            del loss
            assert [ref() for ref in alive] == [None, None]
        finally:
            gc.enable()

    def test_nonfinite_raises_with_op_name(self):
        x = Tensor(np.array([1.0]))
        with np.errstate(divide="ignore"), pytest.raises(NumericError, match="div"):
            x / 0.0


class TestAdam:
    def test_matches_reference_trajectory(self):
        grads = [0.3, -0.5, 1.2, 0.0, 0.7]
        want = adam_reference(1.0, grads, lr=0.1)
        p = Tensor(np.array(1.0), requires_grad=True)
        st = AdamState()
        got = []
        for g in grads:
            adam_step([p], [Tensor(np.array(g))], st, 0.1)
            got.append(float(p.data))
        assert np.allclose(got, want, atol=1e-12)

    def test_first_step_is_lr_sized(self):
        # bias correction makes step one approximately lr * sign(g)
        p = Tensor(np.array(0.0), requires_grad=True)
        adam_step([p], [Tensor(np.array(0.5))], AdamState(), 0.01)
        assert abs(float(p.data) + 0.01) < 1e-6

    def test_rejects_nonfinite_grad(self):
        p = Tensor(np.array(0.0), requires_grad=True)
        bad = Tensor.__new__(Tensor)
        bad.data = np.array(np.nan)
        bad.requires_grad = False
        bad.grad = None
        bad._parents = ()
        bad._backward = None
        bad._op = "leaf"
        with pytest.raises(NumericError):
            adam_step([p], [bad], AdamState(), 0.01)


class TestRng:
    def test_deterministic(self):
        assert np.array_equal(Rng(5).normal((4, 4)), Rng(5).normal((4, 4)))
        assert not np.array_equal(Rng(5).normal((4, 4)), Rng(6).normal((4, 4)))

    def test_child_streams_independent_of_order(self):
        r = Rng(7)
        a_then_b = (r.child(1).normal(8), r.child(2).normal(8))
        r2 = Rng(7)
        b_then_a = (r2.child(2).normal(8), r2.child(1).normal(8))
        assert np.array_equal(a_then_b[0], b_then_a[1])
        assert np.array_equal(a_then_b[1], b_then_a[0])

    def test_normal_moments(self):
        x = Rng(3).normal((200000,))
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01

    def test_uniform_range(self):
        x = Rng(4).uniform(-2.0, 3.0, (1000,))
        assert x.min() >= -2.0 and x.max() <= 3.0

    def test_permutation_is_permutation(self):
        p = Rng(9).permutation(50)
        assert sorted(p.tolist()) == list(range(50))
