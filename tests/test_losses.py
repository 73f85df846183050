import math

import numpy as np
import pytest

from dde.tensor import Tensor, Rng, ContractError, grad
from dde.encoder import GaussianLatent
from dde.losses import (distill_loss, mutual_info, adapt_loss,
                        isolation_loss, bounded, hinge)

from oracles import symmetric_kl_distill, mutual_info_closed


def lat(mu, lv):
    return GaussianLatent(Tensor(np.asarray(mu, float)), Tensor(np.asarray(lv, float)))


def mi_of(a, latent):
    """The pointwise MI table of draw `a` under `latent`."""
    return mutual_info(a, latent.mu, latent.logvar)


class TestDistillLoss:
    def test_zero_for_identical(self):
        l = lat([1.0, -2.0, 0.3], [0.1, -0.4, 0.0])
        assert distill_loss(l, lat([1.0, -2.0, 0.3], [0.1, -0.4, 0.0])).item() == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        a = lat([1.0, 0.0], [0.5, -0.5])
        b = lat([0.2, 0.7], [-0.1, 0.3])
        assert distill_loss(a, b).item() == pytest.approx(distill_loss(b, a).item(), rel=1e-14)

    def test_hand_value(self):
        # N=1, v_t=1, v_s=1, dmu=1: (1+1)/1 + (1+1)/1 - 2 = 2, /2 -> 1.0
        assert distill_loss(lat([1.0], [0.0]), lat([0.0], [0.0])).item() == pytest.approx(1.0)

    def test_matches_closed_form(self):
        rng = Rng(0)
        mt, lt = rng.normal((4, 6)), rng.normal((4, 6)) * 0.3
        ms, ls = rng.normal((4, 6)), rng.normal((4, 6)) * 0.3
        got = distill_loss(lat(mt, lt), lat(ms, ls)).data
        assert np.allclose(got, symmetric_kl_distill(mt, lt, ms, ls), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            distill_loss(lat([0.0], [0.0]), lat([0.0, 0.0], [0.0, 0.0]))

    def test_nonnegative(self):
        rng = Rng(1)
        got = distill_loss(lat(rng.normal((20, 5)), rng.normal((20, 5))),
                           lat(rng.normal((20, 5)), rng.normal((20, 5)))).data
        assert (got >= 0).all()


class TestMutualInfo:
    def test_matches_closed_form(self):
        rng = Rng(2)
        a, mu, lv = rng.normal((3, 4)), rng.normal((3, 4)), rng.normal((3, 4))
        got = mutual_info(a, mu, lv).data
        assert np.allclose(got, mutual_info_closed(a, mu, lv), rtol=1e-12)

    def test_hand_value(self):
        # a=mu: I = -lv/2
        assert mutual_info(np.array([1.0]), np.array([1.0]),
                           np.array([0.6])).item() == pytest.approx(-0.3)

    def test_maximized_at_matching_logvar(self):
        # for fixed (a - mu), I peaks at logvar = ln((a-mu)^2)
        a, mu = 2.0, 0.5
        best = math.log((a - mu) ** 2)
        peak = mutual_info(np.array([a]), np.array([mu]), np.array([best])).item()
        for lv in (best - 0.5, best + 0.5):
            assert mutual_info(np.array([a]), np.array([mu]), np.array([lv])).item() < peak


class TestAdaptLoss:
    def test_antisymmetric(self):
        rng = Rng(3)
        a, a2 = Tensor(rng.normal((5, 6))), Tensor(rng.normal((5, 6)))
        l1 = lat(rng.normal((5, 6)), rng.normal((5, 6)))
        l2 = lat(rng.normal((5, 6)), rng.normal((5, 6)))
        fwd = adapt_loss(mi_of(a, l1), mi_of(a2, l2), [1, 3]).data
        rev = adapt_loss(mi_of(a2, l2), mi_of(a, l1), [1, 3]).data
        assert np.allclose(fwd, -rev, atol=1e-12)

    def test_zero_for_identical_inputs(self):
        rng = Rng(4)
        a = Tensor(rng.normal((2, 4)))
        l = lat(rng.normal((2, 4)), rng.normal((2, 4)))
        assert np.allclose(adapt_loss(mi_of(a, l), mi_of(a, l), [0]).data, 0.0)

    def test_composition_from_mutual_info(self):
        rng = Rng(5)
        av, a2v = rng.normal(6), rng.normal(6)
        m1, v1 = rng.normal(6), rng.normal(6)
        m2, v2 = rng.normal(6), rng.normal(6)
        dims = [0, 2, 5]
        want = (mutual_info_closed(av, m1, v1)[dims].mean()
                - mutual_info_closed(a2v, m2, v2)[dims].mean())
        got = adapt_loss(mi_of(av, lat(m1, v1)), mi_of(a2v, lat(m2, v2)), dims).item()
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_dims_rejected(self):
        mi = mi_of(np.zeros(1), lat([0.0], [0.0]))
        with pytest.raises(ContractError):
            adapt_loss(mi, mi, [])


class TestIsolationLoss:
    def test_composition_from_mutual_info(self):
        rng = Rng(6)
        av, a2v = rng.normal(5), rng.normal(5)
        m1, v1 = rng.normal(5), rng.normal(5)
        m2, v2 = rng.normal(5), rng.normal(5)
        dims, comp = [1, 2], [0, 3, 4]
        want = ((mutual_info_closed(av, m1, v1)[dims].mean()
                 - mutual_info_closed(a2v, m2, v2)[dims].mean())
                + (mutual_info_closed(a2v, m2, v2)[comp].mean()
                   - mutual_info_closed(av, m1, v1)[comp].mean()))
        got = isolation_loss(mi_of(av, lat(m1, v1)), mi_of(a2v, lat(m2, v2)),
                             dims).item()
        assert got == pytest.approx(want, rel=1e-12)

    def test_needs_nonempty_complement(self):
        mi = mi_of(np.zeros(2), lat([0.0, 0.0], [0.0, 0.0]))
        with pytest.raises(ContractError):
            isolation_loss(mi, mi, [0, 1])

    def test_batched_shape(self):
        rng = Rng(7)
        a, a2 = Tensor(rng.normal((4, 5))), Tensor(rng.normal((4, 5)))
        l1 = lat(rng.normal((4, 5)), rng.normal((4, 5)))
        l2 = lat(rng.normal((4, 5)), rng.normal((4, 5)))
        assert isolation_loss(mi_of(a, l1), mi_of(a2, l2), [1]).shape == (4,)


class TestBounded:
    def test_distill_zero_maps_to_zero(self):
        assert bounded(Tensor(np.array(0.0)), "D").item() == pytest.approx(0.0)

    def test_distill_range(self):
        vals = bounded(Tensor(np.linspace(0.0, 30.0, 101)), "D").data
        assert (vals >= 0).all() and (vals < 1.0).all()
        assert np.all(np.diff(vals) >= 0)

    def test_distill_lipschitz_half(self):
        # derivative at 0 is exactly 1/2 and that's the maximum slope
        xs = np.linspace(-5, 5, 2001)
        ys = bounded(Tensor(xs), "D").data
        slopes = np.diff(ys) / np.diff(xs)
        assert slopes.max() <= 0.5 + 1e-9
        assert slopes.max() == pytest.approx(0.5, abs=1e-5)

    def test_arctan_lipschitz_one(self):
        xs = np.linspace(-5, 5, 2001)
        ys = bounded(Tensor(xs), "A").data
        slopes = np.diff(ys) / np.diff(xs)
        assert slopes.max() <= 1.0 + 1e-9
        assert slopes.max() == pytest.approx(1.0, abs=1e-5)

    def test_arctan_odd_and_bounded(self):
        v = bounded(Tensor(np.array([-3.0, 0.0, 3.0])), "I").data
        assert v[1] == 0.0
        assert v[0] == pytest.approx(-v[2])
        assert np.abs(v).max() < np.pi / 2

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            bounded(Tensor(np.array(0.0)), "Q")


class TestHinge:
    def test_values(self):
        got = hinge(Tensor(np.array([-1.0, 0.1, 0.3])), 0.1).data
        assert np.allclose(got, [0.0, 0.0, 0.2])

    def test_subgradient_zero_at_kink(self):
        x = Tensor(np.array([0.1, 0.5, -1.0]), requires_grad=True)
        (g,) = grad(hinge(x, 0.1).sum(), [x])
        assert np.allclose(g, [0.0, 1.0, 0.0])

    def test_negative_margin_rejected(self):
        with pytest.raises(ContractError):
            hinge(Tensor(np.array(0.0)), -0.1)
