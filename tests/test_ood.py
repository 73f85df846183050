import json
import math

import numpy as np
import pytest

from dde.tensor import Rng, ContractError
from dde.data import ConfigError
from dde import ood
from dde.ood import fit, score, auroc

from oracles import auroc_paircount, gaussian_mixture_loglik, loglik_loop


class TestKmeans:
    def test_two_obvious_clusters(self):
        pts = np.array([[0.0], [0.1], [-0.1], [10.0], [10.1], [9.9]])
        r = fit(pts, 2, seed=0)
        centers = sorted(r.means.ravel().tolist())
        assert centers[0] == pytest.approx(0.0, abs=1e-9)
        assert centers[1] == pytest.approx(10.0, abs=1e-9)
        assert np.allclose(sorted(r.weights), [0.5, 0.5])

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            fit(np.zeros((5, 2)), 0)

    def test_k_bounded_by_distinct_points(self):
        pts = np.array([[1.0], [1.0], [2.0]])
        with pytest.raises(ConfigError):
            fit(pts, 3)

    def test_deterministic(self):
        pts = Rng(0).normal((50, 3))
        a = fit(pts, 4, seed=7)
        b = fit(pts, 4, seed=7)
        assert np.array_equal(a.means, b.means)
        assert a.threshold == b.threshold


class TestGmm:
    def test_loglik_matches_direct_density(self):
        rng = Rng(1)
        pts = np.concatenate([rng.normal((40, 2)) * 0.5,
                              rng.normal((40, 2)) * 0.5 + 5.0])
        r = fit(pts, 2, seed=0)
        for z in (np.array([0.0, 0.0]), np.array([5.0, 5.0]), np.array([2.5, 2.5])):
            want = gaussian_mixture_loglik(z, r.weights, r.means, r.variances)
            assert score(r, z).score == pytest.approx(want, rel=1e-10)

    def test_density_integrates_to_one(self):
        # 1-D Monte Carlo check of the fitted mixture density
        rng = Rng(2)
        pts = np.concatenate([rng.normal((100, 1)), rng.normal((100, 1)) + 6.0])
        r = fit(pts, 2, seed=0)
        lo, hi = -10.0, 16.0
        xs = np.linspace(lo, hi, 20001)[:, None]
        dens = np.exp(ood._loglik(r, xs))
        dx = xs.ravel()[1] - xs.ravel()[0]
        integral = float((dens[1:] + dens[:-1]).sum() * dx / 2.0)
        assert integral == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("d,k", [(1, 1), (1, 3), (2, 4), (5, 2)])
    def test_batched_loglik_bit_equal_to_loop(self, d, k):
        rng = Rng(10 + d * k)
        pts = rng.normal((60, d)) * 3.0 + np.arange(d)
        r = fit(pts, k, percentile=7.0, seed=1)
        far = rng.normal((40, d)) * 50.0     # deep in the tails too
        for z in (pts, far):
            want = loglik_loop(r, z)
            got = ood._loglik(r, z)
            assert got.shape == (len(z),)
            assert np.array_equal(got, want)
            assert [score(r, p).score for p in z] == want.tolist()
        assert r.threshold == float(np.percentile(loglik_loop(r, pts), 7.0))

    def test_variance_floor(self):
        pts = np.array([[0.0], [0.0], [0.0], [1.0]])
        r = fit(pts, 2, seed=0)
        assert (r.variances >= 1e-6).all()

    def test_round_trip_dict(self):
        # eval.json stores to_dict(); every field must survive JSON unchanged
        r = fit(Rng(3).normal((30, 2)), 3, seed=1, factor="haze", dims=[3, 4])
        back = json.loads(json.dumps(r.to_dict()))
        assert back == r.to_dict()
        assert back["factor"] == "haze" and back["dims"] == [3, 4]
        for key in ("weights", "means", "variances"):
            assert np.array_equal(np.array(back[key]), getattr(r, key))
        assert back["threshold"] == r.threshold


class TestThresholdAndScore:
    def test_calibration_flag_rate(self):
        pts = Rng(4).normal((200, 2))
        r = fit(pts, 2, percentile=5.0, seed=0)
        flagged = sum(score(r, p).is_ood for p in pts)
        assert flagged <= 0.05 * len(pts) + 1

    def test_far_point_is_ood(self):
        r = fit(Rng(5).normal((100, 2)), 2, seed=0)
        assert score(r, np.array([50.0, 50.0])).is_ood

    def test_dim_mismatch(self):
        r = fit(Rng(6).normal((20, 2)), 2, seed=0)
        with pytest.raises(ContractError):
            score(r, np.zeros(3))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([3.0, 2.0, 1.0, 0.0], [1, 1, 0, 0]) == 1.0

    def test_one_inversion(self):
        scores = [3.0, 1.0, 2.0, 0.0]
        labels = [1, 1, 0, 0]
        assert auroc(scores, labels) == pytest.approx(0.75)
        assert auroc(scores, labels) == pytest.approx(auroc_paircount(scores, labels))

    def test_ties_give_half(self):
        assert auroc([1.0, 1.0], [1, 0]) == pytest.approx(0.5)

    def test_matches_pair_counting_random(self):
        rng = Rng(7)
        scores = rng.normal(60)
        labels = rng.uniform(0, 1, 60) > 0.4
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        assert auroc(scores, labels) == pytest.approx(
            auroc_paircount(scores, labels), rel=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = Rng(8)
        scores = rng.normal(40)
        labels = [i % 3 == 0 for i in range(40)]
        a = auroc(scores, labels)
        b = auroc(np.exp(scores * 0.5), labels)
        assert a == pytest.approx(b, rel=1e-12)

    def test_needs_both_classes(self):
        with pytest.raises(ContractError):
            auroc([1.0, 2.0], [1, 1])
