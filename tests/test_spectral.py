import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dde.tensor import Rng, ContractError
from dde import spectral
from dde.encoder import LayerSpec, build_teacher
from dde.spectral import (conv_singular_values, clip_singular_values,
                          layer_spectrum, layer_norm,
                          operator_drift, network_lipschitz, zeta_bound,
                          certify, DEFAULT_CERT_CONSTANTS)
from dde.encoder import clip_norms
from dde.train import _clip_model

from oracles import (circulant_conv_matrix, conv_singular_values_fft,
                     kappa_theta_closed, zeta_closed)


class TestConvSpectra:
    @pytest.mark.parametrize("cin,cout,k,h", [
        (1, 1, 1, 4), (1, 1, 3, 4), (2, 3, 3, 5), (3, 2, 2, 6), (1, 2, 3, 8),
    ])
    def test_matches_dense_circulant(self, cin, cout, k, h):
        w = Rng(cin * 100 + cout * 10 + k).normal((cout, cin, k, k))
        got = conv_singular_values(w, (h, h)).values
        want = np.sort(np.linalg.svd(circulant_conv_matrix(w, (h, h)),
                                     compute_uv=False))[::-1][:len(got)]
        assert np.allclose(got, want, atol=1e-8)

    def test_value_count(self):
        w = Rng(0).normal((3, 2, 3, 3))
        rep = conv_singular_values(w, (5, 5))
        assert rep.values.size == 5 * 5 * min(2, 3)

    def test_sorted_descending(self):
        rep = conv_singular_values(Rng(1).normal((2, 2, 3, 3)), (6, 6))
        assert np.all(np.diff(rep.values) <= 0)

    def test_identity_kernel(self):
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 2.5
        rep = conv_singular_values(w, (4, 4))
        assert np.allclose(rep.values, 2.5)

    def test_kernel_larger_than_input_folds(self):
        # wrap-around taps alias onto the small grid
        w = Rng(2).normal((2, 2, 3, 3))
        got = conv_singular_values(w, (2, 2)).values
        want = np.sort(np.linalg.svd(circulant_conv_matrix(w, (2, 2)),
                                     compute_uv=False))[::-1][:len(got)]
        assert np.allclose(got, want, atol=1e-8)


    @pytest.mark.parametrize("spatial", [(1, 1), (2, 2), (3, 3), (4, 6),
                                         (2, 5), (5, 5), (8, 8)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_fft_reference(self, spatial, k):
        # k > h or k > w covers the taps that wrap around a small grid
        for cin, cout in ((1, 1), (2, 3), (3, 2)):
            w = Rng(k * 10 + cin).normal((cout, cin, k, k))
            got = conv_singular_values(w, spatial).values
            want = conv_singular_values_fft(w, spatial)
            assert got.size == want.size
            assert np.max(np.abs(got - want)) <= 1e-12 * want[0]

    @settings(max_examples=100, deadline=None)
    @given(cin=st.integers(1, 3), cout=st.integers(1, 3), k=st.integers(1, 3),
           h=st.integers(1, 8), w=st.integers(1, 8), seed=st.integers(0, 2**31))
    def test_property_matches_dense_circulant(self, cin, cout, k, h, w, seed):
        kernel = Rng(seed).normal((cout, cin, k, k))
        got = conv_singular_values(kernel, (h, w)).values
        want = np.linalg.svd(circulant_conv_matrix(kernel, (h, w)), compute_uv=False)
        assert got.size == want.size
        assert np.allclose(got, want, rtol=0, atol=1e-9)
        spec = LayerSpec("conv", cin, cout, k=k)
        assert abs(layer_norm(spec, kernel, (h, w)) - want[0]) <= 1e-9


class TestClip:
    def test_reduces_to_threshold(self):
        w = Rng(3).normal((3, 2, 3, 3))
        theta = 0.7 * conv_singular_values(w, (8, 8)).max
        clipped = clip_singular_values(w, (8, 8), theta)
        assert clipped.shape == w.shape
        assert conv_singular_values(clipped, (8, 8)).max <= theta + 1e-12

    def test_noop_below_threshold(self):
        w = Rng(4).normal((2, 2, 3, 3)) * 0.01
        theta = conv_singular_values(w, (6, 6)).max * 10
        assert np.array_equal(clip_singular_values(w, (6, 6), theta), w)

    def test_idempotent(self):
        w = Rng(5).normal((2, 3, 3, 3))
        theta = 0.5 * conv_singular_values(w, (8, 8)).max
        once = clip_singular_values(w, (8, 8), theta)
        twice = clip_singular_values(once, (8, 8), theta)
        assert np.allclose(once, twice, atol=1e-12)

    def test_small_values_nearly_preserved(self):
        # clipping only the top should barely move the rest of the spectrum
        w = Rng(6).normal((2, 2, 3, 3))
        vals = conv_singular_values(w, (8, 8)).values
        theta = float(vals[0]) * 0.95
        clipped = clip_singular_values(w, (8, 8), theta)
        new_vals = conv_singular_values(clipped, (8, 8)).values
        assert new_vals[0] <= theta + 1e-12
        assert abs(new_vals[-1] - vals[-1]) < 0.1 * vals[0]

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ContractError):
            clip_singular_values(np.ones((1, 1, 1, 1)), (4, 4), 0.0)

    def test_rejects_oversized_kernel(self):
        with pytest.raises(ContractError):
            clip_singular_values(np.ones((1, 1, 3, 3)), (2, 2), 1.0)


class TestLayerOperator:
    conv = LayerSpec("conv", 3, 5, k=3, stride=2, padding=1)
    linear = LayerSpec("linear", 7, 4)

    @pytest.mark.parametrize("h", [2, 4, 8])
    def test_conv_spectrum_is_circulant_spectrum(self, h):
        w = Rng(h).normal((5, 3, 3, 3))
        got = layer_spectrum(self.conv, w, (h, h))
        assert np.array_equal(got, conv_singular_values(w, (h, h)).values)

    def test_linear_spectrum_is_svd(self):
        w = Rng(2).normal((4, 7))
        got = layer_spectrum(self.linear, w, (1, 1))
        assert np.array_equal(got, np.linalg.svd(w, compute_uv=False))
        assert np.all(np.diff(got) <= 0)

    @pytest.mark.parametrize("spatial", [(1, 1), (2, 2), (4, 6), (8, 8)])
    def test_norm_is_top_of_spectrum(self, spatial):
        wide = LayerSpec("conv", 5, 3, k=3, stride=2, padding=1)
        for spec in (self.conv, wide, self.linear):
            w = Rng(sum(spatial)).normal(spec.weight_shape)
            want = layer_spectrum(spec, w, spatial)[0]
            assert layer_norm(spec, w, spatial) == pytest.approx(want, rel=1e-12)

    def test_norm_callers_take_no_full_spectrum(self, monkeypatch, tiny_student):
        calls = []
        full = spectral.conv_singular_values
        monkeypatch.setattr(spectral, "conv_singular_values",
                            lambda *a: calls.append(a) or full(*a))
        operator_drift(tiny_student)
        m = build_teacher({"widths": (4, 8), "latent_dim": 8,
                           "rep_dims": {"a": [0]}, "input_shape": (3, 16, 16)})
        _clip_model(m, 0.1)
        assert calls == []
        # while a full spectrum still goes through the patched name
        layer_spectrum(self.conv, Rng(0).normal((5, 3, 3, 3)), (4, 4))
        assert len(calls) == 1

    @staticmethod
    def _clipped_head(w, theta):
        """The mu head kernel, first set to w, of an encoder without conv
        layers after clip_norms(theta)."""
        m = build_teacher({"widths": (), "input_shape": (w.shape[1], 1, 1),
                           "latent_dim": w.shape[0], "rep_dims": {"a": [0]}})
        m.params[0]["w"].data = w.copy()
        clip_norms(m, theta)
        return m.params[0]["w"].data

    def test_linear_clip_unchanged_under_theta(self):
        w = Rng(4).normal((4, 7))
        theta = np.linalg.svd(w, compute_uv=False)[0] * 1.5
        assert np.array_equal(self._clipped_head(w, theta), w)

    @pytest.mark.parametrize("frac", [0.9, 0.5, 0.1])
    def test_linear_clip_over_theta(self, frac):
        w = Rng(5).normal((4, 7))
        theta = frac * np.linalg.svd(w, compute_uv=False)[0]
        clipped = self._clipped_head(w, theta)
        assert clipped.shape == w.shape
        assert np.linalg.svd(clipped, compute_uv=False)[0] <= theta + 1e-9


class TestOperatorDrift:
    def test_zero_at_init(self):
        m = build_teacher({"widths": (4, 8), "latent_dim": 8,
                           "rep_dims": {"a": [0]}, "input_shape": (3, 16, 16)})
        assert operator_drift(m) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_linear_case(self):
        m = build_teacher({"widths": (4,), "latent_dim": 4,
                           "rep_dims": {"a": [0]}, "input_shape": (3, 16, 16)})
        # push the mu head away from its snapshot by a known diagonal
        w = m.params[1]["w"].data
        w[0, 0] += 3.0
        w[1, 1] += 1.0
        total, per_layer = operator_drift(m, per_layer=True)
        assert per_layer[1] == pytest.approx(3.0, rel=1e-9)
        assert total == pytest.approx(sum(per_layer), rel=1e-12)

    def test_nonnegative_and_additive(self, tiny_student):
        total, per_layer = operator_drift(tiny_student, per_layer=True)
        assert all(d >= 0 for d in per_layer)
        assert total == pytest.approx(sum(per_layer), rel=1e-12)


class TestLipschitzFormula:
    def test_hand_value(self):
        # chi=2, kappa=3, delta=0.5, nu=1, L=2: 2*3*0.5*(1+1+0.25)^2 = 15.1875
        assert network_lipschitz(2.0, 3.0, 0.5, 1.0, 2) == pytest.approx(15.1875)

    def test_published_constants(self):
        # kappa values for the three loss kinds with the stock slack
        got = kappa_theta_closed(1.0, DEFAULT_CERT_CONSTANTS["kappa"]["D"],
                                 0.01, 4898.0, 7)
        assert network_lipschitz(1.0, 3.0, 0.01, 4898.0, 7) == pytest.approx(got, rel=1e-12)

    def test_monotone_in_drift(self):
        vals = [network_lipschitz(1.0, 3.0, d, 1.0, 7) for d in (0.1, 0.5, 1.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_rejects_bad_args(self):
        with pytest.raises(ContractError):
            network_lipschitz(1.0, 1.0, -0.1, 1.0, 7)
        with pytest.raises(ContractError):
            network_lipschitz(1.0, 1.0, 0.1, 1.0, 0)


class TestZetaBound:
    def test_matches_closed_form(self):
        for kind in ("D", "A", "I"):
            kappa = DEFAULT_CERT_CONSTANTS["kappa"][kind]
            bnd = DEFAULT_CERT_CONSTANTS["loss_bound"][kind]
            m = DEFAULT_CERT_CONSTANTS["m"][kind]
            b = zeta_bound(m, 1000, 0.1, bnd, 0.001, kappa,
                           chi=55.4, delta_op=0.02, nu=4898.0, layer_count=7)
            dud, conc, tot = zeta_closed(m, 1000, 0.1, bnd, 0.001, kappa,
                                         55.4, 0.02, 4898.0, 7)
            assert b.dudley == pytest.approx(dud, rel=1e-12)
            assert b.concentration == pytest.approx(conc, rel=1e-12)
            assert b.zeta == pytest.approx(tot, rel=1e-12)

    def test_dudley_scales_inverse_sqrt_m(self):
        b1 = zeta_bound(100, 50, 0.1, 1.0, 0.001, 3.0, 1.0, 0.1, 1.0, 3)
        b4 = zeta_bound(400, 50, 0.1, 1.0, 0.001, 3.0, 1.0, 0.1, 1.0, 3)
        assert b1.dudley / b4.dudley == pytest.approx(2.0, rel=1e-12)

    def test_rejects_bad_delta(self):
        with pytest.raises(ContractError):
            zeta_bound(10, 10, 1.5, 1.0, 0.001, 3.0, 1.0, 0.1, 1.0, 3)


class TestCertify:
    def test_report_structure(self, tiny_student, tiny_dataset):
        rep = certify(tiny_student, tiny_dataset)
        assert set(rep["zeta"]) == {"D", "A", "I"}
        assert rep["layer_count"] == len(tiny_student.layers)
        assert rep["parameter_count"] == tiny_student.parameter_count()
        assert len(rep["spectra"]) == len(tiny_student.layers)
        assert rep["chi"] > 0

    def test_zeta_recomputable_from_report(self, tiny_student, tiny_dataset):
        rep = certify(tiny_student, tiny_dataset)
        for kind in ("D", "A", "I"):
            c = rep["constants"]
            dud, conc, tot = zeta_closed(
                c["m"][kind], rep["parameter_count"], c["delta"],
                c["loss_bound"][kind], c["omega"], c["kappa"][kind],
                rep["chi"], rep["delta_op"], rep["nu"], rep["layer_count"])
            assert rep["zeta"][kind]["zeta"] == pytest.approx(tot, rel=1e-12)
            kt = kappa_theta_closed(rep["chi"], c["kappa"][kind],
                                    rep["delta_op"], rep["nu"], rep["layer_count"])
            assert rep["kappa_theta"][kind] == pytest.approx(kt, rel=1e-12)

    def test_m_grid_table(self, tiny_student, tiny_dataset):
        rep = certify(tiny_student, tiny_dataset, m_grid=[10, 40, 90])
        ms = [row["m"] for row in rep["zeta_vs_m"]]
        assert ms == [10, 40, 90]
        d = [row["dudley_D"] for row in rep["zeta_vs_m"]]
        assert d[0] / d[1] == pytest.approx(2.0, rel=1e-12)
        assert d[0] / d[2] == pytest.approx(3.0, rel=1e-12)
