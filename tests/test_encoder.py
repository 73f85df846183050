import math
import re

import numpy as np
import pytest

from dde.tensor import Tensor, Rng, grad, adam_step, AdamState, NumericError
from dde.data import ConfigError
from dde import encoder
from dde.encoder import (EncoderModel, LayerSpec, CorruptWeightsError,
                         standardize, build_teacher, compress, encode, sample,
                         save_weights, load_weights, split_latent, DEFAULT_GAIN)

from oracles import fd_grad, rel_err, standardize_tape


class TestStandardize:
    def test_hand_case(self):
        # row [1,2,3]: mean 2, var 2/3, fan-in 3
        w = Tensor(np.array([[1.0, 2.0, 3.0]]))
        got = standardize(w, gain=1.0).data
        want = (np.array([[-1.0, 0.0, 1.0]])
                / (np.sqrt(2.0 / 3.0) * np.sqrt(3.0)))
        assert np.allclose(got, want, atol=1e-9)

    def test_gain_scales_linearly(self):
        w = Tensor(Rng(0).normal((4, 5)))
        assert np.allclose(standardize(w, 1.7).data, 1.7 * standardize(w, 1.0).data)

    def test_default_gain(self):
        assert DEFAULT_GAIN == 1.7

    def test_scale_invariant_in_w(self):
        w0 = Rng(1).normal((4, 3, 3, 3))
        a = standardize(Tensor(w0), 1.7).data
        b = standardize(Tensor(w0 * 37.0), 1.7).data
        assert np.allclose(a, b, atol=1e-9)

    def test_constant_filter_stays_finite(self):
        w = Tensor(np.full((2, 4), 3.0))
        out = standardize(w, 1.7).data
        assert np.allclose(out, 0.0)

    def test_gradient_flows_through(self):
        w0 = Rng(2).normal((3, 4))

        def build(t):
            return (standardize(t, 1.7) ** 2).sum()

        w = Tensor(w0, requires_grad=True)
        (g,) = grad(build(w), [w])

        def f(arr):
            return build(Tensor(arr)).item()

        assert rel_err(g.data, fd_grad(f, w0)) <= 1e-4

    @pytest.mark.parametrize("shape,scale", [
        ((3, 4), 1.0), ((5, 2, 3, 3), 0.01), ((4, 3, 1, 1), 30.0), ((2, 6), 0.0),
    ])
    def test_fused_op_matches_tape_oracle(self, shape, scale):
        rng = Rng(3)
        w0 = rng.normal(shape) * scale       # scale 0: constant filters
        up = rng.normal(shape)
        w = Tensor(w0, requires_grad=True)
        out = standardize(w, 1.7)
        assert out._op == "standardize" and out._parents == (w,)
        w_ref = Tensor(w0, requires_grad=True)
        ref = standardize_tape(w_ref, 1.7)
        # the forward repeats the tape's op order, so it is bit-equal
        assert np.array_equal(out.data, ref.data)
        (g,) = grad((out * up).sum(), [w])
        (g_ref,) = grad((ref * up).sum(), [w_ref])
        assert rel_err(g.data, g_ref.data) <= 1e-12
        if scale:
            # central differences carry ~1e-10 truncation error at h=1e-5 * scale
            fd = fd_grad(lambda v: float((standardize(Tensor(v), 1.7).data * up).sum()),
                         w0, h=1e-5 * scale)
            assert rel_err(g.data, fd) <= 1e-8

    def test_effective_kernel_is_the_encoded_kernel(self):
        m = build_teacher({"widths": (4, 8), "latent_dim": 6, "rep_dims": {"a": [0]}})
        for li, (spec, p) in enumerate(zip(m.layers, m.params)):
            want = standardize(p["w"], spec.gain).data if spec.kind == "conv" else p["w"].data
            assert np.array_equal(m.effective_kernel(li), want)
            assert np.array_equal(m.snapshot[li], want)


class TestModel:
    def test_teacher_defaults(self):
        m = build_teacher()
        assert m.latent_dim == 30
        assert [s.out_width for s in m.layers[:5]] == [32, 64, 128, 256, 512]
        assert all(s.kind == "conv" for s in m.layers[:5])
        assert not any(s.kind == "conv" for s in m.layers[5:])
        assert len(m.layers) == 7
        assert m.rep_dims == {"haze": [3], "backdrop": [6]}

    def test_rep_dims_must_be_disjoint(self):
        with pytest.raises(ConfigError):
            build_teacher({"rep_dims": {"a": [1], "b": [1]}})

    def test_rep_dims_in_range(self):
        with pytest.raises(ConfigError):
            build_teacher({"latent_dim": 4, "rep_dims": {"a": [7]}})

    def test_default_geometry_and_weight_shapes(self, tmp_path):
        m = build_teacher()
        assert m.layer_spatial() == [(32, 32), (16, 16), (8, 8), (4, 4), (2, 2),
                                     (1, 1), (1, 1)]
        path = str(tmp_path / "t.bin")
        save_weights(m, path)
        back = load_weights(path)
        assert back.layer_spatial() == m.layer_spatial()
        for model in (m, back):
            for spec, p, s in zip(model.layers, model.params, model.snapshot):
                assert p["w"].shape == s.shape == spec.weight_shape

    def test_out_size(self):
        conv = LayerSpec("conv", 3, 4, k=3, stride=2, padding=1)
        assert conv.out_size((32, 15)) == (16, 8)
        assert LayerSpec("conv", 3, 4, k=5).out_size((9, 9)) == (5, 5)
        assert LayerSpec("linear", 12, 4).out_size((3, 3)) == (1, 1)

    def test_parameter_count(self):
        m = build_teacher({"widths": (4,), "latent_dim": 6,
                           "rep_dims": {"a": [0]}, "input_shape": (3, 32, 32)})
        conv = 4 * 3 * 3 * 3 + 4
        feat = 4 * 16 * 16
        heads = 2 * (6 * feat + 6)
        assert m.parameter_count() == conv + heads
        assert m.parameter_bytes() == m.parameter_count() * 8


CONV = LayerSpec("conv", 3, 4, k=3, stride=2, padding=1)     # (3, 16, 16) -> (4, 8, 8)
HEAD = LayerSpec("linear", 4 * 8 * 8, 6)


class TestGeometry:
    @pytest.mark.parametrize("arch, message", [
        ({"kernel": 40}, "layer 0: kernel 40 is larger than its padded input (32, 32)"),
        ({"kernel": 5, "widths": (2, 2, 2, 2, 2)},
         "layer 4: kernel 5 is larger than its padded input (1, 1)"),
        ({"widths": (4, 0)}, "layer out_width must be an integer >= 1"),
        ({"stride": 0}, "layer stride must be an integer >= 1"),
        ({"padding": -1}, "layer padding must be an integer >= 0"),
        ({"input_shape": (3, 32)}, "input_shape must be 3 integers >= 1"),
        ({"input_shape": (3, 0, 32)}, "input_shape must be 3 integers >= 1"),
    ])
    def test_build_teacher_refuses_bad_geometry(self, arch, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_teacher({"widths": (4, 8), "latent_dim": 6, "rep_dims": {"a": [0]},
                           **arch})

    @pytest.mark.parametrize("layers, message", [
        ([CONV, HEAD], "exactly two linear heads"),
        ([CONV, HEAD, HEAD, HEAD], "exactly two linear heads"),
        ([HEAD, CONV, HEAD], "exactly two linear heads"),
        ([LayerSpec("conv", 2, 4, k=3, stride=2, padding=1), HEAD, HEAD],
         "layer 0 takes 2 channels, but its input has 3"),
        ([CONV, LayerSpec("conv", 3, 4, k=3), HEAD, HEAD],
         "layer 1 takes 3 channels, but its input has 4"),
        ([CONV, LayerSpec("linear", 100, 6), HEAD], "layer 1 maps 100 to 6"),
        ([CONV, HEAD, LayerSpec("linear", 256, 5)], "layer 2 maps 256 to 5"),
    ])
    def test_constructor_refuses_bad_layers(self, layers, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            EncoderModel((3, 16, 16), layers, 6, {"a": [0]}, init_norm_slack=1.0)

    def test_layer_spec_refuses_bad_fields(self):
        for kwargs in ({"kind": "dense"}, {"k": 0}, {"stride": 1.5}, {"in_width": "3"},
                       {"gain": math.nan}, {"slope": math.inf}):
            with pytest.raises(ConfigError):
                LayerSpec(**{"kind": "conv", "in_width": 3, "out_width": 4, "k": 3,
                             **kwargs})

    def test_heads_only(self):
        m = EncoderModel((3, 4, 4), [LayerSpec("linear", 48, 6)] * 2, 6, {"a": [0]},
                         init_norm_slack=1.0)
        assert encode(m, Rng(0).normal((2, 3, 4, 4))).mu.shape == (2, 6)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_compress_keeps_geometry(self, r):
        t = build_teacher({"widths": (5, 7), "kernel": 4, "stride": 3, "padding": 2,
                           "input_shape": (2, 17, 15), "latent_dim": 6,
                           "rep_dims": {"a": [0]}})
        s = compress(t, r)
        assert s.layer_spatial() == t.layer_spatial()
        assert [(l.k, l.stride, l.padding) for l in s.layers[:2]] == [(4, 3, 2)] * 2
        feat = s.layers[1].out_width * math.prod(s.layer_spatial()[2])
        assert [(l.in_width, l.out_width) for l in s.layers[2:]] == [(feat, 6)] * 2


class TestCompress:
    def _teacher(self):
        return build_teacher({"widths": (8, 16), "latent_dim": 10,
                              "rep_dims": {"a": [1], "b": [2]}})

    def test_widths_shrink_latent_kept(self):
        t = self._teacher()
        s = compress(t, 0.5)
        assert [l.out_width for l in s.layers[:2]] == [4, 8]
        assert s.latent_dim == t.latent_dim
        assert s.rep_dims == t.rep_dims

    def test_ceil_keeps_width_positive(self):
        s = compress(self._teacher(), 0.9)
        assert all(l.out_width >= 1 for l in s.layers[:2])

    def test_bytes_strictly_decrease_with_r(self):
        t = self._teacher()
        sizes = [compress(t, r).parameter_bytes()
                 for r in np.arange(0.1, 0.91, 0.1)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_ratio_out_of_range(self):
        for r in (0.05, 0.95):
            with pytest.raises(ConfigError):
                compress(self._teacher(), r)


@pytest.fixture(scope="module")
def model():
    return build_teacher({"widths": (4, 8), "latent_dim": 10,
                          "rep_dims": {"a": [1]}, "input_shape": (3, 16, 16)})


class TestEncode:
    def test_shapes(self, model):
        x = Rng(0).normal((5, 3, 16, 16))
        lat = encode(model, x)
        assert lat.mu.shape == (5, 10) and lat.logvar.shape == (5, 10)

    def test_unbatched_matches_batched(self, model):
        x = Rng(1).normal((3, 16, 16))
        single = encode(model, x)
        batched = encode(model, x[None])
        assert np.allclose(single.mu.data, batched.mu.data[0])
        assert np.allclose(single.logvar.data, batched.logvar.data[0])

    def test_logvar_bounded(self, model):
        x = Rng(2).normal((2, 3, 16, 16)) * 1e4
        lat = encode(model, x)
        assert lat.logvar.data.min() >= -4.0
        assert lat.logvar.data.max() <= 4.0

    def test_pure_function(self, model):
        x = Rng(3).normal((2, 3, 16, 16))
        a = encode(model, x)
        b = encode(model, x)
        assert np.array_equal(a.mu.data, b.mu.data)


ACCEPTANCE_ARCH = {"widths": (8, 16, 32), "latent_dim": 16,
                   "rep_dims": {"haze": [3], "backdrop": [6]}}


@pytest.fixture(scope="module", params=["default", "acceptance"])
def training_model(request):
    """An unfrozen encoder, as the training loops encode with."""
    return build_teacher({} if request.param == "default" else ACCEPTANCE_ARCH)


class TestSplitLatent:
    @pytest.mark.parametrize("b", [1, 3, 8, 16])
    def test_groups_of_one_encode_match_separate_encodes(self, training_model, b):
        # the groups of a two-factor batch: the batch, then each pair side
        x = Rng(b).uniform(0, 1, (5 * b, 3, 32, 32))
        whole = encode(training_model, x)
        for g, part in enumerate(split_latent(whole, [b] * 5)):
            rows = slice(g * b, (g + 1) * b)
            alone = encode(training_model, x[rows])
            for got, full, want in ((part.mu, whole.mu, alone.mu),
                                    (part.logvar, whole.logvar, alone.logvar)):
                assert np.array_equal(got.data, full.data[rows])
                # the conv trunk runs each image on its own; the linear heads
                # are one matmul whose rounding of a row can depend on the
                # row count (BLAS kernel choice)
                assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(want.data).max()

    def test_bit_identical_at_the_acceptance_recipe(self):
        # criteria 4 and 5 distill the acceptance architecture in batches
        # of 8, where the fused forward is the separate one bit for bit
        model = build_teacher(ACCEPTANCE_ARCH)
        x = Rng(0).uniform(0, 1, (40, 3, 32, 32))
        for g, part in enumerate(split_latent(encode(model, x), [8] * 5)):
            alone = encode(model, x[8 * g:8 * (g + 1)])
            assert np.array_equal(part.mu.data, alone.mu.data)
            assert np.array_equal(part.logvar.data, alone.logvar.data)

    def test_sizes_in_order(self):
        lat = encode(build_teacher(ACCEPTANCE_ARCH), Rng(1).uniform(0, 1, (6, 3, 32, 32)))
        parts = split_latent(lat, [1, 0, 2, 3])
        assert [p.mu.shape[0] for p in parts] == [1, 0, 2, 3]
        assert np.array_equal(np.concatenate([p.logvar.data for p in parts]),
                              lat.logvar.data)


class TestSample:
    def test_deterministic_given_eps(self):
        mu = np.array([1.0, -2.0])
        lv = np.array([0.0, np.log(4.0)])
        lat = encoder.GaussianLatent(Tensor(mu), Tensor(lv))
        eps = np.array([0.5, -1.0])
        got = sample(lat, eps=eps).data
        assert np.allclose(got, [1.5, -4.0])   # std is exp(lv/2) = [1, 2]

    def test_variance_reading_switch(self):
        lat = encoder.GaussianLatent(Tensor(np.zeros(1)), Tensor(np.array([np.log(4.0)])))
        eps = np.ones(1)
        assert np.allclose(sample(lat, eps=eps).data, 2.0)   # sigma = exp(lv/2)

    def test_monte_carlo_moments(self):
        mu = np.array([2.0])
        lv = np.array([np.log(0.25)])
        lat = encoder.GaussianLatent(Tensor(np.tile(mu, (100000, 1))),
                                     Tensor(np.tile(lv, (100000, 1))))
        draws = sample(lat, eps=Rng(0).normal((100000, 1))).data
        assert abs(draws.mean() - 2.0) < 0.01
        assert abs(draws.std() - 0.5) < 0.01


class TestWeightFile:
    @pytest.fixture()
    def model(self):
        return build_teacher({"widths": (4,), "latent_dim": 6,
                              "rep_dims": {"a": [0]}, "input_shape": (3, 16, 16)})

    def test_round_trip(self, model, tmp_path):
        path = str(tmp_path / "m.bin")
        save_weights(model, path, meta={"seed": 1})
        back = load_weights(path)
        assert back.latent_dim == model.latent_dim
        assert back.rep_dims == model.rep_dims
        assert back.layers == model.layers
        for p, q in zip(model.params, back.params):
            assert np.array_equal(p["w"].data, q["w"].data)
            assert np.array_equal(p["b"].data, q["b"].data)
        for s, t in zip(model.snapshot, back.snapshot):
            assert np.array_equal(s, t)

    def test_round_trip_same_encoding(self, model, tmp_path):
        path = str(tmp_path / "m.bin")
        save_weights(model, path)
        x = Rng(5).normal((2, 3, 16, 16))
        a = encode(model, x)
        b = encode(load_weights(path), x)
        assert np.array_equal(a.mu.data, b.mu.data)

    def test_bad_magic(self, model, tmp_path):
        path = str(tmp_path / "m.bin")
        save_weights(model, path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"NOPE"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorruptWeightsError, match="magic"):
            load_weights(path)

    def test_flipped_payload_byte(self, model, tmp_path):
        path = str(tmp_path / "m.bin")
        save_weights(model, path)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CorruptWeightsError, match="checksum"):
            load_weights(path)

    def test_truncated_file(self, model, tmp_path):
        path = str(tmp_path / "m.bin")
        save_weights(model, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(CorruptWeightsError):
            load_weights(path)


def _small_teacher():
    return build_teacher({"widths": (8, 16, 32), "latent_dim": 16,
                          "rep_dims": {"haze": [3], "backdrop": [6]}, "seed": 5})


class TestFreeze:
    @pytest.mark.parametrize("student", [False, True])
    def test_frozen_encode_bit_equal(self, student):
        m = compress(_small_teacher(), 0.5, seed=5) if student else _small_teacher()
        rng = Rng(7)
        xs = [rng.uniform(0.0, 1.0, (3, 32, 32)), rng.uniform(0.0, 1.0, (6, 3, 32, 32))]
        want = [encode(m, x) for x in xs]
        m.freeze()
        for x, w in zip(xs, want):
            got = encode(m, x)
            assert np.array_equal(got.mu.data, w.mu.data)
            assert np.array_equal(got.logvar.data, w.logvar.data)
            assert not got.mu.requires_grad

    def test_load_weights_returns_frozen_read_only(self, tmp_path):
        path = str(tmp_path / "m.bin")
        save_weights(_small_teacher(), path)
        m = load_weights(path)
        assert m.frozen
        for t in m.trainable():
            assert not t.requires_grad and not t.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.params[0]["w"].data[0, 0, 0, 0] = 1.0
        grads = [Tensor(np.ones(t.shape)) for t in m.trainable()]
        with pytest.raises(ValueError, match="read-only"):
            adam_step(m.trainable(), grads, AdamState(), 1e-3)

    def test_effective_kernel_folds_once(self, monkeypatch):
        m = _small_teacher()
        want = [m.effective_kernel(li) for li in range(len(m.layers))]
        calls = []
        fwd = encoder._standardize_forward

        def counted(w, gain):
            calls.append(gain)
            return fwd(w, gain)

        monkeypatch.setattr(encoder, "_standardize_forward", counted)
        m.freeze()
        x = Rng(1).uniform(0.0, 1.0, (2, 3, 32, 32))
        for _ in range(2):
            encode(m, x)
            for li, k in enumerate(want):
                got = m.effective_kernel(li)
                assert np.array_equal(got, k)
                assert (m.layers[li].kind == "conv") == (not got.flags.writeable)
            m.freeze()                        # idempotent: keeps the folds
        n_std = sum(s.kind == "conv" for s in m.layers)
        assert len(calls) == n_std == 3

        # a reassigned weight array or a changed gain is folded again
        p = m.params[0]["w"]
        p.data = p.data * 2.0
        m.layers[1].gain *= 0.5
        for li in (0, 1):
            got = m.effective_kernel(li)
            assert np.array_equal(got, fwd(m.params[li]["w"].data, m.layers[li].gain)[0])
        m.effective_kernel(2)
        assert len(calls) == n_std + 2

    def test_non_finite_input_raises(self):
        m = _small_teacher()
        m.freeze()
        x = np.full((3, 32, 32), 0.5)
        x[0, 4, 4] = np.nan
        with pytest.raises(NumericError):
            encode(m, x)
