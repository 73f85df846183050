import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dde import data, train
from dde.data import ConfigError
from dde.encoder import encode
from dde.tensor import Rng
from dde.train import (dual_step, TrainConfig, TeacherConfig,
                       distill, train_teacher, _epoch_batches)

from oracles import epoch_batches_inline, dual_step_per_kind


def _table(a, i):
    """{("A"|"I", "f"): value} of one factor "f"."""
    return {("A", "f"): a, ("I", "f"): i}


class TestDualStep:
    def test_hand_arithmetic(self):
        nxt = dual_step(_table(2.0, 2.0), _table(0.05, 0.05), _table(0.4, 0.0))
        assert nxt[("A", "f")] == pytest.approx(2.02)
        assert nxt[("I", "f")] == pytest.approx(2.0)

    def test_projection_at_zero(self):
        nxt = dual_step(_table(0.0, 0.0), _table(0.5, 0.5), {("A", "f"): 0.0})
        assert nxt == _table(0.0, 0.0)

    def test_pure(self):
        lambdas = _table(1.0, 1.0)
        dual_step(lambdas, _table(0.1, 0.1), {("A", "f"): 0.3})
        assert lambdas == _table(1.0, 1.0)

    def test_rejects_negative_hinge(self):
        with pytest.raises(ConfigError):
            dual_step(_table(1.0, 1.0), _table(0.1, 0.1), {("A", "f"): -0.1})

    def test_rejects_negative_lambda(self):
        with pytest.raises(ConfigError, match="dual_init"):
            train._resolve_duals(TrainConfig(dual_init={("A", "f"): -1.0}), ["f"])

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3),
           lam=st.lists(st.floats(0, 10), min_size=6, max_size=6),
           eta=st.lists(st.floats(0, 10), min_size=6, max_size=6),
           h=st.lists(st.floats(0, 2), min_size=6, max_size=6))
    def test_property_matches_per_kind_oracle(self, n, lam, eta, h):
        keys = [(k, f"f{j}") for j in range(n) for k in "AI"]
        lambdas, rates, hinges = ({k: v for k, v in zip(keys, vals)}
                                  for vals in (lam, eta, h))
        got = dual_step(lambdas, rates, hinges)
        la, li = dual_step_per_kind(lambdas, rates, hinges)
        for (kind, f), v in got.items():
            assert v == (la if kind == "A" else li)[f]      # bit for bit
            assert v >= max(lambdas[(kind, f)], 0.0)


class TestEpochBatches:
    @pytest.mark.parametrize("batch_size", [1, 4, 8])
    def test_matches_inline_loop_and_rng_state(self, tiny_dataset, batch_size):
        factors = [s.name for s in tiny_dataset.specs]
        train_idx = tiny_dataset.indices("train")
        want_rng, got_rng = Rng(5), Rng(5)
        for _ in range(2):                      # two epochs share one stream
            want = epoch_batches_inline(want_rng, tiny_dataset, train_idx,
                                        factors, batch_size, 10)
            got = []
            for xs, pairs in _epoch_batches(got_rng, tiny_dataset, train_idx,
                                            factors, batch_size):
                # the body's own draws interleave with the batches
                got.append((xs, {f: (*pairs[f], got_rng.normal((len(xs), 10)))
                                 for f in factors}))
            assert len(got) == len(want) == -(-len(train_idx) // batch_size)
            for (gx, gp), (wx, wp) in zip(got, want):
                assert np.array_equal(gx, wx)
                for f in factors:
                    for g, w in zip(gp[f], wp[f]):
                        assert np.array_equal(g, w)
        assert got_rng._gen.bit_generator.state == want_rng._gen.bit_generator.state

    def test_teacher_missing_pairs_rejected(self):
        ds = data.generate(data.default_factor_specs(),
                           {"train": 2, "calibration": 1, "test": 1}, seed=0)
        with pytest.raises(ConfigError, match="pair set"):
            train_teacher(ds, TeacherConfig(epochs=0))


class TestDistill:
    def test_trace_and_lambda_monotone_while_violated(self, tiny_teacher, tiny_dataset):
        cfg = TrainConfig(epochs=2, batch_size=8, seed=0)
        student, trace = distill(tiny_teacher, tiny_dataset, cfg)
        assert len(trace.records) <= 2
        assert trace.batch_records
        for rec in trace.batch_records:
            for key, h in rec["hinges"].items():
                before = rec["lambda_before"][key]
                after = rec["lambda_after"][key]
                assert after >= 0.0
                if h > 0:
                    assert after >= before

    def test_epoch_rows_summarize_batch_records(self, tiny_teacher, tiny_dataset):
        cfg = TrainConfig(epochs=2, batch_size=4, seed=0)
        _, trace = distill(tiny_teacher, tiny_dataset, cfg)
        for rec in trace.records:
            batches = [br for br in trace.batch_records if br["epoch"] == rec["epoch"]]
            assert rec["L_D"] == float(np.mean([br["L_D"] for br in batches]))
            for (kind, f), lam in batches[-1]["lambda_after"].items():
                assert rec[f"lambda_{kind}_{f}"] == lam
                assert rec[f"hinge_{kind}_{f}"] == float(
                    np.mean([br["hinges"][(kind, f)] for br in batches]))

    def test_zero_duals_zero_rates_is_pure_distillation(self, tiny_teacher, tiny_dataset):
        factors = [s.name for s in tiny_dataset.specs]
        zeros = {(k, f): 0.0 for k in ("A", "I") for f in factors}
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0,
                          dual_init=dict(zeros), dual_rates=dict(zeros))
        student, trace = distill(tiny_teacher, tiny_dataset, cfg)
        rec = trace.records[-1]
        for f in factors:
            assert rec[f"lambda_A_{f}"] == 0.0
            assert rec[f"lambda_I_{f}"] == 0.0

    def test_deterministic(self, tiny_teacher, tiny_dataset):
        cfg = TrainConfig(epochs=1, batch_size=8, seed=5)
        s1, t1 = distill(tiny_teacher, tiny_dataset, cfg)
        s2, t2 = distill(tiny_teacher, tiny_dataset, cfg)
        for p, q in zip(s1.params, s2.params):
            assert np.array_equal(p["w"].data, q["w"].data)
        assert t1.records == t2.records

    def test_distill_reduces_loss(self, tiny_teacher, tiny_dataset):
        cfg = TrainConfig(epochs=4, batch_size=8, seed=0, lr=1e-3)
        _, trace = distill(tiny_teacher, tiny_dataset, cfg)
        assert trace.records[-1]["L_D"] < trace.records[0]["L_D"]

    def test_teacher_unchanged(self, tiny_teacher, tiny_dataset):
        before = [p["w"].data.copy() for p in tiny_teacher.params]
        distill(tiny_teacher, tiny_dataset, TrainConfig(epochs=1, batch_size=8))
        for b, p in zip(before, tiny_teacher.params):
            assert np.array_equal(b, p["w"].data)

    def test_missing_pairs_rejected(self, tiny_teacher):
        ds = data.generate(data.default_factor_specs(),
                           {"train": 2, "calibration": 1, "test": 1}, seed=0)
        with pytest.raises(ConfigError, match="pair set"):
            distill(tiny_teacher, ds, TrainConfig(epochs=1))

    def test_partial_tables_keep_other_defaults(self):
        cfg = TrainConfig(margins={("A", "haze"): 0.2, ("I", "haze"): 0.3},
                          dual_init={("A", "backdrop"): 1.5},
                          dual_rates={("I", "haze"): 0.0})
        margins, lambdas, rates = train._resolve_duals(cfg, ["haze", "backdrop"])
        assert margins == {("A", "haze"): 0.2, ("I", "haze"): 0.3,
                           ("A", "backdrop"): 0.0001, ("I", "backdrop"): 0.0001}
        assert lambdas == {("A", "haze"): 2.0, ("I", "haze"): 2.0,
                           ("A", "backdrop"): 1.5, ("I", "backdrop"): 10.0}
        assert rates == {("A", "haze"): 0.05, ("I", "haze"): 0.0,
                         ("A", "backdrop"): 0.5, ("I", "backdrop"): 0.5}

    @pytest.mark.parametrize("table", ["margins", "dual_init", "dual_rates"])
    def test_resolve_duals_rejects_negative_value(self, table):
        cfg = TrainConfig(**{table: {("I", "haze"): -0.1}})
        with pytest.raises(ConfigError, match=rf"distill\.{table}\[I\]\[haze\]"):
            train._resolve_duals(cfg, ["haze", "backdrop"])

    def test_trace_csv(self, tiny_teacher, tiny_dataset, tmp_path):
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0)
        _, trace = distill(tiny_teacher, tiny_dataset, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path), meta={"seed": 0})
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,L_D,")
        assert "seed" in lines[0]
        assert len(lines) == 1 + len(trace.records)
        # floats round-trip exactly through repr()
        first = lines[1].split(",")[1]
        assert float(first) == trace.records[0]["L_D"]


class TestTeacherDisentanglement:
    def test_rep_shift_ratio(self, tiny_teacher, tiny_dataset):
        """The trained teacher's representative dims should move more under a
        change of their factor than the other dims do, and more so than an
        untrained encoder of the same shape."""
        from conftest import TINY_ARCH
        from dde.encoder import build_teacher

        def ratio(model, factor):
            pairs = tiny_dataset.pair_sets[factor].pairs[:20]
            ia = [i for i, _ in pairs]
            ib = [j for _, j in pairs]
            la = encode(model, tiny_dataset.images[ia])
            lb = encode(model, tiny_dataset.images[ib])
            dmu = np.abs(la.mu.data - lb.mu.data)
            zf = model.rep_dims[factor]
            comp = [k for k in range(model.latent_dim) if k not in set(zf)]
            return dmu[:, zf].mean() / max(dmu[:, comp].mean(), 1e-12)

        fresh = build_teacher(dict(TINY_ARCH, seed=123))
        for factor in ("haze", "backdrop"):
            assert ratio(tiny_teacher, factor) > 1.5
            assert ratio(tiny_teacher, factor) > 1.5 * ratio(fresh, factor)


def test_teacher_deterministic(tiny_dataset):
    from conftest import TINY_ARCH
    cfg = TeacherConfig(arch=dict(TINY_ARCH), epochs=1, batch_size=8, seed=3)
    a = train_teacher(tiny_dataset, cfg)
    b = train_teacher(tiny_dataset, cfg)
    for p, q in zip(a.params, b.params):
        assert np.array_equal(p["w"].data, q["w"].data)


# the two training loops, each run for `epochs` on the tiny fixtures
def _run_loop(loop, teacher, dataset, epochs=1):
    from conftest import TINY_ARCH
    if loop == "distill":
        return distill(teacher, dataset, TrainConfig(epochs=epochs, batch_size=8, seed=0))
    return train_teacher(dataset, TeacherConfig(arch=dict(TINY_ARCH), epochs=epochs,
                                                batch_size=8, seed=3))


def _spy(monkeypatch, name, before):
    """Rebind dde.train.<name> to a wrapper that calls before(*args) first."""
    real = getattr(train, name)

    def wrapper(*args):
        before(*args)
        return real(*args)
    monkeypatch.setattr(train, name, wrapper)


def _encode_each_group(monkeypatch):
    """Make a loop encode each group of its batch on its own (five encodes of
    a two-factor batch) instead of their concatenation in one call."""
    real = train.encode
    monkeypatch.setattr(train, "encode", lambda model, x: (model, x))
    monkeypatch.setattr(train, "split_latent", lambda pending, sizes: [
        real(pending[0], part) for part in np.split(pending[1], np.cumsum(sizes)[:-1])])


@pytest.mark.parametrize("loop", ["distill", "teacher"])
class TestOneEncodePerBatch:
    def test_gradients_match_separate_encodes(self, monkeypatch, tiny_teacher,
                                              tiny_dataset, loop):
        # the weight gradients of the first step; the forward may round a row
        # of the linear heads differently when the row count changes, and the
        # backward sums the batch in another order
        steps = {}
        for how in ("one call", "each group"):
            with monkeypatch.context() as m:
                if how == "each group":
                    _encode_each_group(m)
                got = steps[how] = []
                _spy(m, "adam_step", lambda params, grads, *_: got.append(
                    [g.data.copy() for g in grads]))
                _run_loop(loop, tiny_teacher, tiny_dataset)
        fused, separate = steps["one call"][0], steps["each group"][0]
        assert len(fused) == len(separate) > 0
        for a, b in zip(fused, separate):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    def test_each_batch_encoded_once(self, monkeypatch, tiny_teacher, tiny_dataset, loop):
        calls = {"encode": 0, "adam_step": 0}
        for name in calls:
            _spy(monkeypatch, name, lambda *_, name=name: calls.__setitem__(
                name, calls[name] + 1))
        _run_loop(loop, tiny_teacher, tiny_dataset, epochs=2)
        assert calls["encode"] == calls["adam_step"] > 2

    def test_previous_tape_dead_before_next_batch(self, monkeypatch, tiny_teacher,
                                                   tiny_dataset, loop):
        # weak references to the arrays of each batch's encode output and
        # loss root (an array lives as long as its tensor): all of them are
        # dead when the next batch's encode starts, and the last root is dead
        # when the next batch's grad starts; with the cyclic collector off,
        # only reference counts free a tape
        refs, alive = [], []
        real_encode, real_grad = train.encode, train.grad

        def encode(model, x):
            alive.append(any(r() is not None for r in refs))
            out = real_encode(model, x)
            refs.append(weakref.ref(out.mu.data))
            return out

        def grad(root, leaves):
            alive.append(any(r() is not None for r in refs[:-1]))
            refs.append(weakref.ref(root.data))
            return real_grad(root, leaves)
        monkeypatch.setattr(train, "encode", encode)
        monkeypatch.setattr(train, "grad", grad)
        gc.disable()
        try:
            _run_loop(loop, tiny_teacher, tiny_dataset, epochs=2)
        finally:
            gc.enable()
        assert len(refs) > 4 and not any(alive)


def test_mutual_info_once_per_pair_side(monkeypatch, tiny_teacher, tiny_dataset):
    # each factor's two pair sides have one pointwise MI table apiece, which
    # the adaptability and the isolation loss share; calls from inside
    # dde.losses count too
    from dde import losses
    calls = {"mutual_info": 0, "adam_step": 0}
    real = losses.mutual_info

    def mutual_info(*args):
        calls["mutual_info"] += 1
        return real(*args)
    monkeypatch.setattr(losses, "mutual_info", mutual_info)
    monkeypatch.setattr(train, "mutual_info", mutual_info)
    _spy(monkeypatch, "adam_step", lambda *_: calls.__setitem__(
        "adam_step", calls["adam_step"] + 1))
    _run_loop("distill", tiny_teacher, tiny_dataset, epochs=2)
    assert calls["adam_step"] > 2
    assert calls["mutual_info"] == 2 * len(tiny_dataset.specs) * calls["adam_step"]
