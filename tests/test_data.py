import json
import os

import numpy as np
import pytest

from dde import data
from dde.data import (FactorSpec, ConfigError, FactorError, ParseError,
                      default_factor_specs, generate, partition,
                      build_pairs, build_all_pairs, save, load,
                      chi_of_dataset)


@pytest.fixture(scope="module")
def ds():
    d = generate(default_factor_specs(),
                 {"train": 5, "calibration": 3, "test": 2}, seed=4)
    build_all_pairs(d, 40, seed=4)
    return d


class TestFactorSpec:
    def test_needs_two_values(self):
        with pytest.raises(ConfigError):
            FactorSpec("x", (1,), (1,), "overlay-intensity")

    def test_train_subset_of_observed(self):
        with pytest.raises(ConfigError):
            FactorSpec("x", (1, 2), (1, 3), "overlay-intensity")

    def test_unknown_render(self):
        with pytest.raises(ConfigError):
            FactorSpec("x", (1, 2), (1, 2), "sparkles")


class TestGenerate:
    def test_split_sizes(self, ds):
        # 2x2 train combos get all three splits; all 12 combos get test
        assert len(ds.indices("train")) == 4 * 5
        assert len(ds.indices("calibration")) == 4 * 3
        assert len(ds.indices("test")) == 12 * 2

    def test_images_shape_and_range(self, ds):
        assert ds.images.shape[1:] == (3, 32, 32)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_images_quantized_to_byte_grid(self, ds):
        assert np.allclose(ds.images * 255.0, np.round(ds.images * 255.0), atol=1e-9)

    def test_haze_brightens_monotonically(self):
        specs = default_factor_specs()
        d = generate(specs, {"train": 1, "calibration": 1, "test": 1}, seed=0)
        means = {}
        for i in d.indices("test"):
            if d.factors[i]["backdrop"] == "stripes":
                means[d.factors[i]["haze"]] = d.images[i].mean()
        hs = sorted(means)
        assert all(means[a] < means[b] for a, b in zip(hs, hs[1:]))

    def test_train_split_only_train_values(self, ds):
        for i in ds.indices("train") + ds.indices("calibration"):
            for s in ds.specs:
                assert ds.factors[i][s.name] in s.train_values

    def test_deterministic(self):
        a = generate(default_factor_specs(), {"train": 2, "calibration": 1, "test": 1}, seed=9)
        b = generate(default_factor_specs(), {"train": 2, "calibration": 1, "test": 1}, seed=9)
        assert a == b

    def test_rejects_small_images(self):
        with pytest.raises(ConfigError):
            generate(default_factor_specs(), {"train": 1, "calibration": 1, "test": 1},
                     image_size=(8, 8))

    def test_rejects_zero_counts(self):
        with pytest.raises(ConfigError):
            generate(default_factor_specs(), {"train": 0, "calibration": 1, "test": 1})


class TestPartition:
    def test_partition_count_and_sizes(self, ds):
        parts = partition(ds)
        assert len(parts) == 4          # 2 train haze values x 2 train backdrops
        assert all(len(p.indices) == 5 for p in parts)

    def test_partition_covers_train_split(self, ds):
        covered = sorted(i for p in partition(ds) for i in p.indices)
        assert covered == ds.indices("train")

    def test_assignments_match_samples(self, ds):
        for p in partition(ds):
            for i in p.indices:
                for f, v in p.assignment.items():
                    assert ds.factors[i][f] == v


class TestPairs:
    def test_pairs_differ_only_in_factor(self, ds):
        for f, ps in ds.pair_sets.items():
            assert len(ps.pairs) == 40
            for i, j in ps.pairs:
                diffs = [k for k in ds.factors[i]
                         if ds.factors[i][k] != ds.factors[j][k]]
                assert diffs == [f]

    def test_pairs_from_train_split(self, ds):
        for ps in ds.pair_sets.values():
            for i, j in ps.pairs:
                assert ds.splits[i] == ds.splits[j] == "train"

    def test_no_qualifying_pairs_raises(self, ds):
        with pytest.raises(FactorError):
            build_pairs(partition(ds), "nonexistent", 5)

    def test_deterministic(self, ds):
        parts = partition(ds)
        a = build_pairs(parts, "haze", 25, seed=3)
        b = build_pairs(parts, "haze", 25, seed=3)
        assert a.pairs == b.pairs


class TestRoundTrip:
    def test_save_load_identity(self, ds, tmp_path):
        save(ds, str(tmp_path))
        assert load(str(tmp_path)) == ds

    def test_manifest_is_sorted_json(self, ds, tmp_path):
        save(ds, str(tmp_path))
        text = (tmp_path / "manifest.json").read_text()
        obj = json.loads(text)
        assert text == json.dumps(obj, indent=1, sort_keys=True)

    def test_missing_field_names_it(self, ds, tmp_path):
        save(ds, str(tmp_path))
        path = tmp_path / "manifest.json"
        m = json.loads(path.read_text())
        del m["samples"][0]["split"]
        path.write_text(json.dumps(m))
        with pytest.raises(ParseError, match="split"):
            load(str(tmp_path))

    def test_invalid_json_reports_line(self, ds, tmp_path):
        save(ds, str(tmp_path))
        path = tmp_path / "manifest.json"
        path.write_text(path.read_text()[:-5])
        with pytest.raises(ParseError, match="line"):
            load(str(tmp_path))

    def test_truncated_ppm(self, ds, tmp_path):
        save(ds, str(tmp_path))
        p = tmp_path / "sample_000000.ppm"
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(ParseError, match="truncated"):
            load(str(tmp_path))


class TestHandWrittenManifest:
    """A dataset written by hand, independent of the save() path."""

    def test_load(self, tmp_path):
        img = np.zeros((3, 16, 16), dtype=np.uint8)
        img[0] = 255
        for name in ("a.ppm", "b.ppm"):
            with open(tmp_path / name, "wb") as f:
                f.write(b"P6\n16 16\n255\n")
                f.write(img.transpose(1, 2, 0).tobytes())
        manifest = {
            "seed": 42,
            "image_size": [16, 16],
            "factor_specs": [
                {"name": "haze", "observed_values": [0.0, 1.0],
                 "train_values": [0.0, 1.0], "render": "overlay-intensity"},
            ],
            "samples": [
                {"file": "a.ppm", "factors": {"haze": 0.0},
                 "split": "train", "partition": "haze=0.0"},
                {"file": "b.ppm", "factors": {"haze": 1.0},
                 "split": "test", "partition": "haze=1.0"},
            ],
            "pairs": {"haze": [[0, 1]]},
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        ds = load(str(tmp_path))
        assert ds.seed == 42
        assert len(ds.images) == 2
        assert np.allclose(ds.images[0][0], 1.0)
        assert np.allclose(ds.images[0][1:], 0.0)
        assert ds.indices("train") == [0]
        assert ds.pair_sets["haze"].pairs == [(0, 1)]


def test_chi_is_max_train_norm(ds):
    want = max(np.linalg.norm(ds.images[i].ravel()) for i in ds.indices("train"))
    assert chi_of_dataset(ds) == pytest.approx(want, rel=0, abs=0)


def test_write_csv_floats_by_repr_then_meta(tmp_path):
    path = tmp_path / "rows.csv"
    data.write_csv(str(path), ["a", "b"], [{"a": 1, "b": 0.1 + 0.2}, {"b": 2.5, "a": 3}],
                   {"seed": 7, "tag": "x"})
    assert path.read_bytes() == (b"a,b,seed,tag\r\n1,0.30000000000000004,7,x\r\n"
                                 b"3,2.5,7,x\r\n")
