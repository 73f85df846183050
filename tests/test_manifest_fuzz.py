"""Property-based fuzz of the dataset files, through `main()`.  A tiny valid
dataset has up to two values of its manifest, at any depth, replaced by
arbitrary JSON, or the header of one of its PPMs replaced by drawn bytes,
and `train-teacher` (with no epochs) runs on it.  It must exit 0, 2 or 3;
any exception escaping `main()` is a traceback.  On exit 0 the teacher file
it wrote must load back with every parameter finite.  `data.load` refuses a PPM
whose dims are not the manifest's `image_size` before it reads the pixels,
and every image is 16x16, so no example allocates more than a few KB."""

import contextlib
import io
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dde import data
from dde.cli import main
from dde.encoder import load_weights

JSON_LEAF = (st.none() | st.booleans() | st.integers(-3, 50)
             | st.floats(-1e3, 1e3) | st.sampled_from([math.nan, math.inf, 10**18])
             | st.text(max_size=3) | st.sampled_from(["haze", "backdrop", "train", "test"]))
JSON = st.recursive(JSON_LEAF, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=6)
DIM = st.integers(-2, 40).map(str) | st.sampled_from(["16", "1e2", "x", "100000000"])
HEADER = (st.tuples(st.sampled_from(["P6", "P3", ""]), DIM, DIM, st.sampled_from(["255", "65535"]))
          .map(lambda t: f"{t[0]}\n{t[1]} {t[2]}\n{t[3]}\n".encode("ascii"))
          | st.binary(max_size=24))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("mfuzz")
    ds = data.generate(data.default_factor_specs(),
                       {"train": 1, "calibration": 1, "test": 1},
                       image_size=(16, 16), seed=2)
    data.build_all_pairs(ds, 4, seed=2)
    data.save(ds, str(d / "ds"))
    (d / "cfg.json").write_text(json.dumps({"teacher": {"epochs": 0, "arch": {
        "widths": [2], "latent_dim": 4, "input_shape": [3, 16, 16],
        "rep_dims": {"haze": [0], "backdrop": [1]}}}}))
    return d


def _paths(value, path=()):
    """The path of every value inside a JSON value, as a tuple of keys."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edited_dataset_exits_0_2_or_3(files, data):
    ds = files / "edited"
    shutil.rmtree(ds, ignore_errors=True)
    shutil.copytree(files / "ds", ds)
    manifest = json.loads((ds / "manifest.json").read_text())
    if data.draw(st.booleans()):
        # as in the config fuzz, a depth is drawn first, so that the deep
        # values (factor values, pair indices) are hit as often as the rest
        for _ in range(data.draw(st.integers(1, 2))):
            paths = list(_paths(manifest))
            if paths:
                depth = data.draw(st.sampled_from(sorted({len(p) for p in paths})))
                *parent, last = data.draw(st.sampled_from(
                    [p for p in paths if len(p) == depth]))
                target = manifest
                for k in parent:
                    target = target[k]
                target[last] = data.draw(JSON)
        (ds / "manifest.json").write_text(json.dumps(manifest))
    else:
        sample = data.draw(st.sampled_from(manifest["samples"]))
        ppm = ds / sample["file"]
        pixels = ppm.read_bytes()[len(b"P6\n16 16\n255\n"):]
        ppm.write_bytes(data.draw(HEADER) + pixels[:data.draw(st.sampled_from(
            [len(pixels), len(pixels) - 1, 0]))])

    _check_train_teacher(files, ds)


def _check_train_teacher(files, ds):
    """Run `train-teacher` on dataset `ds`: it exits 0, 2 or 3 with no
    traceback, and on exit 0 its teacher file loads with every parameter
    finite.  Returns the exit code."""
    out = files / "t.bin"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["train-teacher", "--config", str(files / "cfg.json"),
                   "--data", str(ds), "--out", str(out)])
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        model = load_weights(str(out))
        assert all(np.isfinite(t.data).all() for p in model.params for t in p.values())
    return rc


def test_unedited_dataset_trains_and_reloads(files):
    # few edits leave a dataset that trains, so the exit-0 branch of the fuzz
    # is checked here on the dataset as written
    assert _check_train_teacher(files, files / "ds") == 0
