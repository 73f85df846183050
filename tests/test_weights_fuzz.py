"""Property-based fuzz of the weight-file header, through `main()`.  A tiny
model's layer fields, input_shape, latent_dim and rep_dims are edited, the
payload is kept or (when the edited layers have sizes) refilled with zeros
of the edited size, and the checksum is fixed up, so the file reaches the
header and geometry checks.  `certify` must then exit 0 or 3, or exit 2
naming a model that does not fit the dataset; any other exception escaping
`main()` is a traceback.  Every integer stays small, so no example
allocates more than a few hundred kilobytes."""

import contextlib
import io
import json
import math
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from dde import data
from dde.cli import main
from dde.encoder import MAGIC, build_teacher, save_weights

INT_FIELDS = ("in_width", "out_width", "k", "stride", "padding")
SMALL = st.integers(-2, 12) | st.sampled_from([None, "3", 2.5])
FIT_ERRORS = ("dataset images have shape", "has no representative dims")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("wfuzz")
    ds = data.generate(data.default_factor_specs(),
                       {"train": 1, "calibration": 1, "test": 1},
                       image_size=(16, 16), seed=2)
    data.build_all_pairs(ds, 4, seed=2)
    data.save(ds, str(d / "ds"))
    model = build_teacher({"widths": (2,), "latent_dim": 4, "input_shape": (3, 16, 16),
                           "rep_dims": {"haze": [0], "backdrop": [1]}})
    save_weights(model, str(d / "m.bin"))
    (d / "cfg.json").write_text("{}")
    return d


def _layer_floats(layer) -> int:
    """Floats that the payload holds for one layer: weight, bias, snapshot."""
    shape = (layer["out_width"], layer["in_width"])
    if layer["kind"] == "conv":
        shape += (layer["k"], layer["k"])
    return 2 * math.prod(shape) + layer["out_width"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edited_header_exits_0_2_or_3(files, data):
    blob = (files / "m.bin").read_bytes()
    (hlen,) = struct.unpack("<Q", blob[4:12])
    header = json.loads(blob[12:12 + hlen])
    payload = blob[12 + hlen:-4]
    layers = header["layers"]
    for what in data.draw(st.lists(st.sampled_from(
            ["layer", "input_shape", "latent_dim", "rep_dims"]), min_size=1, max_size=3)):
        if what == "layer":
            layer = layers[data.draw(st.integers(0, len(layers) - 1))]
            field = data.draw(st.sampled_from(("kind",) + INT_FIELDS))
            layer[field] = data.draw(st.sampled_from(["conv", "linear", "dense"])
                                     if field == "kind" else SMALL)
        elif what == "input_shape":
            header[what] = data.draw(st.lists(st.integers(-1, 20), min_size=2, max_size=4))
        elif what == "latent_dim":
            header[what] = data.draw(SMALL)
        else:
            header[what] = data.draw(st.dictionaries(
                st.sampled_from(["haze", "backdrop", "hze"]),
                st.lists(st.integers(-1, 12), max_size=3), max_size=3))
    sized = all(isinstance(layer[f], int) and layer[f] >= 0
                for layer in layers for f in INT_FIELDS)
    if sized and data.draw(st.booleans()):
        payload = bytes(8 * sum(_layer_floats(layer) for layer in layers))
    hjson = json.dumps(header).encode("utf-8")
    head = MAGIC + struct.pack("<Q", len(hjson)) + hjson
    (files / "edited.bin").write_bytes(
        head + payload + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["certify", "--config", str(files / "cfg.json"),
                   "--data", str(files / "ds"), "--model", str(files / "edited.bin"),
                   "--out-json", str(files / "c.json"), "--out-csv", str(files / "z.csv")])
    assert rc in (0, 2, 3), err.getvalue()
    if rc == 2:
        assert any(m in err.getvalue() for m in FIT_ERRORS), err.getvalue()
