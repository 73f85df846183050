import dataclasses
import json
import math
import os
import shutil
import struct
import zlib

import numpy as np
import pytest

from dde import cli
from dde.cli import main, load_config, config_hash
from dde.data import ConfigError
from dde.encoder import DEFAULT_ARCH, MAGIC, LayerSpec
from dde.spectral import DEFAULT_CERT_CONSTANTS
from dde.train import TeacherConfig, TrainConfig
from dde import data


SMALL_CFG = {
    "seed": 3,
    "data": {"counts": {"train": 4, "calibration": 3, "test": 3},
             "pairs_per_factor": 20},
    "teacher": {"epochs": 1,
                "arch": {"widths": [4, 8], "latent_dim": 10,
                         "rep_dims": {"haze": [1], "backdrop": [3]}}},
    "distill": {"epochs": 1, "ratio": 0.5},
    "bench": {"runs": 5},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CFG))
    assert main(["gen-data", "--config", str(cfg), "--out", str(d / "ds")]) == 0
    assert main(["train-teacher", "--config", str(cfg), "--data", str(d / "ds"),
                 "--out", str(d / "teacher.bin")]) == 0
    assert main(["distill", "--config", str(cfg), "--data", str(d / "ds"),
                 "--teacher", str(d / "teacher.bin"),
                 "--out", str(d / "student.bin"),
                 "--trace", str(d / "trace.csv")]) == 0
    return d


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 1, "bogus": {}}))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(p))

    def test_unknown_section_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"data": {"countz": {}}}))
        with pytest.raises(ConfigError, match="countz"):
            load_config(str(p))

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"seed": 1,\n "data": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(p))

    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nope": 1}))
        assert main(["gen-data", "--config", str(p), "--out", str(tmp_path / "d")]) == 2

    def test_ood_k_is_not_a_config_key(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"ood": {"percentile": 5.0, "k": {"haze": 3}}}))
        assert main(["gen-data", "--config", str(p), "--out", str(tmp_path / "d")]) == 2
        assert "unknown config key 'k'" in capsys.readouterr().err

    def test_counts_must_be_an_object(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"data": {"counts": [1, 2]}}))
        assert main(["gen-data", "--config", str(p), "--out", str(tmp_path / "d")]) == 2
        assert "config key 'data.counts' must be dict" in capsys.readouterr().err

    def test_non_numeric_teacher_epochs_exits_2(self, workdir, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"teacher": {"epochs": "abc"}}))
        assert main(["train-teacher", "--config", str(p), "--data", str(workdir / "ds"),
                     "--out", str(tmp_path / "t.bin")]) == 2
        assert "config key 'teacher.epochs' must be int" in capsys.readouterr().err

    def test_null_distill_batch_size_exits_2(self, workdir, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"distill": {"batch_size": None}}))
        assert main(["distill", "--config", str(p), "--data", str(workdir / "ds"),
                     "--teacher", str(workdir / "teacher.bin"),
                     "--out", str(tmp_path / "s.bin")]) == 2
        assert "config key 'distill.batch_size' must be int" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["gen-data", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "d")]) == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["gen-data"])
        assert e.value.code == 2

    def test_config_hash_is_stable(self):
        a = config_hash({"b": 1, "a": 2})
        b = config_hash({"a": 2, "b": 1})
        assert a == b and len(a) == 64


class TestArtifacts:
    def test_manifest_embeds_provenance(self, workdir):
        m = json.loads((workdir / "ds" / "manifest.json").read_text())
        prov = m["provenance"]
        assert prov["seed"] == 3
        assert len(prov["config_sha256"]) == 64
        assert prov["version"]

    def test_weight_files_embed_provenance(self, workdir):
        import struct
        blob = (workdir / "teacher.bin").read_bytes()
        (hlen,) = struct.unpack("<Q", blob[4:12])
        header = json.loads(blob[12:12 + hlen])
        assert header["meta"]["seed"] == 3

    def test_trace_csv_has_provenance_columns(self, workdir):
        head = (workdir / "trace.csv").read_text().splitlines()[0]
        for col in ("config_sha256", "seed", "version"):
            assert col in head

    def test_certify_outputs(self, workdir):
        cfg = workdir / "cfg.json"
        rc = main(["certify", "--config", str(cfg), "--data", str(workdir / "ds"),
                   "--model", str(workdir / "student.bin"),
                   "--out-json", str(workdir / "cert.json"),
                   "--out-csv", str(workdir / "zeta.csv")])
        assert rc == 0
        rep = json.loads((workdir / "cert.json").read_text())
        assert set(rep["zeta"]) == {"D", "A", "I"}
        assert rep["provenance"]["seed"] == 3
        rows = (workdir / "zeta.csv").read_text().strip().splitlines()
        assert rows[0].startswith("m,")
        assert len(rows) == 1 + len(rep["zeta_vs_m"])

    def test_evaluate_output(self, workdir):
        cfg = workdir / "cfg.json"
        rc = main(["evaluate", "--config", str(cfg), "--data", str(workdir / "ds"),
                   "--teacher", str(workdir / "teacher.bin"),
                   "--student", str(workdir / "student.bin"),
                   "--out", str(workdir / "eval.json")])
        assert rc == 0
        rep = json.loads((workdir / "eval.json").read_text())
        assert set(rep["auroc"]) == {"teacher", "student"}
        assert set(rep["auroc"]["teacher"]) == {"haze", "backdrop"}
        assert rep["model_bytes"]["student"] < rep["model_bytes"]["teacher"]
        assert rep["timing"]["student"]["runs"] == 5

    def test_corrupt_weights_exit_3(self, workdir, tmp_path):
        bad = tmp_path / "bad.bin"
        blob = bytearray((workdir / "student.bin").read_bytes())
        blob[-1] ^= 0xFF
        bad.write_bytes(bytes(blob))
        rc = main(["certify", "--config", str(workdir / "cfg.json"),
                   "--data", str(workdir / "ds"), "--model", str(bad),
                   "--out-json", str(tmp_path / "c.json"),
                   "--out-csv", str(tmp_path / "z.csv")])
        assert rc == 3


def _cut_in_header(blob):
    return blob[:12 + 20]


def _cut_before_header_length(blob):
    return blob[:8]


def _bad_utf8_header_byte(blob):
    return blob[:12] + b"\xff" + blob[13:]


def _missing_header_key(blob):
    (hlen,) = struct.unpack("<Q", blob[4:12])
    header = json.loads(blob[12:12 + hlen])
    del header["latent_dim"]
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:4] + struct.pack("<Q", len(hjson)) + hjson + blob[12 + hlen:]


def _edited_gain(blob):
    (hlen,) = struct.unpack("<Q", blob[4:12])
    header = json.loads(blob[12:12 + hlen])
    header["layers"][0]["gain"] = 9.0
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:4] + struct.pack("<Q", len(hjson)) + hjson + blob[12 + hlen:]


def test_edited_weight_header_exits_3(workdir, tmp_path, capsys):
    # the header parses and describes a valid model, but the checksum covers it
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_edited_gain((workdir / "student.bin").read_bytes()))
    rc = main(["certify", "--config", str(workdir / "cfg.json"),
               "--data", str(workdir / "ds"), "--model", str(bad),
               "--out-json", str(tmp_path / "c.json"),
               "--out-csv", str(tmp_path / "z.csv")])
    assert rc == 3
    assert "checksum mismatch" in capsys.readouterr().err


def _resealed(blob, edit, tail=b"", resize=False):
    """`blob` with `edit(header)` applied, `tail` appended to the payload and
    a valid checksum; with `resize`, the payload is zeros sized to the
    edited layers."""
    (hlen,) = struct.unpack("<Q", blob[4:12])
    header = json.loads(blob[12:12 + hlen])
    edit(header)
    payload = blob[12 + hlen:-4] + tail
    if resize:
        specs = [LayerSpec(**s) for s in header["layers"]]
        payload = bytes(8 * sum(2 * math.prod(s.weight_shape) + s.out_width
                                for s in specs))
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    head = MAGIC + struct.pack("<Q", len(hjson)) + hjson
    return head + payload + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head)))


def _set_layer(li, **fields):
    return lambda header: header["layers"][li].update(fields)


def _set_input_shape(shape):
    return lambda header: header.update(input_shape=shape)


@pytest.mark.parametrize("edit, kwargs, message", [
    (_set_layer(0, k=-1), {}, "layer k must be an integer >= 1"),
    (_set_layer(0, stride=0), {}, "layer stride must be an integer >= 1"),
    (_set_layer(0, padding=-1), {}, "layer padding must be an integer >= 0"),
    (_set_input_shape([3, 32]), {}, "input_shape must be 3 integers >= 1"),
    (_set_input_shape([3, 2, 2]), {}, "but a head maps the trunk's 4 to 10"),
    (_set_layer(0, standardized=False), {}, "unexpected keyword argument 'standardized'"),
    (_set_layer(-1, standardized=True), {}, "unexpected keyword argument 'standardized'"),
    (_set_layer(-1, kind="dense"), {}, "layer kind must be 'conv' or 'linear'"),
    (_set_layer(0, slope="x"), {}, "unreadable header"),
    (_set_layer(1, in_width=3), {"resize": True},
     "layer 1 takes 3 channels, but its input has 2"),
    (lambda header: None, {"tail": bytes(8)}, "8 bytes after the payload"),
])
def test_edited_header_with_valid_checksum_exits_3(workdir, tmp_path, capsys, edit,
                                                   kwargs, message):
    # each header passes the checksum but describes no valid encoder
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_resealed((workdir / "student.bin").read_bytes(), edit, **kwargs))
    rc = main(["certify", "--config", str(workdir / "cfg.json"),
               "--data", str(workdir / "ds"), "--model", str(bad),
               "--out-json", str(tmp_path / "c.json"),
               "--out-csv", str(tmp_path / "z.csv")])
    assert rc == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("damage", [_cut_in_header, _cut_before_header_length,
                                    _bad_utf8_header_byte, _missing_header_key])
def test_unreadable_weight_header_exits_3(workdir, tmp_path, capsys, damage):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(damage((workdir / "student.bin").read_bytes()))
    rc = main(["certify", "--config", str(workdir / "cfg.json"),
               "--data", str(workdir / "ds"), "--model", str(bad),
               "--out-json", str(tmp_path / "c.json"),
               "--out-csv", str(tmp_path / "z.csv")])
    assert rc == 3
    assert "unreadable header" in capsys.readouterr().err


class TestSettings:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_config_parity_with_the_dataclasses(self, seed):
        assert cli._train_config({}, seed) == TrainConfig(seed=seed)
        assert cli._teacher_config({}, seed) == TeacherConfig(seed=seed)
        cfg = {"distill": {"epochs": 3, "lr": 2,
                           "spectral_clip": {"enabled": True, "theta": 0.5}},
               "teacher": {"kl_weight": 0.1, "arch": {"latent_dim": 10}}}
        assert cli._train_config(cfg, seed) == TrainConfig(
            seed=seed, epochs=3, lr=2.0, spectral_clip_enabled=True,
            spectral_clip_theta=0.5)
        assert cli._teacher_config(cfg, seed) == TeacherConfig(
            seed=seed, kl_weight=0.1, arch={"latent_dim": 10})

    def test_typed_keys_name_dataclass_fields(self):
        # each teacher and distill key names one field of its dataclass (a
        # spectral_clip key with the prefix "spectral_clip_"), every field
        # but the seed has a key, and a scalar default passes its key's rule
        # with its own type
        distill = dict(cli.SCHEMA["distill"])
        clip = distill.pop("spectral_clip")
        sections = ((cli.SCHEMA["teacher"], TeacherConfig, ""),
                    (distill, TrainConfig, ""), (clip, TrainConfig, "spectral_clip_"))
        for cls in (TeacherConfig, TrainConfig):
            assert ({prefix + k for rules, c, prefix in sections if c is cls for k in rules}
                    == {f.name for f in dataclasses.fields(cls)} - {"seed"})
        for rules, cls, prefix in sections:
            defaults = {f.name: f.default for f in dataclasses.fields(cls)}
            for key, rule in rules.items():
                default = defaults[prefix + key]
                if isinstance(rule, tuple):
                    checked = cli._checked(default, rule, key)
                    assert json.dumps(checked) == json.dumps(default), key

    def test_schema_matches_the_library_defaults(self):
        # build_teacher's arch and the cert constants, written as a config,
        # pass their sections with their own types, and name every key
        cert = dict(cli.SCHEMA["cert"])
        del cert["m_grid"]
        for rules, defaults in ((cli.SCHEMA["teacher"]["arch"], DEFAULT_ARCH),
                                (cert, DEFAULT_CERT_CONSTANTS)):
            as_config = json.loads(json.dumps(defaults))
            assert set(rules) == set(as_config)
            checked = cli._checked(as_config, rules, "section")
            assert json.dumps(checked) == json.dumps(as_config)

    def test_partial_cert_kappa_keeps_other_kinds(self, workdir, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"cert": {"kappa": {"D": 1.0}, "m": {"A": 10}}}))
        assert main(["certify", "--config", str(p), "--data", str(workdir / "ds"),
                     "--model", str(workdir / "student.bin"),
                     "--out-json", str(tmp_path / "cert.json"),
                     "--out-csv", str(tmp_path / "zeta.csv")]) == 0
        consts = json.loads((tmp_path / "cert.json").read_text())["constants"]
        assert consts["kappa"] == {**DEFAULT_CERT_CONSTANTS["kappa"], "D": 1.0}
        assert consts["m"] == {**DEFAULT_CERT_CONSTANTS["m"], "A": 10}
        assert consts["omega"] == DEFAULT_CERT_CONSTANTS["omega"]


HAZE = {"name": "haze", "observed_values": [0.0, 0.25, 0.5, 0.75],
        "train_values": [0.25, 0.5], "render": "overlay-intensity"}


def _stage_args(stage, workdir, tmp_path):
    data_dir = ["--data", str(workdir / "ds")]
    if stage == "gen-data":
        return ["--out", str(tmp_path / "d")]
    if stage == "train-teacher":
        return data_dir + ["--out", str(tmp_path / "t.bin")]
    if stage == "distill":
        return data_dir + ["--teacher", str(workdir / "teacher.bin"),
                           "--out", str(tmp_path / "s.bin")]
    if stage == "evaluate":
        return data_dir + ["--teacher", str(workdir / "teacher.bin"),
                           "--student", str(workdir / "student.bin"),
                           "--out", str(tmp_path / "e.json")]
    return data_dir + ["--model", str(workdir / "student.bin"),
                       "--out-json", str(tmp_path / "c.json"),
                       "--out-csv", str(tmp_path / "z.csv")]


@pytest.mark.parametrize("stage, section, message", [
    ("gen-data", {"data": {"image_size": 5}},
     "config key 'data.image_size' must be list"),
    ("gen-data", {"data": {"image_size": [32, "x"]}},
     "config key 'data.image_size[1]' must be int"),
    ("gen-data", {"data": {"counts": {"train": "x", "calibration": 1, "test": 1}}},
     "config key 'data.counts.train' must be int"),
    ("certify", {"cert": {"omega": "x"}}, "config key 'cert.omega' must be float"),
    ("certify", {"cert": {"kappa": {"D": 1.0, "X": 1.0}}},
     "unknown config key 'X' in cert.kappa"),
    ("certify", {"cert": {"m": {"D": 1.5}}}, "config key 'cert.m.D' must be int"),
    ("certify", {"cert": {"m_grid": [0, 10]}}, "'cert.m_grid[0]' must be"),
    ("train-teacher", {"teacher": {"epochs": 1, "arch": {"widht": [2]}}},
     "unknown config key 'widht' in teacher.arch"),
    ("distill", {"distill": {"margins": {"hze": [0.1, 0.1]}}},
     "distill.margins names factor 'hze'"),
    ("distill", {"distill": {"dual_init": {"A": {"hze": 1.0}}}},
     "distill.dual_init names factor 'hze'"),
    ("distill", {"distill": {"dual_rates": {"I": {"hze": 1.0}}}},
     "distill.dual_rates names factor 'hze'"),
    ("certify", {"cert": {"delta": 1.5}}, "config key 'cert.delta' must lie in (0, 1)"),
    ("certify", {"cert": {"kappa": {"D": -1.0}}}, "config key 'cert.kappa.D' must be >= 0"),
    ("certify", {"cert": {"omega": -1.0}}, "config key 'cert.omega' must be >= 0"),
    ("certify", {"cert": {"loss_bound": {"A": -2.0}}},
     "config key 'cert.loss_bound.A' must be >= 0"),
    ("distill", {"distill": {"margins": {"haze": [-0.1, 0.1]}}},
     "config key 'distill.margins.haze[0]' must be >= 0"),
    ("evaluate", {"ood": {"percentile": 150}},
     "config key 'ood.percentile' must lie in [0, 100]"),
    ("evaluate", {"bench": {"runs": 0}}, "config key 'bench.runs' must be >= 1"),
    ("distill", {"distill": {"epochs": 0}}, "config key 'distill.epochs' must be >= 1"),
    ("train-teacher", {"teacher": {"epochs": -1}},
     "config key 'teacher.epochs' must be >= 0"),
    ("distill", {"distill": {"early_stop_patience": -1}},
     "config key 'distill.early_stop_patience' must be >= 0"),
    ("distill", {"distill": {"spectral_clip": {"theta": 0}}},
     "config key 'distill.spectral_clip.theta' must be > 0"),
    ("train-teacher", {"teacher": {"batch_size": 0}},
     "config key 'teacher.batch_size' must be >= 1"),
    ("train-teacher", {"teacher": {"lr": -1.0}}, "config key 'teacher.lr' must be > 0"),
    ("train-teacher", {"teacher": {"arch": {**SMALL_CFG["teacher"]["arch"],
                                            "input_shape": [3, 16, 16]}}},
     "dataset images have shape (3, 32, 32), but the model takes (3, 16, 16)"),
    ("train-teacher", {"teacher": {"arch": {**SMALL_CFG["teacher"]["arch"],
                                            "rep_dims": {"hze": [1]}}}},
     "no representative dims for the dataset's factor 'haze'"),
    ("gen-data", {"data": {"factors": 5}}, "config key 'data.factors' must be list"),
    ("gen-data", {"data": {"factors": [5]}}, "config key 'data.factors[0]' must be dict"),
    ("gen-data", {"data": {"factors": [{**HAZE, "observed_values": 3}]}},
     "config key 'data.factors[0].observed_values' must be list"),
    ("gen-data", {"data": {"factors": [{**HAZE, "train_values": [[0.25], 0.5]}]}},
     "config key 'data.factors[0].train_values[0]' must be str or int or float"),
    ("gen-data", {"data": {"factors": [{**HAZE, "observed_values": ["a", "b"],
                                        "train_values": ["a", "b"]}]}},
     "factor 'haze': an intensity must be a number"),
    ("gen-data", {"data": {"pairs_per_factor": 0}},
     "config key 'data.pairs_per_factor' must be >= 1"),
    ("gen-data", {"distill": {"epochs": 0}}, "config key 'distill.epochs' must be >= 1"),
    ("gen-data", {"seed": -1}, "config key 'seed' must be >= 0"),
    ("train-teacher", {"teacher": {"arch": {"widths": "ab"}}},
     "config key 'teacher.arch.widths' must be list"),
    ("train-teacher", {"teacher": {"decoder_hidden": 0}},
     "config key 'teacher.decoder_hidden' must be >= 1"),
    ("train-teacher", {"teacher": {"arch": {"kernel": 0}}},
     "config key 'teacher.arch.kernel' must be >= 1"),
    ("train-teacher", {"teacher": {"arch": {"stride": 0}}},
     "config key 'teacher.arch.stride' must be >= 1"),
    ("train-teacher", {"teacher": {"arch": {"input_shape": [3, 32]}}},
     "config key 'teacher.arch.input_shape' must have 3 items"),
    ("distill", {"distill": {"ratio": 0.05}}, "config key 'distill.ratio' must lie in [0.1, 0.9]"),
    ("distill", {"distill": {"batch_size": 0}}, "config key 'distill.batch_size' must be >= 1"),
    ("distill", {"distill": {"lr": 0}}, "config key 'distill.lr' must be > 0"),
    ("gen-data", {"data": {"noise": math.inf}}, "config key 'data.noise' must be float"),
    ("certify", {"cert": {"omega": 10**400}}, "config key 'cert.omega' must be float"),
    ("train-teacher",
     {"teacher": {"arch": {**SMALL_CFG["teacher"]["arch"], "kernel": 40}}},
     "layer 0: kernel 40 is larger than its padded input (32, 32)"),
])
def test_bad_setting_exits_2_naming_its_key(workdir, tmp_path, capsys, stage,
                                            section, message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(section))
    assert main([stage, "--config", str(p), *_stage_args(stage, workdir, tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_image_size_must_fit_the_teacher_in_distill(workdir, tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**SMALL_CFG, "data": {**SMALL_CFG["data"],
                                                   "image_size": [16, 16]}}))
    assert main(["gen-data", "--config", str(p), "--out", str(tmp_path / "ds16")]) == 0
    capsys.readouterr()
    assert main(["distill", "--config", str(p), "--data", str(tmp_path / "ds16"),
                 "--teacher", str(workdir / "teacher.bin"),
                 "--out", str(tmp_path / "s.bin")]) == 2
    assert ("dataset images have shape (3, 16, 16), but the model takes (3, 32, 32)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("stage", ["certify", "evaluate"])
def test_models_must_fit_the_dataset(workdir, tmp_path, capsys, stage):
    # models trained on 32x32 images, run against a 16x16 dataset
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**SMALL_CFG, "data": {**SMALL_CFG["data"],
                                                   "image_size": [16, 16]}}))
    assert main(["gen-data", "--config", str(p), "--out", str(tmp_path / "ds16")]) == 0
    capsys.readouterr()
    args = _stage_args(stage, workdir, tmp_path)
    args[args.index("--data") + 1] = str(tmp_path / "ds16")
    assert main([stage, "--config", str(p), *args]) == 2
    assert ("dataset images have shape (3, 16, 16), but the model takes (3, 32, 32)"
            in capsys.readouterr().err)


def test_counts_keep_the_default_of_each_split_left_out(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"data": {"counts": {"train": 4}, "image_size": [16, 16],
                                      "pairs_per_factor": 5}}))
    assert main(["gen-data", "--config", str(p), "--out", str(tmp_path / "d")]) == 0
    ds = data.load(str(tmp_path / "d"))
    train_combos = len(data.partition(ds))
    combos = math.prod(len(s.observed_values) for s in ds.specs)
    assert len(ds.indices("train")) == 4 * train_combos
    assert len(ds.indices("calibration")) == 25 * train_combos
    assert len(ds.indices("test")) == 25 * combos


@pytest.mark.parametrize("stage", ["train-teacher", "distill"])
@pytest.mark.parametrize("index", [99999, -1])
def test_out_of_range_pair_index_exits_2(workdir, tmp_path, capsys, stage, index):
    ds = tmp_path / "ds"
    shutil.copytree(workdir / "ds", ds)
    manifest = json.loads((ds / "manifest.json").read_text())
    manifest["pairs"]["backdrop"][2][1] = index
    (ds / "manifest.json").write_text(json.dumps(manifest))
    args = _stage_args(stage, workdir, tmp_path)
    args[args.index("--data") + 1] = str(ds)
    assert main([stage, "--config", str(workdir / "cfg.json"), *args]) == 2
    assert (f"pair index {index} of factor 'backdrop' is outside [0, "
            in capsys.readouterr().err)


def test_partial_margins_run(workdir, tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"distill": {"epochs": 1, "margins": {"haze": [0.2, 0.3]}}}))
    assert main(["distill", "--config", str(p),
                 *_stage_args("distill", workdir, tmp_path)]) == 0


def test_bad_ppm_dims_exit_2(workdir, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(workdir / "ds", ds)
    ppm = ds / "sample_000000.ppm"
    w, h = (int(v) for v in ppm.read_bytes().split(b"\n")[1].split())
    ppm.write_bytes(b"P6\nx y\n255\n" + bytes(w * h * 3))
    assert main(["train-teacher", "--config", str(workdir / "cfg.json"),
                 "--data", str(ds), "--out", str(tmp_path / "t.bin")]) == 2
    assert "bad PPM dims" in capsys.readouterr().err


class TestSeedOverride:
    def test_seed_flag_changes_data(self, workdir, tmp_path):
        cfg = workdir / "cfg.json"
        assert main(["gen-data", "--config", str(cfg), "--seed", "99",
                     "--out", str(tmp_path / "ds99")]) == 0
        a = data.load(str(workdir / "ds"))
        b = data.load(str(tmp_path / "ds99"))
        assert not np.array_equal(a.images, b.images)

    def test_gen_data_repeatable(self, workdir, tmp_path):
        cfg = workdir / "cfg.json"
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "again")]) == 0
        a = (workdir / "ds" / "manifest.json").read_bytes()
        b = (tmp_path / "again" / "manifest.json").read_bytes()
        assert a == b
        for name in sorted(os.listdir(workdir / "ds")):
            if name.endswith(".ppm"):
                assert ((workdir / "ds" / name).read_bytes()
                        == (tmp_path / "again" / name).read_bytes())
