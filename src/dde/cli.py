"""Command-line entry point.

Subcommands: gen-data, train-teacher, distill, certify, evaluate.  All take a
JSON config file; unknown config keys are rejected.  Every artifact written
embeds (config hash, seed, tool version).  Exit codes: 0 success, 2 bad
config/usage, 3 runtime failure (divergence, corrupt weights, numerics).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

from . import __version__
from .tensor import NumericError, ContractError
from . import data as data_mod
from .data import ConfigError, FactorError, ParseError, FactorSpec, default_factor_specs
from .encoder import CorruptWeightsError, save_weights, load_weights
from .train import TrainConfig, TeacherConfig, TrainingError, distill, train_teacher
from .spectral import DEFAULT_CERT_CONSTANTS, certify
from .evaluate import evaluate_models

# key -> type of the typed keys of the teacher and distill sections.  Each
# names a field of TeacherConfig or TrainConfig (CLIP_KEYS with the prefix
# "spectral_clip_"), whose default applies when the config leaves it out.
TEACHER_KEYS = {"arch": dict, "epochs": int, "batch_size": int, "lr": float,
                "decoder_hidden": int, "kl_weight": float, "recon_weight": float,
                "align_penalty": float, "align_reward": float}
DISTILL_KEYS = {"epochs": int, "batch_size": int, "lr": float, "ratio": float,
                "early_stop_hinge": float, "early_stop_dloss": float,
                "early_stop_patience": int}
CLIP_KEYS = {"enabled": bool, "theta": float}
# config key -> (test, what it must satisfy) for the typed keys with a range
KEY_RANGES = {
    "teacher.epochs": (lambda v: v >= 0, "be >= 0"),
    "teacher.batch_size": (lambda v: v >= 1, "be >= 1"),
    "teacher.lr": (lambda v: v > 0, "be > 0"),
    "distill.epochs": (lambda v: v >= 1, "be >= 1"),
    "distill.early_stop_patience": (lambda v: v >= 0, "be >= 0"),
    "distill.spectral_clip.theta": (lambda v: v > 0, "be > 0"),
    "ood.percentile": (lambda v: 0 <= v <= 100, "lie in [0, 100]"),
    "bench.runs": (lambda v: v >= 1, "be >= 1"),
}

CONFIG_SCHEMA = {
    "seed": None,
    "data": {"counts": {"train", "calibration", "test"},
             "image_size": None, "pairs_per_factor": None, "factors": None,
             "noise": None},
    "teacher": set(TEACHER_KEYS),
    "distill": {*DISTILL_KEYS, "margins", "dual_init", "dual_rates",
                "spectral_clip"},
    "cert": {*DEFAULT_CERT_CONSTANTS, "m_grid"},
    "ood": {"percentile"},
    "bench": {"runs"},
}


def _check_keys(obj: dict, allowed, ctx: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{key}' in {ctx}")


def _typed(value, kind: type, key: str):
    """value as `kind`, or a ConfigError naming the config key.  A float key
    also takes an int; a bool is not a number."""
    ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"config key '{key}' must be {kind.__name__}, got {value!r}")
    return kind(value)


def _in_range(value, ok: bool, key: str, what: str):
    """value, or a ConfigError naming the config key when not `ok`."""
    if not ok:
        raise ConfigError(f"config key '{key}' must {what}, got {value!r}")
    return value


def _typed_keys(section: dict, keys: dict, ctx: str, prefix: str = "") -> dict:
    """The keys of `keys` that `section` sets, typed and range-checked by
    KEY_RANGES, as keyword arguments named prefix + key; an unset key is left
    to its parameter's default."""
    out = {}
    for key, kind in keys.items():
        if key in section:
            name = f"{ctx}.{key}"
            v = _typed(section[key], kind, name)
            ok, what = KEY_RANGES.get(name, (lambda v: True, ""))
            out[prefix + key] = _in_range(v, ok(v), name, what)
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _check_keys(cfg, CONFIG_SCHEMA, "config")
    for section, allowed in CONFIG_SCHEMA.items():
        if allowed is None or section not in cfg:
            continue
        if not isinstance(cfg[section], dict):
            raise ConfigError(f"config section '{section}' must be an object")
        _check_keys(cfg[section], allowed, f"section '{section}'")
    counts = _typed(cfg.get("data", {}).get("counts", {}), dict, "data.counts")
    _check_keys(counts, CONFIG_SCHEMA["data"]["counts"], "data.counts")
    for key, n in counts.items():
        _typed(n, int, f"data.counts.{key}")
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()


def _provenance(cfg: dict, seed: int) -> dict:
    return {"config_sha256": config_hash(cfg), "seed": seed,
            "version": __version__}


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    return _typed(cfg.get("seed", 0), int, "seed")


def _factor_specs(cfg: dict):
    raw = cfg.get("data", {}).get("factors")
    if raw is None:
        return default_factor_specs()
    specs = []
    for s in raw:
        _check_keys(s, {"name", "observed_values", "train_values", "render"},
                    "factor spec")
        for key in ("name", "observed_values", "train_values", "render"):
            if key not in s:
                raise ConfigError(f"factor spec missing field '{key}'")
        specs.append(FactorSpec(s["name"], tuple(s["observed_values"]),
                                tuple(s["train_values"]), s["render"]))
    return specs


def _margins(raw: dict | None) -> dict | None:
    """{factor: [adapt, isolate]} -> {("A"|"I", factor): margin}."""
    if raw is None:
        return None
    out = {}
    for f, pair in _typed(raw, dict, "distill.margins").items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"margins for '{f}' must be [adapt, isolate]")
        for i, kind in enumerate("AI"):
            v = _typed(pair[i], float, f"distill.margins.{f}[{i}]")
            out[(kind, f)] = _in_range(v, v >= 0, f"distill.margins.{f}[{i}]", "be >= 0")
    return out


def _dual_table(raw: dict | None, what: str) -> dict | None:
    """{"A": {factor: v}, "I": {factor: v}} -> {("A"|"I", factor): v}."""
    if raw is None:
        return None
    _check_keys(_typed(raw, dict, what), {"A", "I"}, what)
    out = {}
    for kind, table in raw.items():
        for f, v in _typed(table, dict, f"{what}.{kind}").items():
            v = _typed(v, float, f"{what}.{kind}.{f}")
            if v < 0:
                raise ConfigError(f"{what}[{kind}][{f}] must be >= 0")
            out[(kind, f)] = v
    return out


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    d = cfg.get("distill", {})
    clip = _typed(d.get("spectral_clip", {}), dict, "distill.spectral_clip")
    _check_keys(clip, CLIP_KEYS, "distill.spectral_clip")
    return TrainConfig(
        seed=seed,
        margins=_margins(d.get("margins")),
        dual_init=_dual_table(d.get("dual_init"), "distill.dual_init"),
        dual_rates=_dual_table(d.get("dual_rates"), "distill.dual_rates"),
        **_typed_keys(d, DISTILL_KEYS, "distill"),
        **_typed_keys(clip, CLIP_KEYS, "distill.spectral_clip", "spectral_clip_"))


def _teacher_config(cfg: dict, seed: int) -> TeacherConfig:
    return TeacherConfig(seed=seed, **_typed_keys(cfg.get("teacher", {}),
                                                  TEACHER_KEYS, "teacher"))


def _cert_config(cfg: dict):
    """The cert section as (constants, m_grid), each value typed like its
    DEFAULT_CERT_CONSTANTS entry and in range: delta in (0, 1), a sample
    count >= 1, any other constant >= 0; a per-kind table may name only D,
    A, I."""
    def checked(v, default, key, name):
        v = _typed(v, type(default), key)
        if name == "delta":
            return _in_range(v, 0 < v < 1, key, "lie in (0, 1)")
        if name in ("m", "m_grid"):
            return _in_range(v, v >= 1, key, "be a sample count >= 1")
        return _in_range(v, v >= 0, key, "be >= 0")

    c = dict(cfg.get("cert", {}))
    m_grid = c.pop("m_grid", None)
    if m_grid is not None:
        m_grid = [checked(m, 1, "cert.m_grid", "m_grid")
                  for m in _typed(m_grid, list, "cert.m_grid")]
    consts = {}
    for key, v in c.items():
        default = DEFAULT_CERT_CONSTANTS[key]
        if isinstance(default, dict):
            _check_keys(_typed(v, dict, f"cert.{key}"), default, f"cert.{key}")
            consts[key] = {k: checked(x, default[k], f"cert.{key}.{k}", key)
                           for k, x in v.items()}
        else:
            consts[key] = checked(v, default, f"cert.{key}", key)
    return consts, m_grid


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1, sort_keys=True)


# -- subcommands -----------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    d = cfg.get("data", {})
    counts = d.get("counts", {"train": 50, "calibration": 25, "test": 25})
    size = _typed(d.get("image_size", [32, 32]), list, "data.image_size")
    if len(size) != 2:
        raise ConfigError("config key 'data.image_size' must be [height, width], "
                          f"got {size!r}")
    size = tuple(_typed(n, int, "data.image_size") for n in size)
    specs = _factor_specs(cfg)
    ds = data_mod.generate(specs, counts, image_size=size, seed=seed,
                           **_typed_keys(d, {"noise": float}, "data"))
    data_mod.build_all_pairs(ds, _typed(d.get("pairs_per_factor", 300), int,
                                        "data.pairs_per_factor"), seed=seed)
    data_mod.save(ds, args.out, meta=_provenance(cfg, seed))
    parts = data_mod.partition(ds)
    print(f"wrote {len(ds.images)} samples to {args.out}")
    for p in parts:
        print(f"  partition {p.id}: {len(p.indices)} train samples")
    return 0


def cmd_train_teacher(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    ds = data_mod.load(args.data)
    model = train_teacher(ds, _teacher_config(cfg, seed))
    save_weights(model, args.out, meta=_provenance(cfg, seed))
    print(f"teacher saved to {args.out} "
          f"({model.parameter_count()} parameters)")
    return 0


def cmd_distill(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    ds = data_mod.load(args.data)
    teacher = load_weights(args.teacher)
    student, trace = distill(teacher, ds, _train_config(cfg, seed))
    meta = _provenance(cfg, seed)
    save_weights(student, args.out, meta=meta)
    if args.trace:
        trace.to_csv(args.trace, meta=meta)
    last = trace.records[-1]
    print(f"student saved to {args.out} "
          f"({student.parameter_count()} parameters, "
          f"{len(trace.records)} epochs, final L_D={last['L_D']:.6f})")
    return 0


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    ds = data_mod.load(args.data)
    model = load_weights(args.model)
    consts, m_grid = _cert_config(cfg)
    report = certify(model, ds, constants=consts, m_grid=m_grid)
    report["provenance"] = _provenance(cfg, seed)
    _write_json(args.out_json, report)
    meta = {k: str(v) for k, v in report["provenance"].items()}
    cols = (["m"] + [f"dudley_{k}" for k in ("D", "A", "I")]
            + [f"zeta_{k}" for k in ("D", "A", "I")] + list(meta))
    with open(args.out_csv, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=cols)
        writer.writeheader()
        for row in report["zeta_vs_m"]:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()} | meta)
    for kind in ("D", "A", "I"):
        print(f"kappa_theta[{kind}]={report['kappa_theta'][kind]:.6g} "
              f"zeta[{kind}]={report['zeta'][kind]['zeta']:.6g}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    ood = _typed_keys(cfg.get("ood", {}), {"percentile": float}, "ood")
    bench = _typed_keys(cfg.get("bench", {}), {"runs": int}, "bench", "bench_")
    ds = data_mod.load(args.data)
    teacher = load_weights(args.teacher)
    student = load_weights(args.student)
    report = evaluate_models(teacher, student, ds, seed=seed, **ood, **bench)
    report["provenance"] = _provenance(cfg, seed)
    _write_json(args.out, report)
    for who in ("teacher", "student"):
        aur = " ".join(f"{f}={v:.3f}" for f, v in report["auroc"][who].items())
        print(f"{who}: auroc {aur} | {report['model_bytes'][who]} bytes | "
              f"p50 {report['timing'][who]['p50_ms']:.2f} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dde", description="Distilled disentangled encoders: data "
        "generation, training, certification, and OOD evaluation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    common(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-teacher", help="train the teacher encoder")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output weight file")
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("distill", help="distill a compressed student")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--teacher", required=True, help="teacher weight file")
    p.add_argument("--out", required=True, help="output weight file")
    p.add_argument("--trace", default=None, help="optional trace CSV path")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("certify", help="emit the certification report")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", required=True, help="weight file to certify")
    p.add_argument("--out-json", required=True, help="report JSON path")
    p.add_argument("--out-csv", required=True, help="bound-vs-m CSV path")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("evaluate", help="OOD + size/latency evaluation")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--teacher", required=True, help="teacher weight file")
    p.add_argument("--student", required=True, help="student weight file")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FactorError, ParseError, FileNotFoundError,
            NotADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingError, NumericError, ContractError,
            CorruptWeightsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
