"""Command-line entry point.

Subcommands: gen-data, train-teacher, distill, certify, evaluate.  All take a
JSON config file, which is checked whole against `SCHEMA` before any stage
starts.  Every artifact written embeds (config hash, seed, tool version).
Exit codes: 0 success, 2 bad config/usage, 3 runtime failure (divergence,
corrupt weights, numerics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from . import __version__
from .tensor import NumericError, ContractError
from . import data as data_mod
from .data import ConfigError, FactorError, ParseError, FACTOR_SPEC
from .encoder import CorruptWeightsError, save_weights, load_weights
from .rules import ANY, AT_LEAST_0, AT_LEAST_1, ABOVE_0, checked, read_json
from .train import TrainConfig, TeacherConfig, TrainingError, distill, train_teacher
from .spectral import certify
from .evaluate import evaluate_models

PER_LOSS_KIND = {kind: (float, *AT_LEAST_0) for kind in "DAI"}
PER_FACTOR = {str: (float, *AT_LEAST_0)}

# The type and range of every config key, in the rules of `rules.checked`.
# No default lives here: a key the config leaves out keeps the default of the
# parameter it feeds (TeacherConfig, TrainConfig, build_teacher's
# DEFAULT_ARCH, DEFAULT_CERT_CONSTANTS, ...).
SCHEMA = {
    "seed": (int, *AT_LEAST_0),
    "data": {
        "counts": {split: (int, *AT_LEAST_1) for split in data_mod.SPLITS},
        "image_size": [(int, lambda v: v >= 16, "be >= 16")] * 2,
        "pairs_per_factor": (int, *AT_LEAST_1),
        "noise": (float, *AT_LEAST_0),
        "factors": [FACTOR_SPEC],
    },
    "teacher": {
        "arch": {"input_shape": [(int, *AT_LEAST_1)] * 3,
                 "widths": [(int, *AT_LEAST_1)],
                 "kernel": (int, *AT_LEAST_1), "stride": (int, *AT_LEAST_1),
                 "padding": (int, *AT_LEAST_0), "latent_dim": (int, *AT_LEAST_1),
                 "rep_dims": {str: [(int, *AT_LEAST_0)]},
                 "gain": (float, *ABOVE_0), "slope": (float, *ANY),
                 "seed": (int, *AT_LEAST_0), "init_norm_slack": (float, *AT_LEAST_0)},
        "epochs": (int, *AT_LEAST_0), "batch_size": (int, *AT_LEAST_1),
        "lr": (float, *ABOVE_0), "decoder_hidden": (int, *AT_LEAST_1),
        "kl_weight": (float, *ANY), "recon_weight": (float, *ANY),
        "align_penalty": (float, *ANY), "align_reward": (float, *ANY),
    },
    "distill": {
        "epochs": (int, *AT_LEAST_1), "batch_size": (int, *AT_LEAST_1),
        "lr": (float, *ABOVE_0),
        "ratio": (float, lambda v: 0.1 <= v <= 0.9, "lie in [0.1, 0.9]"),
        "early_stop_hinge": (float, *ANY), "early_stop_dloss": (float, *ANY),
        "early_stop_patience": (int, *AT_LEAST_0),
        "margins": {str: [(float, *AT_LEAST_0)] * 2},       # factor: [adapt, isolate]
        "dual_init": {"A": PER_FACTOR, "I": PER_FACTOR},
        "dual_rates": {"A": PER_FACTOR, "I": PER_FACTOR},
        "spectral_clip": {"enabled": (bool, *ANY), "theta": (float, *ABOVE_0)},
    },
    "cert": {
        "kappa": PER_LOSS_KIND, "loss_bound": PER_LOSS_KIND,
        "omega": (float, *AT_LEAST_0),
        "delta": (float, lambda v: 0 < v < 1, "lie in (0, 1)"),
        "m": {kind: (int, *AT_LEAST_1) for kind in "DAI"},
        "m_grid": [(int, *AT_LEAST_1)],
    },
    "ood": {"percentile": (float, lambda v: 0 <= v <= 100, "lie in [0, 100]")},
    "bench": {"runs": (int, *AT_LEAST_1)},
}


def load_config(path: str) -> tuple:
    """(raw, checked): the JSON config at `path`, and its typed copy once
    every key has passed SCHEMA."""
    cfg = read_json(path, ConfigError)
    return cfg, checked(cfg, SCHEMA)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()


def _setup(args) -> tuple:
    """(checked config, seed, provenance) of a stage.  The provenance hashes
    the raw config, so that typing a value does not change the hash."""
    raw, cfg = load_config(args.config)
    seed = (cfg.get("seed", 0) if args.seed is None
            else checked(args.seed, SCHEMA["seed"], "seed"))
    return cfg, seed, {"config_sha256": config_hash(raw), "seed": seed,
                       "version": __version__}


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    """The checked distill section as a TrainConfig; each per-factor table
    becomes a {("A"|"I", factor): value} table."""
    d = dict(cfg.get("distill", {}))
    if "margins" in d:
        d["margins"] = {(kind, f): pair[i] for f, pair in d["margins"].items()
                        for i, kind in enumerate("AI")}
    for table in ("dual_init", "dual_rates"):
        if table in d:
            d[table] = {(kind, f): v for kind, row in d[table].items()
                        for f, v in row.items()}
    clip = d.pop("spectral_clip", {})
    return TrainConfig(seed=seed, **d,
                       **{f"spectral_clip_{k}": v for k, v in clip.items()})


def _teacher_config(cfg: dict, seed: int) -> TeacherConfig:
    return TeacherConfig(seed=seed, **cfg.get("teacher", {}))


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1, sort_keys=True)


# -- subcommands -----------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg, seed, prov = _setup(args)
    d = cfg.get("data", {})
    ds = data_mod.generate(data_mod.factor_specs(d.get("factors")), d.get("counts"),
                           image_size=tuple(d.get("image_size", (32, 32))), seed=seed,
                           **({"noise": d["noise"]} if "noise" in d else {}))
    data_mod.build_all_pairs(ds, d.get("pairs_per_factor", 300), seed=seed)
    data_mod.save(ds, args.out, meta=prov)
    parts = data_mod.partition(ds)
    print(f"wrote {len(ds.images)} samples to {args.out}")
    for p in parts:
        print(f"  partition {p.id}: {len(p.indices)} train samples")
    return 0


def cmd_train_teacher(args) -> int:
    cfg, seed, prov = _setup(args)
    ds = data_mod.load(args.data)
    model = train_teacher(ds, _teacher_config(cfg, seed))
    save_weights(model, args.out, meta=prov)
    print(f"teacher saved to {args.out} "
          f"({model.parameter_count()} parameters)")
    return 0


def cmd_distill(args) -> int:
    cfg, seed, prov = _setup(args)
    ds = data_mod.load(args.data)
    teacher = load_weights(args.teacher)
    student, trace = distill(teacher, ds, _train_config(cfg, seed))
    last = trace.records[-1]
    if not math.isfinite(last["L_D"]):
        raise TrainingError(f"final L_D is {last['L_D']}; no student saved")
    save_weights(student, args.out, meta=prov)
    if args.trace:
        trace.to_csv(args.trace, meta=prov)
    print(f"student saved to {args.out} "
          f"({student.parameter_count()} parameters, "
          f"{len(trace.records)} epochs, final L_D={last['L_D']:.6f})")
    return 0


def cmd_certify(args) -> int:
    cfg, seed, prov = _setup(args)
    ds = data_mod.load(args.data)
    model = load_weights(args.model)
    cert = dict(cfg.get("cert", {}))
    report = certify(model, ds, m_grid=cert.pop("m_grid", None), constants=cert)
    report["provenance"] = prov
    _write_json(args.out_json, report)
    cols = ["m", *(f"{q}_{kind}" for q in ("dudley", "zeta") for kind in "DAI")]
    data_mod.write_csv(args.out_csv, cols, report["zeta_vs_m"], prov)
    for kind in ("D", "A", "I"):
        print(f"kappa_theta[{kind}]={report['kappa_theta'][kind]:.6g} "
              f"zeta[{kind}]={report['zeta'][kind]['zeta']:.6g}")
    return 0


def cmd_evaluate(args) -> int:
    cfg, seed, prov = _setup(args)
    ds = data_mod.load(args.data)
    teacher = load_weights(args.teacher)
    student = load_weights(args.student)
    report = evaluate_models(teacher, student, ds, seed=seed, **cfg.get("ood", {}),
                             **{f"bench_{k}": v for k, v in cfg.get("bench", {}).items()})
    report["provenance"] = prov
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
            NotADirectoryError, IsADirectoryError, FileExistsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingError, NumericError, ContractError,
            CorruptWeightsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
