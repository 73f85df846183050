"""Run one `dde` CLI stage with spans recorded around the public functions of
each `dde` module, then write the spans to a JSON file.

    python3 perfbench/tracer.py SPANS.json <dde cli arguments...>

The wrappers are installed from this file by rebinding module attributes, so
`src/dde` is not modified.  A function imported by name into another module
(for example `encode` in `dde.train` and in `dde.evaluate`) is wrapped at
that binding, which lets the same function report under two span names.

Importing this module has no side effects; `layer_metrics` turns the span
files of one repetition into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time

# Ops created by `Tensor.__init__` in dde.tensor; any other op name is
# counted under "other" so that a new op still shows in the totals.
OPS = ("leaf", "add", "neg", "mul", "div", "pow", "matmul", "exp", "log",
       "sqrt", "abs", "arctan", "sigmoid", "tanh", "relu", "leaky_relu",
       "clip", "reshape", "transpose", "take", "sum", "conv2d")


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _fit_key(args, kwargs, result) -> str:
    """Identity of one OOD fit: the factor and the exact embeddings."""
    emb = args[0] if args else kwargs["embeddings"]
    h = hashlib.sha256(emb.tobytes()).hexdigest()[:16]
    return f"{result.factor}:{h}"


# (module, attribute, span name, note) where note(args, kwargs, result)
# returns a number (work done or bytes) or a key stored on the span.
PATCHES = (
    ("dde.train", "grad", "tensor.grad", None),
    ("dde.train", "adam_step", "tensor.adam_step", None),
    ("dde.train", "encode", "encoder.encode_train", None),
    ("dde.evaluate", "encode", "encoder.encode_eval", None),
    ("dde.encoder", "standardize", "encoder.standardize", None),
    ("dde.train", "build_teacher", "encoder.build", None),
    ("dde.train", "compress", "encoder.build", None),
    ("dde.cli", "load_weights", "encoder.load_weights",
     lambda a, k, r: os.path.getsize(a[0])),
    ("dde.cli", "save_weights", "encoder.save_weights",
     lambda a, k, r: os.path.getsize(a[1])),
    ("dde.train", "distill_loss", "losses.forward", None),
    ("dde.train", "adapt_loss", "losses.forward", None),
    ("dde.train", "isolation_loss", "losses.forward", None),
    ("dde.train", "bounded", "losses.forward", None),
    ("dde.train", "hinge", "losses.forward", None),
    ("dde.cli", "train_teacher", "train.teacher",
     lambda a, k, r: a[1].epochs),
    ("dde.cli", "distill", "train.distill",
     lambda a, k, r: len(r[1].records)),
    ("dde.train", "_cache_teacher_latents", "train.cache_teacher_latents", None),
    ("dde.train", "dual_step", "train.dual_step", None),
    ("dde.train", "_clip_model", "train.clip_model", None),
    ("dde.spectral", "conv_singular_values", "spectral.conv_singular_values",
     lambda a, k, r: int(r.values.size)),
    ("dde.spectral", "clip_singular_values", "spectral.clip_singular_values", None),
    ("dde.spectral", "operator_drift", "spectral.operator_drift", None),
    ("dde.cli", "certify", "spectral.certify", None),
    ("dde.ood", "fit", "ood.fit", _fit_key),
    ("dde.ood", "score", "ood.score", None),
    ("dde.ood", "auroc", "ood.auroc", None),
    ("dde.evaluate", "encode_batched", "evaluate.encode_batched", None),
    ("dde.evaluate", "fit_reasoners", "evaluate.fit_reasoners", None),
    ("dde.evaluate", "latency_benchmark", "evaluate.latency_benchmark", None),
    ("dde.data", "generate", "data.generate", None),
    ("dde.data", "build_all_pairs", "data.build_all_pairs", None),
    ("dde.data", "save", "data.save", lambda a, k, r: _dir_bytes(a[1])),
    ("dde.data", "load", "data.load", lambda a, k, r: _dir_bytes(a[0])),
)


class Tracer:
    """Spans (name, start, end, parent index, note) and per-op tensor counts,
    kept in memory until `dump`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.ops = {}

    def span(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        import importlib
        from dde import tensor

        for mod_name, attr, name, note in PATCHES:
            mod = importlib.import_module(mod_name)
            setattr(mod, attr, self.span(name, getattr(mod, attr), note))

        # conv2d: time the forward, and the backward closure of its output
        import dde.encoder
        conv_fwd = self.span("tensor.conv2d_fwd", dde.encoder.conv2d)

        def conv2d(*args, **kwargs):
            out = conv_fwd(*args, **kwargs)
            out._backward = self.span("tensor.conv2d_bwd", out._backward)
            return out
        dde.encoder.conv2d = conv2d

        init = tensor.Tensor.__init__
        ops = self.ops

        def counted_init(obj, data, requires_grad=False, _parents=(), _op="leaf"):
            ops[_op] = ops.get(_op, 0) + 1
            init(obj, data, requires_grad, _parents, _op)
        tensor.Tensor.__init__ = counted_init

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "ops": self.ops}, f)


# ---------------------------------------------------------------------------
# Aggregation: span files of one repetition -> per-layer metrics.
# ---------------------------------------------------------------------------

def _outer_total(spans, name) -> float:
    """Summed duration of `name` spans not nested inside another `name`."""
    total = 0.0
    for rec in spans:
        if rec[0] != name:
            continue
        p = rec[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total += rec[2] - rec[1]
    return total


def _self_total(spans, name) -> float:
    """Summed self time of `name` spans: duration minus direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return sum(rec[2] - rec[1] - child[i]
               for i, rec in enumerate(spans) if rec[0] == name)


def layer_metrics(traces, stage_walls) -> dict:
    """Per-layer metrics of one repetition.

    traces: the dumped span files of each stage process of the repetition;
    stage_walls: the wall time of each of those processes, in seconds.
    """
    calls, notes, ops, fixed, totals = {}, {}, {}, [], {}
    distill_encodes = distill_batches = 0
    for tr, wall in zip(traces, stage_walls):
        spans = tr["spans"]
        names = {rec[0] for rec in spans}
        for name in names:
            totals[name] = totals.get(name, 0.0) + _outer_total(spans, name)
        for name in ("tensor.grad", "train.teacher", "train.distill"):
            totals[name + ":self"] = (totals.get(name + ":self", 0.0)
                                      + _self_total(spans, name))
        for rec in spans:
            calls[rec[0]] = calls.get(rec[0], 0) + 1
            if rec[4] is not None:
                notes.setdefault(rec[0], []).append(rec[4])
        for op, n in tr["ops"].items():
            key = op if op in OPS else "other"
            ops[key] = ops.get(key, 0) + n
        # cli.stage is the whole of dde.cli.main(); the rest of the process
        # wall time is interpreter start, imports and exit
        fixed.append(wall - _outer_total(spans, "cli.stage"))

        # student encodes and primal steps issued by the distill batch loop
        # itself (the teacher-latent cache encodes one level further down)
        distill_ids = {i for i, rec in enumerate(spans) if rec[0] == "train.distill"}
        for rec in spans:
            if rec[3] in distill_ids:
                distill_encodes += rec[0] == "encoder.encode_train"
                distill_batches += rec[0] == "tensor.adam_step"

    def t(name):
        return totals.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return sum(notes.get(name, []))

    fits = notes.get("ood.fit", [])
    m = {
        "tensor.conv2d_fwd_s": t("tensor.conv2d_fwd"),
        "tensor.conv2d_bwd_s": t("tensor.conv2d_bwd"),
        "tensor.conv2d_calls": c("tensor.conv2d_fwd"),
        "tensor.grad_s": t("tensor.grad:self"),
        "tensor.grad_calls": c("tensor.grad"),
        "tensor.adam_step_s": t("tensor.adam_step"),
        "tensor.tensors_created": sum(ops.values()),
    }
    for op in OPS + ("other",):
        m[f"tensor.op_count.{op}"] = ops.get(op, 0)
    m.update({
        "encoder.encode_train_s": t("encoder.encode_train"),
        "encoder.encode_train_calls": c("encoder.encode_train"),
        "encoder.encode_eval_s": t("encoder.encode_eval"),
        "encoder.encode_eval_calls": c("encoder.encode_eval"),
        "encoder.standardize_s": t("encoder.standardize"),
        "encoder.standardize_calls": c("encoder.standardize"),
        "encoder.build_s": t("encoder.build"),
        "encoder.load_weights_s": t("encoder.load_weights"),
        "encoder.save_weights_s": t("encoder.save_weights"),
        "encoder.weight_bytes": s("encoder.load_weights") + s("encoder.save_weights"),
        "losses.forward_s": t("losses.forward"),
        "losses.calls": c("losses.forward"),
        "train.teacher_self_s": t("train.teacher:self"),
        "train.distill_self_s": t("train.distill:self"),
        "train.cache_teacher_latents_s": t("train.cache_teacher_latents"),
        "train.dual_step_s": t("train.dual_step"),
        "train.clip_model_s": t("train.clip_model"),
        "train.clip_calls": c("train.clip_model"),
        "train.batches": c("tensor.adam_step"),
        "train.epochs_run": s("train.teacher") + s("train.distill"),
        "train.student_encodes_per_batch":
            distill_encodes / distill_batches if distill_batches else 0.0,
        "spectral.conv_singular_values_s": t("spectral.conv_singular_values"),
        "spectral.conv_singular_values_calls": c("spectral.conv_singular_values"),
        "spectral.singular_values_computed": s("spectral.conv_singular_values"),
        "spectral.clip_singular_values_s": t("spectral.clip_singular_values"),
        "spectral.clip_singular_values_calls": c("spectral.clip_singular_values"),
        "spectral.operator_drift_s": t("spectral.operator_drift"),
        "spectral.certify_s": t("spectral.certify"),
        "ood.fit_s": t("ood.fit"),
        "ood.fit_calls": c("ood.fit"),
        "ood.score_s": t("ood.score"),
        "ood.score_calls": c("ood.score"),
        "ood.auroc_s": t("ood.auroc"),
        "ood.fit_useful_ratio": len(set(fits)) / len(fits) if fits else 0.0,
        "evaluate.encode_batched_s": t("evaluate.encode_batched"),
        "evaluate.encode_batched_calls": c("evaluate.encode_batched"),
        "evaluate.fit_reasoners_calls": c("evaluate.fit_reasoners"),
        "evaluate.latency_benchmark_s": t("evaluate.latency_benchmark"),
        "data.generate_s": t("data.generate"),
        "data.build_all_pairs_s": t("data.build_all_pairs"),
        "data.save_s": t("data.save"),
        "data.save_bytes": s("data.save"),
        "data.load_s": t("data.load"),
        "data.load_calls": c("data.load"),
        "data.load_bytes": s("data.load"),
        "cli.stage_fixed_s": sum(fixed) / len(fixed) if fixed else 0.0,
    })
    return m


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import dde.cli
    main_fn = tracer.span("cli.stage", dde.cli.main)
    try:
        return main_fn(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
