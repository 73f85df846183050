"""Stage-level benchmark of the dde pipeline.

    python3 perfbench/run.py --workload pipeline_small --seed 1 --seconds 30 --trace 0

Runs one workload through the real `dde` CLI, one stage process at a time
(a closed loop with a single client), checks every output, and prints the
metrics by name with their units.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics; with --trace 1 each stage
runs under perfbench/tracer.py and the metrics are the per-layer ones.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"
STAGE = BENCH_DIR / "stage.py"

# One BLAS thread: the box is shared and small, and at the default thread
# count the first LAPACK call of a process was seen to cost up to 0.9 s.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3              # set-up repetitions; setup_s is their median
MIN_REPS = 3            # timed repetitions at least, even past --seconds
MIN_TRACED_REPS = 2     # traced repetitions at least, each with an untraced twin
# Stages well under a second long are dominated by process start and file
# system noise, so an untraced run repeats them within each repetition.
REPEATS = {"gen-data": 3, "certify-student": 2}
ENCODE_WARMUP = 2       # untimed encodes before each block, after a stage ran

SMALL_ARCH = {"widths": [8, 16, 32], "latent_dim": 16,
              "rep_dims": {"haze": [3], "backdrop": [6]}}


@dataclass(frozen=True)
class Workload:
    config: dict                # the dde config, without its seed
    setup: tuple                # stages of each set-up repetition
    timed: tuple                # stages of each timed repetition
    encode_samples: int         # single-image encodes per model, at least


WORKLOADS = {
    # all five stages at the acceptance recipe: the Python-bound tape regime
    "pipeline_small": Workload(
        config={
            "data": {"counts": {"train": 100, "calibration": 25, "test": 15},
                     "pairs_per_factor": 300},
            "teacher": {"epochs": 1, "kl_weight": 0.1, "arch": SMALL_ARCH},
            "distill": {"epochs": 2, "batch_size": 8, "lr": 0.003,
                        "ratio": 0.5,
                        "margins": {"haze": [0.1, 0.1],
                                    "backdrop": [0.1, 0.1]}},
            "bench": {"runs": 100},
        },
        setup=(),
        timed=("gen-data", "train-teacher", "distill", "certify-student",
               "evaluate"),
        encode_samples=600,
    ),
    # default 1.6M-parameter teacher, spectral clipping on: the array- and
    # BLAS-bound training regime
    "train_large": Workload(
        config={
            "data": {"counts": {"train": 8, "calibration": 4, "test": 2},
                     "pairs_per_factor": 32},
            "teacher": {"epochs": 1},
            "distill": {"epochs": 2,
                        "spectral_clip": {"enabled": True, "theta": 1.0}},
            "bench": {"runs": 10},
        },
        setup=("gen-data",),
        timed=("train-teacher", "distill", "certify-student", "evaluate"),
        encode_samples=180,
    ),
    # certify and evaluate on the default architecture: forward only
    "infer_large": Workload(
        config={
            "data": {"counts": {"train": 2, "calibration": 25, "test": 10},
                     "pairs_per_factor": 8},
            "teacher": {"epochs": 1, "batch_size": 8},
            "distill": {"epochs": 1, "batch_size": 8},
            "bench": {"runs": 30},
        },
        setup=("gen-data", "train-teacher", "distill"),
        timed=("certify-student", "certify-teacher", "evaluate"),
        encode_samples=180,
    ),
}

# stage -> (end-to-end metric, artifacts it writes)
STAGES = {
    "gen-data": ("gen_data_s", ("ds",)),
    "train-teacher": ("train_teacher_s", ("teacher",)),
    "distill": ("distill_s", ("student", "trace")),
    "certify-student": ("certify_s", ("cert_student",)),
    "certify-teacher": ("certify_s", ("cert_teacher",)),
    "evaluate": ("evaluate_s", ("eval",)),
}
FILES = {"ds": "ds", "teacher": "teacher.bin", "student": "student.bin",
         "trace": "trace.csv", "cert_student": "cert_student.json",
         "cert_teacher": "cert_teacher.json", "eval": "eval.json"}


def _cli_args(stage: str, art: dict, out: Path, cfg: Path) -> list:
    """dde CLI arguments of one stage; inputs come from `art`, outputs go
    to `out`."""
    o = {k: str(out / FILES[k]) for k in FILES}
    common = ["--config", str(cfg)]
    if stage == "gen-data":
        return ["gen-data", *common, "--out", o["ds"]]
    if stage == "train-teacher":
        return ["train-teacher", *common, "--data", art["ds"], "--out", o["teacher"]]
    if stage == "distill":
        return ["distill", *common, "--data", art["ds"], "--teacher", art["teacher"],
                "--out", o["student"], "--trace", o["trace"]]
    if stage.startswith("certify-"):
        who = stage.split("-")[1]
        return ["certify", *common, "--data", art["ds"], "--model", art[who],
                "--out-json", o[f"cert_{who}"],
                "--out-csv", str(out / f"zeta_{who}.csv")]
    if stage == "evaluate":
        return ["evaluate", *common, "--data", art["ds"], "--teacher", art["teacher"],
                "--student", art["student"], "--out", o["eval"]]
    raise ValueError(stage)


# ---------------------------------------------------------------------------
# Running stage processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(BLAS_ENV, str(BLAS_THREADS)))
    return env


@dataclass
class StageRun:
    stage: str
    wall: float
    rc: int
    rss_mb: float | None
    log: str
    spans: dict | None = None
    epochs: int | None = None   # distill: rows of the trace CSV


def run_process(args: list, log_path: Path, env: dict, spans: Path | None = None):
    """Run a `dde` CLI stage as a fresh process, plain or under the tracer;
    return (wall seconds, exit code, peak RSS in MB or None, output text)."""
    rss_path = log_path.with_suffix(".rss")
    if spans is None:
        cmd = [sys.executable, str(STAGE), str(rss_path), *args]
    else:
        cmd = [sys.executable, str(TRACER), str(spans), *args]
    with open(log_path, "w+b") as log:
        t0 = time.perf_counter()
        rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                            env=env, cwd=ROOT).returncode
        wall = time.perf_counter() - t0
        log.seek(0)
        text = log.read().decode("utf-8", "replace")
    rss = int(rss_path.read_text()) / 1024.0 if spans is None and rc == 0 else None
    return wall, rc, rss, text


# ---------------------------------------------------------------------------
# Output-correctness gate
# ---------------------------------------------------------------------------

@dataclass
class Gate:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_weights(gate: Gate, path: str, dde) -> None:
    """The weight file reloads through load_weights, so its CRC is checked."""
    try:
        dde.encoder.load_weights(path)
        ok, why = True, ""
    except Exception as e:          # any failure to reload is a failed check
        ok, why = False, f": {type(e).__name__}: {e}"
    gate.check(ok, f"{path} reloads{why}")


def check_trace(gate: Gate, path: str, epochs: int | None) -> int | None:
    """One finite L_D row per epoch run, epochs numbered from 0; returns the
    number of rows."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        ok = (epochs is not None and len(rows) == epochs and all(
            int(r["epoch"]) == i and math.isfinite(float(r["L_D"]))
            for i, r in enumerate(rows)))
    except (OSError, KeyError, ValueError):
        ok = False
    gate.check(ok, f"{path} has one finite L_D row per epoch ({epochs})")
    return len(rows) if ok else None


def check_cert(gate: Gate, path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            cert = json.load(f)
        ok = all(_finite(cert["kappa_theta"][k]) and _finite(cert["zeta"][k]["zeta"])
                 for k in ("D", "A", "I"))
    except (OSError, KeyError, TypeError, ValueError):
        ok = False
    gate.check(ok, f"{path} has finite kappa_theta and zeta for D, A, I")


def check_eval(gate: Gate, path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            aur = json.load(f)["auroc"]
        vals = [v for who in ("teacher", "student") for v in aur[who].values()]
        ok = bool(vals) and all(_finite(v) and 0.0 <= v <= 1.0 for v in vals)
    except (OSError, KeyError, TypeError, ValueError, AttributeError):
        ok = False
    gate.check(ok, f"{path} AUROCs lie in [0, 1]")


def distill_epochs(log: str) -> int | None:
    """Epochs run, from the line `student saved to ... (P parameters, N epochs, ...)`."""
    for line in log.splitlines():
        if line.startswith("student saved to"):
            return int(line.split(" epochs,")[0].rsplit(" ", 1)[1])
    return None


def digest(kind: str, path: str) -> str:
    """SHA-256 of an artifact; eval.json without its measured timings."""
    p = Path(path)
    if kind == "ds":
        p = p / "manifest.json"
    data = p.read_bytes()
    if kind == "eval":
        report = json.loads(data)
        report.pop("timing", None)
        data = json.dumps(report, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def check_outputs(gate: Gate, run: StageRun, out: Path, dde) -> dict:
    """Gate the artifacts of one stage run; return their digests."""
    digests = {}
    if not gate.check(run.rc == 0, f"{run.stage} exits 0 (got {run.rc})"):
        return digests
    for kind in STAGES[run.stage][1]:
        path = str(out / FILES[kind])
        if kind in ("teacher", "student"):
            check_weights(gate, path, dde)
        elif kind == "trace":
            run.epochs = check_trace(gate, path, distill_epochs(run.log))
        elif kind.startswith("cert_"):
            check_cert(gate, path)
        elif kind == "eval":
            check_eval(gate, path)
        if kind != "teacher":
            digests[kind] = digest(kind, path)
    return digests


# ---------------------------------------------------------------------------
# Single-image encode latency, timed in this process
# ---------------------------------------------------------------------------

def encode_latency(dde, np, model, byte_imgs, samples: int) -> list:
    """Closed loop of single-image encodes after warm-up, from the stored
    byte image as `dde.evaluate.latency_benchmark` does; seconds each."""
    times = []
    for r in range(ENCODE_WARMUP + samples):
        raw = byte_imgs[r % len(byte_imgs)]
        t0 = time.perf_counter()
        lat = dde.encoder.encode(model, dde.tensor.Tensor(raw.astype(np.float64) / 255.0))
        dt = time.perf_counter() - t0
        if r >= ENCODE_WARMUP:
            times.append(dt)
    if not np.all(np.isfinite(lat.mu.data)):
        raise RuntimeError("non-finite encode")
    return times


# ---------------------------------------------------------------------------
# Machine fingerprint
# ---------------------------------------------------------------------------

def blas_threads_in_effect():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        r = subprocess.run(["git", *args], cwd=ROOT, env=env,
                           capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None
    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain")
    except OSError:
        return None, None
    return sha, (None if dirty is None else bool(dirty))


def fingerprint(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_setting": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, work: Path):
        import numpy as np
        sys.path.insert(0, str(SRC))
        import dde.encoder
        import dde.data
        import dde.tensor
        self.np, self.dde, self.wl = np, dde, wl
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.work = work
        self.env = child_env()
        self.gate = Gate()
        self.digests = {}       # (stage, artifact) -> [digest per run]
        self.cfg = work / "config.json"
        self.cfg.write_text(json.dumps({"seed": seed, **self.wl.config}, indent=1))
        self.n_runs = 0
        self.images = None          # test-split byte images for the encode loop
        self.models = None          # who -> model, loaded once for the encode loop
        self.lat = {"student": [], "teacher": []}   # encode seconds per model
        # one encode block per model after each timed stage process of the
        # first MIN_REPS repetitions, from the first one that has both models
        per_rep = [s for s in wl.timed for _ in range(REPEATS.get(s, 1))]
        made = [i + 1 for i, s in enumerate(per_rep)
                if {"teacher", "student"} & set(STAGES[s][1])]
        slots = MIN_REPS * len(per_rep) - max(made, default=0)
        self.block = -(-wl.encode_samples // max(slots, 1))      # ceiling division

    def stage(self, stage: str, art: dict, out: Path, traced: bool) -> StageRun:
        out.mkdir(parents=True, exist_ok=True)
        self.n_runs += 1
        spans = self.work / f"spans_{self.n_runs}.json" if traced else None
        wall, rc, rss, log = run_process(_cli_args(stage, art, out, self.cfg),
                                         self.work / f"log_{self.n_runs}.txt",
                                         self.env, spans)
        run = StageRun(stage, wall, rc, rss, log)
        if traced and rc == 0:
            run.spans = json.loads(spans.read_text())
        for kind, d in check_outputs(self.gate, run, out, self.dde).items():
            self.digests.setdefault(f"{stage}:{kind}", []).append(d)
        if rc == 0:
            art.update({k: str(out / FILES[k]) for k in STAGES[stage][1]})
        else:
            raise StageFailed(f"{stage} exited {rc}:\n{log[-2000:]}")
        return run

    def setup_once(self, i: int):
        """Program start check plus the workload's set-up stages."""
        t0 = time.perf_counter()
        wall, rc, _, log = run_process(["--version"], self.work / f"version_{i}.txt",
                                       self.env)
        if not self.gate.check(rc == 0, f"dde --version exits 0 (got {rc})"):
            raise StageFailed(f"dde --version exited {rc}:\n{log[-2000:]}")
        art = {}
        out = self.work / f"setup{i}"
        runs = self.stages(self.wl.setup, art, out, False)
        wall = time.perf_counter() - t0
        if i > 0 and out.exists():
            shutil.rmtree(out)      # only the first set-up feeds the repetitions
        return wall, art, runs

    def stages(self, names, art: dict, out: Path, traced: bool, after=None) -> list:
        """Run `names` in order, each REPEATS times into its own directory,
        calling `after(art)` after each; the last run's artifacts feed the
        next stage."""
        runs = []
        for s in names:
            for i in range(1 if self.trace else REPEATS.get(s, 1)):
                runs.append(self.stage(s, art, out / str(i), traced))
                if after is not None:
                    after(art)
        return runs

    def encode_block(self, art: dict) -> None:
        """One block of single-image encodes per model, once both exist.
        Every repetition makes the same models, so the first ones serve."""
        if self.models is None:
            if not {"teacher", "student"} <= set(art):
                return
            ds = self.dde.data.load(art["ds"])
            self.images = [self.np.round(img * 255.0).astype(self.np.uint8)
                           for img in ds.images[ds.indices("test")]]
            self.models = {who: self.dde.encoder.load_weights(art[who])
                           for who in self.lat}
        for who, model in self.models.items():
            self.lat[who] += encode_latency(self.dde, self.np, model, self.images,
                                            self.block)

    def run(self) -> dict:
        n_setups = 1 if self.trace else SETUPS
        min_reps = 2 * MIN_TRACED_REPS if self.trace else MIN_REPS
        setups = [self.setup_once(0)]
        base_art = setups[0][1]

        # The machine's speed drifts on a scale of seconds, so later set-ups
        # and the encode-latency blocks interleave with the timed
        # repetitions: every metric samples the whole run.  A traced run
        # alternates untraced and traced repetitions, so that drift cancels
        # out of the tracing overhead.
        reps = []                   # (wall of the timed stages, [StageRun])
        t_start = time.perf_counter()
        while True:
            k = len(reps)
            elapsed = time.perf_counter() - t_start
            if k >= min_reps and elapsed + elapsed / k > self.seconds:
                break
            if k + 1 < n_setups:
                setups.append(self.setup_once(k + 1))
            traced = self.trace and k % 2 == 1
            art = dict(base_art)
            after = self.encode_block if not self.trace and k < MIN_REPS else None
            out = self.work / f"rep{k}"
            runs = self.stages(self.wl.timed, art, out, traced, after)
            reps.append((sum(r.wall for r in runs), runs))
            # delete as we go: one large deletion at exit slows the file
            # writes at the start of the next run
            shutil.rmtree(out)

        for key, ds in self.digests.items():
            for d in ds[1:]:
                self.gate.check(d == ds[0], f"{key} is identical across repetitions")

        if self.trace:
            return self.layer_result(reps)
        return self.end_to_end_result(setups, reps)

    def layer_result(self, reps) -> dict:
        from tracer import layer_metrics
        traced = [runs for _, runs in reps[1::2]]
        per_rep = [layer_metrics([r.spans for r in runs], [r.wall for r in runs])
                   for runs in traced]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        untraced_wall = statistics.median(w for w, _ in reps[0::2])
        traced_wall = statistics.median(w for w, _ in reps[1::2])
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        return {"metrics": metrics,
                "samples": {"traced_reps": len(traced),
                            "untraced_reps": len(reps) - len(traced),
                            "untraced_wall_s": untraced_wall,
                            "traced_wall_s": traced_wall},
                "raw": {"rep_wall_s": [w for w, _ in reps]}}

    def end_to_end_result(self, setups, reps) -> dict:
        np, med, lat = self.np, statistics.median, self.lat
        walls, epoch_vals = {}, []
        for runs in [runs for _, _, runs in setups] + [runs for _, runs in reps]:
            for r in runs:
                walls.setdefault(r.stage, []).append(r.wall)
                if r.stage == "distill" and r.epochs:
                    epoch_vals.append(r.wall / r.epochs)
        per_stage = {stage: med(v) for stage, v in walls.items()}

        metrics = {
            "setup_s": med(s[0] for s in setups),
            "pipeline_s": sum(per_stage[stage] for stage in self.wl.timed),
            "distill_epoch_s": med(epoch_vals),
        }
        # a metric covers every stage that maps to it: on infer_large,
        # certify_s is the student's plus the teacher's certify
        for stage, v in per_stage.items():
            metric = STAGES[stage][0]
            metrics[metric] = metrics.get(metric, 0.0) + v
        for who, ts in lat.items():
            metrics[f"encode_{who}_p50_ms"] = float(np.percentile(ts, 50) * 1e3)
            metrics[f"encode_{who}_p90_ms"] = float(np.percentile(ts, 90) * 1e3)
        metrics["peak_rss_mb"] = med(max(r.rss_mb for r in runs) for _, runs in reps)
        return {"metrics": metrics,
                "samples": {"setups": len(setups), "timed_reps": len(reps),
                            "encode_samples": {w: len(ts) for w, ts in lat.items()},
                            "encode_warmup_per_block": ENCODE_WARMUP,
                            # p99 is reported for information only: it lands in
                            # the host-preemption tail (see README.md)
                            "encode_p99_ms": {w: float(np.percentile(ts, 99) * 1e3)
                                              for w, ts in lat.items()},
                            "stage_runs": {stage: len(v) for stage, v in walls.items()}},
                "raw": {"setup_s": [s[0] for s in setups], **walls,
                        "distill_epoch_s": epoch_vals}}


class StageFailed(RuntimeError):
    """A stage process exited with a non-zero code."""


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under .perfbench_work in the checkout, removed on exit."""
    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None,
                    help="also write the full result (fingerprint, raw samples, "
                         "digests) to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "dde" / "cli.py").is_file():
        print(f"error: the dde program is missing ({SRC / 'dde'})", file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(BLAS_ENV, str(BLAS_THREADS)))  # before numpy
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]

    with scratch_dir(f"{args.workload}-") as work:
        bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        fp = fingerprint(bench.np, args.seed)
        print("fingerprint " + json.dumps(fp, sort_keys=True))
        try:
            result = bench.run()
        except StageFailed as e:
            print(f"error: {e}", file=sys.stderr)
            result = {"metrics": {}}

    return report(args, fp, bench, result, wanted)


def report(args, fp: dict, bench: Bench, result: dict, wanted: list) -> int:
    """Print the run's digests, failures and metrics, then the result line;
    with --out, also write the full result file."""
    gate = bench.gate
    for key, ds in sorted(bench.digests.items()):
        print(f"sha256 {key} {ds[0]} x{len(ds)}")
    for what in gate.failures:
        print(f"FAILED {what}")
    metrics = result["metrics"]
    if not args.trace and metrics:
        metrics["passed_frac"] = (gate.attempted - gate.failed) / gate.attempted
    out_metrics = {}
    for m in wanted:
        if m["name"] in metrics:
            out_metrics[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:40s} {metrics[m['name']]:14.6g} {m['unit']}")
    print(f"checks: {gate.attempted} attempted, {gate.failed} failed; "
          f"samples {json.dumps(result.get('samples', {}), sort_keys=True)}")
    print("raw " + json.dumps(result.get("raw", {}), sort_keys=True))
    correct = gate.failed == 0 and len(out_metrics) == len(wanted)
    line = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
            "metrics": out_metrics}
    if args.out:
        full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "fingerprint": fp, "result": line,
                "failed_frac": gate.failed / gate.attempted if gate.attempted else None,
                "failures": gate.failures, "samples": result.get("samples"),
                "raw": result.get("raw"),
                "sha256": {k: v[0] for k, v in sorted(bench.digests.items())}}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
