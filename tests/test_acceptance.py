"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS line with
the measured numbers; pytest failure output marks the corresponding FAIL.
Reference values come from the frozen naive implementations in oracles.py.
"""

import json
import math
import time

import numpy as np
import pytest

from dde.tensor import Tensor, Rng, grad
from dde import data, train, cli
from dde.encoder import build_teacher, compress
from dde.losses import (distill_loss, mutual_info, adapt_loss,
                        isolation_loss, bounded, hinge)
from dde.spectral import (conv_singular_values, clip_singular_values,
                          network_lipschitz, zeta_bound, certify)
from dde.evaluate import factor_aurocs, fit_reasoners, latency_benchmark

from oracles import (fd_grad, rel_err, circulant_conv_matrix,
                     symmetric_kl_distill, mutual_info_closed,
                     kappa_theta_closed, zeta_closed)


# ---------------------------------------------------------------------------
# Shared training recipe for the integration criteria (4 and 5).
# ---------------------------------------------------------------------------

ARCH = {"widths": (8, 16, 32), "latent_dim": 16,
        "rep_dims": {"haze": [3], "backdrop": [6]}}
COUNTS = {"train": 100, "calibration": 25, "test": 15}   # 400 train samples
PAIRS = 300
TEACHER_EPOCHS = 15
TEACHER_KL = 0.1
STUDENT_EPOCHS = 50
STUDENT_LR = 3e-3
MARGIN = 0.1
# per-factor dual schedule for the preservation run: the pattern factor's
# constraints stay active (the bounded distillation term neglects it), the
# overlay factor keeps a small constant weight (its held-out values need the
# extrapolation only distillation provides)
PRESERVE_INIT = {("A", "haze"): 0.01, ("I", "haze"): 0.01,
                 ("A", "backdrop"): 0.3, ("I", "backdrop"): 0.3}
PRESERVE_RATES = {("A", "haze"): 0.0, ("I", "haze"): 0.0,
                  ("A", "backdrop"): 0.05, ("I", "backdrop"): 0.05}
# uniform aggressive schedule for the convergence run
CONVERGE_INIT = {(k, f): 1.0 for k in ("A", "I") for f in ("haze", "backdrop")}
CONVERGE_RATES = {(k, f): 0.5 for k in ("A", "I") for f in ("haze", "backdrop")}
ZERO_DUALS = {(k, f): 0.0 for k in ("A", "I") for f in ("haze", "backdrop")}


def _margins():
    return {(k, f): MARGIN for k in ("A", "I") for f in ("haze", "backdrop")}


def _make_dataset(seed):
    ds = data.generate(data.default_factor_specs(), COUNTS, seed=seed)
    data.build_all_pairs(ds, PAIRS, seed=seed)
    return ds


def _make_teacher(ds, seed):
    cfg = train.TeacherConfig(arch=dict(ARCH), epochs=TEACHER_EPOCHS,
                              seed=seed, kl_weight=TEACHER_KL)
    return train.train_teacher(ds, cfg)


def _distill(ds, teacher, seed, dual_init, dual_rates):
    cfg = train.TrainConfig(epochs=STUDENT_EPOCHS, batch_size=8, lr=STUDENT_LR,
                            seed=seed, ratio=0.5, margins=_margins(),
                            dual_init=dict(dual_init),
                            dual_rates=dict(dual_rates))
    return train.distill(teacher, ds, cfg)


@pytest.fixture(scope="module")
def pipeline_runs():
    """One teacher + constrained student + unconstrained ablation per seed,
    plus the aggressive-dual convergence run on seed 1."""
    runs = {}
    for seed in (1, 2, 3):
        ds = _make_dataset(seed)
        teacher = _make_teacher(ds, seed)
        t0 = time.time()
        student, _ = _distill(ds, teacher, seed, PRESERVE_INIT, PRESERVE_RATES)
        distill_secs = time.time() - t0
        ablation, _ = _distill(ds, teacher, seed, ZERO_DUALS, ZERO_DUALS)
        runs[seed] = {
            "dataset": ds, "teacher": teacher, "student": student,
            "ablation": ablation, "distill_secs": distill_secs,
            "auroc": {
                role: factor_aurocs(m, ds, fit_reasoners(m, ds, seed=seed))
                for role, m in (("teacher", teacher), ("student", student),
                                ("ablation", ablation))
            },
        }
    t0 = time.time()
    _, trace = _distill(runs[1]["dataset"], runs[1]["teacher"], 1,
                        CONVERGE_INIT, CONVERGE_RATES)
    runs["converge_trace"] = trace
    runs["converge_secs"] = time.time() - t0
    return runs


# ---------------------------------------------------------------------------
# Criterion 1: every loss gradient matches central finite differences.
# ---------------------------------------------------------------------------

def test_1_loss_gradients_match_finite_differences():
    t0 = time.time()
    rng = Rng(20260823)
    n = 6
    rep = [1, 4]
    worst = 0.0
    checked = 0

    def check(build, x0):
        nonlocal worst, checked
        x = Tensor(np.asarray(x0, float), requires_grad=True)
        loss = build(x)
        (g,) = grad(loss, [x])
        ref = fd_grad(lambda v: float(build(Tensor(v)).data), x0)
        worst = max(worst, rel_err(g, ref))
        checked += 1

    from dde.encoder import GaussianLatent

    def lat(mu, lv):
        return GaussianLatent(mu if isinstance(mu, Tensor) else Tensor(mu),
                              lv if isinstance(lv, Tensor) else Tensor(lv))

    for _ in range(20):
        mu_t, lv_t = rng.normal(n), rng.normal(n) * 0.3
        mu_s, lv_s = rng.normal(n), rng.normal(n) * 0.3
        a, a2 = rng.normal(n), rng.normal(n)
        mu2, lv2 = rng.normal(n), rng.normal(n) * 0.3

        # distillation loss wrt student mu and student logvar
        check(lambda x: distill_loss(lat(mu_t, lv_t), lat(x, lv_s)), mu_s)
        check(lambda x: distill_loss(lat(mu_t, lv_t), lat(mu_s, x)), lv_s)
        # pointwise information estimate wrt mu and logvar
        check(lambda x: mutual_info(a, x, Tensor(lv_s)).sum(), mu_s)
        check(lambda x: mutual_info(a, Tensor(mu_s), x).sum(), lv_s)
        # adaptability loss wrt each side's mu, through each side's MI table
        check(lambda x: adapt_loss(mutual_info(a, x, lv_s),
                                   mutual_info(a2, mu2, lv2), rep), mu_s)
        check(lambda x: adapt_loss(mutual_info(a, mu_s, lv_s),
                                   mutual_info(a2, x, lv2), rep), mu2)
        # isolation loss wrt mu and logvar
        check(lambda x: isolation_loss(mutual_info(a, x, lv_s),
                                       mutual_info(a2, mu2, lv2), rep), mu_s)
        check(lambda x: isolation_loss(mutual_info(a, mu_s, lv_s),
                                       mutual_info(a2, mu2, x), rep), lv2)
        # bounded composites and the margin hinge (away from the kink)
        v = rng.normal(4)
        check(lambda x: bounded(x, "D").sum(), v)
        check(lambda x: bounded(x, "A").sum(), v)
        check(lambda x: bounded(x, "I").sum(), v)
        check(lambda x: hinge(x, 0.05).sum(), v + np.where(np.abs(v - 0.05) < 1e-3, 0.01, 0.0))

    elapsed = time.time() - t0
    assert checked >= 100
    assert worst <= 1e-4
    assert elapsed < 60.0
    print(f"CRITERION 1: PASS - {checked} gradient checks, "
          f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: FFT spectra equal dense circulant SVD; clipping projects.
# ---------------------------------------------------------------------------

def test_2_spectra_match_dense_circulant_svd():
    t0 = time.time()
    rng = Rng(7)
    worst = 0.0
    clip_worst = 0.0
    cases = 0
    for cin in (1, 2, 3):
        for cout in (1, 2, 3):
            for k in (1, 2, 3):
                for spatial in ((3, 3), (4, 6), (5, 5), (8, 8)):
                    if k > min(spatial):
                        continue
                    w = rng.normal((cout, cin, k, k))
                    got = conv_singular_values(w, spatial).values
                    dense = np.linalg.svd(circulant_conv_matrix(w, spatial),
                                          compute_uv=False)
                    m = min(len(got), len(dense))
                    worst = max(worst, float(np.max(np.abs(
                        np.sort(got)[::-1][:m] - np.sort(dense)[::-1][:m]))))
                    # clip to 60% of the current norm and re-measure
                    theta = 0.6 * float(np.sort(dense)[::-1][0])
                    clipped = clip_singular_values(w, spatial, theta)
                    mx = conv_singular_values(clipped, spatial).max
                    clip_worst = max(clip_worst, mx - theta)
                    again = clip_singular_values(clipped, spatial, theta)
                    assert np.max(np.abs(again - clipped)) <= 1e-10
                    cases += 1
    elapsed = time.time() - t0
    assert worst <= 1e-8
    assert clip_worst <= 1e-8
    assert elapsed < 120.0
    print(f"CRITERION 2: PASS - {cases} kernels, spectrum err {worst:.2e}, "
          f"clip overshoot {clip_worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: closed-form oracles for the losses and the bound formulas.
# ---------------------------------------------------------------------------

def test_3_closed_form_oracles():
    rng = Rng(99)
    from dde.encoder import GaussianLatent

    # symmetry and zero at equality
    worst_sym = 0.0
    for _ in range(50):
        mu_a, lv_a = rng.normal(8), rng.normal(8) * 0.5
        mu_b, lv_b = rng.normal(8), rng.normal(8) * 0.5
        ab = float(distill_loss(GaussianLatent(Tensor(mu_a), Tensor(lv_a)),
                                GaussianLatent(Tensor(mu_b), Tensor(lv_b))).data)
        ba = float(distill_loss(GaussianLatent(Tensor(mu_b), Tensor(lv_b)),
                                GaussianLatent(Tensor(mu_a), Tensor(lv_a))).data)
        aa = float(distill_loss(GaussianLatent(Tensor(mu_a), Tensor(lv_a)),
                                GaussianLatent(Tensor(mu_a), Tensor(lv_a))).data)
        worst_sym = max(worst_sym, abs(ab - ba), abs(aa),
                        abs(ab - symmetric_kl_distill(mu_a, lv_a, mu_b, lv_b)))
    assert worst_sym <= 1e-12

    # pointwise information estimate against the hand formula
    worst_mi = 0.0
    for _ in range(50):
        a, mu, lv = rng.normal(8), rng.normal(8), rng.normal(8)
        got = mutual_info(a, mu, lv).data
        worst_mi = max(worst_mi, rel_err(got, mutual_info_closed(a, mu, lv)))
    assert worst_mi <= 1e-12

    # Lipschitz coefficient and generalization bounds with the published
    # constants (nu = 4898, per-kind kappa/range/sample-count table)
    consts = {"kappa": {"D": 3.0, "A": 61.5, "I": 206.4},
              "loss_bound": {"D": 1.0, "A": 54.72, "I": 216.8},
              "omega": 0.001, "delta": 0.1,
              "m": {"D": 3000, "A": 1500, "I": 1500}}
    chi, delta_op, nu, layers, d = 55.4, 0.37, 4898.0, 7, 12345
    worst_bound = 0.0
    for kind in ("D", "A", "I"):
        kappa = consts["kappa"][kind]
        got_kt = network_lipschitz(chi, kappa, delta_op, nu, layers)
        want_kt = kappa_theta_closed(chi, kappa, delta_op, nu, layers)
        worst_bound = max(worst_bound, abs(got_kt - want_kt) / abs(want_kt))
        b = zeta_bound(consts["m"][kind], d, consts["delta"],
                       consts["loss_bound"][kind], consts["omega"],
                       kappa, chi, delta_op, nu, layers)
        wd, wc, wz = zeta_closed(consts["m"][kind], d, consts["delta"],
                                 consts["loss_bound"][kind], consts["omega"],
                                 kappa, chi, delta_op, nu, layers)
        worst_bound = max(worst_bound,
                          abs(b.dudley - wd) / abs(wd),
                          abs(b.concentration - wc) / abs(wc),
                          abs(b.zeta - wz) / abs(wz))
    assert worst_bound <= 1e-12
    print(f"CRITERION 3: PASS - distill sym/zero {worst_sym:.1e}, "
          f"info formula {worst_mi:.1e}, bound formulas {worst_bound:.1e}")


# ---------------------------------------------------------------------------
# Criterion 4: constrained training converges under the margins.
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_4_primal_dual_convergence(pipeline_runs):
    ds = pipeline_runs[1]["dataset"]
    trace = pipeline_runs["converge_trace"]
    assert len(ds.indices("train")) <= 3000
    assert len(trace.records) <= 50
    assert pipeline_runs["converge_secs"] < 1800

    margins = _margins()
    keys = [(k, f) for k in ("A", "I") for f in ("haze", "backdrop")]
    final = trace.records[-5:]
    worst_tail = 0.0
    for rec in final:
        for kind, f in keys:
            gamma = margins[(kind, f)]
            h = rec[f"hinge_{kind}_{f}"]
            worst_tail = max(worst_tail, h - gamma)
            assert h < gamma, (kind, f, h, gamma)

    # dual variables: never negative, never decreasing while violated
    for rec in trace.records:
        for kind, f in keys:
            assert rec[f"lambda_{kind}_{f}"] >= 0.0
    for br in trace.batch_records:
        for kind, f in keys:
            before = br["lambda_before"][(kind, f)]
            after = br["lambda_after"][(kind, f)]
            if br["hinges"][(kind, f)] > 0:
                assert after >= before
    print(f"CRITERION 4: PASS - {len(trace.records)} epochs, all hinge means "
          f"below margins for the final 5 epochs (max slack {worst_tail:.2e}), "
          f"duals non-negative and ascending while violated")


# ---------------------------------------------------------------------------
# Criterion 5: constraints preserve per-factor detection through compression.
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_5_detection_preserved_vs_ablation(pipeline_runs):
    factors = ("haze", "backdrop")
    med = {role: {f: float(np.median([pipeline_runs[s]["auroc"][role][f]
                                      for s in (1, 2, 3)]))
                  for f in factors}
           for role in ("teacher", "student", "ablation")}
    for s in (1, 2, 3):
        for f in factors:
            assert pipeline_runs[s]["auroc"]["teacher"][f] >= 0.85, (s, f)
    for f in factors:
        assert abs(med["student"][f] - med["teacher"][f]) <= 0.10, (f, med)
    assert any(med["ablation"][f] < med["student"][f] for f in factors), med
    print("CRITERION 5: PASS - teacher >= 0.85 per factor on every seed; "
          f"median AUROC teacher {med['teacher']}, student {med['student']} "
          f"(within 0.10), ablation {med['ablation']} strictly lower on >= 1 factor")


# ---------------------------------------------------------------------------
# Criterion 6: compression ratio sweep - size strictly down, latency flat.
# ---------------------------------------------------------------------------

def test_6_compression_monotonicity():
    teacher = build_teacher({"widths": (8, 16, 32), "latent_dim": 16,
                             "rep_dims": {"haze": [3], "backdrop": [6]},
                             "seed": 5})
    img = Rng(5).uniform(0.0, 1.0, (1, 3, 32, 32))
    ratios = [0.1, 0.3, 0.5, 0.7, 0.9]   # increasing compression
    students = [compress(teacher, r, seed=5) for r in ratios]
    sizes = [st.parameter_count() * 8 for st in students]
    for st in students:
        st.freeze()     # time the deployed path: a loaded model is frozen
    # 1000 encodes per ratio in 50 rounds of 20, the ratio order reversed
    # every round: on a shared machine the CPU speed can swing by tens of
    # percent within a second, so each ratio is timed all through the test
    # and a swing weighs on every ratio alike, not on whichever ran during it
    rounds = [[] for _ in ratios]
    for k in range(50):
        order = range(len(ratios)) if k % 2 == 0 else reversed(range(len(ratios)))
        for i in order:
            rounds[i].append(latency_benchmark(students[i], img, runs=20)["p50_ms"])
    lats = [float(np.median(p50s)) for p50s in rounds]
    for a, b in zip(sizes, sizes[1:]):
        assert b < a, sizes
    for a, b in zip(lats, lats[1:]):
        assert b <= a * 1.10, lats
    print(f"CRITERION 6: PASS - bytes {sizes} strictly decreasing, "
          f"median round p50 latency ms {[round(x, 3) for x in lats]} "
          f"non-increasing within 10%")


# ---------------------------------------------------------------------------
# Criterion 7: bound scaling in the sample count.
# ---------------------------------------------------------------------------

def test_7_bound_scaling():
    ds = data.generate(data.default_factor_specs(),
                       {"train": 4, "calibration": 2, "test": 2}, seed=3)
    model = build_teacher({"widths": (4, 8), "latent_dim": 10,
                           "rep_dims": {"haze": [1], "backdrop": [3]},
                           "seed": 3})
    # perturb so the drift term is non-zero
    model.params[0]["w"].data += 0.01
    grid = [10, 30, 100, 300, 1000, 1500, 2000, 3000]
    rep = certify(model, ds, m_grid=grid)
    assert rep["constants"]["omega"] == 0.001
    rows = rep["zeta_vs_m"]
    worst_ratio = 0.0
    for kind in ("D", "A", "I"):
        base = rows[0][f"dudley_{kind}"] * math.sqrt(rows[0]["m"])
        for row in rows[1:]:
            cur = row[f"dudley_{kind}"] * math.sqrt(row["m"])
            worst_ratio = max(worst_ratio, abs(cur - base) / abs(base))
    assert worst_ratio <= 1e-10
    zd = [row["zeta_D"] for row in rows]
    for a, b in zip(zd, zd[1:]):
        assert b < a, zd
    print(f"CRITERION 7: PASS - dudley * sqrt(m) constant to {worst_ratio:.1e}; "
          f"zeta_D strictly decreasing over m = {grid}")


# ---------------------------------------------------------------------------
# Criterion 8: bit-identical rerun of the full pipeline.
# ---------------------------------------------------------------------------

def _run_pipeline(cfg_path, root):
    root.mkdir()
    assert cli.main(["gen-data", "--config", cfg_path, "--out", str(root / "ds")]) == 0
    assert cli.main(["train-teacher", "--config", cfg_path, "--data", str(root / "ds"),
                     "--out", str(root / "teacher.bin")]) == 0
    assert cli.main(["distill", "--config", cfg_path, "--data", str(root / "ds"),
                     "--teacher", str(root / "teacher.bin"),
                     "--out", str(root / "student.bin"),
                     "--trace", str(root / "trace.csv")]) == 0
    assert cli.main(["certify", "--config", cfg_path, "--data", str(root / "ds"),
                     "--model", str(root / "student.bin"),
                     "--out-json", str(root / "cert.json"),
                     "--out-csv", str(root / "zeta.csv")]) == 0
    assert cli.main(["evaluate", "--config", cfg_path, "--data", str(root / "ds"),
                     "--teacher", str(root / "teacher.bin"),
                     "--student", str(root / "student.bin"),
                     "--out", str(root / "eval.json")]) == 0


def test_8_deterministic_rerun(tmp_path):
    cfg = {"seed": 12,
           "data": {"counts": {"train": 6, "calibration": 4, "test": 4},
                    "pairs_per_factor": 30},
           "teacher": {"epochs": 2,
                       "arch": {"widths": [4, 8], "latent_dim": 10,
                                "rep_dims": {"haze": [1], "backdrop": [3]}}},
           "distill": {"epochs": 2, "ratio": 0.5},
           "bench": {"runs": 10}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    _run_pipeline(str(cfg_path), tmp_path / "a")
    _run_pipeline(str(cfg_path), tmp_path / "b")

    identical = []
    for name in ("teacher.bin", "student.bin", "cert.json", "zeta.csv",
                 "trace.csv", "ds/manifest.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
        identical.append(name)
    # evaluation report: identical apart from measured wall-clock timings
    ea = json.loads((tmp_path / "a" / "eval.json").read_text())
    eb = json.loads((tmp_path / "b" / "eval.json").read_text())
    ea.pop("timing"), eb.pop("timing")
    assert ea == eb
    identical.append("eval.json (timing excluded)")
    print(f"CRITERION 8: PASS - bit-identical rerun: {', '.join(identical)}")
