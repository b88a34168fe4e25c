"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints one summary line (replayed in the terminal summary) and
then asserts the criterion at its stated tolerance.  The slow pieces --
the 1000-graph corpus, the 500-iteration overfit run, and the three-mode
ablation -- are computed once in module-scoped fixtures.
"""

import os
import time

import numpy as np
import pytest

import graphpan.autodiff as ad
from graphpan.aggregation import ModelParams, aggregate_local, forward, fuse
from graphpan.cli import bench_scaling
from graphpan.config import TrainConfig
from graphpan.graph import random_multiplex_graph
from graphpan.imaging import synth_scene, upsample_bicubic
from graphpan.metrics import (
    Image,
    ergas,
    no_reference,
    prior_analysis,
    psnr,
    sam,
    scc,
    ssim,
)
from graphpan.patterns import generate_patterns
from graphpan.training import (
    ablation_table,
    contrastive_loss,
    grad_check,
    lr_schedule,
    scene_loss,
    toy_config,
    toy_scene,
    train,
)

from conftest import record_acceptance_line
from oracles import pattern_oracle, patterns_allclose


def _record(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_acceptance_line(f"C{num:02d} {name}: {status} — {detail}")


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def corpus():
    """1000 random 3-relation graphs plus oracle pattern sets."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    graphs, got, want = [], [], []
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        g = random_multiplex_graph(n, density=0.1, seed=int(rng.integers(0, 2**31)))
        graphs.append(g)
        got.append(generate_patterns(g))
        want.append(pattern_oracle(g))
    elapsed = time.perf_counter() - t0
    return {"graphs": graphs, "got": got, "want": want, "elapsed": elapsed}


@pytest.fixture(scope="module")
def overfit():
    """500-iteration default-config training run on the seed-0 scene."""
    scene = synth_scene(0, 64)
    cfg = TrainConfig(iters=500)
    t0 = time.perf_counter()
    params, logs = train([scene], cfg)
    elapsed = time.perf_counter() - t0
    baseline = ModelParams.init(cfg, seed=cfg.seed, zero_recon=True)
    base_psnr = psnr(forward(scene, baseline, cfg).fused, scene.gt)
    fused = forward(scene, params, cfg).fused
    return {
        "scene": scene,
        "cfg": cfg,
        "logs": logs,
        "elapsed": elapsed,
        "base_psnr": base_psnr,
        "trained_psnr": psnr(fused, scene.gt),
    }


@pytest.fixture(scope="module")
def ablation_rows():
    scene = synth_scene(0, 64)
    cfg = TrainConfig()
    return ablation_table([scene], cfg, iters=500, tail=25)


# ---------------------------------------------------------------------------


def test_c01_pattern_algebra_oracle_equivalence(corpus):
    mismatches = sum(
        0 if patterns_allclose(g, w, tol=1e-9) else 1
        for g, w in zip(corpus["got"], corpus["want"])
    )
    elapsed = corpus["elapsed"]
    ok = mismatches == 0 and elapsed < 30.0
    _record(1, "pattern-algebra oracle equivalence", ok,
            f"1000 graphs, {mismatches} mismatches, {elapsed:.1f}s (<30s)")
    assert mismatches == 0
    assert elapsed < 30.0


def test_c02_partition_and_conservation(corpus):
    violations = 0
    for g, ps in zip(corpus["graphs"], corpus["got"]):
        sig = {}
        for r in (1, 2, 3):
            src, dst, _ = g.relation(r)
            for s, d in zip(src, dst):
                sig[(int(d), int(s))] = sig.get((int(d), int(s)), 0) | (1 << (r - 1))
        seen = {}
        for p in ps:
            for row, col in zip(p.rows, p.cols):
                key = (int(row), int(col))
                seen[key] = seen.get(key, 0) + 1
        if set(seen) != set(sig):
            violations += 1
            continue
        if any(c != 1 for c in seen.values()):
            violations += 1
            continue
        if sum(p.nnz for p in ps) != len(sig):
            violations += 1
    _record(2, "pattern partition and conservation", violations == 0,
            f"1000 graphs, {violations} violations (need 0)")
    assert violations == 0


def test_c03_gradient_correctness():
    scene = toy_scene(0)
    cfg = toy_config(gamma=0.01)
    params = ModelParams.init(cfg, seed=1, zero_recon=False)
    t0 = time.perf_counter()
    worst = grad_check(scene, params, cfg)  # full sweep, every coordinate
    elapsed = time.perf_counter() - t0
    worst_err = max(worst.values())
    ok = worst_err <= 1e-4 and elapsed < 60.0
    _record(3, "gradient correctness vs finite differences", ok,
            f"worst group rel err {worst_err:.2e} (<=1e-4), {elapsed:.1f}s (<60s)")
    assert worst_err <= 1e-4, worst
    assert elapsed < 60.0


def test_c04_equation_exactness():
    checks = []

    # local identity: with alpha = 0 the normalised mixed adjacency is the
    # identity, so the local branch is U W
    rng = np.random.default_rng(0)
    ps = generate_patterns(random_multiplex_graph(12, density=0.2, seed=0))
    u = rng.standard_normal((ps.n_nodes, 6))
    w = rng.standard_normal((6, 6))
    got = ad.value(aggregate_local(ps, u, np.zeros(7), w))
    checks.append(("local-identity", float(np.max(np.abs(got - u @ w)))))

    # fusion is the exact mean of the two branches
    hl, hg = rng.random((6, 4)), rng.random((6, 4))
    checks.append(("fusion-mean",
                   float(np.max(np.abs(ad.value(fuse(hl, hg)) - (hl + hg) / 2.0)))))

    # loss decomposition total = l1 + gamma * lcl
    cfg2 = toy_config(gamma=0.01)
    p2 = ModelParams.init(cfg2, seed=3, zero_recon=False).astype(np.float64)
    l1, lcl, total = scene_loss(toy_scene(0), p2, cfg2)
    checks.append(("loss-decomposition", abs(total - (l1 + 0.01 * lcl))))

    # QNR product identity
    sc = synth_scene(1, 32)
    rep = no_reference(upsample_bicubic(sc.lrms, sc.scale), sc.pan, sc.lrms)
    checks.append(("qnr-product", abs(rep.qnr - (1 - rep.d_lambda) * (1 - rep.d_s))))

    # lr schedule anchors
    cfg3 = TrainConfig()
    checks.append(("lr-at-0", abs(lr_schedule(cfg3, 0) - 1e-4)))
    checks.append(("lr-at-3000", abs(lr_schedule(cfg3, 3000) - 8.5e-5)))

    worst = max(err for _, err in checks)
    ok = worst <= 1e-12
    detail = ", ".join(f"{name} {err:.1e}" for name, err in checks)
    _record(4, "equation exactness", ok, detail)
    assert worst <= 1e-12, checks


def test_c05_metric_anchors():
    gt = synth_scene(0, 64).gt
    vals = {
        "ssim": ssim(gt, gt),
        "sam": sam(gt, gt),
        "ergas": ergas(gt, gt),
        "scc": scc(gt, gt),
        "psnr_cap": psnr(gt, gt),
    }
    a = Image.from_array(np.full((16, 16, 4), 0.5))
    b = Image.from_array(np.full((16, 16, 4), 0.6))
    vals["psnr_20db"] = psnr(a, b)
    ok = (
        abs(vals["ssim"] - 1.0) <= 1e-9
        and abs(vals["sam"]) <= 1e-9
        and abs(vals["ergas"]) <= 1e-9
        and abs(vals["scc"] - 1.0) <= 1e-6
        and vals["psnr_cap"] == 99.0
        and abs(vals["psnr_20db"] - 20.0) <= 0.01
    )
    _record(5, "metric identity anchors", ok,
            f"ssim {vals['ssim']:.12f}, sam {vals['sam']:.2e}, ergas {vals['ergas']:.2e}, "
            f"scc {vals['scc']:.8f}, psnr cap {vals['psnr_cap']:.0f}, "
            f"0.5-vs-0.6 {vals['psnr_20db']:.4f} dB")
    assert abs(vals["ssim"] - 1.0) <= 1e-9
    assert abs(vals["sam"]) <= 1e-9
    assert abs(vals["ergas"]) <= 1e-9
    assert abs(vals["scc"] - 1.0) <= 1e-6
    assert vals["psnr_cap"] == 99.0
    assert abs(vals["psnr_20db"] - 20.0) <= 0.01


def test_c06_contrastive_closed_forms():
    tau = 0.5
    rng = np.random.default_rng(0)
    errs = []
    for n in (2, 4, 8):
        h = np.tile(rng.normal(size=3), (n, 1))
        errs.append(abs(float(ad.value(contrastive_loss(h, h, tau))) - np.log(n)))
    for n in (3, 5):
        h = np.eye(n)
        want = -np.log(np.exp(1 / tau) / (np.exp(1 / tau) + (n - 1)))
        errs.append(abs(float(ad.value(contrastive_loss(h, h, tau))) - want))
    worst = max(errs)
    ok = worst <= 1e-6
    _record(6, "contrastive closed forms", ok,
            f"worst |err| {worst:.2e} over log-n and orthogonal anchors (<=1e-6)")
    assert worst <= 1e-6


def test_c07_overfit_smoke(overfit):
    gain = overfit["trained_psnr"] - overfit["base_psnr"]
    totals = np.array([lb.total for lb in overfit["logs"]])
    windows = totals.reshape(10, 50).mean(axis=1)
    drops = sum(1 for a, b in zip(windows, windows[1:]) if b <= a)
    frac = drops / (len(windows) - 1)
    elapsed = overfit["elapsed"]
    ok = gain >= 1.0 and frac >= 0.9 and elapsed < 600.0
    _record(7, "single-scene overfit", ok,
            f"bicubic {overfit['base_psnr']:.3f} dB -> trained {overfit['trained_psnr']:.3f} dB "
            f"(gain {gain:+.3f}, need >=1.0), windows non-increasing {drops}/{len(windows) - 1}, "
            f"{elapsed:.0f}s (<600s)")
    assert gain >= 1.0
    assert frac >= 0.9
    assert elapsed < 600.0


def test_c08_ablation_direction(ablation_rows):
    rows = ablation_rows
    assert [r["mode"] for r in rows] == ["full", "local-only", "global-only"]
    header = f"{'mode':<12} {'final_l1':>10} {'final_total':>12}"
    table = [header] + [
        f"{r['mode']:<12} {r['final_l1']:>10.6f} {r['final_total']:>12.6f}" for r in rows
    ]
    print("\n".join(table))
    full = rows[0]["final_l1"]
    best_single = min(rows[1]["final_l1"], rows[2]["final_l1"])
    gate = best_single * 1.05
    ok = full <= gate
    # the rows move with BLAS threading, so the line names the thread setting
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    _record(8, "ablation direction", ok,
            f"full {full:.6f} vs best single-branch {best_single:.6f} "
            f"(need full <= {gate:.6f}, margin {100 * (1 - full / gate):.2f}%); "
            + "; ".join(f"{r['mode']} {r['final_l1']:.6f}" for r in rows)
            + f"; OPENBLAS_NUM_THREADS={threads}")
    assert full <= best_single * 1.05, (
        "fused model does not beat its best single branch at this training "
        f"horizon: full={full:.6f}, local-only={rows[1]['final_l1']:.6f}, "
        f"global-only={rows[2]['final_l1']:.6f}"
    )


def test_c09_complexity_bench():
    # sizes at which every timed call takes milliseconds, so the fit sees
    # the work and not the per-call overhead
    rows, exps = bench_scaling(sizes=(6400, 12800, 25600, 51200), d=32, seed=0)
    worst = max(exps["patterns"], exps["global"])
    ok = worst <= 2.3
    shortest = min(min(r["t_patterns"], r["t_global"]) for r in rows)
    _record(9, "runtime scaling exponents", ok,
            f"patterns {exps['patterns']:.2f}, global {exps['global']:.2f} (<=2.3); "
            f"shortest timed call {1e3 * shortest:.2f} ms")
    assert exps["patterns"] <= 2.3, rows
    assert exps["global"] <= 2.3, rows


def test_c10_prior_direction():
    pan_cs, lr_cs = [], []
    for seed in range(10):
        rows = prior_analysis(synth_scene(seed, 64))
        pan_cs.extend(c for name, _, c in rows if name.startswith("pan_vs_gt"))
        lr_cs.extend(c for name, _, c in rows if name.startswith("lrms_vs_gt"))
    pan_mean, lr_mean = float(np.mean(pan_cs)), float(np.mean(lr_cs))
    ok = pan_mean > lr_mean
    _record(10, "input-prior histogram direction", ok,
            f"mean pan-vs-gt coeff {pan_mean:.4f} > mean lrms-vs-gt coeff {lr_mean:.4f} "
            f"over 10 scenes: {'yes' if ok else 'no'}")
    assert pan_mean > lr_mean
