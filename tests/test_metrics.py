"""Quality metrics against closed-form anchors and slow loop oracles.

Every sliding-window metric is cross-checked against a direct per-window
Python loop so the vectorised implementations never certify themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpan.imaging import Image, ScenePair, degrade_image, synth_scene, upsample_bicubic
from graphpan.metrics import (
    PSNR_CAP,
    MetricReport,
    NoRefReport,
    d_lambda,
    d_s,
    ergas,
    full_reference,
    histogram_emd,
    intensity_histogram,
    no_reference,
    prior_analysis,
    prior_coefficient,
    psnr,
    q_index,
    sam,
    scc,
    ssim,
)


def _img(arr):
    return Image.from_array(np.asarray(arr, dtype=np.float64))


def _random_img(seed, h, w, c):
    rng = np.random.default_rng(seed)
    return _img(rng.random((h, w, c)))


# ---------------------------------------------------------------------------
# slow, independent oracles


def _gauss_win(size=11, sigma=1.5):
    x = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(x**2) / (2 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def ssim_oracle(fused, gt):
    win = _gauss_win()
    c1, c2 = 0.01**2, 0.03**2
    vals = []
    for b in range(fused.channels):
        x = fused.data[:, :, b].astype(np.float64)
        y = gt.data[:, :, b].astype(np.float64)
        h, w = x.shape
        scores = []
        for i in range(h - 10):
            for j in range(w - 10):
                px = x[i : i + 11, j : j + 11]
                py = y[i : i + 11, j : j + 11]
                mx = np.sum(win * px)
                my = np.sum(win * py)
                sxx = np.sum(win * px * px) - mx * mx
                syy = np.sum(win * py * py) - my * my
                sxy = np.sum(win * px * py) - mx * my
                scores.append(
                    ((2 * mx * my + c1) * (2 * sxy + c2))
                    / ((mx * mx + my * my + c1) * (sxx + syy + c2))
                )
        vals.append(np.mean(scores))
    return float(np.mean(vals))


def sam_oracle(fused, gt):
    x = fused.data.astype(np.float64).reshape(-1, fused.channels)
    y = gt.data.astype(np.float64).reshape(-1, gt.channels)
    angles = []
    for u, v in zip(x, y):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0.0 or nv == 0.0:
            angles.append(0.0)
        else:
            angles.append(np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0)))
    return float(np.mean(angles))


def scc_oracle(fused, gt):
    vals = []
    for b in range(fused.channels):
        x = fused.data[:, :, b].astype(np.float64)
        y = gt.data[:, :, b].astype(np.float64)
        h, w = x.shape
        lx = np.empty((h - 2, w - 2))
        ly = np.empty((h - 2, w - 2))
        for i in range(1, h - 1):
            for j in range(1, w - 1):
                lx[i - 1, j - 1] = x[i - 1, j] + x[i + 1, j] + x[i, j - 1] + x[i, j + 1] - 4 * x[i, j]
                ly[i - 1, j - 1] = y[i - 1, j] + y[i + 1, j] + y[i, j - 1] + y[i, j + 1] - 4 * y[i, j]
        a = lx - lx.mean()
        c = ly - ly.mean()
        vals.append(np.sum(a * c) / np.sqrt(np.sum(a * a) * np.sum(c * c)))
    return float(np.mean(vals))


def q_index_oracle(x, y, block):
    x = x.astype(np.float64)
    y = y.astype(np.float64)
    b = min(block, x.shape[0], x.shape[1])
    scores = []
    for i in range(x.shape[0] - b + 1):
        for j in range(x.shape[1] - b + 1):
            px = x[i : i + b, j : j + b]
            py = y[i : i + b, j : j + b]
            mx, my = px.mean(), py.mean()
            sxx = px.var()
            syy = py.var()
            sxy = np.mean(px * py) - mx * my
            scores.append(4 * sxy * mx * my / ((sxx + syy) * (mx * mx + my * my)))
    return float(np.mean(scores))


# ---------------------------------------------------------------------------


class TestPsnr:
    def test_identical_capped(self):
        img = _random_img(0, 8, 8, 4)
        assert psnr(img, img) == PSNR_CAP == 99.0

    def test_half_vs_point_six_is_20db(self):
        a = _img(np.full((16, 16, 4), 0.5))
        b = _img(np.full((16, 16, 4), 0.6))
        assert psnr(a, b) == pytest.approx(20.0, abs=0.01)

    def test_tiny_error_capped(self):
        a = _img(np.full((8, 8, 1), 0.5))
        b = _img(np.full((8, 8, 1), 0.5 + 1e-6))
        assert psnr(a, b) == 99.0

    def test_formula_oracle(self):
        a, b = _random_img(1, 9, 7, 3), _random_img(2, 9, 7, 3)
        x = a.data.astype(np.float64)
        y = b.data.astype(np.float64)
        want = 10 * np.log10(1.0 / np.mean((x - y) ** 2))
        assert psnr(a, b) == pytest.approx(want, rel=1e-12)

    def test_symmetric(self):
        a, b = _random_img(3, 6, 6, 2), _random_img(4, 6, 6, 2)
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(_random_img(0, 4, 4, 1), _random_img(0, 4, 5, 1))


class TestSsim:
    def test_identical_is_one(self):
        img = _random_img(5, 16, 16, 4)
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-9)

    def test_loop_oracle(self):
        a, b = _random_img(6, 14, 15, 2), _random_img(7, 14, 15, 2)
        assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), rel=1e-10)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            ssim(_random_img(0, 10, 16, 1), _random_img(0, 10, 16, 1))

    def test_degraded_lower_than_identical(self):
        gt = synth_scene(0, 64).gt
        blurry = upsample_bicubic(degrade_image(gt, 4), 4)
        assert ssim(blurry, gt) < 1.0


class TestSam:
    def test_identical_zero(self):
        img = _random_img(8, 8, 8, 4)
        assert sam(img, img) == pytest.approx(0.0, abs=1e-9)

    def test_loop_oracle(self):
        a, b = _random_img(9, 7, 6, 4), _random_img(10, 7, 6, 4)
        assert sam(a, b) == pytest.approx(sam_oracle(a, b), rel=1e-9)

    def test_zero_spectrum_contributes_zero(self):
        fused = _img(np.array([[[0.0, 0.0], [0.3, 0.4]]]))
        gt = _img(np.array([[[0.5, 0.5], [0.4, 0.3]]]))
        want = np.arccos(0.96) / 2.0  # only the live pixel counts
        assert sam(fused, gt) == pytest.approx(want, rel=1e-6)

    def test_scaled_spectra_zero_angle(self):
        base = np.random.default_rng(11).random((5, 5, 4)) * 0.4 + 0.1
        assert sam(_img(base), _img(base * 2.0)) == pytest.approx(0.0, abs=1e-7)


class TestErgas:
    def test_identical_zero(self):
        img = _random_img(12, 8, 8, 4)
        assert ergas(img, img) == pytest.approx(0.0, abs=1e-9)

    def test_formula_oracle(self):
        a, b = _random_img(13, 10, 9, 4), _random_img(14, 10, 9, 4)
        terms = []
        for band in range(4):
            x = a.data[:, :, band].astype(np.float64)
            y = b.data[:, :, band].astype(np.float64)
            terms.append(np.mean((x - y) ** 2) / np.mean(y) ** 2)
        want = 25.0 * np.sqrt(np.mean(terms))
        assert ergas(a, b, scale=4) == pytest.approx(want, rel=1e-12)

    def test_scale_factor(self):
        a, b = _random_img(15, 8, 8, 2), _random_img(16, 8, 8, 2)
        assert ergas(a, b, scale=2) == pytest.approx(2.0 * ergas(a, b, scale=4), rel=1e-12)


class TestScc:
    def test_identical_is_one(self):
        img = _random_img(17, 12, 12, 4)
        assert scc(img, img) == pytest.approx(1.0, abs=1e-6)

    def test_loop_oracle(self):
        a, b = _random_img(18, 9, 11, 3), _random_img(19, 9, 11, 3)
        assert scc(a, b) == pytest.approx(scc_oracle(a, b), rel=1e-10)

    def test_inverted_image_anticorrelated(self):
        x = _random_img(20, 10, 10, 2)
        inv = _img(1.0 - x.data.astype(np.float64))
        assert scc(x, inv) == pytest.approx(-1.0, abs=1e-5)

    def test_constant_band_scores_zero(self):
        flat = _img(np.full((8, 8, 1), 0.5))
        assert scc(flat, _random_img(21, 8, 8, 1)) == 0.0


class TestFullReference:
    def test_fields_match_components(self):
        a, b = _random_img(22, 16, 16, 4), _random_img(23, 16, 16, 4)
        rep = full_reference(a, b, scale=4)
        assert isinstance(rep, MetricReport)
        assert rep.psnr == psnr(a, b)
        assert rep.ssim == ssim(a, b)
        assert rep.sam == sam(a, b)
        assert rep.ergas == ergas(a, b, scale=4)
        assert rep.scc == scc(a, b)
        assert rep.as_row() == [rep.psnr, rep.ssim, rep.sam, rep.ergas, rep.scc]

    def test_identity_anchors(self):
        gt = synth_scene(0, 64).gt
        rep = full_reference(gt, gt)
        assert rep.psnr == 99.0
        assert rep.ssim == pytest.approx(1.0, abs=1e-9)
        assert rep.sam == pytest.approx(0.0, abs=1e-9)
        assert rep.ergas == pytest.approx(0.0, abs=1e-9)
        assert rep.scc == pytest.approx(1.0, abs=1e-6)


class TestQIndex:
    def test_identical_random_is_one(self):
        x = np.random.default_rng(24).random((10, 12))
        assert q_index(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_loop_oracle_clamped_block(self):
        # the block clamps to an even side (10) and to an odd one (9)
        rng = np.random.default_rng(25)
        for shape in [(10, 12), (12, 9)]:
            x, y = rng.random(shape), rng.random(shape)
            assert q_index(x, y) == pytest.approx(q_index_oracle(x, y, 32), rel=1e-10)

    def test_loop_oracle_small_block(self):
        # the valid windows start at offset block // 2 of the filtered
        # image, so both parities of the block are checked
        rng = np.random.default_rng(26)
        for shape, block in [((9, 9), 4), ((9, 11), 5)]:
            x, y = rng.random(shape), rng.random(shape)
            assert q_index(x, y, block=block) == pytest.approx(
                q_index_oracle(x, y, block), rel=1e-10
            )

    def test_constant_pair_luminance_only(self):
        x = np.full((6, 6), 0.4)
        y = np.full((6, 6), 0.8)
        want = 2 * 0.4 * 0.8 / (0.4**2 + 0.8**2)
        assert q_index(x, y) == pytest.approx(want, rel=1e-9)

    def test_both_zero_is_one(self):
        z = np.zeros((5, 5))
        assert q_index(z, z) == 1.0

    def test_zero_mean_pattern_structure_only(self):
        x = np.fromfunction(lambda i, j: (-1.0) ** (i + j), (6, 6))
        assert q_index(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            q_index(np.zeros((4, 4)), np.zeros((4, 5)))


class TestNoReference:
    def test_qnr_product_identity(self):
        scene = synth_scene(1, 32)
        fused = upsample_bicubic(scene.lrms, scene.scale)
        rep = no_reference(fused, scene.pan, scene.lrms)
        assert isinstance(rep, NoRefReport)
        assert rep.qnr == pytest.approx((1 - rep.d_lambda) * (1 - rep.d_s), abs=1e-15)
        assert 0.0 <= rep.d_lambda <= 1.0
        assert 0.0 <= rep.d_s <= 1.0
        assert rep.as_row() == [rep.d_lambda, rep.d_s, rep.qnr]

    def test_d_lambda_zero_when_fused_is_lrms(self):
        scene = synth_scene(2, 32)
        assert d_lambda(scene.lrms, scene.lrms) == pytest.approx(0.0, abs=1e-12)

    def test_d_s_zero_for_pan_stack(self):
        scene = synth_scene(3, 32)
        pan4 = _img(np.repeat(scene.pan.data, 4, axis=2))
        pan_lr = degrade_image(scene.pan, 4)
        lr4 = _img(np.repeat(pan_lr.data, 4, axis=2))
        assert d_s(pan4, scene.pan, lr4, scale=4) == pytest.approx(0.0, abs=1e-9)

    def test_gt_scores_better_than_blur(self):
        scene = synth_scene(4, 64)
        blurry = upsample_bicubic(scene.lrms, scene.scale)
        good = no_reference(scene.gt, scene.pan, scene.lrms)
        bad = no_reference(blurry, scene.pan, scene.lrms)
        assert good.qnr > bad.qnr


class TestHistograms:
    def test_histogram_normalised(self):
        h = intensity_histogram(np.random.default_rng(27).random(500), bins=32)
        assert h.shape == (32,)
        assert h.sum() == pytest.approx(1.0)

    def test_histogram_empty_input(self):
        assert np.all(intensity_histogram(np.array([]), bins=8) == 0.0)

    def test_two_bin_emd(self):
        assert histogram_emd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert prior_coefficient(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.5

    def test_identical_emd_zero(self):
        h = intensity_histogram(np.random.default_rng(28).random(100))
        assert histogram_emd(h, h) == 0.0
        assert prior_coefficient(h, h) == 1.0

    def test_one_hot_shift_distance(self):
        for i, j in [(0, 5), (2, 9), (7, 7)]:
            h1 = np.zeros(16)
            h2 = np.zeros(16)
            h1[i] = 1.0
            h2[j] = 1.0
            assert histogram_emd(h1, h2) == float(abs(i - j))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            histogram_emd(np.zeros(4), np.zeros(5))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_emd_symmetric_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        h1 = intensity_histogram(rng.random(64))
        h2 = intensity_histogram(rng.random(64))
        assert histogram_emd(h1, h2) >= 0.0
        assert histogram_emd(h1, h2) == histogram_emd(h2, h1)


class TestPriorAnalysis:
    def test_row_layout(self):
        rows = prior_analysis(synth_scene(0, 32))
        names = [r[0] for r in rows]
        assert len(rows) == 14
        assert names[:4] == [f"pan_vs_gt_b{b}" for b in (1, 2, 3, 4)]
        assert names[4:8] == [f"lrms_vs_gt_b{b}" for b in (1, 2, 3, 4)]
        assert "lrms_b1_vs_b2" in names and "gt_b3_vs_b4" in names
        for _, emd_val, coeff in rows:
            assert emd_val >= 0.0
            assert 0.0 < coeff <= 1.0
            assert coeff == pytest.approx(1.0 / (1.0 + emd_val), rel=1e-12)

    def test_requires_ground_truth(self):
        scene = synth_scene(0, 32)
        headless = ScenePair(scene.pan, scene.lrms, None, scene.scale)
        with pytest.raises(ValueError):
            prior_analysis(headless)

    def test_pan_tracks_gt_better_than_lrms(self):
        rows = prior_analysis(synth_scene(0, 64))
        pan_c = np.mean([r[2] for r in rows if r[0].startswith("pan_vs_gt")])
        lr_c = np.mean([r[2] for r in rows if r[0].startswith("lrms_vs_gt")])
        assert pan_c > lr_c
