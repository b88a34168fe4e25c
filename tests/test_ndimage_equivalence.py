"""graphpan's numpy filters against ``scipy.ndimage``, kept here as the
reference they replace.

The Gaussian blur, the decimating degradation, SSIM and SCC must keep
ndimage's bits.  The Q index's box means are cumulative sums, so the
index agrees to 1e-12 relative, and D_lambda and D_s, differences of
indices near 1, to 1e-12 absolute.  The synthetic scenes, built on
the degradation, must be byte-identical.
"""

import numpy as np
import pytest
from scipy import ndimage

from graphpan import imaging, metrics
from graphpan.imaging import Image, correlate_reflect, degrade_image, gaussian_blur, synth_scene


def ndimage_blur(data, sigma):
    return ndimage.gaussian_filter(
        data.astype(np.float64), sigma=(sigma, sigma, 0), mode="reflect", truncate=3.0
    )


def ndimage_degrade(img, scale):
    if scale == 1:
        return Image(img.data.copy())
    return Image.from_array(ndimage_blur(img.data, scale / 2.0)[::scale, ::scale, :])


def ndimage_ssim(fused, gt):
    x = fused.data.astype(np.float64)
    y = gt.data.astype(np.float64)

    def mean(a):
        return ndimage_blur(a, 1.5)[5:-5, 5:-5]

    mx, my = mean(x), mean(y)
    sxx, syy, sxy = mean(x * x) - mx * mx, mean(y * y) - my * my, mean(x * y) - mx * my
    num = (2.0 * mx * my + 0.01**2) * (2.0 * sxy + 0.03**2)
    den = (mx * mx + my * my + 0.01**2) * (sxx + syy + 0.03**2)
    return float(np.mean(np.mean(num / den, axis=(0, 1))))


def ndimage_scc(fused, gt):
    vals = []
    for b in range(fused.channels):
        x = ndimage.laplace(fused.data[:, :, b].astype(np.float64))[1:-1, 1:-1]
        y = ndimage.laplace(gt.data[:, :, b].astype(np.float64))[1:-1, 1:-1]
        a, c = x - x.mean(), y - y.mean()
        va, vc = np.sum(a * a), np.sum(c * c)
        vals.append(0.0 if va <= 0.0 or vc <= 0.0 else np.sum(a * c) / np.sqrt(va * vc))
    return float(np.mean(vals))


def ndimage_q_index(x, y, block=32):
    """``metrics.q_index`` with ``ndimage.uniform_filter``'s box means."""
    x = x.astype(np.float64)
    y = y.astype(np.float64)
    b = min(block, x.shape[0], x.shape[1])
    o, rows, cols = b // 2, x.shape[0] - b + 1, x.shape[1] - b + 1

    def mean(a):
        return ndimage.uniform_filter(a, b)[o : o + rows, o : o + cols]

    mx, my = mean(x), mean(y)
    sxx, syy, sxy = mean(x * x) - mx * mx, mean(y * y) - my * my, mean(x * y) - mx * my
    svar, mmag = sxx + syy, mx * mx + my * my
    q = np.ones_like(mx)
    flat = (svar < 1e-12) & (mmag >= 1e-12)
    q[flat] = 2.0 * mx[flat] * my[flat] / mmag[flat]
    dark = (svar >= 1e-12) & (mmag < 1e-12)
    q[dark] = 2.0 * sxy[dark] / svar[dark]
    main = (svar >= 1e-12) & (mmag >= 1e-12)
    q[main] = 4.0 * sxy[main] * mx[main] * my[main] / (svar[main] * mmag[main])
    return float(np.mean(q))


def random_pairs():
    """(fused, gt) pairs: a scene's ground truth against its bicubic
    upsample, and random rasters against a noisy copy."""
    scene = synth_scene(3, size=64)
    yield scene.lrms_up, scene.gt
    rng = np.random.default_rng(11)
    for shape in ((11, 11, 4), (40, 29, 4), (128, 128, 4)):
        gt = rng.random(shape)
        yield Image.from_array(gt + rng.normal(0.0, 0.1, shape)), Image.from_array(gt)


@pytest.mark.parametrize("shape", [(12, 10, 2), (5, 7, 2), (128, 128, 4)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.5, 1.0, 1.5, 2.0])
def test_blur_is_bytewise_gaussian_filter(shape, dtype, sigma):
    # at (5, 7, 2) the radius at sigma 2 (6) is longer than either side, so
    # the border reflects more than once
    data = np.random.default_rng(1).random(shape).astype(dtype)
    got = gaussian_blur(data, sigma)
    assert got.dtype == np.float64
    assert got.tobytes() == ndimage_blur(data, sigma).tobytes()


@pytest.mark.parametrize("rows, cols", [
    (slice(5, -5), slice(5, -5)),
    (slice(None, None, 3), slice(1, None, 4)),
    (slice(2, 3), slice(-1, None)),
])
def test_blur_at_kept_samples_is_the_full_blur_sliced(rows, cols):
    data = np.random.default_rng(2).random((23, 17, 3))
    for sigma in (0.0, 1.5, 4.0):
        got = gaussian_blur(data, sigma, rows, cols)
        assert got.tobytes() == ndimage_blur(data, sigma)[rows, cols].tobytes()


def test_correlate_reflect_is_correlate1d_on_symmetric_kernels():
    x = np.random.default_rng(3).random((9, 6, 5))
    for weights in (np.array([1.0, -2.0, 1.0]), np.array([0.25, 0.5, 0.25]), np.array([3.0])):
        for axis in (0, 1, 2):
            want = ndimage.correlate1d(x, weights, axis, mode="reflect")
            for at in (slice(None), slice(1, -1), slice(4, None, 5)):
                index = (slice(None),) * axis + (at,)
                assert correlate_reflect(x, weights, axis, at).tobytes() == want[index].tobytes()


@pytest.mark.parametrize("at", [slice(None, None, -1), slice(2, 2)])
def test_correlate_reflect_refuses_an_empty_or_reversed_range(at):
    with pytest.raises(ValueError, match="non-empty range with a positive step"):
        correlate_reflect(np.zeros((4, 4)), np.array([1.0]), 0, at)


@pytest.mark.parametrize("scale", [2, 4])
def test_degrade_keeps_the_blurred_samples(scale):
    img = Image.from_array(np.random.default_rng(4).random((32, 24, 4)))
    assert degrade_image(img, scale).data.tobytes() == ndimage_degrade(img, scale).data.tobytes()


def test_ssim_and_scc_equal_their_ndimage_formulas():
    for fused, gt in random_pairs():
        assert metrics.ssim(fused, gt) == ndimage_ssim(fused, gt)
        assert metrics.scc(fused, gt) == ndimage_scc(fused, gt)


def test_q_index_agrees_with_uniform_filter():
    for fused, gt in random_pairs():
        for b in range(gt.channels):
            for block in (32, 8):
                got = metrics.q_index(fused.data[:, :, b], gt.data[:, :, b], block)
                want = ndimage_q_index(fused.data[:, :, b], gt.data[:, :, b], block)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_no_reference_agrees_with_ndimage(monkeypatch):
    scene = synth_scene(2, size=64)
    fused = scene.lrms_up
    got = metrics.no_reference(fused, scene.pan, scene.lrms)
    monkeypatch.setattr(metrics, "q_index", ndimage_q_index)
    monkeypatch.setattr(metrics, "degrade_image", ndimage_degrade)
    want = metrics.no_reference(fused, scene.pan, scene.lrms)
    # D_lambda and D_s are differences of Q indices near 1, so their
    # agreement is 1e-12 of those indices, an absolute 1e-12
    assert got.as_row() == pytest.approx(want.as_row(), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("size", [16, 64, 128])
def test_synthetic_scenes_are_bytewise_the_ndimage_ones(monkeypatch, size):
    scenes = [synth_scene(seed, size=size) for seed in range(4)]
    monkeypatch.setattr(imaging, "degrade_image", ndimage_degrade)
    for seed, scene in enumerate(scenes):
        want = synth_scene(seed, size=size)
        for got_img, want_img in ((scene.pan, want.pan), (scene.lrms, want.lrms), (scene.gt, want.gt)):
            assert got_img.data.tobytes() == want_img.data.tobytes()
