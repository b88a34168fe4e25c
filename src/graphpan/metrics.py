"""Pansharpening quality metrics.

Full-reference: PSNR, SSIM, SAM, ERGAS, SCC against ground truth.
No-reference: spectral distortion D_lambda, spatial distortion D_s and
QNR = (1 - D_lambda)(1 - D_s), built on the universal image quality index
over sliding blocks.  A histogram/EMD analysis quantifies how closely the
pan and low-res inputs track the ground-truth intensity distributions.

All computations run in float64 on the [0, 1] value range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve2d

from .imaging import Image, ScenePair, degrade_image, upsample_bicubic

PSNR_CAP = 99.0
_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2
_SSIM_WIN = 11
_SSIM_SIGMA = 1.5
_Q_BLOCK = 32
_EPS = 1e-12


@dataclass
class MetricReport:
    psnr: float
    ssim: float
    sam: float
    ergas: float
    scc: float

    def as_row(self):
        return [self.psnr, self.ssim, self.sam, self.ergas, self.scc]


@dataclass
class NoRefReport:
    d_lambda: float
    d_s: float
    qnr: float

    def as_row(self):
        return [self.d_lambda, self.d_s, self.qnr]


def _check_pair(a: Image, b: Image):
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch {a.data.shape} vs {b.data.shape}")


def psnr(fused: Image, gt: Image) -> float:
    """10*log10(1/mse) on unit range, capped at 99 dB."""
    _check_pair(fused, gt)
    x = fused.data.astype(np.float64)
    y = gt.data.astype(np.float64)
    mse = float(np.mean((x - y) ** 2))
    if mse <= 0.0:
        return PSNR_CAP
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP)


def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    g = np.exp(-(x**2) / (2.0 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def ssim(fused: Image, gt: Image) -> float:
    """Gaussian-windowed SSIM (11x11, sigma 1.5), valid region, band mean."""
    _check_pair(fused, gt)
    if min(fused.height, fused.width) < _SSIM_WIN:
        raise ValueError(f"ssim needs images of at least {_SSIM_WIN} px")
    win = _gaussian_window(_SSIM_WIN, _SSIM_SIGMA)
    vals = []
    for b in range(fused.channels):
        x = fused.data[:, :, b].astype(np.float64)
        y = gt.data[:, :, b].astype(np.float64)
        mx = convolve2d(x, win, mode="valid")
        my = convolve2d(y, win, mode="valid")
        sxx = convolve2d(x * x, win, mode="valid") - mx * mx
        syy = convolve2d(y * y, win, mode="valid") - my * my
        sxy = convolve2d(x * y, win, mode="valid") - mx * my
        num = (2.0 * mx * my + _SSIM_C1) * (2.0 * sxy + _SSIM_C2)
        den = (mx * mx + my * my + _SSIM_C1) * (sxx + syy + _SSIM_C2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def sam(fused: Image, gt: Image) -> float:
    """Mean spectral angle in radians; zero spectra contribute zero.

    Uses the squared cosine ratio so bitwise-identical spectra give an angle
    of exactly zero.
    """
    _check_pair(fused, gt)
    x = fused.data.astype(np.float64).reshape(-1, fused.channels)
    y = gt.data.astype(np.float64).reshape(-1, gt.channels)
    dot = np.sum(x * y, axis=1)
    qx = np.sum(x * x, axis=1)
    qy = np.sum(y * y, axis=1)
    live = (qx > 0.0) & (qy > 0.0)
    cos2 = np.zeros_like(dot)
    cos2[live] = np.minimum(dot[live] ** 2 / (qx[live] * qy[live]), 1.0)
    angles = np.where(live, np.arccos(np.sqrt(cos2)), 0.0)
    return float(np.mean(angles))


def ergas(fused: Image, gt: Image, scale: int = 4) -> float:
    """100/scale * sqrt(mean_b(rmse_b^2 / mean_b^2))."""
    _check_pair(fused, gt)
    terms = []
    for b in range(fused.channels):
        x = fused.data[:, :, b].astype(np.float64)
        y = gt.data[:, :, b].astype(np.float64)
        mse = np.mean((x - y) ** 2)
        mu = np.mean(y)
        terms.append(mse / max(mu * mu, _EPS))
    return float(100.0 / scale * np.sqrt(np.mean(terms)))


_LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


def scc(fused: Image, gt: Image) -> float:
    """Mean per-band Pearson correlation of Laplacian-filtered images."""
    _check_pair(fused, gt)
    vals = []
    for b in range(fused.channels):
        x = convolve2d(fused.data[:, :, b].astype(np.float64), _LAPLACIAN, mode="valid")
        y = convolve2d(gt.data[:, :, b].astype(np.float64), _LAPLACIAN, mode="valid")
        a = x - x.mean()
        c = y - y.mean()
        va = np.sum(a * a)
        vc = np.sum(c * c)
        if va <= 0.0 or vc <= 0.0:
            vals.append(0.0)
            continue
        vals.append(np.sum(a * c) / np.sqrt(va * vc))
    return float(np.mean(vals))


def full_reference(fused: Image, gt: Image, scale: int = 4) -> MetricReport:
    return MetricReport(
        psnr=psnr(fused, gt),
        ssim=ssim(fused, gt),
        sam=sam(fused, gt),
        ergas=ergas(fused, gt, scale=scale),
        scc=scc(fused, gt),
    )


# ---------------------------------------------------------------------------
# no-reference protocol


def _box_sums(a: np.ndarray, block: int) -> np.ndarray:
    """Sliding block sums over all valid positions via an integral image."""
    integral = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    integral[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
    return (
        integral[block:, block:]
        - integral[:-block, block:]
        - integral[block:, :-block]
        + integral[:-block, :-block]
    )


def q_index(x: np.ndarray, y: np.ndarray, block: int = _Q_BLOCK) -> float:
    """Universal image quality index averaged over sliding blocks.

    The block side is clamped to the image size so desk-scale inputs stay
    well defined.
    """
    if x.shape != y.shape:
        raise ValueError("q_index requires equal shapes")
    x = x.astype(np.float64)
    y = y.astype(np.float64)
    b = min(block, x.shape[0], x.shape[1])
    n = float(b * b)
    mx = _box_sums(x, b) / n
    my = _box_sums(y, b) / n
    sxx = _box_sums(x * x, b) / n - mx * mx
    syy = _box_sums(y * y, b) / n - my * my
    sxy = _box_sums(x * y, b) / n - mx * my
    svar = sxx + syy
    mmag = mx * mx + my * my
    q = np.ones_like(mx)
    flat = (svar < _EPS) & (mmag >= _EPS)
    q[flat] = 2.0 * mx[flat] * my[flat] / mmag[flat]
    dark = (svar >= _EPS) & (mmag < _EPS)
    q[dark] = 2.0 * sxy[dark] / svar[dark]
    main = (svar >= _EPS) & (mmag >= _EPS)
    q[main] = 4.0 * sxy[main] * mx[main] * my[main] / (svar[main] * mmag[main])
    return float(np.mean(q))


def d_lambda(fused: Image, lrms: Image, p: int = 1) -> float:
    """Spectral distortion: inter-band q-index drift between fused output
    and the low-res input, mean over distinct band pairs."""
    terms = []
    for b1 in range(fused.channels):
        for b2 in range(b1 + 1, fused.channels):
            qf = q_index(fused.data[:, :, b1], fused.data[:, :, b2])
            ql = q_index(lrms.data[:, :, b1], lrms.data[:, :, b2])
            terms.append(abs(qf - ql) ** p)
    return float(np.clip(np.mean(terms) ** (1.0 / p), 0.0, 1.0))


def d_s(fused: Image, pan: Image, lrms: Image, scale: int = 4, q: int = 1) -> float:
    """Spatial distortion: band-vs-pan q-index drift, the low-res side using
    a pan degraded by the same blur-and-decimate operator as the inputs."""
    pan_lr = degrade_image(pan, scale)
    terms = []
    for b in range(fused.channels):
        qh = q_index(fused.data[:, :, b], pan.data[:, :, 0])
        ql = q_index(lrms.data[:, :, b], pan_lr.data[:, :, 0])
        terms.append(abs(qh - ql) ** q)
    return float(np.clip(np.mean(terms) ** (1.0 / q), 0.0, 1.0))


def no_reference(fused: Image, pan: Image, lrms: Image, scale: int = 4) -> NoRefReport:
    dl = d_lambda(fused, lrms)
    ds = d_s(fused, pan, lrms, scale=scale)
    return NoRefReport(d_lambda=dl, d_s=ds, qnr=(1.0 - dl) * (1.0 - ds))


# ---------------------------------------------------------------------------
# input-prior analysis (intensity histogram transport)


def intensity_histogram(values: np.ndarray, bins: int = 64) -> np.ndarray:
    """Normalised intensity histogram over [0, 1]."""
    h, _ = np.histogram(np.asarray(values).reshape(-1), bins=bins, range=(0.0, 1.0))
    total = h.sum()
    if total == 0:
        return np.zeros(bins)
    return h.astype(np.float64) / total


def histogram_emd(h1: np.ndarray, h2: np.ndarray) -> float:
    """1-D earth mover's distance: L1 distance of cumulative sums."""
    if h1.shape != h2.shape:
        raise ValueError("histograms must share binning")
    return float(np.sum(np.abs(np.cumsum(h1) - np.cumsum(h2))))


def prior_coefficient(h1: np.ndarray, h2: np.ndarray) -> float:
    """1 / (1 + EMD): 1 for identical distributions, toward 0 as they part."""
    return 1.0 / (1.0 + histogram_emd(h1, h2))


def prior_analysis(scene: ScenePair, bins: int = 64):
    """Histogram-transport table for one scene.

    Rows (name, emd, coefficient) compare pan and upsampled low-res bands
    against ground-truth bands, plus adjacent-band pairs within each stack.
    Requires ground truth.
    """
    if scene.gt is None:
        raise ValueError("prior analysis needs ground truth")
    lrms_up = upsample_bicubic(scene.lrms, scene.scale)
    pan_h = intensity_histogram(scene.pan.data, bins)
    gt_h = [intensity_histogram(scene.gt.data[:, :, b], bins) for b in range(scene.gt.channels)]
    lr_h = [intensity_histogram(lrms_up.data[:, :, b], bins) for b in range(lrms_up.channels)]

    families = (
        ("pan_vs_gt_b{0}", [pan_h] * len(gt_h), gt_h),
        ("lrms_vs_gt_b{0}", lr_h, gt_h),
        ("lrms_b{0}_vs_b{1}", lr_h[:-1], lr_h[1:]),
        ("gt_b{0}_vs_b{1}", gt_h[:-1], gt_h[1:]),
    )
    return [
        (label.format(b + 1, b + 2), histogram_emd(h1, h2), prior_coefficient(h1, h2))
        for label, left, right in families
        for b, (h1, h2) in enumerate(zip(left, right))
    ]
