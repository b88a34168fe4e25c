"""Pansharpening quality metrics.

Full-reference: PSNR, SSIM, SAM, ERGAS, SCC against ground truth.
No-reference: spectral distortion D_lambda, spatial distortion D_s and
QNR = (1 - D_lambda)(1 - D_s), built on the universal image quality index
over sliding blocks.  A histogram/EMD analysis quantifies how closely the
pan and low-res inputs track the ground-truth intensity distributions.

All computations run in float64 on the [0, 1] value range.  The filters
are numpy: the Gaussian and Laplacian ones keep the bits of their
``scipy.ndimage`` counterparts, and every one computes only its valid
windows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .imaging import Image, ScenePair, correlate_reflect, degrade_image, gaussian_blur

PSNR_CAP = 99.0
_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2
_SSIM_WIN = 11  # gaussian_blur's radius at sigma 1.5 is int(3 sigma + 0.5) = 5
_SSIM_SIGMA = 1.5
_LAPLACE = np.array([1.0, -2.0, 1.0])
_Q_BLOCK = 32
_EPS = 1e-12


class _Report:
    def as_row(self):
        """The values in field order; the field names are the columns of
        ``graphpan eval``."""
        return [getattr(self, f.name) for f in fields(self)]


@dataclass
class MetricReport(_Report):
    psnr: float
    ssim: float
    sam: float
    ergas: float
    scc: float


@dataclass
class NoRefReport(_Report):
    d_lambda: float
    d_s: float
    qnr: float


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


def _local_moments(x, y, mean):
    """Windowed means, variances and covariance of x and y, where ``mean``
    gives an array's windowed means."""
    mx, my = mean(x), mean(y)
    return mx, my, mean(x * x) - mx * mx, mean(y * y) - my * my, mean(x * y) - mx * my


def ssim(fused: Image, gt: Image) -> float:
    """Gaussian-windowed SSIM (11x11, sigma 1.5), valid region, band mean."""
    _check_pair(fused, gt)
    if min(fused.height, fused.width) < _SSIM_WIN:
        raise ValueError(f"ssim needs images of at least {_SSIM_WIN} px")
    x = fused.data.astype(np.float64)
    y = gt.data.astype(np.float64)
    valid = slice(_SSIM_WIN // 2, -(_SSIM_WIN // 2))
    mx, my, sxx, syy, sxy = _local_moments(
        x, y, lambda a: gaussian_blur(a, _SSIM_SIGMA, valid, valid)
    )
    num = (2.0 * mx * my + _SSIM_C1) * (2.0 * sxy + _SSIM_C2)
    den = (mx * mx + my * my + _SSIM_C1) * (sxx + syy + _SSIM_C2)
    return float(np.mean(np.mean(num / den, axis=(0, 1))))


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


def _laplacian_interior(band: np.ndarray) -> np.ndarray:
    """The [1, -2, 1] Laplacian of a 2-D float64 array at its interior
    pixels: the bits of ``ndimage.laplace(band)[1:-1, 1:-1]``, the row
    term plus the column term."""
    inner = slice(1, -1)
    return (correlate_reflect(band[:, inner], _LAPLACE, 0, inner)
            + correlate_reflect(band[inner], _LAPLACE, 1, inner))


def scc(fused: Image, gt: Image) -> float:
    """Mean per-band Pearson correlation of Laplacian-filtered images,
    over the interior pixels."""
    _check_pair(fused, gt)
    vals = []
    for b in range(fused.channels):
        x = _laplacian_interior(fused.data[:, :, b].astype(np.float64))
        y = _laplacian_interior(gt.data[:, :, b].astype(np.float64))
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


def _box_mean(a: np.ndarray, b: int) -> np.ndarray:
    """The mean of every b x b window lying inside a 2-D float64 array, as
    differences of cumulative sums.  The sums run over the array less its
    mean, so they stay small and the result is within about 1e-13
    relative of ``ndimage.uniform_filter``'s running sums."""
    for _ in range(2):  # rows, then (transposed) columns
        mean = a.mean()
        sums = np.zeros((a.shape[0] + 1, a.shape[1]))
        np.cumsum(a - mean, axis=0, out=sums[1:])
        a = ((sums[b:] - sums[:-b]) / b + mean).T
    return a


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
    mx, my, sxx, syy, sxy = _local_moments(x, y, lambda a: _box_mean(a, b))
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


def d_lambda(fused: Image, lrms: Image) -> float:
    """Spectral distortion: inter-band q-index drift between fused output
    and the low-res input, mean over distinct band pairs."""
    terms = []
    for b1 in range(fused.channels):
        for b2 in range(b1 + 1, fused.channels):
            qf = q_index(fused.data[:, :, b1], fused.data[:, :, b2])
            ql = q_index(lrms.data[:, :, b1], lrms.data[:, :, b2])
            terms.append(abs(qf - ql))
    return float(np.clip(np.mean(terms), 0.0, 1.0))


def d_s(fused: Image, pan: Image, lrms: Image, scale: int = 4) -> float:
    """Spatial distortion: band-vs-pan q-index drift, the low-res side using
    a pan degraded by the same blur-and-decimate operator as the inputs."""
    pan_lr = degrade_image(pan, scale)
    terms = []
    for b in range(fused.channels):
        qh = q_index(fused.data[:, :, b], pan.data[:, :, 0])
        ql = q_index(lrms.data[:, :, b], pan_lr.data[:, :, 0])
        terms.append(abs(qh - ql))
    return float(np.clip(np.mean(terms), 0.0, 1.0))


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
    lrms_up = scene.lrms_up
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
