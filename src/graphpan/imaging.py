"""Raster handling for pansharpening experiments.

Images are (height, width, channels) float32 arrays with values in [0, 1].
On disk the native container is HSIF: magic ``HSIF``, three little-endian
u32 fields (height, width, channels), then float32 samples in row-major,
channel-last order.  Previews are written as 8-bit PPM (P6).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HSIF_MAGIC = b"HSIF"
_MAX_DIM = 1 << 24  # per-axis sanity bound for headers

BANDS = 4  # multispectral band count used throughout
MAX_SCENE_SIZE = 2048  # largest synthetic scene side: a 4-band float64 raster of 128 MiB
MIN_SCENE_SIZE = 16  # smallest synthetic scene side: its fine blobs are 1 to size/16 wide


class FormatError(ValueError):
    """Raised for malformed files; carries the byte offset at fault."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ImageFormatError(FormatError):
    """Raised for malformed image files."""


@dataclass(frozen=True)
class Image:
    """A float32 raster in [0, 1], shape (height, width, channels)."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"image data must be 3-D, got shape {self.data.shape}")

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def channels(self):
        return self.data.shape[2]

    def validate(self) -> "Image":
        if not np.all(np.isfinite(self.data)):
            raise ValueError("image contains non-finite values")
        if self.data.min() < 0.0 or self.data.max() > 1.0:
            raise ValueError("image values outside [0, 1]")
        return self

    @staticmethod
    def from_array(arr) -> "Image":
        """Clip to [0, 1] and store as float32."""
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim == 2:
            a = a[:, :, None]
        return Image(np.clip(a, 0.0, 1.0).astype(np.float32))


# ---------------------------------------------------------------------------
# file formats


def write_hsif(path, img: Image):
    img.validate()
    h, w, c = img.data.shape
    payload = np.ascontiguousarray(img.data, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(HSIF_MAGIC)
        f.write(struct.pack("<III", h, w, c))
        f.write(payload)


def read_hsif(path) -> Image:
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != HSIF_MAGIC:
        raise ImageFormatError("bad HSIF magic", offset=0)
    if len(blob) < 16:
        raise ImageFormatError("truncated HSIF header", offset=len(blob))
    h, w, c = struct.unpack("<III", blob[4:16])
    if not (0 < h <= _MAX_DIM and 0 < w <= _MAX_DIM and 0 < c <= _MAX_DIM):
        raise ImageFormatError(f"bad HSIF dimensions {h}x{w}x{c}", offset=4)
    count = h * w * c
    if count > (1 << 31):
        raise ImageFormatError("HSIF dimension overflow", offset=4)
    need = 16 + 4 * count
    if len(blob) < need:
        raise ImageFormatError(
            f"truncated HSIF payload, expected {need} bytes got {len(blob)}",
            offset=len(blob),
        )
    flat = np.frombuffer(blob[16:need], dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ImageFormatError("non-finite sample in HSIF payload", offset=16 + 4 * int(bad[0]))
    data = flat.reshape(h, w, c)
    return Image(np.clip(data, 0.0, 1.0).astype(np.float32))


def write_ppm(path, img: Image):
    """Binary 8-bit PPM (P6, maxval 255): each sample rounded from [0, 1]
    to 0..255.  Written for previews; nothing reads it back."""
    if img.channels != 3:
        raise ValueError("PPM requires exactly 3 channels")
    img.validate()
    q = np.round(img.data * 255.0).astype(np.uint8)
    h, w, _ = q.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(q.tobytes())


# ---------------------------------------------------------------------------
# scene pairs and Wald-style degradation


@dataclass
class ScenePair:
    """A pansharpening work unit: full-res pan, low-res multispectral bands,
    and (for reduced-resolution experiments) the ground truth.

    :attr:`lrms_up` is memoised on the scene, so the image arrays are not
    to be modified in place once the scene has been run; assign a new
    Image to a field instead."""

    pan: Image
    lrms: Image
    gt: Image | None = None
    scale: int = 4

    @property
    def lrms_up(self) -> Image:
        """``upsample_bicubic(lrms, scale)``, built on first use and kept
        with the ``lrms`` object and ``scale`` it was built from: assigning
        either field builds it again."""
        memo = self.__dict__.get("_lrms_up")
        if memo is None or memo[0] is not self.lrms or memo[1] != self.scale:
            memo = (self.lrms, self.scale, upsample_bicubic(self.lrms, self.scale))
            self.__dict__["_lrms_up"] = memo
        return memo[2]

    def validate(self) -> "ScenePair":
        if self.pan.channels != 1:
            raise ValueError("pan must have 1 channel")
        if self.lrms.channels != BANDS:
            raise ValueError(f"lrms must have {BANDS} channels")
        if (
            self.pan.height != self.scale * self.lrms.height
            or self.pan.width != self.scale * self.lrms.width
        ):
            raise ValueError("pan size must be scale x lrms size")
        if self.gt is not None:
            if self.gt.channels != BANDS:
                raise ValueError(f"gt must have {BANDS} channels")
            if (self.gt.height, self.gt.width) != (self.pan.height, self.pan.width):
                raise ValueError("gt must match pan spatially")
        return self

    def save(self, folder):
        folder = Path(folder)
        folder.mkdir(parents=True, exist_ok=True)
        write_hsif(folder / "pan.hsif", self.pan)
        write_hsif(folder / "lrms.hsif", self.lrms)
        if self.gt is not None:
            write_hsif(folder / "gt.hsif", self.gt)

    @staticmethod
    def load(folder, need_gt=False) -> "ScenePair":
        """Read a scene directory; the scale is pan height / lrms height,
        and :meth:`validate` checks it on both axes."""
        folder = Path(folder)
        pan = read_hsif(folder / "pan.hsif")
        lrms = read_hsif(folder / "lrms.hsif")
        gt_path = folder / "gt.hsif"
        gt = read_hsif(gt_path) if (gt_path.exists() or need_gt) else None
        return ScenePair(pan, lrms, gt, pan.height // lrms.height).validate()


def correlate_reflect(x: np.ndarray, weights: np.ndarray, axis: int,
                      at: slice = slice(None)) -> np.ndarray:
    """``ndimage.correlate1d(x, weights, axis, mode="reflect")[..., at, ...]``
    (``at`` indexing ``axis``) for a float64 ``x`` and an odd, symmetric
    ``weights``, computing only the kept positions.

    The arithmetic is ndimage's for a symmetric kernel, so the bits are
    too: the centre tap times its weight, then each pair of taps, from the
    outermost inward, summed and times its weight.  The border reflects
    about the half-sample (``d c b a | a b c d | d c b a``, repeated when
    the radius is longer than the side), and is only built when the kept
    range comes within the radius of an end."""
    r = len(weights) // 2
    kept = range(*at.indices(x.shape[axis]))
    if not kept or kept.step < 1:
        raise ValueError("correlate_reflect needs a non-empty range with a positive step")
    before = max(0, r - kept[0])
    after = max(0, kept[-1] + r + 1 - x.shape[axis])
    if before or after:
        pad = [(0, 0)] * x.ndim
        pad[axis] = (before, after)
        x = np.pad(x, pad, mode="symmetric")

    def tap(k):
        first = kept[0] + before + k
        return x[(slice(None),) * axis + (slice(first, first + kept[-1] - kept[0] + 1, kept.step),)]

    out = tap(0) * weights[r]
    for k in range(r, 0, -1):
        out += (tap(-k) + tap(k)) * weights[r - k]
    return out


def gaussian_blur(data: np.ndarray, sigma: float, rows: slice = slice(None),
                  cols: slice = slice(None)) -> np.ndarray:
    """Isotropic Gaussian blur per channel in float64, at the kept ``rows``
    and ``cols`` only: bit for bit ``ndimage.gaussian_filter(data, (sigma,
    sigma, 0), mode="reflect", truncate=3.0)[rows, cols]``.

    The kernel is ndimage's: radius int(3 sigma + 0.5), exp(-x^2 / (2
    sigma^2)) over the taps, divided by its sum.  Rows are filtered first,
    at the kept rows only, then columns at the kept columns.  As in
    ndimage, sigma <= 1e-15 filters nothing and returns a float64 copy."""
    x = data.astype(np.float64)
    if sigma <= 1e-15:
        return x[rows, cols]
    radius = int(3.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps**2)
    weights = weights / weights.sum()
    return correlate_reflect(correlate_reflect(x, weights, 0, rows), weights, 1, cols)


def degrade_image(img: Image, scale: int) -> Image:
    """Blur with sigma = scale/2 then keep every scale-th pixel: the
    samples of ``ndimage.gaussian_filter`` (see :func:`gaussian_blur`) at
    every scale-th row and column, and only those are computed."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if img.height % scale or img.width % scale:
        raise ValueError("image size must be divisible by scale")
    if scale == 1:
        return Image(img.data.copy())
    kept = slice(None, None, scale)
    return Image.from_array(gaussian_blur(img.data, scale / 2.0, kept, kept))


def wald_degrade(gt: Image, pan_hr: Image, scale: int = 4) -> ScenePair:
    """Build a reduced-resolution training pair from ground truth.

    The multispectral input is the blurred and decimated ground truth; the
    pan input keeps the ground-truth resolution.
    """
    if (gt.height, gt.width) != (pan_hr.height, pan_hr.width):
        raise ValueError("gt and pan must share spatial size")
    if pan_hr.channels != 1 or gt.channels != BANDS:
        raise ValueError("expected 1-channel pan and 4-channel gt")
    lrms = degrade_image(gt, scale)
    return ScenePair(pan=pan_hr, lrms=lrms, gt=gt, scale=scale).validate()


# ---------------------------------------------------------------------------
# bicubic upsampling (Catmull-Rom kernel, a = -0.5, pixel-center alignment)


def _cubic_kernel(t: np.ndarray) -> np.ndarray:
    a = -0.5
    at = np.abs(t)
    w = np.zeros_like(at)
    m1 = at <= 1.0
    m2 = (at > 1.0) & (at < 2.0)
    w[m1] = (a + 2.0) * at[m1] ** 3 - (a + 3.0) * at[m1] ** 2 + 1.0
    w[m2] = a * at[m2] ** 3 - 5.0 * a * at[m2] ** 2 + 8.0 * a * at[m2] - 4.0 * a
    return w


def _cubic_taps(n_in: int, n_out: int):
    scale = n_out / n_in
    x = (np.arange(n_out) + 0.5) / scale - 0.5
    i0 = np.floor(x).astype(np.int64)
    taps = i0[:, None] + np.arange(-1, 3)[None, :]
    wts = _cubic_kernel(x[:, None] - taps)
    taps = np.clip(taps, 0, n_in - 1)  # replicate borders
    return taps, wts


def upsample_bicubic(img: Image, scale: int) -> Image:
    """Integer-factor bicubic upsampling; exact on constants, clamped [0, 1]."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if scale == 1:
        return Image(img.data.copy())
    data = img.data.astype(np.float64)
    h, w, _ = data.shape
    taps_r, wts_r = _cubic_taps(h, h * scale)
    taps_c, wts_c = _cubic_taps(w, w * scale)
    tmp = np.einsum("rkwc,rk->rwc", data[taps_r, :, :], wts_r)
    out = np.einsum("rckb,ck->rcb", tmp[:, taps_c, :], wts_c)
    return Image.from_array(out)


def cs_fusion(scene: "ScenePair") -> Image:
    """Component substitution with equal band weights and no parameters:
    ``clip(up + (pan - mean_b(up)), 0, 1)``, up the scene's bicubic LR-MS.
    ``eval`` reports it beside the model as a reference method."""
    up = scene.lrms_up.data.astype(np.float64)
    return Image.from_array(up + (scene.pan.data - up.mean(axis=2, keepdims=True)))


# ---------------------------------------------------------------------------
# overlapping patch bookkeeping


def _windows(raster: np.ndarray, patch: int, stride: int) -> np.ndarray:
    """The (rows * cols, patch*patch*c) windows of an (h, w, c) raster, one
    row per window in row-major window order, pixels channel-last."""
    win = np.lib.stride_tricks.sliding_window_view(raster, (patch, patch), axis=(0, 1))
    win = win[::stride, ::stride]  # (rows, cols, c, p, p)
    win = np.transpose(win, (0, 1, 3, 4, 2))  # channel-last within the window
    return win.reshape(win.shape[0] * win.shape[1], -1)


def window_indices(height: int, width: int, channels: int, patch: int, stride: int) -> np.ndarray:
    """The flat indices into an (height, width, channels) raster of every
    window's pixels, one row per window as :func:`_windows` lays them out."""
    shape = (height, width, channels)
    return _windows(np.arange(np.prod(shape)).reshape(shape), patch, stride)


@dataclass
class PatchGrid:
    """Sliding-window decomposition of an image.

    ``patches`` holds one row per window: the window's pixels flattened in
    row-major, channel-last order, or None in a grid that keeps the
    geometry only.  Windows start at multiples of ``stride``; full coverage
    of the image requires (side - patch) % stride == 0.
    """

    patch: int
    stride: int
    rows: int
    cols: int
    height: int
    width: int
    channels: int
    patches: np.ndarray | None

    @property
    def n_patches(self):
        return self.rows * self.cols


def extract_patches(img: Image, patch: int, stride: int) -> PatchGrid:
    h, w, c = img.data.shape
    if not (1 <= stride <= patch):
        raise ValueError("need 1 <= stride <= patch")
    if patch > h or patch > w:
        raise ValueError("patch larger than image")
    rows = (h - patch) // stride + 1
    cols = (w - patch) // stride + 1
    patches = _windows(img.data, patch, stride).astype(np.float32)
    return PatchGrid(patch, stride, rows, cols, h, w, c, patches)


# ---------------------------------------------------------------------------
# synthetic scenes


def _blob_field(rng, size, n, wmin, wmax):
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    field = np.zeros((size, size))
    for _ in range(n):
        cy, cx = rng.uniform(0, size, 2)
        wdt = rng.uniform(wmin, wmax)
        amp = rng.uniform(-1.0, 1.0)
        field += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * wdt**2))
    return field


def _rect_field(rng, size, n, smin_frac=8, smax_frac=2):
    field = np.zeros((size, size))
    for _ in range(n):
        h = rng.integers(max(2, size // smin_frac), size // smax_frac + 1)
        w = rng.integers(max(2, size // smin_frac), size // smax_frac + 1)
        y = rng.integers(0, size - h + 1)
        x = rng.integers(0, size - w + 1)
        field[y : y + h, x : x + w] += rng.uniform(-1.0, 1.0)
    return field


def _normalize01(field):
    lo, hi = field.min(), field.max()
    if hi - lo < 1e-12:
        return np.zeros_like(field)
    return (field - lo) / (hi - lo)


def synth_scene(seed: int, size: int = 128, scale: int = 4) -> ScenePair:
    """Deterministic synthetic scene with strongly correlated bands.

    The shared base layer carries both coarse structure and dense
    sub-decimation-scale detail (small rectangles and near-pixel blobs), so
    resolution loss visibly compresses the intensity distribution of each
    low-resolution band while the pan (band mean) stays close to every band.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if size > MAX_SCENE_SIZE:
        raise ValueError(f"scene size {size} is above the limit of {MAX_SCENE_SIZE}")
    if size % scale:
        raise ValueError("size must be divisible by scale")
    if size < 4 * scale:
        raise ValueError("scene too small for the requested scale")
    if size < MIN_SCENE_SIZE:
        raise ValueError(f"scene size {size} is below the minimum of {MIN_SCENE_SIZE}")
    rng = np.random.default_rng(seed)
    coarse = _blob_field(rng, size, 6, size / 10.0, size / 3.0) + _rect_field(
        rng, size, 5
    )
    fine = _rect_field(rng, size, 16, smin_frac=24, smax_frac=6) + _blob_field(
        rng, size, 14, 1.0, size / 16.0
    )
    base = _normalize01(coarse + 2.0 * fine)
    bands = []
    for _ in range(BANDS):
        detail = _normalize01(
            _blob_field(rng, size, 4, size / 24.0, size / 8.0) + _rect_field(rng, size, 3)
        )
        mix = rng.uniform(0.88, 0.98)
        band = 0.1 + 0.8 * (mix * base + (1.0 - mix) * detail)
        bands.append(band)
    gt = Image.from_array(np.stack(bands, axis=2))
    pan = Image.from_array(gt.data.mean(axis=2, keepdims=True))
    return wald_degrade(gt, pan, scale)
