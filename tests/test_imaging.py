"""Imaging layer: file formats, degradation, bicubic, patch bookkeeping.

The blur is checked against a hand-rolled separable Gaussian with symmetric
padding, and bicubic against its closed form on linear ramps, so the tests do
not depend on the implementation's own convolution route.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpan.imaging import (
    BANDS,
    MIN_SCENE_SIZE,
    Image,
    ImageFormatError,
    PatchGrid,
    ScenePair,
    degrade_image,
    extract_patches,
    gaussian_blur,
    read_hsif,
    read_image,
    read_pgm,
    read_ppm,
    synth_scene,
    upsample_bicubic,
    wald_degrade,
    window_indices,
    write_hsif,
    write_image,
    write_pgm,
    write_ppm,
)

from oracles import reassemble_patches


# ---------------------------------------------------------------------------
# independent oracles


def coverage_counts(grid: PatchGrid):
    """How many of the grid's windows cover each raster cell (flat, length
    h*w*c)."""
    pix = window_indices(grid.height, grid.width, grid.channels, grid.patch, grid.stride)
    return np.bincount(pix.reshape(-1), minlength=grid.height * grid.width * grid.channels)


def blur_oracle(data, sigma):
    """Separable Gaussian blur, radius = int(3*sigma + 0.5), symmetric pad."""
    radius = int(3.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x**2) / (2.0 * sigma**2))
    k /= k.sum()
    out = np.empty_like(data, dtype=np.float64)
    for c in range(data.shape[2]):
        ch = data[:, :, c].astype(np.float64)
        ch = np.pad(ch, radius, mode="symmetric")
        rows = np.apply_along_axis(lambda r: np.convolve(r, k, mode="valid"), 1, ch)
        full = np.apply_along_axis(lambda col: np.convolve(col, k, mode="valid"), 0, rows)
        out[:, :, c] = full
    return out


class TestImageBasics:
    def test_from_array_clips_and_casts(self):
        img = Image.from_array(np.array([[-0.5, 0.5], [2.0, 1.0]]))
        assert img.data.dtype == np.float32
        assert img.data.shape == (2, 2, 1)
        np.testing.assert_array_equal(img.data[:, :, 0], [[0.0, 0.5], [1.0, 1.0]])

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Image(np.full((2, 2, 1), np.nan, dtype=np.float32)).validate()
        with pytest.raises(ValueError):
            Image(np.full((2, 2, 1), 1.5, dtype=np.float32)).validate()

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            Image(np.zeros((4, 4), dtype=np.float32))

    def test_band_view(self):
        img = Image.from_array(np.random.default_rng(0).random((3, 3, 4)))
        b2 = img.band(2)
        assert b2.channels == 1
        np.testing.assert_array_equal(b2.data[:, :, 0], img.data[:, :, 2])


class TestHsifFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        img = Image.from_array(rng.random((5, 7, 4)))
        path = tmp_path / "x.hsif"
        write_hsif(path, img)
        back = read_hsif(path)
        np.testing.assert_array_equal(back.data, img.data)

    def test_header_layout(self, tmp_path):
        img = Image.constant(2, 3, 1, 0.25)
        path = tmp_path / "x.hsif"
        write_hsif(path, img)
        blob = path.read_bytes()
        assert blob[:4] == b"HSIF"
        assert struct.unpack("<III", blob[4:16]) == (2, 3, 1)
        assert len(blob) == 16 + 4 * 2 * 3 * 1

    def test_bad_magic_offset_zero(self, tmp_path):
        p = tmp_path / "bad.hsif"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ImageFormatError) as e:
            read_hsif(p)
        assert e.value.offset == 0

    def test_truncated_payload_offset_is_file_length(self, tmp_path):
        img = Image.constant(4, 4, 2, 0.5)
        p = tmp_path / "t.hsif"
        write_hsif(p, img)
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(ImageFormatError) as e:
            read_hsif(p)
        assert e.value.offset == len(blob) - 8

    def test_dimension_overflow_offset_four(self, tmp_path):
        p = tmp_path / "d.hsif"
        p.write_bytes(b"HSIF" + struct.pack("<III", 0, 4, 1) + b"\x00" * 16)
        with pytest.raises(ImageFormatError) as e:
            read_hsif(p)
        assert e.value.offset == 4

    def test_non_finite_sample_offset(self, tmp_path):
        p = tmp_path / "n.hsif"
        vals = np.array([0.1, np.nan, 0.3, 0.4], dtype="<f4")
        p.write_bytes(b"HSIF" + struct.pack("<III", 2, 2, 1) + vals.tobytes())
        with pytest.raises(ImageFormatError) as e:
            read_hsif(p)
        assert e.value.offset == 16 + 4 * 1

    def test_out_of_range_values_clipped_on_load(self, tmp_path):
        p = tmp_path / "c.hsif"
        vals = np.array([-0.5, 0.5, 1.5, 1.0], dtype="<f4")
        p.write_bytes(b"HSIF" + struct.pack("<III", 2, 2, 1) + vals.tobytes())
        img = read_hsif(p)
        np.testing.assert_array_equal(img.data.reshape(-1), [0.0, 0.5, 1.0, 1.0])

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, h, w, c, seed):
        rng = np.random.default_rng(seed)
        img = Image.from_array(rng.random((h, w, c)))
        path = tmp_path_factory.mktemp("hsif") / "r.hsif"
        write_hsif(path, img)
        np.testing.assert_array_equal(read_hsif(path).data, img.data)


class TestNetpbm:
    def test_pgm_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(2)
        img = Image.from_array(rng.random((6, 5, 1)))
        p = tmp_path / "x.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        assert np.abs(back.data - img.data).max() <= 0.5 / 255.0 + 1e-7

    def test_ppm_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(3)
        img = Image.from_array(rng.random((4, 4, 3)))
        p = tmp_path / "x.ppm"
        write_ppm(p, img)
        back = read_ppm(p)
        assert np.abs(back.data - img.data).max() <= 0.5 / 255.0 + 1e-7

    def test_channel_count_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", Image.constant(2, 2, 3, 0.5))
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", Image.constant(2, 2, 1, 0.5))

    def test_header_comments_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        img = read_pgm(p)
        np.testing.assert_allclose(img.data.reshape(-1), [0.0, 1.0])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "b.pgm"
        p.write_bytes(b"P9\n1 1\n255\n\x00")
        with pytest.raises(ImageFormatError) as e:
            read_pgm(p)
        assert e.value.offset == 0

    @pytest.mark.parametrize("header,field,offset", [
        (b"P5\n-2 2\n255\n", b"-2", 3),
        (b"P5\n0 2\n255\n", b"0", 3),
        (b"P5\n2 ab\n255\n", b"ab", 5),
        (b"P5\n2 2\nxx\n", b"xx", 7),
        (b"P5\n2 99999999999\n255\n", b"99999999999", 5),
    ])
    def test_bad_header_field_offset(self, tmp_path, header, field, offset):
        p = tmp_path / "h.pgm"
        p.write_bytes(header + b"\x00" * 4)
        with pytest.raises(ImageFormatError) as e:
            read_pgm(p)
        assert e.value.offset == offset
        assert header[offset:offset + len(field)] == field

    def test_dispatch_by_extension(self, tmp_path):
        img = Image.constant(2, 2, 1, 0.5)
        p = tmp_path / "x.pgm"
        write_image(p, img)
        assert read_image(p).channels == 1
        with pytest.raises(ValueError):
            write_image(tmp_path / "x.tiff", img)
        with pytest.raises(ValueError):
            read_image(tmp_path / "x.tiff")


class TestCorruptFiles:
    """Truncated files, flipped bytes and wrong header dims: reading either
    succeeds or raises ImageFormatError, nothing else."""

    @staticmethod
    def _read_or_format_error(path, blob):
        path.write_bytes(blob)
        try:
            read_image(path)
        except ImageFormatError as e:
            assert e.offset is not None and 0 <= e.offset <= len(blob)

    @staticmethod
    def _valid(path):
        img = Image.from_array(np.random.default_rng(0).random((3, 5, 3)))
        if path.suffix == ".pgm":
            img = img.band(0)
        write_image(path, img)
        return path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([".hsif", ".pgm", ".ppm"]), st.data())
    def test_truncated(self, tmp_path_factory, ext, data):
        path = tmp_path_factory.mktemp("cut") / f"x{ext}"
        blob = self._valid(path)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        self._read_or_format_error(path, blob[:cut])

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([".hsif", ".pgm", ".ppm"]), st.data())
    def test_flipped_bytes(self, tmp_path_factory, ext, data):
        path = tmp_path_factory.mktemp("flip") / f"x{ext}"
        blob = bytearray(self._valid(path))
        # half the flips land in the header or the first samples
        where = st.one_of(st.integers(0, 20), st.integers(0, len(blob) - 1))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            blob[data.draw(where)] ^= data.draw(st.integers(min_value=1, max_value=255))
        self._read_or_format_error(path, bytes(blob))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=3, max_size=3))
    def test_hsif_wrong_dims(self, tmp_path_factory, dims):
        path = tmp_path_factory.mktemp("dims") / "x.hsif"
        blob = self._valid(path)
        self._read_or_format_error(path, blob[:4] + struct.pack("<III", *dims) + blob[16:])

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([".pgm", ".ppm"]),
        st.integers(min_value=-3, max_value=2**40),
        st.integers(min_value=-3, max_value=2**40),
    )
    def test_netpbm_wrong_dims(self, tmp_path_factory, ext, width, height):
        path = tmp_path_factory.mktemp("dims") / f"x{ext}"
        blob = self._valid(path)
        payload = blob[blob.index(b"255\n") + 4:]
        self._read_or_format_error(path, blob[:2] + b"\n%d %d\n255\n" % (width, height) + payload)


class TestDegradation:
    def test_blur_matches_hand_rolled_oracle(self):
        rng = np.random.default_rng(4)
        data = rng.random((12, 10, 2))
        for sigma in (0.5, 1.0, 2.0):
            got = gaussian_blur(data, sigma)
            want = blur_oracle(data, sigma)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_blur_preserves_constant(self):
        data = np.full((8, 8, 1), 0.3)
        np.testing.assert_allclose(gaussian_blur(data, 2.0), 0.3, atol=1e-12)

    def test_degrade_is_blur_then_decimate(self):
        rng = np.random.default_rng(5)
        img = Image.from_array(rng.random((16, 16, 4)))
        out = degrade_image(img, 4)
        want = np.clip(blur_oracle(img.data, 2.0)[::4, ::4, :], 0, 1).astype(np.float32)
        assert out.data.shape == (4, 4, 4)
        np.testing.assert_allclose(out.data, want, atol=1e-6)

    def test_degrade_scale_one_is_identity(self):
        img = Image.from_array(np.random.default_rng(6).random((5, 5, 1)))
        np.testing.assert_array_equal(degrade_image(img, 1).data, img.data)

    def test_degrade_requires_divisible_size(self):
        with pytest.raises(ValueError):
            degrade_image(Image.constant(10, 10, 1, 0.5), 4)

    def test_wald_pair_shapes_and_pan_passthrough(self):
        rng = np.random.default_rng(7)
        gt = Image.from_array(rng.random((16, 16, BANDS)))
        pan = Image.from_array(rng.random((16, 16, 1)))
        pair = wald_degrade(gt, pan, 4)
        assert pair.lrms.data.shape == (4, 4, BANDS)
        np.testing.assert_array_equal(pair.pan.data, pan.data)
        np.testing.assert_array_equal(pair.gt.data, gt.data)
        assert pair.scale == 4

    def test_wald_rejects_mismatched_shapes(self):
        gt = Image.constant(16, 16, BANDS, 0.5)
        with pytest.raises(ValueError):
            wald_degrade(gt, Image.constant(8, 8, 1, 0.5), 4)
        with pytest.raises(ValueError):
            wald_degrade(gt, Image.constant(16, 16, 2, 0.5), 4)


class TestBicubic:
    def test_constant_exact(self):
        img = Image.constant(4, 6, 2, 0.37)
        out = upsample_bicubic(img, 4)
        assert out.data.shape == (16, 24, 2)
        np.testing.assert_allclose(out.data, 0.37, atol=1e-6)

    def test_linear_ramp_exact_in_interior(self):
        w = 16
        ramp = np.tile(np.arange(w) / (w - 1.0), (4, 1))[:, :, None]
        out = upsample_bicubic(Image.from_array(ramp), 4).data.astype(np.float64)
        xs = (np.arange(4 * w) + 0.5) / 4.0 - 0.5
        interior = (xs >= 1.0) & (xs <= w - 2.0)
        want = xs[interior] / (w - 1.0)
        np.testing.assert_allclose(out[7, interior, 0], want, atol=1e-6)

    def test_output_clamped(self):
        step = np.zeros((6, 6, 1))
        step[:, 3:, 0] = 1.0
        out = upsample_bicubic(Image.from_array(step), 4)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_separable_transpose_symmetry(self):
        rng = np.random.default_rng(8)
        img = rng.random((5, 9, 1))
        a = upsample_bicubic(Image.from_array(img), 4).data[:, :, 0]
        b = upsample_bicubic(Image.from_array(img.transpose(1, 0, 2)), 4).data[:, :, 0]
        np.testing.assert_allclose(a, b.T, atol=1e-6)

    def test_scale_one_identity(self):
        img = Image.from_array(np.random.default_rng(9).random((4, 4, 2)))
        np.testing.assert_array_equal(upsample_bicubic(img, 1).data, img.data)


class TestPatches:
    def test_patch_counts(self):
        img = Image.constant(128, 128, 1, 0.5)
        assert extract_patches(img, 8, 4).n_patches == 31 * 31  # 961
        img = Image.constant(32, 32, 1, 0.5)
        assert extract_patches(img, 8, 4).n_patches == 7 * 7  # 49

    def test_patch_contents_match_slices(self):
        rng = np.random.default_rng(10)
        img = Image.from_array(rng.random((12, 12, 2)))
        grid = extract_patches(img, 4, 4)
        # patch (row 1, col 2) in row-major order
        k = 1 * grid.cols + 2
        want = img.data[4:8, 8:12, :].reshape(-1)
        np.testing.assert_array_equal(grid.patches[k], want)

    def test_pixel_indices_match_patch_contents(self):
        rng = np.random.default_rng(11)
        img = Image.from_array(rng.random((10, 10, 3)))
        grid = extract_patches(img, 4, 2)
        flat = img.data.reshape(-1)
        np.testing.assert_array_equal(flat[window_indices(10, 10, 3, 4, 2)], grid.patches)

    def test_reassemble_identity_when_covering(self):
        rng = np.random.default_rng(12)
        img = Image.from_array(rng.random((16, 16, 4)))
        grid = extract_patches(img, 8, 4)  # (16-8)%4==0 -> full coverage
        back = reassemble_patches(grid)
        np.testing.assert_allclose(back.data, img.data, atol=1e-7)

    def test_overlap_averaging_half(self):
        img = Image.constant(4, 6, 1, 0.0)
        grid = extract_patches(img, 4, 2)  # two windows share columns 2..3
        vals = np.zeros_like(grid.patches)
        vals[0] = 0.0
        vals[1] = 1.0
        out = reassemble_patches(grid, vals).data[:, :, 0]
        np.testing.assert_allclose(out[:, 2:4], 0.5)
        np.testing.assert_allclose(out[:, :2], 0.0)
        np.testing.assert_allclose(out[:, 4:], 1.0)

    def test_uncovered_cells_zero(self):
        img = Image.constant(10, 10, 1, 1.0)
        grid = extract_patches(img, 4, 3)  # (10-4)%3 == 0 rows 0,3,6 -> covers 0..9
        assert coverage_counts(grid).min() >= 1
        grid2 = extract_patches(Image.constant(11, 11, 1, 1.0), 4, 3)
        out = reassemble_patches(grid2).data
        assert out[10, 10, 0] == 0.0  # last row/col unreachable at stride 3

    def test_coverage_counts_total(self):
        img = Image.constant(16, 16, 2, 0.5)
        grid = extract_patches(img, 8, 4)
        assert coverage_counts(grid).sum() == grid.n_patches * 8 * 8 * 2

    def test_stride_bounds_enforced(self):
        img = Image.constant(8, 8, 1, 0.5)
        with pytest.raises(ValueError):
            extract_patches(img, 4, 0)
        with pytest.raises(ValueError):
            extract_patches(img, 4, 5)
        with pytest.raises(ValueError):
            extract_patches(img, 16, 4)

    def test_reassemble_shape_check(self):
        grid = extract_patches(Image.constant(8, 8, 1, 0.5), 4, 4)
        with pytest.raises(ValueError):
            reassemble_patches(grid, np.zeros((1, 16)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_extract_reassemble_identity_property(self, patch, stride, extra, seed):
        stride = min(stride, patch)
        side = patch + stride * (1 + extra)  # guarantees (side-patch)%stride==0
        rng = np.random.default_rng(seed)
        img = Image.from_array(rng.random((side, side, 2)))
        back = reassemble_patches(extract_patches(img, patch, stride))
        np.testing.assert_allclose(back.data, img.data, atol=1e-6)


class TestScenePair:
    def test_save_load_round_trip(self, tmp_path):
        pair = synth_scene(0, size=32)
        pair.save(tmp_path / "scene")
        back = ScenePair.load(tmp_path / "scene")
        np.testing.assert_array_equal(back.pan.data, pair.pan.data)
        np.testing.assert_array_equal(back.lrms.data, pair.lrms.data)
        np.testing.assert_array_equal(back.gt.data, pair.gt.data)

    def test_load_without_gt(self, tmp_path):
        pair = synth_scene(0, size=32)
        ScenePair(pair.pan, pair.lrms).save(tmp_path / "s")
        back = ScenePair.load(tmp_path / "s")
        assert back.gt is None

    @pytest.mark.parametrize("scale", [1, 2, 4])
    def test_load_derives_scale(self, tmp_path, scale):
        synth_scene(0, size=32, scale=scale).save(tmp_path / "s")
        assert ScenePair.load(tmp_path / "s").scale == scale

    def test_load_rejects_non_integer_ratio(self, tmp_path):
        write_hsif(tmp_path / "pan.hsif", Image.constant(12, 12, 1, 0.5))
        write_hsif(tmp_path / "lrms.hsif", Image.constant(5, 6, BANDS, 0.5))
        with pytest.raises(ValueError, match="scale x lrms size"):
            ScenePair.load(tmp_path)

    def test_validate_rejects_bad_pairs(self):
        pan = Image.constant(16, 16, 1, 0.5)
        lrms = Image.constant(4, 4, BANDS, 0.5)
        ScenePair(pan, lrms).validate()
        with pytest.raises(ValueError):
            ScenePair(Image.constant(16, 16, 2, 0.5), lrms).validate()
        with pytest.raises(ValueError):
            ScenePair(pan, Image.constant(5, 4, BANDS, 0.5)).validate()
        with pytest.raises(ValueError):
            ScenePair(pan, lrms, gt=Image.constant(8, 8, BANDS, 0.5)).validate()


class TestSynthScene:
    def test_deterministic(self):
        a = synth_scene(3, size=32)
        b = synth_scene(3, size=32)
        np.testing.assert_array_equal(a.gt.data, b.gt.data)
        np.testing.assert_array_equal(a.pan.data, b.pan.data)

    def test_shapes_and_range(self):
        pair = synth_scene(0, size=64)
        assert pair.gt.data.shape == (64, 64, BANDS)
        assert pair.pan.data.shape == (64, 64, 1)
        assert pair.lrms.data.shape == (16, 16, BANDS)
        for img in (pair.gt, pair.pan, pair.lrms):
            img.validate()

    def test_pan_is_band_mean(self):
        pair = synth_scene(1, size=32)
        np.testing.assert_allclose(
            pair.pan.data[:, :, 0], pair.gt.data.mean(axis=2), atol=1e-6
        )

    def test_bands_positively_correlated(self):
        pair = synth_scene(0, size=64)
        flat = pair.gt.data.reshape(-1, BANDS)
        corr = np.corrcoef(flat.T)
        iu = np.triu_indices(BANDS, 1)
        assert corr[iu].min() > 0.0

    def test_size_constraints(self):
        with pytest.raises(ValueError):
            synth_scene(0, size=30)  # not divisible by scale
        with pytest.raises(ValueError):
            synth_scene(0, size=12)  # too small
        with pytest.raises(ValueError, match="scale must be >= 1"):
            synth_scene(0, size=16, scale=0)

    def test_refuses_sizes_below_the_minimum_before_drawing(self, monkeypatch):
        # the fine blobs are drawn 1 to size/16 wide, so a smaller side that
        # passes the scale checks is refused by name, before any random draw
        def no_draws(seed=None):
            raise AssertionError("drew a random number")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for size in range(4, MIN_SCENE_SIZE):
            for scale in (1, 2, 3):
                if size % scale == 0 and size >= 4 * scale:
                    with pytest.raises(ValueError, match=f"below the minimum of {MIN_SCENE_SIZE}"):
                        synth_scene(0, size=size, scale=scale)
        monkeypatch.undo()
        assert synth_scene(0, size=MIN_SCENE_SIZE, scale=1).gt.data.shape == (16, 16, BANDS)
