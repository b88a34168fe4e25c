"""Multiplex patch-graph construction.

Neighbour selection is checked against a brute-force per-row oracle and
against the whole-matrix selection on the same product, at sizes and ties
that take every path of the candidate bound; edge weights (dot products of
unit rows) against a scalar cosine loop, and the node layout / relation
typing against hand-enumerable 2-patch cases.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpan.autodiff as ad
from graphpan.aggregation import ModelParams, run_pipeline
from graphpan.config import TrainConfig
from graphpan.graph import (
    _KNN_CHUNKS,
    N_RELATIONS,
    band_node,
    build_graph,
    build_structure,
    edge_weights,
    embed_patches,
    knn_select,
    random_multiplex_graph,
    self_similarities,
    unit_rows,
)
from graphpan.imaging import BANDS, Image, extract_patches, synth_scene, upsample_bicubic
from oracles import knn_select_whole


def knn_oracle(feats, k):
    """Brute-force: cosine to every other row, sort by (-sim, j), take k.

    Rows are normalised first and cosines are dot products of unit rows, as
    in knn_select: f_i . f_j / (|f_i| |f_j|) rounds differently, so cosines
    that tie in exact arithmetic (integer-valued features) could rank
    differently in the two forms."""
    f = np.asarray(feats, dtype=np.float64)
    m = len(f)
    unit = [row / n if n > 0 else np.zeros_like(row) for row, n in zip(f, np.linalg.norm(f, axis=1))]
    pairs = []
    for i in range(m):
        sims = sorted((-float(unit[i] @ unit[j]), j) for j in range(m) if j != i)
        pairs.extend((j, i) for _, j in sims[: min(k, m - 1)])
    pairs.sort(key=lambda p: (p[1], p[0]))
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return src, dst


class TestNodeLayout:
    def test_id_scheme(self):
        n = 5
        assert band_node(0, 0, n) == n
        assert band_node(2, 3, n) == (1 + 3) * n + 2
        # band-major: each band is one contiguous block after the pan block
        ids = band_node(np.arange(n)[None, :], np.arange(BANDS)[:, None], n)
        np.testing.assert_array_equal(ids.reshape(-1), np.arange(n, (1 + BANDS) * n))

    def test_stacked_attributes_follow_id_scheme(self):
        rng = np.random.default_rng(0)
        img_p = Image.from_array(rng.random((8, 8, 1)))
        img_b = Image.from_array(rng.random((8, 8, BANDS)))
        pan_grid = extract_patches(img_p, 4, 4)
        w_embed = rng.normal(size=(1 + BANDS, 6, 16))
        feats = embed_patches(pan_grid, extract_patches(img_b, 4, 4), w_embed)
        g = build_graph(feats, k=1)
        n = pan_grid.n_patches
        U = ad.value(g.U)
        np.testing.assert_allclose(U[1], ad.value(feats)[0, 1], atol=1e-6)
        for i in range(n):
            for b in range(BANDS):
                np.testing.assert_allclose(
                    U[band_node(i, b, n)], ad.value(feats)[1 + b, i], atol=1e-6
                )


class TestEmbedPatches:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_band_grid_matches_single_band_grids(self, dtype):
        # channel b of the BANDS-channel grid embeds bit for bit as the
        # one-band grid of band b does
        scene = synth_scene(seed=0, size=64)
        up = upsample_bicubic(scene.lrms, scene.scale)
        rng = np.random.default_rng(0)
        w_embed = rng.normal(size=(1 + BANDS, 16, 64)).astype(dtype)
        pan_grid = extract_patches(scene.pan, 8, 4)
        feats = embed_patches(pan_grid, extract_patches(up, 8, 4), w_embed)
        assert feats.dtype == dtype
        assert np.array_equal(feats[0], pan_grid.patches.astype(dtype) @ w_embed[0].T)
        for b in range(BANDS):
            patches = extract_patches(up.band(b), 8, 4).patches.astype(dtype)
            assert np.array_equal(feats[1 + b], patches @ w_embed[1 + b].T)

    def test_refuses_a_grid_of_other_width(self):
        grid = extract_patches(Image.from_array(np.zeros((8, 8, 1))), 4, 4)
        with pytest.raises(ValueError, match="4-channel"):
            embed_patches(grid, grid, np.zeros((1 + BANDS, 2, 16)))


class TestKnnSelect:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for m, k in [(5, 1), (8, 3), (12, 8), (6, 10)]:
            feats = rng.normal(size=(m, 4))
            src, dst = knn_select(feats, k)
            osrc, odst = knn_oracle(feats, k)
            np.testing.assert_array_equal(src, osrc)
            np.testing.assert_array_equal(dst, odst)

    def test_tie_breaks_to_lower_index(self):
        # rows 1 and 2 are identical; row 0 must pick neighbour 1, not 2
        feats = np.array([[1.0, 0.0], [1.0, 0.1], [1.0, 0.1], [0.0, 1.0]])
        src, dst = knn_select(feats, 1)
        picked = {d: s for s, d in zip(src, dst)}
        assert picked[0] == 1

    def test_identical_vectors_weight_one(self):
        feats = np.array([[0.3, 0.4], [0.3, 0.4], [5.0, 0.0]])
        src, dst = knn_select(feats, 1)
        w = ad.value(edge_weights(unit_rows(feats), src, dst))
        picked = {d: (s, wi) for s, d, wi in zip(src, dst, w)}
        assert picked[0][0] == 1
        assert picked[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_row_similarity_zero(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = ad.value(edge_weights(unit_rows(feats), np.array([0, 1]), np.array([1, 2])))
        assert w[0] == 0.0
        assert w[1] == 0.0  # orthogonal rows

    def test_orthogonal_rows_weight_zero(self):
        feats = np.eye(3)
        src, dst = knn_select(feats, 2)
        w = ad.value(edge_weights(unit_rows(feats), src, dst))
        np.testing.assert_allclose(w, 0.0, atol=1e-12)

    def test_negative_cosine_clamped(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        w = ad.value(edge_weights(unit_rows(feats), np.array([1]), np.array([0])))
        assert w[0] == 0.0

    def test_k_clipped_to_m_minus_1(self):
        feats = np.random.default_rng(2).normal(size=(4, 3))
        src, dst = knn_select(feats, 99)
        assert len(src) == 4 * 3

    def test_single_row_no_edges(self):
        src, dst = knn_select(np.ones((1, 3)), 4)
        assert len(src) == 0 and len(dst) == 0

    def test_output_sorted_by_dst_then_src(self):
        feats = np.random.default_rng(3).normal(size=(9, 5))
        src, dst = knn_select(feats, 3)
        keys = list(zip(dst.tolist(), src.tolist()))
        assert keys == sorted(keys)

    DRAWS = (
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["normal", "integer", "rounded", "pooled"]),
    )

    @staticmethod
    def _draw_feats(m, seed, kind):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(m, 3))
        if kind == "integer":  # cosines that tie exactly
            feats = np.round(feats)
        elif kind == "rounded":
            feats = np.round(feats, 1)
        elif kind == "pooled":  # repeated rows and zero rows: ties everywhere
            pool = np.vstack([rng.normal(size=(2, 3)), np.zeros((1, 3))])
            feats = pool[rng.integers(0, 3, size=m)]
        return feats

    @settings(max_examples=60, deadline=None)
    @given(*DRAWS)
    def test_property_matches_oracle(self, m, k, seed, kind):
        feats = self._draw_feats(m, seed, kind)
        src, dst = knn_select(feats, k)
        osrc, odst = knn_oracle(feats, k)
        np.testing.assert_array_equal(src, osrc)
        np.testing.assert_array_equal(dst, odst)

    @settings(max_examples=60, deadline=None)
    @given(*DRAWS)
    def test_property_matches_norm_divide(self, m, k, seed, kind):
        # unit_rows gives the same bits as norm-and-divide, so the picks
        # equal those of knn_select normalising with np.linalg.norm
        feats = self._draw_feats(m, seed, kind)

        def norm_divide(f):
            norms = np.linalg.norm(f, axis=1, keepdims=True)
            return np.divide(f, norms, out=np.zeros_like(f), where=norms > 0)

        np.testing.assert_array_equal(unit_rows(feats), norm_divide(feats))
        with mock.patch("graphpan.graph.unit_rows", norm_divide):
            want = knn_select(feats, k)
        for got, w in zip(knn_select(feats, k), want):
            np.testing.assert_array_equal(got, w)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=257, max_value=800),
        st.integers(min_value=1, max_value=12),
        *DRAWS[2:],
    )
    def test_property_multi_block_matches_whole_matrix(self, m, k, seed, kind):
        # every column set holds several entries, so the candidate bound sits
        # below most rows' k-th largest entry; the picks from the candidates
        # alone must equal the full-row selection on the same product
        feats = self._draw_feats(m, seed, kind)
        src, dst = knn_select(feats, k)
        osrc, odst = knn_select_whole(feats, k)
        np.testing.assert_array_equal(src, osrc)
        np.testing.assert_array_equal(dst, odst)

    @staticmethod
    def _assert_matches_whole(feats, k):
        for got, want in zip(knn_select(feats, k), knn_select_whole(feats, k)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", [_KNN_CHUNKS, _KNN_CHUNKS + 1, 150])
    def test_k_at_or_above_chunk_count(self, k):
        # k = chunk count takes the smallest set maximum as the bound; above
        # it there are k column sets, and the bound is again the smallest
        # set maximum
        rng = np.random.default_rng(12)
        self._assert_matches_whole(rng.normal(size=(300, 8)), k)
        self._assert_matches_whole(np.round(rng.normal(size=(300, 3))), k)

    @pytest.mark.parametrize("m", [2, 3, 40, _KNN_CHUNKS, _KNN_CHUNKS + 1, 100, 2 * _KNN_CHUNKS - 1])
    def test_fewer_rows_than_two_per_chunk(self, m):
        # below 2 * chunk count some column sets hold one entry, for one row
        # only the diagonal's -inf, and below the chunk count some are empty
        rng = np.random.default_rng(m)
        for k in (1, 5, m - 1):
            self._assert_matches_whole(rng.normal(size=(m, 4)), k)
            self._assert_matches_whole(np.round(rng.normal(size=(m, 2))), k)

    @pytest.mark.parametrize("m", [50, 300])
    def test_all_rows_identical(self, m):
        # every off-diagonal entry ties, so every entry is a candidate and the
        # picks are the lowest indices
        feats = np.tile(np.random.default_rng(13).normal(size=(1, 5)), (m, 1))
        self._assert_matches_whole(feats, 8)
        src, dst = knn_select(feats, 8)
        want = [j for i in range(m) for j in [*range(i), *range(i + 1, m)][:8]]
        np.testing.assert_array_equal(src, want)

    def test_real_shaped_call(self):
        # the shape of each of a 128 px scene's five calls: 961 patches, d = 64
        feats = np.abs(np.random.default_rng(14).normal(size=(961, 64))) + 0.1
        self._assert_matches_whole(feats, 8)

    @pytest.mark.parametrize("variant", ["plain", "rounded", "duplicated"])
    @pytest.mark.parametrize("m, d", [(961, 64), (300, 512)])
    def test_asymmetric_product_keeps_every_pick(self, m, d, variant):
        # the bound is read down the columns, so row i's bound comes from
        # entries (j, i) that differ from its own (i, j) in the last bits
        # here; without the 2 d eps margin a pick can fall below the bound
        rng = np.random.default_rng(2)
        feats = np.abs(rng.normal(size=(m, d))) + 0.1
        if variant == "rounded":
            feats = np.round(feats, 1)
        elif variant == "duplicated":
            feats = feats[rng.integers(0, m // 3, size=m)]
        sims = self_similarities(feats)
        assert not np.array_equal(sims, sims.T)
        # the margin's premise: an entry and its transpose differ by <= d eps
        gap = np.triu(sims, 1) - np.triu(sims.T, 1)  # off the -inf diagonal
        assert np.abs(gap).max() <= d * np.finfo(np.float64).eps
        for k in (1, 8):
            self._assert_matches_whole(feats, k)

    def test_duplicate_rows_tie_per_pair(self):
        # bit-identical rows must get bit-identical cosines from a third row
        # for the lowest-index tie rule to hold; numpy's symmetric product
        # (unit @ unit.T) gave them entries 1 ulp apart here, and 106 of 316
        # rows picked a higher index than the per-pair cosines do
        feats = self._draw_feats(316, 1, "pooled")
        src, dst = knn_select(feats, 1)
        osrc, odst = knn_oracle(feats, 1)
        np.testing.assert_array_equal(src, osrc)
        np.testing.assert_array_equal(dst, odst)

    def test_peak_memory_bounded(self):
        # the one (m, m) product plus a boolean candidate mask and
        # candidate-sized arrays: below 1.5 of the product, where a
        # whole-matrix selection holds several (m, m) arrays
        m = 3_000
        feats = np.random.default_rng(11).normal(size=(m, 64))
        knn_select(feats[:10], 8)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            knn_select(feats, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m * m * 8


class TestCosineRows:
    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(6, 5))
        src, dst = np.array([1, 2, 3, 0, 5, 4]), np.array([0, 0, 1, 2, 4, 5])
        got = ad.value(edge_weights(unit_rows(feats), src, dst))
        for w, a, b in zip(got, feats[dst], feats[src]):
            want = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert w == pytest.approx(max(0.0, want), rel=1e-12)

    def test_gradient_flows(self):
        rng = np.random.default_rng(5)
        a = ad.Tensor(rng.normal(size=(3, 4)))
        out = ad.sum(edge_weights(unit_rows(a), np.array([1, 2, 0]), np.array([0, 1, 2])))
        out.backward()
        assert a.grad is not None and np.all(np.isfinite(a.grad))

    def test_zero_row_zero_gradient(self):
        a = ad.Tensor(np.array([[0.0, 0.0], [1.0, 2.0]]))
        out = ad.sum(unit_rows(a) * np.array([[1.0, 1.0], [1.0, 1.0]]))
        out.backward()
        np.testing.assert_array_equal(ad.value(unit_rows(a))[0], [0.0, 0.0])
        np.testing.assert_array_equal(a.grad[0], [0.0, 0.0])
        assert np.all(np.isfinite(a.grad))


class TestBuildGraph:
    def _two_patch_graph(self):
        rng = np.random.default_rng(6)
        return build_graph(rng.normal(size=(1 + BANDS, 2, 4)), k=1)

    def test_edge_counts_two_patches(self):
        g = self._two_patch_graph()
        s1, d1 = g.structure.edges[0]
        s2, d2 = g.structure.edges[1]
        s3, d3 = g.structure.edges[2]
        assert len(s1) == 2  # each pan node has 1 neighbour
        assert len(s2) == BANDS * 2  # per band, 2 nodes x 1 neighbour
        assert len(s3) == 2 * BANDS * 2  # band<->pan both directions

    def test_relation_type_purity(self):
        g = self._two_patch_graph()
        n = g.n_patches
        s1, d1 = g.structure.edges[0]
        assert np.all(np.concatenate([s1, d1]) < n)  # pan nodes
        s2, d2 = g.structure.edges[1]
        assert np.all(np.concatenate([s2, d2]) >= n)  # band nodes
        s3, d3 = g.structure.edges[2]
        kinds = {(bool(a < n), bool(b < n)) for a, b in zip(s3, d3)}
        assert kinds == {(True, False), (False, True)}

    def test_band_knn_stays_within_band(self):
        rng = np.random.default_rng(7)
        g = build_graph(rng.normal(size=(1 + BANDS, 5, 4)), k=2)
        n = g.n_patches
        bands = np.arange(BANDS)[:, None]
        band_of = np.full(g.n_nodes, -1)
        band_of[band_node(np.arange(n)[None, :], bands, n)] = bands
        s2, d2 = g.structure.edges[1]
        assert len(s2) and np.all(band_of[s2] >= 0)
        np.testing.assert_array_equal(band_of[s2], band_of[d2])

    def test_same_patch_relation_pairs(self):
        g = self._two_patch_graph()
        n = g.n_patches
        s3, d3 = g.structure.edges[2]
        pairs = set(zip(s3.tolist(), d3.tolist()))
        want = set()
        for i in range(n):
            for b in range(BANDS):
                want.add((band_node(i, b, n), i))
                want.add((i, band_node(i, b, n)))
        assert pairs == want

    @staticmethod
    def _assert_sorted_by_dst_src(structure):
        for src, dst in structure.edges:
            key = dst * structure.n_nodes + src
            assert np.all(np.diff(key) > 0)

    def test_edges_sorted_by_dst_src(self):
        g = self._two_patch_graph()
        self._assert_sorted_by_dst_src(g.structure)

    @pytest.mark.parametrize("size", [64, 128])
    def test_scene_edges_sorted_by_dst_src(self, size):
        cfg = TrainConfig(ablate="local-only")
        out = run_pipeline(synth_scene(0, size=size), ModelParams.init(cfg, seed=0), cfg)
        self._assert_sorted_by_dst_src(out.graph.structure)

    def test_same_patch_weights_match_cosine(self):
        g = self._two_patch_graph()
        s3, d3, w3 = g.relation(3)
        U = ad.value(g.U)
        w3 = ad.value(w3)
        for a, b, w in zip(s3, d3, w3):
            cos = U[a] @ U[b] / (np.linalg.norm(U[a]) * np.linalg.norm(U[b]))
            assert w == pytest.approx(max(0.0, min(1.0, cos)), abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(1 + BANDS, 6, 5))
        g1 = build_graph(feats, k=3)
        g2 = build_graph(feats, k=3)
        for r in range(N_RELATIONS):
            np.testing.assert_array_equal(g1.structure.edges[r][0], g2.structure.edges[r][0])
            np.testing.assert_array_equal(ad.value(g1.weights[r]), ad.value(g2.weights[r]))

    def test_pinned_structure_skips_selection(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(1 + BANDS, 4, 3))
        structure = build_structure(feats, k=2)
        moved = feats.copy()
        moved[0] += 10.0 * rng.normal(size=(4, 3))  # would reshuffle the pan kNN
        g = build_graph(moved, k=2, structure=structure)
        assert g.structure is structure

    def test_weights_within_unit_interval(self):
        rng = np.random.default_rng(10)
        g = build_graph(rng.normal(size=(1 + BANDS, 7, 4)), k=3)
        for r in range(1, N_RELATIONS + 1):
            w = ad.value(g.relation(r)[2])
            assert w.min() >= 0.0 and w.max() <= 1.0


class TestRandomMultiplexGraph:
    def test_shape_and_sorting(self):
        g = random_multiplex_graph(20, 0.1, seed=0)
        assert g.n_nodes == 20
        assert len(g.structure.edges) == N_RELATIONS
        for (src, dst), w in zip(g.structure.edges, g.weights):
            assert len(src) == len(dst) == len(w)
            keys = list(zip(dst.tolist(), src.tolist()))
            assert keys == sorted(keys)
            assert np.all(src != dst)
            assert w.min() > 0.0 and w.max() <= 1.0

    def test_density_plausible(self):
        g = random_multiplex_graph(50, 0.1, seed=1)
        total = sum(len(s) for s, _ in g.structure.edges)
        expect = 3 * 50 * 49 * 0.1
        assert 0.5 * expect < total < 1.5 * expect

    def test_pairs_distinct_within_each_relation(self):
        for n, density in [(2, 0.9), (30, 0.5), (200, 0.04)]:
            g = random_multiplex_graph(n, density, seed=n)
            for src, dst in g.structure.edges:
                assert len(np.unique(dst * n + src)) == len(src)
                assert src.min(initial=0) >= 0 and src.max(initial=0) < n

    def test_full_density_gives_every_off_diagonal_pair(self):
        g = random_multiplex_graph(6, 1.0, seed=0)
        dst, src = np.nonzero(~np.eye(6, dtype=bool))
        for s, d in g.structure.edges:
            np.testing.assert_array_equal(s, src)
            np.testing.assert_array_equal(d, dst)

    def test_memory_is_linear_in_edges(self):
        # about 32,000 edges per relation; an (n, n) draw per relation would
        # allocate 8 n^2 bytes = 122 MiB
        tracemalloc.start()
        try:
            g = random_multiplex_graph(4000, 8 / 4000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(s) for s, _ in g.structure.edges) > 3 * 30000
        assert peak < 8 * 2**20

    def test_deterministic(self):
        g1 = random_multiplex_graph(15, 0.2, seed=7)
        g2 = random_multiplex_graph(15, 0.2, seed=7)
        for r in range(N_RELATIONS):
            np.testing.assert_array_equal(g1.structure.edges[r][0], g2.structure.edges[r][0])
            np.testing.assert_array_equal(g1.weights[r], g2.weights[r])
