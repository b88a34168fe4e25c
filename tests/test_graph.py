"""Multiplex patch-graph construction.

Neighbour selection is checked against a brute-force per-row oracle, edge
weights against a scalar cosine loop, and the node layout / relation typing
against hand-enumerable 2-patch cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpan.autodiff as ad
from graphpan.graph import (
    N_RELATIONS,
    band_node,
    build_graph,
    build_structure,
    cosine_rows,
    edge_weights,
    embed_patches,
    knn_select,
    random_multiplex_graph,
)
from graphpan.imaging import BANDS, Image, extract_patches


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
        assert band_node(0, 0, n) == 5
        assert band_node(2, 3, n) == 5 + 4 * 2 + 3
        ids = band_node(np.arange(n)[:, None], np.arange(BANDS)[None, :], n)
        np.testing.assert_array_equal(ids.reshape(-1), np.arange(n, (1 + BANDS) * n))

    def test_stacked_attributes_follow_id_scheme(self):
        rng = np.random.default_rng(0)
        img_p = Image.from_array(rng.random((8, 8, 1)))
        img_b = Image.from_array(rng.random((8, 8, BANDS)))
        pan_grid = extract_patches(img_p, 4, 4)
        band_grids = [extract_patches(img_b.band(b), 4, 4) for b in range(BANDS)]
        w_pan = rng.normal(size=(6, 16))
        w_band = [rng.normal(size=(6, 16)) for _ in range(BANDS)]
        xp, ys = embed_patches(pan_grid, band_grids, w_pan, w_band)
        g = build_graph(xp, ys, k=1)
        n = pan_grid.n_patches
        U = ad.value(g.U)
        np.testing.assert_allclose(U[1], ad.value(xp)[1], atol=1e-6)
        for i in range(n):
            for b in range(BANDS):
                np.testing.assert_allclose(
                    U[band_node(i, b, n)], ad.value(ys[b])[i], atol=1e-6
                )


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
        w = ad.value(edge_weights(feats, src, dst))
        picked = {d: (s, wi) for s, d, wi in zip(src, dst, w)}
        assert picked[0][0] == 1
        assert picked[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_row_similarity_zero(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = ad.value(edge_weights(feats, np.array([0, 1]), np.array([1, 2])))
        assert w[0] == 0.0
        assert w[1] == 0.0  # orthogonal rows

    def test_orthogonal_rows_weight_zero(self):
        feats = np.eye(3)
        src, dst = knn_select(feats, 2)
        w = ad.value(edge_weights(feats, src, dst))
        np.testing.assert_allclose(w, 0.0, atol=1e-12)

    def test_negative_cosine_clamped(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        w = ad.value(edge_weights(feats, np.array([1]), np.array([0])))
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

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["normal", "integer", "rounded", "pooled"]),
    )
    def test_property_matches_oracle(self, m, k, seed, kind):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(m, 3))
        if kind == "integer":  # cosines that tie exactly
            feats = np.round(feats)
        elif kind == "rounded":
            feats = np.round(feats, 1)
        elif kind == "pooled":  # repeated rows and zero rows: ties everywhere
            pool = np.vstack([rng.normal(size=(2, 3)), np.zeros((1, 3))])
            feats = pool[rng.integers(0, 3, size=m)]
        src, dst = knn_select(feats, k)
        osrc, odst = knn_oracle(feats, k)
        np.testing.assert_array_equal(src, osrc)
        np.testing.assert_array_equal(dst, odst)


class TestCosineRows:
    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        got = ad.value(cosine_rows(a, b))
        for i in range(6):
            want = a[i] @ b[i] / (np.linalg.norm(a[i]) * np.linalg.norm(b[i]))
            assert got[i] == pytest.approx(want, rel=1e-12)

    def test_gradient_flows(self):
        rng = np.random.default_rng(5)
        a = ad.Tensor(rng.normal(size=(3, 4)))
        out = ad.sum(cosine_rows(a, rng.normal(size=(3, 4))))
        out.backward()
        assert a.grad is not None and np.all(np.isfinite(a.grad))

    def test_zero_row_zero_gradient(self):
        a = ad.Tensor(np.array([[0.0, 0.0], [1.0, 2.0]]))
        b = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = ad.sum(cosine_rows(a, b))
        out.backward()
        np.testing.assert_array_equal(a.grad[0], [0.0, 0.0])


class TestBuildGraph:
    def _two_patch_graph(self):
        rng = np.random.default_rng(6)
        xp = rng.normal(size=(2, 4))
        ys = [rng.normal(size=(2, 4)) for _ in range(BANDS)]
        return xp, ys, build_graph(xp, ys, k=1)

    def test_edge_counts_two_patches(self):
        _, _, g = self._two_patch_graph()
        s1, d1 = g.structure.edges[0]
        s2, d2 = g.structure.edges[1]
        s3, d3 = g.structure.edges[2]
        assert len(s1) == 2  # each pan node has 1 neighbour
        assert len(s2) == BANDS * 2  # per band, 2 nodes x 1 neighbour
        assert len(s3) == 2 * BANDS * 2  # band<->pan both directions

    def test_relation_type_purity(self):
        _, _, g = self._two_patch_graph()
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
        xp = rng.normal(size=(5, 4))
        ys = [rng.normal(size=(5, 4)) for _ in range(BANDS)]
        g = build_graph(xp, ys, k=2)
        n = g.n_patches
        s2, d2 = g.structure.edges[1]
        for a, b in zip(s2, d2):
            assert (a - n) % BANDS == (b - n) % BANDS

    def test_same_patch_relation_pairs(self):
        _, _, g = self._two_patch_graph()
        n = g.n_patches
        s3, d3 = g.structure.edges[2]
        pairs = set(zip(s3.tolist(), d3.tolist()))
        want = set()
        for i in range(n):
            for b in range(BANDS):
                want.add((band_node(i, b, n), i))
                want.add((i, band_node(i, b, n)))
        assert pairs == want

    def test_same_patch_weights_match_cosine(self):
        xp, ys, g = self._two_patch_graph()
        s3, d3, w3 = g.relation(3)
        U = ad.value(g.U)
        w3 = ad.value(w3)
        for a, b, w in zip(s3, d3, w3):
            cos = U[a] @ U[b] / (np.linalg.norm(U[a]) * np.linalg.norm(U[b]))
            assert w == pytest.approx(max(0.0, min(1.0, cos)), abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        xp = rng.normal(size=(6, 5))
        ys = [rng.normal(size=(6, 5)) for _ in range(BANDS)]
        g1 = build_graph(xp, ys, k=3)
        g2 = build_graph(xp, ys, k=3)
        for r in range(N_RELATIONS):
            np.testing.assert_array_equal(g1.structure.edges[r][0], g2.structure.edges[r][0])
            np.testing.assert_array_equal(ad.value(g1.weights[r]), ad.value(g2.weights[r]))

    def test_pinned_structure_skips_selection(self):
        rng = np.random.default_rng(9)
        xp = rng.normal(size=(4, 3))
        ys = [rng.normal(size=(4, 3)) for _ in range(BANDS)]
        structure = build_structure(xp, ys, k=2)
        xp2 = xp + 10.0 * rng.normal(size=xp.shape)  # would reshuffle the kNN
        g = build_graph(xp2, ys, k=2, structure=structure)
        assert g.structure is structure

    def test_weights_within_unit_interval(self):
        rng = np.random.default_rng(10)
        xp = rng.normal(size=(7, 4))
        ys = [rng.normal(size=(7, 4)) for _ in range(BANDS)]
        g = build_graph(xp, ys, k=3)
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

    def test_deterministic(self):
        g1 = random_multiplex_graph(15, 0.2, seed=7)
        g2 = random_multiplex_graph(15, 0.2, seed=7)
        for r in range(N_RELATIONS):
            np.testing.assert_array_equal(g1.structure.edges[r][0], g2.structure.edges[r][0])
            np.testing.assert_array_equal(g1.weights[r], g2.weights[r])
