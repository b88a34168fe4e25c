"""Linear aggregation branches, fusion, and reconstruction.

Both aggregation paths are validated against dense matrix-chain oracles
written straight from their definitions (symmetrise + self-loops + D^{-1/2}
normalisation for the local branch; row-L1-normalised B B^T for the global
branch), plus hand-computed miniature cases.
"""

from dataclasses import fields

import numpy as np
import pytest

import graphpan.autodiff as ad
from graphpan.aggregation import (
    ModelParams,
    aggregate_global,
    aggregate_local,
    build_global_pattern_matrix,
    forward,
    fuse,
    global_similarity,
    param_layout,
    reconstruct,
    run_pipeline,
    weigh_branches,
)
from graphpan.config import TrainConfig
from graphpan.graph import random_multiplex_graph
from graphpan.imaging import BANDS, Image, extract_patches, synth_scene, upsample_bicubic
from graphpan.patterns import PatternSet, RelationPattern, generate_patterns


# ---------------------------------------------------------------------------
# dense oracles


def local_oracle(ps, U, alpha, w_chain):
    n = ps.n_nodes
    M = np.zeros((n, n))
    for p in ps:
        M += alpha[p.mask - 1] * p.to_dense(n)
    sym = (M + M.T) / 2.0 + np.eye(n)
    deg = sym.sum(axis=1)
    dinv = np.where(deg > 1e-12, 1.0 / np.sqrt(np.where(deg > 1e-12, deg, 1.0)), 0.0)
    ahat = dinv[:, None] * sym * dinv[None, :]
    h = ahat @ U
    acc = np.zeros_like(U, dtype=np.float64)
    for w in w_chain:
        h = h @ w
        acc = acc + h
    return acc / len(w_chain)


def global_oracle(ps, U, beta, w_chain):
    n = ps.n_nodes
    B = np.zeros((n, len(ps)))
    for m, p in enumerate(ps):
        B[:, m] = beta[p.mask - 1] * p.to_dense(n).sum(axis=1)
    S = B @ B.T
    r = np.abs(S).sum(axis=1)
    A = np.where(r[:, None] > 0, S / np.where(r[:, None] > 0, r[:, None], 1.0), 0.0)
    h = A @ U
    for w in w_chain:
        h = h @ w
    return h


def self_loop_pattern(n, mask=1):
    idx = np.arange(n)
    return PatternSet(n, [RelationPattern(mask, idx, idx, np.ones(n))])


def random_patternset(n, seed, density=0.2):
    g = random_multiplex_graph(n, density, seed=seed)
    return generate_patterns(g)


class TestAggregateLocal:
    def test_identity_pattern_is_identity_operator(self):
        # pattern = I, alpha = 1: sym(I)+I = 2I, sym_norm(2I) = I, so H = U W
        n, d = 5, 3
        U = np.random.default_rng(0).normal(size=(n, d))
        ps = self_loop_pattern(n)
        alpha = np.ones(7)
        h = aggregate_local(ps, U, alpha, [np.eye(d)])
        np.testing.assert_allclose(ad.value(h), U, atol=1e-12)

    def test_alpha_zero_reduces_to_mlp_chain(self):
        n, d = 6, 4
        rng = np.random.default_rng(1)
        U = rng.normal(size=(n, d))
        ps = random_patternset(n, seed=2)
        w1, w2 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        h = aggregate_local(ps, U, np.zeros(7), [w1, w2])
        want = (U @ w1 + U @ w1 @ w2) / 2.0
        np.testing.assert_allclose(ad.value(h), want, rtol=1e-10, atol=1e-12)

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            n, d = 10, 4
            ps = random_patternset(n, seed=seed)
            U = rng.normal(size=(n, d))
            alpha = rng.uniform(0.0, 1.0, size=7)
            chain = [rng.normal(size=(d, d)) for _ in range(2)]
            got = ad.value(aggregate_local(ps, U, alpha, chain))
            want = local_oracle(ps, U, alpha, chain)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_depth_averaging_exact(self):
        rng = np.random.default_rng(4)
        n, d = 8, 3
        ps = random_patternset(n, seed=5)
        U = rng.normal(size=(n, d))
        alpha = rng.uniform(0.2, 0.8, size=7)
        w1, w2 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        h1 = ad.value(aggregate_local(ps, U, alpha, [w1]))  # = A U w1
        h12 = ad.value(aggregate_local(ps, U, alpha, [w1, w2]))
        np.testing.assert_allclose(h12, (h1 + h1 @ w2) / 2.0, rtol=1e-9, atol=1e-12)

    def test_linear_in_U(self):
        rng = np.random.default_rng(6)
        n, d = 9, 4
        ps = random_patternset(n, seed=7)
        U = rng.normal(size=(n, d))
        alpha = rng.uniform(0.0, 1.0, size=7)
        chain = [rng.normal(size=(d, d))]
        h1 = ad.value(aggregate_local(ps, U, alpha, chain))
        h2 = ad.value(aggregate_local(ps, 2.0 * U, alpha, chain))
        np.testing.assert_allclose(h2, 2.0 * h1, rtol=1e-6)

    def test_normalised_operator_symmetric_spectral_radius(self):
        # recover A-hat densely by propagating the identity with identity W
        n = 12
        ps = random_patternset(n, seed=8)
        alpha = np.random.default_rng(9).uniform(0.0, 1.0, size=7)
        ahat = ad.value(aggregate_local(ps, np.eye(n), alpha, [np.eye(n)]))
        np.testing.assert_allclose(ahat, ahat.T, atol=1e-12)
        eig = np.max(np.abs(np.linalg.eigvalsh(ahat)))
        assert eig <= 1.01

    def test_empty_patternset_rejected(self):
        with pytest.raises(ValueError):
            aggregate_local(PatternSet(3, []), np.zeros((3, 2)), np.ones(7), [np.eye(2)])


class TestGlobalPatternMatrix:
    def test_binary_count_example(self):
        # node 1 receives edges from nodes 0 and 2 in a single pattern
        ps = PatternSet(
            3, [RelationPattern(1, np.array([1, 1]), np.array([0, 2]), np.ones(2))]
        )
        B = ad.value(build_global_pattern_matrix(ps, np.ones(7)))
        np.testing.assert_array_equal(B, [[0.0], [2.0], [0.0]])

    def test_beta_zero_zeroes_column(self):
        ps = random_patternset(8, seed=10)
        beta = np.zeros(7)
        B = ad.value(build_global_pattern_matrix(ps, beta))
        np.testing.assert_array_equal(B, np.zeros_like(B))

    def test_row_sum_oracle(self):
        rng = np.random.default_rng(11)
        ps = random_patternset(10, seed=12)
        beta = rng.uniform(0.0, 2.0, size=7)
        B = ad.value(build_global_pattern_matrix(ps, beta))
        assert B.shape == (10, len(ps))
        for m, p in enumerate(ps):
            want = beta[p.mask - 1] * p.to_dense(10).sum(axis=1)
            np.testing.assert_allclose(B[:, m], want, rtol=1e-9, atol=1e-12)

    def test_columns_in_ascending_mask_order(self):
        ps = random_patternset(10, seed=13)
        assert ps.masks() == sorted(ps.masks())


def densify(op):
    """The (n, n) matrix a factored global operator stands for."""
    return ad.value(op.left) @ ad.value(op.right).T


def dense_global_similarity(B):
    """Row-L1-normalised B @ B.T built as an (n, n) tape value, zero rows
    kept zero: the oracle for the factored form."""
    s = B @ ad.transpose(B)
    r = ad.sum(ad.absolute(s), axis=1, keepdims=True)
    live = (ad.value(r) > 0.0).astype(ad.value(r).dtype)
    return (s / (r * live + (1.0 - live))) * live


class TestGlobalSimilarity:
    def test_identical_rows_uniform(self):
        B = np.tile([1.0, 2.0], (5, 1))
        A = densify(global_similarity(B))
        np.testing.assert_allclose(A, np.full((5, 5), 1.0 / 5.0), atol=1e-12)

    def test_orthogonal_signatures_identity(self):
        A = densify(global_similarity(np.eye(4)))
        np.testing.assert_allclose(A, np.eye(4), atol=1e-12)

    def test_zero_rows_stay_zero(self):
        B = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        A = densify(global_similarity(B))
        np.testing.assert_array_equal(A[1], np.zeros(3))

    def test_dense_oracle(self):
        rng = np.random.default_rng(14)
        # one sign per column, a negative beta included
        B = np.abs(rng.normal(size=(8, 3))) * np.array([1.0, -2.0, 0.5])
        A = densify(global_similarity(B))
        S = B @ B.T
        want = S / np.abs(S).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(A, want, rtol=1e-6, atol=1e-12)
        # a column that mixes signs is outside the factored identity
        with pytest.raises(ValueError, match="mixes signs"):
            global_similarity(rng.normal(size=(8, 3)))

    def test_row_l1_norms(self):
        rng = np.random.default_rng(15)
        B = np.abs(rng.normal(size=(7, 3)))  # nonnegative signatures
        A = densify(global_similarity(B))
        np.testing.assert_allclose(np.abs(A).sum(axis=1), 1.0, atol=1e-9)
        # signed columns: rejected rather than normalised
        B2 = rng.normal(size=(7, 3))
        with pytest.raises(ValueError, match="mixes signs"):
            global_similarity(B2)

    def test_factored_matches_dense_on_scene(self):
        """Values and gradients of the global branch against the dense
        B @ B.T oracle, float64, on the seed-0 64 px scene with a negative
        beta and some all-zero rows of B."""
        cfg = TrainConfig(precision="high")
        params = ModelParams.init(cfg, seed=0).astype(np.float64)
        out = run_pipeline(synth_scene(0, size=64), params, cfg)
        ps, U0 = out.patterns, ad.value(out.graph.U)
        n, d = U0.shape
        rng = np.random.default_rng(0)
        beta0 = np.array([1.3, -0.7, 0.9, 1.0, 1.0, 1.0, 1.0])
        keep = (np.arange(n) % 7 != 3).astype(np.float64)[:, None]
        probe = rng.normal(size=(n, d))

        def run(similarity):
            beta = ad.Tensor(beta0.copy())
            U = ad.Tensor(U0.copy())
            ws = [ad.Tensor(w.copy()) for w in params.w_global]
            B = build_global_pattern_matrix(ps, beta) * keep
            h = aggregate_global(similarity(B), U, ws)
            (h * probe).sum().backward()
            return [h.data, beta.grad, U.grad] + [w.grad for w in ws]

        got = run(global_similarity)
        want = run(dense_global_similarity)
        assert np.all(got[0][keep[:, 0] == 0.0] == 0.0)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max()


class TestAggregateGlobal:
    def test_identity_passthrough(self):
        U = np.random.default_rng(16).normal(size=(5, 3))
        h = aggregate_global(np.eye(5), U, [np.eye(3), np.eye(3)])
        np.testing.assert_allclose(ad.value(h), U, atol=1e-12)

    def test_uniform_operator_gives_identical_rows(self):
        rng = np.random.default_rng(17)
        U = rng.normal(size=(6, 3))
        A = np.full((6, 6), 1.0 / 6.0)
        h = ad.value(aggregate_global(A, U, [rng.normal(size=(3, 3))]))
        np.testing.assert_allclose(h, np.tile(h[0], (6, 1)), atol=1e-12)

    def test_deepest_layer_only(self):
        rng = np.random.default_rng(18)
        n, d = 7, 3
        ps = random_patternset(n, seed=19)
        U = rng.normal(size=(n, d))
        beta = rng.uniform(0.1, 1.0, size=7)
        chain = [rng.normal(size=(d, d)) for _ in range(2)]
        B = build_global_pattern_matrix(ps, beta)
        got = ad.value(aggregate_global(global_similarity(B), U, chain))
        want = global_oracle(ps, U, beta, chain)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)
        # and it is genuinely not the layer average
        assert not np.allclose(got, local_oracle(ps, U, np.ones(7), chain))

    def test_linear_in_U(self):
        rng = np.random.default_rng(20)
        A = rng.normal(size=(5, 5))
        U = rng.normal(size=(5, 2))
        w = [rng.normal(size=(2, 2))]
        h1 = ad.value(aggregate_global(A, U, w))
        h2 = ad.value(aggregate_global(A, 3.0 * U, w))
        np.testing.assert_allclose(h2, 3.0 * h1, rtol=1e-9)


class TestFuse:
    def test_exact_mean(self):
        rng = np.random.default_rng(21)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        np.testing.assert_array_equal(ad.value(fuse(a, b)), (a + b) / 2.0)

    def test_identical_branches(self):
        a = np.random.default_rng(22).normal(size=(3, 3))
        np.testing.assert_allclose(ad.value(fuse(a, a)), a)

    def test_opposite_branches_cancel(self):
        a = np.random.default_rng(23).normal(size=(3, 3))
        np.testing.assert_allclose(ad.value(fuse(a, -a)), np.zeros_like(a), atol=1e-15)


class TestWeighBranches:
    def _importance(self, rng, d, q_scale=1.0):
        layout = param_layout(TrainConfig(d=d))["importance"]
        w, b, q = (rng.normal(size=shape) for shape, _ in layout)
        return [w, b, q_scale * q]

    def test_neutral_q_returns_branches_unchanged(self):
        rng = np.random.default_rng(26)
        hl, hg = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        imp = self._importance(rng, 3, q_scale=0.0)
        wl, wg = weigh_branches(hl, hg, imp)
        np.testing.assert_array_equal(wl, hl)
        np.testing.assert_array_equal(wg, hg)
        np.testing.assert_array_equal(ad.value(fuse(wl, wg)), (hl + hg) / 2.0)

    def test_softmax_weighted_sum_oracle(self):
        # fuse of the scaled pair is sum_v softmax_v(q . tanh(W h_v + b)) h_v
        rng = np.random.default_rng(27)
        hl, hg = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        w, b, q = self._importance(rng, 4)
        scores = np.stack(
            [(np.tanh(h @ w.T + b) @ q)[:, 0] for h in (hl, hg)], axis=1
        )
        a = np.exp(scores - scores.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)
        want = a[:, :1] * hl + a[:, 1:] * hg
        got = ad.value(fuse(*weigh_branches(hl, hg, [w, b, q])))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert not np.allclose(a, 0.5)

    def test_weights_are_positive_per_node_scales(self):
        rng = np.random.default_rng(28)
        hl, hg = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        wl, wg = weigh_branches(hl, hg, self._importance(rng, 4))
        sl, sg = wl[:, 0] / hl[:, 0], wg[:, 0] / hg[:, 0]
        np.testing.assert_allclose(wl, sl[:, None] * hl, rtol=1e-12)
        np.testing.assert_allclose(wg, sg[:, None] * hg, rtol=1e-12)
        assert np.all(sl > 0) and np.all(sg > 0)
        np.testing.assert_allclose(sl + sg, 2.0, rtol=1e-12)

    def test_init_fusion_is_exact_branch_mean(self):
        # the freshly initialised full model fuses with the plain mean of the
        # local-only and global-only representations, bit for bit
        scene = synth_scene(2, size=32)
        params = ModelParams.init(TrainConfig(), seed=4, zero_recon=False)
        full = run_pipeline(scene, params, TrainConfig())
        loc = run_pipeline(scene, params, TrainConfig(ablate="local-only"))
        glo = run_pipeline(scene, params, TrainConfig(ablate="global-only"))
        np.testing.assert_array_equal(
            ad.value(full.repr.h), (ad.value(loc.repr.h) + ad.value(glo.repr.h)) / 2.0
        )


class TestReconstruct:
    def test_zero_head_is_bicubic_baseline(self):
        scene = synth_scene(0, size=32)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, seed=0)  # zero recon by default
        out = forward(scene, params, cfg)
        base = upsample_bicubic(scene.lrms, scene.scale)
        np.testing.assert_array_equal(out.fused.data, base.data)

    def test_single_patch_hand_case(self):
        rng = np.random.default_rng(24)
        d = 2
        grid = extract_patches(Image.constant(4, 4, 1, 0.0), 4, 4)
        H = rng.normal(size=(5, d))
        recon = [rng.normal(size=(16, 2 * d)) * 0.01 for _ in range(BANDS)]
        lrms_up = Image.constant(4, 4, BANDS, 0.5)
        out = ad.value(reconstruct(H, grid, recon, lrms_up))
        for b in range(BANDS):
            z = np.concatenate([H[0], H[1 + b]])
            want = np.clip((recon[b] @ z).reshape(4, 4) + 0.5, 0.0, 1.0)
            np.testing.assert_allclose(out[:, :, b], want, rtol=1e-6, atol=1e-9)

    def test_output_clamped(self):
        rng = np.random.default_rng(25)
        grid = extract_patches(Image.constant(4, 4, 1, 0.0), 4, 4)
        H = rng.normal(size=(5, 3)) * 100.0
        recon = [rng.normal(size=(16, 6)) for _ in range(BANDS)]
        lrms_up = Image.constant(4, 4, BANDS, 0.5)
        out = ad.value(reconstruct(H, grid, recon, lrms_up))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestPipeline:
    def test_smoke_and_determinism(self):
        scene = synth_scene(0, size=32)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, seed=1, zero_recon=False)
        a = forward(scene, params, cfg)
        b = forward(scene, params, cfg)
        assert a.fused.data.shape == (32, 32, BANDS)
        assert np.all(np.isfinite(a.fused.data))
        np.testing.assert_array_equal(a.fused.data, b.fused.data)

    def test_fusion_invariant_all_modes(self):
        scene = synth_scene(1, size=32)
        for mode in ("full", "local-only", "global-only"):
            cfg = TrainConfig(ablate=mode)
            params = ModelParams.init(cfg, seed=2, zero_recon=False)
            out = run_pipeline(scene, params, cfg)
            h = ad.value(out.repr.h)
            hl = ad.value(out.repr.h_local)
            hg = ad.value(out.repr.h_global)
            np.testing.assert_allclose(h, (hl + hg) / 2.0, rtol=1e-7, atol=1e-10)

    def test_ablation_slots(self):
        scene = synth_scene(1, size=32)
        cfg_l = TrainConfig(ablate="local-only")
        params = ModelParams.init(cfg_l, seed=3, zero_recon=False)
        out_l = run_pipeline(scene, params, cfg_l)
        assert ad.value(out_l.repr.h) is ad.value(out_l.repr.h_local)
        cfg_g = TrainConfig(ablate="global-only")
        out_g = run_pipeline(scene, params, cfg_g)
        assert ad.value(out_g.repr.h) is ad.value(out_g.repr.h_global)

    def test_branches_differ_from_full(self):
        scene = synth_scene(2, size=32)
        params = ModelParams.init(TrainConfig(), seed=4, zero_recon=False)
        full = run_pipeline(scene, params, TrainConfig())
        loc = run_pipeline(scene, params, TrainConfig(ablate="local-only"))
        glo = run_pipeline(scene, params, TrainConfig(ablate="global-only"))
        np.testing.assert_allclose(
            ad.value(full.repr.h),
            (ad.value(loc.repr.h) + ad.value(glo.repr.h)) / 2.0,
            rtol=1e-6,
            atol=1e-9,
        )

    def test_pinned_structure_reused(self):
        scene = synth_scene(0, size=32)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        out1 = run_pipeline(scene, params, cfg)
        out2 = run_pipeline(scene, params, cfg, structure=out1.graph.structure)
        assert out2.graph.structure is out1.graph.structure
        np.testing.assert_array_equal(ad.value(out1.fused), ad.value(out2.fused))


class TestModelParams:
    def test_init_shapes(self):
        cfg = TrainConfig(d=16, patch=4, layers=3)
        p = ModelParams.init(cfg, seed=0)
        assert p.w_pan.shape == (16, 16)
        assert len(p.w_band) == BANDS and p.w_band[0].shape == (16, 16)
        assert p.alpha.shape == (7,) and p.beta.shape == (7,)
        np.testing.assert_allclose(p.alpha, 1.0 / 3.0)
        np.testing.assert_allclose(p.beta, 1.0)
        assert len(p.w_local) == 3 and p.w_local[0].shape == (16, 16)
        assert len(p.w_global) == 3
        assert len(p.recon) == BANDS and p.recon[0].shape == (16, 32)
        np.testing.assert_array_equal(p.recon[0], 0.0)
        w, b, q = p.importance
        assert w.shape == (32, 16) and b.shape == (32,) and q.shape == (32, 1)
        assert np.any(w != 0.0)
        np.testing.assert_array_equal(b, 0.0)
        np.testing.assert_array_equal(q, 0.0)

    def test_layout_follows_fields(self):
        cfg = TrainConfig(d=8, patch=4, layers=3)
        layout = param_layout(cfg)
        assert list(layout) == [f.name for f in fields(ModelParams)]
        shapes = [
            shape
            for spec in layout.values()
            for shape, _ in (spec if isinstance(spec, list) else [spec])
        ]
        p = ModelParams.init(cfg, seed=0)
        assert [a.shape for _, a in p.named_arrays()] == shapes

    def test_importance_drawn_last(self):
        # the importance group is drawn after every other group, so the
        # other initial values are what the same seed gave before it existed
        cfg = TrainConfig(d=8, patch=4, layers=2)
        for zero_recon in (True, False):
            p = ModelParams.init(cfg, seed=9, zero_recon=zero_recon)
            rng = np.random.default_rng(9)

            def glorot(a):
                bound = np.sqrt(6.0 / sum(a.shape))
                return rng.uniform(-bound, bound, size=a.shape).astype(np.float32)

            for a in [p.w_pan, *p.w_band, *p.w_local, *p.w_global]:
                np.testing.assert_array_equal(a, glorot(a))
            if not zero_recon:
                for r in p.recon:
                    want = rng.uniform(-0.02, 0.02, size=r.shape).astype(np.float32)
                    np.testing.assert_array_equal(r, want)
            np.testing.assert_array_equal(p.importance[0], glorot(p.importance[0]))

    def test_named_arrays_order_and_groups(self):
        cfg = TrainConfig(d=8, patch=4, layers=2)
        p = ModelParams.init(cfg, seed=0)
        names = [n for n, _ in p.named_arrays()]
        assert names == [
            "w_pan", "w_band_0", "w_band_1", "w_band_2", "w_band_3",
            "alpha", "beta", "w_local_0", "w_local_1",
            "w_global_0", "w_global_1",
            "recon_0", "recon_1", "recon_2", "recon_3",
            "importance_0", "importance_1", "importance_2",
        ]
        assert ModelParams.group_of("w_band_2") == "w_band"
        assert ModelParams.group_of("alpha") == "alpha"
        assert ModelParams.group_of("recon_0") == "recon"

    def test_copy_is_deep(self):
        p = ModelParams.init(TrainConfig(d=8, patch=4), seed=0)
        q = p.copy()
        q.w_pan[0, 0] += 1.0
        assert p.w_pan[0, 0] != q.w_pan[0, 0]

    def test_to_tensors_shares_values(self):
        p = ModelParams.init(TrainConfig(d=8, patch=4), seed=0, zero_recon=False)
        tp, tensors = p.to_tensors()
        assert isinstance(tp.w_pan, ad.Tensor)
        np.testing.assert_array_equal(tensors["w_pan"].data, p.w_pan)
        assert set(tensors) == {n for n, _ in p.named_arrays()}

    def test_astype(self):
        p = ModelParams.init(TrainConfig(d=8, patch=4), seed=0)
        q = p.astype(np.float64)
        assert q.w_pan.dtype == np.float64
        assert q.recon[0].dtype == np.float64

    def test_init_deterministic_from_seed(self):
        cfg = TrainConfig(d=8, patch=4)
        a = ModelParams.init(cfg, seed=5)
        b = ModelParams.init(cfg, seed=5)
        np.testing.assert_array_equal(a.w_pan, b.w_pan)
        c = ModelParams.init(cfg, seed=6)
        assert not np.array_equal(a.w_pan, c.w_pan)
