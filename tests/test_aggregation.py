"""Linear aggregation branches, fusion, and reconstruction.

Both aggregation paths are validated against dense matrix oracles
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
    dense,
    forward,
    fuse,
    global_similarity,
    reconstruct,
    run_pipeline,
    weigh_branches,
)
from graphpan.config import TrainConfig, param_layout
from graphpan.graph import random_multiplex_graph
from graphpan.imaging import BANDS, extract_patches, synth_scene, upsample_bicubic
from graphpan.patterns import RelationPattern, generate_patterns

from oracles import constant_image, masks, pattern_set, to_dense


# ---------------------------------------------------------------------------
# dense oracles


def local_oracle(ps, U, alpha, w):
    n = ps.n_nodes
    M = np.zeros((n, n))
    for p in ps:
        M += alpha[p.mask - 1] * to_dense(p, n)
    sym = (M + M.T) / 2.0 + np.eye(n)
    deg = sym.sum(axis=1)
    dinv = np.where(deg > 1e-12, 1.0 / np.sqrt(np.where(deg > 1e-12, deg, 1.0)), 0.0)
    ahat = dinv[:, None] * sym * dinv[None, :]
    return ahat @ U @ w


def global_oracle(ps, U, beta, w):
    n = ps.n_nodes
    B = np.zeros((n, len(ps)))
    for m, p in enumerate(ps):
        B[:, m] = beta[p.mask - 1] * to_dense(p, n).sum(axis=1)
    S = B @ B.T
    r = np.abs(S).sum(axis=1)
    A = np.where(r[:, None] > 0, S / np.where(r[:, None] > 0, r[:, None], 1.0), 0.0)
    return A @ U @ w


def self_loop_pattern(n, mask=1):
    idx = np.arange(n)
    return pattern_set(n, [RelationPattern(mask, idx, idx, np.ones(n))])


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
        h = aggregate_local(ps, U, alpha, np.eye(d))
        np.testing.assert_allclose(ad.value(h), U, atol=1e-12)

    def test_alpha_zero_reduces_to_mlp_chain(self):
        n, d = 6, 4
        rng = np.random.default_rng(1)
        U = rng.normal(size=(n, d))
        ps = random_patternset(n, seed=2)
        w = rng.normal(size=(d, d))
        h = aggregate_local(ps, U, np.zeros(7), w)
        np.testing.assert_allclose(ad.value(h), U @ w, rtol=1e-10, atol=1e-12)

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            n, d = 10, 4
            ps = random_patternset(n, seed=seed)
            U = rng.normal(size=(n, d))
            alpha = rng.uniform(0.0, 1.0, size=7)
            w = rng.normal(size=(d, d))
            got = ad.value(aggregate_local(ps, U, alpha, w))
            want = local_oracle(ps, U, alpha, w)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_shared_entries_need_no_merging(self):
        # (2, 1) sits in two patterns, (1, 2) is its reverse, (3, 3) is on
        # the diagonal, and node 4 has no entries at all
        n, d = 5, 3
        ps = pattern_set(n, [
            RelationPattern(1, np.array([1, 2, 3]), np.array([2, 1, 3]), np.array([0.4, 0.7, 0.9])),
            RelationPattern(4, np.array([0, 2]), np.array([3, 1]), np.array([0.2, 0.5])),
        ])
        rng = np.random.default_rng(10)
        U = rng.normal(size=(n, d))
        alpha = rng.uniform(0.5, 1.5, size=7)
        w = rng.normal(size=(d, d))
        got = ad.value(aggregate_local(ps, U, alpha, w))
        np.testing.assert_allclose(got, local_oracle(ps, U, alpha, w), rtol=1e-12, atol=1e-14)

    def test_repeated_entries_match_the_merged_table(self):
        # the sparse products keep a repeated (row, col) as two entries, and
        # add them one at a time: within round-off of the table that holds
        # their sum, in value and in U's gradient
        n, d = 6, 3
        rows, cols = np.array([0, 1, 1, 1, 2, 4, 4]), np.array([3, 2, 2, 5, 0, 1, 1])
        vals = np.array([0.3, 0.25, 0.5, 0.9, 0.4, 0.6, 0.15])
        ps = pattern_set(n, [RelationPattern(1, rows, cols, vals),
                             RelationPattern(2, np.array([1, 4]), np.array([2, 1]), np.array([0.7, 0.2]))])
        merged = pattern_set(n, [RelationPattern(
            1, np.array([0, 1, 1, 2, 4]), np.array([3, 2, 5, 0, 1]),
            np.array([0.3, 0.25 + 0.5 + 0.7, 0.9, 0.4, 0.6 + 0.15 + 0.2]))])
        rng = np.random.default_rng(11)
        U, g = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        w = rng.normal(size=(d, d))
        outs = []
        for table in (ps, merged):
            ut = ad.Tensor(U.copy())
            h = aggregate_local(table, ut, np.ones(7), w)
            ad.sum(h * g).backward()
            outs.append((h.data, ut.grad))
        (h, gu), (h_m, gu_m) = outs
        np.testing.assert_allclose(h, h_m, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(gu, gu_m, rtol=1e-13, atol=1e-15)

    def test_map_follows_the_propagation(self):
        # the branch is (A-hat U) W: its value with W is its value with the
        # identity map, times W
        rng = np.random.default_rng(4)
        n, d = 8, 3
        ps = random_patternset(n, seed=5)
        U = rng.normal(size=(n, d))
        alpha = rng.uniform(0.2, 0.8, size=7)
        w = rng.normal(size=(d, d))
        propagated = ad.value(aggregate_local(ps, U, alpha, np.eye(d)))
        h = ad.value(aggregate_local(ps, U, alpha, w))
        np.testing.assert_allclose(h, propagated @ w, rtol=1e-9, atol=1e-12)

    def test_linear_in_U(self):
        rng = np.random.default_rng(6)
        n, d = 9, 4
        ps = random_patternset(n, seed=7)
        U = rng.normal(size=(n, d))
        alpha = rng.uniform(0.0, 1.0, size=7)
        w = rng.normal(size=(d, d))
        h1 = ad.value(aggregate_local(ps, U, alpha, w))
        h2 = ad.value(aggregate_local(ps, 2.0 * U, alpha, w))
        np.testing.assert_allclose(h2, 2.0 * h1, rtol=1e-6)

    def test_normalised_operator_symmetric_spectral_radius(self):
        # recover A-hat densely by propagating the identity with identity W
        n = 12
        ps = random_patternset(n, seed=8)
        alpha = np.random.default_rng(9).uniform(0.0, 1.0, size=7)
        ahat = ad.value(aggregate_local(ps, np.eye(n), alpha, np.eye(n)))
        np.testing.assert_allclose(ahat, ahat.T, atol=1e-12)
        eig = np.max(np.abs(np.linalg.eigvalsh(ahat)))
        assert eig <= 1.01

    def test_empty_patternset_rejected(self):
        with pytest.raises(ValueError):
            aggregate_local(pattern_set(3, []), np.zeros((3, 2)), np.ones(7), np.eye(2))


class TestGlobalPatternMatrix:
    def test_binary_count_example(self):
        # node 1 receives edges from nodes 0 and 2 in a single pattern
        ps = pattern_set(
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
            want = beta[p.mask - 1] * to_dense(p, 10).sum(axis=1)
            np.testing.assert_allclose(B[:, m], want, rtol=1e-9, atol=1e-12)

    def test_columns_in_ascending_mask_order(self):
        ps = random_patternset(10, seed=13)
        assert masks(ps) == sorted(masks(ps))


class TestOneOpPerTable:
    def test_tape_does_not_grow_with_live_patterns(self):
        """Both branches read the whole pattern table at once, so they tape
        as many nodes for one live pattern as for seven."""
        n, d = 8, 3
        U = np.random.default_rng(14).normal(size=(n, d))
        local_nodes, global_nodes = set(), set()
        for live in ([2], [1, 2, 4], list(range(1, 8))):
            ps = pattern_set(n, [
                RelationPattern(m, np.array([0, m]), np.array([m, 0]), np.array([0.3, 0.6]))
                for m in live
            ])
            ps.vals = ad.Tensor(ps.vals)
            h = aggregate_local(ps, ad.Tensor(U), ad.Tensor(np.ones(7)), np.eye(d))
            B = build_global_pattern_matrix(ps, ad.Tensor(np.ones(7)))
            assert ad.value(B).shape == (n, len(live))
            local_nodes.add(len(ad._topo_order(h)))
            global_nodes.add(len(ad._topo_order(B)))
        assert len(local_nodes) == 1 and len(global_nodes) == 1


def densify(op):
    """The (n, n) matrix a factored global operator stands for."""
    return ad.value(dense(op))


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
        cfg = TrainConfig()
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
            w = ad.Tensor(params.w_global.copy())
            B = build_global_pattern_matrix(ps, beta) * keep
            h = dense(aggregate_global(similarity(B), U, w))
            ad.sum(h * probe).backward()
            return [h.data, beta.grad, U.grad, w.grad]

        got = run(global_similarity)
        want = run(dense_global_similarity)
        assert np.all(got[0][keep[:, 0] == 0.0] == 0.0)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max()


class TestAggregateGlobal:
    def test_identity_passthrough(self):
        U = np.random.default_rng(16).normal(size=(5, 3))
        h = aggregate_global(np.eye(5), U, np.eye(3))
        np.testing.assert_allclose(ad.value(h), U, atol=1e-12)

    def test_uniform_operator_gives_identical_rows(self):
        rng = np.random.default_rng(17)
        U = rng.normal(size=(6, 3))
        A = np.full((6, 6), 1.0 / 6.0)
        h = ad.value(aggregate_global(A, U, rng.normal(size=(3, 3))))
        np.testing.assert_allclose(h, np.tile(h[0], (6, 1)), atol=1e-12)

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(18)
        n, d = 7, 3
        ps = random_patternset(n, seed=19)
        U = rng.normal(size=(n, d))
        beta = rng.uniform(0.1, 1.0, size=7)
        w = rng.normal(size=(d, d))
        B = build_global_pattern_matrix(ps, beta)
        got = ad.value(dense(aggregate_global(global_similarity(B), U, w)))
        want = global_oracle(ps, U, beta, w)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)
        # and it is genuinely not the local branch
        assert not np.allclose(got, local_oracle(ps, U, np.ones(7), w))

    def test_linear_in_U(self):
        rng = np.random.default_rng(20)
        A = rng.normal(size=(5, 5))
        U = rng.normal(size=(5, 2))
        w = rng.normal(size=(2, 2))
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
        layout = param_layout(TrainConfig(d=d))
        w, b, q = (rng.normal(size=layout[f"importance_{x}"][0]) for x in "wbq")
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
        grid = extract_patches(constant_image(4, 4, 1, 0.0), 4, 4)
        H = rng.normal(size=(5, d))
        recon = [rng.normal(size=(16, 2 * d)) * 0.01 for _ in range(BANDS)]
        lrms_up = constant_image(4, 4, BANDS, 0.5)
        out = ad.value(reconstruct(H, grid, recon, lrms_up))
        for b in range(BANDS):
            z = np.concatenate([H[0], H[1 + b]])
            want = np.clip((recon[b] @ z).reshape(4, 4) + 0.5, 0.0, 1.0)
            np.testing.assert_allclose(out[:, :, b], want, rtol=1e-6, atol=1e-9)

    def test_output_clamped(self):
        rng = np.random.default_rng(25)
        grid = extract_patches(constant_image(4, 4, 1, 0.0), 4, 4)
        H = rng.normal(size=(5, 3)) * 100.0
        recon = [rng.normal(size=(16, 6)) for _ in range(BANDS)]
        lrms_up = constant_image(4, 4, BANDS, 0.5)
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
            # an ablated branch is None; the survivor alone is h
            branches = [out.repr.h_local, out.repr.h_global]
            hl, hg = (ad.value(dense(b)) if b is not None else h for b in branches)
            np.testing.assert_allclose(h, (hl + hg) / 2.0, rtol=1e-7, atol=1e-10)

    def test_ablation_slots(self):
        scene = synth_scene(1, size=32)
        cfg_l = TrainConfig(ablate="local-only")
        params = ModelParams.init(cfg_l, seed=3, zero_recon=False)
        out_l = run_pipeline(scene, params, cfg_l)
        assert ad.value(out_l.repr.h) is ad.value(out_l.repr.h_local)
        assert out_l.repr.h_global is None
        cfg_g = TrainConfig(ablate="global-only")
        out_g = run_pipeline(scene, params, cfg_g)
        np.testing.assert_array_equal(ad.value(out_g.repr.h), ad.value(dense(out_g.repr.h_global)))
        assert out_g.repr.h_local is None

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
        cfg = TrainConfig(d=16, patch=4)
        p = ModelParams.init(cfg, seed=0)
        assert p.w_embed.shape == (1 + BANDS, 16, 16)
        assert p.alpha.shape == (7,) and p.beta.shape == (7,)
        np.testing.assert_allclose(p.alpha, 1.0 / 3.0)
        np.testing.assert_allclose(p.beta, 1.0)
        assert p.w_local.shape == (16, 16)
        assert p.w_global.shape == (16, 16)
        assert p.recon.shape == (BANDS, 16, 32)
        np.testing.assert_array_equal(p.recon, 0.0)
        w, b, q = p.importance_w, p.importance_b, p.importance_q
        assert w.shape == (32, 16) and b.shape == (32,) and q.shape == (32, 1)
        assert np.any(w != 0.0)
        np.testing.assert_array_equal(b, 0.0)
        np.testing.assert_array_equal(q, 0.0)

    def test_layout_follows_fields(self):
        cfg = TrainConfig(d=8, patch=4)
        layout = param_layout(cfg)
        assert list(layout) == [f.name for f in fields(ModelParams)]
        p = ModelParams.init(cfg, seed=0)
        assert [(n, a.shape) for n, a in p.named_arrays()] == [
            (n, shape) for n, (shape, _) in layout.items()
        ]
        assert cfg.param_count == sum(a.size for _, a in p.named_arrays())

    def test_importance_drawn_last(self):
        # the importance group is drawn after every other group, so the
        # other initial values are what the same seed gave before it existed
        cfg = TrainConfig(d=8, patch=4)
        for zero_recon in (True, False):
            p = ModelParams.init(cfg, seed=9, zero_recon=zero_recon)
            rng = np.random.default_rng(9)

            def glorot(a):
                bound = np.sqrt(6.0 / sum(a.shape))
                return rng.uniform(-bound, bound, size=a.shape).astype(np.float32)

            for a in [*p.w_embed, p.w_local, p.w_global]:
                np.testing.assert_array_equal(a, glorot(a))
            if not zero_recon:
                for r in p.recon:
                    want = rng.uniform(-0.02, 0.02, size=r.shape).astype(np.float32)
                    np.testing.assert_array_equal(r, want)
            np.testing.assert_array_equal(p.importance_w, glorot(p.importance_w))

    @pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["standard", "high"])
    @pytest.mark.parametrize("zero_recon", [True, False])
    def test_init_matches_per_matrix_draws(self, dt, zero_recon):
        # a stacked group is drawn as its matrices one after another, each
        # with the glorot bound of its own (rows, cols); init holds float32,
        # and a float64 model is those values cast
        cfg = TrainConfig(d=8, patch=4)
        rng = np.random.default_rng(11)
        f32 = np.float32

        def glorot(rows, cols):
            bound = np.sqrt(6.0 / (rows + cols))
            return rng.uniform(-bound, bound, size=(rows, cols)).astype(f32)

        def head():
            if zero_recon:
                return np.zeros((16, 16), dtype=f32)
            return rng.uniform(-0.02, 0.02, size=(16, 16)).astype(f32)

        want = {  # drawn in field order
            "w_embed": np.stack([glorot(8, 16) for _ in range(1 + BANDS)]),  # pan, then each band
            "alpha": np.full(7, 1.0 / 3.0, dtype=f32),
            "beta": np.ones(7, dtype=f32),
            "w_local": glorot(8, 8),
            "w_global": glorot(8, 8),
            "recon": np.stack([head() for _ in range(BANDS)]),
            "importance_w": glorot(16, 8),
            "importance_b": np.zeros(16, dtype=f32),
            "importance_q": np.zeros((16, 1), dtype=f32),
        }
        got = ModelParams.init(cfg, seed=11, zero_recon=zero_recon).astype(dt).named_arrays()
        assert [n for n, _ in got] == list(want)
        for name, a in got:
            assert a.dtype == dt and np.array_equal(a, want[name].astype(dt)), name

    def test_named_arrays_order_and_groups(self):
        cfg = TrainConfig(d=8, patch=4)
        p = ModelParams.init(cfg, seed=0)
        names = [n for n, _ in p.named_arrays()]
        assert names == [
            "w_embed", "alpha", "beta", "w_local", "w_global", "recon",
            "importance_w", "importance_b", "importance_q",
        ]

    def test_copy_is_deep(self):
        p = ModelParams.init(TrainConfig(d=8, patch=4), seed=0)
        q = p.copy()
        q.w_embed[0, 0, 0] += 1.0
        assert p.w_embed[0, 0, 0] != q.w_embed[0, 0, 0]

    def test_to_tensors_shares_values(self):
        p = ModelParams.init(TrainConfig(d=8, patch=4), seed=0, zero_recon=False)
        tp, tensors = p.to_tensors()
        assert isinstance(tp.w_embed, ad.Tensor)
        np.testing.assert_array_equal(tensors["w_embed"].data, p.w_embed)
        assert set(tensors) == {n for n, _ in p.named_arrays()}

    def test_astype(self):
        p = ModelParams.init(TrainConfig(d=8, patch=4), seed=0)
        q = p.astype(np.float64)
        assert q.w_embed.dtype == np.float64
        assert q.recon.dtype == np.float64

    def test_init_deterministic_from_seed(self):
        cfg = TrainConfig(d=8, patch=4)
        a = ModelParams.init(cfg, seed=5)
        b = ModelParams.init(cfg, seed=5)
        np.testing.assert_array_equal(a.w_embed, b.w_embed)
        c = ModelParams.init(cfg, seed=6)
        assert not np.array_equal(a.w_embed, c.w_embed)
