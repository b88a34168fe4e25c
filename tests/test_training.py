"""Losses, gradients, optimiser, checkpoints, and the training loop.

Contrastive-loss values are pinned to closed forms, gradients to central
finite differences, Adam to its t=1 closed form and long-run fixed point,
and the checkpoint format to a byte-level layout check.
"""

import ctypes
import dataclasses
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import graphpan.autodiff as ad
from graphpan import aggregation, graph, imaging, training
from graphpan.aggregation import LowRank, ModelParams, forward, run_pipeline
from graphpan.config import MAX_PARAMS, TrainConfig
from graphpan.graph import N_RELATIONS
from graphpan.imaging import BANDS, Image, ScenePair, degrade_image, synth_scene
from graphpan.training import (
    ADAM_EPS,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CONFIG_FIELDS,
    AdamState,
    CheckpointFormatError,
    LossBreakdown,
    TrainingDiverged,
    ablation_table,
    adam_step,
    backward,
    blockwise_contrastive_loss,
    central_difference,
    contrastive_loss,
    finite_diff_grad,
    grad_check,
    l1_loss,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    scene_loss,
    toy_config,
    toy_scene,
    train,
    write_log_csv,
)

from oracles import largest_valid_d, tape_buffers


class TestL1Loss:
    def test_identical_zero(self):
        x = np.random.default_rng(0).random((4, 4, 2))
        assert float(ad.value(l1_loss(x, x))) == 0.0

    def test_constant_offset(self):
        a = np.zeros((3, 3, 1))
        b = np.full((3, 3, 1), 0.5)
        assert float(ad.value(l1_loss(a, b))) == pytest.approx(0.5)

    def test_random_pair_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((5, 6, 4)), rng.random((5, 6, 4))
        want = np.mean(np.abs(a - b))
        assert float(ad.value(l1_loss(a, b))) == pytest.approx(want, rel=1e-12)


class TestContrastiveLoss:
    def test_orthogonal_rows_closed_form(self):
        # identical local/global matrices with mutually orthogonal unit rows:
        # per-node term = -log(e^{1/tau} / (e^{1/tau} + (n-1)))
        for n, tau in [(3, 0.5), (4, 0.5), (3, 1.0), (6, 0.25)]:
            h = np.eye(n)
            got = float(ad.value(contrastive_loss(h, h, tau)))
            want = -np.log(np.exp(1.0 / tau) / (np.exp(1.0 / tau) + (n - 1)))
            assert got == pytest.approx(want, abs=1e-9)

    def test_spec_anchor_n3_tau_half(self):
        got = float(ad.value(contrastive_loss(np.eye(3), np.eye(3), 0.5)))
        assert got == pytest.approx(0.2395, abs=5e-5)

    def test_identical_rows_log_n(self):
        for n in (2, 5, 9):
            h = np.tile([0.3, -0.7, 0.2], (n, 1))
            got = float(ad.value(contrastive_loss(h, h, 0.5)))
            assert got == pytest.approx(np.log(n), abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a, b = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
            assert float(ad.value(contrastive_loss(a, b, 0.5))) >= 0.0

    def test_scale_invariance_of_rows(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        v1 = float(ad.value(contrastive_loss(a, b, 0.5)))
        v2 = float(ad.value(contrastive_loss(a * 7.0, b * 0.01, 0.5)))
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_large_magnitudes_stable(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 3))
        v = float(ad.value(contrastive_loss(a, a, 1e-3)))  # huge logits
        assert np.isfinite(v)

    def test_zero_norm_row_safe(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        v = float(ad.value(contrastive_loss(a, a, 0.5)))
        assert np.isfinite(v) and v >= 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.eye(3), np.eye(3), 0.0)
        with pytest.raises(ValueError):
            contrastive_loss(np.ones((1, 2)), np.ones((1, 2)), 0.5)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        a0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        t = ad.Tensor(a0.copy())
        contrastive_loss(t, b0, 0.5).backward()
        eps = 1e-6
        for idx in [(0, 0), (2, 1), (3, 2)]:
            ap, am = a0.copy(), a0.copy()
            ap[idx] += eps
            am[idx] -= eps
            fd = (
                float(ad.value(contrastive_loss(ap, b0, 0.5)))
                - float(ad.value(contrastive_loss(am, b0, 0.5)))
            ) / (2 * eps)
            assert t.grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestKindwiseContrastive:
    """blockwise_contrastive_loss: each of the 1 + BANDS node blocks (pan,
    then one per band) is one kind, HeCo's node type."""

    def test_weighted_mean_of_per_kind_terms(self):
        rng = np.random.default_rng(6)
        n_patches = 3
        n = (1 + BANDS) * n_patches
        a, b = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        want = sum(
            n_patches * float(ad.value(contrastive_loss(a[rows], b[rows], 0.5)))
            for rows in (slice(s, s + n_patches) for s in range(0, n, n_patches))
        ) / n
        got = float(ad.value(blockwise_contrastive_loss(a, b, 0.5, n_patches)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_node_kind_contributes_zero(self):
        # a one-node block has only its positive pair: with one patch every
        # block is one node, so the term is exactly 0 and nothing is taped
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(1 + BANDS, 3)), rng.normal(size=(1 + BANDS, 3))
        t = ad.Tensor(a.copy())
        lcl = blockwise_contrastive_loss(t, b, 0.5, 1)
        assert not isinstance(lcl, ad.Tensor)
        assert float(lcl) == 0.0

    def test_one_patch_scene(self):
        # one pan node and one node per band: every block has a single node,
        # so lcl is exactly 0 and the gradients are those of l1 alone
        scene = toy_scene(0, height=4, width=4)
        cfg = toy_config(gamma=0.01)
        params = ModelParams.init(cfg, seed=1, zero_recon=False).astype(np.float64)
        out = run_pipeline(scene, params, cfg)
        assert out.graph.n_patches == 1
        l1, lcl, total = scene_loss(scene, params, cfg)
        assert lcl == 0.0
        assert total == l1
        _, grads = backward(scene, params, cfg)
        _, l1_grads = backward(scene, params, cfg.replace(gamma=0.0))
        for name, g in grads.items():
            np.testing.assert_array_equal(g, l1_grads[name])

    def test_kind_constant_global_sits_at_floor(self):
        # when h_global is one vector per block, every negative of a block
        # scores like the positive: lcl is ln n_patches, whatever h_local
        # is, and h_local gets no gradient
        rng = np.random.default_rng(8)
        n_patches = 6
        h_local = rng.normal(size=((1 + BANDS) * n_patches, 5))
        h_global = np.repeat(rng.normal(size=(1 + BANDS, 5)), n_patches, axis=0)
        t = ad.Tensor(h_local.copy())
        lcl = blockwise_contrastive_loss(t, h_global, 0.5, n_patches)
        assert float(ad.value(lcl)) == pytest.approx(np.log(n_patches), abs=1e-12)
        lcl.backward()
        assert np.max(np.abs(t.grad)) <= 1e-12
        # neither the whole-graph term nor one term over all band nodes has
        # either property on the same inputs
        for rows in (slice(None), slice(n_patches, None)):
            t_all = ad.Tensor(h_local[rows].copy())
            contrastive_loss(t_all, h_global[rows], 0.5).backward()
            assert np.max(np.abs(t_all.grad)) > 1e-3

    def test_factored_global_matches_dense(self):
        # h_global as the pair ((1 - t) left, K) against its product, float64:
        # left has a zero row, and one row has 1 - t exactly 0
        rng = np.random.default_rng(9)
        n_patches, m, d = 6, 3, 5
        n = (1 + BANDS) * n_patches
        h_local0 = rng.normal(size=(n, d))
        left0 = np.abs(rng.normal(size=(n, m)))
        left0[4] = 0.0
        s0 = rng.uniform(0.5, 1.5, size=(n, 1))  # 1 - t
        s0[9] = 0.0
        k0 = rng.normal(size=(m, d))

        def run(factored):
            leaves = [ad.Tensor(x.copy()) for x in (h_local0, left0, k0, s0)]
            h_local, left, k, s = leaves
            h_global = LowRank(s * left, k) if factored else (s * left) @ k
            lcl = blockwise_contrastive_loss(h_local, h_global, 0.5, n_patches)
            lcl.backward()
            return float(ad.value(lcl)), [t.grad for t in leaves]

        (got, got_grads), (want, want_grads) = run(True), run(False)
        assert got == pytest.approx(want, rel=1e-12)
        for g, w in zip(got_grads[:3], want_grads[:3]):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
        # the zero rows pass no gradient, and the row scale none at all
        # beyond rounding: the rows are compared by direction only
        assert np.all(got_grads[1][[4, 9]] == 0.0)
        scale = np.abs(want_grads[1]).max()
        assert np.abs(got_grads[3]).max() <= 1e-12 * scale
        assert np.abs(want_grads[3]).max() <= 1e-12 * scale

    def test_errors(self):
        for n, n_patches in [(0, 0), (5, 0), (4, 1), (15, 4), (21, 4), (25, 4)]:
            a = np.ones((n, 3))
            with pytest.raises(ValueError):
                blockwise_contrastive_loss(a, a, 0.5, n_patches)

    def test_backward_contrasts_each_block(self, monkeypatch):
        # one training.backward pass on the 64 px scene runs one InfoNCE
        # node over all blocks: (1 + BANDS) blocks of the N = 225 rows, the
        # global side as its factors at the width of the 3 live patterns
        scene = synth_scene(seed=0, size=64)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, zero_recon=False)
        shapes = []
        real_info_nce = ad.info_nce

        def record(a, b, tau, right=None):
            shapes.append((ad.value(a).shape, ad.value(b).shape, ad.value(right).shape))
            return real_info_nce(a, b, tau, right)

        monkeypatch.setattr(ad, "info_nce", record)
        backward(scene, params, cfg)
        assert shapes == [((1 + BANDS, 225, cfg.d), (1 + BANDS, 225, 3), (3, cfg.d))]


class TestLossComposition:
    def test_total_is_l1_plus_gamma_lcl(self):
        scene = toy_scene(0)
        cfg = toy_config(gamma=0.01)
        params = ModelParams.init(cfg, seed=1, zero_recon=False).astype(np.float64)
        l1, lcl, total = scene_loss(scene, params, cfg)
        assert total == pytest.approx(l1 + 0.01 * lcl, abs=1e-15)

    def test_gamma_zero_total_is_l1_but_lcl_logged(self):
        scene = toy_scene(0)
        cfg = toy_config(gamma=0.0)
        params = ModelParams.init(cfg, seed=1, zero_recon=False).astype(np.float64)
        l1, lcl, total = scene_loss(scene, params, cfg)
        assert total == l1
        assert lcl > 0.0  # still measured for logging

    def test_ablation_forces_lcl_zero(self):
        scene = toy_scene(0)
        for mode in ("local-only", "global-only"):
            cfg = toy_config(ablate=mode)
            params = ModelParams.init(cfg, seed=1, zero_recon=False).astype(np.float64)
            l1, lcl, total = scene_loss(scene, params, cfg)
            assert lcl == 0.0 and total == l1

    def test_gradient_linear_in_gamma(self):
        scene = toy_scene(0)
        params = ModelParams.init(toy_config(), seed=2, zero_recon=False).astype(np.float64)
        g0 = backward(scene, params, toy_config(gamma=0.0))[1]
        g1 = backward(scene, params, toy_config(gamma=0.01))[1]
        g2 = backward(scene, params, toy_config(gamma=0.02))[1]
        for name in g0:
            lhs = g2[name] - g0[name]
            rhs = 2.0 * (g1[name] - g0[name])
            np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-12)


    @pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["standard", "high"])
    def test_gradients_keep_parameter_dtype(self, dt):
        scene = toy_scene(0)
        cfg = toy_config(gamma=0.01)
        params = ModelParams.init(cfg, seed=1, zero_recon=False).astype(dt)
        bd, grads = backward(scene, params, cfg)
        assert {g.dtype for g in grads.values()} == {np.dtype(dt)}
        assert bd.total == pytest.approx(scene_loss(scene, params, cfg)[2], rel=1e-5)


class TestFiniteDifferences:
    def test_quadratic_probe_exact(self):
        for x0 in (-1.3, 0.0, 2.5):
            got = central_difference(lambda x: 3.0 * x * x + 2.0 * x - 1.0, x0, 1e-4)
            assert got == pytest.approx(6.0 * x0 + 2.0, abs=1e-8)

    def test_grad_check_toy_sampled(self):
        scene = toy_scene(0)
        cfg = toy_config(gamma=0.01)
        params = ModelParams.init(cfg, seed=1, zero_recon=False)
        worst = grad_check(scene, params, cfg, max_coords=3, seed=0)
        assert set(worst) == {
            "w_embed", "alpha", "beta", "w_local", "w_global", "recon",
            "importance_w", "importance_b", "importance_q",
        }
        assert max(worst.values()) <= 1e-4

    def test_grad_check_keeps_nan_error(self):
        # a NaN finite difference must fail the check, not drop out of the max
        scene = toy_scene(0)
        cfg = toy_config(gamma=0.01)
        params = ModelParams.init(cfg, seed=1, zero_recon=False)
        worst = grad_check(scene, params, cfg, eps=float("nan"), max_coords=1, seed=0)
        assert all(np.isnan(err) for err in worst.values())

    def test_grad_check_active_importance(self):
        # at init q = 0 zeroes the W and b gradients; with a random group
        # every importance coordinate carries gradient from both loss terms
        scene = toy_scene(0)
        cfg = toy_config(gamma=0.01)
        params = ModelParams.init(cfg, seed=1, zero_recon=False)
        rng = np.random.default_rng(2)
        set_random_importance(params, rng, 0.5)
        _, grads = backward(scene, params.astype(np.float64), cfg)
        for name in IMPORTANCE:
            assert np.any(grads[name] != 0.0)
        worst = grad_check(scene, params, cfg, max_coords=6, seed=1)
        assert max(worst.values()) <= 1e-4, worst

    def test_eps_sweep_v_shape(self):
        # truncation error dominates at large eps, roundoff at tiny eps;
        # checked on a curvature-carrying coordinate (recon is linear in its
        # own coordinates, so its truncation term vanishes)
        scene = toy_scene(0)
        cfg = toy_config(gamma=0.01)
        params = ModelParams.init(cfg, seed=1, zero_recon=False).astype(np.float64)
        structure = run_pipeline(scene, params, cfg).graph.structure
        _, grads = backward(scene, params, cfg)
        an = float(grads["w_embed"][0, 0, 0])
        errs = {}
        for eps in (1e-3, 1e-4, 1e-7):
            fd = finite_diff_grad(scene, params, cfg, "w_embed", (0, 0, 0), eps, structure)
            errs[eps] = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
        assert errs[1e-3] > errs[1e-4]  # left limb: truncation
        assert errs[1e-7] > errs[1e-4]  # right limb: roundoff
        assert errs[1e-4] <= 1e-6

    def test_structure_freezing_keeps_fd_smooth(self):
        scene = toy_scene(0)
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=3, zero_recon=False).astype(np.float64)
        structure = run_pipeline(scene, params, cfg).graph.structure
        fd = finite_diff_grad(scene, params, cfg, "w_embed", (0, 0, 0), 1e-4, structure)
        assert np.isfinite(fd)

    def test_params_restored_after_fd(self):
        scene = toy_scene(0)
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=4, zero_recon=False).astype(np.float64)
        before = params.w_embed.copy()
        finite_diff_grad(scene, params, cfg, "w_embed", (0, 1, 1), 1e-4)
        np.testing.assert_array_equal(params.w_embed, before)


def backward_root(scene, params, cfg, monkeypatch):
    """The root of one training.backward pass's tape, after its backward."""
    roots = []
    real_backward = ad.Tensor.backward

    def record(self):
        roots.append(self)
        real_backward(self)

    with monkeypatch.context() as m:
        m.setattr(ad.Tensor, "backward", record)
        backward(scene, params, cfg)
    (root,) = roots
    return root


def buffers_at_backward_start(scene, params, cfg, monkeypatch):
    """:func:`oracles.tape_buffers` of one training.backward pass's loss,
    taken as its walk starts."""
    held = []
    real_backward = ad.Tensor.backward

    def audit(self):
        held.extend(tape_buffers(self))
        real_backward(self)

    with monkeypatch.context() as m:
        m.setattr(ad.Tensor, "backward", audit)
        backward(scene, params, cfg)
    return held


def record_shapes(monkeypatch):
    """A list that gets the shape of every tensor built from now on, the
    way the bench counts tape nodes: a tensor is a parameter or the output
    of an op on the tape, so these are the taped arrays' shapes."""
    shapes = []
    real_init = ad.Tensor.__init__

    def init(t, data, parents=(), vjp=None):
        real_init(t, data, parents, vjp)
        shapes.append(t.data.shape)

    monkeypatch.setattr(ad.Tensor, "__init__", init)
    return shapes


def edge_gathers(scene, params, cfg, monkeypatch):
    """(taped take indices that are an edge endpoint vector, shapes of every
    tensor built) of one training.backward pass.

    An endpoint vector is a relation's src or dst, a pattern's rows or cols,
    or the concatenation of one of these over the relations or the patterns
    in pipeline order; a take by one of them gathers one row per edge."""
    out = run_pipeline(scene, params, cfg)
    rel, ps = out.graph.structure.edges, out.patterns
    ends = [*(v for pair in rel for v in pair), *(v for p in ps for v in (p.rows, p.cols))]
    ends += [np.concatenate(vs) for vs in ([s for s, _ in rel], [d for _, d in rel],
                                           [p.rows for p in ps], [p.cols for p in ps])]

    takes = []
    real_take = ad.take

    def take(a, idx):
        if isinstance(a, ad.Tensor):
            takes.append(idx)
        return real_take(a, idx)

    with monkeypatch.context() as m:
        m.setattr(ad, "take", take)
        shapes = record_shapes(m)
        backward(scene, params, cfg)
    flagged = [
        idx for idx in takes
        if isinstance(idx, np.ndarray) and any(np.array_equal(idx, e) for e in ends)
    ]
    return flagged, shapes


class TestTape:
    def test_no_edge_sized_matrix_on_the_tape(self, monkeypatch):
        # the edge weights and the local branch keep (E,) vectors only: no
        # taped take of one training.backward pass gathers a row per edge
        scene = synth_scene(seed=0, size=64)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, zero_recon=False)
        flagged, shapes = edge_gathers(scene, params, cfg, monkeypatch)
        n_band_edges = 8 * BANDS * 225
        assert (n_band_edges,) in shapes  # the edge weights are taped
        assert flagged == []

    def test_edge_gather_is_flagged(self, monkeypatch):
        # negative control: edge weights taken from two (E, d) endpoint
        # gathers are caught by the same check
        def gathered(unit, src, dst):
            return ad.clip(ad.sum(unit[dst] * unit[src], axis=1), 0.0, 1.0)

        scene = synth_scene(seed=0, size=64)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, zero_recon=False)
        monkeypatch.setattr(graph, "edge_weights", gathered)
        flagged, _ = edge_gathers(scene, params, cfg, monkeypatch)
        assert len(flagged) == 2 * N_RELATIONS

    def test_node_blocks_read_by_one_gather(self, monkeypatch):
        # reconstruct reads the pan and band rows of H with one gather (a
        # constant 0/1 operator with one entry per row), not one slice per
        # block that leaves a full-size zero gradient
        scene = synth_scene(seed=0, size=64)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, zero_recon=False)
        reads = []
        real_take, real_apply = ad.take, ad.sparse_apply

        def record_take(a, idx):
            reads.append((ad.value(a).size, "take", idx))
            return real_take(a, idx)

        def record_apply(m, x):
            reads.append((ad.value(x).size, "sparse_apply", m))
            return real_apply(m, x)

        monkeypatch.setattr(ad, "take", record_take)
        monkeypatch.setattr(ad, "sparse_apply", record_apply)
        backward(scene, params, cfg)
        node_reads = [(op, m) for size, op, m in reads if size == 1125 * cfg.d]
        assert [op for op, _ in node_reads] == ["sparse_apply"]
        (_, m), = node_reads
        assert m.shape == (2 * BANDS * 225, 1125)
        np.testing.assert_array_equal(m.getnnz(axis=1), 1)
        np.testing.assert_array_equal(m.data, 1.0)

    def test_no_hidden_layer_sized_array_on_the_tape(self, monkeypatch):
        # the importance scorer keeps its (5N, 1) scores on the tape, not the
        # (5N, 2d) hidden layer of either branch
        scene = synth_scene(seed=0, size=64)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, zero_recon=False)
        shapes = record_shapes(monkeypatch)
        backward(scene, params, cfg)
        assert (1125, 1) in shapes
        assert (1125, 2 * cfg.d) not in shapes

    def test_backward_leaves_gradients_on_parameters_only(self, monkeypatch):
        scene = synth_scene(seed=0, size=64)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, zero_recon=False)
        order = ad._topo_order(backward_root(scene, params, cfg, monkeypatch))
        leaves = [node for node in order if not node.parents]
        interior = [node for node in order if node.parents]
        assert len(leaves) == len(params.named_arrays())
        assert all(node.grad is not None for node in leaves)
        assert all(node.grad is None and node.vjp is None for node in interior)

    def test_one_node_per_unit_rows_call(self, monkeypatch):
        # each taped unit_rows call is one tape node, and graph.py builds no
        # divide or sqrt node of a row normalisation of its own
        assert graph.unit_rows is ad.unit_rows
        scene = synth_scene(seed=0, size=64)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, zero_recon=False)
        taped = []
        real_unit_rows, real_init = ad.unit_rows, ad.Tensor.__init__

        def counted(x, right=None):
            out = real_unit_rows(x, right)
            if isinstance(out, ad.Tensor):
                taped.append(out)
            return out

        built = []  # (op, file of the nearest caller outside autodiff)

        def init(t, data, parents=(), vjp=None):
            real_init(t, data, parents, vjp)
            frame = sys._getframe(1)
            while frame.f_code.co_filename == ad.__file__:
                frame = frame.f_back
            op = vjp.__qualname__.split(".")[0] if vjp is not None else "leaf"
            built.append((op, os.path.basename(frame.f_code.co_filename)))

        monkeypatch.setattr(ad, "unit_rows", counted)
        monkeypatch.setattr(graph, "unit_rows", counted)
        monkeypatch.setattr(ad.Tensor, "__init__", init)
        backward(scene, params, cfg)
        # U in build_graph, then h_local and the global pair in the contrast
        assert len(taped) == 3
        assert [op for op, _ in built].count("unit_rows") == 3
        assert not [op for op, where in built if where == "graph.py" and op in ("divide", "sqrt")]
        # the whole tape of one step: 9 parameter leaves and 81 nodes, where
        # the three normalisations as op chains made 117 tensors.  Two
        # stacked layers per branch made 98: four takes of a layer from its
        # stack, each branch's second matmul, and the local branch's sum and
        # divide of its depth average
        assert len(built) == 90

    @pytest.mark.parametrize("mode", ["full", "local-only", "global-only"])
    def test_every_sparse_matrix_of_a_step_comes_sorted(self, monkeypatch, mode):
        # each sparse matrix a step builds, reconstruct's constant operators
        # included, receives its entries in (row, col) or (col, row) order,
        # so none of them is sorted
        aggregation._recon_operators.cache_clear()
        scene = synth_scene(seed=0, size=64)
        cfg = TrainConfig(ablate=mode)
        params = ModelParams.init(cfg, zero_recon=False)
        orders = []
        real = ad.sparse_matrix

        def record(n, m, rows, cols, vals):
            rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
            by_row, by_col = rows * m + cols, cols * n + rows
            orders.append(
                "row" if np.all(by_row[1:] >= by_row[:-1])
                else "col" if np.all(by_col[1:] >= by_col[:-1]) else "neither"
            )
            return real(n, m, rows, cols, vals)

        monkeypatch.setattr(ad, "sparse_matrix", record)
        backward(scene, params, cfg)
        # aggregate_local's A and A^T when the local branch runs, then
        # reconstruct's G and P and the edge-weight backward of the three
        # relations
        assert len(orders) == (5 if mode == "global-only" else 7)
        assert "neither" not in orders
        if mode != "global-only":
            assert orders[:2] == ["row", "col"]

    def test_backward_peak_memory_bounded(self):
        # one 64 px step peaks at about 6 MiB: the tape keeps only what the
        # VJPs read, the backward frees each interior gradient once it is
        # passed on, and the scorer recomputes its hidden layer; keeping
        # every interior value to the end of the walk peaks at about 11 MiB
        import tracemalloc

        scene = synth_scene(seed=0, size=64)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, zero_recon=False)
        tracemalloc.start()
        try:
            backward(scene, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_backward_peak_memory_at_128px(self):
        # one default 128 px step, traced from a cold start of reconstruct's
        # operators as in a fresh process, peaks at 18.4 MiB.  It peaked at
        # 21.6 MiB while the patch grids and the fused h lived through the
        # whole step, the pattern table and the relation edges were int64
        # and knn_select kept its column maxima through its scan
        import tracemalloc

        aggregation._recon_operators.cache_clear()
        scene = synth_scene(seed=0, size=128)
        cfg = TrainConfig()
        params = ModelParams.init(cfg)
        tracemalloc.start()
        try:
            backward(scene, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_tape_audit_counts_each_buffer_once(self):
        # two views of one array count as the array, and a sparse matrix as
        # its three arrays
        base = np.arange(12.0).reshape(3, 4)
        m = sparse.csr_matrix(np.eye(3))
        x = ad.Tensor(np.ones((4, 3)))
        loss = ad.sum(ad.sparse_apply(m, base[:, :] @ x) * base[:, 1:])
        want = base.nbytes + m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert sum(b.nbytes for b in tape_buffers(loss)) == want

    def test_tape_holds_int32_indices(self, monkeypatch):
        # a default 128 px step's VJPs hold 15.4 MiB as its walk starts.
        # They held 17.0 MiB when the pattern table, the relation edges and
        # the indices derived from them were int64 and each sparse product
        # kept an int32 copy of its minor index
        scene = synth_scene(seed=0, size=128)
        cfg = TrainConfig()
        params = ModelParams.init(cfg)
        held = buffers_at_backward_start(scene, params, cfg, monkeypatch)
        assert sum(b.nbytes for b in held) <= 16.3 * 2**20
        out = run_pipeline(scene, params, cfg)
        edges = [len(src) for src, _ in out.graph.structure.edges]
        per_entry = {len(out.patterns.rows), sum(edges), *edges}
        assert not [b.shape for b in held if b.dtype == np.int64 and b.size in per_entry]


class TestStepConstants:
    """What depends only on the scene or the grid geometry is built once:
    the upsampled input per scene object, reconstruct's operators per grid
    geometry and dtype, and no step converts a COO matrix."""

    @staticmethod
    def count_calls(monkeypatch):
        """Counters of imaging.upsample_bicubic calls and of COO matrices
        built (each COO -> CSR conversion starts from one)."""
        calls = {"upsample": 0, "coo": 0}
        real_up, real_coo = imaging.upsample_bicubic, sparse.coo_matrix.__init__

        def up(*args, **kwargs):
            calls["upsample"] += 1
            return real_up(*args, **kwargs)

        def coo(self, *args, **kwargs):
            calls["coo"] += 1
            real_coo(self, *args, **kwargs)

        monkeypatch.setattr(imaging, "upsample_bicubic", up)
        monkeypatch.setattr(sparse.coo_matrix, "__init__", coo)
        return calls

    def test_second_backward_rebuilds_nothing(self, monkeypatch):
        scene = synth_scene(seed=0, size=64)
        cfg = TrainConfig()
        params = ModelParams.init(cfg, zero_recon=False)
        calls = self.count_calls(monkeypatch)
        first, grads1 = backward(scene, params, cfg)
        assert calls["upsample"] == 1
        calls.update(upsample=0, coo=0)
        second, grads2 = backward(scene, params, cfg)
        assert calls == {"upsample": 0, "coo": 0}
        assert (second.l1, second.lcl, second.total) == (first.l1, first.lcl, first.total)
        for name, g in grads1.items():
            assert grads2[name].tobytes() == g.tobytes(), name

    def test_scenes_of_one_size_share_the_overlap_add(self, monkeypatch):
        cfg = TrainConfig()
        params = ModelParams.init(cfg, zero_recon=False)
        applied = []
        real_apply = ad.sparse_apply

        def record(m, x):
            applied.append(m)
            return real_apply(m, x)

        monkeypatch.setattr(ad, "sparse_apply", record)
        for seed in (0, 1):
            backward(synth_scene(seed=seed, size=64), params, cfg)
        (g0, p0), (g1, p1) = applied[:2], applied[2:]
        assert p0.shape == (64 * 64, 225 * cfg.patch**2)
        assert g1 is g0 and p1 is p0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_coverage_counts_are_the_overlap_add_row_lengths(self, dtype):
        # reconstruct divides by counts built once per geometry and dtype;
        # a side of 66 px leaves its last two rows and columns uncovered
        _, P, counts = aggregation._recon_operators(66, 66, 8, 4, dtype)
        assert counts.dtype == dtype and counts.shape == (66 * 66, 1)
        np.testing.assert_array_equal(counts[:, 0], np.maximum(P.getnnz(axis=1), 1))
        assert counts.min() == 1 and not counts.flags.writeable
        assert aggregation._recon_operators(66, 66, 8, 4, dtype)[2] is counts

    def test_reassigned_lrms_is_upsampled_again(self, monkeypatch):
        scene = synth_scene(seed=0, size=32)
        halved = Image(scene.lrms.data * 0.5)
        want = imaging.upsample_bicubic(halved, scene.scale).data
        calls = self.count_calls(monkeypatch)
        up = scene.lrms_up
        assert scene.lrms_up is up and calls["upsample"] == 1
        scene.lrms = halved
        np.testing.assert_array_equal(scene.lrms_up.data, want)
        assert calls["upsample"] == 2
        scene.scale = 1
        np.testing.assert_array_equal(scene.lrms_up.data, halved.data)
        assert calls["upsample"] == 3


class TestAdam:
    def _setup(self, d=3):
        cfg = TrainConfig(d=8, patch=4)
        params = ModelParams.init(cfg, seed=0, zero_recon=False)
        state = AdamState.init(params)
        return cfg, params, state

    def test_zero_gradient_no_move(self):
        cfg, params, state = self._setup()
        before = params.w_embed.copy()
        grads = {n: np.zeros_like(a) for n, a in params.named_arrays()}
        adam_step(params, grads, state, lr=1e-2)
        np.testing.assert_array_equal(params.w_embed, before)
        assert state.t == 1

    def test_first_step_closed_form(self):
        cfg, params, state = self._setup()
        before = {n: a.copy() for n, a in params.named_arrays()}
        rng = np.random.default_rng(1)
        grads = {n: rng.normal(size=a.shape).astype(a.dtype) for n, a in params.named_arrays()}
        lr = 1e-3
        adam_step(params, grads, state, lr=lr)
        for name, arr in params.named_arrays():
            g = grads[name]
            want = before[name] - lr * g / (np.abs(g) + ADAM_EPS)
            np.testing.assert_allclose(arr, want, rtol=1e-5, atol=1e-7)

    def test_constant_gradient_displacement(self):
        # with a constant gradient the update tends to -lr * sign(g)
        cfg, params, state = self._setup()
        g = np.full_like(params.alpha, 0.37)
        grads = {n: np.zeros_like(a) for n, a in params.named_arrays()}
        grads["alpha"] = g
        start = params.alpha.copy()
        steps = 1000
        for _ in range(steps):
            adam_step(params, grads, state, lr=1e-3)
        displacement = start - params.alpha
        np.testing.assert_allclose(displacement, steps * 1e-3, rtol=0.02)

    def test_state_shapes(self):
        cfg, params, state = self._setup()
        for name, arr in params.named_arrays():
            assert state.m[name].shape == arr.shape
            assert state.v[name].shape == arr.shape


class TestLrSchedule:
    def test_anchor_values(self):
        cfg = TrainConfig()
        assert lr_schedule(cfg, 0) == pytest.approx(1e-4)
        assert lr_schedule(cfg, 2999) == pytest.approx(1e-4)
        assert lr_schedule(cfg, 3000) == pytest.approx(8.5e-5)
        assert lr_schedule(cfg, 29999) == pytest.approx(1e-4 * 0.85**9)

    def test_non_increasing(self):
        cfg = TrainConfig()
        vals = [lr_schedule(cfg, it) for it in range(0, 31000, 377)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


IMPORTANCE = ("importance_w", "importance_b", "importance_q")


def set_random_importance(params, rng, scale=1.0):
    """Draw the importance group's W, b and q, in that order, from a
    standard normal (float64) times ``scale``."""
    for name in IMPORTANCE:
        setattr(params, name, rng.normal(size=getattr(params, name).shape) * scale)


# toy_config()'s _config block, in CONFIG_FIELDS order
TOY_META = [4, 4, 8, 1, 0]


def write_blocks(path, blocks, version=CHECKPOINT_VERSION):
    """Write (name, array) blocks in the .hssn layout; returns each block's
    payload offset."""
    blob = CHECKPOINT_MAGIC + struct.pack("<II", version, len(blocks))
    offsets = {}
    for name, arr in blocks:
        arr = np.asarray(arr, dtype="<f4")
        dims = list(arr.shape) + [1] * (3 - arr.ndim)
        blob += struct.pack("<I", len(name)) + name.encode() + struct.pack("<III", *dims)
        offsets[name] = len(blob)
        blob += arr.tobytes()
    path.write_bytes(blob)
    return offsets


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cfg = toy_config(gamma=0.02)
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        path = tmp_path / "ck.hssn"
        save_checkpoint(path, params, cfg)
        back, bcfg = load_checkpoint(path)
        for (n1, a1), (n2, a2) in zip(params.named_arrays(), back.named_arrays()):
            assert n1 == n2
            np.testing.assert_array_equal(np.asarray(a1, dtype=np.float32), a2)
        assert (bcfg.patch, bcfg.stride, bcfg.d, bcfg.k) == (4, 4, 8, 1)
        # the loss weight is not stored: a loaded model runs without it
        assert bcfg.gamma == TrainConfig.gamma

    def test_header_bytes(self, tmp_path):
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=0)
        path = tmp_path / "ck.hssn"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        assert blob[:4] == CHECKPOINT_MAGIC == b"HSSN"
        version, n_blocks = struct.unpack("<II", blob[4:12])
        assert version == CHECKPOINT_VERSION == 3
        assert n_blocks == len(params.named_arrays()) + 1  # + _config
        nlen = struct.unpack("<I", blob[12:16])[0]
        assert blob[16 : 16 + nlen].decode() == "w_embed"

    def test_round_trip_importance_group(self, tmp_path):
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        set_random_importance(params, np.random.default_rng(0))
        params = params.astype(np.float32)
        path = tmp_path / "ck.hssn"
        save_checkpoint(path, params, cfg)
        back, _ = load_checkpoint(path)
        for name in IMPORTANCE:
            np.testing.assert_array_equal(getattr(back, name), getattr(params, name))
        scene = toy_scene(0)
        np.testing.assert_array_equal(
            ad.value(run_pipeline(scene, back, cfg).fused),
            ad.value(run_pipeline(scene, params, cfg).fused),
        )

    def test_checkpoint_without_importance_is_refused(self, tmp_path):
        # a file written before the group existed: the same blocks minus
        # importance_*, laid out as in test_header_bytes
        cfg = toy_config(gamma=0.02)
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        blocks = [(n, a) for n, a in params.named_arrays() if not n.startswith("importance")]
        blocks.append(("_config", TOY_META))
        path = tmp_path / "old.hssn"
        write_blocks(path, blocks)
        with pytest.raises(CheckpointFormatError, match="checkpoint missing block 'importance_w'") as err:
            load_checkpoint(path)
        assert err.value.offset == path.stat().st_size

    def test_per_element_layout_is_refused(self, tmp_path):
        # a file from before each group became one array: w_pan, one block
        # per band, layer and head, and importance_0..2 for W, b and q
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        blocks = []
        for name, a in params.named_arrays():
            if name == "w_embed":
                blocks += [("w_pan", a[0])] + [(f"w_band_{i}", m) for i, m in enumerate(a[1:])]
            elif name in ("w_local", "w_global"):
                blocks.append((f"{name}_0", a))
            elif name == "recon":
                blocks += [(f"{name}_{i}", m) for i, m in enumerate(a)]
            elif name in IMPORTANCE:
                blocks.append((f"importance_{IMPORTANCE.index(name)}", a))
            else:
                blocks.append((name, a))
        blocks.append(("_config", TOY_META))
        path = tmp_path / "per_element.hssn"
        offsets = write_blocks(path, blocks)
        with pytest.raises(CheckpointFormatError, match="unknown checkpoint block 'w_pan'") as err:
            load_checkpoint(path)
        assert err.value.offset == offsets["w_pan"]

    def test_two_group_embedding_layout_is_refused(self, tmp_path):
        # a file from before the node kinds shared one embedding stack: the
        # pan matrix as w_pan and the band stack as w_band, never read as
        # the slots of w_embed
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        blocks = []
        for name, a in params.named_arrays():
            if name == "w_embed":
                blocks += [("w_pan", a[0]), ("w_band", a[1:])]
            else:
                blocks.append((name, a))
        blocks.append(("_config", TOY_META))
        path = tmp_path / "two_group.hssn"
        offsets = write_blocks(path, blocks)
        with pytest.raises(CheckpointFormatError, match="unknown checkpoint block 'w_pan'") as err:
            load_checkpoint(path)
        assert err.value.offset == offsets["w_pan"]

    @pytest.mark.parametrize("edit,message,at", [
        # one flipped byte in a name: importance_b and _q are still there
        pytest.param("rename", "unknown checkpoint block 'importance_v'", "importance_v", id="rename"),
        pytest.param("drop", "checkpoint missing block 'importance_w'", None, id="drop"),
        # a second w_embed used to replace the first one silently
        pytest.param("duplicate", "duplicate checkpoint block 'w_embed'", "w_embed", id="duplicate"),
        pytest.param("extra", "unknown checkpoint block 'bias'", "bias", id="extra"),
    ])
    def test_each_block_used_exactly_once(self, tmp_path, edit, message, at):
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        set_random_importance(params, np.random.default_rng(0))
        blocks = params.named_arrays()
        if edit == "rename":
            blocks = [("importance_v" if n == "importance_w" else n, a) for n, a in blocks]
        elif edit == "drop":
            blocks = [(n, a) for n, a in blocks if n != "importance_w"]
        elif edit == "duplicate":
            blocks.append(("w_embed", np.zeros_like(params.w_embed)))
        else:
            blocks.append(("bias", np.ones(3)))
        blocks.append(("_config", TOY_META))
        path = tmp_path / "x.hssn"
        offsets = write_blocks(path, blocks)  # a repeated name maps to its later block
        with pytest.raises(CheckpointFormatError, match=message) as err:
            load_checkpoint(path)
        assert err.value.offset == (offsets[at] if at else path.stat().st_size)

    @pytest.mark.parametrize("change", [
        dict(ablate="local-only"), dict(ablate="global-only"), dict(d=16), dict(k=2),
        dict(patch=2, stride=1), dict(gamma=0.0), dict(lr0=1e-3), dict(batch=2), dict(seed=3),
    ], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
    def test_trained_model_reloads_as_itself(self, tmp_path, change):
        # toy_config() with one field changed (patch and stride together)
        cfg = toy_config(iters=2, **change)
        scenes = [toy_scene(s, height=8, width=8) for s in (0, 1)]
        params, _ = train(scenes, cfg, out_dir=tmp_path)
        back, bcfg = load_checkpoint(tmp_path / "checkpoint_final.hssn")
        for (n1, a1), (n2, a2) in zip(params.named_arrays(), back.named_arrays()):
            assert n1 == n2 and a1.dtype == a2.dtype and a1.tobytes() == a2.tobytes(), n1
        assert forward(scenes[0], back, bcfg).fused.data.tobytes() == \
            forward(scenes[0], params, cfg).fused.data.tobytes()

    @pytest.mark.parametrize("mode", ["full", "local-only", "global-only"])
    def test_round_trip_keeps_ablation_mode(self, tmp_path, mode):
        # gamma = 0.01, the default, has no float32 value: the loaded config
        # equals the saved one only because no loss weight is stored
        cfg = TrainConfig(patch=4, stride=4, d=8, k=1, ablate=mode)
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        path = tmp_path / "ck.hssn"
        save_checkpoint(path, params, cfg)
        back, bcfg = load_checkpoint(path)
        assert bcfg == cfg
        for (n1, a1), (n2, a2) in zip(params.named_arrays(), back.named_arrays()):
            assert n1 == n2 and a1.dtype == a2.dtype == np.float32
            assert a1.tobytes() == a2.tobytes()
        scene = toy_scene(0)
        np.testing.assert_array_equal(
            ad.value(run_pipeline(scene, back, bcfg).fused),
            ad.value(run_pipeline(scene, params, cfg).fused),
        )

    def test_seven_entry_config_is_refused(self, tmp_path):
        # the _config block as written before ablate was stored: patch,
        # stride, d, layers, k, tau, gamma in a version-1 file.  Version 2
        # also had seven entries, so the header alone keeps it from being
        # read as version 2's patch, stride, d, k, tau, gamma, ablate
        cfg = toy_config(gamma=0.02)
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        blocks = params.named_arrays() + [("_config", [4, 4, 8, 2, 1, 0.7, 0.02])]
        path = tmp_path / "old.hssn"
        write_blocks(path, blocks, version=1)
        with pytest.raises(CheckpointFormatError, match="unsupported checkpoint version 1") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_version_one_file_is_refused(self, tmp_path):
        # a file as version 1 wrote it: one (layers, d, d) stack per branch
        # and layers in _config, here two layers.  Its blocks would parse
        # under today's names, so only the version keeps it from being
        # reinterpreted
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        blocks = [
            (n, np.stack([a, a]) if n in ("w_local", "w_global") else a)
            for n, a in params.named_arrays()
        ] + [("_config", [4, 4, 8, 2, 1, 0.5, 0.01, 0])]
        path = tmp_path / "v1.hssn"
        write_blocks(path, blocks, version=1)
        with pytest.raises(CheckpointFormatError, match="unsupported checkpoint version 1") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_version_two_file_is_refused(self, tmp_path):
        # a file as version 2 wrote it: today's parameter blocks, and tau
        # and gamma between k and ablate in _config.  Read as version 3 it
        # would fail on the _config dims; the version refuses it first
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        path = tmp_path / "v2.hssn"
        write_blocks(path, params.named_arrays() + [("_config", [4, 4, 8, 1, 0.5, 0.01, 0])], version=2)
        with pytest.raises(CheckpointFormatError, match="unsupported checkpoint version 2") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_config_with_layers_is_refused(self, tmp_path):
        # version 1's eight-entry _config under the current version number
        # fails on its dims, not on a misread field
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        path = tmp_path / "len.hssn"
        offsets = write_blocks(path, params.named_arrays() + [("_config", [4, 4, 8, 2, 1, 0.5, 0.01, 0])])
        with pytest.raises(
            CheckpointFormatError,
            match=r"checkpoint block '_config' of dims \(8, 1, 1\) does not match \(5,\)",
        ) as err:
            load_checkpoint(path)
        assert err.value.offset == offsets["_config"]

    @pytest.mark.parametrize("field,value,message", [
        ("ablate", -1.0, "index -1"),
        ("d", 0.0, "d and k must be positive"),
        ("stride", 8.0, "stride <= patch"),
        ("k", float("nan"), "k is nan"),
        ("k", 1.5, "not an integer"),
        ("ablate", 3.0, "unknown ablation mode"),
        ("d", 2.0**40, f"parameters, more than {MAX_PARAMS}"),
        ("d", 2.0**20, f"parameters, more than {MAX_PARAMS}"),
    ])
    def test_invalid_config_rejected_with_offset(self, tmp_path, field, value, message):
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=0)
        meta = list(TOY_META)
        meta[CONFIG_FIELDS.index(field)] = value
        path = tmp_path / "c.hssn"
        offsets = write_blocks(path, params.named_arrays() + [("_config", meta)])
        with pytest.raises(CheckpointFormatError, match=message) as err:
            load_checkpoint(path)
        assert err.value.offset == offsets["_config"]

    @pytest.mark.parametrize("name,shape", [("w_embed", (5, 8, 17)), ("alpha", (8,)), ("w_local", (2, 8, 4))])
    def test_block_dims_must_match_exactly(self, tmp_path, name, shape):
        # a larger block used to be cut silently; any mismatch now raises
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=0)
        blocks = [
            (n, np.zeros(shape) if n == name else a) for n, a in params.named_arrays()
        ] + [("_config", TOY_META)]
        path = tmp_path / "b.hssn"
        offsets = write_blocks(path, blocks)
        with pytest.raises(CheckpointFormatError, match=f"block '{name}' of dims") as err:
            load_checkpoint(path)
        assert err.value.offset == offsets[name]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["w_embed", "recon", "importance_q"])
    def test_non_finite_weight_rejected_with_offset(self, tmp_path, name, value):
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=0, zero_recon=False)
        arr = dict(params.named_arrays())[name]
        flat = arr.reshape(-1)  # a view: writes land in params
        flat[3] = value
        flat[-1] = value  # a later bad sample; the first one is reported
        path = tmp_path / "w.hssn"
        offsets = write_blocks(path, params.named_arrays() + [("_config", TOY_META)])
        with pytest.raises(CheckpointFormatError, match=f"non-finite sample in checkpoint block '{name}'") as err:
            load_checkpoint(path)
        assert err.value.offset == offsets[name] + 4 * 3

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.hssn"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_missing_config_rejected(self, tmp_path):
        p = tmp_path / "m.hssn"
        name = b"w_embed"
        block = struct.pack("<I", len(name)) + name + struct.pack("<III", 1, 1, 1) + b"\x00" * 4
        p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, 1) + block)
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_truncated_block_rejected(self, tmp_path):
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=0)
        path = tmp_path / "t.hssn"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ValueError):
            load_checkpoint(path)


    @pytest.mark.parametrize("cut", [6, 14, 30])
    def test_truncated_file_rejected_with_offset(self, tmp_path, cut):
        # inside the header, a block's name length and a block's dims
        cfg = toy_config()
        path = tmp_path / "t.hssn"
        save_checkpoint(path, ModelParams.init(cfg, seed=0), cfg)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CheckpointFormatError, match="truncated") as err:
            load_checkpoint(path)
        assert isinstance(err.value, ValueError)
        assert err.value.offset == cut
        assert f"byte offset {cut}" in str(err.value)

    def test_non_utf8_block_name_rejected_with_offset(self, tmp_path):
        cfg = toy_config()
        path = tmp_path / "u.hssn"
        save_checkpoint(path, ModelParams.init(cfg, seed=0), cfg)
        blob = bytearray(path.read_bytes())
        blob[16] = 0xFF  # first byte of the first block's name
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="not utf-8") as err:
            load_checkpoint(path)
        assert err.value.offset == 16

    def test_missing_block_rejected_with_offset(self, tmp_path):
        meta = np.array(TOY_META, dtype="<f4")
        name = b"_config"
        blob = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, 1)
        blob += struct.pack("<I", len(name)) + name + struct.pack("<III", len(meta), 1, 1) + meta.tobytes()
        path = tmp_path / "m.hssn"
        path.write_bytes(blob)
        with pytest.raises(CheckpointFormatError, match="missing block 'w_embed'") as err:
            load_checkpoint(path)
        assert err.value.offset == len(blob)

    def test_undersized_block_rejected(self, tmp_path):
        meta = np.array(TOY_META, dtype="<f4")
        name = b"_config"
        blob = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, 1)
        blob += struct.pack("<I", len(name)) + name + struct.pack("<III", 3, 1, 1) + meta[:3].tobytes()
        path = tmp_path / "s.hssn"
        path.write_bytes(blob)
        with pytest.raises(CheckpointFormatError, match="smaller than") as err:
            load_checkpoint(path)
        assert err.value.offset == len(blob) - 12


class TestTrainLoop:
    def test_smoke_50_iters(self):
        scene = toy_scene(0)
        cfg = toy_config(iters=50, gamma=0.01)
        params, logs = train([scene], cfg)
        assert len(logs) == 50
        for lb in logs:
            assert np.isfinite(lb.total)
            # training is float32: the identity holds exactly in float32
            f32 = np.float32
            assert f32(lb.total) == f32(lb.l1) + f32(0.01) * f32(lb.lcl)
            assert lb.lcl >= 0.0 and lb.l1 >= 0.0

    def test_determinism(self):
        scene = toy_scene(0)
        cfg = toy_config(iters=20)
        _, logs1 = train([scene], cfg)
        _, logs2 = train([scene], cfg)
        assert [lb.total for lb in logs1] == [lb.total for lb in logs2]

    def test_loss_decreases_on_overfit(self):
        scene = toy_scene(0)
        cfg = toy_config(iters=120)
        _, logs = train([scene], cfg)
        assert logs[-1].l1 < logs[0].l1

    def test_lr_follows_schedule(self, monkeypatch):
        # the decay is the constant pair training.LR_DECAY, LR_DECAY_EVERY:
        # x0.85 every 3,000 iterations, the floats lr0 * 0.85**steps
        cfg = toy_config()
        assert [lr_schedule(cfg, it) for it in (0, 2999, 3000, 6000, 29999)] == [
            1e-4, 1e-4, 1e-4 * 0.85, 1e-4 * 0.85**2, 1e-4 * 0.85**9,
        ]
        # train reads the schedule at every iteration: shorten its period
        # so that ten iterations cross two steps
        monkeypatch.setattr(training, "LR_DECAY_EVERY", 4)
        _, logs = train([toy_scene(0)], cfg.replace(iters=10))
        assert [lb.lr for lb in logs] == [1e-4 * 0.85 ** (it // 4) for it in range(10)]

    def test_batch_clipped_to_dataset(self):
        scene = toy_scene(0)
        cfg = toy_config(iters=5, batch=8)
        params, logs = train([scene], cfg)
        assert len(logs) == 5

    def test_multi_scene_batching(self):
        scenes = [toy_scene(s) for s in range(3)]
        cfg = toy_config(iters=6, batch=2)
        _, logs = train(scenes, cfg)
        assert len(logs) == 6

    def test_outputs_written(self, tmp_path):
        scene = toy_scene(0)
        cfg = toy_config(iters=8)
        train([scene], cfg, out_dir=tmp_path)
        assert (tmp_path / "checkpoint_final.hssn").exists()
        lines = (tmp_path / "log.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,l1,lcl,total,lr,step_s"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[4]) == pytest.approx(1e-4)
        assert all(float(line.split(",")[5]) > 0.0 for line in lines[1:])

    def test_periodic_checkpoints(self, tmp_path):
        # 4 iterations write no periodic files; lr stays lr0 throughout,
        # since the rate first decays at iteration LR_DECAY_EVERY = 3,000
        scene = toy_scene(0)
        cfg = toy_config(iters=4)
        _, logs = train([scene], cfg, out_dir=tmp_path)
        assert not list(tmp_path.glob("checkpoint_0*.hssn"))
        assert {lb.lr for lb in logs} == {1e-4}

    def test_divergence_aborts_with_checkpoint(self, tmp_path):
        scene = toy_scene(0)
        cfg = TrainConfig(
            patch=4, stride=4, d=8, k=1,
            lr0=1e20, iters=50, seed=0,
        )
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged) as e:
                train([scene], cfg, out_dir=tmp_path)
        ckpt = tmp_path / "checkpoint_diverged.hssn"
        assert e.value.checkpoint_path == ckpt
        assert ckpt.exists()
        back, _ = load_checkpoint(ckpt)
        for _, arr in back.named_arrays():
            assert np.all(np.isfinite(arr))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], toy_config())

    def test_missing_gt_rejected(self):
        scene = toy_scene(0)
        with pytest.raises(ValueError):
            train([ScenePair(scene.pan, scene.lrms, None, scene.scale)], toy_config())

    def test_progress_callback(self):
        seen = []
        train([toy_scene(0)], toy_config(iters=3), progress=lambda it, lb: seen.append(it))
        assert seen == [0, 1, 2]



def _has_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# minor page faults per iteration of four 64 px scenes at batch 4, from the
# third iteration on, printed by a fresh interpreter: earlier frees in this
# process would have set glibc's trim and mmap thresholds already
FAULT_PROBE = """
import resource
from graphpan import imaging, training
from graphpan.config import TrainConfig

scenes = [imaging.synth_scene(s, size=64) for s in range(4)]
faults = []
training.train(scenes, TrainConfig(iters=8, seed=0), progress=lambda it, bd: faults.append(
    resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print((faults[-1] - faults[1]) / (len(faults) - 2))
"""


class TestFreedHeap:
    @pytest.mark.skipif(not _has_glibc(), reason="the heap pad is a glibc setting")
    def test_train_64_keeps_its_pages(self):
        # with glibc's default trim each scene pass faulted its tape's pages
        # in again: 1,500-4,600 faults per iteration; with the pad, 0-60
        src = Path(training.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 100

    @pytest.mark.parametrize("module, name, error", [
        pytest.param(os, "confstr", ValueError, id="no-glibc"),
        pytest.param(ctypes, "CDLL", OSError, id="no-libc"),
    ])
    def test_train_runs_without_the_setting(self, module, name, error, monkeypatch):
        def fail(*args):
            raise error(name)

        want = [lb.total for lb in train([toy_scene(0)], toy_config(iters=6))[1]]
        monkeypatch.setattr(module, name, fail)
        training._keep_freed_heap.cache_clear()
        try:
            assert training._keep_freed_heap() is False
            assert [lb.total for lb in train([toy_scene(0)], toy_config(iters=6))[1]] == want
        finally:
            training._keep_freed_heap.cache_clear()  # the next train sets the pad again


class TestToyFixtures:
    def test_toy_scene_valid(self):
        scene = toy_scene(0)
        scene.validate()
        assert scene.gt.data.shape == (4, 8, BANDS)
        assert scene.gt.data.min() >= 0.2 - 1e-6
        assert scene.gt.data.max() <= 0.8 + 1e-6
        np.testing.assert_allclose(
            scene.pan.data[:, :, 0], scene.gt.data.mean(axis=2), atol=1e-6
        )
        np.testing.assert_array_equal(
            scene.lrms.data, degrade_image(scene.gt, scene.scale).data
        )

    def test_toy_config_overrides(self):
        cfg = toy_config(gamma=0.5, iters=7)
        assert cfg.patch == 4 and cfg.d == 8 and cfg.k == 1
        assert cfg.gamma == 0.5 and cfg.iters == 7


class TestCorruptCheckpoints:
    """Truncated files, flipped bytes and wrong block dims: loading either
    succeeds or raises CheckpointFormatError, nothing else."""

    @staticmethod
    def _valid(path):
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=0, zero_recon=False)
        offsets = write_blocks(path, params.named_arrays() + [("_config", TOY_META)])
        return path.read_bytes(), offsets

    @staticmethod
    def _load_or_format_error(path, blob):
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except CheckpointFormatError as e:
            assert e.offset is not None and 0 <= e.offset <= len(blob)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_truncated(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("cut") / "x.hssn"
        blob, _ = self._valid(path)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        self._load_or_format_error(path, blob[:cut])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_flipped_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("flip") / "x.hssn"
        blob, offsets = self._valid(path)
        blob = bytearray(blob)
        # flips land anywhere, in a block header or in the _config payload
        heads = [at - 12 - len(name) - 4 for name, at in offsets.items()]
        where = st.one_of(
            st.integers(0, len(blob) - 1),
            st.sampled_from(heads).flatmap(lambda h: st.integers(h, h + 20)),
            st.integers(offsets["_config"], len(blob) - 1),
        )
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            blob[data.draw(where)] ^= data.draw(st.integers(min_value=1, max_value=255))
        self._load_or_format_error(path, bytes(blob))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=3, max_size=3))
    def test_wrong_block_dims(self, tmp_path_factory, data, dims):
        path = tmp_path_factory.mktemp("dims") / "x.hssn"
        blob, offsets = self._valid(path)
        at = offsets[data.draw(st.sampled_from(sorted(offsets)))] - 12
        self._load_or_format_error(path, blob[:at] + struct.pack("<III", *dims) + blob[at + 12:])


class TestTrainConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(TrainConfig) if f.type == "float"]
    )
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value}).validate()

    def test_fields(self):
        # no dtype, temperature or decay knob: init is float32, the dtype a
        # checkpoint holds, tau is the constant training.TAU, and the rate
        # decays by training.LR_DECAY every training.LR_DECAY_EVERY
        assert TrainConfig.field_names() == [
            "patch", "stride", "d", "k", "gamma", "lr0", "iters", "batch", "seed", "ablate",
        ]
        assert training.TAU == 0.5
        assert (training.LR_DECAY, training.LR_DECAY_EVERY) == (0.85, 3000)

    def test_model_size_bound(self):
        # param_count grows with d, so the widest valid model is one d below
        # the narrowest refused one
        largest = TrainConfig(d=largest_valid_d())
        assert largest.validate().param_count <= MAX_PARAMS
        with pytest.raises(ValueError, match=f"parameters, more than {MAX_PARAMS}"):
            largest.replace(d=largest.d + 1).validate()


class TestAblationTable:
    def test_rows_and_modes(self):
        scene = toy_scene(0)
        rows = ablation_table([scene], toy_config(), iters=12, tail=4)
        assert [r["mode"] for r in rows] == ["full", "local-only", "global-only"]
        for r in rows:
            assert np.isfinite(r["final_l1"])
            assert np.isfinite(r["final_total"])
        full = rows[0]
        assert full["final_total"] >= full["final_l1"]
        for r in rows[1:]:
            assert r["final_total"] == pytest.approx(r["final_l1"])


class TestLogCsv:
    def test_format(self, tmp_path):
        logs = [LossBreakdown(l1=0.5, lcl=1.0, total=0.51, lr=1e-4, step_s=0.25)]
        path = tmp_path / "log.csv"
        write_log_csv(path, logs)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,l1,lcl,total,lr,step_s"
        assert lines[1] == "0,0.50000000,1.00000000,0.51000000,1.00000000e-04,0.250000"
