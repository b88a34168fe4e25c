"""Losses, gradients, optimiser, checkpoints, and the training loop.

Contrastive-loss values are pinned to closed forms, gradients to central
finite differences, Adam to its t=1 closed form and long-run fixed point,
and the checkpoint format to a byte-level layout check.
"""

import struct

import numpy as np
import pytest

import graphpan.autodiff as ad
from graphpan.aggregation import ModelParams, run_pipeline
from graphpan.config import TrainConfig
from graphpan.imaging import BANDS, Image, ScenePair, degrade_image
from graphpan.training import (
    CHECKPOINT_MAGIC,
    CONFIG_FIELDS,
    AdamState,
    CheckpointFormatError,
    LossBreakdown,
    TrainingDiverged,
    ablation_table,
    adam_step,
    backward,
    central_difference,
    contrastive_loss,
    finite_diff_grad,
    grad_check,
    kindwise_contrastive_loss,
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
    def test_weighted_mean_of_per_kind_terms(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        want = (
            2 * float(ad.value(contrastive_loss(a[:2], b[:2], 0.5)))
            + 5 * float(ad.value(contrastive_loss(a[2:], b[2:], 0.5)))
        ) / 7
        got = float(ad.value(kindwise_contrastive_loss(a, b, 0.5, 2)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_node_kind_contributes_zero(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        want = 4 * float(ad.value(contrastive_loss(a[1:], b[1:], 0.5))) / 5
        got = float(ad.value(kindwise_contrastive_loss(a, b, 0.5, 1)))
        assert got == pytest.approx(want, rel=1e-12)
        # and the lone anchor gets no gradient
        t = ad.Tensor(a.copy())
        kindwise_contrastive_loss(t, b, 0.5, 1).backward()
        np.testing.assert_array_equal(t.grad[0], 0.0)

    def test_one_patch_scene(self):
        # one pan node and four band nodes: the pan kind has a single node
        scene = toy_scene(0, height=4, width=4)
        cfg = toy_config(gamma=0.01)
        params = ModelParams.init(cfg, seed=1, zero_recon=False).astype(np.float64)
        out = run_pipeline(scene, params, cfg)
        assert out.graph.n_patches == 1
        l1, lcl, total = scene_loss(scene, params, cfg)
        want = 4 * float(ad.value(contrastive_loss(
            ad.value(out.repr.h_local)[1:], ad.value(out.repr.h_global)[1:], cfg.tau
        ))) / 5
        assert lcl == pytest.approx(want, rel=1e-12)
        assert total == pytest.approx(l1 + 0.01 * lcl, abs=1e-15)
        _, grads = backward(scene, params, cfg)
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_kind_constant_global_sits_at_floor(self):
        # when h_global is one vector per kind, every negative of a kind
        # scores like the positive: lcl is the count-weighted mean of
        # log n_kind, whatever h_local is, and h_local gets no gradient
        rng = np.random.default_rng(8)
        n_pan, n_band = 6, 24
        h_local = rng.normal(size=(n_pan + n_band, 5))
        h_global = np.concatenate([
            np.tile(rng.normal(size=5), (n_pan, 1)),
            np.tile(rng.normal(size=5), (n_band, 1)),
        ])
        want = (n_pan * np.log(n_pan) + n_band * np.log(n_band)) / (n_pan + n_band)
        t = ad.Tensor(h_local.copy())
        lcl = kindwise_contrastive_loss(t, h_global, 0.5, n_pan)
        assert float(ad.value(lcl)) == pytest.approx(want, abs=1e-12)
        lcl.backward()
        assert np.max(np.abs(t.grad)) <= 1e-12
        # the whole-graph term has neither property on the same inputs
        t_all = ad.Tensor(h_local.copy())
        contrastive_loss(t_all, h_global, 0.5).backward()
        assert np.max(np.abs(t_all.grad)) > 1e-3

    def test_errors(self):
        a = np.eye(4)
        for n_pan in (0, 4):
            with pytest.raises(ValueError):
                kindwise_contrastive_loss(a, a, 0.5, n_pan)


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


    @pytest.mark.parametrize("precision", ["standard", "high"])
    def test_gradients_keep_parameter_dtype(self, precision):
        scene = toy_scene(0)
        cfg = toy_config(gamma=0.01, precision=precision)
        params = ModelParams.init(cfg, seed=1, zero_recon=False)
        bd, grads = backward(scene, params, cfg)
        assert {g.dtype for g in grads.values()} == {np.dtype(cfg.dtype)}
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
            "w_pan", "w_band", "alpha", "beta", "w_local", "w_global", "recon",
            "importance",
        }
        assert max(worst.values()) <= 1e-4

    def test_grad_check_active_importance(self):
        # at init q = 0 zeroes the W and b gradients; with a random group
        # every importance coordinate carries gradient from both loss terms
        scene = toy_scene(0)
        cfg = toy_config(gamma=0.01)
        params = ModelParams.init(cfg, seed=1, zero_recon=False)
        rng = np.random.default_rng(2)
        params.importance = [rng.normal(size=a.shape) * 0.5 for a in params.importance]
        _, grads = backward(scene, params.astype(np.float64), cfg)
        for i in range(3):
            assert np.any(grads[f"importance_{i}"] != 0.0)
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
        an = float(grads["w_pan"][0, 0])
        errs = {}
        for eps in (1e-3, 1e-4, 1e-7):
            fd = finite_diff_grad(scene, params, cfg, "w_pan", (0, 0), eps, structure)
            errs[eps] = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
        assert errs[1e-3] > errs[1e-4]  # left limb: truncation
        assert errs[1e-7] > errs[1e-4]  # right limb: roundoff
        assert errs[1e-4] <= 1e-6

    def test_structure_freezing_keeps_fd_smooth(self):
        scene = toy_scene(0)
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=3, zero_recon=False).astype(np.float64)
        structure = run_pipeline(scene, params, cfg).graph.structure
        fd = finite_diff_grad(scene, params, cfg, "w_pan", (0, 0), 1e-4, structure)
        assert np.isfinite(fd)

    def test_params_restored_after_fd(self):
        scene = toy_scene(0)
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=4, zero_recon=False).astype(np.float64)
        before = params.w_pan.copy()
        finite_diff_grad(scene, params, cfg, "w_pan", (1, 1), 1e-4)
        np.testing.assert_array_equal(params.w_pan, before)


class TestAdam:
    def _setup(self, d=3):
        cfg = TrainConfig(d=8, patch=4)
        params = ModelParams.init(cfg, seed=0, zero_recon=False)
        state = AdamState.init(params)
        return cfg, params, state

    def test_zero_gradient_no_move(self):
        cfg, params, state = self._setup()
        before = params.w_pan.copy()
        grads = {n: np.zeros_like(a) for n, a in params.named_arrays()}
        adam_step(params, grads, state, lr=1e-2, cfg=cfg)
        np.testing.assert_array_equal(params.w_pan, before)
        assert state.t == 1

    def test_first_step_closed_form(self):
        cfg, params, state = self._setup()
        before = {n: a.copy() for n, a in params.named_arrays()}
        rng = np.random.default_rng(1)
        grads = {n: rng.normal(size=a.shape).astype(a.dtype) for n, a in params.named_arrays()}
        lr = 1e-3
        adam_step(params, grads, state, lr=lr, cfg=cfg)
        for name, arr in params.named_arrays():
            g = grads[name]
            want = before[name] - lr * g / (np.abs(g) + cfg.adam_eps)
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
            adam_step(params, grads, state, lr=1e-3, cfg=cfg)
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


def write_blocks(path, blocks):
    """Write (name, array) blocks in the .hssn layout; returns each block's
    payload offset."""
    blob = CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blocks))
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
        cfg = toy_config(gamma=0.02, tau=0.7)
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        path = tmp_path / "ck.hssn"
        save_checkpoint(path, params, cfg)
        back, bcfg = load_checkpoint(path)
        for (n1, a1), (n2, a2) in zip(params.named_arrays(), back.named_arrays()):
            assert n1 == n2
            np.testing.assert_array_equal(np.asarray(a1, dtype=np.float32), a2)
        assert (bcfg.patch, bcfg.stride, bcfg.d, bcfg.layers, bcfg.k) == (4, 4, 8, 2, 1)
        assert bcfg.tau == pytest.approx(0.7, rel=1e-6)
        assert bcfg.gamma == pytest.approx(0.02, rel=1e-6)

    def test_header_bytes(self, tmp_path):
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=0)
        path = tmp_path / "ck.hssn"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        assert blob[:4] == CHECKPOINT_MAGIC == b"HSSN"
        version, n_blocks = struct.unpack("<II", blob[4:12])
        assert version == 1
        assert n_blocks == len(params.named_arrays()) + 1  # + _config
        nlen = struct.unpack("<I", blob[12:16])[0]
        assert blob[16 : 16 + nlen].decode() == "w_pan"

    def test_round_trip_importance_group(self, tmp_path):
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=5, zero_recon=False).astype(np.float32)
        rng = np.random.default_rng(0)
        params.importance = [rng.normal(size=a.shape).astype(np.float32) for a in params.importance]
        path = tmp_path / "ck.hssn"
        save_checkpoint(path, params, cfg)
        back, _ = load_checkpoint(path)
        for want, got in zip(params.importance, back.importance):
            np.testing.assert_array_equal(got, want)
        scene = toy_scene(0)
        np.testing.assert_array_equal(
            ad.value(run_pipeline(scene, back, cfg).fused),
            ad.value(run_pipeline(scene, params, cfg).fused),
        )

    def test_checkpoint_without_importance_loads_neutral(self, tmp_path):
        # a file written before the group existed: the same blocks minus
        # importance_*, laid out as in test_header_bytes
        cfg = toy_config(gamma=0.02, tau=0.7)
        params = ModelParams.init(cfg, seed=5, zero_recon=False).astype(np.float32)
        meta = np.array([4, 4, 8, 2, 1, 0.7, 0.02], dtype="<f4")
        blocks = [(n, a) for n, a in params.named_arrays() if not n.startswith("importance")]
        blocks.append(("_config", meta))
        path = tmp_path / "old.hssn"
        write_blocks(path, blocks)
        back, bcfg = load_checkpoint(path)
        w, b, q = back.importance
        assert w.shape == (16, 8) and b.shape == (16,) and q.shape == (16, 1)
        for a in back.importance:
            np.testing.assert_array_equal(a, 0.0)
        for name, arr in blocks[:-1]:
            np.testing.assert_array_equal(dict(back.named_arrays())[name], arr)
        # the neutral group reproduces the plain-mean fusion exactly
        scene = toy_scene(0)
        full = run_pipeline(scene, back, bcfg)
        loc = run_pipeline(scene, back, bcfg.replace(ablate="local-only"))
        glo = run_pipeline(scene, back, bcfg.replace(ablate="global-only"))
        np.testing.assert_array_equal(
            ad.value(full.repr.h), (ad.value(loc.repr.h) + ad.value(glo.repr.h)) / 2.0
        )

    @pytest.mark.parametrize("mode", ["full", "local-only", "global-only"])
    def test_round_trip_keeps_ablation_mode(self, tmp_path, mode):
        cfg = TrainConfig(patch=4, stride=4, d=8, layers=1, k=1, ablate=mode)
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        path = tmp_path / "ck.hssn"
        save_checkpoint(path, params, cfg)
        back, bcfg = load_checkpoint(path)
        assert bcfg.ablate == mode
        scene = toy_scene(0)
        np.testing.assert_array_equal(
            ad.value(run_pipeline(scene, back, bcfg).fused),
            ad.value(run_pipeline(scene, params, cfg).fused),
        )

    def test_seven_entry_config_loads_as_full(self, tmp_path):
        # the _config block as written before ablate was stored
        cfg = toy_config(gamma=0.02, tau=0.7)
        params = ModelParams.init(cfg, seed=5, zero_recon=False)
        blocks = params.named_arrays() + [("_config", [4, 4, 8, 2, 1, 0.7, 0.02])]
        write_blocks(tmp_path / "old.hssn", blocks)
        back, bcfg = load_checkpoint(tmp_path / "old.hssn")
        assert bcfg.ablate == "full"
        assert (bcfg.patch, bcfg.stride, bcfg.d, bcfg.layers, bcfg.k) == (4, 4, 8, 2, 1)
        for (n1, a1), (n2, a2) in zip(params.named_arrays(), back.named_arrays()):
            assert n1 == n2
            np.testing.assert_array_equal(np.asarray(a1, dtype=np.float32), a2)

    @pytest.mark.parametrize("field,value,message", [
        ("tau", 0.0, "tau must be positive"),
        ("layers", 0.0, "must be positive"),
        ("stride", 8.0, "stride <= patch"),
        ("gamma", float("nan"), "gamma is nan"),
        ("k", 1.5, "not an integer"),
        ("ablate", 3.0, "unknown ablation mode"),
    ])
    def test_invalid_config_rejected_with_offset(self, tmp_path, field, value, message):
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=0)
        meta = [4, 4, 8, 2, 1, 0.5, 0.01, 0]
        meta[CONFIG_FIELDS.index(field)] = value
        path = tmp_path / "c.hssn"
        offsets = write_blocks(path, params.named_arrays() + [("_config", meta)])
        with pytest.raises(CheckpointFormatError, match=message) as err:
            load_checkpoint(path)
        assert err.value.offset == offsets["_config"]

    @pytest.mark.parametrize("name,shape", [("w_pan", (8, 17)), ("alpha", (8,)), ("w_local_0", (8, 4))])
    def test_block_dims_must_match_exactly(self, tmp_path, name, shape):
        # a larger block used to be cut silently; any mismatch now raises
        cfg = toy_config()
        params = ModelParams.init(cfg, seed=0)
        blocks = [
            (n, np.zeros(shape) if n == name else a) for n, a in params.named_arrays()
        ] + [("_config", [4, 4, 8, 2, 1, 0.5, 0.01, 0])]
        path = tmp_path / "b.hssn"
        offsets = write_blocks(path, blocks)
        with pytest.raises(CheckpointFormatError, match=f"block '{name}' of dims") as err:
            load_checkpoint(path)
        assert err.value.offset == offsets[name]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.hssn"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_missing_config_rejected(self, tmp_path):
        p = tmp_path / "m.hssn"
        name = b"w_pan"
        block = struct.pack("<I", len(name)) + name + struct.pack("<III", 1, 1, 1) + b"\x00" * 4
        p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, 1) + block)
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

    def test_missing_block_rejected_with_offset(self, tmp_path):
        meta = np.array([4, 4, 8, 2, 1, 0.5, 0.01], dtype="<f4")
        name = b"_config"
        blob = CHECKPOINT_MAGIC + struct.pack("<II", 1, 1)
        blob += struct.pack("<I", len(name)) + name + struct.pack("<III", 7, 1, 1) + meta.tobytes()
        path = tmp_path / "m.hssn"
        path.write_bytes(blob)
        with pytest.raises(CheckpointFormatError, match="missing block 'w_pan'") as err:
            load_checkpoint(path)
        assert err.value.offset == len(blob)

    def test_undersized_block_rejected(self, tmp_path):
        meta = np.array([4, 4, 8, 2, 1, 0.5, 0.01], dtype="<f4")
        name = b"_config"
        blob = CHECKPOINT_MAGIC + struct.pack("<II", 1, 1)
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
            assert lb.total == pytest.approx(lb.l1 + 0.01 * lb.lcl, abs=1e-12)
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

    def test_lr_follows_schedule(self):
        scene = toy_scene(0)
        cfg = toy_config(iters=10, decay_every=4, decay=0.5)
        _, logs = train([scene], cfg)
        want = [1e-4 * 0.5 ** (it // 4) for it in range(10)]
        got = [lb.lr for lb in logs]
        np.testing.assert_allclose(got, want, rtol=1e-12)

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
        assert lines[0] == "iter,l1,lcl,total,lr"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[4]) == pytest.approx(1e-4)

    def test_periodic_checkpoints(self, tmp_path):
        scene = toy_scene(0)
        cfg = toy_config(iters=4, decay_every=3000)
        # patch the cadence indirectly: 4 iterations write no periodic files
        train([scene], cfg, out_dir=tmp_path)
        assert not list(tmp_path.glob("checkpoint_0*.hssn"))

    def test_divergence_aborts_with_checkpoint(self, tmp_path):
        scene = toy_scene(0)
        cfg = TrainConfig(
            patch=4, stride=4, d=8, layers=2, k=1,
            precision="standard", lr0=1e20, iters=50, seed=0,
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
        assert cfg.precision == "high"
        assert cfg.gamma == 0.5 and cfg.iters == 7


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
        logs = [LossBreakdown(l1=0.5, lcl=1.0, total=0.51, lr=1e-4)]
        path = tmp_path / "log.csv"
        write_log_csv(path, logs)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,l1,lcl,total,lr"
        assert lines[1] == "0,0.50000000,1.00000000,0.51000000,1.00000000e-04"
