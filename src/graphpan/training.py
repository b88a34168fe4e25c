"""Joint reconstruction + alignment training with hand-checked gradients.

The objective is mean absolute reconstruction error plus a temperature-
scaled alignment term that treats the local and global representations of
the same node as a positive pair against all other nodes of the same kind
(pan or band).  Gradients come from the reverse-mode tape in
:mod:`graphpan.autodiff`; an independent central-difference path (with the
graph topology frozen at the baseline) serves as the correctness oracle.
"""

from __future__ import annotations

import csv
import dataclasses
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .aggregation import ModelParams, run_pipeline
from .config import ABLATION_MODES, TrainConfig
from .imaging import BANDS, FormatError, Image, ScenePair, degrade_image

CHECKPOINT_MAGIC = b"HSSN"
CHECKPOINT_VERSION = 1

_REL_FLOOR = 1e-6  # relative-error denominators never drop below this


class TrainingDiverged(RuntimeError):
    def __init__(self, message, checkpoint_path=None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass
class LossBreakdown:
    l1: float
    lcl: float
    total: float
    lr: float


def l1_loss(fused, gt):
    """Mean absolute difference over all pixels and bands."""
    return ad.mean(ad.absolute(fused - gt))


def _unit_rows(x):
    q = ad.sum(x * x, axis=1, keepdims=True)
    keep = (ad.value(q) > 0.0).astype(ad.value(q).dtype)
    norm = ad.sqrt(q * keep + (1.0 - keep))
    return (x / norm) * keep


def contrastive_loss(h_local, h_global, tau: float):
    """Alignment of matching local/global rows against all other rows.

    Cosine similarities over zero-norm-safe unit rows, temperature tau; the
    logits, their row-wise log-sum-exp and the positive pairs form one tape
    node (:func:`autodiff.info_nce`) that works in row blocks, so no (n, n)
    array is held in the forward or the backward pass.  Rows are compared by
    direction only, so scaling a row by a positive factor leaves the value
    unchanged.
    """
    n = ad.value(h_local).shape[0]
    if n < 2:
        raise ValueError("contrastive loss needs at least 2 nodes")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return ad.info_nce(_unit_rows(h_local), _unit_rows(h_global), tau)


def kindwise_contrastive_loss(h_local, h_global, tau: float, n_pan: int):
    """Alignment within each node kind: rows [0, n_pan) are the pan nodes
    and the rest the band nodes.  Each anchor's negatives come only from
    its own kind, as in HeCo's within-type contrast, so nodes of different
    kinds are never pushed apart.

    Returns the anchor-count-weighted mean of :func:`contrastive_loss` over
    the two kinds.  A kind with a single node has only its positive pair,
    whose InfoNCE term is exactly 0.
    """
    n = ad.value(h_local).shape[0]
    if not 0 < n_pan < n:
        raise ValueError("need at least one node of each kind")
    total = 0.0
    for rows in (slice(0, n_pan), slice(n_pan, n)):
        count = rows.stop - rows.start
        if count > 1:
            total = total + contrastive_loss(h_local[rows], h_global[rows], tau) * float(count)
    return total / float(n)


def _losses(out, scene: ScenePair, cfg: TrainConfig):
    """(l1, lcl, total) matching the kind (plain/tensor) of the pipeline.

    lcl is :func:`kindwise_contrastive_loss` of the (importance-scaled)
    branch representations; total = l1 + gamma * lcl.
    """
    gt = scene.gt.data.astype(ad.value(out.fused).dtype)
    l1 = l1_loss(out.fused, gt)
    if cfg.ablate != "full":
        # a single surviving branch has nothing to align against
        return l1, 0.0, l1
    n_pan = out.graph.n_patches
    if cfg.gamma > 0.0:
        lcl = kindwise_contrastive_loss(out.repr.h_local, out.repr.h_global, cfg.tau, n_pan)
        return l1, lcl, l1 + cfg.gamma * lcl
    lcl = float(kindwise_contrastive_loss(
        ad.value(out.repr.h_local), ad.value(out.repr.h_global), cfg.tau, n_pan
    ))
    return l1, lcl, l1


def scene_loss(scene, params: ModelParams, cfg: TrainConfig, structure=None):
    """Plain-valued losses; ``structure`` pins the graph topology."""
    out = run_pipeline(scene, params, cfg, structure=structure)
    l1, lcl, total = _losses(out, scene, cfg)
    return float(ad.value(l1)), float(ad.value(lcl)), float(ad.value(total))


def backward(scene, params: ModelParams, cfg: TrainConfig):
    """Exact reverse-mode gradients of the total loss for every parameter.

    The k-NN selections and pattern supports are made on detached values, so
    within a step they are constants; gradients flow through edge weights,
    pattern weights and everything downstream.
    """
    tparams, tensors = params.to_tensors()
    out = run_pipeline(scene, tparams, cfg)
    l1, lcl, total = _losses(out, scene, cfg)
    total.backward()
    grads = {}
    for name, t in tensors.items():
        grads[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
    return (
        LossBreakdown(
            l1=float(ad.value(l1)), lcl=float(ad.value(lcl)),
            total=float(ad.value(total)), lr=float("nan"),
        ),
        grads,
    )


# ---------------------------------------------------------------------------
# finite-difference oracle


def central_difference(f, x0: float, eps: float) -> float:
    return (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps)


def finite_diff_grad(scene, params, cfg, name, index, eps=1e-4, structure=None):
    """Central difference on one coordinate, topology frozen to baseline."""
    if structure is None:
        structure = run_pipeline(scene, params, cfg).graph.structure
    work = params.copy()
    arrays = dict(work.named_arrays())
    arr = arrays[name]
    theta = float(arr[index])
    step = eps * max(1.0, abs(theta))

    def f(v):
        arr[index] = v
        try:
            return scene_loss(scene, work, cfg, structure=structure)[2]
        finally:
            arr[index] = theta

    return central_difference(f, theta, step)


def _coords(arr, limit, rng):
    idxs = list(np.ndindex(arr.shape))
    if limit is not None and len(idxs) > limit:
        pick = rng.choice(len(idxs), size=limit, replace=False)
        idxs = [idxs[i] for i in sorted(pick)]
    return idxs


def grad_check(scene, params, cfg, eps=1e-4, max_coords=None, seed=0):
    """Compare tape gradients against central differences.

    Returns {parameter group: max relative error}; relative error uses
    |a - b| / max(|a|, |b|, 1e-6) so near-zero gradients compare at an
    absolute scale.
    """
    cfg = cfg.replace(precision="high")
    params = params.astype(np.float64)
    structure = run_pipeline(scene, params, cfg).graph.structure
    _, grads = backward(scene, params, cfg)
    rng = np.random.default_rng(seed)
    worst = {}
    for name, arr in params.named_arrays():
        group = ModelParams.group_of(name)
        worst.setdefault(group, 0.0)
        for idx in _coords(arr, max_coords, rng):
            fd = finite_diff_grad(scene, params, cfg, name, idx, eps, structure)
            an = float(grads[name][idx])
            rel = abs(fd - an) / max(abs(fd), abs(an), _REL_FLOOR)
            if rel > worst[group]:
                worst[group] = rel
    return worst


def toy_scene(seed=0, height=4, width=8, scale=4):
    """Tiny interior-valued scene for gradient checking (defaults: 2 patches
    at patch size 4)."""
    rng = np.random.default_rng(seed)
    gt = Image.from_array(0.2 + 0.6 * rng.random((height, width, BANDS)))
    pan = Image.from_array(gt.data.mean(axis=2, keepdims=True))
    lrms = degrade_image(gt, scale)
    return ScenePair(pan=pan, lrms=lrms, gt=gt, scale=scale).validate()


def toy_config(**overrides):
    base = dict(
        patch=4, stride=4, d=8, layers=2, k=1, precision="high", seed=0, batch=1
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


# ---------------------------------------------------------------------------
# optimiser


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @staticmethod
    def init(params: ModelParams) -> "AdamState":
        names = params.named_arrays()
        return AdamState(
            m={n: np.zeros_like(a) for n, a in names},
            v={n: np.zeros_like(a) for n, a in names},
            t=0,
        )


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float, cfg: TrainConfig):
    """Bias-corrected Adam update, in place."""
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, arr in params.named_arrays():
        g = grads[name].astype(arr.dtype)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        arr -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


def lr_schedule(cfg: TrainConfig, iteration: int) -> float:
    """Stepwise decay: lr0 * decay^(iteration // decay_every)."""
    return cfg.lr0 * cfg.decay ** (iteration // cfg.decay_every)


# ---------------------------------------------------------------------------
# checkpoints: magic HSSN, version u32, block count u32, then named blocks
# (name length u32, utf-8 name, three u32 dims, float32 little-endian payload)

# the TrainConfig fields of the _config block, in order; ablate is stored as
# its index in ABLATION_MODES, and a block without it (the first seven
# fields only, as written before ablate was stored) loads as "full"
CONFIG_FIELDS = ("patch", "stride", "d", "layers", "k", "tau", "gamma", "ablate")
_LEGACY_CONFIG_LEN = 7


def _dims3(shape):
    dims = list(shape) + [1, 1, 1]
    if len(shape) > 3:
        raise ValueError("checkpoint blocks are at most 3-D")
    return tuple(dims[:3])


def _encode_config(cfg: TrainConfig) -> np.ndarray:
    return np.array(
        [ABLATION_MODES.index(cfg.ablate) if f == "ablate" else getattr(cfg, f)
         for f in CONFIG_FIELDS],
        dtype=np.float32,
    )


def _decode_config(meta) -> TrainConfig:
    """Inverse of :func:`_encode_config`; raises ValueError for a value
    that is not a valid config."""
    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    kw = {}
    for name, v in zip(CONFIG_FIELDS, meta.tolist()):
        if not np.isfinite(v):
            raise ValueError(f"{name} is {v}")
        if name == "ablate" or types[name] == "int":
            if v != int(v):
                raise ValueError(f"{name} {v} is not an integer")
            v = int(v)
        if name == "ablate":
            if not 0 <= v < len(ABLATION_MODES):
                raise ValueError(f"unknown ablation mode index {v}")
            v = ABLATION_MODES[v]
        kw[name] = v
    return TrainConfig(**kw).validate()


def save_checkpoint(path, params: ModelParams, cfg: TrainConfig):
    blocks = list(params.named_arrays())
    blocks.append(("_config", _encode_config(cfg)))
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(blocks)))
        for name, arr in blocks:
            arr = np.asarray(ad.value(arr), dtype="<f4")
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<III", *_dims3(arr.shape)))
            f.write(np.ascontiguousarray(arr).tobytes())


class CheckpointFormatError(FormatError):
    """Raised for malformed checkpoint files."""


def load_checkpoint(path):
    """Returns (ModelParams, TrainConfig-with-model-fields).  A malformed or
    truncated file, a block whose dims differ from the model's layout, or a
    ``_config`` block that is not a valid config raises
    :class:`CheckpointFormatError`."""
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError("bad checkpoint magic", offset=0)

    def unpack(fmt, pos, what):
        end = pos + struct.calcsize(fmt)
        if end > len(blob):
            raise CheckpointFormatError(f"truncated checkpoint {what}", offset=len(blob))
        return struct.unpack_from(fmt, blob, pos), end

    (version, n_blocks), pos = unpack("<II", 4, "header")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}", offset=4)
    raw_blocks = {}
    for _ in range(n_blocks):
        (nlen,), pos = unpack("<I", pos, "block name length")
        (raw,), pos = unpack(f"{nlen}s", pos, "block name")
        name = raw.decode("utf-8")
        dims, pos = unpack("<III", pos, f"block {name!r} dims")
        count = int(np.prod(dims))
        arr = np.frombuffer(blob[pos : pos + 4 * count], dtype="<f4")
        if arr.size != count:
            raise CheckpointFormatError(f"truncated checkpoint block {name!r}", offset=len(blob))
        raw_blocks[name] = (arr, dims, pos)
        pos += 4 * count

    def block(name, *shapes):
        """The block's array in the first of ``shapes`` its dims match."""
        if name not in raw_blocks:
            raise CheckpointFormatError(f"checkpoint missing block {name!r}", offset=pos)
        arr, dims, start = raw_blocks[name]
        for shape in shapes:
            if dims == _dims3(shape):
                return arr.reshape(shape).copy(), start
        want = shapes[-1]
        rel = "is smaller than" if arr.size < np.prod(want) else "does not match"
        raise CheckpointFormatError(
            f"checkpoint block {name!r} of dims {dims} {rel} {want}", offset=start
        )

    meta, start = block("_config", (_LEGACY_CONFIG_LEN,), (len(CONFIG_FIELDS),))
    try:
        cfg = _decode_config(meta)
    except (ValueError, OverflowError) as e:
        raise CheckpointFormatError(f"bad checkpoint _config: {e}", offset=start) from None

    def load(name, shape, _init):
        # checkpoints written before the importance group existed load it
        # all-zero, which reproduces the plain-mean fusion exactly
        if name.startswith("importance_") and "importance_0" not in raw_blocks:
            return np.zeros(shape, dtype=np.float32)
        return block(name, shape)[0]

    return ModelParams.build(cfg, load), cfg


# ---------------------------------------------------------------------------
# training loop


def write_log_csv(path, logs):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iter", "l1", "lcl", "total", "lr"])
        for i, lb in enumerate(logs):
            w.writerow([i, f"{lb.l1:.8f}", f"{lb.lcl:.8f}", f"{lb.total:.8f}", f"{lb.lr:.8e}"])


def train(dataset, cfg: TrainConfig, out_dir=None, progress=None):
    """Deterministic training over a list of ground-truthed scene pairs.

    Returns (params, per-iteration LossBreakdown list).  If ``out_dir`` is
    given, writes checkpoint_<iter>.hssn every 1000 iterations, a final
    checkpoint, and log.csv.  Non-finite loss aborts with the last good
    parameters saved to checkpoint_diverged.hssn.
    """
    cfg.validate()
    if not dataset:
        raise ValueError("empty dataset")
    for s in dataset:
        s.validate()
        if s.gt is None:
            raise ValueError("training scenes need ground truth")
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    params = ModelParams.init(cfg)
    state = AdamState.init(params)
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(dataset))
    ptr = 0
    eff_batch = min(cfg.batch, len(dataset))
    logs = []
    last_good = params.copy()

    for it in range(cfg.iters):
        lr = lr_schedule(cfg, it)
        batch = []
        for _ in range(eff_batch):
            if ptr >= len(order):
                order = rng.permutation(len(dataset))
                ptr = 0
            batch.append(dataset[order[ptr]])
            ptr += 1

        sum_grads = None
        sums = np.zeros(3)
        for scene in batch:
            bd, grads = backward(scene, params, cfg)
            sums += (bd.l1, bd.lcl, bd.total)
            if sum_grads is None:
                sum_grads = grads
            else:
                for name in sum_grads:
                    sum_grads[name] = sum_grads[name] + grads[name]
        inv = 1.0 / len(batch)
        mean_grads = {n: g * inv for n, g in sum_grads.items()}
        bd = LossBreakdown(
            l1=sums[0] * inv, lcl=sums[1] * inv, total=sums[2] * inv, lr=lr
        )

        if not np.isfinite(bd.total):
            ckpt = None
            if out is not None:
                ckpt = out / "checkpoint_diverged.hssn"
                save_checkpoint(ckpt, last_good, cfg)
                write_log_csv(out / "log.csv", logs)
            raise TrainingDiverged(
                f"non-finite loss at iteration {it}", checkpoint_path=ckpt
            )
        last_good = params.copy()

        adam_step(params, mean_grads, state, lr, cfg)
        logs.append(bd)
        if progress is not None:
            progress(it, bd)
        if out is not None and (it + 1) % 1000 == 0:
            save_checkpoint(out / f"checkpoint_{it + 1:06d}.hssn", params, cfg)

    if out is not None:
        save_checkpoint(out / "checkpoint_final.hssn", params, cfg)
        write_log_csv(out / "log.csv", logs)
    return params, logs


def ablation_table(dataset, cfg: TrainConfig, iters=None, tail=25):
    """Train once per branch mode and report closing L1 (mean over the last
    ``tail`` iterations).  Returns rows [{mode, final_l1, final_total}]."""
    rows = []
    for mode in ABLATION_MODES:
        mcfg = cfg.replace(ablate=mode)
        if iters is not None:
            mcfg = mcfg.replace(iters=iters)
        _, logs = train(dataset, mcfg)
        window = logs[-min(tail, len(logs)) :]
        rows.append(
            {
                "mode": mode,
                "final_l1": float(np.mean([lb.l1 for lb in window])),
                "final_total": float(np.mean([lb.total for lb in window])),
            }
        )
    return rows
