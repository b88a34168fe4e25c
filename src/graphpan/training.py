"""Joint reconstruction + alignment training with hand-checked gradients.

The objective is mean absolute reconstruction error plus a temperature-
scaled alignment term that treats the local and global representations of
the same node as a positive pair against all other nodes of the same block:
the pan block or one band's block, N nodes each, all contrasted in one tape
node, so the term's floor is ln N.  The global side arrives as its
:class:`aggregation.LowRank` factors, so the term's N x N products run at
the factor width m, the number of live patterns, not at d.  Gradients come
from the reverse-mode tape in :mod:`graphpan.autodiff`; an independent
central-difference path (with the graph topology frozen at the baseline)
serves as the correctness oracle.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .aggregation import LowRank, ModelParams, PipelineOutput, run_pipeline
from .config import ABLATION_MODES, TrainConfig, param_layout
from .graph import band_node
from .imaging import BANDS, FormatError, Image, ScenePair, wald_degrade

CHECKPOINT_MAGIC = b"HSSN"
CHECKPOINT_VERSION = 3

TAU = 0.5  # temperature of the alignment term

_REL_FLOOR = 1e-6  # relative-error denominators never drop below this

# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# the learning rate's step decay (:func:`lr_schedule`), the same for every run
LR_DECAY = 0.85
LR_DECAY_EVERY = 3000


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
    step_s: float = float("nan")  # wall seconds of the batch's backward passes and Adam step


def l1_loss(fused, gt):
    """Mean absolute difference over all pixels and bands."""
    return ad.mean(ad.absolute(fused - gt))


def contrastive_loss(h_local, h_global, tau: float):
    """Alignment of matching local/global rows against all other rows.

    The operands are (n, d), or (k, n, d) for k blocks of n rows, each row
    contrasted only against the rows of its own block.  Cosine similarities
    over zero-norm-safe unit rows, temperature tau; the logits, their
    row-wise log-sum-exp and the positive pairs of all blocks form one tape
    node (:func:`autodiff.info_nce`) that works in row blocks, so no (n, n)
    array is held in the forward or the backward pass.  Rows are compared by
    direction only, so scaling a row by a positive factor leaves the value
    unchanged.

    h_global may be a :class:`aggregation.LowRank` pair left @ K.  Its unit
    rows are then left_i / |left_i K| (norms from the m x m Gram K K^T, a
    zero row kept zero) times K, and K goes into the node as its right
    factor, so the logits and both row-block products are m wide.
    """
    n = ad.value(h_local).shape[-2]
    if n < 2:
        raise ValueError("contrastive loss needs at least 2 nodes")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if isinstance(h_global, LowRank):
        right = h_global.right
        return ad.info_nce(
            ad.unit_rows(h_local), ad.unit_rows(h_global.left, right), tau, right
        )
    return ad.info_nce(ad.unit_rows(h_local), ad.unit_rows(h_global), tau)


def blockwise_contrastive_loss(h_local, h_global, tau: float, n_patches: int):
    """Alignment within each node block: the pan block, then one block per
    band, each the contiguous slice of ids that :func:`graph.band_node`
    gives it.  Each anchor's negatives come only from its own block, as in
    HeCo's within-type contrast with each band as a type, so nodes of
    different blocks are never pushed apart.

    The rows must number exactly (1 + BANDS) * n_patches; they are read as
    (1 + BANDS, n_patches, d) blocks (for a :class:`aggregation.LowRank`
    h_global, its left factor is) and go through one
    :func:`contrastive_loss` call, whose value is the mean over all anchors.
    With one patch every block has only its positive pair, whose InfoNCE
    term is exactly 0: the result is then 0.0 and nothing is taped.
    """
    n = ad.value(h_local).shape[0]
    if n_patches < 1 or n != band_node(0, BANDS, n_patches):
        raise ValueError(
            f"need {1 + BANDS} blocks of n_patches = {n_patches} >= 1 rows each, got {n} rows"
        )
    if n_patches == 1:
        return 0.0
    blocks = (1 + BANDS, n_patches, -1)
    if isinstance(h_global, LowRank):
        h_global = LowRank(ad.reshape(h_global.left, blocks), h_global.right)
    else:
        h_global = ad.reshape(h_global, blocks)
    return contrastive_loss(ad.reshape(h_local, blocks), h_global, tau)


def _loss_inputs(out: PipelineOutput):
    """What :func:`_losses` reads of a pipeline output: the fused image, the
    two branches and the patch count; not the fused h, the graph or the
    pattern table."""
    return out.fused, out.repr.h_local, out.repr.h_global, out.graph.n_patches


def _losses(fused, h_local, h_global, n_patches, scene: ScenePair, cfg: TrainConfig):
    """(l1, lcl, total) matching the kind (plain/tensor) of the pipeline,
    from the parts that :func:`_loss_inputs` takes of its output.

    lcl is :func:`blockwise_contrastive_loss` of the (importance-scaled)
    branch representations, the global one as its factor pair, over the pan
    block and the BANDS band blocks of N = n_patches nodes each; at its
    floor (every negative of a block scoring like the positive) it is ln N.
    Its temperature is :data:`TAU`; total = l1 + gamma * lcl.
    """
    # no name keeps the ground truth's copy past the L1 term
    l1 = l1_loss(fused, scene.gt.data.astype(ad.value(fused).dtype))
    if cfg.ablate != "full":
        # a single surviving branch has nothing to align against
        return l1, 0.0, l1
    if cfg.gamma > 0.0:
        lcl = blockwise_contrastive_loss(h_local, h_global, TAU, n_patches)
        return l1, lcl, l1 + cfg.gamma * lcl
    g = LowRank(ad.value(h_global.left), ad.value(h_global.right))  # logged only: nothing taped
    lcl = float(blockwise_contrastive_loss(ad.value(h_local), g, TAU, n_patches))
    return l1, lcl, l1


def scene_loss(scene, params: ModelParams, cfg: TrainConfig, structure=None):
    """Plain-valued losses; ``structure`` pins the graph topology."""
    out = run_pipeline(scene, params, cfg, structure=structure)
    l1, lcl, total = _losses(*_loss_inputs(out), scene, cfg)
    return float(ad.value(l1)), float(ad.value(lcl)), float(ad.value(total))


def backward(scene, params: ModelParams, cfg: TrainConfig):
    """Exact reverse-mode gradients of the total loss for every parameter.

    The k-NN selections and pattern supports are made on detached values, so
    within a step they are constants; gradients flow through edge weights,
    pattern weights and everything downstream.

    No name holds the pipeline's output: the losses get only the parts they
    read (:func:`_loss_inputs`).  So the fused h, which only the
    reconstruction reads, the graph and the pattern table are let go before
    the contrastive term runs, and every other interior value once no VJP
    reads it; what the tape holds at the start of its walk is what its VJPs
    read.
    """
    tparams, tensors = params.to_tensors()
    l1, lcl, total = _losses(*_loss_inputs(run_pipeline(scene, tparams, cfg)), scene, cfg)
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

    Returns {parameter group, i.e. :class:`ModelParams` field: max relative
    error}; relative error uses |a - b| / max(|a|, |b|, 1e-6) so near-zero
    gradients compare at an absolute scale.  A NaN error is kept as the
    group's maximum, so it fails every tolerance.
    """
    params = params.astype(np.float64)
    structure = run_pipeline(scene, params, cfg).graph.structure
    _, grads = backward(scene, params, cfg)
    rng = np.random.default_rng(seed)
    worst = {}
    for name, arr in params.named_arrays():
        worst[name] = 0.0
        for idx in _coords(arr, max_coords, rng):
            fd = finite_diff_grad(scene, params, cfg, name, idx, eps, structure)
            an = float(grads[name][idx])
            rel = abs(fd - an) / max(abs(fd), abs(an), _REL_FLOOR)
            worst[name] = float(np.maximum(worst[name], rel))
    return worst


def toy_scene(seed=0, height=4, width=8, scale=4):
    """Tiny interior-valued scene for gradient checking (defaults: 2 patches
    at patch size 4)."""
    rng = np.random.default_rng(seed)
    gt = Image.from_array(0.2 + 0.6 * rng.random((height, width, BANDS)))
    return wald_degrade(gt, Image.from_array(gt.data.mean(axis=2, keepdims=True)), scale)


def toy_config(**overrides):
    base = dict(patch=4, stride=4, d=8, k=1, seed=0, batch=1)
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


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float):
    """Bias-corrected Adam update, in place."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
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
    """Stepwise decay: lr0 * LR_DECAY^(iteration // LR_DECAY_EVERY)."""
    return cfg.lr0 * LR_DECAY ** (iteration // LR_DECAY_EVERY)


# ---------------------------------------------------------------------------
# checkpoints: magic HSSN, version u32, block count u32, then named blocks
# (name length u32, utf-8 name, three u32 dims, float32 little-endian payload)

# the TrainConfig fields of the _config block, in order: the ones a loaded
# model runs with, all integers (float32 holds each exactly up to 2**24);
# ablate is stored as its index in ABLATION_MODES
CONFIG_FIELDS = ("patch", "stride", "d", "k", "ablate")


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
    that no config field can take.  The caller validates the config."""
    kw = {}
    for name, v in zip(CONFIG_FIELDS, meta.tolist()):
        if not np.isfinite(v):
            raise ValueError(f"{name} is {v}")
        if v != int(v):
            raise ValueError(f"{name} {v} is not an integer")
        kw[name] = int(v)
    if not 0 <= kw["ablate"] < len(ABLATION_MODES):
        raise ValueError(f"unknown ablation mode index {kw['ablate']}")
    kw["ablate"] = ABLATION_MODES[kw["ablate"]]
    return TrainConfig(**kw)


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
    """Returns (ModelParams, TrainConfig): the config holds the file's
    CONFIG_FIELDS and the defaults of every other field.  A malformed or
    truncated file, a duplicate block name, a block the layout does not
    name, a missing block, a block whose dims differ from the model's
    layout, a parameter block holding a NaN or inf, or a ``_config`` block
    that is not a valid config raises :class:`CheckpointFormatError`."""
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
        (raw,), end = unpack(f"{nlen}s", pos, "block name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError("checkpoint block name is not utf-8", offset=pos) from None
        dims, pos = unpack("<III", end, f"block {name!r} dims")
        if name in raw_blocks:
            raise CheckpointFormatError(f"duplicate checkpoint block {name!r}", offset=pos)
        count = dims[0] * dims[1] * dims[2]
        if pos + 4 * count > len(blob):
            raise CheckpointFormatError(f"truncated checkpoint block {name!r}", offset=len(blob))
        raw_blocks[name] = (np.frombuffer(blob, dtype="<f4", count=count, offset=pos), dims, pos)
        pos += 4 * count

    def block(name, shape):
        """The block's array, whose dims must be those of ``shape``."""
        if name not in raw_blocks:
            raise CheckpointFormatError(f"checkpoint missing block {name!r}", offset=pos)
        arr, dims, start = raw_blocks[name]
        if dims != _dims3(shape):
            rel = "is smaller than" if arr.size < np.prod(shape) else "does not match"
            raise CheckpointFormatError(
                f"checkpoint block {name!r} of dims {dims} {rel} {shape}", offset=start
            )
        return arr.reshape(shape).copy(), start

    meta, start = block("_config", (len(CONFIG_FIELDS),))
    try:
        cfg = _decode_config(meta)
        cfg.validate()
    except (ValueError, OverflowError) as e:
        raise CheckpointFormatError(f"bad checkpoint _config: {e}", offset=start) from None

    names = param_layout(cfg).keys()
    for name, (_, _, start) in raw_blocks.items():
        if name != "_config" and name not in names:
            raise CheckpointFormatError(f"unknown checkpoint block {name!r}", offset=start)

    def load(name, shape, _init):
        arr, start = block(name, shape)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise CheckpointFormatError(
                f"non-finite sample in checkpoint block {name!r}", offset=start + 4 * int(bad[0])
            )
        return arr

    return ModelParams.build(cfg, load), cfg


# ---------------------------------------------------------------------------
# training loop


def write_log_csv(path, logs):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iter", "l1", "lcl", "total", "lr", "step_s"])
        for i, lb in enumerate(logs):
            w.writerow([
                i, f"{lb.l1:.8f}", f"{lb.lcl:.8f}", f"{lb.total:.8f}", f"{lb.lr:.8e}",
                f"{lb.step_s:.6f}",
            ])


def _batch_gradients(batch, params: ModelParams, cfg: TrainConfig):
    """The batch means of (l1, lcl, total) and of each parameter group's
    gradient.  A scene's gradients are let go once they are added up, so
    none lives through the next scene's step."""
    sums, total = np.zeros(3), {}
    for scene in batch:
        bd, grads = backward(scene, params, cfg)
        sums += (bd.l1, bd.lcl, bd.total)
        for name, g in grads.items():
            total[name] = total[name] + g if name in total else g
        del grads
    inv = 1.0 / len(batch)
    return sums * inv, {name: g * inv for name, g in total.items()}


# glibc's mallopt parameter number and the bytes it keeps above the heap top
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 64 << 20


@functools.cache
def _keep_freed_heap() -> bool:
    """Ask glibc, once per process, to keep 64 MiB of freed memory above the
    heap top instead of handing it back to the kernel; True if it was set.

    A training run is the program's own hot loop of same-sized scene
    passes: each pass grows the heap by its tape, and with glibc's default
    trim the next pass faults the same pages in again.  The pad decides
    which freed pages stay resident, not how many bytes a step allocates or
    the RSS high-water mark.  Setting it also fixes glibc's mmap threshold,
    which otherwise rises as large blocks are freed, at its current value.
    Without glibc, or without ``mallopt``, this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TOP_PAD, _HEAP_TOP_PAD) == 1


def train(dataset, cfg: TrainConfig, out_dir=None, progress=None):
    """Deterministic training over a list of ground-truthed scene pairs.

    Returns (params, per-iteration LossBreakdown list).  If ``out_dir`` is
    given, writes checkpoint_<iter>.hssn every 1000 iterations, a final
    checkpoint, and log.csv.  Non-finite loss aborts with the last good
    parameters saved to checkpoint_diverged.hssn.

    No step's gradients outlive it: each scene's are let go once added into
    the batch sum, and the batch mean once Adam has read it, so none of them
    sits in the heap while the next step builds its tape.  From its first
    call in a process, ``train`` has glibc keep 64 MiB of freed heap instead
    of trimming it (:func:`_keep_freed_heap`; process-wide, glibc only), so
    a scene pass does not fault back in the pages the last one freed.
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
    _keep_freed_heap()

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

        started = time.perf_counter()
        means, mean_grads = _batch_gradients(batch, params, cfg)
        bd = LossBreakdown(l1=means[0], lcl=means[1], total=means[2], lr=lr)

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

        adam_step(params, mean_grads, state, lr)
        del mean_grads  # read by Adam only: not kept through the next batch
        bd.step_s = time.perf_counter() - started
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
