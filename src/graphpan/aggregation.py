"""Model parameters and the graph aggregation / reconstruction pipeline.

Local branch: patterns are combined with learned scalars, symmetrised,
self-looped and degree-normalised; node attributes propagate through a
stack of linear layers (no activations) and the per-depth outputs are
averaged.

Global branch: per-pattern incoming-weight totals form a compact node
descriptor matrix B (columns scaled by learned scalars); the row-L1
normalised similarity B @ B.T drives one propagation that keeps only the
deepest layer output.  B has at most seven columns and B @ B.T is
nonnegative, so the similarity is applied in factored form and the (n, n)
matrix is never built.

Fusion weighs the two branches per node with learned importance: a score
q . tanh(W h + b) for each branch output, softmax-normalised over the two
branches (semantic-level attention as in HAN, scored per node).  Each branch
is scaled by twice its weight and the fused representation is the mean of
the scaled branches, i.e. their weighted sum; at initialisation q = 0 and
the weights are exactly 1/2, the plain mean.

A per-band linear head maps each patch's (pan node, band node) feature pair
to a pixel block; blocks are overlap-averaged and added to the upsampled
multispectral input, so training starts from the plain bicubic baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .config import TrainConfig
from .graph import HetGraph, band_node, build_graph, embed_patches
from .imaging import BANDS, Image, PatchGrid, ScenePair, extract_patches, upsample_bicubic
from .patterns import MAX_PATTERNS, PatternSet, generate_patterns

_DEGREE_FLOOR = 1e-12
_INIT_PATTERNS = 3  # disjoint relation supports give three singleton patterns


def param_layout(cfg: TrainConfig) -> dict:
    """The learned arrays, written once: for each :class:`ModelParams` field,
    in field order, a (shape, init) pair, or a list of pairs for a list
    field.  ``init`` is "glorot", "recon" (uniform in [-0.02, 0.02), or
    zeros for a zero head) or a constant fill value.

    The importance group is [W, b, q] of :func:`weigh_branches`; the
    scorer's hidden width 2d is, at the default d = 64, the 128 of HAN's
    semantic attention, and q = 0 weighs both branches 1/2.
    """
    d, p2 = cfg.d, cfg.patch * cfg.patch
    return {
        "w_pan": ((d, p2), "glorot"),
        "w_band": [((d, p2), "glorot")] * BANDS,
        "alpha": ((MAX_PATTERNS,), 1.0 / _INIT_PATTERNS),
        "beta": ((MAX_PATTERNS,), 1.0),
        "w_local": [((d, d), "glorot")] * cfg.layers,
        "w_global": [((d, d), "glorot")] * cfg.layers,
        "recon": [((p2, 2 * d), "recon")] * BANDS,
        "importance": [((2 * d, d), "glorot"), ((2 * d,), 0.0), ((2 * d, 1), 0.0)],
    }


@dataclass
class ModelParams:
    """All learned arrays, laid out by :func:`param_layout`.  Scalar groups
    alpha/beta hold one slot per possible relation-subset bitmask; slot m-1
    belongs to mask m.

    Field order fixes the order of :meth:`named_arrays` and of the random
    draws in :meth:`init`; a list field contributes one entry per element."""

    w_pan: object
    w_band: list
    alpha: object
    beta: object
    w_local: list
    w_global: list
    recon: list
    importance: list

    @staticmethod
    def build(cfg: TrainConfig, make) -> "ModelParams":
        """Every array of the layout from ``make(name, shape, init)``, called
        in :meth:`named_arrays` order."""
        return ModelParams(**{
            f: [make(f"{f}_{i}", *e) for i, e in enumerate(spec)]
            if isinstance(spec, list) else make(f, *spec)
            for f, spec in param_layout(cfg).items()
        })

    @staticmethod
    def init(cfg: TrainConfig, seed: int | None = None, zero_recon: bool = True) -> "ModelParams":
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
        dt = cfg.dtype

        def draw(_name, shape, init):
            if init == "glorot":
                bound = np.sqrt(6.0 / (shape[0] + shape[1]))
                return rng.uniform(-bound, bound, size=shape).astype(dt)
            if init == "recon":
                if zero_recon:
                    return np.zeros(shape, dtype=dt)
                return rng.uniform(-0.02, 0.02, size=shape).astype(dt)
            return np.full(shape, init, dtype=dt)

        return ModelParams.build(cfg, draw)

    def named_arrays(self):
        """Stable (name, array) list; names double as checkpoint block ids.
        Element i of a list field is named ``<field>_<i>``."""
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, list):
                out += [(f"{f.name}_{i}", a) for i, a in enumerate(v)]
            else:
                out.append((f.name, v))
        return out

    @staticmethod
    def group_of(name: str) -> str:
        return name.rsplit("_", 1)[0] if name[-1].isdigit() else name

    def _map(self, fn) -> "ModelParams":
        """Same layout with every array replaced by ``fn(array)``, applied
        in :meth:`named_arrays` order."""
        return ModelParams(**{
            f.name: [fn(a) for a in v] if isinstance(v, list) else fn(v)
            for f in fields(self)
            for v in (getattr(self, f.name),)
        })

    def copy(self) -> "ModelParams":
        return self._map(np.array)

    def astype(self, dt) -> "ModelParams":
        return self._map(lambda a: np.asarray(a, dtype=dt))

    def to_tensors(self):
        """(tensor-valued params, name -> tensor map) for differentiation."""
        tensors = {name: ad.Tensor(arr) for name, arr in self.named_arrays()}
        ordered = iter(tensors.values())
        return self._map(lambda _: next(ordered)), tensors


@dataclass
class NodeRepr:
    """Node representations.  In full mode h_local and h_global are the
    importance-scaled branches of :func:`weigh_branches`; under ablation the
    surviving branch is stored in all three slots.  Either way
    h == (h_local + h_global) / 2 holds."""

    h_local: object
    h_global: object
    h: object


def _coalesce(n, rows, cols, vals):
    keys = rows * n + cols
    uniq, inv = np.unique(keys, return_inverse=True)
    summed = ad.index_add(len(uniq), inv, vals)
    return uniq // n, uniq % n, summed


def aggregate_local(ps: PatternSet, U, alpha, w_local) -> object:
    """Pattern-weighted local propagation with depth averaging."""
    if len(ps) == 0:
        raise ValueError("empty pattern set")
    n = ps.n_nodes
    rows = np.concatenate([p.rows for p in ps])
    cols = np.concatenate([p.cols for p in ps])
    vals = ad.concatenate([p.vals * alpha[p.mask - 1] for p in ps], axis=0)

    # symmetrise, add self-loops, coalesce duplicates
    dtype = ad.value(vals).dtype
    sym_rows = np.concatenate([rows, cols, np.arange(n)])
    sym_cols = np.concatenate([cols, rows, np.arange(n)])
    sym_vals = ad.concatenate([vals * 0.5, vals * 0.5, np.ones(n, dtype=dtype)], axis=0)
    crows, ccols, cvals = _coalesce(n, sym_rows, sym_cols, sym_vals)

    # symmetric degree normalisation with a floor against non-positive rows
    deg = ad.index_add(n, crows, cvals)
    live = (ad.value(deg) > _DEGREE_FLOOR).astype(dtype)
    dinv = live / ad.sqrt(deg * live + (1.0 - live))
    w = cvals * dinv[crows] * dinv[ccols]

    au = ad.index_add(n, crows, ad.reshape(w, (-1, 1)) * U[ccols])
    h = au
    acc = None
    for wl in w_local:
        h = h @ wl
        acc = h if acc is None else acc + h
    return acc / float(len(w_local))


def build_global_pattern_matrix(ps: PatternSet, beta) -> object:
    """Stack per-pattern incoming-weight totals, columns scaled by beta."""
    if len(ps) == 0:
        raise ValueError("empty pattern set")
    n = ps.n_nodes
    cols = []
    for p in ps:
        totals = ad.index_add(n, p.rows, p.vals)
        cols.append(ad.reshape(totals * beta[p.mask - 1], (n, 1)))
    return ad.concatenate(cols, axis=1)


@dataclass
class GlobalOperator:
    """The global propagation operator A = diag(1/r) B B^T, held as its two
    (n, m) factors: A = left @ right.T.  ``A @ U`` costs O(n m d) and never
    forms the (n, n) matrix."""

    left: object
    right: object

    def __matmul__(self, U):
        return self.left @ (ad.transpose(self.right) @ U)


def global_similarity(B) -> GlobalOperator:
    """Row-L1-normalised B @ B.T, in factored form; all-zero rows stay zero.

    Every column of B is one pattern's nonnegative incoming-weight totals
    scaled by its beta, so it has one sign and B @ B.T = sum_m beta_m^2
    t_m t_m^T is nonnegative entrywise.  The row-L1 norms are then
    r = B (B^T 1), and r_i > 0 exactly when row i of B is nonzero.  A column
    that mixes signs breaks the identity and raises ValueError.
    """
    b = ad.value(B)
    if np.any((b > 0).any(axis=0) & (b < 0).any(axis=0)):
        raise ValueError("a column of the global pattern matrix mixes signs")
    r = B @ ad.transpose(ad.sum(B, axis=0, keepdims=True))  # (n, 1)
    zero = (ad.value(r) == 0.0).astype(b.dtype)
    return GlobalOperator(left=B / (r + zero), right=B)


def aggregate_global(A, U, w_global) -> object:
    """One propagation through A (a :class:`GlobalOperator` or a plain
    matrix); only the deepest layer output is kept."""
    h = A @ U
    for wg in w_global:
        h = h @ wg
    return h


def weigh_branches(h_local, h_global, importance):
    """Scale each branch by twice its learned per-node importance.

    Each node scores each branch as q . tanh(W h + b), shared across
    branches and nodes; the two scores of a node are softmax-normalised into
    weights a_local + a_global = 1.  With t = tanh((s_local - s_global) / 2),
    a_local = (1 + t) / 2, so the returned pair is ((1 + t) h_local,
    (1 - t) h_global) and their :func:`fuse` mean is the weighted sum
    a_local h_local + a_global h_global.  With q = 0, t is exactly 0 and
    both branches come back unchanged.
    """
    w, b, q = importance
    w_t = ad.transpose(w)
    score_l = ad.tanh(h_local @ w_t + b) @ q
    score_g = ad.tanh(h_global @ w_t + b) @ q
    t = ad.tanh((score_l - score_g) * 0.5)  # (n, 1)
    return (1.0 + t) * h_local, (1.0 - t) * h_global


def fuse(h_local, h_global) -> object:
    return (h_local + h_global) * 0.5


def reconstruct(H, grid: PatchGrid, recon, lrms_up: Image):
    """Per-band linear heads on (pan, band) node pairs, overlap-averaged and
    added to the upsampled input; clamped to [0, 1].  Returns the raw
    (h, w, bands) array (plain or tensor, matching H)."""
    n = grid.n_patches
    idx = grid.pixel_indices  # (n, p*p) for the 1-channel pan grid
    counts = np.maximum(grid.coverage_counts, 1)
    hw = grid.height * grid.width
    dtype = ad.value(H).dtype

    h_pan = H[np.arange(n)]
    bands = []
    flat_idx = idx.reshape(-1)
    for b in range(BANDS):
        z = ad.concatenate([h_pan, H[band_node(np.arange(n), b, n)]], axis=1)  # (n, 2d)
        blocks = z @ ad.transpose(recon[b])  # (n, p*p)
        summed = ad.index_add(hw, flat_idx, ad.reshape(blocks, (-1,)))
        residual = summed / counts.astype(dtype)
        base = lrms_up.data[:, :, b].reshape(-1).astype(dtype)
        fused_b = ad.clip(residual + base, 0.0, 1.0)
        bands.append(ad.reshape(fused_b, (grid.height, grid.width, 1)))
    return ad.concatenate(bands, axis=2)


@dataclass
class PipelineOutput:
    fused: object  # (h, w, bands) array or tensor; an Image from forward()
    repr: NodeRepr
    graph: HetGraph
    patterns: PatternSet
    lrms_up: Image
    pan_grid: PatchGrid


def run_pipeline(
    scene: ScenePair,
    params: ModelParams,
    cfg: TrainConfig,
    structure=None,
) -> PipelineOutput:
    """Full model pass; plain arrays in, plain arrays out, unless ``params``
    carries autodiff tensors."""
    scene.validate()
    cfg.validate()
    lrms_up = upsample_bicubic(scene.lrms, scene.scale)
    pan_grid = extract_patches(scene.pan, cfg.patch, cfg.stride)
    band_grids = [
        extract_patches(lrms_up.band(b), cfg.patch, cfg.stride) for b in range(BANDS)
    ]
    xp, ys = embed_patches(pan_grid, band_grids, params.w_pan, params.w_band)
    g = build_graph(xp, ys, cfg.k, structure=structure)
    ps = generate_patterns(g)

    if cfg.ablate == "local-only":
        h_local = aggregate_local(ps, g.U, params.alpha, params.w_local)
        h_global = h_local
        h = h_local
    elif cfg.ablate == "global-only":
        B = build_global_pattern_matrix(ps, params.beta)
        h_global = aggregate_global(global_similarity(B), g.U, params.w_global)
        h_local = h_global
        h = h_global
    else:
        h_local = aggregate_local(ps, g.U, params.alpha, params.w_local)
        B = build_global_pattern_matrix(ps, params.beta)
        h_global = aggregate_global(global_similarity(B), g.U, params.w_global)
        h_local, h_global = weigh_branches(h_local, h_global, params.importance)
        h = fuse(h_local, h_global)

    fused = reconstruct(h, pan_grid, params.recon, lrms_up)
    return PipelineOutput(
        fused=fused,
        repr=NodeRepr(h_local=h_local, h_global=h_global, h=h),
        graph=g,
        patterns=ps,
        lrms_up=lrms_up,
        pan_grid=pan_grid,
    )


def forward(scene: ScenePair, params: ModelParams, cfg: TrainConfig) -> PipelineOutput:
    """Inference-mode pass; ``fused`` is returned as an :class:`Image`."""
    out = run_pipeline(scene, params, cfg)
    out.fused = Image.from_array(ad.value(out.fused))
    return out
