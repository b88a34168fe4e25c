"""Model parameters and the graph aggregation / reconstruction pipeline.

Local branch: patterns are combined with learned scalars, symmetrised,
self-looped and degree-normalised (applied straight from the pattern
entries, see :func:`aggregate_local`); node attributes propagate through
this operator once and one learned (d, d) matrix maps the result.

Global branch: per-pattern incoming-weight totals form a compact node
descriptor matrix B (columns scaled by learned scalars); the row-L1
normalised similarity B @ B.T drives one propagation, mapped by one
learned (d, d) matrix.  B has at most seven columns and B @ B.T is
nonnegative, so the similarity is applied in factored form and the (n, n)
matrix is never built.  The map is linear, so the branch output has rank
at most m, the number of live patterns, and stays a :class:`LowRank` pair
left @ K with K = (B^T U) W of shape (m, d): the map, the importance score
and the contrastive term all work on K.

Nothing nonlinear follows either propagation, so one matrix per branch is
the whole function class a stack of them would span.

Fusion weighs the two branches per node with learned importance: a score
q . tanh(W h + b) for each branch output, softmax-normalised over the two
branches (semantic-level attention as in HAN, scored per node).  Each score
is one row-blocked tape node that keeps only the (n, 1) score and
recomputes its (n, 2d) hidden layer in the backward.  Each branch
is scaled by twice its weight and the fused representation is the mean of
the scaled branches, i.e. their weighted sum; at initialisation q = 0 and
the weights are exactly 1/2, the plain mean.  The dense (n, d) global
branch is formed once, after this scaling, for the fusion and the heads.

The pan patches and the bands (one BANDS-channel patch grid of the
upsampled multispectral image, cut on the pan grid's windows) are embedded
as one (1 + BANDS, N, d) stack whose reshape is U.  A per-band linear head
maps each patch's (pan node, band node) feature pair to a pixel block;
blocks are overlap-averaged and added to the upsampled multispectral input,
so training starts from the plain bicubic baseline.  All bands go through
the heads together: the pairs are one gather of the node rows
(i, band_node(i, b, N)) in (band, patch) order, which reads in place as the
heads' (BANDS, N, 2d) operand.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .config import TrainConfig, param_layout
from .graph import HetGraph, band_node, build_graph, embed_patches
from .imaging import BANDS, Image, PatchGrid, ScenePair, extract_patches, window_indices
from .imaging import upsample_bicubic  # noqa: F401  (a stage name perfbench/spans.py wraps)
from .patterns import PatternSet, generate_patterns

_DEGREE_FLOOR = 1e-12
@dataclass
class ModelParams:
    """All learned arrays, one per field, laid out by :func:`param_layout`.
    Scalar groups alpha/beta hold one slot per possible relation-subset
    bitmask; slot m-1 belongs to mask m.

    Field order fixes the order of :meth:`named_arrays` and of the random
    draws in :meth:`init`."""

    w_embed: object
    alpha: object
    beta: object
    w_local: object
    w_global: object
    recon: object
    importance_w: object
    importance_b: object
    importance_q: object

    @staticmethod
    def build(cfg: TrainConfig, make) -> "ModelParams":
        """Every array of the layout from ``make(name, shape, init)``, called
        in :meth:`named_arrays` order."""
        return ModelParams(**{f: make(f, *spec) for f, spec in param_layout(cfg).items()})

    @staticmethod
    def init(cfg: TrainConfig, seed: int | None = None, zero_recon: bool = True) -> "ModelParams":
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
        dt = cfg.dtype

        def draw(_name, shape, init):
            if init == "glorot":
                bound = np.sqrt(6.0 / (shape[-2] + shape[-1]))
                return rng.uniform(-bound, bound, size=shape).astype(dt)
            if init == "recon":
                if zero_recon:
                    return np.zeros(shape, dtype=dt)
                return rng.uniform(-0.02, 0.02, size=shape).astype(dt)
            return np.full(shape, init, dtype=dt)

        return ModelParams.build(cfg, draw)

    def named_arrays(self):
        """Stable (field name, array) list; the names are the parameter
        groups and double as checkpoint block ids."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def _map(self, fn) -> "ModelParams":
        """Same layout with every array replaced by ``fn(array)``, applied
        in :meth:`named_arrays` order."""
        return ModelParams(**{name: fn(a) for name, a in self.named_arrays()})

    def copy(self) -> "ModelParams":
        return self._map(np.array)

    def astype(self, dt) -> "ModelParams":
        return self._map(lambda a: np.asarray(a, dtype=dt))

    def to_tensors(self):
        """(tensor-valued params, name -> tensor map) for differentiation."""
        tensors = {name: ad.Tensor(arr) for name, arr in self.named_arrays()}
        return ModelParams(**tensors), tensors


@dataclass
class NodeRepr:
    """Node representations.  h_local is the dense local branch and
    h_global the global branch as a :class:`LowRank` pair, each
    importance-scaled by :func:`weigh_branches` in full mode; an ablated
    branch is None.  h is their :func:`fuse` mean, or the surviving branch
    as a dense array."""

    h_local: object
    h_global: object
    h: object


def aggregate_local(ps: PatternSet, U, alpha, w_local) -> object:
    """Pattern-weighted local propagation, mapped by the (d, d) w_local.

    With A the pattern table's entries, each scaled by its pattern's alpha
    (one gather and one product for the whole table), the operator is
    D^{-1/2} (A/2 + A^T/2 + I) D^{-1/2}, whose degrees are
    deg = A 1/2 + A^T 1/2 + 1.  The branch is computed as
    D^{-1/2} (A V/2 + A^T V/2 + V) w_local with V = D^{-1/2} U, where A V and
    A^T V are two sparse products (:func:`autodiff.spmm`), so the tape keeps
    only (E,) entry vectors and no (E, d) gather.  Every step is linear in
    the entries, so entries that share a (row, col), which a hand-built
    table may hold, need no merging.  A node of degree at most the floor is
    dropped (its rows and columns are zero).
    """
    if len(ps) == 0:
        raise ValueError("empty pattern set")
    n, rows, cols = ps.n_nodes, ps.rows, ps.cols
    # np.take is masks[slot], faster for the table's int32 slots
    vals = ps.vals * alpha[np.take(ps.masks, ps.slot) - 1]

    deg = (ad.index_add(n, rows, vals) + ad.index_add(n, cols, vals)) * 0.5 + 1.0
    dtype = ad.value(deg).dtype
    live = (ad.value(deg) > _DEGREE_FLOOR).astype(dtype)
    dinv = ad.reshape(live / ad.sqrt(deg * live + (1.0 - live)), (n, 1))
    v = dinv * U
    av = ad.spmm(n, rows, cols, vals, v) + ad.spmm(n, cols, rows, vals, v)
    return (dinv * (av * 0.5 + v)) @ w_local


def build_global_pattern_matrix(ps: PatternSet, beta) -> object:
    """The (n, m) matrix of per-pattern incoming-weight totals, one column
    per live pattern scaled by its beta: one segment sum of the table into
    the (row, pattern) cells, then one column scaling."""
    if len(ps) == 0:
        raise ValueError("empty pattern set")
    n, m = ps.n_nodes, len(ps)
    totals = ad.index_add(n * m, ps.rows * m + ps.slot, ps.vals)
    return ad.reshape(totals, (n, m)) * beta[ps.masks - 1]


@dataclass
class LowRank:
    """An (n, p) matrix, or a (k, n, p) stack, held as left @ right: left is
    (n, m) or (k, n, m) and right (m, p).  A product with a (p, q) matrix on
    the right stays factored and costs O(m p q)."""

    left: object
    right: object

    def __matmul__(self, w):
        return LowRank(self.left, self.right @ w)


def dense(h):
    """The (n, p) value of a :class:`LowRank` pair; any other h as it is."""
    return h.left @ h.right if isinstance(h, LowRank) else h


def scale_rows(s, h):
    """The rows of h (dense or :class:`LowRank`) scaled by the (n, 1) s."""
    return LowRank(s * h.left, h.right) if isinstance(h, LowRank) else s * h


def global_similarity(B) -> LowRank:
    """Row-L1-normalised B @ B.T as the :class:`LowRank` pair
    (diag(1/r) B, B^T); all-zero rows stay zero.  ``A @ U`` costs O(n m d)
    and never forms the (n, n) matrix.

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
    return LowRank(B / (r + zero), ad.transpose(B))


def aggregate_global(A, U, w_global) -> object:
    """One propagation through A (a :class:`LowRank` pair or a plain
    matrix), mapped by the (d, d) w_global: (A U) w_global.  For a pair the
    map acts on its (m, d) right factor, and the output is a pair too."""
    return (A @ U) @ w_global


def weigh_branches(h_local, h_global, importance):
    """Scale each branch by twice its learned per-node importance, given
    as the triple (W, b, q) of :class:`ModelParams`' importance_w,
    importance_b and importance_q.

    Each node scores each branch as q . tanh(W h + b), shared across
    branches and nodes; the two scores of a node are softmax-normalised into
    weights a_local + a_global = 1.  With t = tanh((s_local - s_global) / 2),
    a_local = (1 + t) / 2, so the returned pair is ((1 + t) h_local,
    (1 - t) h_global) and their :func:`fuse` mean is the weighted sum
    a_local h_local + a_global h_global.  With q = 0, t is exactly 0 and
    both branches come back unchanged.

    Each score is one :func:`autodiff.tanh_score` node, which keeps only
    the (n, 1) score on the tape and recomputes the (n, 2d) hidden layer in
    its backward.  h_global may be a :class:`LowRank` pair left @ K; its
    score is then taken from the factors (left, K W^T), so the branch stays
    factored, and it comes back as the pair (scaled left, K).
    """
    w, b, q = importance
    w_t = ad.transpose(w)

    def score(h):
        x, m = (h.left, h.right @ w_t) if isinstance(h, LowRank) else (h, w_t)
        return ad.tanh_score(x, m, b, q)

    score_l, score_g = score(h_local), score(h_global)
    t = ad.tanh((score_l - score_g) * 0.5)  # (n, 1)
    return (1.0 + t) * h_local, scale_rows(1.0 - t, h_global)


def fuse(h_local, h_global) -> object:
    return (h_local + h_global) * 0.5


@lru_cache(maxsize=8)
def _recon_operators(height, width, patch, stride, dtype):
    """The constants of :func:`reconstruct` for one pan grid geometry: two
    0/1 operators as CSR matrices of ``dtype`` entries (only their int32
    index arrays and their ones are held) and the coverage counts.

    * G, (2 BANDS n, (1 + BANDS) n): row (b, i, s) picks node i for s = 0
      and band node (i, b) for s = 1, the heads' pairs in (band, patch,
      pan/band) order;
    * P, (h w, n p p): row q adds every window pixel that lies on raster
      pixel q, in window order;
    * counts, (h w, 1) read-only ``dtype`` values: the number of window
      pixels on each raster pixel (the row lengths of P), at least 1.

    G^T g and P x add in the order of a segment sum over the entries, so
    they have its bits."""
    pix = window_indices(height, width, 1, patch, stride).reshape(-1)
    n = len(pix) // (patch * patch)
    i = np.broadcast_to(np.arange(n), (BANDS, n))
    ids = np.stack([i, band_node(i, np.arange(BANDS)[:, None], n)], axis=-1).reshape(-1)
    G = ad.sparse_matrix(len(ids), (1 + BANDS) * n, np.arange(len(ids)), ids, np.ones(len(ids), dtype))
    by_pixel = np.argsort(pix, kind="stable")  # P as CSR: its indptr is h w + 1 long, not n p p + 1
    P = ad.sparse_matrix(height * width, len(pix), pix[by_pixel], by_pixel, np.ones(len(pix), dtype))
    counts = np.maximum(np.bincount(pix, minlength=height * width), 1).astype(dtype)[:, None]
    counts.flags.writeable = False  # one array serves every call of this geometry
    return G, P, counts


def reconstruct(H, grid: PatchGrid, recon, lrms_up: Image):
    """Per-band linear heads on (pan, band) node pairs, overlap-averaged and
    added to the upsampled input; clamped to [0, 1].  Returns the raw
    (h, w, bands) array (plain or tensor, matching H).  Only the pan grid's
    geometry is read, not its patch rows, which may be None.

    recon is the (BANDS, p*p, 2d) stack of heads: head b maps each pair
    [h_pan i | h_band b, i] to the block [h_pan i | h_band b, i] @ recon[b]^T.
    Two constant sparse operators, built once per grid geometry and dtype
    and applied by :func:`autodiff.sparse_apply`, do the index work: G
    gathers H's rows in (band, patch, pan/band) order, read in place as
    (BANDS, n, 2d), so H's gradient is G^T g; after the one stacked matmul
    of the heads, P adds the (window pixel, band) rows into the raster's
    rows, so no per-band index is built and the gradient is P^T g.
    """
    n = grid.n_patches
    dtype = ad.value(H).dtype
    G, P, counts = _recon_operators(grid.height, grid.width, grid.patch, grid.stride, dtype)

    heads = ad.transpose(recon, (0, 2, 1))
    # (BANDS, n, p*p); a plain pass frees the gathered pairs here
    blocks = ad.reshape(ad.sparse_apply(G, H), (BANDS, n, -1)) @ heads
    # one row of BANDS values per window pixel, added into the raster's rows
    rows = ad.reshape(ad.transpose(blocks, (1, 2, 0)), (-1, BANDS))
    summed = ad.sparse_apply(P, rows)  # (h*w, BANDS)
    base = lrms_up.data.reshape(-1, BANDS).astype(dtype)
    fused = ad.clip(summed / counts + base, 0.0, 1.0)
    return ad.reshape(fused, (grid.height, grid.width, BANDS))


@dataclass
class PipelineOutput:
    fused: object  # (h, w, bands) array or tensor; an Image from forward()
    repr: NodeRepr
    graph: HetGraph
    patterns: PatternSet


def run_pipeline(
    scene: ScenePair,
    params: ModelParams,
    cfg: TrainConfig,
    structure=None,
) -> PipelineOutput:
    """Full model pass; plain arrays in, plain arrays out, unless ``params``
    carries autodiff tensors.

    A stage's inputs are let go once it has read them.  The pan and
    multispectral patch grids are read by :func:`embed_patches` only, whose
    stacked copy of their rows is what the embedding's VJP keeps; after it
    only the pan grid's geometry is kept, for :func:`reconstruct`, so
    neither grid's rows live through the rest of the pass."""
    scene.validate()
    cfg.validate()
    lrms_up = scene.lrms_up
    pan_grid = extract_patches(scene.pan, cfg.patch, cfg.stride)
    feats = embed_patches(pan_grid, extract_patches(lrms_up, cfg.patch, cfg.stride), params.w_embed)
    pan_grid = replace(pan_grid, patches=None)
    g = build_graph(feats, cfg.k, structure=structure)
    ps = generate_patterns(g)

    h_local = h_global = None
    if cfg.ablate != "global-only":
        h_local = aggregate_local(ps, g.U, params.alpha, params.w_local)
    if cfg.ablate != "local-only":
        B = build_global_pattern_matrix(ps, params.beta)
        h_global = aggregate_global(global_similarity(B), g.U, params.w_global)
    if cfg.ablate == "full":
        importance = (params.importance_w, params.importance_b, params.importance_q)
        h_local, h_global = weigh_branches(h_local, h_global, importance)
        h = fuse(h_local, dense(h_global))
    else:
        h = dense(h_global) if h_local is None else h_local

    fused = reconstruct(h, pan_grid, params.recon, lrms_up)
    return PipelineOutput(
        fused=fused,
        repr=NodeRepr(h_local=h_local, h_global=h_global, h=h),
        graph=g,
        patterns=ps,
    )


def forward(scene: ScenePair, params: ModelParams, cfg: TrainConfig) -> PipelineOutput:
    """Inference-mode pass; ``fused`` is returned as an :class:`Image`."""
    out = run_pipeline(scene, params, cfg)
    out.fused = Image.from_array(ad.value(out.fused))
    return out
