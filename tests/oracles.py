"""Reference implementations that only the tests call.

Each one is written independently of the code path it checks: patterns by
dense membership tests over every ordered node pair, kNN picks by a
whole-matrix selection on knn_select's own similarity product, overlap
averaging by a bincount over the windows' pixel indices, exp/log as plain
tape ops for the dense InfoNCE and composite-expression oracles, and row
normalisation as a chain of the elementwise tape ops, and the model-size
bound's widest d by bisection over the config's parameter count.  The tape
audit reads what a tape holds from its VJP closures, not from the ops'
own account of what they save.  constant_image builds the one-value test
images the package itself has no use for.
"""

import types

import numpy as np
from scipy import sparse

import graphpan.autodiff as ad
from graphpan.config import MAX_PARAMS, TrainConfig
from graphpan.graph import N_RELATIONS, self_similarities
from graphpan.imaging import Image, PatchGrid, window_indices
from graphpan.patterns import MAX_PATTERNS, PatternSet, RelationPattern

ORACLE_NODE_LIMIT = 10_000


# ---------------------------------------------------------------------------
# tape ops


def exp(a):
    if not isinstance(a, ad.Tensor):
        return np.exp(a)
    out_data = np.exp(a.data)
    return ad.Tensor(out_data, (a,), lambda g: (g * out_data,))


def log(a):
    if not isinstance(a, ad.Tensor):
        return np.log(a)
    da = a.data
    return ad.Tensor(np.log(da), (a,), lambda g: (g / da,))


def chained_unit_rows(x, right=None):
    """``autodiff.unit_rows`` composed from the elementwise tape ops: the
    oracle for the one-node op, whose value must keep these bits."""
    xg = x if right is None else x @ (right @ ad.transpose(right))
    q = ad.sum(xg * x, axis=-1, keepdims=True)
    keep = (ad.value(q) > 0.0).astype(ad.value(q).dtype)
    out = x / ad.sqrt(q * keep + (1.0 - keep))
    return out if keep.all() else out * keep


# ---------------------------------------------------------------------------
# tape audit


def tape_buffers(root):
    """The arrays the VJP closures of ``root``'s tape hold, each counted by
    its base buffer once: a view stands for the array it views, and a scipy
    sparse matrix for its data, indices and indptr.  The closures are walked
    through the tuples, lists and nested functions they hold.  Call it
    before ``root.backward()``, which drops each VJP as it passes."""
    buffers, seen = {}, set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj
        elif sparse.issparse(obj):
            for part in (obj.data, obj.indices, obj.indptr):
                walk(part)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                walk(cell.cell_contents)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                walk(item)

    for node in ad._topo_order(root):
        if node.vjp is not None:
            walk(node.vjp)
    return list(buffers.values())


# ---------------------------------------------------------------------------
# relation patterns


def to_dense(p: RelationPattern, n):
    """The (n, n) matrix holding one pattern's entries."""
    m = np.zeros((n, n), dtype=ad.value(p.vals).dtype)
    m[p.rows, p.cols] = ad.value(p.vals)
    return m


def pattern_set(n, patterns) -> PatternSet:
    """The table of hand-built :class:`RelationPattern` objects with
    distinct masks, each sorted by (row, col): their entries stably sorted
    into (row, col) order, as :func:`generate_patterns` lays its table out,
    so a repeated (row, col) stays adjacent."""
    patterns = sorted(patterns, key=lambda p: p.mask)

    def cat(field, dtype):
        parts = [getattr(p, field) for p in patterns]
        return np.concatenate(parts) if parts else np.empty(0, dtype)

    rows, cols = cat("rows", np.int64), cat("cols", np.int64)
    order = np.argsort(rows * n + cols, kind="stable")
    slot = np.repeat(np.arange(len(patterns)), [p.nnz for p in patterns])
    return PatternSet(
        n_nodes=n,
        masks=np.array([p.mask for p in patterns], dtype=np.int64),
        slot=slot[order],
        rows=rows[order],
        cols=cols[order],
        vals=cat("vals", np.float64)[order],
    )


def masks(ps: PatternSet):
    return [p.mask for p in ps]


def get(ps: PatternSet, mask: int) -> RelationPattern | None:
    for p in ps:
        if p.mask == mask:
            return p
    return None


def pattern_oracle(g) -> PatternSet:
    """Independent dense reference: materialise each relation as an (n, n)
    presence/value pair and classify every ordered pair by direct membership
    tests.  Quadratic in nodes; guarded for desk-scale graphs only."""
    n = g.n_nodes
    if n > ORACLE_NODE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_NODE_LIMIT} nodes, got {n}")
    present = np.zeros((N_RELATIONS, n, n), dtype=bool)
    dense = np.zeros((N_RELATIONS, n, n), dtype=np.float64)
    for r in range(1, N_RELATIONS + 1):
        src, dst, w = g.relation(r)
        present[r - 1, dst, src] = True
        dense[r - 1, dst, src] = ad.value(w)

    out = []
    for mask in range(1, MAX_PATTERNS + 1):
        inside = [r for r in range(N_RELATIONS) if mask >> r & 1]
        outside = [r for r in range(N_RELATIONS) if not mask >> r & 1]
        hit = np.ones((n, n), dtype=bool)
        for r in inside:
            hit &= present[r]
        for r in outside:
            hit &= ~present[r]
        pairs = np.argwhere(hit)
        if pairs.size == 0:
            continue
        rows, cols = pairs[:, 0], pairs[:, 1]
        vals = dense[inside][:, rows, cols].mean(axis=0)
        out.append(RelationPattern(mask=mask, rows=rows, cols=cols, vals=vals))
    return pattern_set(n, out)


def patterns_allclose(a: PatternSet, b: PatternSet, tol: float = 1e-9) -> bool:
    """Same masks, identical supports, weights equal within tol."""
    if a.n_nodes != b.n_nodes or masks(a) != masks(b):
        return False
    for pa, pb in zip(a, b):
        if not (
            np.array_equal(pa.rows, pb.rows)
            and np.array_equal(pa.cols, pb.cols)
            and np.allclose(ad.value(pa.vals), ad.value(pb.vals), rtol=0.0, atol=tol)
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# neighbour selection


def knn_select_whole(feats, k):
    """``graph.knn_select``'s rule applied to the whole (m, m) similarity
    matrix at once: the same product (``graph.self_similarities``), then for
    every row a full partition, the threshold and the lowest-index tie fill,
    with no candidate bound."""
    m = len(feats)
    if m < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    sims = self_similarities(feats)
    kk = min(k, m - 1)
    kth = -np.partition(-sims, kk - 1, axis=1)[:, kk - 1:kk]
    above, tied = sims > kth, sims == kth
    need = kk - above.sum(axis=1, keepdims=True)
    picked = above | (tied & (np.cumsum(tied, axis=1) <= need))
    dst, src = np.nonzero(picked)
    return src, dst


# ---------------------------------------------------------------------------
# images and patches


def constant_image(height, width, channels, fill=0.0) -> Image:
    """A float32 image of one value everywhere."""
    return Image(np.full((height, width, channels), fill, dtype=np.float32))


def reassemble_patches(grid: PatchGrid, patch_values: np.ndarray | None = None) -> Image:
    """Overlap-average patches back to an image (uncovered cells become 0)."""
    vals = grid.patches if patch_values is None else np.asarray(patch_values)
    if vals.shape != grid.patches.shape:
        raise ValueError(f"patch_values shape {vals.shape} != {grid.patches.shape}")
    size = grid.height * grid.width * grid.channels
    pix = window_indices(grid.height, grid.width, grid.channels, grid.patch, grid.stride).reshape(-1)
    total = np.bincount(pix, weights=vals.reshape(-1).astype(np.float64), minlength=size)
    avg = total / np.maximum(np.bincount(pix, minlength=size), 1)
    return Image.from_array(avg.reshape(grid.height, grid.width, grid.channels))


# ---------------------------------------------------------------------------
# model size


def largest_valid_d():
    """The widest feature width d at which the default config holds at most
    MAX_PARAMS learned values, by bisection on ``param_count``."""
    lo, hi = 1, MAX_PARAMS  # d = MAX_PARAMS is far past the bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if TrainConfig(d=mid).param_count <= MAX_PARAMS:
            lo = mid
        else:
            hi = mid
    return lo
