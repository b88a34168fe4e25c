"""Heterogeneous spatial-spectral patch graph.

Nodes: N pan-patch nodes (ids 0..N-1), then one block of N band-patch
nodes per band; :func:`band_node` gives the id of band b of patch i.  Three
weighted directed relations connect them; an entry with row i, column j is
an edge j -> i (rows receive):

  1. pan -> pan: k nearest neighbours by cosine similarity of pan features,
  2. band -> band: per-band k nearest neighbours of band features,
  3. band <-> pan within the same patch, both directions.

Edge weights are cosine similarities clamped to [0, 1], taken as dot
products of the endpoints' unit rows (:func:`unit_rows` of U, computed
once).  Neighbour selection happens on detached feature values; weights are
recomputed through the ops layer so gradients flow into the embeddings while
the topology stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .imaging import BANDS, PatchGrid

N_RELATIONS = 3
_KNN_BLOCK = 256  # similarity rows selected at once by knn_select


def band_node(i, b, n_patches):
    """Node id of band b of patch i (scalars or broadcasting int arrays).

    The one statement of the node layout: pan node i has id i, and band b's
    nodes are the contiguous block [(1 + b) N, (2 + b) N) after the pan block
    and the blocks of the bands before it."""
    return (1 + b) * n_patches + i


@dataclass
class GraphStructure:
    """Edge topology only: per-relation (src, dst) int arrays, canonically
    sorted by (dst, src)."""

    n_patches: int
    edges: tuple  # three (src, dst) pairs
    n_nodes: int


@dataclass
class HetGraph:
    """Structure plus per-edge weights and the stacked node attributes U.

    ``weights[r]`` aligns with ``structure.edges[r]``; both U and the weight
    vectors may be autodiff tensors during training.
    """

    structure: GraphStructure
    weights: list
    U: object

    @property
    def n_patches(self):
        return self.structure.n_patches

    @property
    def n_nodes(self):
        return self.structure.n_nodes

    def relation(self, r):
        """(src, dst, weights) of relation r in 1..3."""
        src, dst = self.structure.edges[r - 1]
        return src, dst, self.weights[r - 1]


def embed_patches(pan_grid: PatchGrid, band_grids, w_pan, w_band):
    """Linear patch embeddings: feature_i = W @ flattened_patch_i.

    Returns (pan_feats (N, d), [band_feats (N, d)] * 4).
    """
    dtype = ad.value(w_pan).dtype
    xp = pan_grid.patches.astype(dtype) @ ad.transpose(w_pan)
    ys = [g.patches.astype(dtype) @ ad.transpose(w) for g, w in zip(band_grids, w_band)]
    return xp, ys


def unit_rows(x, right=None):
    """Rows (vectors along the last axis) scaled to unit L2 norm; a zero row
    stays zero and passes no gradient.  Plain arrays in, plain arrays out;
    tensors are taped.

    With a 2-D ``right`` the rows of x are scaled instead so that those of
    x @ right have unit norm, the squared norms taken as x G x^T with the
    Gram G = right right^T, so the product x @ right is never formed.
    """
    xg = x if right is None else x @ (right @ ad.transpose(right))
    q = ad.sum(xg * x, axis=-1, keepdims=True)
    keep = (ad.value(q) > 0.0).astype(ad.value(q).dtype)
    out = x / ad.sqrt(q * keep + (1.0 - keep))
    # a dropped row comes out as x / 1, so the mask is applied (a second
    # (m, d) array) only when some row is dropped
    return out if keep.all() else out * keep


def knn_select(feats: np.ndarray, k: int):
    """Pick the k highest-cosine distinct neighbours j != i for each i.

    Plain-valued; ties break toward the lower index j; zero-norm vectors are
    treated as similarity 0 to everything.  Returns (src, dst) arrays sorted
    by (dst, src).
    """
    unit = unit_rows(np.asarray(feats, dtype=np.float64))
    m = unit.shape[0]
    if m < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    # one product, selected _KNN_BLOCK rows at a time: a row-blocked product
    # can differ in the last bit and so pick differently on exact ties
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    kk = min(k, m - 1)
    neg = np.empty((min(_KNN_BLOCK, m), m))
    flat = []  # picked positions in the row-major (m, m) matrix
    for i in range(0, m, _KNN_BLOCK):
        s = sims[i:i + _KNN_BLOCK]
        part = np.negative(s, out=neg[:len(s)])
        part.partition(kk - 1, axis=1)
        kth = -part[:, kk - 1:kk]
        # every j at or above a row's kk-th largest similarity is picked;
        # a row with more than kk such j fills its ties at that threshold
        # from the lowest index j
        picked = s >= kth
        over = np.count_nonzero(picked, axis=1) > kk
        if over.any():
            so, ko = s[over], kth[over]
            above, tied = so > ko, so == ko
            need = kk - np.count_nonzero(above, axis=1)[:, None]
            picked[over] = above | (tied & (np.cumsum(tied, axis=1) <= need))
        flat.append(np.flatnonzero(picked) + i * m)
    dst, src = np.divmod(np.concatenate(flat), m)  # ascending, so sorted by (dst, src)
    return src, dst


def edge_weights(unit, src, dst):
    """Clamped cosine similarity of each edge's endpoints, given the rows of
    :func:`unit_rows` (differentiable).  One :func:`autodiff.edge_dots`
    node, so the tape keeps an (E,) vector and no (E, d) gather."""
    return ad.clip(ad.edge_dots(unit, src, dst), 0.0, 1.0)


def build_structure(pan_feats, band_feats, k: int) -> GraphStructure:
    """Select graph topology from detached feature values."""
    xp = ad.value(pan_feats)
    n = xp.shape[0]
    s1, d1 = knn_select(xp, k)

    knn = [knn_select(ad.value(yb), k) for yb in band_feats]
    s2 = np.concatenate([band_node(sb, b, n) for b, (sb, _) in enumerate(knn)])
    d2 = np.concatenate([band_node(db, b, n) for b, (_, db) in enumerate(knn)])

    # pan i receives from its bands in band order, then each band node from
    # its pan node: already sorted by (dst, src)
    i = np.arange(n, dtype=np.int64)
    band_ids = band_node(i[:, None], np.arange(BANDS)[None, :], n)  # (n, BANDS)
    s3 = np.concatenate([band_ids.reshape(-1), np.tile(i, BANDS)])
    d3 = np.concatenate([np.repeat(i, BANDS), band_ids.T.reshape(-1)])

    return GraphStructure(
        n_patches=n, edges=((s1, d1), (s2, d2), (s3, d3)), n_nodes=(1 + BANDS) * n
    )


def build_graph(pan_feats, band_feats, k: int, structure: GraphStructure | None = None) -> HetGraph:
    """Assemble the multiplex graph from patch embeddings.

    When ``structure`` is given, neighbour selection is skipped and only the
    edge weights are recomputed (used to freeze topology for finite
    differences).
    """
    if structure is None:
        structure = build_structure(pan_feats, band_feats, k)
    U = ad.concatenate([pan_feats, *band_feats], axis=0)
    unit = unit_rows(U)
    weights = [edge_weights(unit, src, dst) for src, dst in structure.edges]
    return HetGraph(structure=structure, weights=weights, U=U)


def random_multiplex_graph(n_nodes: int, density: float, seed: int) -> HetGraph:
    """Synthetic 3-relation graph for tests and benchmarks: each ordered
    off-diagonal pair enters each relation independently with ``density``,
    weights uniform in (0, 1]."""
    rng = np.random.default_rng(seed)
    edges, weights = [], []
    eye = np.eye(n_nodes, dtype=bool)
    for _ in range(N_RELATIONS):
        mask = (rng.random((n_nodes, n_nodes)) < density) & ~eye
        dst, src = np.nonzero(mask)  # row = receiver; row-major, so sorted by (dst, src)
        weights.append(rng.uniform(1e-6, 1.0, size=len(dst)))
        edges.append((src.astype(np.int64), dst.astype(np.int64)))
    structure = GraphStructure(n_patches=0, edges=tuple(edges), n_nodes=n_nodes)
    return HetGraph(structure=structure, weights=weights, U=np.zeros((n_nodes, 1)))
