"""Heterogeneous spatial-spectral patch graph.

Nodes: N pan-patch nodes (ids 0..N-1) and 4N band-patch nodes after them,
patch by patch; :func:`band_node` gives the id of band b of patch i.  Three
weighted directed relations connect them; an entry with row i, column j is
an edge j -> i (rows receive):

  1. pan -> pan: k nearest neighbours by cosine similarity of pan features,
  2. band -> band: per-band k nearest neighbours of band features,
  3. band <-> pan within the same patch, both directions.

Edge weights are cosine similarities clamped to [0, 1].  Neighbour selection
happens on detached feature values; weights are recomputed through the ops
layer so gradients flow into the embeddings while the topology stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .imaging import BANDS, PatchGrid

N_RELATIONS = 3


def band_node(i, b, n_patches):
    """Node id of band b of patch i (scalars or broadcasting int arrays);
    pan node i has id i."""
    return n_patches + BANDS * i + b


@dataclass
class GraphStructure:
    """Edge topology only: per-relation (src, dst) int arrays, canonically
    sorted by (dst, src)."""

    n_patches: int
    edges: tuple  # three (src, dst) pairs
    n_nodes: int = -1

    def __post_init__(self):
        if self.n_nodes < 0:
            self.n_nodes = (1 + BANDS) * self.n_patches


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


def knn_select(feats: np.ndarray, k: int):
    """Pick the k highest-cosine distinct neighbours j != i for each i.

    Plain-valued; ties break toward the lower index j; zero-norm vectors are
    treated as similarity 0 to everything.  Returns (src, dst) arrays sorted
    by (dst, src).
    """
    f = np.asarray(feats, dtype=np.float64)
    m = f.shape[0]
    if m < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    norms = np.linalg.norm(f, axis=1, keepdims=True)
    unit = np.divide(f, norms, out=np.zeros_like(f), where=norms > 0)
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    kk = min(k, m - 1)
    # every j above a row's kk-th largest similarity is picked, and ties at
    # that threshold are filled from the lowest index j
    kth = -np.partition(-sims, kk - 1, axis=1)[:, kk - 1:kk]
    above, tied = sims > kth, sims == kth
    need = kk - above.sum(axis=1, keepdims=True)
    picked = above | (tied & (np.cumsum(tied, axis=1) <= need))
    dst, src = np.nonzero(picked)  # row-major, so sorted by (dst, src)
    return src, dst


def knn_edges(feats, k: int):
    """k-NN relation over one feature set: (src, dst, clamped cosine weights)."""
    src, dst = knn_select(ad.value(feats), k)
    w = edge_weights(feats, src, dst)
    return src, dst, w


def edge_weights(feats, src, dst):
    """Clamped cosine similarity between endpoint rows (differentiable)."""
    return ad.clip(cosine_rows(feats[dst], feats[src]), 0.0, 1.0)


def cosine_rows(a, b):
    """Row-wise cosine similarity; rows with zero norm give similarity 0."""
    num = ad.sum(a * b, axis=1)
    qa = ad.sum(a * a, axis=1)
    qb = ad.sum(b * b, axis=1)
    keep = (ad.value(qa) > 0.0) & (ad.value(qb) > 0.0)
    keepf = keep.astype(ad.value(qa).dtype)
    dead = 1.0 - keepf
    na = ad.sqrt(qa * keepf + dead)
    nb = ad.sqrt(qb * keepf + dead)
    return (num / (na * nb)) * keepf


def _stack_node_attributes(pan_feats, band_feats):
    # band rows interleave as (patch 0: bands 0..3, patch 1: bands 0..3, ...)
    n, d = ad.value(pan_feats).shape
    bands = ad.concatenate(band_feats, axis=1)  # (N, 4d)
    bands = ad.reshape(bands, (BANDS * n, d))
    return ad.concatenate([pan_feats, bands], axis=0)


def build_structure(pan_feats, band_feats, k: int) -> GraphStructure:
    """Select graph topology from detached feature values."""
    xp = ad.value(pan_feats)
    n = xp.shape[0]
    s1, d1 = knn_select(xp, k)

    srcs, dsts = [], []
    for b, yb in enumerate(band_feats):
        sb, db = knn_select(ad.value(yb), k)
        srcs.append(band_node(sb, b, n))
        dsts.append(band_node(db, b, n))
    s2 = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
    d2 = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
    o2 = np.lexsort((s2, d2))
    s2, d2 = s2[o2], d2[o2]

    i = np.arange(n, dtype=np.int64)
    band_ids = band_node(i[:, None], np.arange(BANDS)[None, :], n).reshape(-1)
    pan_ids = np.repeat(i, BANDS)
    s3 = np.concatenate([band_ids, pan_ids])
    d3 = np.concatenate([pan_ids, band_ids])
    o3 = np.lexsort((s3, d3))
    s3, d3 = s3[o3], d3[o3]

    return GraphStructure(n_patches=n, edges=((s1, d1), (s2, d2), (s3, d3)))


def build_graph(pan_feats, band_feats, k: int, structure: GraphStructure | None = None) -> HetGraph:
    """Assemble the multiplex graph from patch embeddings.

    When ``structure`` is given, neighbour selection is skipped and only the
    edge weights are recomputed (used to freeze topology for finite
    differences).
    """
    if structure is None:
        structure = build_structure(pan_feats, band_feats, k)
    U = _stack_node_attributes(pan_feats, band_feats)
    weights = []
    for src, dst in structure.edges:
        weights.append(edge_weights(U, src, dst))
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
        dst, src = np.nonzero(mask)  # row = receiver
        w = rng.uniform(1e-6, 1.0, size=len(dst))
        order = np.lexsort((src, dst))
        edges.append((src[order].astype(np.int64), dst[order].astype(np.int64)))
        weights.append(w[order])
    structure = GraphStructure(n_patches=0, edges=tuple(edges), n_nodes=n_nodes)
    return HetGraph(structure=structure, weights=weights, U=np.zeros((n_nodes, 1)))
