"""Heterogeneous spatial-spectral patch graph.

Nodes: N pan-patch nodes (ids 0..N-1), then one block of N band-patch
nodes per band; :func:`band_node` gives the id of band b of patch i.  Three
weighted directed relations connect them; an entry with row i, column j is
an edge j -> i (rows receive):

  1. pan -> pan: k nearest neighbours by cosine similarity of pan features,
  2. band -> band: per-band k nearest neighbours of band features,
  3. band <-> pan within the same patch, both directions.

Edge weights are cosine similarities clamped to [0, 1], taken as dot
products of the endpoints' unit rows (:func:`autodiff.unit_rows` of U,
computed once, one tape node).  Neighbour selection happens on detached
feature values; weights are recomputed through the ops layer so gradients
flow into the embeddings while the topology stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import unit_rows
from .imaging import BANDS, PatchGrid

N_RELATIONS = 3
_KNN_CHUNKS = 64  # fewest strided column sets whose maxima bound knn_select's threshold


def band_node(i, b, n_patches):
    """Node id of band b of patch i (scalars or broadcasting int arrays).

    The one statement of the node layout: pan node i has id i, and band b's
    nodes are the contiguous block [(1 + b) N, (2 + b) N) after the pan block
    and the blocks of the bands before it."""
    return (1 + b) * n_patches + i


@dataclass
class GraphStructure:
    """Edge topology only: per-relation (src, dst) int arrays (int32 from
    :func:`build_structure`), canonically sorted by (dst, src)."""

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


def embed_patches(pan_grid: PatchGrid, ms_grid: PatchGrid, w_embed):
    """Linear patch embeddings: feature_i = W @ flattened_patch_i, one W per
    node kind.  The pan patches, then channel b of the BANDS-channel
    ``ms_grid`` as band b, form one (1 + BANDS, N, p*p) stack in the node
    order of :func:`band_node`; slot s of the (1 + BANDS, d, p*p) ``w_embed``
    embeds block s.  Returns the (1 + BANDS, N, d) features."""
    if ms_grid.channels != BANDS:
        raise ValueError(f"need a {BANDS}-channel multispectral grid, got {ms_grid.channels}")
    # one C-ordered copy; channel-last (N, p*p*BANDS) rows -> (BANDS, N, p*p)
    patches = np.empty((1 + BANDS, *pan_grid.patches.shape), ad.value(w_embed).dtype)
    patches[0] = pan_grid.patches
    patches[1:] = np.moveaxis(ms_grid.patches.reshape(ms_grid.n_patches, -1, BANDS), -1, 0)
    return patches @ ad.transpose(w_embed, (0, 2, 1))


def self_similarities(feats):
    """The (m, m) cosines of the rows of feats, as dot products of their
    :func:`unit_rows`, with -inf on the diagonal.  Plain-valued."""
    unit = unit_rows(np.asarray(feats, dtype=np.float64))
    # one GEMM on a contiguous transpose: unit @ unit.T would take numpy's
    # symmetric path (half the product, then a mirror copy), which is slower
    # and gives two equal rows cosines 1 ulp apart to a third row wherever
    # only one of the pair's entries is mirrored
    sims = unit @ np.ascontiguousarray(unit.T)
    np.fill_diagonal(sims, -np.inf)
    return sims


def knn_select(feats: np.ndarray, k: int):
    """Pick the k highest-cosine distinct neighbours j != i for each i.

    Plain-valued; every j at or above a row's k-th largest cosine is picked,
    and ties at that threshold are filled from the lowest index j.  Ties are
    among the computed entries of :func:`self_similarities`: two equal rows
    can still get cosines 1 ulp apart from a third.  Zero-norm vectors are
    treated as similarity 0 to everything.  Returns (src, dst) arrays sorted
    by (dst, src).

    The selection runs on candidates only: the entries of a row at or above
    a bound lo, taken from the maxima of strided column sets read down the
    columns of the (near-symmetric) product and lowered by 2 d eps, so lo
    never exceeds the row's own k-th largest entry and the picks are those
    of a selection on the whole row.
    """
    m = len(feats)
    if m < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    sims = self_similarities(feats)
    kk = min(k, m - 1)
    # the kk largest maxima of c >= kk disjoint column sets (column j in set
    # j mod c) are kk distinct entries of the row, so their smallest is at
    # most the row's kk-th largest entry, and so at most every pick.  The
    # maxima are read down the columns, as those of row sets of column i:
    # entry (j, i) is the dot product of the same unit rows as (i, j) summed
    # in another order, each within d u of the exact value (u = eps / 2), so
    # lowering the bound by 2 d eps keeps lo below every pick
    c = max(_KNN_CHUNKS, kk)
    q, r = divmod(m, c)
    maxima = sims[:q * c].reshape(q, c, m).max(axis=0, initial=-np.inf)
    np.maximum(maxima[:r], sims[q * c:], out=maxima[:r])
    lo = np.partition(maxima, c - kk, axis=0)[c - kk, :, None]
    lo = lo - 2 * np.shape(feats)[1] * np.finfo(np.float64).eps
    del maxima  # lo is a copy now: the (c, m) maxima and their partition go before the scan
    # the candidates, in row-major order and so sorted by (dst, src)
    flat = np.flatnonzero(sims >= lo)
    dst = flat // m
    counts = np.bincount(dst, minlength=m)
    starts = np.cumsum(counts) - counts
    cand = np.full((m, counts.max()), -np.inf)
    cand[dst, np.arange(len(flat)) - starts[dst]] = sims.reshape(-1)[flat]
    # a stable sort orders each row's candidates by value descending, then
    # by index, with the -inf padding last: its first kk are every entry
    # above the kk-th largest, then the ties at it from the lowest index
    top = np.sort(np.argsort(-cand, axis=1, kind="stable")[:, :kk], axis=1)
    picked = (starts[:, None] + top).reshape(-1)
    return flat[picked] % m, dst[picked]


def edge_weights(unit, src, dst):
    """Clamped cosine similarity of each edge's endpoints, given the rows of
    :func:`unit_rows` (differentiable).  One :func:`autodiff.edge_dots`
    node, so the tape keeps an (E,) vector and no (E, d) gather."""
    return ad.clip(ad.edge_dots(unit, src, dst), 0.0, 1.0)


def build_structure(feats, k: int) -> GraphStructure:
    """Select graph topology from detached feature values; feats is the
    (1 + BANDS, N, d) stack of :func:`embed_patches`, whose block 0 gives
    relation 1 and blocks 1..BANDS relation 2."""
    blocks = ad.value(feats)
    n = blocks.shape[1]
    (s1, d1), *knn = [knn_select(x, k) for x in blocks]
    s2 = np.concatenate([band_node(sb, b, n) for b, (sb, _) in enumerate(knn)])
    d2 = np.concatenate([band_node(db, b, n) for b, (_, db) in enumerate(knn)])

    # pan i receives from its bands in band order, then each band node from
    # its pan node: already sorted by (dst, src)
    i = np.arange(n, dtype=np.int64)
    band_ids = band_node(i[:, None], np.arange(BANDS)[None, :], n)  # (n, BANDS)
    s3 = np.concatenate([band_ids.reshape(-1), np.tile(i, BANDS)])
    d3 = np.concatenate([np.repeat(i, BANDS), band_ids.T.reshape(-1)])

    # held as int32: the edge-weight nodes keep them on the tape
    edges = tuple(
        (s.astype(np.int32), d.astype(np.int32)) for s, d in ((s1, d1), (s2, d2), (s3, d3))
    )
    return GraphStructure(n_patches=n, edges=edges, n_nodes=(1 + BANDS) * n)


def build_graph(feats, k: int, structure: GraphStructure | None = None) -> HetGraph:
    """Assemble the multiplex graph from the (1 + BANDS, N, d) patch
    embeddings; U is their (node, d) reshape, in node-id order.

    When ``structure`` is given, neighbour selection is skipped and only the
    edge weights are recomputed (used to freeze topology for finite
    differences).
    """
    if structure is None:
        structure = build_structure(feats, k)
    U = ad.reshape(feats, (-1, ad.value(feats).shape[-1]))
    unit = unit_rows(U)
    weights = [edge_weights(unit, src, dst) for src, dst in structure.edges]
    return HetGraph(structure=structure, weights=weights, U=U)


def random_multiplex_graph(n_nodes: int, density: float, seed: int) -> HetGraph:
    """Synthetic 3-relation graph for tests and benchmarks: each ordered
    off-diagonal pair enters each relation independently with ``density``,
    weights uniform in (0, 1].

    Each relation is drawn in O(E): a binomial edge count, then that many
    distinct indices into the n (n - 1) off-diagonal pairs in row-major
    order, so the same distribution with no (n, n) array."""
    rng = np.random.default_rng(seed)
    pairs = n_nodes * (n_nodes - 1)
    edges, weights = [], []
    for _ in range(N_RELATIONS):
        e = rng.binomial(pairs, density)
        flat = np.sort(rng.choice(pairs, e, replace=False, shuffle=False))
        # row = receiver; index j of row dst's n - 1 off-diagonal columns
        # skips the diagonal, and sorted indices are sorted by (dst, src)
        dst, j = np.divmod(flat, n_nodes - 1)
        src = j + (j >= dst)
        weights.append(rng.uniform(1e-6, 1.0, size=e))
        edges.append((src.astype(np.int64), dst.astype(np.int64)))
    structure = GraphStructure(n_patches=0, edges=tuple(edges), n_nodes=n_nodes)
    return HetGraph(structure=structure, weights=weights, U=np.zeros((n_nodes, 1)))
