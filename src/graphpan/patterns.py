"""Relation-subset patterns over the multiplex graph.

For every non-empty subset S of the three relations, the pattern with mask S
contains exactly the ordered node pairs that appear in all relations inside
S and in none outside it (an XNOR/AND combination of edge supports).  Each
retained pair carries the mean weight over the relations in S.  Patterns
with empty support are dropped, so a 3-relation graph yields at most 7
patterns whose supports are pairwise disjoint and together tile the union
of the relation supports.

All patterns are held as one COO table (:class:`PatternSet`) in (row,
col) order, the order the merged relation keys come in, so each consumer
reads every pattern with one op, and a sparse matrix of the table or of
its transpose is built without a sort; iterating a table yields each
pattern's entries of it.

Membership is structural: an edge present with weight 0 still counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graph import HetGraph, N_RELATIONS

MAX_PATTERNS = (1 << N_RELATIONS) - 1


def subset_of_mask(mask: int) -> tuple:
    """Bitmask -> sorted tuple of 1-based relation ids, e.g. 5 -> (1, 3)."""
    return tuple(r for r in range(1, N_RELATIONS + 1) if mask >> (r - 1) & 1)


def mask_label(mask: int) -> str:
    return ",".join(str(r) for r in subset_of_mask(mask))


@dataclass
class RelationPattern:
    """One pattern's entries of a :class:`PatternSet`: its relation-subset
    bitmask and plain-valued COO entries sorted by (row, col); row i, col j
    encodes the edge j -> i."""

    mask: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self):
        return len(self.rows)


@dataclass
class PatternSet:
    """Every pattern of a graph as one COO table sorted by (row, col).
    ``masks`` lists the m live masks in ascending order, and entry e
    belongs to pattern ``masks[slot[e]]``; ``rows``, ``cols`` and ``slot``
    are (E,) index arrays (int32 in a generated table, as ``masks`` is, so
    every index array derived from them is too) and ``vals`` is the (E,)
    entry values, a plain array or a tensor.

    ``len`` is m, and iteration yields, in mask order, each pattern's
    entries (still in (row, col) order) as a plain-valued
    :class:`RelationPattern`, so it tapes nothing."""

    n_nodes: int
    masks: np.ndarray
    slot: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: object

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        vals = ad.value(self.vals)
        for s, mask in enumerate(self.masks):
            mine = np.flatnonzero(self.slot == s)
            yield RelationPattern(int(mask), self.rows[mine], self.cols[mine], vals[mine])


def _unique_inverse(keys):
    """``np.unique(keys, return_inverse=True)`` for keys that arrive as
    ascending runs, one per relation: a stable sort merges the runs instead
    of a full sort, and each run of equal keys is one entry.  Also returns
    the sorting permutation and each run's start in the sorted order.  The
    inverse is int32: it indexes a table of fewer than 2^31 entries."""
    by_key = np.argsort(keys, kind="stable")
    ordered = keys[by_key]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    inv = np.empty(len(keys), dtype=np.int32)
    inv[by_key] = np.cumsum(starts) - 1
    return ordered[starts], inv, by_key, np.flatnonzero(starts)


def generate_patterns(g: HetGraph) -> PatternSet:
    """Sparse pattern extraction; weight averaging stays differentiable."""
    n = g.n_nodes
    keys, bits, vals = [], [], []
    for r in range(1, N_RELATIONS + 1):
        src, dst, w = g.relation(r)
        keys.append(dst.astype(np.int64) * n + src.astype(np.int64))
        bits.append(np.full(len(src), 1 << (r - 1), dtype=np.uint8))
        vals.append(w)
    all_keys = np.concatenate(keys)
    all_vals = ad.concatenate(vals, axis=0)

    uniq, inv, by_key, starts = _unique_inverse(all_keys)
    key_masks = np.bitwise_or.reduceat(np.concatenate(bits)[by_key], starts)
    counts = np.diff(starts, append=len(all_keys))
    sums = ad.index_add(len(uniq), inv, all_vals)
    means = sums / counts.astype(ad.value(all_vals).dtype)

    # uniq ascends by key = (row, col): the table keeps that order
    live = np.flatnonzero(np.bincount(key_masks, minlength=MAX_PATTERNS + 1)[1:]) + 1
    rows, cols = np.divmod(uniq, n)
    return PatternSet(
        n_nodes=n,
        masks=live.astype(np.int32),
        slot=np.searchsorted(live, key_masks).astype(np.int32),
        rows=rows.astype(np.int32),
        cols=cols.astype(np.int32),
        vals=means,
    )
