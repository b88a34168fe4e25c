"""Relation-subset patterns over the multiplex graph.

For every non-empty subset S of the three relations, the pattern with mask S
contains exactly the ordered node pairs that appear in all relations inside
S and in none outside it (an XNOR/AND combination of edge supports).  Each
retained pair carries the mean weight over the relations in S.  Patterns
with empty support are dropped, so a 3-relation graph yields at most 7
patterns whose supports are pairwise disjoint and together tile the union
of the relation supports.

Membership is structural: an edge present with weight 0 still counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .graph import HetGraph, N_RELATIONS

MAX_PATTERNS = (1 << N_RELATIONS) - 1

_ORACLE_NODE_LIMIT = 10_000


def subset_of_mask(mask: int) -> tuple:
    """Bitmask -> sorted tuple of 1-based relation ids, e.g. 5 -> (1, 3)."""
    return tuple(r for r in range(1, N_RELATIONS + 1) if mask >> (r - 1) & 1)


def mask_label(mask: int) -> str:
    return ",".join(str(r) for r in subset_of_mask(mask))


@dataclass
class RelationPattern:
    """One pattern: its relation-subset bitmask and COO entries sorted by
    (row, col); row i, col j encodes the edge j -> i."""

    mask: int
    rows: np.ndarray
    cols: np.ndarray
    vals: object  # ndarray or autodiff tensor

    @property
    def nnz(self):
        return len(self.rows)

    def to_dense(self, n):
        m = np.zeros((n, n), dtype=ad.value(self.vals).dtype)
        m[self.rows, self.cols] = ad.value(self.vals)
        return m


@dataclass
class PatternSet:
    n_nodes: int
    patterns: list

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)

    def masks(self):
        return [p.mask for p in self.patterns]

    def get(self, mask: int) -> RelationPattern | None:
        for p in self.patterns:
            if p.mask == mask:
                return p
        return None


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
    if len(all_keys) == 0:
        return PatternSet(n_nodes=n, patterns=[])
    all_bits = np.concatenate(bits)
    all_vals = ad.concatenate(vals, axis=0)

    uniq, inv = np.unique(all_keys, return_inverse=True)
    masks = np.zeros(len(uniq), dtype=np.uint8)
    np.bitwise_or.at(masks, inv, all_bits)
    counts = np.bincount(inv, minlength=len(uniq))
    sums = ad.index_add(len(uniq), inv, all_vals)
    means = sums / counts.astype(ad.value(all_vals).dtype)

    out = []
    for mask in range(1, MAX_PATTERNS + 1):
        sel = np.flatnonzero(masks == mask)
        if sel.size == 0:
            continue
        kk = uniq[sel]  # ascending key = sorted by (row, col)
        out.append(
            RelationPattern(mask=mask, rows=kk // n, cols=kk % n, vals=means[sel])
        )
    return PatternSet(n_nodes=n, patterns=out)


def pattern_oracle(g: HetGraph) -> PatternSet:
    """Independent dense reference: materialise each relation as an (n, n)
    presence/value pair and classify every ordered pair by direct membership
    tests.  Quadratic in nodes; guarded for desk-scale graphs only."""
    n = g.n_nodes
    if n > _ORACLE_NODE_LIMIT:
        raise ValueError(f"oracle limited to {_ORACLE_NODE_LIMIT} nodes, got {n}")
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
    return PatternSet(n_nodes=n, patterns=out)


def patterns_allclose(a: PatternSet, b: PatternSet, tol: float = 1e-9) -> bool:
    """Same masks, identical supports, weights equal within tol."""
    if a.n_nodes != b.n_nodes or a.masks() != b.masks():
        return False
    for pa, pb in zip(a.patterns, b.patterns):
        if not (
            np.array_equal(pa.rows, pb.rows)
            and np.array_equal(pa.cols, pb.cols)
            and np.allclose(ad.value(pa.vals), ad.value(pb.vals), rtol=0.0, atol=tol)
        ):
            return False
    return True
