"""Relation-subset pattern extraction.

The sparse implementation is compared against an independent dense oracle
that classifies every ordered pair by direct membership tests, plus a fully
hand-computed 4-node example covering overlapping relations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpan.autodiff as ad
from graphpan.graph import GraphStructure, HetGraph, build_graph, random_multiplex_graph
from graphpan.imaging import BANDS
from graphpan.patterns import (
    MAX_PATTERNS,
    PatternSet,
    RelationPattern,
    generate_patterns,
    mask_label,
    pattern_oracle,
    patterns_allclose,
    subset_of_mask,
)


def make_graph(n, rel_edges):
    """rel_edges: per relation list of (src, dst, w) triples."""
    edges, weights = [], []
    for triples in rel_edges:
        if triples:
            src = np.array([t[0] for t in triples], dtype=np.int64)
            dst = np.array([t[1] for t in triples], dtype=np.int64)
            w = np.array([t[2] for t in triples], dtype=np.float64)
        else:
            src = dst = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=np.float64)
        order = np.lexsort((src, dst))
        edges.append((src[order], dst[order]))
        weights.append(w[order])
    structure = GraphStructure(n_patches=0, edges=tuple(edges), n_nodes=n)
    return HetGraph(structure=structure, weights=weights, U=np.zeros((n, 1)))


class TestMaskHelpers:
    def test_subset_of_mask(self):
        assert subset_of_mask(1) == (1,)
        assert subset_of_mask(2) == (2,)
        assert subset_of_mask(4) == (3,)
        assert subset_of_mask(5) == (1, 3)
        assert subset_of_mask(7) == (1, 2, 3)

    def test_mask_label(self):
        assert mask_label(5) == "1,3"
        assert mask_label(7) == "1,2,3"

    def test_max_patterns(self):
        assert MAX_PATTERNS == 7


class TestHandExample:
    """Edges: r1 = {0->1 (0.5), 2->3 (0.8)}, r2 = {0->1 (0.3)},
    r3 = {2->3 (0.4), 1->2 (0.9)}.  Expect patterns {1,2} on (0->1),
    {3} on (1->2), {1,3} on (2->3)."""

    def graph(self):
        return make_graph(
            4,
            [
                [(0, 1, 0.5), (2, 3, 0.8)],
                [(0, 1, 0.3)],
                [(2, 3, 0.4), (1, 2, 0.9)],
            ],
        )

    def test_hand_computed_patterns(self):
        ps = generate_patterns(self.graph())
        assert ps.masks() == [3, 4, 5]
        p3 = ps.get(3)  # relations {1,2}
        np.testing.assert_array_equal(p3.rows, [1])
        np.testing.assert_array_equal(p3.cols, [0])
        assert ad.value(p3.vals)[0] == pytest.approx((0.5 + 0.3) / 2)
        p4 = ps.get(4)  # relation {3} alone
        np.testing.assert_array_equal(p4.rows, [2])
        np.testing.assert_array_equal(p4.cols, [1])
        assert ad.value(p4.vals)[0] == pytest.approx(0.9)
        p5 = ps.get(5)  # relations {1,3}
        np.testing.assert_array_equal(p5.rows, [3])
        np.testing.assert_array_equal(p5.cols, [2])
        assert ad.value(p5.vals)[0] == pytest.approx((0.8 + 0.4) / 2)

    def test_oracle_agrees(self):
        g = self.graph()
        assert patterns_allclose(generate_patterns(g), pattern_oracle(g))

    def test_to_dense(self):
        ps = generate_patterns(self.graph())
        dense = ps.get(4).to_dense(4)
        want = np.zeros((4, 4))
        want[2, 1] = 0.9
        np.testing.assert_array_equal(dense, want)


class TestAllSevenMasks:
    def test_every_subset_realisable(self):
        # one ordered pair per mask: pair (0, m) participates in exactly the
        # relations named by mask m's bits
        triples = [[], [], []]
        for mask in range(1, 8):
            for r in range(3):
                if mask >> r & 1:
                    triples[r].append((0, mask, 0.5))
        g = make_graph(8, triples)
        ps = generate_patterns(g)
        assert ps.masks() == list(range(1, 8))
        for p in ps:
            assert p.nnz == 1
            assert p.rows[0] == p.mask and p.cols[0] == 0
        assert patterns_allclose(ps, pattern_oracle(g))


class TestPartitionConservation:
    def test_disjoint_supports_tile_union(self):
        g = random_multiplex_graph(30, 0.15, seed=3)
        ps = generate_patterns(g)
        seen = set()
        for p in ps:
            for r, c in zip(p.rows, p.cols):
                assert (r, c) not in seen, "pair appears in two patterns"
                seen.add((int(r), int(c)))
        connected = set()
        for rel in range(1, 4):
            src, dst, _ = g.relation(rel)
            connected.update(zip(dst.tolist(), src.tolist()))
        assert seen == connected

    def test_nnz_conservation(self):
        g = random_multiplex_graph(40, 0.1, seed=4)
        ps = generate_patterns(g)
        connected = set()
        for rel in range(1, 4):
            src, dst, _ = g.relation(rel)
            connected.update(zip(dst.tolist(), src.tolist()))
        assert sum(p.nnz for p in ps) == len(connected)


class TestOracleEquivalence:
    def test_random_corpus_sample(self):
        for seed in range(25):
            g = random_multiplex_graph(25, 0.12, seed=seed)
            assert patterns_allclose(generate_patterns(g), pattern_oracle(g))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=0.02, max_value=0.5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_equivalence(self, n, density, seed):
        g = random_multiplex_graph(n, density, seed=seed)
        assert patterns_allclose(generate_patterns(g), pattern_oracle(g))

    def test_oracle_node_limit(self):
        g = random_multiplex_graph(4, 0.5, seed=0)
        g.structure.n_nodes = 20_000
        with pytest.raises(ValueError):
            pattern_oracle(g)


class TestStructuralMembership:
    def test_zero_weight_edge_still_counts(self):
        g = make_graph(3, [[(0, 1, 0.0)], [(0, 1, 0.7)], []])
        ps = generate_patterns(g)
        assert ps.masks() == [3]  # the zero-weight edge keeps relation 1 present
        assert ad.value(ps.get(3).vals)[0] == pytest.approx(0.35)

    def test_empty_graph(self):
        g = make_graph(5, [[], [], []])
        ps = generate_patterns(g)
        assert len(ps) == 0
        assert pattern_oracle(g).masks() == []


class TestOrdering:
    def test_entries_sorted_row_major(self):
        g = random_multiplex_graph(20, 0.2, seed=5)
        for p in generate_patterns(g):
            keys = list(zip(p.rows.tolist(), p.cols.tolist()))
            assert keys == sorted(keys)

    def test_edge_order_independence(self):
        rng = np.random.default_rng(6)
        triples = [
            [(0, 1, 0.2), (2, 0, 0.4), (1, 2, 0.6)],
            [(0, 1, 0.9)],
            [(2, 0, 0.5)],
        ]
        g1 = make_graph(3, triples)
        shuffled = [list(t) for t in triples]
        for t in shuffled:
            rng.shuffle(t)
        g2 = make_graph(3, shuffled)
        assert patterns_allclose(generate_patterns(g1), generate_patterns(g2))


class TestDifferentiability:
    def test_gradient_splits_mean_over_relations(self):
        g = make_graph(3, [[(0, 1, 0.5)], [(0, 1, 0.3)], []])
        g.weights = [ad.Tensor(w) for w in g.weights]
        ps = generate_patterns(g)
        ad.sum(ps.get(3).vals).backward()
        # the pair's value is (w1 + w2)/2, so each weight gets gradient 1/2
        np.testing.assert_allclose(g.weights[0].grad, [0.5])
        np.testing.assert_allclose(g.weights[1].grad, [0.5])


class TestRealGraphPatterns:
    def test_image_graph_yields_singleton_masks(self):
        rng = np.random.default_rng(7)
        xp = rng.normal(size=(6, 5))
        ys = [rng.normal(size=(6, 5)) for _ in range(BANDS)]
        g = build_graph(xp, ys, k=2)
        ps = generate_patterns(g)
        # relations are type-disjoint on the image graph, so only the
        # single-relation subsets can be populated
        assert set(ps.masks()) <= {1, 2, 4}
        assert set(ps.masks()) == {1, 2, 4}


class TestPatternsAllclose:
    def test_detects_differences(self):
        base = PatternSet(3, [RelationPattern(1, np.array([0]), np.array([1]), np.array([0.5]))])
        same = PatternSet(3, [RelationPattern(1, np.array([0]), np.array([1]), np.array([0.5]))])
        assert patterns_allclose(base, same)
        other_mask = PatternSet(3, [RelationPattern(2, np.array([0]), np.array([1]), np.array([0.5]))])
        assert not patterns_allclose(base, other_mask)
        other_support = PatternSet(3, [RelationPattern(1, np.array([1]), np.array([0]), np.array([0.5]))])
        assert not patterns_allclose(base, other_support)
        other_val = PatternSet(3, [RelationPattern(1, np.array([0]), np.array([1]), np.array([0.5 + 1e-6]))])
        assert not patterns_allclose(base, other_val)
        assert patterns_allclose(base, other_val, tol=1e-5)
