"""Unit tests for the random tree generators."""

import numpy as np
import pytest

from repro.core import ConfigurationError
from repro.workloads import (
    galton_watson_tree,
    layered_tree,
    random_attachment_tree,
    random_binary_tree,
    random_out_forest,
)


class TestRandomAttachment:
    def test_exact_size_and_shape(self):
        d = random_attachment_tree(50, seed=0)
        assert d.n == 50 and d.is_out_tree

    def test_deterministic_given_seed(self):
        assert random_attachment_tree(30, 7) == random_attachment_tree(30, 7)

    def test_different_seeds_differ(self):
        assert random_attachment_tree(30, 1) != random_attachment_tree(30, 2)

    def test_bias_controls_depth(self):
        deep = random_attachment_tree(200, 0, bias=5.0)
        shallow = random_attachment_tree(200, 0, bias=-5.0)
        assert deep.span > shallow.span

    def test_single_node(self):
        assert random_attachment_tree(1, 0).n == 1

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            random_attachment_tree(0)

    def test_accepts_generator(self):
        rng = np.random.default_rng(0)
        d1 = random_attachment_tree(10, rng)
        d2 = random_attachment_tree(10, rng)  # advances state
        assert d1.n == d2.n == 10

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 200])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_scalar_draw_loop(self, n, seed):
        """The one-call draw gives the parents, and leaves the generator in
        the state, that drawing each node's parent in turn would."""
        rng = np.random.default_rng(seed)
        expected = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
        expected_next = int(rng.integers(0, 2**62))
        rng = np.random.default_rng(seed)
        dag = random_attachment_tree(n, rng)
        assert dag.parent_array().tolist() == expected
        assert int(rng.integers(0, 2**62)) == expected_next


class TestRandomBinary:
    def test_shape(self):
        d = random_binary_tree(80, seed=3)
        assert d.n == 80 and d.is_out_tree
        assert int(d.outdegree.max()) <= 2

    def test_deterministic(self):
        assert random_binary_tree(40, 5) == random_binary_tree(40, 5)

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            random_binary_tree(0)


class TestGaltonWatson:
    def test_truncation(self):
        d = galton_watson_tree(100, seed=0, offspring_mean=3.0)
        assert 1 <= d.n <= 100
        assert d.is_out_tree

    def test_always_at_least_root(self):
        for seed in range(10):
            assert galton_watson_tree(50, seed).n >= 1

    def test_max_children_respected(self):
        d = galton_watson_tree(300, seed=1, offspring_mean=10.0, max_children=3)
        assert int(d.outdegree.max()) <= 3

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            galton_watson_tree(0)


class TestLayeredTree:
    def test_widths_realized(self):
        widths = [3, 5, 2, 7]
        d = layered_tree(widths, seed=0)
        assert d.n == sum(widths)
        assert d.depth_counts.tolist() == [0] + widths
        assert d.is_out_forest

    def test_level_ids_sequential(self):
        d = layered_tree([2, 3], seed=0)
        assert d.depth.tolist() == [1, 1, 2, 2, 2]

    def test_parents_in_previous_level(self):
        d = layered_tree([2, 4, 4], seed=1)
        for v in range(d.n):
            for p in d.parents(v):
                assert d.depth[p] == d.depth[v] - 1

    def test_rejects_empty_or_zero_width(self):
        with pytest.raises(ConfigurationError):
            layered_tree([])
        with pytest.raises(ConfigurationError):
            layered_tree([2, 0, 1])


class TestRandomOutForest:
    def test_total_size(self):
        d = random_out_forest(60, seed=0)
        assert d.n == 60 and d.is_out_forest

    def test_requested_tree_count(self):
        d = random_out_forest(40, seed=0, n_trees=5)
        assert d.roots.size == 5

    def test_more_trees_than_nodes_clamped(self):
        d = random_out_forest(3, seed=0, n_trees=10)
        assert d.roots.size <= 3

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            random_out_forest(0)
