"""``DAG.depth`` and ``DAG.height`` on out-forests: the pointer-doubling
paths against Kahn and the per-level height pass."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DAG, CycleError, antichain, chain, spider
from repro.workloads import build_fifo_adversary, random_out_forest, random_series_parallel

from .strategies import out_forests


def _assert_paths_agree(dag: DAG) -> None:
    assert dag.is_out_forest
    forest, kahn = dag._forest_depth(), dag._kahn_depth()
    assert forest.dtype == kahn.dtype == np.int64
    assert np.array_equal(forest, kahn)
    assert np.array_equal(dag.depth, kahn)
    assert not dag.depth.flags.writeable
    forest_h, level_h = dag._forest_height(), dag._level_height()
    assert forest_h.dtype == level_h.dtype == np.int64
    assert np.array_equal(forest_h, level_h)
    assert np.array_equal(dag.height, level_h)
    assert not dag.height.flags.writeable


@given(out_forests(min_nodes=1, max_nodes=60), st.randoms(use_true_random=False))
def test_matches_kahn_on_relabelled_forests(dag, random):
    # The strategy only attaches nodes to lower ids; relabel so parents
    # may also carry higher ids than their children.
    perm = list(range(dag.n))
    random.shuffle(perm)
    perm = np.array(perm, dtype=np.int64)
    old_parents = dag.parent_array()
    parents = np.full(dag.n, -1, dtype=np.int64)
    has = old_parents >= 0
    parents[perm[has]] = perm[old_parents[has]]
    _assert_paths_agree(DAG.from_parents(parents))


@given(st.integers(1, 400), st.integers(0, 2**31 - 1))
def test_matches_kahn_on_random_out_forest(n, seed):
    _assert_paths_agree(random_out_forest(n, seed=seed))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_all_roots(n):
    dag = antichain(n)
    _assert_paths_agree(dag)
    assert np.array_equal(dag.depth, np.ones(n, dtype=np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 3000])
def test_single_deep_chain(n):
    _assert_paths_agree(chain(n))
    # The same chain with every parent carrying the higher id.
    reverse = DAG.from_parents(np.append(np.arange(1, n), -1))
    _assert_paths_agree(reverse)
    assert np.array_equal(reverse.depth, np.arange(n, 0, -1))


def test_empty_dag():
    assert DAG.from_parents([]).depth.shape == (0,)


@pytest.mark.parametrize("legs, leg_length", [(1, 1), (3, 5), (16, 200)])
def test_spider(legs, leg_length):
    dag = spider(legs, leg_length)
    _assert_paths_agree(dag)
    assert dag.height[0] == leg_length + 1


@pytest.mark.parametrize("m", [2, 5, 16])
def test_adversarial_comb(m):
    """Section 4 adversary jobs: a handle of layer keys, each parenting the
    next layer, whose other subjobs are leaf teeth."""
    adv = build_fifo_adversary(m, n_jobs=2 * m)
    for job in adv.instance:
        _assert_paths_agree(job.dag)


def _longest_path_heights(dag: DAG) -> list[int]:
    height = [0] * dag.n
    for v in reversed(dag.topological_order.tolist()):
        height[v] = 1 + max((height[c] for c in dag.children(v)), default=0)
    return height


def test_general_dag_takes_level_pass(monkeypatch):
    def forbidden(self):
        raise AssertionError("a general DAG reached _forest_height")

    monkeypatch.setattr(DAG, "_forest_height", forbidden)
    diamond = DAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    sp = random_series_parallel(60, seed=3)
    assert not diamond.is_out_forest and not sp.is_out_forest
    assert diamond.height.tolist() == [3, 2, 2, 1]
    assert sp.height.tolist() == _longest_path_heights(sp)


@pytest.mark.parametrize("length", range(2, 51))
@pytest.mark.parametrize("hanging", [0, 9])
def test_functional_graph_cycle_raises(length, hanging):
    """A parent array may close a cycle; nodes on it and every tree hanging
    off it are unreachable from any root. An acyclic component next to it
    must not be counted."""
    rng = np.random.default_rng(length * 100 + hanging)
    parents = [(i - 1) % length for i in range(length)]
    for v in range(length, length + hanging):
        parents.append(int(rng.integers(0, v)))  # onto the cycle or its trees
    acyclic = len(parents)
    parents += [-1, acyclic, acyclic + 1]  # a three-node chain
    perm = rng.permutation(len(parents))
    relabelled = np.full(len(parents), -1, dtype=np.int64)
    for v, p in enumerate(parents):
        relabelled[perm[v]] = -1 if p < 0 else perm[p]
    with pytest.raises(CycleError, match=rf"\({length + hanging} nodes unreachable\)"):
        DAG.from_parents(relabelled)
