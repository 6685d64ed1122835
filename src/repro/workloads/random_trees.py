"""Random out-tree generators.

These produce the tree shapes the paper's introduction motivates (recursion
trees of dynamic-multithreaded programs) in randomized form, for sweeps in
the LPF-optimality and Algorithm-𝒜 experiments. All generators take a
``numpy.random.Generator`` (or an int seed) and are deterministic given it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.dag import DAG
from ..core.exceptions import ConfigurationError
from .cache import cached_generator, int_seed_required

__all__ = [
    "random_attachment_tree",
    "random_binary_tree",
    "galton_watson_tree",
    "layered_tree",
    "random_out_forest",
]


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_attachment_tree(
    n: int, seed=None, *, bias: float = 0.0
) -> DAG:
    """Random recursive tree: node ``i`` attaches to a random node ``< i``.

    ``bias > 0`` tilts attachment toward recent nodes (deeper, chain-like
    trees); ``bias < 0`` toward old nodes (shallow, star-like trees);
    ``bias = 0`` is the uniform random recursive tree (expected span
    Θ(log n)).
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = _rng(seed)
    parents = np.full(n, -1, dtype=np.int64)
    if bias == 0.0:
        # One vector draw: the same values, and the same generator state
        # afterwards, as drawing rng.integers(0, i) for i = 1..n-1 in turn.
        parents[1:] = rng.integers(0, np.arange(1, n))
    else:
        for i in range(1, n):
            weights = np.arange(1, i + 1, dtype=np.float64) ** bias
            weights /= weights.sum()
            parents[i] = rng.choice(i, p=weights)
    return DAG.from_parents(parents)


def random_binary_tree(n: int, seed=None) -> DAG:
    """Uniform-ish random binary out-tree grown by attaching each new node
    to a uniformly random node that still has fewer than two children."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = _rng(seed)
    parents = np.full(n, -1, dtype=np.int64)
    open_slots = [0, 0]  # node 0 has two free child slots
    for i in range(1, n):
        k = int(rng.integers(0, len(open_slots)))
        open_slots[k], open_slots[-1] = open_slots[-1], open_slots[k]
        parent = open_slots.pop()
        parents[i] = parent
        open_slots.extend([i, i])
    return DAG.from_parents(parents)


def galton_watson_tree(
    max_nodes: int,
    seed=None,
    *,
    offspring_mean: float = 1.8,
    max_children: int = 8,
) -> DAG:
    """Galton–Watson branching tree, truncated at ``max_nodes``.

    Children counts are Poisson(``offspring_mean``) clipped to
    ``max_children``; generation proceeds breadth-first so truncation keeps
    the tree's upper levels intact. Always returns at least one node.
    """
    if max_nodes < 1:
        raise ConfigurationError("max_nodes must be >= 1")
    rng = _rng(seed)
    parents = [-1]
    frontier = [0]
    while frontier and len(parents) < max_nodes:
        nxt: list[int] = []
        for node in frontier:
            k = min(int(rng.poisson(offspring_mean)), max_children)
            for _ in range(k):
                if len(parents) >= max_nodes:
                    break
                parents.append(node)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return DAG.from_parents(np.array(parents, dtype=np.int64))


@cached_generator(safe=int_seed_required)
def layered_tree(widths: list[int], seed=None) -> DAG:
    """Out-forest with prescribed per-level widths: level ``k`` has
    ``widths[k]`` nodes, each attached to a random node of level ``k-1``.

    Any positive width profile is realizable as an out-forest (level-0
    nodes are roots), which makes this the building block of the
    packed-instance generator.
    """
    if not widths or any(w < 1 for w in widths):
        raise ConfigurationError("widths must be a nonempty list of positive ints")
    rng = _rng(seed)
    parents: list[int] = [-1] * widths[0]
    prev_start = 0
    for k in range(1, len(widths)):
        prev = list(range(prev_start, prev_start + widths[k - 1]))
        prev_start = len(parents)
        for _ in range(widths[k]):
            parents.append(int(rng.choice(prev)))
    return DAG.from_parents(np.array(parents, dtype=np.int64))


def random_out_forest(
    n: int,
    seed=None,
    *,
    n_trees: Optional[int] = None,
    bias: float = 0.0,
) -> DAG:
    """Out-forest of ``n`` nodes split over ``n_trees`` random attachment
    trees (default: a Poisson-ish number around ``sqrt(n)``)."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = _rng(seed)
    if n_trees is None:
        n_trees = max(1, int(rng.integers(1, int(np.sqrt(n)) + 2)))
    n_trees = min(n_trees, n)
    sizes = np.full(n_trees, n // n_trees, dtype=np.int64)
    sizes[: n % n_trees] += 1
    dags = [random_attachment_tree(int(s), rng, bias=bias) for s in sizes if s > 0]
    union, _ = DAG.disjoint_union(dags)
    return union
