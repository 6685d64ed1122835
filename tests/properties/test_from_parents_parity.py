"""``DAG.from_parents`` against the general edge-pair constructor.

``from_parents`` builds both CSRs straight from the parent array; the
general constructor sorts edge pairs. On any parent array both must give
the same arrays, flags and derived passes, and reject the same inputs
with the same exception types.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DAG, CycleError, GraphError


def _edge_constructor(parents) -> DAG:
    parr = np.asarray(parents, dtype=np.int64)
    kids = np.flatnonzero(parr >= 0)
    return DAG(parr.size, np.stack([parr[kids], kids], axis=1))


@st.composite
def parent_arrays(draw, max_nodes: int = 60):
    """Relabelled forests: node ``i`` attaches to a lower id or is a root,
    then ids are permuted so parents may carry higher ids than children."""
    n = draw(st.integers(0, max_nodes))
    parents = [draw(st.integers(-1, i - 1)) for i in range(n)]
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    relabelled = np.full(n, -1, dtype=np.int64)
    for child, parent in enumerate(parents):
        relabelled[perm[child]] = -1 if parent < 0 else perm[parent]
    return relabelled


def _assert_same(dag: DAG, ref: DAG) -> None:
    assert dag.n == ref.n
    for name in ("child_indptr", "child_indices", "parent_indptr", "parent_indices"):
        got, want = getattr(dag, name), getattr(ref, name)
        assert got.dtype == want.dtype == np.int64, name
        assert np.array_equal(got, want), name
        assert not got.flags.writeable, name
        assert got.flags.c_contiguous, name
    for name in ("depth", "height"):
        got, want = getattr(dag, name), getattr(ref, name)
        assert got.dtype == np.int64 and np.array_equal(got, want), name
    assert dag == ref


@given(parent_arrays())
def test_matches_edge_constructor(parents):
    _assert_same(DAG.from_parents(parents), _edge_constructor(parents))


@pytest.mark.parametrize("n", [0, 1, 2, 50])
def test_all_roots(n):
    parents = np.full(n, -1, dtype=np.int64)
    _assert_same(DAG.from_parents(parents), _edge_constructor(parents))
    _assert_same(DAG.from_parents(parents.tolist()), DAG(n))


def test_does_not_alias_input():
    parents = np.array([-1, 0, 0, 1], dtype=np.int64)
    dag = DAG.from_parents(parents)
    parents[3] = 2
    assert dag.parent_array().tolist() == [-1, 0, 0, 1]


@pytest.mark.parametrize(
    "parents, error",
    [
        ([-2], GraphError),
        ([-1, 2], GraphError),
        ([0], CycleError),  # self-loop
        ([-1, 1], CycleError),  # self-loop below a root
        ([1, 0], CycleError),  # 2-cycle
        ([1, 2, 0], CycleError),  # 3-cycle
        ([-1, 2, 3, 1, 3], CycleError),  # cycle with a tail hanging off it
    ],
)
def test_rejects_like_edge_constructor(parents, error):
    with pytest.raises(error):
        DAG.from_parents(parents)
    if error is CycleError:
        with pytest.raises(error):
            _edge_constructor(parents)


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)
    )
)
def test_arbitrary_parent_arrays_fail_alike(parents):
    """Any in-range array, cyclic or not: both constructors raise the same
    exception type, or both build the same DAG."""
    outcomes = []
    for build in (DAG.from_parents, _edge_constructor):
        try:
            outcomes.append(build(parents))
        except (GraphError, CycleError) as exc:
            outcomes.append(type(exc))
    got, want = outcomes
    if isinstance(want, DAG):
        _assert_same(got, want)
    else:
        assert got is want
