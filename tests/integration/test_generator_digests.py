"""Pinned digests of the random out-trees the streaming and sweep paths see.

Each digest covers ``n`` and all four CSR arrays of every DAG in a corpus:
the first 300 ``dag_at`` trees of a seeded Poisson stream (the ``serve``
arrivals) and ``random_out_forest(40, seed=s)`` for ``s < 300``. They were
recorded from the per-node parent draws and the edge-pair ``from_parents``
that the vector draw and the direct CSR build replaced, so a change to
either the generator stream or the DAG arrays fails here.
"""

import hashlib

import numpy as np

from repro.workloads import random_out_forest
from repro.workloads.arrivals import PoissonSource


def csr_digest(dags) -> str:
    h = hashlib.sha256()
    for dag in dags:
        h.update(repr(dag.n).encode())
        for arr in (
            dag.child_indptr,
            dag.child_indices,
            dag.parent_indptr,
            dag.parent_indices,
        ):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def test_poisson_stream_dags_pinned():
    source = PoissonSource(0.4, 7, dag_nodes=64)
    assert csr_digest(source.dag_at(k) for k in range(300)) == (
        "208238a6ed280bf315184beb602b326b412e19a23b6675c9e26cbbfb81595051"
    )


def test_random_out_forests_pinned():
    assert csr_digest(random_out_forest(40, seed=s) for s in range(300)) == (
        "f11da23d0189d8eac0e693844781b9e44e26ca7830f45c283ca2f0ae3423f3ef"
    )
