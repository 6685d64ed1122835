"""``simulate``'s rank-frontier fast path against ``_simulate_reference``.

The fast path keeps the ready set as one sorted array of selection ranks
and commits prefix (FIFO) or job-segment (SRPT) slices of it, macro-steps
on chain runs, and leaves for a dispatch on a mid-job cut without a
priority kernel. Every one of those routes must reproduce the per-node
reference loop byte for byte, on out-forests and on general DAGs, with
same-release ties, with and without an availability trace.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DAG, Instance, Job, simulate
from repro.core.simulator import _simulate_reference
from repro.schedulers import (
    ArbitraryTieBreak,
    DepthTieBreak,
    FIFOScheduler,
    LongestPathTieBreak,
    MostChildrenTieBreak,
    ReverseTieBreak,
    SRPTScheduler,
)
from repro.schedulers.base import TieBreak

from .strategies import general_dags, instances, out_forests


class OddFirstTieBreak(TieBreak):
    """Pure, ``key()`` only: odd ids first, each parity descending. With
    no priority kernel a mid-job cut leaves the fast path."""

    def key(self, job, node):
        return (node % 2 == 0, -node)


POLICIES = {
    "fifo-arbitrary": lambda: FIFOScheduler(ArbitraryTieBreak()),
    "fifo-reverse": lambda: FIFOScheduler(ReverseTieBreak()),
    "fifo-depth": lambda: FIFOScheduler(DepthTieBreak()),
    "fifo-lpf": lambda: FIFOScheduler(LongestPathTieBreak()),
    "fifo-mc": lambda: FIFOScheduler(MostChildrenTieBreak()),
    "fifo-key-only": lambda: FIFOScheduler(OddFirstTieBreak()),
    "fifo-no-kernel": lambda: FIFOScheduler(use_priority_kernel=False),
    "srpt": lambda: SRPTScheduler(),
    "srpt-lpf": lambda: SRPTScheduler(LongestPathTieBreak()),
}


def _bytes(schedule) -> bytes:
    return b"".join(np.asarray(c, dtype=np.int64).tobytes() for c in schedule.completion)


@st.composite
def cases(draw):
    dags = draw(st.sampled_from([out_forests(max_nodes=30), general_dags(max_nodes=15)]))
    # Releases from a narrow range: same-release ties are common.
    instance = draw(instances(min_jobs=1, max_jobs=5, dag_strategy=dags, max_release=6))
    m = draw(st.integers(1, 8))
    trace = draw(st.none() | st.lists(st.integers(0, m), max_size=12))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    return instance, m, trace, policy


@given(cases())
@settings(max_examples=300)
def test_fast_path_matches_reference(case):
    instance, m, trace, policy = case
    ref = _simulate_reference(instance, m, POLICIES[policy](), availability=trace)
    for macro in (None, False):
        got = simulate(
            instance, m, POLICIES[policy](), availability=trace, use_macro_steps=macro
        )
        assert _bytes(got) == _bytes(ref)
        got.validate()
        stats = got.engine_stats
        assert sum(stats.fast_path_exit.values()) == stats.select_calls
        assert stats.steps == stats.fast_forwarded_steps + stats.select_calls


@st.composite
def chain_heavy_cases(draw):
    """Long-legged spiders and chains at staggered releases: the macro
    path, its arrival/trace bounds and the lazy chain layout all fire."""
    jobs = []
    for _ in range(draw(st.integers(1, 4))):
        legs = draw(st.integers(1, 5))
        leg_len = draw(st.integers(1, 12))
        parents = [-1]
        for _ in range(legs):
            parents.append(0)
            parents.extend(range(len(parents) - 1, len(parents) - 1 + leg_len - 1))
        jobs.append(Job(DAG.from_parents(np.array(parents)), draw(st.integers(0, 15))))
    m = draw(st.integers(1, 8))
    trace = draw(st.none() | st.lists(st.integers(0, m), max_size=12))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    return Instance(jobs), m, trace, policy


@given(chain_heavy_cases())
@settings(max_examples=150)
def test_macro_steps_match_reference(case):
    instance, m, trace, policy = case
    ref = _simulate_reference(instance, m, POLICIES[policy](), availability=trace)
    got = simulate(instance, m, POLICIES[policy](), availability=trace)
    assert _bytes(got) == _bytes(ref)
    got.validate()
