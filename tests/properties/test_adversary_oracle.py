"""The array builder of the Section 4 adversary against the per-subjob
co-simulation it replaced (``adversary_oracle``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReproError
from repro.workloads import build_fifo_adversary

from .adversary_oracle import oracle_fifo_adversary


@st.composite
def adversary_args(draw):
    m = draw(st.integers(2, 24))
    return dict(
        m=m,
        n_jobs=draw(st.integers(1, 3 * m)),
        n_layers=draw(st.one_of(st.none(), st.integers(1, m + 3))),
        # Both overloaded periods (< m+1, no witness) and the paper's regime.
        period=draw(st.one_of(st.none(), st.integers(1, m), st.integers(m + 1, 2 * m + 2))),
        key_placement=draw(st.sampled_from(["last", "first", "random"])),
        seed=draw(st.integers(0, 2**16)),
    )


def _build(builder, args):
    try:
        return builder(**args), None
    except (ReproError, IndexError) as exc:
        return None, exc


def _assert_schedules_equal(a, b):
    assert len(a.completion) == len(b.completion)
    for x, y in zip(a.completion, b.completion):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@settings(max_examples=60)
@given(adversary_args())
def test_matches_per_subjob_oracle(args):
    want, want_exc = _build(oracle_fifo_adversary, args)
    got, got_exc = _build(build_fifo_adversary, args)
    if want_exc is not None:
        # The oracle's witness can overflow when n_layers exceeds m; the
        # builder must refuse the same arguments.
        assert isinstance(got_exc, ReproError), (want_exc, got_exc)
        return
    assert got_exc is None, got_exc
    assert (got.m, got.period) == (want.m, want.period)
    assert len(got.instance) == len(want.instance)
    for a, b in zip(got.instance, want.instance):
        assert (a.release, a.label, a.dag.n) == (b.release, b.label, b.dag.n)
        assert np.array_equal(a.dag.child_indptr, b.dag.child_indptr)
        assert np.array_equal(a.dag.child_indices, b.dag.child_indices)
        assert np.array_equal(a.dag.depth, b.dag.depth)
    _assert_schedules_equal(got.fifo_schedule, want.fifo_schedule)
    assert (got.opt_witness is None) == (want.opt_witness is None)
    if want.opt_witness is not None:
        _assert_schedules_equal(got.opt_witness, want.opt_witness)


@settings(max_examples=60)
@given(adversary_args(), st.integers(0, 400))
def test_max_steps_guard_matches_oracle(args, max_steps):
    args = dict(args, max_steps=max_steps)
    want, want_exc = _build(oracle_fifo_adversary, args)
    got, got_exc = _build(build_fifo_adversary, args)
    guard = "co-simulation exceeded"
    want_exceeded = want_exc is not None and guard in str(want_exc)
    got_exceeded = got_exc is not None and guard in str(got_exc)
    assert got_exceeded == want_exceeded, (want_exc, got_exc)
    if want_exceeded:
        with pytest.raises(ReproError, match=f"exceeded {max_steps} steps"):
            build_fifo_adversary(**args)
