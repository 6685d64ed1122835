"""EngineStats: per-run counters, the process-wide accumulator, and the
stats attached to schedules by ``simulate``."""

import pytest

from repro.core import (
    EngineStats,
    Instance,
    Job,
    chain,
    engine_stats_snapshot,
    reset_engine_stats,
    simulate,
)
from repro.schedulers import FIFOScheduler
from repro.workloads import layered_tree


def _packed_instance():
    return Instance([Job(layered_tree([4] * 20, seed=0), 5 * i) for i in range(2)])


class TestPerRunStats:
    def test_attached_to_schedule(self):
        s = simulate(_packed_instance(), 4, FIFOScheduler())
        st = s.engine_stats
        assert isinstance(st, EngineStats)
        assert st.selections == s.instance.total_work
        assert st.steps == s.makespan
        assert st.steps == st.fast_forwarded_steps + st.select_calls
        assert st.sim_seconds > 0

    def test_fast_path_counters_consistent(self):
        # m=4 keeps the whole run in the forced regime (never resyncs).
        st = simulate(_packed_instance(), 4, FIFOScheduler()).engine_stats
        assert st.fast_forwarded_steps > 0
        assert st.resyncs == 0 and st.select_calls == 0
        # m=6 truncates job 1 mid-frontier once both overlap. With the
        # priority kernel (the default) the engine resolves truncations
        # itself — still zero dispatches, with kernel steps counted.
        st = simulate(_packed_instance(), 6, FIFOScheduler()).engine_stats
        assert st.fast_forwarded_steps > 0
        assert st.kernel_steps > 0
        assert st.select_calls == 0 and st.resyncs == 0
        assert st.fast_fraction == 1.0

    def test_kernel_disabled_resyncs_like_before(self):
        # Forcing the reference heap path restores the pre-kernel behavior:
        # a mid-frontier truncation leaves fast mode and resyncs.
        scheduler = FIFOScheduler(use_priority_kernel=False)
        st = simulate(_packed_instance(), 6, scheduler).engine_stats
        assert st.fast_forwarded_steps > 0
        assert st.kernel_steps == 0
        assert st.select_calls > 0
        assert st.resyncs >= 1
        assert 0.0 < st.fast_fraction < 1.0

    def test_ns_per_subjob_positive(self):
        s = simulate(Instance([Job(chain(5), 0)]), 1, FIFOScheduler())
        assert s.engine_stats.ns_per_subjob > 0

    def test_schedules_built_directly_have_none(self):
        s = simulate(Instance([Job(chain(2), 0)]), 1, FIFOScheduler())
        from repro.core import Schedule

        rebuilt = Schedule(s.instance, s.m, s.completion)
        assert rebuilt.engine_stats is None


class TestAccumulator:
    def test_snapshot_delta_counts_runs(self):
        before = engine_stats_snapshot()
        simulate(Instance([Job(chain(6), 0)]), 2, FIFOScheduler())
        after = engine_stats_snapshot()
        d = after.delta(before)
        assert d.selections == 6
        assert d.steps == 6
        assert d.sim_seconds > 0

    def test_reset_zeroes(self):
        simulate(Instance([Job(chain(3), 0)]), 1, FIFOScheduler())
        reset_engine_stats()
        snap = engine_stats_snapshot()
        assert snap.steps == 0 and snap.selections == 0

    def test_snapshot_is_a_copy(self):
        snap = engine_stats_snapshot()
        snap.steps += 1000
        assert engine_stats_snapshot().steps != snap.steps or snap.steps == 1000


class TestArithmetic:
    def test_add_and_delta_roundtrip(self):
        a = EngineStats(steps=5, fast_forwarded_steps=2, selections=40,
                        select_calls=3, resyncs=1, sim_seconds=0.5)
        b = EngineStats(steps=2, selections=10, select_calls=2, sim_seconds=0.1)
        total = EngineStats()
        total.add(a)
        total.add(b)
        d = total.delta(a)
        assert (d.steps, d.selections, d.select_calls) == (2, 10, 2)
        assert d.sim_seconds == pytest.approx(0.1)

    def test_summary_mentions_key_fields(self):
        st = EngineStats(steps=10, fast_forwarded_steps=4, selections=100,
                         select_calls=6, resyncs=2, sim_seconds=0.01)
        text = st.summary()
        for fragment in ("steps=10", "fast=4", "selections=100", "ns/subjob"):
            assert fragment in text

    def test_fast_fraction_handles_zero_steps(self):
        assert EngineStats().fast_fraction == 0.0
        assert EngineStats().ns_per_subjob == 0.0


class TestBatchedCounters:
    def test_record_batch_step_buckets_by_power_of_two(self):
        st = EngineStats()
        for n_active in (1, 2, 3, 4, 1000):
            st.record_batch_step(n_active)
        assert st.batch_steps == 5
        assert st.batch_size_histogram == {0: 1, 1: 2, 2: 1, 9: 1}

    def test_add_merges_histograms_key_wise(self):
        """The per-worker aggregation bug this guards: folding worker
        deltas must SUM histogram buckets, not overwrite them (overwrite
        keeps only the last worker's counts)."""
        total = EngineStats()
        a = EngineStats(batch_steps=3, batch_size_histogram={1: 2, 3: 1})
        b = EngineStats(batch_steps=2, batch_size_histogram={1: 1, 5: 1})
        total.add(a)
        total.add(b)
        assert total.batch_steps == 5
        assert total.batch_size_histogram == {1: 3, 3: 1, 5: 1}

    def test_delta_subtracts_histograms_per_key(self):
        now = EngineStats(
            batch_steps=7,
            fallback_runs=3,
            batch_size_histogram={1: 4, 2: 2, 5: 1},
        )
        before = EngineStats(
            batch_steps=4, fallback_runs=1, batch_size_histogram={1: 4, 2: 1}
        )
        d = now.delta(before)
        assert d.batch_steps == 3
        assert d.fallback_runs == 2
        assert d.batch_size_histogram == {2: 1, 5: 1}  # equal keys dropped

    def test_snapshot_histogram_is_a_deep_copy(self):
        baseline = engine_stats_snapshot().batch_size_histogram.get(61, 0)
        snap = engine_stats_snapshot()
        snap.batch_size_histogram[61] = baseline + 99
        # Mutating the snapshot's dict must not write through to the
        # global accumulator (a shallow replace() would share the dict).
        assert engine_stats_snapshot().batch_size_histogram.get(61, 0) == baseline

    def test_summary_omits_batch_fields_when_unused(self):
        st = EngineStats(steps=10, selections=5)
        assert "batch_steps" not in st.summary()

    def test_summary_includes_batch_fields_when_used(self):
        st = EngineStats(
            batch_steps=4,
            fallback_runs=1,
            batch_size_histogram={3: 4},
            steps=40,
        )
        text = st.summary()
        assert "batch_steps=4" in text
        assert "fallback_runs=1" in text
        assert "2^3" in text


class TestReasonCodes:
    """``fast_path_exit`` and ``macro_abort``: why a step left the fast
    path or a macro candidate committed one step only."""

    @staticmethod
    def _exits(scheduler, **kwargs):
        st = simulate(_packed_instance(), 6, scheduler, **kwargs).engine_stats
        assert st.select_calls > 0
        assert sum(st.fast_path_exit.values()) == st.select_calls
        return set(st.fast_path_exit)

    def test_exit_reasons(self):
        from repro.core import SimulationObserver
        from repro.faults import FaultInjector
        from repro.schedulers import RandomTieBreak, WorkStealingScheduler

        assert self._exits(FIFOScheduler(use_priority_kernel=False)) == {
            "no_kernel_truncation"
        }
        assert self._exits(FIFOScheduler(RandomTieBreak(seed=1))) == {
            "impure_tiebreak"
        }
        assert self._exits(WorkStealingScheduler(seed=1)) == {"select_only"}
        assert self._exits(
            FIFOScheduler(), observer=SimulationObserver()
        ) == {"observer"}
        assert self._exits(
            FIFOScheduler(), fault_injector=FaultInjector(crash_times=(1,))
        ) == {"faults"}

    def test_kernel_runs_never_exit(self):
        st = simulate(_packed_instance(), 6, FIFOScheduler()).engine_stats
        assert st.select_calls == 0 and st.fast_path_exit == {}

    @staticmethod
    def _aborts(jobs, m, availability=None):
        st = simulate(
            Instance(jobs), m, FIFOScheduler(), availability=availability
        ).engine_stats
        return st.macro_abort, st.macro_steps

    def test_macro_abort_reasons(self):
        from repro.core import star

        # A job arriving next step bounds the window to one step.
        assert self._aborts([Job(chain(5), 0), Job(chain(1), 1)], 2) == (
            {"arrival": 1, "chain_end": 1},
            1,
        )
        # A branching root, then leaves.
        assert self._aborts([Job(star(3), 0)], 4) == (
            {"not_chain": 1, "chain_end": 1},
            0,
        )
        # The trace grants one more processor next step.
        assert self._aborts([Job(chain(5), 0)], 2, availability=[1, 2]) == (
            {"trace": 1},
            1,
        )

    def test_counters_merge_and_print(self):
        a = EngineStats(fast_path_exit={"observer": 2}, macro_abort={"trace": 1})
        b = EngineStats(
            fast_path_exit={"observer": 1, "faults": 4},
            macro_abort={"arrival": 3},
        )
        total = EngineStats()
        total.add(a)
        total.add(b)
        assert total.fast_path_exit == {"observer": 3, "faults": 4}
        assert total.macro_abort == {"trace": 1, "arrival": 3}
        d = total.delta(a)
        assert d.fast_path_exit == {"observer": 1, "faults": 4}
        assert d.macro_abort == {"arrival": 3}
        text = total.summary()
        assert "fast_path_exit[faults:4 observer:3]" in text
        assert "macro_abort[arrival:3 trace:1]" in text
        assert "fast_path_exit" not in EngineStats().summary()

    def test_snapshot_copies_reason_dicts(self):
        reset_engine_stats()
        simulate(_packed_instance(), 6, FIFOScheduler(use_priority_kernel=False))
        snap = engine_stats_snapshot()
        before = dict(snap.fast_path_exit)
        simulate(_packed_instance(), 6, FIFOScheduler(use_priority_kernel=False))
        assert snap.fast_path_exit == before
